import json
import os
import shutil

import numpy as np
import pytest

from capkit import pipeline
from capkit.artifacts import read_captions_tsv, read_json, read_nbest_tsv
from capkit.cli import main
from capkit.corpus import FeatureStore, load_features, save_features
from capkit.errors import InputDataError
from capkit.fixture import generate_fixture

@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fixture")
    generate_fixture(path, n_images=40, seed=3)
    return path


def run_cli(*args):
    return main([str(a) for a in args])


def save_subset(store, image_ids, path):
    """Write the vectors of ``image_ids`` from ``store``, in that order, to ``path``."""
    out = FeatureStore(store.dim)
    for image_id in image_ids:
        out.add(image_id, store.get(image_id))
    save_features(out, path)


def write_config(path, fixture_dir, detections=True, **fields):
    """A pipeline config over the fixture, split [30, 5, 5] unless overridden."""
    paths = {
        "captions": str(fixture_dir / "captions.json"),
        "features": str(fixture_dir / "features.fvec"),
    }
    if detections:
        paths["detections"] = str(fixture_dir / "detections.jsonl")
    path.write_text(json.dumps({"seed": 3, "paths": paths, "split": [30, 5, 5], **fields}))
    return path


class TestIngest:
    def test_writes_vocab_and_split(self, fixture_dir, tmp_path, capsys):
        code = run_cli(
            "ingest",
            "--captions", fixture_dir / "captions.json",
            "--features", fixture_dir / "features.fvec",
            "--detections", fixture_dir / "detections.jsonl",
            "--sizes", "30,5,5",
            "--seed", "7",
            "--out-dir", tmp_path,
        )
        assert code == 0
        vocab = read_json(tmp_path / "vocab.json")
        split = read_json(tmp_path / "split.json")
        assert len(vocab["tokens"]) > 5
        assert len(split["train"]) == 30
        assert "ingested" in capsys.readouterr().out

    def test_has_no_alpha_option(self, fixture_dir, tmp_path, capsys):
        # Ingest copies detections unthresholded, so its outputs do not depend on alpha.
        with pytest.raises(SystemExit) as exc:
            run_cli("ingest", "--captions", fixture_dir / "captions.json",
                    "--features", fixture_dir / "features.fvec", "--alpha", "0.5",
                    "--sizes", "30,5,5", "--out-dir", tmp_path)
        assert exc.value.code == 2
        assert "unrecognized arguments: --alpha 0.5" in capsys.readouterr().err

    def test_missing_features_file_exits_2(self, fixture_dir, tmp_path, capsys):
        code = run_cli(
            "ingest",
            "--captions", fixture_dir / "captions.json",
            "--features", tmp_path / "nope.fvec",
            "--sizes", "30,5,5",
            "--out-dir", tmp_path,
        )
        assert code == 2
        err = capsys.readouterr().err.strip()
        doc = json.loads(err)
        assert "nope.fvec" in doc["message"]

    @pytest.mark.parametrize("sizes, message", [
        ("30,5", "--sizes must be train,val,testval"),
        ("30,five,5", "bad --sizes value '30,five,5'"),
    ])
    def test_bad_sizes_exit_2(self, fixture_dir, tmp_path, capsys, sizes, message):
        capsys.readouterr()
        assert run_cli("ingest", "--captions", fixture_dir / "captions.json",
                       "--features", fixture_dir / "features.fvec", "--sizes", sizes,
                       "--out-dir", tmp_path / "run") == 2
        assert json.loads(capsys.readouterr().err) == {"error": "MalformedInput",
                                                       "message": message}
        assert not (tmp_path / "run").exists()


class TestKnnCaption:
    def test_consensus_and_onenn(self, fixture_dir, tmp_path):
        test_store_path = tmp_path / "test.fvec"
        # reuse a couple of fixture vectors as queries
        from capkit.corpus import load_features

        full = load_features(fixture_dir / "features.fvec")
        sub = FeatureStore(full.dim)
        for image_id in list(full.ids())[:4]:
            sub.add(image_id + 10000, full.get(image_id))
        save_features(sub, test_store_path)
        for mode in ("consensus", "onenn"):
            out = tmp_path / f"{mode}.tsv"
            code = run_cli(
                "knn-caption",
                "--features-train", fixture_dir / "features.fvec",
                "--features-test", test_store_path,
                "--captions", fixture_dir / "captions.json",
                "--k", "10", "--m", "20", "--mode", mode,
                "--seed", "1", "--out", out,
            )
            assert code == 0
            captions = read_captions_tsv(out)
            assert len(captions) == 4
            assert all(captions.values())


class TestTrainAndDecode:
    def test_me_train_decode_rescore_mert_eval(self, fixture_dir, tmp_path, capsys):
        me_model = tmp_path / "me.model"
        code = run_cli(
            "train-me",
            "--captions", fixture_dir / "captions.json",
            "--detections", fixture_dir / "detections.jsonl",
            "--alpha", "0.5", "--epochs", "3", "--lr", "0.3",
            "--out", me_model,
        )
        assert code == 0
        assert me_model.exists()

        nbest = tmp_path / "nbest.tsv"
        code = run_cli(
            "decode",
            "--model", me_model,
            "--detections", fixture_dir / "detections.jsonl",
            "--beam", "5", "--nbest", "8", "--max-len", "10",
            "--out", nbest,
        )
        assert code == 0
        lists = read_nbest_tsv(nbest)
        assert len(lists) == 40
        assert all(set(h.features) == {"logprob", "length", "covered"}
                   for nb in lists for h in nb.hypotheses)

        rnn_model = tmp_path / "rnn.model"
        code = run_cli(
            "train-rnn",
            "--mode", "mrnn",
            "--captions", fixture_dir / "captions.json",
            "--features", fixture_dir / "features.fvec",
            "--embed", "8", "--hidden", "12", "--epochs", "2", "--lr", "0.2",
            "--out", rnn_model,
        )
        assert code == 0

        rescored = tmp_path / "nbest_rescored.tsv"
        code = run_cli(
            "decode",
            "--model", rnn_model,
            "--rescore", nbest,
            "--features", fixture_dir / "features.fvec",
            "--feature-name", "mrnn",
            "--out", rescored,
        )
        assert code == 0
        lists = read_nbest_tsv(rescored)
        assert all("mrnn" in h.features for nb in lists for h in nb.hypotheses)

        weights_path = tmp_path / "weights.json"
        code = run_cli(
            "mert",
            "--nbest", rescored,
            "--refs", fixture_dir / "captions.json",
            "--features", "logprob,mrnn,length",
            "--restarts", "2", "--iters", "5", "--seed", "0",
            "--out", weights_path,
        )
        assert code == 0
        weights = read_json(weights_path)
        assert set(weights) == {"logprob", "mrnn", "length"}

        # plain decode with the image-conditioned model
        plain = tmp_path / "plain.tsv"
        code = run_cli(
            "decode",
            "--model", rnn_model,
            "--features", fixture_dir / "features.fvec",
            "--beam", "4", "--nbest", "1", "--max-len", "10",
            "--out", plain,
        )
        assert code == 0

        # eval against references
        hyp_tsv = tmp_path / "hyp.tsv"
        lists = read_nbest_tsv(nbest)
        from capkit.artifacts import write_captions_tsv

        write_captions_tsv(hyp_tsv, {nb.image_id: nb.hypotheses[0].tokens for nb in lists})
        capsys.readouterr()
        code = run_cli(
            "eval", "--hyp", hyp_tsv, "--refs", fixture_dir / "captions.json",
            "--metric", "all",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "BLEU" in out and "METEOR" in out

    def test_dgrnn_training(self, fixture_dir, tmp_path):
        model = tmp_path / "dgrnn.model"
        code = run_cli(
            "train-rnn",
            "--mode", "dgrnn",
            "--captions", fixture_dir / "captions.json",
            "--detections", fixture_dir / "detections.jsonl",
            "--embed", "8", "--hidden", "10", "--epochs", "1",
            "--out", model,
        )
        assert code == 0
        nbest = tmp_path / "dgrnn_nbest.tsv"
        code = run_cli(
            "decode",
            "--model", model,
            "--detections", fixture_dir / "detections.jsonl",
            "--beam", "4", "--nbest", "4", "--max-len", "10",
            "--out", nbest,
        )
        assert code == 0
        assert read_nbest_tsv(nbest)


    def _train(self, kind, fixture_dir, out, epochs):
        if kind == "melm":
            return run_cli(
                "train-me",
                "--captions", fixture_dir / "captions.json",
                "--detections", fixture_dir / "detections.jsonl",
                "--epochs", epochs, "--lr", "0.3",
                "--out", out,
            )
        return run_cli(
            "train-rnn",
            "--mode", "dgrnn",
            "--captions", fixture_dir / "captions.json",
            "--detections", fixture_dir / "detections.jsonl",
            "--embed", "8", "--hidden", "10", "--epochs", epochs,
            "--out", out,
        )

    @pytest.mark.parametrize("kind", ["melm", "dgrnn"])
    def test_rescore_with_decoding_model_reproduces_logprob(
        self, fixture_dir, tmp_path, capsys, kind
    ):
        model = tmp_path / "model"
        assert self._train(kind, fixture_dir, model, 2) == 0
        nbest = tmp_path / "nbest.tsv"
        capsys.readouterr()
        code = run_cli(
            "decode",
            "--model", model,
            "--detections", fixture_dir / "detections.jsonl",
            "--beam", "4", "--nbest", "50", "--max-len", "10",
            # END always admissible, so every list finishes (partials lack the
            # END term rescoring adds); the remaining set still shrinks per token
            "--min-coverage", "0",
            "--out", nbest,
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "of 50 requested" in out
        assert "incomplete" not in out

        rescored = tmp_path / "rescored.tsv"
        code = run_cli("decode", "--model", model, "--rescore", nbest,
                       "--feature-name", "again", "--out", rescored)
        assert code == 2
        assert "--detections" in json.loads(capsys.readouterr().err.strip())["message"]
        assert not rescored.exists()

        code = run_cli("decode", "--model", model, "--rescore", nbest,
                       "--detections", fixture_dir / "detections.jsonl",
                       "--feature-name", "again", "--out", rescored)
        assert code == 0
        hyps = [h for nb in read_nbest_tsv(rescored) for h in nb.hypotheses]
        assert hyps
        for hyp in hyps:
            assert hyp.features["again"] == hyp.features["logprob"]

    @pytest.mark.parametrize("kind", ["melm", "dgrnn"])
    def test_zero_epochs_exits_2_without_model(self, fixture_dir, tmp_path, capsys, kind):
        model = tmp_path / "model"
        assert self._train(kind, fixture_dir, model, 0) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        key = "me_epochs" if kind == "melm" else "rnn_epochs"
        assert doc == {"error": "MalformedInput",
                       "message": f"hyperparameter out of range: {key} must be >= 1"}
        assert not model.exists()


class TestAnalyzeCli:
    def test_text_and_json_reports(self, fixture_dir, tmp_path, capsys):
        from capkit.artifacts import write_captions_tsv
        from capkit.corpus import load_captions, load_features, captions_by_image

        full = load_features(fixture_dir / "features.fvec")
        ids = sorted(full.ids())
        train_ids, test_ids = ids[:30], ids[30:]
        train_path = tmp_path / "train.fvec"
        test_path = tmp_path / "test.fvec"
        save_subset(full, train_ids, train_path)
        save_subset(full, test_ids, test_path)
        captions = captions_by_image(load_captions(fixture_dir / "captions.json"))
        generated = tmp_path / "gen.tsv"
        write_captions_tsv(generated, {i: captions[i][0] for i in test_ids})
        for report in ("text", "json"):
            capsys.readouterr()
            code = run_cli(
                "analyze",
                "--generated", generated,
                "--captions", fixture_dir / "captions.json",
                "--features-train", train_path,
                "--features-test", test_path,
                "--top-k", "5", "--tail", "0.2",
                "--report", report,
            )
            assert code == 0
            out = capsys.readouterr().out
            if report == "json":
                doc = json.loads(out)
                assert set(doc) == {"repetition", "binned_bleu"}
            else:
                assert "unique captions" in out

    def test_empty_train_index_exits_1(self, fixture_dir, tmp_path, capsys):
        """As knn-caption does, analyze refuses an empty training index."""
        from capkit.artifacts import write_captions_tsv
        from capkit.corpus import load_features

        full = load_features(fixture_dir / "features.fvec")
        test_ids = sorted(full.ids())[30:]
        train_path = tmp_path / "train.fvec"
        test_path = tmp_path / "test.fvec"
        save_subset(full, [], train_path)
        save_subset(full, test_ids, test_path)
        generated = tmp_path / "gen.tsv"
        write_captions_tsv(generated, {i: ("a", "cat") for i in test_ids})
        for argv in (
            ["knn-caption", "--captions", fixture_dir / "captions.json", "--mode", "onenn",
             "--out", tmp_path / "onenn.tsv"],
            ["analyze", "--generated", generated, "--captions", fixture_dir / "captions.json"],
        ):
            capsys.readouterr()
            code = run_cli(*argv, "--features-train", train_path, "--features-test", test_path)
            assert code == 1, argv[0]
            captured = capsys.readouterr()
            assert captured.out == ""
            assert json.loads(captured.err.strip())["error"] == "EmptyIndex"


# (id, write_config edit) that takes away the fact each row of pipeline._NEEDS tests
_LACKING = {
    "split sets train size 0": ("train", {"split": [0, 20, 20]}),
    "split sets val size 0": ("val", {"split": [30, 0, 10]}),
    "has no detections path": ("detections", {"detections": False}),
}


class TestPipelineCli:
    def test_eval_only_stage_with_prebuilt_artifacts(self, fixture_dir, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "seed": 3,
            "paths": {
                "captions": str(fixture_dir / "captions.json"),
                "features": str(fixture_dir / "features.fvec"),
                "detections": str(fixture_dir / "detections.jsonl"),
            },
            "split": [30, 5, 5],
            "hyperparameters": {"k": 5, "m": 10},
        }))
        out_dir = tmp_path / "run"
        code = run_cli("pipeline", "--config", config_path, "--out-dir", out_dir,
                       "--stages", "ingest,knn")
        assert code == 0
        capsys.readouterr()
        code = run_cli("pipeline", "--config", config_path, "--out-dir", out_dir,
                       "--stages", "eval")
        assert code == 0
        assert "BLEU" in capsys.readouterr().out
        scores = read_json(out_dir / "scores.json")
        assert "knn_consensus" in scores and "bleu" in scores["knn_consensus"]

    def test_bad_stage_name(self, fixture_dir, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "seed": 3,
            "paths": {
                "captions": str(fixture_dir / "captions.json"),
                "features": str(fixture_dir / "features.fvec"),
            },
            "split": [30, 5, 5],
        }))
        code = run_cli("pipeline", "--config", config_path,
                       "--out-dir", tmp_path / "x", "--stages", "nope")
        assert code == 2

    def test_empty_stage_list_exits_2_before_any_output(self, fixture_dir, tmp_path, capsys):
        config_path = write_config(tmp_path / "config.json", fixture_dir)
        capsys.readouterr()
        assert run_cli("pipeline", "--config", config_path, "--out-dir", tmp_path / "run",
                       "--stages", "") == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "MalformedInput",
            "message": f"unknown stages: ['']; valid: {list(pipeline.STAGE_ORDER)}",
        }
        assert not (tmp_path / "run").exists()

    def test_manifest_lists_the_files_a_stage_wrote(self, fixture_dir, tmp_path, capsys):
        # The second ingest, without detections, leaves the first one's
        # heldout_detections.jsonl in the directory, but did not write it.
        run_dir = tmp_path / "run"
        for detections in (True, False):
            config_path = write_config(tmp_path / "config.json", fixture_dir,
                                       detections=detections)
            capsys.readouterr()
            assert run_cli("pipeline", "--config", config_path, "--out-dir", run_dir,
                           "--stages", "ingest") == 0
        assert (run_dir / "heldout_detections.jsonl").exists()
        assert "[ingest] wrote vocab.json split.json heldout_captions.json\n" in (
            capsys.readouterr().out)
        assert sorted(read_json(run_dir / "manifest.json")["stages"]["ingest"]) == [
            "heldout_captions.json", "split.json", "vocab.json"]

    def test_decode_before_training_exits_2(self, fixture_dir, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "seed": 3,
            "paths": {
                "captions": str(fixture_dir / "captions.json"),
                "features": str(fixture_dir / "features.fvec"),
                "detections": str(fixture_dir / "detections.jsonl"),
            },
            "split": [30, 5, 5],
        }))
        out_dir = tmp_path / "run"
        code = run_cli("pipeline", "--config", config_path, "--out-dir", out_dir,
                       "--stages", "ingest")
        assert code == 0
        code = run_cli("pipeline", "--config", config_path, "--out-dir", out_dir,
                       "--stages", "decode")
        assert code == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert "me.model" in doc["message"]

    def test_hyperparameter_out_of_range(self, fixture_dir, tmp_path, capsys):
        # out-of-range and wrongly typed values both exit 2 with the JSON line
        for change in (
            {"hyperparameters": {"alpha": 3.0}},
            {"seed": "abc"},
            {"split": ["a", 5, 5]},
            {"hyperparameters": {"k": "ten"}},
        ):
            config_path = write_config(tmp_path / "config.json", fixture_dir,
                                       detections=False, **change)
            code = run_cli("pipeline", "--config", config_path, "--out-dir", tmp_path / "y")
            assert code == 2, change
            doc = json.loads(capsys.readouterr().err.strip())
            assert doc["error"] == "MalformedInput", change


    def test_seed_and_split_must_be_json_integers(self, fixture_dir, tmp_path, capsys):
        for change, message in (
            ({"seed": 2.7}, "config seed must be an integer, got 2.7"),
            ({"seed": True}, "config seed must be an integer, got True"),
            ({"split": [30.0, 5, 5]}, "config split entry must be an integer, got 30.0"),
        ):
            config_path = write_config(tmp_path / "config.json", fixture_dir,
                                       detections=False, **change)
            code = run_cli("pipeline", "--config", config_path, "--out-dir", tmp_path / "y")
            assert code == 2, change
            doc = json.loads(capsys.readouterr().err.strip())
            assert doc == {"error": "MalformedInput", "message": message}
        assert not (tmp_path / "y").exists()

    def test_hyperparameters_must_be_an_object(self, fixture_dir, tmp_path, capsys):
        for hyperparameters in ([], [["k", 5]], "k=5"):
            config_path = write_config(tmp_path / "config.json", fixture_dir,
                                       detections=False, hyperparameters=hyperparameters)
            for extra in ((), ("--set", "k=5")):
                code = run_cli("pipeline", "--config", config_path, "--out-dir",
                               tmp_path / "y", "--stages", "ingest", *extra)
                assert code == 2, (hyperparameters, extra)
                doc = json.loads(capsys.readouterr().err.strip())
                assert doc == {"error": "MalformedInput",
                               "message": "config hyperparameters must be a JSON object"}
        assert not (tmp_path / "y").exists()

    @pytest.mark.parametrize("manifest, problem", [
        pytest.param([], "the document must be an object, got []", id="array"),
        pytest.param({"stages": [1]}, "stages must be an object, got [1]", id="stages-array"),
        pytest.param({"stages": {"ingest": 1}}, "stages['ingest'] must be an object, got 1",
                     id="stage-entry-number"),
    ])
    def test_damaged_manifest_exits_2_before_any_stage(self, fixture_dir, tmp_path, capsys,
                                                       manifest, problem):
        config_path = write_config(tmp_path / "config.json", fixture_dir, detections=False)
        out_dir = tmp_path / "run"
        assert run_cli("pipeline", "--config", config_path, "--out-dir", out_dir,
                       "--stages", "ingest") == 0
        if isinstance(manifest, dict):  # under the run's own config hash
            manifest = {**read_json(out_dir / "manifest.json"), **manifest}
        (out_dir / "manifest.json").write_text(json.dumps(manifest))
        (out_dir / "vocab.json").unlink()
        capsys.readouterr()
        assert run_cli("pipeline", "--config", config_path, "--out-dir", out_dir,
                       "--stages", "ingest") == 2
        lines = capsys.readouterr().err.splitlines()
        assert [json.loads(line) for line in lines] == [{
            "error": "MalformedInput", "message": f"{out_dir / 'manifest.json'}: {problem}",
        }]
        assert not (out_dir / "vocab.json").exists()

    def test_rerank_without_val_images_exits_2_before_any_stage(
        self, fixture_dir, tmp_path, capsys
    ):
        config_path = write_config(tmp_path / "config.json", fixture_dir, split=[30, 0, 10])
        capsys.readouterr()
        assert run_cli("pipeline", "--config", config_path, "--out-dir", tmp_path / "run") == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "MalformedInput",
            "message": "the rerank stage runs MERT on the val images, but the config split "
                       "sets val size 0",
        }
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("stage, does, lacks", [row[:3] for row in pipeline._NEEDS],
                             ids=[f"{row[0]}-{_LACKING[row[2]][0]}" for row in pipeline._NEEDS])
    def test_each_stage_need_exits_2_before_any_stage(self, fixture_dir, tmp_path, capsys,
                                                      stage, does, lacks):
        config_path = write_config(tmp_path / "config.json", fixture_dir,
                                   **_LACKING[lacks][1])
        capsys.readouterr()
        assert run_cli("pipeline", "--config", config_path, "--out-dir", tmp_path / "run",
                       "--stages", f"ingest,{stage}") == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "MalformedInput",
            "message": f"the {stage} stage {does}, but the config {lacks}",
        }
        assert not (tmp_path / "run").exists()

    def test_seed_option_overrides_the_config_seed(self, fixture_dir, tmp_path):
        config_path = write_config(tmp_path / "config.json", fixture_dir)
        assert run_cli("pipeline", "--config", config_path, "--out-dir", tmp_path / "option",
                       "--stages", "ingest", "--seed", "11") == 0
        config_path = write_config(tmp_path / "seeded.json", fixture_dir, seed=11)
        assert run_cli("pipeline", "--config", config_path, "--out-dir", tmp_path / "config",
                       "--stages", "ingest") == 0
        for name in ("split.json", "manifest.json"):
            assert ((tmp_path / "option" / name).read_bytes()
                    == (tmp_path / "config" / name).read_bytes())
        assert read_json(tmp_path / "option" / "manifest.json")["seed"] == 11

    def test_set_value_that_is_not_json_is_a_string(self, fixture_dir, tmp_path, capsys):
        config_path = write_config(tmp_path / "config.json", fixture_dir)
        capsys.readouterr()
        assert run_cli("pipeline", "--config", config_path, "--out-dir", tmp_path / "run",
                       "--stages", "ingest", "--set", "k=ten") == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "MalformedInput", "message": "hyperparameter k has the wrong type: 'ten'",
        }
        assert not (tmp_path / "run").exists()

    def test_min_coverage_max_len_cannot_reach_exits_2(self, fixture_dir, tmp_path, capsys):
        config_path = write_config(tmp_path / "config.json", fixture_dir,
                                   hyperparameters={"max_len": 8, "min_coverage": 8})
        capsys.readouterr()
        assert run_cli("pipeline", "--config", config_path, "--out-dir", tmp_path / "run") == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "MalformedInput",
            "message": "hyperparameter out of range: min_coverage must be < max_len (8)",
        }
        assert not (tmp_path / "run").exists()

    def test_exit_codes_of_the_train_me_worker(self, fixture_dir, tmp_path, capsys,
                                               monkeypatch):
        """train_me runs in a forked worker beside train_rnn; the stages are
        replaced before the fork, so the worker runs the replacement."""
        config_path = write_config(tmp_path / "config.json", fixture_dir)

        def bad_input(ctx):
            raise InputDataError("image 5: no detections")

        monkeypatch.setitem(pipeline._STAGE_FNS, "train_rnn", lambda ctx: [])
        for train_me, code, doc in (
            (bad_input, 2, {"error": "InputDataError", "message": "image 5: no detections"}),
            (lambda ctx: os._exit(3), 1, {
                "error": "ToolkitError",
                "message": "stage train_me: its worker process exited with status 3 "
                           "without a result"}),
        ):
            monkeypatch.setitem(pipeline._STAGE_FNS, "train_me", train_me)
            capsys.readouterr()
            assert run_cli("pipeline", "--config", config_path, "--out-dir", tmp_path / "run",
                           "--stages", "train_me,train_rnn") == code
            assert json.loads(capsys.readouterr().err.strip()) == doc
        assert not (tmp_path / "run" / "manifest.json").exists()


class TestModelVersion:
    def test_decode_with_version_1_model_exits_2(self, fixture_dir, tmp_path, capsys):
        import struct

        from capkit._binio import pack_str_list

        model = tmp_path / "v1.model"
        model.write_bytes(b"MELM" + struct.pack("<Id", 1, 1e-6) + pack_str_list(["a"]))
        out = tmp_path / "nbest.tsv"
        code = run_cli("decode", "--model", model,
                       "--detections", fixture_dir / "detections.jsonl", "--out", out)
        assert code == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"] == "MalformedInput"
        assert "unsupported MELM version 1" in doc["message"]
        assert "retrain the model with `capkit train-me`" in doc["message"]
        assert not out.exists()

    def test_decode_with_bad_grlm_exits_2(self, fixture_dir, tmp_path, capsys):
        from capkit._binio import pack_str
        from capkit.corpus import RESERVED_TOKENS, Vocabulary
        from capkit.recurrent import RecurrentConfig, RecurrentLM, save_recurrent

        good = tmp_path / "good.model"
        save_recurrent(RecurrentLM(Vocabulary(["cat", "dog"]), RecurrentConfig(
            mode="initial_state", embed_dim=3, hidden_dim=3, feature_dim=8, seed=0)), good)
        data = good.read_bytes()
        for name, damaged, message in (
            ("mode", data.replace(pack_str("initial_state"), pack_str("initial_stat3"), 1),
             "unknown conditioning mode 'initial_stat3'"),
            ("word", data.replace(pack_str("cat"), pack_str(RESERVED_TOKENS[1]), 1),
             "collides with a reserved token"),
            ("repeat", data.replace(pack_str("dog"), pack_str("cat"), 1),
             "duplicate token 'cat'"),
        ):
            model = tmp_path / f"{name}.model"
            model.write_bytes(damaged)
            out = tmp_path / f"{name}.tsv"
            capsys.readouterr()
            code = run_cli("decode", "--model", model,
                           "--features", fixture_dir / "features.fvec", "--out", out)
            assert code == 2, name
            doc = json.loads(capsys.readouterr().err.strip())
            assert doc["error"] == "MalformedInput" and message in doc["message"], name
            assert not out.exists()


class TestMertStartingPoint:
    def test_pipeline_and_cli_start_from_the_first_feature(self, fixture_dir, tmp_path):
        features = ["mrnn", "logprob", "length", "covered"]
        config_path = write_config(tmp_path / "config.json", fixture_dir, hyperparameters={
            "me_epochs": 1, "rnn_epochs": 1, "rnn_embed": 4, "rnn_hidden": 4,
            "beam": 3, "nbest": 5, "max_len": 8,
            "mert_features": features, "mert_restarts": 2, "mert_iters": 5,
        })
        run_dir = tmp_path / "run"
        assert run_cli("pipeline", "--config", config_path, "--out-dir", run_dir,
                       "--stages", "ingest,train_me,train_rnn,decode,rerank") == 0
        weights = tmp_path / "weights.json"
        assert run_cli("mert", "--nbest", run_dir / "me_nbest_val.tsv",
                       "--refs", fixture_dir / "captions.json",
                       "--features", ",".join(features), "--seed", "3",
                       "--restarts", "2", "--iters", "5", "--out", weights) == 0
        assert weights.read_bytes() == (run_dir / "weights.json").read_bytes()


_SMALL_MODELS = {
    "me_epochs": 1, "rnn_epochs": 1, "rnn_embed": 4, "rnn_hidden": 4,
    "beam": 3, "nbest": 5, "max_len": 8, "mert_restarts": 1, "mert_iters": 3,
    "k": 5, "m": 10,
}


class TestIngestedArtifacts:
    """Stages read back the artifacts of earlier stages: ingest's split.json,
    vocab.json, heldout_captions.json and heldout_detections.jsonl, the
    models, the n-best lists and the caption files. A missing, damaged or
    stale one exits 2 with the JSON error line, naming the file and the
    stage to rerun."""

    @pytest.fixture(scope="class")
    def trained(self, fixture_dir, tmp_path_factory):
        base = tmp_path_factory.mktemp("ingested")
        config = write_config(base / "config.json", fixture_dir, hyperparameters=_SMALL_MODELS)
        assert run_cli("pipeline", "--config", config, "--out-dir", base / "run",
                       "--stages", "ingest,knn,train_me,train_rnn") == 0
        return base / "run"

    def run_after(self, trained, fixture_dir, tmp_path, capsys, stages, edit=None, *extra):
        """Exit code, JSON error line and run directory of ``stages`` run on a copy
        of ``trained`` after ``edit`` (name -> new file text, or None to delete)."""
        run_dir = tmp_path / "run"
        shutil.copytree(trained, run_dir)
        for name, text in (edit or {}).items():
            if text is None:
                (run_dir / name).unlink()
            elif isinstance(text, bytes):
                (run_dir / name).write_bytes(text)
            else:
                (run_dir / name).write_text(text)
        config = write_config(tmp_path / "config.json", fixture_dir,
                              hyperparameters=_SMALL_MODELS)
        capsys.readouterr()
        code = run_cli("pipeline", "--config", config, "--out-dir", run_dir,
                       "--stages", stages, *extra)
        err = capsys.readouterr().err.strip()
        return code, (json.loads(err) if err else None), run_dir

    def test_decode_stage_warns_of_incomplete_decodes(self, trained, fixture_dir, tmp_path,
                                                      capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(trained, run_dir)
        config = write_config(tmp_path / "config.json", fixture_dir,
                              hyperparameters={**_SMALL_MODELS, "max_len": 2})
        capsys.readouterr()
        assert run_cli("pipeline", "--config", config, "--out-dir", run_dir,
                       "--stages", "decode") == 0
        lines = capsys.readouterr().out.splitlines()
        assert "[decode] warning: 5 val images incomplete" in lines
        assert "[decode] warning: 5 testval images incomplete" in lines

    @pytest.mark.parametrize("name, producer, value", [
        ("me.model", "train_me", float("nan")),
        ("rnn.model", "train_rnn", float("inf")),
    ])
    def test_model_with_a_non_finite_weight(self, trained, fixture_dir, tmp_path, capsys,
                                            name, producer, value):
        damaged = tmp_path / name
        _set_first_weight(trained / name, damaged, value)
        code, doc, run_dir = self.run_after(trained, fixture_dir, tmp_path, capsys, "decode",
                                            {name: damaged.read_bytes()})
        assert code == 2
        assert doc["error"] == "MalformedInput"
        assert doc["message"].startswith(f"{run_dir / name}: non-finite weight at offset ")
        assert doc["message"].endswith(f"; run the '{producer}' stage again")
        assert not (run_dir / "me_nbest_val.tsv").exists()

    @pytest.mark.parametrize("text, problem", [
        (json.dumps({"train": [1], "testval": [2]}), "missing key 'val'"),
        (json.dumps([[1], [2], [3]]), "the document must be an object, got [[1], [2], [3]]"),
        (json.dumps({"train": [1], "val": "2", "testval": [3]}), "val must be an array, got '2'"),
        (json.dumps({"train": [1], "val": [2.0], "testval": [3]}),
         "val image id must be an integer, got 2.0"),
    ])
    def test_split_json(self, trained, fixture_dir, tmp_path, capsys, text, problem):
        code, doc, run_dir = self.run_after(trained, fixture_dir, tmp_path, capsys, "knn",
                                            {"split.json": text})
        assert code == 2
        assert doc == {"error": "MalformedInput", "message":
                       f"{run_dir / 'split.json'}: {problem}; run the 'ingest' stage again"}

    @pytest.mark.parametrize("text, problem", [
        (json.dumps({"tokens": ["a", "a"]}), "duplicate token 'a'"),
        (json.dumps(["a", "b"]), "the document must be an object, got ['a', 'b']"),
        (json.dumps({"words": ["a"]}), "missing key 'tokens'"),
        (json.dumps({"tokens": ["a", 3]}), "token must be a string, got 3"),
        (json.dumps({"tokens": ["a", "<unk>"]}), "token '<unk>' collides with a reserved token"),
    ])
    def test_vocab_json(self, trained, fixture_dir, tmp_path, capsys, text, problem):
        code, doc, run_dir = self.run_after(trained, fixture_dir, tmp_path, capsys,
                                            "train_me", {"vocab.json": text})
        assert code == 2
        assert doc == {"error": "MalformedInput", "message":
                       f"{run_dir / 'vocab.json'}: {problem}; run the 'ingest' stage again"}

    @pytest.mark.parametrize("name, stage, text, error, problem", [
        pytest.param("heldout_captions.json", "eval", "[]", "MalformedInput",
                     ": expected an object with an 'annotations' list", id="captions-not-an-object"),
        pytest.param("heldout_captions.json", "eval", '{"annotations": ["a dog"]}',
                     "MalformedInput", ": annotation entries must be objects",
                     id="captions-entry-not-an-object"),
        pytest.param("heldout_captions.json", "eval",
                     '{"annotations": [{"id": 1, "image_id": "seven", "caption": "a dog"}]}',
                     "MalformedInput", ": annotation 1 image_id must be an integer, got 'seven'",
                     id="captions-image-id-not-an-integer"),
        pytest.param("heldout_captions.json", "eval",
                     '{"annotations": [{"id": 1, "image_id": 7, "caption": ["a", "dog"]}]}',
                     "MalformedInput", ": annotation 1 caption must be a string",
                     id="captions-caption-not-a-string"),
        pytest.param("heldout_captions.json", "eval",
                     '{"annotations": [{"id": 1, "image_id": 7, "caption": "a dog"},'
                     ' {"id": 1, "image_id": 8, "caption": "a cat"}]}',
                     "DuplicateAnnotationId", ": duplicate annotation id 1",
                     id="captions-duplicate-id"),
        pytest.param("heldout_detections.jsonl", "decode",
                     '{"image_id": 7, "words": [{"token": "dog", "score": true}]}\n',
                     "MalformedInput", ":1: detection score must be a finite number, got True",
                     id="detections-boolean-score"),
        pytest.param("heldout_detections.jsonl", "decode",
                     '\n{"image_id": 7, "words": [{"token": "dog", "score": NaN}]}\n',
                     "MalformedInput", ":2: detection score must be a finite number, got nan",
                     id="detections-nan-score"),
        pytest.param("heldout_detections.jsonl", "decode",
                     '{"image_id": 7, "words": [{"token": 1, "score": 0.9}]}\n',
                     "MalformedInput", ":1: detection tokens must be non-empty strings",
                     id="detections-token-not-a-string"),
        pytest.param("heldout_detections.jsonl", "decode", "[]\n", "MalformedInput",
                     ":1: bad detection record: list indices must be integers or slices, not str",
                     id="detections-record-not-an-object"),
        pytest.param("heldout_detections.jsonl", "decode",
                     '{"image_id": 7, "words": []}\n{"image_id": 7, "words": []}\n',
                     "MalformedInput", ":2: duplicate detections for image 7",
                     id="detections-duplicate-image"),
    ])
    def test_heldout_inputs(self, trained, fixture_dir, tmp_path, capsys,
                            name, stage, text, error, problem):
        code, doc, run_dir = self.run_after(trained, fixture_dir, tmp_path, capsys, stage,
                                            {name: text})
        assert code == 2
        assert doc == {"error": error, "message":
                       f"{run_dir / name}{problem}; run the 'ingest' stage again"}

    @pytest.fixture(scope="class")
    def reranked(self, trained, fixture_dir, tmp_path_factory):
        """``trained`` after decode and rerank: every artifact a stage reads back.

        Its GRU is large enough to end each testval caption, so that eval and
        analyze can score every system."""
        base = tmp_path_factory.mktemp("reranked")
        shutil.copytree(trained, base / "run")
        config = write_config(base / "config.json", fixture_dir, hyperparameters={
            **_SMALL_MODELS, "rnn_epochs": 8, "rnn_embed": 8, "rnn_hidden": 16, "max_len": 12,
        })
        assert run_cli("pipeline", "--config", config, "--out-dir", base / "run",
                       "--stages", "train_rnn,decode,rerank") == 0
        return base / "run"

    # (artifact, the stage that writes it, a stage that reads it back, the
    # system an eval of the file scores: a caption file that is absent only
    # drops its system)
    @pytest.mark.parametrize("edit", ["deleted", "garbage"])
    @pytest.mark.parametrize("name, producer, reader, system", [
        ("split.json", "ingest", "knn", None),
        ("vocab.json", "ingest", "train_me", None),
        ("heldout_captions.json", "ingest", "eval", None),
        ("heldout_detections.jsonl", "ingest", "decode", None),
        ("me.model", "train_me", "decode", None),
        ("rnn.model", "train_rnn", "decode", None),
        ("me_nbest_val.tsv", "decode", "rerank", None),
        ("me_nbest_testval.tsv", "decode", "rerank", None),
        ("knn_consensus.tsv", "knn", "eval", "knn_consensus"),
        ("knn_onenn.tsv", "knn", "analyze", "knn_onenn"),
        ("mrnn_testval.tsv", "decode", "eval", "mrnn"),
        ("reranked_testval.tsv", "rerank", "analyze", "me_reranked"),
    ])
    def test_every_artifact_read_back(self, reranked, fixture_dir, tmp_path, capsys,
                                      name, producer, reader, system, edit):
        code, doc, run_dir = self.run_after(reranked, fixture_dir, tmp_path, capsys, reader,
                                            {name: None if edit == "deleted" else "garbage\n"})
        if edit == "garbage":
            assert code == 2
            assert doc["error"] == "MalformedInput"
            assert str(run_dir / name) in doc["message"]
            assert doc["message"].endswith(f"; run the '{producer}' stage again")
        elif system is None:
            assert code == 2
            assert doc == {"error": "MalformedInput", "message":
                           f"missing artifact {run_dir / name}; run the '{producer}' stage first"}
        else:
            assert code == 0 and doc is None
            report = read_json(run_dir / ("scores.json" if reader == "eval" else "analysis.json"))
            systems = report if reader == "eval" else report["systems"]
            assert system not in systems and len(systems) == 3

    @pytest.mark.parametrize("name, edit", [
        ("me_nbest_val.tsv", "empty"),
        ("me_nbest_testval.tsv", "drop-first-image"),
        ("me_nbest_val.tsv", "testval-lists"),
    ])
    def test_nbest_file_must_hold_its_split(self, reranked, fixture_dir, tmp_path, capsys,
                                            name, edit):
        split = read_json(reranked / "split.json")
        wanted = split["val" if name == "me_nbest_val.tsv" else "testval"]
        if edit == "empty":
            text, missing, extra = "", sorted(wanted), []
        elif edit == "drop-first-image":
            first = min(wanted)
            lines = (reranked / name).read_text().splitlines(keepends=True)
            text = "".join(line for line in lines if not line.startswith(f"{first}\t"))
            missing, extra = [first], []
        else:
            text = (reranked / "me_nbest_testval.tsv").read_text()
            missing, extra = sorted(wanted), sorted(split["testval"])
        code, doc, run_dir = self.run_after(reranked, fixture_dir, tmp_path, capsys, "rerank",
                                            {name: text})
        assert code == 2
        assert doc == {"error": "MalformedInput", "message":
                       f"{run_dir / name}: n-best lists do not match the split: missing images "
                       f"{missing}, extra images {extra}; run the 'decode' stage again"}

    def test_a_system_of_empty_captions_scores_zero(self, trained, fixture_dir, tmp_path,
                                                    capsys):
        # A GRU this small ends no testval caption, so mrnn's captions are all empty.
        code, doc, run_dir = self.run_after(trained, fixture_dir, tmp_path, capsys,
                                            "decode,rerank,eval,analyze")
        assert code == 0 and doc is None
        assert set(read_captions_tsv(run_dir / "mrnn_testval.tsv").values()) == {()}
        assert read_json(run_dir / "scores.json")["mrnn"] == {"bleu": 0.0, "meteor": 0.0}
        binned = read_json(run_dir / "analysis.json")["systems"]["mrnn"]["binned_bleu"]
        assert binned and set(binned.values()) == {0.0}

    def test_decode_thresholds_detections_at_its_own_alpha(
        self, trained, fixture_dir, tmp_path, capsys
    ):
        code, doc, run_dir = self.run_after(trained, fixture_dir, tmp_path, capsys, "decode",
                                            None, "--set", "alpha=0.3")
        assert code == 0 and doc is None

        def searched(path):
            return {nb.image_id: [(h.tokens, h.features["logprob"], h.features["covered"])
                                  for h in nb.hypotheses] for nb in read_nbest_tsv(path)}

        def raw_decode(alpha):
            """The same coverage search over the raw detections file at ``alpha``."""
            out = tmp_path / f"raw-{alpha}.tsv"
            assert run_cli("decode", "--model", run_dir / "me.model",
                           "--detections", fixture_dir / "detections.jsonl", "--alpha", alpha,
                           "--beam", "3", "--nbest", "5", "--max-len", "8", "--out", out) == 0
            return {i: lists for i, lists in searched(out).items() if i in val}

        val = searched(run_dir / "me_nbest_val.tsv")
        assert sorted(val) == read_json(run_dir / "split.json")["val"]
        assert val == raw_decode("0.3")
        assert val != raw_decode("0.5")

    def test_decode_after_ingest_without_detections_exits_2(
        self, trained, fixture_dir, tmp_path, capsys
    ):
        no_detections = write_config(tmp_path / "bare.json", fixture_dir, detections=False,
                                     hyperparameters=_SMALL_MODELS)
        assert run_cli("pipeline", "--config", no_detections, "--out-dir", tmp_path / "bare",
                       "--stages", "ingest") == 0
        assert not (tmp_path / "bare" / "heldout_detections.jsonl").exists()
        code, doc, run_dir = self.run_after(
            trained, fixture_dir, tmp_path, capsys, "decode",
            {"heldout_captions.json": (tmp_path / "bare" / "heldout_captions.json").read_text(),
             "heldout_detections.jsonl": None},
        )
        assert code == 2
        assert doc == {"error": "MalformedInput", "message":
                       f"missing artifact {run_dir / 'heldout_detections.jsonl'}; "
                       "run the 'ingest' stage first"}

    def test_stages_after_an_ingest_at_another_split_exit_2(self, fixture_dir, tmp_path, capsys):
        run_dir = tmp_path / "run"
        ingest = write_config(tmp_path / "ingest.json", fixture_dir, hyperparameters=_SMALL_MODELS)
        assert run_cli("pipeline", "--config", ingest, "--out-dir", run_dir,
                       "--stages", "ingest") == 0
        config = write_config(tmp_path / "config.json", fixture_dir, split=[20, 10, 10],
                              hyperparameters=_SMALL_MODELS)
        capsys.readouterr()
        code = run_cli("pipeline", "--config", config, "--out-dir", run_dir,
                       "--stages", "knn,eval")
        doc = json.loads(capsys.readouterr().err)
        assert code == 2
        assert doc == {"error": "MalformedInput", "message":
                       f"{run_dir / 'split.json'}: holds a [30, 5, 5] split, but the config "
                       "sets [20, 10, 10]; run the 'ingest' stage again"}
        assert not (run_dir / "knn_consensus.tsv").exists()

    def test_output_of_an_older_ingest_exits_2(self, trained, fixture_dir, tmp_path, capsys):
        # An older ingest wrote the held-out inputs to heldout.json instead.
        older = {"heldout_captions.json": None, "heldout_detections.jsonl": None,
                 "heldout.json": json.dumps({"alpha": 0.5, "references": {}, "detections": {}})}
        code, doc, run_dir = self.run_after(trained, fixture_dir, tmp_path, capsys,
                                            "decode,rerank,eval", older)
        assert code == 2
        assert doc == {"error": "MalformedInput", "message":
                       f"missing artifact {run_dir / 'heldout_detections.jsonl'}; "
                       "run the 'ingest' stage first"}
        config = write_config(tmp_path / "config.json", fixture_dir,
                              hyperparameters=_SMALL_MODELS)
        assert run_cli("pipeline", "--config", config, "--out-dir", run_dir,
                       "--stages", "eval") == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "MalformedInput",
            "message": f"missing artifact {run_dir / 'heldout_captions.json'}; "
                       "run the 'ingest' stage first",
        }


@pytest.fixture(scope="module")
def me_model(fixture_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "me.model"
    assert run_cli("train-me", "--captions", fixture_dir / "captions.json",
                   "--detections", fixture_dir / "detections.jsonl",
                   "--epochs", "1", "--out", path) == 0
    return path


@pytest.fixture(scope="module")
def first_captions_tsv(fixture_dir, tmp_path_factory):
    from capkit.artifacts import write_captions_tsv
    from capkit.corpus import captions_by_image, load_captions

    path = tmp_path_factory.mktemp("generated") / "first.tsv"
    captions = captions_by_image(load_captions(fixture_dir / "captions.json"))
    write_captions_tsv(path, {i: caps[0] for i, caps in captions.items()})
    return path


def _command_args(command, fixture_dir, me_model, generated, out):
    """A valid invocation of ``command`` writing to ``out``."""
    captions = fixture_dir / "captions.json"
    features = fixture_dir / "features.fvec"
    detections = fixture_dir / "detections.jsonl"
    return {
        "ingest": ["--captions", captions, "--features", features, "--sizes", "30,5,5",
                   "--out-dir", out],
        "knn-caption": ["--features-train", features, "--features-test", features,
                        "--captions", captions, "--k", "5", "--m", "10", "--out", out],
        "train-me": ["--captions", captions, "--detections", detections, "--epochs", "1",
                     "--out", out],
        "train-rnn": ["--mode", "mrnn", "--captions", captions, "--features", features,
                      "--embed", "4", "--hidden", "4", "--epochs", "1", "--out", out],
        "decode": ["--model", me_model, "--detections", detections,
                   "--beam", "2", "--nbest", "2", "--max-len", "4", "--out", out],
        "analyze": ["--generated", generated, "--captions", captions,
                    "--features-train", features, "--features-test", features],
    }[command]


# Each option that maps to a pipeline hyperparameter, with a value the
# pipeline's rule rejects and that rule's message.
_OUT_OF_RANGE = [
    ("ingest", "--min-count", "0", "min_count must be >= 1"),
    ("analyze", "--tail", "0.9", "tail must be in (0, 0.5]"),
    ("analyze", "--top-k", "0", "top_k must be >= 1"),
    ("knn-caption", "--k", "0", "k must be >= 1"),
    ("knn-caption", "--m", "0", "m must be >= 1"),
    ("decode", "--beam", "0", "beam must be >= 1"),
    ("decode", "--nbest", "0", "nbest must be >= 1"),
    ("decode", "--min-coverage", "-1", "min_coverage must be null or >= 0"),
    ("decode", "--max-len", "1", "max_len must be >= 2"),
    ("train-me", "--alpha", "3", "alpha must be in [0, 1]"),
    ("train-me", "--lr", "-1", "me_lr must be positive"),
    ("train-rnn", "--lr", "-1", "rnn_lr must be positive"),
    ("train-me", "--epochs", "0", "me_epochs must be >= 1"),
    ("train-rnn", "--epochs", "0", "rnn_epochs must be >= 1"),
]


class TestOptionRanges:
    @pytest.mark.parametrize(
        "command,option,value,rule", _OUT_OF_RANGE,
        ids=[f"{command}{option}" for command, option, _, _ in _OUT_OF_RANGE],
    )
    def test_out_of_range_option_exits_2(
        self, fixture_dir, me_model, first_captions_tsv, tmp_path, capsys,
        command, option, value, rule,
    ):
        out = tmp_path / "out"
        args = _command_args(command, fixture_dir, me_model, first_captions_tsv, out)
        capsys.readouterr()
        assert run_cli(command, *args, option, value) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc == {"error": "MalformedInput",
                       "message": f"hyperparameter out of range: {rule}"}
        assert not out.exists()


class TestBadValuesExit2:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_mert_on_non_finite_nbest_value(self, fixture_dir, tmp_path, capsys, value):
        nbest = tmp_path / "nbest.tsv"
        nbest.write_text(f"101\t1\ta bus\tlogprob=-1.5\n101\t2\ta cat\tlogprob={value}\n")
        out = tmp_path / "weights.json"
        capsys.readouterr()
        assert run_cli("mert", "--nbest", nbest, "--refs", fixture_dir / "captions.json",
                       "--features", "logprob", "--out", out) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc == {"error": "MalformedInput",
                       "message": f"{nbest}:2: non-finite feature value 'logprob={value}'"}
        assert not out.exists()

    def test_mert_on_an_empty_nbest_file(self, fixture_dir, tmp_path, capsys):
        nbest = tmp_path / "nbest.tsv"
        nbest.write_text("")
        out = tmp_path / "weights.json"
        capsys.readouterr()
        assert run_cli("mert", "--nbest", nbest, "--refs", fixture_dir / "captions.json",
                       "--features", "logprob", "--out", out) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc == {"error": "MalformedInput", "message": f"{nbest}: no n-best lists"}
        assert not out.exists()

    @pytest.mark.parametrize("name", ["", "m;x", "m=x", "m\tx", "m\rx", "m\nx"])
    def test_rescore_feature_name_an_nbest_file_cannot_hold(self, fixture_dir, tmp_path,
                                                            capsys, name):
        nbest = tmp_path / "nbest.tsv"
        nbest.write_text("101\t1\ta bus\tlogprob=-1.5\n")
        out = tmp_path / "out.tsv"
        capsys.readouterr()
        # The model path does not exist: the name is checked before any model is read.
        assert run_cli("decode", "--model", tmp_path / "absent.model", "--rescore", nbest,
                       "--detections", fixture_dir / "detections.jsonl",
                       "--feature-name", name, "--out", out) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc == {"error": "MalformedInput", "message":
                       f"bad feature name {name!r}: an n-best file holds a non-empty name "
                       "without '=', ';', a tab or a line break"}
        assert not out.exists()

    def test_mert_feature_missing_from_nbest(self, fixture_dir, tmp_path, capsys):
        nbest = tmp_path / "nbest.tsv"
        nbest.write_text("101\t1\ta bus\tlogprob=-1.5\n101\t2\ta cat\tlogprob=-2.0\n")
        out = tmp_path / "weights.json"
        capsys.readouterr()
        assert run_cli("mert", "--nbest", nbest, "--refs", fixture_dir / "captions.json",
                       "--features", "logprob,nope", "--out", out) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc == {"error": "SchemaMismatch",
                       "message": "image 101: feature row ['logprob'] lacks weights schema "
                                  "['logprob', 'nope']"}
        assert not out.exists()

    def test_pipeline_with_unknown_mert_feature(self, fixture_dir, tmp_path, capsys):
        config_path = write_config(tmp_path / "config.json", fixture_dir, hyperparameters={
            "me_epochs": 1, "rnn_epochs": 1, "rnn_embed": 4, "rnn_hidden": 4,
            "beam": 3, "nbest": 5, "max_len": 8, "mert_features": ["logprob", "nope"],
        })
        run_dir = tmp_path / "run"
        capsys.readouterr()
        assert run_cli("pipeline", "--config", config_path, "--out-dir", run_dir,
                       "--stages", "ingest,train_me,train_rnn,decode,rerank") == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"] == "SchemaMismatch" and "'nope'" in doc["message"]
        assert (run_dir / "me_nbest_val.tsv").exists()
        assert not (run_dir / "weights.json").exists()

    def test_min_coverage_above_detection_count(self, fixture_dir, me_model, tmp_path, capsys):
        out = tmp_path / "nbest.tsv"
        capsys.readouterr()
        assert run_cli("decode", "--model", me_model,
                       "--detections", fixture_dir / "detections.jsonl",
                       "--min-coverage", "4", "--out", out) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc == {"error": "InputDataError",
                       "message": "image 101: min_coverage 4 exceeds detection count 3"}
        assert not out.exists()


class TestDetectionOutsideTheModel:
    """A detected word outside the vocabulary can never be covered, so
    training and decoding alike leave it out."""

    @pytest.fixture(scope="class")
    def zebra(self, fixture_dir, tmp_path_factory):
        """The fixture's detections with "zebra" added to image 101."""
        lines = (fixture_dir / "detections.jsonl").read_text().splitlines()
        first = json.loads(lines[0])
        assert first["image_id"] == 101
        first["words"].append({"token": "zebra", "score": 0.9})
        path = tmp_path_factory.mktemp("zebra") / "zebra.jsonl"
        path.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n")
        return path

    def test_coverage_decode_ignores_the_word(self, fixture_dir, me_model, zebra, tmp_path,
                                              capsys):
        outputs = []
        for detections in (fixture_dir / "detections.jsonl", zebra):
            out = tmp_path / f"{detections.stem}.tsv"
            capsys.readouterr()
            assert run_cli("decode", "--model", me_model,
                           "--detections", detections, "--beam", "4", "--max-len", "10",
                           "--out", out) == 0
            assert "incomplete" not in capsys.readouterr().out
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

        # The bound is the 3 words the model can emit, not the 4 detected.
        out = tmp_path / "over.tsv"
        for min_coverage in ("4", "5"):
            assert run_cli("decode", "--model", me_model, "--detections", zebra,
                           "--min-coverage", min_coverage, "--out", out) == 2
            doc = json.loads(capsys.readouterr().err.strip())
            assert doc == {"error": "InputDataError", "message":
                           f"image 101: min_coverage {min_coverage} exceeds detection count 3"}
            assert not out.exists()

    @pytest.mark.parametrize("trainer", [
        ["train-me", "--epochs", "2"],
        ["train-rnn", "--mode", "dgrnn", "--embed", "8", "--hidden", "10", "--epochs", "1"],
    ], ids=["melm", "dgrnn"])
    def test_training_ignores_the_word(self, fixture_dir, zebra, tmp_path, trainer):
        models = []
        for detections in (fixture_dir / "detections.jsonl", zebra):
            out = tmp_path / f"{detections.stem}.model"
            assert run_cli(*trainer, "--captions", fixture_dir / "captions.json",
                           "--detections", detections, "--out", out) == 0
            models.append(out.read_bytes())
        assert models[0] == models[1]


def _set_first_weight(model_path, out_path, value):
    """Save the model at ``model_path`` to ``out_path`` with its first
    ``unigram`` (MELM) or ``out_w`` (GRLM) weight set to ``value``."""
    from capkit import maxent, recurrent

    if model_path.read_bytes().startswith(b"MELM"):
        lm = maxent.load_maxent(model_path)
        lm.unigram[0] = value
        maxent.save_maxent(lm, out_path)
    else:
        lm = recurrent.load_recurrent(model_path)
        lm.params["out_w"][0, 0] = value
        recurrent.save_recurrent(lm, out_path)


@pytest.fixture(scope="module")
def models(fixture_dir, me_model, tmp_path_factory):
    """A small model of each kind: MELM, mrnn GRLM and dgrnn GRLM."""
    base = tmp_path_factory.mktemp("models")
    inputs = {"mrnn": ["--features", fixture_dir / "features.fvec"],
              "dgrnn": ["--detections", fixture_dir / "detections.jsonl"]}
    for mode, flags in inputs.items():
        assert run_cli("train-rnn", "--mode", mode, "--captions", fixture_dir / "captions.json",
                       *flags, "--embed", "4", "--hidden", "4", "--epochs", "1",
                       "--out", base / f"{mode}.model") == 0
    return {"melm": me_model, "mrnn": base / "mrnn.model", "dgrnn": base / "dgrnn.model"}


@pytest.mark.parametrize("kind, value", [("melm", float("nan")), ("mrnn", float("inf"))])
def test_decode_with_a_non_finite_model_weight_exits_2(fixture_dir, models, tmp_path, capsys,
                                                       kind, value):
    model = tmp_path / "damaged.model"
    _set_first_weight(models[kind], model, value)
    out = tmp_path / "nbest.tsv"
    capsys.readouterr()
    assert run_cli("decode", "--model", model, "--features", fixture_dir / "features.fvec",
                   "--detections", fixture_dir / "detections.jsonl",
                   "--beam", "2", "--nbest", "2", "--max-len", "4", "--out", out) == 2
    doc = json.loads(capsys.readouterr().err.strip())
    assert doc["error"] == "MalformedInput"
    assert doc["message"].startswith(f"{model}: non-finite weight at offset ")
    assert not out.exists()


class TestModelDecidesConditioning:
    """``decode`` has no mode: an mrnn model reads --features and runs plain
    search, a MELM or dgrnn model reads --detections and runs coverage search."""

    NEEDS = {"melm": "--detections", "mrnn": "--features", "dgrnn": "--detections"}
    MESSAGES = {"--features": "an mrnn model needs --features",
                "--detections": "a MELM or dgrnn model needs --detections"}
    # the other model kind's input, which does not stand in
    OTHER = {"--features": ["--detections", "detections.jsonl"],
             "--detections": ["--features", "features.fvec"]}

    def test_decode_has_no_mode_option(self, fixture_dir, models, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("decode", "--model", models["melm"], "--mode", "coverage",
                    "--detections", fixture_dir / "detections.jsonl", "--out", tmp_path / "o")
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode coverage" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["melm", "mrnn", "dgrnn"])
    def test_model_reads_its_one_input(self, fixture_dir, models, tmp_path, kind):
        nbest = tmp_path / "nbest.tsv"
        assert run_cli("decode", "--model", models[kind],
                       "--features", fixture_dir / "features.fvec",
                       "--detections", fixture_dir / "detections.jsonl",
                       "--beam", "2", "--nbest", "2", "--max-len", "6", "--out", nbest) == 0
        lists = read_nbest_tsv(nbest)
        assert len(lists) == 40
        covered = {"covered" in h.features for nb in lists for h in nb.hypotheses}
        assert covered == {kind != "mrnn"}

    @pytest.mark.parametrize("rescore", [False, True], ids=["decode", "rescore"])
    @pytest.mark.parametrize("kind", ["melm", "mrnn", "dgrnn"])
    def test_missing_input_names_its_flag(self, fixture_dir, models, tmp_path, capsys, kind,
                                          rescore):
        flag, other = self.NEEDS[kind], self.OTHER[self.NEEDS[kind]]
        extra = ["--rescore", tmp_path / "never-read.tsv"] if rescore else []
        out = tmp_path / "out.tsv"
        capsys.readouterr()
        assert run_cli("decode", "--model", models[kind], other[0], fixture_dir / other[1],
                       *extra, "--out", out) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc == {"error": "MalformedInput", "message": self.MESSAGES[flag]}
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["mrnn", "dgrnn"])
    def test_train_rnn_missing_input_names_the_same_flag(self, fixture_dir, tmp_path, capsys,
                                                         kind):
        flag, other = self.NEEDS[kind], self.OTHER[self.NEEDS[kind]]
        out = tmp_path / "rnn.model"
        capsys.readouterr()
        assert run_cli("train-rnn", "--mode", kind, "--captions", fixture_dir / "captions.json",
                       other[0], fixture_dir / other[1], "--out", out) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc == {"error": "MalformedInput", "message": self.MESSAGES[flag]}
        assert not out.exists()


def _store_like(full, vector_of):
    """A store of ``vector_of(image_id, vector)`` for each vector of ``full``."""
    vectors = {i: np.asarray(vector_of(i, v), dtype=np.float32) for i, v in full.items()}
    store = FeatureStore(len(next(iter(vectors.values()))))
    for image_id, vector in vectors.items():
        store.add(image_id, vector)
    return store


class TestFeatureInputs:
    """A features file that cannot serve as one is bad input, exit 2."""

    @pytest.fixture(scope="class")
    def bad_features(self, fixture_dir, tmp_path_factory):
        """The fixture's features with image 101's vector zeroed, and with a 9th component."""
        full = load_features(fixture_dir / "features.fvec")
        base = tmp_path_factory.mktemp("bad-features")
        save_features(_store_like(full, lambda i, v: v * (i != 101)), base / "zeroed.fvec")
        save_features(_store_like(full, lambda i, v: np.append(v, 0.5)), base / "nine.fvec")
        return base

    def test_zero_vector_exits_2(self, fixture_dir, bad_features, tmp_path, capsys):
        zeroed, features = bad_features / "zeroed.fvec", fixture_dir / "features.fvec"
        for train, test in ((zeroed, features), (features, zeroed)):
            capsys.readouterr()
            assert run_cli("knn-caption", "--features-train", train, "--features-test", test,
                           "--captions", fixture_dir / "captions.json",
                           "--out", tmp_path / "out.tsv") == 2
            assert json.loads(capsys.readouterr().err)["error"] == "ZeroVector"
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            # no val images, so image 101 is a train or a testval image
            "seed": 3, "split": [35, 0, 5],
            "paths": {"captions": str(fixture_dir / "captions.json"), "features": str(zeroed)},
        }))
        run_dir = tmp_path / "run"
        capsys.readouterr()
        assert run_cli("pipeline", "--config", config_path, "--out-dir", run_dir,
                       "--stages", "ingest,knn") == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ZeroVector"
        assert (run_dir / "split.json").exists() and not (run_dir / "knn_onenn.tsv").exists()
        assert not (tmp_path / "out.tsv").exists()

    def test_train_and_test_features_of_two_dimensions_exit_2(
        self, fixture_dir, bad_features, first_captions_tsv, tmp_path, capsys
    ):
        nine, features = bad_features / "nine.fvec", fixture_dir / "features.fvec"
        for argv in (
            ["knn-caption", "--captions", fixture_dir / "captions.json",
             "--out", tmp_path / "out.tsv"],
            ["analyze", "--generated", first_captions_tsv,
             "--captions", fixture_dir / "captions.json"],
        ):
            capsys.readouterr()
            assert run_cli(*argv, "--features-train", features, "--features-test", nine) == 2
            assert json.loads(capsys.readouterr().err) == {
                "error": "MalformedInput",
                "message": f"{nine}: 9-d feature vectors, but {features} has 8-d",
            }
        assert not (tmp_path / "out.tsv").exists()

    @pytest.mark.parametrize("rescore", [False, True], ids=["decode", "rescore"])
    def test_decode_features_of_another_dimension_exit_2(
        self, models, bad_features, tmp_path, capsys, rescore
    ):
        nine = bad_features / "nine.fvec"
        extra = ["--rescore", tmp_path / "never-read.tsv"] if rescore else []
        out = tmp_path / "out.tsv"
        capsys.readouterr()
        assert run_cli("decode", "--model", models["mrnn"], "--features", nine, *extra,
                       "--out", out) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "MalformedInput",
            "message": f"{nine}: 9-d feature vectors, but the model has 8-d",
        }
        assert not out.exists()


class TestDecodeInputs:
    @pytest.fixture(scope="class")
    def nbest(self, fixture_dir, me_model, tmp_path_factory):
        """Coverage n-best lists of all 40 fixture images."""
        path = tmp_path_factory.mktemp("nbest") / "nbest.tsv"
        assert run_cli("decode", "--model", me_model,
                       "--detections", fixture_dir / "detections.jsonl",
                       "--beam", "2", "--nbest", "2", "--max-len", "6", "--out", path) == 0
        return path

    @pytest.mark.parametrize("kind", ["melm", "mrnn"])
    def test_rescore_over_an_image_its_input_lacks_exits_2(
        self, fixture_dir, models, nbest, tmp_path, capsys, kind
    ):
        """Image 101, the first of the fixture, is dropped from the model's input."""
        if kind == "mrnn":
            full = load_features(fixture_dir / "features.fvec")
            save_subset(full, full.ids()[1:], tmp_path / "input")
            flag, what = "--features", "features"
        else:
            lines = (fixture_dir / "detections.jsonl").read_text().splitlines()
            assert json.loads(lines[0])["image_id"] == 101
            (tmp_path / "input").write_text("\n".join(lines[1:]) + "\n")
            flag, what = "--detections", "detections"
        out = tmp_path / "out.tsv"
        capsys.readouterr()
        assert run_cli("decode", "--model", models[kind], flag, tmp_path / "input",
                       "--rescore", nbest, "--feature-name", "again", "--out", out) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "MalformedInput", "message": f"no {what} for image 101",
        }
        assert not out.exists()

    def test_unknown_model_magic_exits_2(self, fixture_dir, tmp_path, capsys):
        model = tmp_path / "model"
        model.write_bytes(b"XXXX" + bytes(16))
        capsys.readouterr()
        assert run_cli("decode", "--model", model, "--detections",
                       fixture_dir / "detections.jsonl", "--out", tmp_path / "out.tsv") == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "MalformedInput", "message": f"{model}: unknown model magic b'XXXX'",
        }
        assert not (tmp_path / "out.tsv").exists()

    def test_min_coverage_max_len_cannot_reach_exits_2(self, fixture_dir, me_model, tmp_path,
                                                       capsys):
        """Each covered word takes a step and END one more, so max_len 3
        covers at most 2 words."""
        out = tmp_path / "nbest.tsv"
        argv = ["decode", "--model", me_model, "--detections", fixture_dir / "detections.jsonl",
                "--beam", "2", "--max-len", "3", "--out", out]
        capsys.readouterr()
        assert run_cli(*argv, "--min-coverage", "3") == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "MalformedInput",
            "message": "hyperparameter out of range: min_coverage must be < max_len (3)",
        }
        assert not out.exists()
        assert run_cli(*argv, "--min-coverage", "2") == 0


class TestTrainRnnInputs:
    def test_mrnn_image_without_features_exits_2(self, fixture_dir, tmp_path, capsys):
        from capkit.corpus import load_features

        full = load_features(fixture_dir / "features.fvec")
        kept = full.ids()[:-2]
        features = tmp_path / "features.fvec"
        save_subset(full, kept, features)
        out = tmp_path / "rnn.model"
        capsys.readouterr()
        assert run_cli("train-rnn", "--mode", "mrnn", "--captions", fixture_dir / "captions.json",
                       "--features", features, "--embed", "4", "--hidden", "4",
                       "--epochs", "1", "--out", out) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc == {"error": "MalformedInput",
                       "message": f"images missing feature vectors: {sorted(full.ids()[-2:])}"}
        assert not out.exists()

    def test_dgrnn_image_without_detections_reads_none(self, fixture_dir, tmp_path):
        """An image with no detections line trains as one with no detected words."""
        lines = (fixture_dir / "detections.jsonl").read_text().splitlines()
        first = json.loads(lines[0])
        emptied = tmp_path / "emptied.jsonl"
        emptied.write_text("\n".join([json.dumps({**first, "words": []})] + lines[1:]) + "\n")
        dropped = tmp_path / "dropped.jsonl"
        dropped.write_text("\n".join(lines[1:]) + "\n")
        models = []
        for detections in (emptied, dropped):
            out = tmp_path / f"{detections.stem}.model"
            assert run_cli("train-rnn", "--mode", "dgrnn",
                           "--captions", fixture_dir / "captions.json", "--detections",
                           detections, "--embed", "4", "--hidden", "4", "--epochs", "1",
                           "--out", out) == 0
            models.append(out.read_bytes())
        assert models[0] == models[1]


class TestEmptyCaptionFile:
    def test_eval_and_analyze_name_the_file(self, fixture_dir, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        features = fixture_dir / "features.fvec"
        for argv in (
            ["eval", "--hyp", empty, "--refs", fixture_dir / "captions.json",
             "--metric", "meteor"],
            ["analyze", "--generated", empty, "--captions", fixture_dir / "captions.json",
             "--features-train", features, "--features-test", features],
        ):
            capsys.readouterr()
            assert run_cli(*argv) == 2, argv[0]
            doc = json.loads(capsys.readouterr().err.strip())
            assert doc["error"] == "MalformedInput" and str(empty) in doc["message"]

    def test_pipeline_with_empty_testval(self, fixture_dir, tmp_path, capsys):
        config_path = write_config(tmp_path / "config.json", fixture_dir,
                                   split=[40, 0, 0], hyperparameters={"k": 5, "m": 10})
        out_dir = tmp_path / "run"
        assert run_cli("pipeline", "--config", config_path, "--out-dir", out_dir,
                       "--stages", "ingest,knn") == 0
        for stage in ("eval", "analyze"):
            capsys.readouterr()
            code = run_cli("pipeline", "--config", config_path, "--out-dir", out_dir,
                           "--stages", stage)
            assert code == 2, stage
            doc = json.loads(capsys.readouterr().err.strip())
            assert doc["error"] == "MalformedInput"
            assert str(out_dir / "knn_consensus.tsv") in doc["message"]


class TestCliMatchesPipeline:
    """The subcommands and the pipeline stages compute the same things."""

    @pytest.fixture(scope="class")
    def run_dir(self, fixture_dir, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("parity")
        config_path = write_config(out_dir / "config.json", fixture_dir, seed=7,
                                   hyperparameters={"k": 5, "m": 10, "top_k": 5})
        assert run_cli("pipeline", "--config", config_path, "--out-dir", out_dir / "run",
                       "--stages", "ingest,knn,eval,analyze") == 0
        return out_dir / "run"

    def test_ingest_writes_the_same_files(self, fixture_dir, run_dir, tmp_path):
        assert run_cli(
            "ingest",
            "--captions", fixture_dir / "captions.json",
            "--features", fixture_dir / "features.fvec",
            "--detections", fixture_dir / "detections.jsonl",
            "--sizes", "30,5,5", "--seed", "7", "--out-dir", tmp_path,
        ) == 0
        for name in ("vocab.json", "split.json", "heldout_captions.json",
                     "heldout_detections.jsonl"):
            assert (tmp_path / name).read_bytes() == (run_dir / name).read_bytes()
        assert not (tmp_path / "manifest.json").exists()

    def test_analyze_report_matches_stage(self, fixture_dir, run_dir, tmp_path, capsys):
        from capkit.corpus import load_features

        split = read_json(run_dir / "split.json")
        full = load_features(fixture_dir / "features.fvec")
        save_subset(full, split["train"], tmp_path / "train.fvec")
        save_subset(full, split["testval"], tmp_path / "test.fvec")
        capsys.readouterr()
        assert run_cli(
            "analyze",
            "--generated", run_dir / "knn_consensus.tsv",
            "--captions", fixture_dir / "captions.json",
            "--features-train", tmp_path / "train.fvec",
            "--features-test", tmp_path / "test.fvec",
            "--top-k", "5", "--report", "json",
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == read_json(run_dir / "analysis.json")["systems"]["knn_consensus"]

    def test_eval_prints_stage_scores(self, fixture_dir, run_dir, capsys):
        scores = read_json(run_dir / "scores.json")["knn_consensus"]
        capsys.readouterr()
        assert run_cli("eval", "--hyp", run_dir / "knn_consensus.tsv",
                       "--refs", fixture_dir / "captions.json") == 0
        assert capsys.readouterr().out.splitlines() == [
            f"BLEU {scores['bleu']:.2f}", f"METEOR {scores['meteor']:.2f}",
        ]
