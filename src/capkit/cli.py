"""Command-line entry points for the caption toolkit.

Exit codes: 0 on success, 1 for violated computational invariants, 2 for
I/O or configuration problems. Failures print one machine-parsable JSON
line to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import analysis, artifacts, decoding, knn, maxent, recurrent, rerank
from ._binio import read_file
from .corpus import (
    build_vocabulary,
    captions_by_image,
    load_captions,
    load_detections,
    load_features,
)
from .errors import InputDataError, MalformedInput, ToolkitError
from .pipeline import (
    _STAGE_FNS,
    DEFAULT_HYPERPARAMETERS,
    STAGE_ORDER,
    PipelineConfig,
    PipelineContext,
    _check_ranges,
    caption_report,
    decode_options,
    hyperparameters_of,
    maxent_train_config,
    mert_config,
    recurrent_config,
    require_features,
    rnn_train_config,
    run_pipeline,
    score_captions,
)


def _cmd_ingest(args) -> int:
    config = PipelineConfig(
        captions_path=args.captions,
        features_path=args.features,
        detections_path=args.detections,
        split_sizes=_parse_sizes(args.sizes),
        seed=args.seed,
        hyperparameters={"min_count": args.min_count},
    )
    os.makedirs(args.out_dir, exist_ok=True)
    ctx = PipelineContext(config, args.out_dir)
    _STAGE_FNS["ingest"](ctx)
    table = ctx.caption_table()
    print(
        f"ingested {len(set(table.image_ids))} images, {len(table)} captions, "
        f"vocabulary {len(ctx.vocabulary().word_tokens())} words"
    )
    return 0


def _parse_sizes(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise MalformedInput("--sizes must be train,val,testval")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise MalformedInput(f"bad --sizes value {text!r}") from exc


def _cmd_knn_caption(args) -> int:
    train_features, test_features = _train_and_test_features(args)
    captions = captions_by_image(load_captions(args.captions))
    out = knn.retrieve_captions(
        knn.FeatureIndex.from_store(train_features),
        captions,
        ((image_id, test_features.get(image_id)) for image_id in sorted(test_features.ids())),
        rng_seed=args.seed,
        k=args.k,
        m=args.m,
        modes=(args.mode,),
    )[args.mode]
    artifacts.write_captions_tsv(args.out, out)
    print(f"wrote {len(out)} captions to {args.out}")
    return 0


def _report_training(lm, out) -> int:
    for epoch, loss in enumerate(lm.epoch_losses, start=1):
        print(f"epoch {epoch} loss {loss:.4f}")
    print(f"train perplexity {math.exp(lm.epoch_losses[-1]):.2f}")
    print(f"wrote model to {out}")
    return 0


def _cmd_train_me(args) -> int:
    table = load_captions(args.captions)
    detections = load_detections(args.detections, args.alpha) if args.detections else {}
    pairs = [(rec, detections.get(rec.image_id)) for rec in table]
    vocabulary = build_vocabulary(table.tokens, args.min_count)
    lm = maxent.train_maxent(pairs, maxent_train_config(vars(args), args.seed), vocabulary)
    maxent.save_maxent(lm, args.out)
    return _report_training(lm, args.out)


# train-rnn --mode: the recurrent mode of each model name
_RNN_MODES = {"mrnn": recurrent.MODE_IMAGE_INITIAL, "dgrnn": recurrent.MODE_COVERAGE_AUX}


def _cmd_train_rnn(args) -> int:
    records = load_captions(args.captions)
    vocab = build_vocabulary(records.tokens, args.min_count)
    mode = _RNN_MODES[args.mode]
    _, conditioning, feature_dim = _conditioning_for(mode, args, sorted(set(records.image_ids)))
    data = [(conditioning.get(rec.image_id), list(rec.tokens)) for rec in records]
    lm = recurrent.RecurrentLM(vocab, recurrent_config(vars(args), args.seed, mode, feature_dim))
    recurrent.train(lm, data, rnn_train_config(vars(args), args.seed))
    recurrent.save_recurrent(lm, args.out)
    return _report_training(lm, args.out)


def _load_any_model(path):
    """The model at ``path`` as (scorer, recurrent mode, feature dimension); a
    MELM has no mode, and only an mrnn GRLM has a feature dimension."""
    magic = read_file(path, "model file", binary=True)[:4]
    if magic == b"MELM":
        return decoding.MaxEntScorer(maxent.load_maxent(path)), None, None
    if magic == b"GRLM":
        lm = recurrent.load_recurrent(path)
        return decoding.RecurrentScorer(lm), lm.mode, lm.config.feature_dim
    raise MalformedInput(f"{path}: unknown model magic {magic!r}")


def _features_of_dim(path, dim, owner):
    """The features file at ``path``, whose dimension must be ``owner``'s ``dim`` (if set)."""
    features = load_features(path)
    if dim is not None and features.dim != dim:
        raise MalformedInput(f"{path}: {features.dim}-d feature vectors, but {owner} has {dim}-d")
    return features


def _train_and_test_features(args):
    """The ``--features-train`` and ``--features-test`` stores, of one dimension."""
    train = load_features(args.features_train)
    return train, _features_of_dim(args.features_test, train.dim, args.features_train)


def _conditioning_for(mode, args, image_ids=(), feature_dim=None):
    """(kind, images, feature dimension) of the one input a model of recurrent
    ``mode`` (None for a MELM) reads.

    An mrnn GRLM reads ``--features``: a vector for each of ``image_ids``, of
    dimension ``feature_dim`` if set. A MELM or a dgrnn GRLM reads
    ``--detections``, decodes under coverage and has no feature dimension.
    """
    if mode == recurrent.MODE_IMAGE_INITIAL:
        if not args.features:
            raise MalformedInput("an mrnn model needs --features")
        features = _features_of_dim(args.features, feature_dim, "the model")
        require_features(image_ids, features)
        return "features", features, features.dim
    if not args.detections:
        raise MalformedInput("a MELM or dgrnn model needs --detections")
    return "detections", load_detections(args.detections, args.alpha), None


def _cmd_decode(args) -> int:
    artifacts.check_feature_name(args.feature_name)
    scorer, mode, feature_dim = _load_any_model(args.model)
    kind, conditioning, _ = _conditioning_for(mode, args, feature_dim=feature_dim)
    if args.rescore:
        rescored = []
        for nb in artifacts.read_nbest_tsv(args.rescore):
            if nb.image_id not in conditioning:
                raise MalformedInput(f"no {kind} for image {nb.image_id}")
            rescored.append(decoding.rescore_logprob(
                nb, scorer, conditioning.get(nb.image_id), args.feature_name
            ))
        artifacts.write_nbest_tsv(args.out, rescored)
        print(f"rescored {len(rescored)} n-best lists into {args.out}")
        return 0
    coverage = kind == "detections"
    search = decoding.coverage_beam_search if coverage else decoding.beam_search
    options = decode_options(vars(args), coverage=coverage)
    nbests = [
        search(scorer, conditioning.get(image_id), image_id=image_id, **options)
        for image_id in sorted(conditioning if coverage else conditioning.ids())
    ]
    artifacts.write_nbest_tsv(args.out, nbests)
    print(f"decoded {len(nbests)} images into {args.out}")
    print(decoding.nbest_sizes(nbests, args.nbest))
    incomplete = sum(1 for nb in nbests if not nb.complete)
    if incomplete:
        print(f"warning: {incomplete} images returned incomplete hypotheses")
    return 0


def _cmd_mert(args) -> int:
    nbests = artifacts.read_nbest_tsv(args.nbest_path)
    if not nbests:
        raise MalformedInput(f"{args.nbest_path}: no n-best lists")
    refs = captions_by_image(load_captions(args.refs))
    log: list = []
    weights = rerank.mert_optimize(
        nbests,
        refs,
        rerank.initial_weights(args.mert_features),
        mert_config(vars(args), args.seed),
        iteration_log=log,
    )
    artifacts.write_json(args.out, weights)
    if log:
        print(f"final corpus BLEU {log[-1][2]:.2f} after {len(log)} iterations")
    print(f"wrote weights to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    captions = captions_by_image(load_captions(args.refs))
    scores = score_captions(artifacts.read_generated(args.hyp), captions)
    if args.metric in ("bleu", "all"):
        print(f"BLEU {scores['bleu']:.2f}")
    if args.metric in ("meteor", "all"):
        print(f"METEOR {scores['meteor']:.2f}")
    return 0


def _cmd_analyze(args) -> int:
    captions = captions_by_image(load_captions(args.captions))
    train_features, test_features = _train_and_test_features(args)
    train_strings = analysis.caption_strings(
        cap for image_id in train_features.ids() for cap in captions.get(image_id, ())
    )
    bins = analysis.overlap_bins(
        analysis.unit_index(test_features, "test"),
        analysis.unit_index(train_features, "train"),
        top_k=args.top_k,
        tail_fraction=args.tail,
    )
    generated = artifacts.read_generated(args.generated)
    report = caption_report(generated, captions, train_strings, bins)
    if args.report == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        rep = report["repetition"]
        print(
            f"unique captions: {rep['unique']}/{rep['total']} "
            f"({100 * (rep['unique'] / rep['total']):.1f}%)"
        )
        print(
            f"seen in training: {rep['seen_in_training']}/{rep['total']} "
            f"({100 * (rep['seen_in_training'] / rep['total']):.1f}%)"
        )
        for name, score in report["binned_bleu"].items():
            print(f"BLEU [{name}] {score:.2f}")
    return 0


def _cmd_pipeline(args) -> int:
    doc = artifacts.read_json(args.config)
    if not isinstance(doc, dict):
        raise MalformedInput(f"{args.config}: config must be a JSON object")
    if args.seed is not None:
        doc["seed"] = args.seed
    hyperparameters = doc["hyperparameters"] = dict(hyperparameters_of(doc))
    for override in args.set or []:
        key, sep, value = override.partition("=")
        if not sep:
            raise MalformedInput(f"--set needs key=value, got {override!r}")
        try:
            hyperparameters[key] = json.loads(value)
        except json.JSONDecodeError:
            hyperparameters[key] = value
    base = os.path.dirname(os.path.abspath(args.config))
    config = PipelineConfig.from_doc(doc, base_dir=base)
    stages = args.stages.split(",") if args.stages is not None else None
    run_pipeline(config, stages, args.out_dir)
    return 0


def _hyperparameter(parser, flag, key, kind=None, **kwargs) -> None:
    """Option ``flag`` setting hyperparameter ``key``; the pipeline's table gives
    its default, and ``main`` checks its range."""
    default = DEFAULT_HYPERPARAMETERS[key]
    parser.add_argument(flag, dest=key, type=kind or type(default), default=default, **kwargs)


def _feature_list(text: str) -> list[str]:
    return [name for name in text.split(",") if name]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capkit",
        description="caption retrieval, generation, reranking, and evaluation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate inputs, build vocabulary and split")
    p.add_argument("--captions", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--detections")
    _hyperparameter(p, "--min-count", "min_count")
    p.add_argument("--sizes", required=True, help="train,val,testval")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("knn-caption", help="retrieval captions (consensus or 1-NN)")
    p.add_argument("--features-train", required=True)
    p.add_argument("--features-test", required=True)
    p.add_argument("--captions", required=True, help="training captions JSON")
    _hyperparameter(p, "--k", "k")
    _hyperparameter(p, "--m", "m")
    p.add_argument("--mode", choices=knn.RETRIEVAL_MODES, default="consensus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_knn_caption)

    p = sub.add_parser("train-me", help="train the detection-conditioned log-linear LM")
    p.add_argument("--captions", required=True)
    p.add_argument("--detections")
    _hyperparameter(p, "--alpha", "alpha")
    _hyperparameter(p, "--epochs", "me_epochs")
    _hyperparameter(p, "--lr", "me_lr")
    _hyperparameter(p, "--l2", "me_l2")
    p.add_argument("--seed", type=int, default=0)
    _hyperparameter(p, "--min-count", "min_count")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_me)

    p = sub.add_parser("train-rnn", help="train a gated recurrent LM")
    p.add_argument("--mode", choices=tuple(_RNN_MODES), required=True)
    p.add_argument("--features")
    p.add_argument("--detections")
    _hyperparameter(p, "--alpha", "alpha")
    p.add_argument("--captions", required=True)
    _hyperparameter(p, "--embed", "rnn_embed")
    _hyperparameter(p, "--hidden", "rnn_hidden")
    _hyperparameter(p, "--epochs", "rnn_epochs")
    _hyperparameter(p, "--lr", "rnn_lr")
    _hyperparameter(p, "--clip", "rnn_clip")
    p.add_argument("--seed", type=int, default=0)
    _hyperparameter(p, "--min-count", "min_count")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_rnn)

    # no abbreviations, so a leftover "--mode" is an unknown option, not "--model"
    p = sub.add_parser("decode", help="beam-search decode or rescore an n-best file",
                       allow_abbrev=False)
    p.add_argument("--model", required=True,
                   help="a MELM or dgrnn GRLM reads --detections and decodes under "
                        "coverage; an mrnn GRLM reads --features")
    p.add_argument("--features")
    p.add_argument("--detections")
    _hyperparameter(p, "--alpha", "alpha")
    _hyperparameter(p, "--beam", "beam")
    _hyperparameter(p, "--nbest", "nbest")
    _hyperparameter(p, "--max-len", "max_len")
    _hyperparameter(p, "--min-coverage", "min_coverage", kind=int)
    p.add_argument("--rescore", help="existing n-best TSV to add a feature column to")
    p.add_argument("--feature-name", default="rescore")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("mert", help="optimize reranking weights to maximize BLEU")
    p.add_argument("--nbest", dest="nbest_path", required=True)
    p.add_argument("--refs", required=True)
    p.add_argument("--features", dest="mert_features", type=_feature_list, required=True,
                   help="comma-separated feature columns; MERT starts at 1.0 for the first")
    _hyperparameter(p, "--restarts", "mert_restarts")
    _hyperparameter(p, "--iters", "mert_iters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mert)

    p = sub.add_parser("eval", help="score generated captions against references")
    p.add_argument("--hyp", required=True)
    p.add_argument("--refs", required=True)
    p.add_argument("--metric", choices=("bleu", "meteor", "all"), default="all")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("analyze", help="repetition and train/test-overlap reports")
    p.add_argument("--generated", required=True)
    p.add_argument("--captions", required=True)
    p.add_argument("--features-train", required=True)
    p.add_argument("--features-test", required=True)
    _hyperparameter(p, "--top-k", "top_k")
    _hyperparameter(p, "--tail", "tail")
    p.add_argument("--report", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("pipeline", help="run pipeline stages from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--stages", help=f"comma-separated subset of {','.join(STAGE_ORDER)}")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a hyperparameter")
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_ranges(vars(args))
        return args.func(args)
    except (InputDataError, OSError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 2
    except ToolkitError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
