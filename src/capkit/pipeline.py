"""End-to-end pipeline: ingest -> retrieve -> train -> decode -> rerank -> report.

Stages communicate only through files inside the output directory, write
atomically, and a manifest records the configuration hash plus a checksum
of every artifact, so identical (config, seed) runs are byte-comparable.
A stage names each file it writes once, through ``ctx.artifact``, and
returns nothing. Its manifest entry lists the files it wrote in that run,
whatever else the directory holds, and its ``[stage] wrote`` line names
them in write order.
Only ingest reads the raw caption and detection files for the val and
testval images: it writes those images' inputs in the raw input formats,
their tokenized captions to ``heldout_captions.json`` and their lines of
the detections file to ``heldout_detections.jsonl``. Decode, rerank, eval
and analyze read their held-out inputs only from those files, with the
same loaders, and decode thresholds the detections at the run's own
``alpha``. Stages run one after another in ``STAGE_ORDER``, with one
exception: when a run includes both ``train_me`` and ``train_rnn``, which
share no state, ``train_me`` runs in one forked worker process while
``train_rnn`` runs in this one. Each model's bytes are those of a
sequential run, and the two stages are recorded, in order, once both have
ended. If ``train_me`` fails, ``rnn.model`` may already have been written;
no manifest is written, as after any failed stage.
"""

from __future__ import annotations

import hashlib
import json
import os
import traceback
from dataclasses import dataclass, field

from . import analysis, artifacts, decoding, knn, maxent, metrics, recurrent, rerank
from ._binio import read_file
from .corpus import (
    CaptionRecord,
    Vocabulary,
    build_vocabulary,
    captions_by_image,
    json_typed,
    load_captions,
    load_detections,
    load_features,
    split_dataset,
)
from .errors import InputDataError, MalformedInput, ToolkitError

DEFAULT_HYPERPARAMETERS: dict = {
    "alpha": 0.5,
    "k": 90,
    "m": 125,
    "beam": 10,
    "nbest": 500,
    "top_k": 50,
    "tail": 0.2,
    "min_count": 1,
    "max_len": 16,
    "min_coverage": None,
    "me_epochs": 8,
    "me_lr": 0.2,
    "me_l2": 1e-6,
    "rnn_epochs": 8,
    "rnn_lr": 0.15,
    "rnn_clip": 5.0,
    "rnn_embed": 32,
    "rnn_hidden": 64,
    "mert_restarts": 8,
    "mert_iters": 30,
    "mert_features": ["logprob", "mrnn", "length", "covered"],
}


# One rule per hyperparameter: (accepted types, range test, what the test
# requires). bool is never accepted, although Python counts it as an int.
_RULES = {
    **{key: (int, lambda v: v >= 1, ">= 1") for key in (
        "k", "m", "beam", "nbest", "top_k", "min_count", "me_epochs", "rnn_epochs",
        "rnn_embed", "rnn_hidden", "mert_iters",
    )},
    **{key: ((int, float), lambda v: v > 0, "positive") for key in ("me_lr", "rnn_lr")},
    **{key: ((int, float), lambda v: v >= 0, ">= 0") for key in ("me_l2", "rnn_clip")},
    "mert_restarts": (int, lambda v: v >= 0, ">= 0"),
    "alpha": ((int, float), lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    "tail": ((int, float), lambda v: 0.0 < v <= 0.5, "in (0, 0.5]"),
    "max_len": (int, lambda v: v >= 2, ">= 2"),
    "min_coverage": ((int, type(None)), lambda v: v is None or v >= 0, "null or >= 0"),
    "mert_features": ((list, tuple), lambda v: len(v) > 0 and all(isinstance(f, str) for f in v),
                      "a non-empty list of feature names"),
}


def _check_ranges(hp: dict) -> None:
    """Raise MalformedInput for the first value in ``hp`` that breaks its rule,
    then if ``min_coverage`` is not below ``max_len``."""
    for key, (types, in_range, requirement) in _RULES.items():
        if key not in hp:
            continue
        value = hp[key]
        if isinstance(value, bool) or not isinstance(value, types):
            raise MalformedInput(f"hyperparameter {key} has the wrong type: {value!r}")
        if not in_range(value):
            raise MalformedInput(f"hyperparameter out of range: {key} must be {requirement}")
    min_coverage, max_len = hp.get("min_coverage"), hp.get("max_len")
    if min_coverage is not None and max_len is not None and min_coverage >= max_len:
        # Each covered word takes a step, and END takes one more.
        raise MalformedInput(
            f"hyperparameter out of range: min_coverage must be < max_len ({max_len})"
        )


# Library configs from a mapping keyed like DEFAULT_HYPERPARAMETERS: the
# stages pass the run's hyperparameters, the subcommands their options.

def maxent_train_config(hp, seed: int) -> maxent.MaxEntTrainConfig:
    return maxent.MaxEntTrainConfig(
        epochs=hp["me_epochs"],
        learning_rate=hp["me_lr"],
        l2=hp["me_l2"],
        seed=seed,
    )


def recurrent_config(hp, seed: int, mode: str,
                     feature_dim: int | None) -> recurrent.RecurrentConfig:
    return recurrent.RecurrentConfig(
        mode=mode,
        embed_dim=hp["rnn_embed"],
        hidden_dim=hp["rnn_hidden"],
        feature_dim=feature_dim,
        seed=seed,
    )


def rnn_train_config(hp, seed: int) -> recurrent.RnnTrainConfig:
    return recurrent.RnnTrainConfig(
        epochs=hp["rnn_epochs"], learning_rate=hp["rnn_lr"], clip=hp["rnn_clip"], seed=seed
    )


def mert_config(hp, seed: int) -> rerank.MertConfig:
    return rerank.MertConfig(
        restarts=hp["mert_restarts"], max_iters=hp["mert_iters"], seed=seed
    )


def decode_options(hp, coverage: bool) -> dict:
    """Keyword arguments of ``coverage_beam_search`` (``coverage``) or ``beam_search``."""
    options = {"beam_size": hp["beam"], "max_len": hp["max_len"], "n_best": hp["nbest"]}
    if coverage:
        options["min_coverage"] = hp["min_coverage"]
    return options


def hyperparameters_of(doc: dict) -> dict:
    """The ``hyperparameters`` object of a config document ({} if absent)."""
    hyperparameters = doc.get("hyperparameters", {})
    if not isinstance(hyperparameters, dict):
        raise MalformedInput("config hyperparameters must be a JSON object")
    return hyperparameters


@dataclass
class PipelineConfig:
    """Validated pipeline configuration; see README for the JSON schema."""

    captions_path: str
    features_path: str
    detections_path: str | None
    split_sizes: tuple[int, int, int]
    seed: int
    hyperparameters: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = dict(DEFAULT_HYPERPARAMETERS)
        unknown = set(self.hyperparameters) - set(merged)
        if unknown:
            raise MalformedInput(f"unknown hyperparameters: {sorted(unknown)}")
        merged.update(self.hyperparameters)
        _check_ranges(merged)
        self.hyperparameters = merged

    @classmethod
    def from_doc(cls, doc: dict, base_dir: str = ".") -> "PipelineConfig":
        try:
            paths = doc["paths"]
            captions = paths["captions"]
            features = paths["features"]
            detections = paths.get("detections")
            split = doc["split"]
        except (KeyError, TypeError) as exc:
            raise MalformedInput(f"config missing required key: {exc}") from exc
        if not isinstance(split, (list, tuple)) or len(split) != 3:
            raise MalformedInput("config split must be [train, val, testval] sizes")

        def resolve(p):
            return p if p is None or os.path.isabs(p) else os.path.join(base_dir, p)

        split_sizes = tuple(json_typed(s, int, "config split entry") for s in split)
        seed = json_typed(doc.get("seed", 0), int, "config seed")
        try:
            return cls(
                captions_path=resolve(captions),
                features_path=resolve(features),
                detections_path=resolve(detections),
                split_sizes=split_sizes,
                seed=seed,
                hyperparameters=dict(hyperparameters_of(doc)),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise MalformedInput(f"config value of the wrong type: {exc}") from exc

    def canonical_doc(self) -> dict:
        return {
            "paths": {
                "captions": os.path.basename(self.captions_path),
                "features": os.path.basename(self.features_path),
                "detections": (
                    os.path.basename(self.detections_path)
                    if self.detections_path else None
                ),
            },
            "split": list(self.split_sizes),
            "seed": self.seed,
            "hyperparameters": self.hyperparameters,
        }

    def config_hash(self) -> str:
        canon = json.dumps(self.canonical_doc(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class PipelineContext:
    """Lazy access to inputs and prior-stage artifacts; the inputs and the
    ingest artifacts are cached. It checks no config fact: ``run_pipeline``
    has checked each stage's ``_NEEDS`` before any stage runs. ``systems``
    are the ``_EVAL_SYSTEMS`` rows that eval and analyze score, and
    ``carried`` the manifest entries (stage -> {name: sha256}) of the
    stages that ran before under this config and do not run now."""

    def __init__(self, config: PipelineConfig, out_dir: str, systems=(), carried=None):
        self.config = config
        self.hp = config.hyperparameters
        self.out_dir = out_dir
        self.systems = systems
        self.carried = carried or {}
        self._cache: dict = {}
        self.written: list[str] = []

    def artifact(self, name: str) -> str:
        """The path to write the artifact ``name`` to; the name joins ``written``."""
        self.written.append(name)
        return os.path.join(self.out_dir, name)

    def read(self, name: str, producer: str, load):
        """``load(path)`` of the artifact ``name`` that the stage ``producer`` writes.

        Every artifact a stage reads back is read here, and nothing is
        cached. A missing file asks for ``producer`` to run first. A fault
        in the file (an InputDataError from ``load``, or a KeyError,
        TypeError or ValueError, such as a missing JSON key or a duplicate
        token), or else a checksum other than the one that a carried-over
        manifest entry of ``producer`` records for it, raises an
        InputDataError that names the file and asks for ``producer`` to run
        again.
        """
        path = os.path.join(self.out_dir, name)
        if not os.path.exists(path):
            raise MalformedInput(f"missing artifact {path}; run the '{producer}' stage first")
        try:
            loaded = load(path)
        except InputDataError as exc:
            raise type(exc)(f"{exc}; run the '{producer}' stage again") from exc
        except (KeyError, TypeError, ValueError) as exc:
            problem = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise MalformedInput(
                f"{path}: {problem}; run the '{producer}' stage again"
            ) from exc
        recorded = self.carried.get(producer, {}).get(name)
        if recorded is not None and artifacts.sha256_file(path) != recorded:
            raise MalformedInput(f"{path}: checksum differs from the manifest's; "
                                 f"run the '{producer}' stage again")
        return loaded

    def _cached(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def caption_table(self):
        return self._cached("caption_table", lambda: load_captions(self.config.captions_path))

    def captions(self):
        return self._cached("captions", lambda: captions_by_image(self.caption_table()))

    def features(self, image_ids=()):
        """The features store, which must hold a vector for each of ``image_ids``."""
        features = self._cached("features", lambda: load_features(self.config.features_path))
        require_features(image_ids, features)
        return features

    def detections(self):
        return self._cached(
            "detections",
            lambda: load_detections(self.config.detections_path, self.hp["alpha"]),
        )

    def split(self):
        def load(path):
            doc = json_typed(artifacts.read_json(path), dict, f"{path}: the document")
            split = {
                k: sorted(json_typed(i, int, f"{path}: {k} image id")
                          for i in json_typed(doc[k], list, f"{path}: {k}"))
                for k in ("train", "val", "testval")
            }
            sizes = tuple(len(ids) for ids in split.values())
            if sizes != tuple(self.config.split_sizes):
                raise ValueError(f"holds a {list(sizes)} split, but the config sets "
                                 f"{list(self.config.split_sizes)}")
            return split

        return self._cached("split.json", lambda: self.read("split.json", "ingest", load))

    def vocabulary(self):
        def load(path):
            doc = json_typed(artifacts.read_json(path), dict, f"{path}: the document")
            return Vocabulary(json_typed(tok, str, f"{path}: token")
                              for tok in json_typed(doc["tokens"], list, f"{path}: tokens"))

        return self._cached("vocab.json", lambda: self.read("vocab.json", "ingest", load))

    def heldout_references(self) -> dict[int, list[tuple[str, ...]]]:
        """Reference captions of the val and testval images, from ingest."""
        return self._cached("heldout_captions.json", lambda: self.read(
            "heldout_captions.json", "ingest", lambda path: captions_by_image(load_captions(path))
        ))

    def heldout_detections(self) -> dict[int, frozenset[str]]:
        """Detections of the val and testval images, from ingest, at this run's alpha."""
        return self._cached("heldout_detections.jsonl", lambda: self.read(
            "heldout_detections.jsonl", "ingest",
            lambda path: load_detections(path, self.hp["alpha"]),
        ))

    def train_index(self):
        def build():
            train = self.split()["train"]
            return analysis.unit_index(self.features(train), "train", train)

        return self._cached("train_index", build)

    def train_captions(self):
        def build():
            train = set(self.split()["train"])
            return {i: caps for i, caps in self.captions().items() if i in train}

        return self._cached("train_captions", build)

    def train_rows(self):
        """(image id, tokens) of each train caption, in file order."""
        train = set(self.split()["train"])
        table = self.caption_table()
        return [row for row in zip(table.image_ids, table.tokens) if row[0] in train]


def references_for(captions, image_ids) -> dict:
    """``captions`` (image id -> references) cut to ``image_ids``; each must have some."""
    refs = {}
    for image_id in image_ids:
        if image_id not in captions:
            raise MalformedInput(f"no reference captions for image {image_id}")
        refs[image_id] = captions[image_id]
    return refs


def require_features(image_ids, features) -> None:
    """Raise MalformedInput naming the first few of ``image_ids`` that ``features`` lacks."""
    missing = [i for i in image_ids if i not in features]
    if missing:
        raise MalformedInput(f"images missing feature vectors: {missing[:5]}")


def _stage_ingest(ctx: PipelineContext) -> None:
    table = ctx.caption_table()
    image_ids = sorted(set(table.image_ids))
    ctx.features(image_ids)
    detections = ctx.detections() if ctx.config.detections_path is not None else None
    split = split_dataset(image_ids, ctx.config.split_sizes, ctx.config.seed)
    train = set(split["train"])
    vocab = build_vocabulary(
        (tokens for image_id, tokens in zip(table.image_ids, table.tokens) if image_id in train),
        ctx.hp["min_count"],
    )
    artifacts.write_json(ctx.artifact("vocab.json"), {"tokens": vocab.word_tokens()})
    artifacts.write_json(ctx.artifact("split.json"), split)
    # The val and testval images' inputs, in the raw input formats: each
    # caption as its space-joined tokens (which tokenize to themselves), and
    # each detections line verbatim, unthresholded.
    heldout = set(split["val"] + split["testval"])
    captions = ctx.captions()
    references = [(i, tokens) for i in sorted(heldout) for tokens in captions[i]]
    artifacts.write_json(ctx.artifact("heldout_captions.json"), {"annotations": [
        {"id": n, "image_id": i, "caption": " ".join(tokens)}
        for n, (i, tokens) in enumerate(references, start=1)
    ]})
    if detections is not None:
        # load_detections keeps one record per non-empty line, in file order.
        lines = read_file(ctx.config.detections_path, "detections file").split("\n")
        records = (line for line in lines if line.strip())
        text = "".join(line + "\n" for line, image_id in zip(records, detections)
                       if image_id in heldout)
        artifacts.atomic_write_text(ctx.artifact("heldout_detections.jsonl"), text)


def _stage_knn(ctx: PipelineContext) -> None:
    test_ids = ctx.split()["testval"]
    features = ctx.features(test_ids)
    found = knn.retrieve_captions(
        ctx.train_index(),
        ctx.train_captions(),
        ((image_id, features.get(image_id)) for image_id in test_ids),
        rng_seed=ctx.config.seed,
        k=ctx.hp["k"],
        m=ctx.hp["m"],
    )
    artifacts.write_captions_tsv(ctx.artifact("knn_consensus.tsv"), found["consensus"])
    artifacts.write_captions_tsv(ctx.artifact("knn_onenn.tsv"), found["onenn"])


def _stage_train_me(ctx: PipelineContext) -> None:
    detections = ctx.detections()
    pairs = [
        (CaptionRecord(*row), detections.get(row[0])) for row in ctx.train_rows()
    ]
    lm = maxent.train_maxent(
        pairs, maxent_train_config(ctx.hp, ctx.config.seed), vocabulary=ctx.vocabulary()
    )
    maxent.save_maxent(lm, ctx.artifact("me.model"))


def _stage_train_rnn(ctx: PipelineContext) -> None:
    features = ctx.features(ctx.split()["train"])
    data = [(features.get(image_id), list(tokens)) for image_id, tokens in ctx.train_rows()]
    seed = ctx.config.seed
    lm = recurrent.RecurrentLM(
        ctx.vocabulary(),
        recurrent_config(ctx.hp, seed, recurrent.MODE_IMAGE_INITIAL, features.dim),
    )
    recurrent.train(lm, data, rnn_train_config(ctx.hp, seed))
    recurrent.save_recurrent(lm, ctx.artifact("rnn.model"))


# The feature columns of decode's n-best lists: coverage search writes the
# first three, and rescoring with the GRU writes the last.
_RESCORE_COLUMN = "mrnn"
_NBEST_COLUMNS = ("logprob", "length", "covered", _RESCORE_COLUMN)


def _stage_decode(ctx: PipelineContext) -> None:
    me_lm = ctx.read("me.model", "train_me", maxent.load_maxent)
    rnn_lm = ctx.read("rnn.model", "train_rnn", recurrent.load_recurrent)
    me_scorer = decoding.MaxEntScorer(me_lm)
    rnn_scorer = decoding.RecurrentScorer(rnn_lm)
    detections = ctx.heldout_detections()
    features = ctx.features(ctx.split()["val"] + ctx.split()["testval"])
    for split_name in ("val", "testval"):
        nbests = []
        for image_id in ctx.split()[split_name]:
            if image_id not in detections:
                raise MalformedInput(f"no detections for image {image_id}")
            nbest = decoding.coverage_beam_search(
                me_scorer, detections[image_id], image_id=image_id,
                **decode_options(ctx.hp, coverage=True)
            )
            nbest = decoding.rescore_logprob(
                nbest, rnn_scorer, features.get(image_id), _RESCORE_COLUMN
            )
            nbests.append(nbest)
        print(f"[decode] {split_name} {decoding.nbest_sizes(nbests, ctx.hp['nbest'])}")
        incomplete = sum(1 for nb in nbests if not nb.complete)
        if incomplete:
            print(f"[decode] warning: {incomplete} {split_name} images incomplete")
        artifacts.write_nbest_tsv(ctx.artifact(f"me_nbest_{split_name}.tsv"), nbests)
    mrnn_captions = {}
    for image_id in ctx.split()["testval"]:
        result = decoding.beam_search(
            rnn_scorer,
            features.get(image_id),
            image_id=image_id,
            **dict(decode_options(ctx.hp, coverage=False), n_best=1),
        )
        mrnn_captions[image_id] = result.hypotheses[0].tokens if result.hypotheses else ()
    artifacts.write_captions_tsv(ctx.artifact("mrnn_testval.tsv"), mrnn_captions)


def _stage_rerank(ctx: PipelineContext) -> None:
    val_ids, test_ids = ctx.split()["val"], ctx.split()["testval"]
    val_nbests = ctx.read("me_nbest_val.tsv", "decode", artifacts.nbest_reader(val_ids))
    refs = references_for(ctx.heldout_references(), [nb.image_id for nb in val_nbests])
    weights = rerank.mert_optimize(
        val_nbests,
        refs,
        rerank.initial_weights(ctx.hp["mert_features"]),
        mert_config(ctx.hp, ctx.config.seed),
    )
    artifacts.write_json(ctx.artifact("weights.json"), weights)
    test_nbests = ctx.read("me_nbest_testval.tsv", "decode", artifacts.nbest_reader(test_ids))
    reranked = {
        nb.image_id: rerank.apply_weights(nb, weights).tokens for nb in test_nbests
    }
    artifacts.write_captions_tsv(ctx.artifact("reranked_testval.tsv"), reranked)


# (system, caption file, the stage that writes it)
_EVAL_SYSTEMS = (
    ("knn_consensus", "knn_consensus.tsv", "knn"),
    ("knn_onenn", "knn_onenn.tsv", "knn"),
    ("mrnn", "mrnn_testval.tsv", "decode"),
    ("me_reranked", "reranked_testval.tsv", "rerank"),
)


def _generated(ctx: PipelineContext):
    """(system, captions) of each of ``ctx.systems``."""
    for system, name, producer in ctx.systems:
        yield system, ctx.read(name, producer, artifacts.read_generated)


def score_captions(generated, captions) -> dict[str, float]:
    """Corpus BLEU and mean METEOR of ``generated`` (image id -> tokens) against ``captions``."""
    refs = references_for(captions, generated)
    pairs = [(tokens, refs[image_id]) for image_id, tokens in sorted(generated.items())]
    return {
        "bleu": metrics.corpus_bleu(pairs),
        "meteor": sum(metrics.meteor(hyp, ref) for hyp, ref in pairs) / len(pairs),
    }


def caption_report(generated, captions, train_strings, bins) -> dict:
    """Repetition (against ``train_strings``, see ``analysis.caption_strings``)
    and per-bin BLEU (``bins`` as ``analysis.overlap_bins`` returns) of
    ``generated`` (image id -> tokens)."""
    refs = references_for(captions, generated)
    rep = analysis.repetition_stats(generated, train_strings)
    return {
        "repetition": {key: round(value, 6) for key, value in rep.items()},
        "binned_bleu": {
            name: round(score, 6)
            for name, score in analysis.binned_bleu(generated, refs, bins).items()
        },
    }


def _stage_eval(ctx: PipelineContext) -> None:
    scores = {}
    for system, generated in _generated(ctx):
        row = score_captions(generated, ctx.heldout_references())
        scores[system] = {name: round(value, 6) for name, value in row.items()}
    for system, row in scores.items():
        print(f"[eval] {system}: BLEU {row['bleu']:.2f} METEOR {row['meteor']:.2f}")
    artifacts.write_json(ctx.artifact("scores.json"), scores)


def _stage_analyze(ctx: PipelineContext) -> None:
    test_ids = ctx.split()["testval"]
    bins = analysis.overlap_bins(
        analysis.unit_index(ctx.features(test_ids), "test", test_ids),
        ctx.train_index(),
        top_k=ctx.hp["top_k"],
        tail_fraction=ctx.hp["tail"],
    )
    train_strings = analysis.caption_strings(
        cap for caps in ctx.train_captions().values() for cap in caps
    )
    report = {
        "bins": {
            name: sorted(i for i, bin_name in bins.items() if bin_name == name)
            for name in (analysis.BIN_LEAST, analysis.BIN_MIDDLE, analysis.BIN_MOST)
        },
        "systems": {
            system: caption_report(generated, ctx.heldout_references(), train_strings, bins)
            for system, generated in _generated(ctx)
        },
    }
    artifacts.write_json(ctx.artifact("analysis.json"), report)


_STAGE_FNS = {
    "ingest": _stage_ingest,
    "knn": _stage_knn,
    "train_me": _stage_train_me,
    "train_rnn": _stage_train_rnn,
    "decode": _stage_decode,
    "rerank": _stage_rerank,
    "eval": _stage_eval,
    "analyze": _stage_analyze,
}

STAGE_ORDER = tuple(_STAGE_FNS)

# The config facts each stage needs, besides hyperparameters in range (and
# of those only rerank's mert_features): one row per (stage, what it does
# with the fact, what a config without it lacks, the test that the config
# holds it). run_pipeline checks them all before any stage runs.
_TRAIN = ("split sets train size 0", lambda config: config.split_sizes[0] > 0)
_VAL = ("split sets val size 0", lambda config: config.split_sizes[1] > 0)
_DETECTIONS = ("has no detections path", lambda config: config.detections_path is not None)
_NEEDS = (
    ("knn", "retrieves captions of the train images", *_TRAIN),
    ("train_me", "trains on the train captions", *_TRAIN),
    ("train_me", "conditions on the word detections", *_DETECTIONS),
    ("train_rnn", "trains on the train captions", *_TRAIN),
    ("decode", "decodes under the word detections", *_DETECTIONS),
    ("rerank", "runs MERT on the val images", *_VAL),
    ("rerank", "weighs the columns of decode's n-best lists",
     f"names mert_features outside {', '.join(_NBEST_COLUMNS)}",
     lambda config: set(config.hyperparameters["mert_features"]) <= set(_NBEST_COLUMNS)),
    ("analyze", "bins the testval images against the train images", *_TRAIN),
)


def _train_me_worker(ctx: PipelineContext, conn) -> None:
    """Run ``train_me`` and send ``conn`` (True, the names it wrote) or
    (False, error); the parent raises the error, whatever its kind, so it
    is never lost here."""
    try:
        _STAGE_FNS["train_me"](ctx)
    except BaseException as exc:
        exc.add_note(f"in the train_me worker:\n{traceback.format_exc()}")
        conn.send((False, exc))
        return
    conn.send((True, ctx.written))


def _train_both(ctx: PipelineContext) -> dict[str, list[str]]:
    """Names written by ``train_me``, run in a forked worker, and by
    ``train_rnn``, run here meanwhile, from an empty ``ctx.written``. The
    worker is always joined, never killed; when both stages fail,
    ``train_me``'s error is the one raised."""
    import multiprocessing  # here, so that importing capkit does not pay for it

    fork = multiprocessing.get_context("fork")
    receiver, sender = fork.Pipe(duplex=False)
    worker = fork.Process(target=_train_me_worker, args=(ctx, sender), name="train_me")
    worker.start()  # flushes stdout and stderr first, so the worker prints nothing twice
    sender.close()
    try:
        _STAGE_FNS["train_rnn"](ctx)
    finally:
        # Whether or not train_rnn raised: an error of train_me's replaces its.
        me_ok, me_result = _result_of(worker, receiver)
        if not me_ok:
            raise me_result
    return {"train_me": me_result, "train_rnn": ctx.written}


def _result_of(worker, receiver) -> tuple:
    """(True, names written) or (False, error) that ``worker`` sent, once it has exited."""
    try:
        result = receiver.recv()
    except EOFError:
        result = None
    finally:
        receiver.close()
        worker.join()
    if result is None:
        return False, ToolkitError(
            f"stage {worker.name}: its worker process exited with status "
            f"{worker.exitcode} without a result"
        )
    return result


def _previous_manifest(path) -> dict:
    """The manifest at ``path``, an object whose ``stages`` map each stage to an object."""
    previous = json_typed(artifacts.read_json(path), dict, f"{path}: the document")
    stages = json_typed(previous.get("stages", {}), dict, f"{path}: stages")
    for stage, files in stages.items():
        json_typed(files, dict, f"{path}: stages[{stage!r}]")
    return previous


def run_pipeline(config: PipelineConfig, stages=None, out_dir: str = ".") -> dict:
    """Run the requested stages in canonical order; returns the manifest."""
    if stages is None:
        stages = list(STAGE_ORDER)
    unknown = [s for s in stages if s not in _STAGE_FNS]
    if unknown:
        raise MalformedInput(f"unknown stages: {unknown}; valid: {list(STAGE_ORDER)}")
    for stage, does, lacks, holds in _NEEDS:
        if stage in stages and not holds(config):
            raise MalformedInput(f"the {stage} stage {does}, but the config {lacks}")
    manifest: dict = {
        "config_sha256": config.config_hash(),
        "seed": config.seed,
        "stages": {},
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    if os.path.exists(manifest_path):
        previous = _previous_manifest(manifest_path)
        if previous.get("config_sha256") == manifest["config_sha256"]:
            manifest["stages"] = previous.get("stages", {})
    # Eval and analyze score the systems whose stage runs now or ran before
    # under this config, never a file another config left behind.
    systems = [row for row in _EVAL_SYSTEMS if row[2] in stages or row[2] in manifest["stages"]]
    for stage in ("eval", "analyze"):
        if stage in stages and not systems:
            raise MalformedInput(f"the {stage} stage scores generated captions, but no knn, "
                                 "decode or rerank stage has run under this config")
    os.makedirs(out_dir, exist_ok=True)
    carried = {stage: files for stage, files in manifest["stages"].items() if stage not in stages}
    ctx = PipelineContext(config, out_dir, systems, carried)
    trained: dict[str, list[str]] = {}
    for stage in STAGE_ORDER:
        if stage not in stages:
            continue
        ctx.written = []
        if stage == "train_me" and "train_rnn" in stages:
            trained = _train_both(ctx)
        if stage not in trained:
            _STAGE_FNS[stage](ctx)
        outputs = trained.pop(stage, ctx.written)
        manifest["stages"][stage] = {
            name: artifacts.sha256_file(os.path.join(out_dir, name)) for name in outputs
        }
        print(f"[{stage}] wrote {' '.join(outputs)}")
    artifacts.write_json(manifest_path, manifest)
    return manifest
