"""Span tracing around calls into capkit's layers, installed from outside.

The tracer replaces public capkit functions and methods with wrappers that
record a span (name, layer, start, end, parent) per call plus a few exact
counters read from arguments and results. Nothing inside capkit changes.
An entry point that no longer exists is recorded as absent and skipped,
so a refactor that removes or renames one never crashes a traced run.

Only imported by traced runs: untraced runs never load this module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# (layer, "module:qualified.name", span name). Several entry points may
# share a span name; their times and calls add up. Some spans feed no
# metric of their own; they are here so that their time counts as their
# layer's self time instead of their caller's.
ENTRY_POINTS = (
    ("pipeline", "capkit.pipeline:run_pipeline", "pipeline.run"),
    ("corpus", "capkit.corpus:load_captions", "corpus.load"),
    ("corpus", "capkit.corpus:load_features", "corpus.load"),
    ("corpus", "capkit.corpus:load_detections", "corpus.load"),
    ("corpus", "capkit.corpus:build_vocabulary", "corpus.vocabulary"),
    ("corpus", "capkit.corpus:split_dataset", "corpus.split"),
    ("corpus", "capkit.corpus:captions_by_image", "corpus.group"),
    ("knn", "capkit.knn:FeatureIndex.from_store", "knn.index"),
    ("knn", "capkit.knn:nearest", "knn.nearest"),
    ("knn", "capkit.knn:one_nn_caption", "knn.onenn"),
    ("knn", "capkit.knn:neighbor_caption_pool", "knn.pool"),
    ("knn", "capkit.knn:consensus_caption", "knn.consensus"),
    ("knn", "capkit.knn:consensus_for_query", "knn.query"),
    ("maxent", "capkit.maxent:train_maxent", "maxent.train"),
    ("maxent", "capkit.maxent:MaxEntLM.logprobs", "maxent.logprobs"),
    ("recurrent", "capkit.recurrent:train", "recurrent.train"),
    ("recurrent", "capkit.recurrent:RecurrentLM.step", "recurrent.step"),
    ("decoding", "capkit.decoding:coverage_beam_search", "decoding.coverage"),
    ("decoding", "capkit.decoding:beam_search", "decoding.beam"),
    ("decoding", "capkit.decoding:rescore_logprob", "decoding.rescore"),
    ("decoding", "capkit.decoding:MaxEntScorer.logprobs", "decoding.scorer.maxent"),
    ("decoding", "capkit.decoding:RecurrentScorer.logprobs", "decoding.scorer.recurrent"),
    ("rerank", "capkit.rerank:mert_optimize", "rerank.mert"),
    ("rerank", "capkit.rerank:line_envelope", "rerank.line_envelope"),
    ("rerank", "capkit.rerank:apply_weights", "rerank.apply_weights"),
    ("metrics", "capkit.metrics:bleu_stats", "metrics.bleu_stats"),
    ("metrics", "capkit.metrics:corpus_bleu", "metrics.corpus_bleu"),
    ("metrics", "capkit.metrics:meteor", "metrics.meteor"),
    ("analysis", "capkit.analysis:overlap_bins", "analysis.overlap_bins"),
    ("analysis", "capkit.analysis:repetition_stats", "analysis.repetition"),
    ("analysis", "capkit.analysis:binned_bleu", "analysis.binned_bleu"),
    ("artifacts", "capkit.artifacts:read_json", "artifacts.read"),
    ("artifacts", "capkit.artifacts:read_captions_tsv", "artifacts.read"),
    ("artifacts", "capkit.artifacts:read_nbest_tsv", "artifacts.read"),
    ("artifacts", "capkit.artifacts:sha256_file", "artifacts.read"),
    ("artifacts", "capkit.maxent:load_maxent", "artifacts.read"),
    ("artifacts", "capkit.recurrent:load_recurrent", "artifacts.read"),
    ("artifacts", "capkit.artifacts:write_json", "artifacts.write"),
    ("artifacts", "capkit.artifacts:write_captions_tsv", "artifacts.write"),
    ("artifacts", "capkit.artifacts:write_nbest_tsv", "artifacts.write"),
    ("artifacts", "capkit.maxent:save_maxent", "artifacts.write"),
    ("artifacts", "capkit.recurrent:save_recurrent", "artifacts.write"),
)

# Stage functions are looked up by run_pipeline in this private table; a
# span per stage gives the stage wall times.
STAGE_TABLE = "capkit.pipeline:_STAGE_FNS"


def _bound_args(fn, args, kwargs):
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except (TypeError, ValueError):
        return None
    bound.apply_defaults()
    return bound.arguments


def _sized(value):
    """``value`` when it can be measured without consuming it, else None."""
    return value if isinstance(value, (list, tuple)) else None


def _count_consensus(counters, fn, args, kwargs, result):
    pool = _sized((_bound_args(fn, args, kwargs) or {}).get("pool"))
    if pool is not None:
        p = len(pool)
        counters["knn.consensus.pool_total"] += p
        counters["knn.consensus.pairs"] += p * (p - 1)


def _count_train_maxent(counters, fn, args, kwargs, result):
    bound = _bound_args(fn, args, kwargs) or {}
    pairs = _sized(bound.get("pairs"))
    epochs = getattr(bound.get("config"), "epochs", None)
    if pairs is not None and epochs is not None:
        counters["maxent.train.events"] += epochs * sum(
            len(rec.tokens) + 1 for rec, _ in pairs
        )


def _count_train_rnn(counters, fn, args, kwargs, result):
    bound = _bound_args(fn, args, kwargs) or {}
    data = _sized(bound.get("data"))
    epochs = getattr(bound.get("config"), "epochs", None)
    if data is not None and epochs is not None:
        counters["recurrent.train.tokens"] += epochs * sum(
            len(tokens) + 1 for _, tokens in data
        )


def _count_logprobs(counters, fn, args, kwargs, result):
    counters["maxent.candidates"] = max(counters["maxent.candidates"], len(result))


def _count_coverage(counters, fn, args, kwargs, result):
    requested = (_bound_args(fn, args, kwargs) or {}).get("n_best")
    if requested is not None:
        counters["decoding.nbest.requested"] = max(
            counters["decoding.nbest.requested"], int(requested)
        )
    hypotheses = getattr(result, "hypotheses", None)
    if hypotheses is not None:
        counters["decoding.nbest.lists"] += 1
        counters["decoding.nbest.realized_total"] += len(hypotheses)
    if getattr(result, "complete", True) is False:
        counters["decoding.incomplete"] += 1


def _count_beam(counters, fn, args, kwargs, result):
    if getattr(result, "complete", True) is False:
        counters["decoding.incomplete"] += 1


def _count_captions(counters, fn, args, kwargs, result):
    counters["corpus.captions"] += len(result)


def _count_vocab(counters, fn, args, kwargs, result):
    counters["corpus.vocab"] = max(counters["corpus.vocab"], len(result))


COUNTERS = {
    "capkit.knn:consensus_caption": _count_consensus,
    "capkit.maxent:train_maxent": _count_train_maxent,
    "capkit.recurrent:train": _count_train_rnn,
    "capkit.maxent:MaxEntLM.logprobs": _count_logprobs,
    "capkit.decoding:coverage_beam_search": _count_coverage,
    "capkit.decoding:beam_search": _count_beam,
    "capkit.corpus:load_captions": _count_captions,
    "capkit.corpus:build_vocabulary": _count_vocab,
}

COUNTER_NAMES = (
    "knn.consensus.pool_total", "knn.consensus.pairs", "maxent.train.events",
    "recurrent.train.tokens", "maxent.candidates", "decoding.nbest.requested",
    "decoding.nbest.lists", "decoding.nbest.realized_total", "decoding.incomplete",
    "corpus.captions", "corpus.vocab",
)


class Tracer:
    """Records spans and counters for the capkit entry points it installs."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent]
        self.counters = {name: 0 for name in COUNTER_NAMES}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._absent_counters: set[str] = set()

    def span(self, name: str, layer: str, fn, counter=None):
        """Wrap ``fn`` so each call records a span and feeds ``counter``."""
        spans, stack, counters = self.spans, self._stack, self.counters
        absent = self._absent_counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, layer, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][3] = time.perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    counter(counters, fn, args, kwargs, result)
                except (AttributeError, TypeError, ValueError):
                    # The entry point changed shape; its counters read 0.
                    absent.add(f"counters of {name}")
            return result

        return traced

    def install(self) -> None:
        # Load every capkit module first, so that all the references that
        # _install_one rebinds already exist.
        importlib.import_module("capkit")
        for layer, target, name in ENTRY_POINTS:
            self._install_one(layer, target, name, COUNTERS.get(target))
        self._install_stages()

    def _install_one(self, layer, target, name, counter) -> None:
        module_name, _, qualname = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr, type(raw)(self.span(name, layer, raw.__func__, counter)))
        elif inspect.isclass(owner):
            setattr(owner, attr, self.span(name, layer, raw, counter))
        else:
            wrapped = self.span(name, layer, raw, counter)
            # Modules that imported the function by name hold their own
            # reference; rebind those too so their calls are traced.
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "capkit" or mod_name.startswith("capkit."):
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, key, wrapped)

    def _install_stages(self) -> None:
        module_name, _, attr = STAGE_TABLE.partition(":")
        table = getattr(importlib.import_module(module_name), attr, None)
        if not isinstance(table, dict):
            self.absent.append(STAGE_TABLE)
            return
        for stage, fn in list(table.items()):
            table[stage] = self.span(f"stage.{stage}", "pipeline", fn)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counters": self.counters,
            "absent": self.absent + sorted(self._absent_counters),
        }
