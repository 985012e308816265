"""Pin the documented default hyperparameters so they cannot drift, and keep
the pipeline's table the only place they are written."""

import argparse
import dataclasses
import inspect

from capkit import analysis, corpus, decoding, knn, maxent, pipeline, recurrent, rerank
from capkit.cli import build_parser
from capkit.pipeline import _RULES, DEFAULT_HYPERPARAMETERS

# Library parameters that a hyperparameter (or a value derived from one) sets.
_CALLER_SET = {
    corpus.load_detections: ["threshold"],
    corpus.build_vocabulary: ["min_count"],
    knn.consensus_caption: ["m"],
    knn.neighbor_caption_pool: ["k"],
    knn.consensus_for_query: ["k", "m"],
    knn.retrieve_captions: ["k", "m"],
    decoding.beam_search: ["beam_size", "max_len", "n_best"],
    decoding.coverage_beam_search: ["beam_size", "max_len", "n_best", "min_coverage"],
    analysis.overlap_bins: ["top_k", "tail_fraction"],
    maxent.train_maxent: ["config", "vocabulary"],
    maxent.MaxEntLM: ["l2"],
    recurrent.train: ["config"],
    rerank.mert_optimize: ["config"],
}
_CALLER_SET_CONFIGS = (
    maxent.MaxEntTrainConfig, recurrent.RecurrentConfig, recurrent.RnnTrainConfig,
    rerank.MertConfig,
)


def test_library_has_no_hyperparameter_defaults():
    for fn, names in _CALLER_SET.items():
        parameters = inspect.signature(fn).parameters
        for name in names:
            assert parameters[name].default is inspect.Parameter.empty, (fn.__name__, name)
    for config in _CALLER_SET_CONFIGS:
        for f in dataclasses.fields(config):
            assert f.default is dataclasses.MISSING, (config.__name__, f.name)
            assert f.default_factory is dataclasses.MISSING, (config.__name__, f.name)
    constants = {
        f"{module.__name__}.{name}"
        for module in (analysis, corpus, decoding, knn, maxent, pipeline, recurrent, rerank)
        for name in vars(module) if name.startswith("DEFAULT_")
    }
    assert constants == {"capkit.pipeline.DEFAULT_HYPERPARAMETERS"}
    # the consensus n-gram order is a constant of the method, not a hyperparameter
    assert knn.MAX_ORDER == 4


def test_pipeline_defaults():
    hp = DEFAULT_HYPERPARAMETERS
    assert hp["alpha"] == 0.5
    assert hp["k"] == 90
    assert hp["m"] == 125
    assert hp["beam"] == 10
    assert hp["nbest"] == 500
    assert hp["top_k"] == 50
    assert hp["tail"] == 0.2


def test_cli_defaults():
    """Every option that sets a hyperparameter defaults to the pipeline's value."""
    parser = build_parser()
    subparsers = next(
        action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    )
    covered = set()
    for command, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.dest not in _RULES:
                continue
            covered.add(action.dest)
            if not action.required:
                assert action.default == DEFAULT_HYPERPARAMETERS[action.dest], (
                    command, action.option_strings)
    # every hyperparameter can be set from some subcommand
    assert covered == set(_RULES)
