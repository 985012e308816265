"""Pin the documented default hyperparameters so they cannot drift."""

import argparse

from capkit import analysis, decoding, knn
from capkit.cli import build_parser
from capkit.pipeline import _RULES, DEFAULT_HYPERPARAMETERS


def test_library_defaults():
    assert knn.DEFAULT_NEIGHBORS == 90
    assert knn.DEFAULT_SIMILAR_CAPTIONS == 125
    assert knn.DEFAULT_MAX_ORDER == 4
    assert decoding.DEFAULT_BEAM_SIZE == 10
    assert decoding.DEFAULT_NBEST == 500
    assert analysis.DEFAULT_TOP_K == 50
    assert analysis.DEFAULT_TAIL_FRACTION == 0.2


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
