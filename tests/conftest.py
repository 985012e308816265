import json
import multiprocessing

import numpy as np
import pytest

from capkit.corpus import END_TOKEN
from capkit.maxent import _event_nll_and_grad


def write_captions_json(path, annotations):
    """annotations: list of (id, image_id, caption) triples."""
    doc = {
        "annotations": [
            {"id": a, "image_id": i, "caption": c} for a, i, c in annotations
        ]
    }
    path.write_text(json.dumps(doc))
    return path


def write_detections_jsonl(path, per_image):
    """per_image: dict image_id -> list of (token, score)."""
    lines = [
        json.dumps(
            {"image_id": i, "words": [{"token": t, "score": s} for t, s in words]}
        )
        for i, words in per_image.items()
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


class TableScorer:
    """Random but frozen conditional log-probs keyed by history tuple.

    Serves as a deterministic toy model for decoder tests.
    """

    def __init__(self, vocab, seed, spread=2.0):
        self.candidates = list(vocab) + [END_TOKEN]
        self._rng = np.random.default_rng(seed)
        self._spread = spread
        self._table = {}

    def row(self, history):
        if history not in self._table:
            logits = self._rng.standard_normal(len(self.candidates)) * self._spread
            self._table[history] = logits - np.log(np.exp(logits).sum())
        return self._table[history]

    def start(self, conditioning):
        return ()

    def logprobs(self, state, remaining):
        return self.row(state), lambda token: state + (token,)


def randomize_maxent_event(lm, history, remaining, draw):
    """Create the event's bigram and trigram rows and set every weight it
    reads from ``draw()``, candidate by candidate in template order (unigram,
    bigram, trigram, coverage). Returns (condition, touched rows)."""
    condition = lm._condition(history, remaining)
    h2, h1, slots = condition
    width = len(lm.unigram)
    rows = (
        lm.unigram,
        lm.bigram.setdefault(h1, np.zeros(width)),
        lm.trigram.setdefault((h2, h1), np.zeros(width)),
    )
    for i, slot in enumerate(slots):
        for row in rows:
            row[i] = draw()
        lm.coverage[slot] = draw()
    return condition, rows


def maxent_gradient_error(lm, condition, rows, target, eps):
    """Largest relative error of the event gradient against central finite
    differences, over every entry of the touched rows and every coverage
    scalar the event uses."""
    _, grad, coverage_grad = _event_nll_and_grad(lm, condition, target)
    checks = [(row, i, grad[i]) for row in rows for i in range(len(row))]
    checks += [(lm.coverage, slot, coverage_grad[slot]) for slot in np.unique(condition[2])]
    worst = 0.0
    for arr, i, analytic in checks:
        orig = arr[i]
        arr[i] = orig + eps
        up = _event_nll_and_grad(lm, condition, target)[0]
        arr[i] = orig - eps
        down = _event_nll_and_grad(lm, condition, target)[0]
        arr[i] = orig
        numeric = (up - down) / (2 * eps)
        worst = max(worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6))
    return worst


@pytest.fixture
def table_scorer_factory():
    return TableScorer


@pytest.fixture(autouse=True)
def no_child_process_left_running():
    """Fail a test whose code leaves a multiprocessing child alive; the
    pipeline joins every worker it starts, whether a run succeeds or fails."""
    yield
    left = multiprocessing.active_children()
    for child in left:  # so that one leak does not fail the tests after it
        child.terminate()
        child.join()
    assert not left, f"child processes left running: {left}"
