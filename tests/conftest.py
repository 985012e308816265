import json

import numpy as np
import pytest

from capkit.corpus import END_TOKEN


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


@pytest.fixture
def table_scorer_factory():
    return TableScorer
