"""Diagnostics: caption repetition statistics and train/test visual-overlap bins.

Caption equality is judged on the space-joined token sequence, so
punctuation or casing noise in the raw strings cannot hide duplicates.
Everything here is a pure function over immutable inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, EmptyIndex, MissingReferences, ZeroVector
from .knn import FeatureIndex
from .metrics import corpus_bleu

BIN_LEAST = "least"
BIN_MIDDLE = "middle"
BIN_MOST = "most"


def _caption_string(tokens) -> str:
    """The string two captions are compared by: their space-joined tokens."""
    return " ".join(tokens)


def caption_strings(captions) -> frozenset[str]:
    """``_caption_string`` of every token sequence in ``captions``, as a set."""
    return frozenset(map(_caption_string, captions))


def repetition_stats(generated, training: frozenset[str]) -> dict:
    """How repetitive generated captions are, and how many were memorized.

    ``generated`` maps image ids to token sequences; ``training`` is the
    ``caption_strings`` of the training captions, built once per run. Returns
    the counts ``total``, ``unique`` and ``seen_in_training``, and the last
    two over ``total`` as ``unique_fraction`` and ``seen_in_training_fraction``.
    """
    if not generated:
        raise ValueError("repetition_stats needs at least one generated caption")
    strings = list(map(_caption_string, generated.values()))
    total, unique = len(strings), len(set(strings))
    seen = sum(1 for s in strings if s in training)
    return {"total": total, "unique": unique, "seen_in_training": seen,
            "unique_fraction": unique / total, "seen_in_training_fraction": seen / total}


def unit_index(store, label: str, image_ids=None) -> FeatureIndex:
    """``FeatureIndex.from_store``, naming the side (``label``) of a zero vector."""
    try:
        return FeatureIndex.from_store(store, image_ids)
    except ZeroVector as exc:
        raise ZeroVector(f"{label} {exc}") from None


def overlap_bins(test: FeatureIndex, train: FeatureIndex, top_k: int,
                 tail_fraction: float) -> dict[int, str]:
    """The least, middle or most overlapping bin of each test image id, by
    mean cosine similarity to its ``top_k`` closest training images.

    After sorting ascending by that mean (ties by ascending image id), the
    lowest ``floor(tail_fraction * N)`` images land in the "least" bin and
    the highest in the "most" bin. ``top_k`` is capped at the training-set
    size; an empty training index raises EmptyIndex.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    if not 0.0 < tail_fraction <= 0.5:
        raise ValueError("tail_fraction must be in (0, 0.5]")
    if len(train) == 0:
        raise EmptyIndex("cannot bin test images against an empty training index")
    if test.dim != train.dim:
        raise DimensionMismatch(f"test dim {test.dim} != train dim {train.dim}")
    test_ids = test.ids
    k = min(top_k, len(train))
    sims = np.clip(test.unit_vectors @ train.unit_vectors.T, -1.0, 1.0)
    top = np.partition(sims, len(train) - k, axis=1)[:, len(train) - k:]
    top_means = np.sort(top, axis=1).mean(axis=1)
    order = np.lexsort((test_ids, top_means))
    n_tail = int(len(test_ids) * tail_fraction)
    bin_of: dict[int, str] = {}
    for pos, idx in enumerate(order):
        if pos < n_tail:
            name = BIN_LEAST
        elif pos >= len(order) - n_tail:
            name = BIN_MOST
        else:
            name = BIN_MIDDLE
        bin_of[int(test_ids[idx])] = name
    return bin_of


def binned_bleu(generated, refs, bins: dict[int, str]) -> dict[str, float]:
    """Corpus BLEU computed independently inside each overlap bin of
    ``bins`` (image id -> bin name, as ``overlap_bins`` returns).

    Raises MissingReferences when a generated image lacks references or a
    bin assignment. Bins with no images are omitted from the result.
    """
    pairs: dict[str, list] = {}
    for image_id, tokens in generated.items():
        if image_id not in refs:
            raise MissingReferences(f"no references for image {image_id}")
        if image_id not in bins:
            raise MissingReferences(f"no overlap bin for image {image_id}")
        pairs.setdefault(bins[image_id], []).append((tokens, refs[image_id]))
    return {name: corpus_bleu(binned) for name, binned in sorted(pairs.items())}
