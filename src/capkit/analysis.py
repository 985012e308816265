"""Diagnostics: caption repetition statistics and train/test visual-overlap bins.

Caption equality is judged on the space-joined token sequence, so
punctuation or casing noise in the raw strings cannot hide duplicates.
Everything here is a pure function over immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyIndex, MissingReferences, ZeroVector
from .knn import FeatureIndex
from .metrics import corpus_bleu

BIN_LEAST = "least"
BIN_MIDDLE = "middle"
BIN_MOST = "most"


@dataclass(frozen=True)
class RepetitionReport:
    """How repetitive generated captions are, and how many were memorized."""

    total: int
    unique: int
    seen_in_training: int

    @property
    def unique_fraction(self) -> float:
        return self.unique / self.total

    @property
    def seen_in_training_fraction(self) -> float:
        return self.seen_in_training / self.total


def _caption_string(tokens) -> str:
    """The string two captions are compared by: their space-joined tokens."""
    return " ".join(tokens)


def caption_strings(captions) -> frozenset[str]:
    """``_caption_string`` of every token sequence in ``captions``, as a set."""
    return frozenset(map(_caption_string, captions))


def repetition_stats(generated, training: frozenset[str]) -> RepetitionReport:
    """Distinct-caption and seen-in-training fractions of generated captions.

    ``generated`` maps image ids to token sequences; ``training`` is the
    ``caption_strings`` of the training captions, built once per run.
    """
    if not generated:
        raise ValueError("repetition_stats needs at least one generated caption")
    strings = list(map(_caption_string, generated.values()))
    seen = sum(1 for s in strings if s in training)
    return RepetitionReport(len(strings), len(set(strings)), seen)


@dataclass(frozen=True)
class OverlapBinAssignment:
    """Per test image: mean similarity to its closest training images, and
    membership in the least / middle / most overlapping bin."""

    mean_similarity: dict[int, float]
    bin_of: dict[int, str]

    def images_in(self, bin_name: str) -> list[int]:
        return sorted(i for i, b in self.bin_of.items() if b == bin_name)


def unit_index(store, label: str, image_ids=None) -> FeatureIndex:
    """``FeatureIndex.from_store``, naming the side (``label``) of a zero vector."""
    try:
        return FeatureIndex.from_store(store, image_ids)
    except ZeroVector as exc:
        raise ZeroVector(f"{label} {exc}") from None


def overlap_bins(test: FeatureIndex, train: FeatureIndex, top_k: int,
                 tail_fraction: float) -> OverlapBinAssignment:
    """Bin test images by mean cosine similarity to their ``top_k`` closest
    training images.

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
    means = {int(i): float(m) for i, m in zip(test_ids, top_means)}
    return OverlapBinAssignment(means, bin_of)


def binned_bleu(generated, refs, bins: OverlapBinAssignment) -> dict[str, float]:
    """Corpus BLEU computed independently inside each overlap bin.

    Raises MissingReferences when a generated image lacks references or a
    bin assignment. Bins with no images are omitted from the result.
    """
    pairs: dict[str, list] = {}
    for image_id, tokens in generated.items():
        if image_id not in refs:
            raise MissingReferences(f"no references for image {image_id}")
        if image_id not in bins.bin_of:
            raise MissingReferences(f"no overlap bin for image {image_id}")
        pairs.setdefault(bins.bin_of[image_id], []).append((tokens, refs[image_id]))
    return {name: corpus_bleu(binned) for name, binned in sorted(pairs.items())}
