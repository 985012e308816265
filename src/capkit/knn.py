"""Brute-force cosine retrieval, the 1-NN caption baseline, and consensus captions.

The index is exact (dense matrix, no approximation) and immutable after
construction, so concurrent queries are safe; ties are always broken by
ascending image id so results are reproducible.
"""

from __future__ import annotations

from collections import Counter
from random import Random

import numpy as np

from .errors import DimensionMismatch, EmptyIndex, EmptyPool, NoCaptions, ZeroVector

# Consensus compares captions by their n-grams of orders 1 to MAX_ORDER.
MAX_ORDER = 4
# Rows per block of the row-norm pass; bounds its squared temporary.
_NORM_BLOCK_ROWS = 256


def _row_norms(mat: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(mat, axis=1)`` of a C-ordered float64 matrix, bit for
    bit: each row is squared and summed by the same reduction, a block of
    rows at a time."""
    norms = np.empty(mat.shape[0])
    for start in range(0, mat.shape[0], _NORM_BLOCK_ROWS):
        blk = mat[start:start + _NORM_BLOCK_ROWS]
        np.add.reduce(blk * blk, axis=1, out=norms[start:start + _NORM_BLOCK_ROWS])
    return np.sqrt(norms, out=norms)


class FeatureIndex:
    """L2-normalized row matrix over image ids, sorted by ascending id.

    ``vectors`` (a matrix or a sequence of rows) is copied once into a
    float64 matrix, which is then sorted and normalised in place.
    """

    def __init__(self, ids, vectors):
        id_list = [int(i) for i in ids]
        if len(set(id_list)) != len(id_list):
            raise ValueError("feature index ids must be unique")
        mat = np.array(vectors, dtype=np.float64, order="C")
        if mat.ndim != 2 or mat.shape[0] != len(id_list):
            raise DimensionMismatch(
                f"expected a ({len(id_list)}, dim) matrix, got shape {mat.shape}"
            )
        self.ids = np.asarray(id_list, dtype=np.int64)
        if np.any(self.ids[1:] <= self.ids[:-1]):
            order = np.argsort(self.ids, kind="stable")
            self.ids = self.ids[order]
            mat = mat[order]
        norms = _row_norms(mat)
        if mat.shape[0] and not np.all(norms > 0.0):
            bad = int(self.ids[int(np.argmin(norms))])
            raise ZeroVector(f"image {bad} has a zero feature vector")
        mat /= norms[:, None]
        mat.flags.writeable = False
        self.unit_vectors = mat
        self.dim = int(mat.shape[1])

    @classmethod
    def from_store(cls, store, image_ids=None) -> "FeatureIndex":
        ids = sorted(store.ids() if image_ids is None else (int(i) for i in image_ids))
        vectors = [store.get(i) for i in ids] if ids else np.zeros((0, store.dim))
        return cls(ids, vectors)

    def __len__(self) -> int:
        return int(self.ids.shape[0])


def nearest(index: FeatureIndex, query, k: int) -> list[tuple[int, float]]:
    """Top-``k`` index entries by cosine similarity to ``query``, as
    (image id, similarity) pairs sorted by similarity desc, id asc.

    Returns the whole index when ``k`` exceeds its size.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(index) == 0:
        raise EmptyIndex("cannot query an empty feature index")
    q = np.asarray(query, dtype=np.float64)
    if q.ndim != 1 or q.shape[0] != index.dim:
        raise DimensionMismatch(f"query has shape {q.shape}, index dim is {index.dim}")
    qnorm = float(np.linalg.norm(q))
    if qnorm == 0.0:
        raise ZeroVector("query vector is zero")
    sims = index.unit_vectors @ (q / qnorm)
    sims = np.clip(sims, -1.0, 1.0)
    order = np.lexsort((index.ids, -sims))[: min(k, len(index))]
    return [(int(index.ids[i]), float(sims[i])) for i in order]


def _draw_caption(captions, image_id: int, rng_seed: int) -> tuple[str, ...]:
    pool = captions.get(image_id)
    if not pool:
        raise NoCaptions(f"nearest image {image_id} has no captions")
    return tuple(pool[Random(rng_seed).randrange(len(pool))])


def one_nn_caption(index: FeatureIndex, captions, query, rng_seed: int) -> tuple[str, ...]:
    """Uniformly pick one caption of the single most similar image.

    ``captions`` maps image_id to a list of token sequences. Deterministic
    given ``rng_seed``.
    """
    return _draw_caption(captions, nearest(index, query, 1)[0][0], rng_seed)


def _clipped_matches(captions, n: int, totals: np.ndarray) -> np.ndarray:
    """Clipped order-``n`` n-gram matches of every caption pair, (P, P).

    Column (g, t) of the 0/1 matrix B holds [count_i(g) >= t], so
    ``B @ B.T`` sums min(count_i(g), count_j(g)) over every n-gram g.
    Entries are small integers, exact in float32. Columns held by a
    single caption only add to the diagonal, which is the caption's own
    n-gram total, so they are dropped.
    """
    columns: dict = {}
    rows: list[int] = []
    cols: list[int] = []
    for i, toks in enumerate(captions):
        grams = Counter(toks[j:j + n] for j in range(len(toks) - n + 1))
        for gram, count in grams.items():
            for level in range(count):
                rows.append(i)
                cols.append(columns.setdefault((gram, level), len(columns)))
    bits = np.zeros((len(captions), len(columns)), dtype=np.float32)
    bits[rows, cols] = 1.0
    bits = bits[:, bits.sum(axis=0) >= 2.0]
    matched = (bits @ bits.T).astype(np.float64)
    np.fill_diagonal(matched, totals)
    return matched


def _pair_fscores(captions) -> np.ndarray:
    """``ngram_overlap_fscore`` of every ordered pair of ``captions``, (P, P).

    Each element sees the same floating-point operations, in the same
    order, as the scalar definition: per order n, F = 2·p·r / (p + r)
    from clipped precision p and recall r, added up over n = 1..MAX_ORDER and
    divided by the number of orders where either side has an n-gram.
    """
    lengths = np.array([len(c) for c in captions], dtype=np.float64)
    total_f = np.zeros((len(captions), len(captions)))
    used = np.zeros_like(total_f)
    for n in range(1, MAX_ORDER + 1):
        totals = np.maximum(lengths - (n - 1), 0.0)
        matched = _clipped_matches(captions, n, totals)
        # an empty side has no matches, so dividing by 1 instead gives 0
        precision = matched / np.maximum(totals, 1.0)[:, None]
        recall = matched / np.maximum(totals, 1.0)[None, :]
        denom = precision + recall
        total_f += np.divide(2.0 * precision * recall, denom,
                             out=np.zeros_like(denom), where=denom > 0.0)
        used += (totals[:, None] > 0.0) | (totals[None, :] > 0.0)
    return np.divide(total_f, used, out=np.zeros_like(total_f), where=used > 0.0)


def ngram_overlap_fscore(a, b) -> float:
    """Mean over n=1..MAX_ORDER of the harmonic-mean F between clipped n-gram
    precision and recall of ``a`` against ``b``.

    Symmetric in its arguments; orders where neither side has any n-gram
    are skipped; empty inputs score 0.
    """
    return float(_pair_fscores([tuple(a), tuple(b)])[0, 1])


def consensus_caption(pool, m: int) -> tuple[tuple, float]:
    """(caption, mean overlap) of the pool caption with the highest mean
    n-gram overlap with its ``m`` most-overlapping pool mates.

    Ties go to the earliest caption in pool order. A single-caption pool
    returns that caption with overlap 0. All pair overlaps come from one
    matrix kernel over the pool's distinct captions; each row's top ``m``
    are summed sequentially in descending order, so the means equal the
    scalar definition bit for bit.
    """
    captions = [tuple(c) for c in pool]
    if not captions:
        raise EmptyPool("consensus over an empty caption pool")
    if m < 1:
        raise ValueError("m must be >= 1")
    if len(captions) == 1:
        return captions[0], 0.0
    # A pair's score depends only on its two captions, and two copies of a
    # caption score its diagonal value, so the distinct captions' matrix
    # gathered back to pool positions holds every pool pair's bits.
    slot_of: dict = {}
    slots = [slot_of.setdefault(c, len(slot_of)) for c in captions]
    scores = _pair_fscores(list(slot_of))
    if len(slot_of) < len(captions):
        scores = scores[np.ix_(slots, slots)]
    np.fill_diagonal(scores, -np.inf)
    keep = min(m, len(captions) - 1)
    top = np.partition(scores, len(captions) - keep, axis=1)[:, len(captions) - keep:]
    descending = np.sort(top, axis=1)[:, ::-1]
    means = np.cumsum(descending, axis=1)[:, -1] / keep
    best = int(np.argmax(means))
    return captions[best], float(means[best])


def _caption_pool(captions, neighbors) -> list[tuple[str, ...]]:
    """The captions of each (image id, similarity) of ``neighbors``, in order."""
    return [tuple(cap) for image_id, _ in neighbors for cap in captions.get(image_id, ())]


def neighbor_caption_pool(index: FeatureIndex, captions, query, k: int) -> list[tuple[str, ...]]:
    """Union of the captions of the ``k`` nearest images, in neighbor order."""
    return _caption_pool(captions, nearest(index, query, k))


def consensus_for_query(index: FeatureIndex, captions, query, k: int,
                        m: int) -> tuple[tuple, float]:
    """``consensus_caption`` over the pooled captions of the k nearest images."""
    pool = neighbor_caption_pool(index, captions, query, k)
    return consensus_caption(pool, m)


RETRIEVAL_MODES = ("consensus", "onenn")


def retrieve_captions(index: FeatureIndex, captions, queries, rng_seed: int, k: int, m: int,
                      modes=RETRIEVAL_MODES) -> dict[str, dict[int, tuple[str, ...]]]:
    """Retrieval captions for ``queries``, an iterable of (image_id, vector).

    Returns ``{mode: {image_id: caption}}`` for each of ``modes``:
    "consensus" is ``consensus_for_query`` and "onenn" is ``one_nn_caption``
    with seed ``rng_seed + image_id``. Each query runs one ``nearest``
    search; its first entry is the 1-NN image. A zero query vector raises
    ZeroVector naming its image.
    """
    out: dict[str, dict[int, tuple[str, ...]]] = {mode: {} for mode in modes}
    depth = k if "consensus" in modes else 1
    for image_id, query in queries:
        try:
            neighbors = nearest(index, query, depth)
        except ZeroVector:
            raise ZeroVector(f"query image {image_id} has a zero feature vector") from None
        if "consensus" in out:
            pool = _caption_pool(captions, neighbors)
            out["consensus"][image_id] = consensus_caption(pool, m)[0]
        if "onenn" in out:
            out["onenn"][image_id] = _draw_caption(captions, neighbors[0][0], rng_seed + image_id)
    return out
