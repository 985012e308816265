import struct
from collections import Counter
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capkit import knn
from capkit.knn import (
    FeatureIndex,
    consensus_caption,
    consensus_for_query,
    nearest,
    ngram_overlap_fscore,
    one_nn_caption,
    retrieve_captions,
)
from capkit.errors import (
    DimensionMismatch,
    EmptyIndex,
    EmptyPool,
    NoCaptions,
    ZeroVector,
)


def _sort_oracle(ids, vectors, query, k):
    """Independent full-sort implementation of top-k cosine: (id, similarity) pairs."""
    query = np.asarray(query, dtype=np.float64)
    scored = []
    for image_id, vec in zip(ids, vectors):
        vec = np.asarray(vec, dtype=np.float64)
        sim = float(vec @ query / (np.linalg.norm(vec) * np.linalg.norm(query)))
        scored.append((min(max(sim, -1.0), 1.0), image_id))
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [(image_id, sim) for sim, image_id in scored[:k]]


class TestNearest:
    def _index(self, n=6, dim=4, seed=0):
        rng = np.random.default_rng(seed)
        ids = [100 + i for i in range(n)]
        vectors = rng.standard_normal((n, dim))
        return ids, vectors, FeatureIndex(ids, vectors)

    def test_exact_match_first(self):
        ids, vectors, index = self._index()
        result = nearest(index, vectors[2], 3)
        assert result[0][0] == ids[2]
        assert result[0][1] == pytest.approx(1.0)

    def test_k_larger_than_index(self):
        ids, vectors, index = self._index(n=4)
        result = nearest(index, vectors[0], 10)
        assert len(result) == 4
        sims = [s for _, s in result]
        assert sims == sorted(sims, reverse=True)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(25):
            n = int(rng.integers(2, 30))
            dim = int(rng.integers(2, 8))
            ids = list(rng.choice(10000, size=n, replace=False))
            vectors = rng.standard_normal((n, dim))
            index = FeatureIndex(ids, vectors)
            query = rng.standard_normal(dim)
            k = int(rng.integers(1, n + 1))
            got, want = nearest(index, query, k), _sort_oracle(ids, vectors, query, k)
            assert [i for i, _ in got] == [i for i, _ in want]
            assert [s for _, s in got] == pytest.approx([s for _, s in want])

    def test_scale_invariance(self):
        ids, vectors, index = self._index(n=8, seed=3)
        # powers of two keep the normalized rows bit-identical
        scaled = vectors.copy()
        scaled[3] *= 4.0
        scaled[5] *= 0.25
        index2 = FeatureIndex(ids, scaled)
        query = np.r_[1.0, -0.5, 0.25, 2.0]
        for k in (1, 3, 8):
            assert nearest(index, query, k) == nearest(index2, query, k)

    def test_empty_index(self):
        index = FeatureIndex([], np.zeros((0, 3)))
        with pytest.raises(EmptyIndex):
            nearest(index, np.ones(3), 1)

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroVector):
            FeatureIndex([1, 2], np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_query_dim_mismatch(self):
        _, _, index = self._index(dim=4)
        with pytest.raises(DimensionMismatch):
            nearest(index, np.ones(3), 1)


class TestOneNN:
    def test_single_caption_regardless_of_seed(self):
        index = FeatureIndex([1, 2], np.array([[1.0, 0.0], [0.0, 1.0]]))
        captions = {1: [("a", "cat")], 2: [("a", "dog")]}
        for seed in range(10):
            assert one_nn_caption(index, captions, [0.9, 0.1], seed) == ("a", "cat")

    def test_uniform_selection_frequencies(self):
        index = FeatureIndex([1], np.array([[1.0, 1.0]]))
        captions = {1: [(f"cap{i}",) for i in range(5)]}
        counts = Counter(
            one_nn_caption(index, captions, [1.0, 1.0], seed) for seed in range(100)
        )
        for i in range(5):
            assert abs(counts[(f"cap{i}",)] / 100 - 0.2) <= 0.15

    def test_no_captions(self):
        index = FeatureIndex([1], np.array([[1.0, 0.0]]))
        with pytest.raises(NoCaptions):
            one_nn_caption(index, {}, [1.0, 0.0], 0)


class TestOverlapFscore:
    def test_identical(self):
        assert ngram_overlap_fscore(["a", "b", "c"], ["a", "b", "c"]) == pytest.approx(1.0)

    def test_disjoint(self):
        assert ngram_overlap_fscore(["a", "b"], ["c", "d"]) == 0.0

    def test_hand_value(self):
        # F is 2/3 on unigrams, 1/2 on bigrams and 0 on trigrams; neither
        # side has a 4-gram, so that order is skipped.
        got = ngram_overlap_fscore("a black cat".split(), "a black dog".split())
        assert got == pytest.approx(7 / 18)

    def test_empty(self):
        assert ngram_overlap_fscore([], []) == 0.0
        assert ngram_overlap_fscore([], ["a"]) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        vocab = ["a", "b", "c", "d"]
        for _ in range(100):
            x = [vocab[i] for i in rng.integers(0, 4, size=rng.integers(0, 8))]
            y = [vocab[i] for i in rng.integers(0, 4, size=rng.integers(0, 8))]
            assert ngram_overlap_fscore(x, y) == ngram_overlap_fscore(y, x)


def consensus_oracle(pool, m, max_n):
    """Plain quadratic reimplementation used as an independent oracle."""

    def grams(tokens, n):
        return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))

    def fscore(a, b):
        used, total = 0, 0.0
        for n in range(1, max_n + 1):
            ca, cb = grams(a, n), grams(b, n)
            ta, tb = sum(ca.values()), sum(cb.values())
            if ta == 0 and tb == 0:
                continue
            used += 1
            matched = sum((ca & cb).values())
            p = matched / ta if ta else 0.0
            r = matched / tb if tb else 0.0
            if p + r > 0:
                total += 2 * p * r / (p + r)
        return total / used if used else 0.0

    best_i, best_mean = 0, float("-inf")
    for i, cand in enumerate(pool):
        scores = sorted(
            (fscore(cand, other) for j, other in enumerate(pool) if j != i),
            reverse=True,
        )[: min(m, len(pool) - 1)]
        mean = sum(scores) / len(scores)
        if mean > best_mean:
            best_i, best_mean = i, mean
    return tuple(pool[best_i]), best_mean


class TestConsensus:
    def test_all_identical(self):
        pool = [("a", "cat"), ("a", "cat"), ("a", "cat")]
        caption, mean_overlap = consensus_caption(pool, m=5)
        assert caption == ("a", "cat")
        assert mean_overlap == pytest.approx(1.0)

    def test_single_caption(self):
        assert consensus_caption([("just", "one")], m=3) == (("just", "one"), 0.0)

    def test_empty_pool(self):
        with pytest.raises(EmptyPool):
            consensus_caption([], m=1)

    def test_matches_oracle(self):
        rng = np.random.default_rng(23)
        vocab = ["a", "b", "c", "d", "e"]
        for _ in range(40):
            size = int(rng.integers(2, 10))
            pool = [
                tuple(vocab[i] for i in rng.integers(0, 5, size=rng.integers(1, 7)))
                for _ in range(size)
            ]
            m = int(rng.integers(1, 12))
            assert consensus_caption(pool, m=m) == consensus_oracle(pool, m, 4)

    def test_m_saturates_at_pool_size(self):
        rng = np.random.default_rng(29)
        vocab = ["a", "b", "c"]
        pool = [
            tuple(vocab[i] for i in rng.integers(0, 3, size=5)) for _ in range(6)
        ]
        full = consensus_caption(pool, m=5)
        for m in (5, 6, 50, 125):
            assert consensus_caption(pool, m=m) == full


# A caption is a few runs of one word repeated 1-4 times, so that clipped
# counts above 1 occur; zero runs gives an empty caption.
_caption = st.lists(
    st.tuples(st.sampled_from("abcd"), st.integers(1, 4)), max_size=4
).map(lambda runs: tuple(word for word, times in runs for _ in range(times)))


@st.composite
def _pools(draw):
    pool = draw(st.lists(_caption, min_size=2, max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        pool.append(pool[draw(st.integers(0, len(pool) - 1))])  # exact duplicate
    return draw(st.permutations(pool))


class TestConsensusKernel:
    @settings(max_examples=150, deadline=None)
    @given(pool=_pools(), data=st.data())
    def test_fuzz_matches_oracle(self, pool, data):
        m = data.draw(st.integers(1, len(pool) + 5))
        got = consensus_caption(pool, m=m)
        want = consensus_oracle(pool, m, 4)
        assert got == want
        assert struct.pack("<d", got[1]) == struct.pack("<d", want[1])

    def test_realistic_pool_bit_exact(self):
        rng = Random(31)
        vocab = "a man woman dog cat is on the with sitting riding red ball".split()
        pool = [
            tuple(rng.choice(vocab) for _ in range(rng.choice((7, 8)))) for _ in range(200)
        ]
        got = consensus_caption(pool, m=125)
        want = consensus_oracle(pool, 125, 4)
        assert got[0] == want[0]
        assert struct.pack("<d", got[1]) == struct.pack("<d", want[1])


class TestRetrieveCaptions:
    def _setup(self):
        rng = np.random.default_rng(41)
        ids = list(range(1, 21))
        index = FeatureIndex(ids, rng.standard_normal((20, 6)))
        vocab = ["a", "dog", "cat", "runs", "sits", "red"]
        captions = {
            i: [tuple(vocab[j] for j in rng.integers(0, 6, size=5)) for _ in range(3)]
            for i in ids
        }
        queries = [(100 + q, rng.standard_normal(6)) for q in range(4)]
        return index, captions, queries

    def test_matches_per_query_functions(self):
        index, captions, queries = self._setup()
        got = retrieve_captions(index, captions, queries, rng_seed=9, k=5, m=7)
        for image_id, query in queries:
            assert got["consensus"][image_id] == consensus_for_query(
                index, captions, query, k=5, m=7
            )[0]
            assert got["onenn"][image_id] == one_nn_caption(
                index, captions, query, rng_seed=9 + image_id
            )

    def test_one_search_per_query(self, monkeypatch):
        index, captions, queries = self._setup()
        depths = []

        def counting_nearest(index, query, k):
            depths.append(k)
            return nearest(index, query, k)

        monkeypatch.setattr(knn, "nearest", counting_nearest)
        retrieve_captions(index, captions, queries, rng_seed=0, k=5, m=7)
        retrieve_captions(index, captions, queries, rng_seed=0, k=5, m=7, modes=("onenn",))
        assert depths == [5] * len(queries) + [1] * len(queries)
