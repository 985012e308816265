import numpy as np
import pytest

from capkit.analysis import (
    BIN_LEAST,
    BIN_MIDDLE,
    BIN_MOST,
    binned_bleu,
    caption_strings,
    overlap_bins,
    repetition_stats,
    unit_index,
)
from capkit.corpus import FeatureStore
from capkit.errors import DimensionMismatch, EmptyIndex, MissingReferences, ZeroVector
from capkit.metrics import bleu_from_stats, bleu_stats


def store_from(vectors, start_id=100):
    dim = len(next(iter(vectors)))
    store = FeatureStore(dim)
    for i, vec in enumerate(vectors):
        store.add(start_id + i, np.asarray(vec, dtype=np.float32))
    return store


def index_from(vectors, start_id=100):
    return unit_index(store_from(vectors, start_id), "test")


def images_in(bins, name):
    return sorted(i for i, bin_name in bins.items() if bin_name == name)


class TestRepetitionStats:
    def test_hand_counts(self):
        generated = {1: ("a",), 2: ("a",), 3: ("b",)}
        report = repetition_stats(generated, caption_strings([("a",)]))
        assert report == {"total": 3, "unique": 2, "seen_in_training": 2,
                          "unique_fraction": pytest.approx(2 / 3),
                          "seen_in_training_fraction": pytest.approx(2 / 3)}

    def test_all_novel(self):
        generated = {1: ("x", "y"), 2: ("z",)}
        report = repetition_stats(generated, caption_strings([("a", "b")]))
        assert report["unique_fraction"] == 1.0
        assert report["seen_in_training_fraction"] == 0.0

    def test_relabeling_invariance(self):
        caps = {1: ("a", "b"), 2: ("a", "b"), 3: ("c",)}
        relabeled = {10: ("a", "b"), 99: ("a", "b"), 42: ("c",)}
        training = caption_strings([("a", "b")])
        assert repetition_stats(caps, training) == repetition_stats(relabeled, training)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            repetition_stats({}, caption_strings([]))


class TestOverlapBins:
    def test_identical_vector_is_most_overlapping(self):
        train = index_from([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], start_id=1)
        # remaining test vectors are nearly orthogonal to every training vector
        test = index_from(
            [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.1, 0.0, 0.99],
             [0.0, 0.05, 0.9], [0.05, 0.05, 0.95]],
            start_id=50,
        )
        bins = overlap_bins(test, train, top_k=2, tail_fraction=0.2)
        # the exact duplicate of a training vector is the one most overlapping image
        assert images_in(bins, BIN_MOST) == [50]

    def test_tail_sizes_floor(self):
        rng = np.random.default_rng(0)
        train = index_from(rng.standard_normal((10, 4)), start_id=0)
        test = index_from(rng.standard_normal((5, 4)), start_id=100)
        bins = overlap_bins(test, train, top_k=3, tail_fraction=0.2)
        assert sorted(bins) == list(range(100, 105))
        assert len(images_in(bins, BIN_LEAST)) == 1
        assert len(images_in(bins, BIN_MOST)) == 1
        assert len(images_in(bins, BIN_MIDDLE)) == 3

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(4)
        train_vecs = rng.standard_normal((12, 5))
        test_vecs = rng.standard_normal((30, 5))
        train = index_from(train_vecs, start_id=0)
        test = index_from(test_vecs, start_id=1000)
        top_k = 4
        bins = overlap_bins(test, train, top_k=top_k, tail_fraction=0.2)
        means = {}
        for i, vec in enumerate(test_vecs):
            sims = sorted(
                float(vec @ t / (np.linalg.norm(vec) * np.linalg.norm(t)))
                for t in train_vecs
            )[-top_k:]
            means[1000 + i] = sum(sims) / top_k
        order = sorted(means, key=lambda i: (means[i], i))
        n_tail = int(len(order) * 0.2)
        for image_id in order[:n_tail]:
            assert bins[image_id] == BIN_LEAST
        for image_id in order[-n_tail:]:
            assert bins[image_id] == BIN_MOST
        for image_id in order[n_tail:-n_tail]:
            assert bins[image_id] == BIN_MIDDLE

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        vecs = rng.standard_normal((8, 4))
        train = index_from(vecs, start_id=0)
        test_vecs = rng.standard_normal((6, 4))
        test_a = index_from(test_vecs, start_id=100)
        scaled = test_vecs.copy()
        scaled[2] *= 4.0  # power of two keeps normalization bit-exact
        test_b = index_from(scaled, start_id=100)
        bins_a = overlap_bins(test_a, train, top_k=3, tail_fraction=0.2)
        bins_b = overlap_bins(test_b, train, top_k=3, tail_fraction=0.2)
        assert bins_a == bins_b

    def test_top_k_capped_at_train_size(self):
        rng = np.random.default_rng(8)
        train = index_from(rng.standard_normal((3, 4)), start_id=0)
        test = index_from(rng.standard_normal((5, 4)), start_id=100)
        assert (overlap_bins(test, train, top_k=50, tail_fraction=0.2)
                == overlap_bins(test, train, top_k=3, tail_fraction=0.2))

    def test_dim_mismatch(self):
        train = index_from([[1.0, 0.0]], start_id=0)
        test = index_from([[1.0, 0.0, 0.0]], start_id=10)
        with pytest.raises(DimensionMismatch):
            overlap_bins(test, train, top_k=50, tail_fraction=0.2)

    def test_empty_train_index(self):
        train = unit_index(FeatureStore(2), "train")
        test = index_from([[1.0, 0.0], [0.0, 1.0]], start_id=10)
        with pytest.raises(EmptyIndex):
            overlap_bins(test, train, top_k=50, tail_fraction=0.2)

    def test_zero_vector_names_its_side(self):
        zero = store_from([[1.0, 1.0], [0.0, 0.0]], start_id=10)
        with pytest.raises(ZeroVector, match="^test image 11 "):
            unit_index(zero, "test")
        with pytest.raises(ZeroVector, match="^train image 11 "):
            unit_index(zero, "train")
        assert unit_index(zero, "train", [10]).ids.tolist() == [10]


class TestBinnedBleu:
    def _bins(self, ids):
        third = len(ids) // 3
        bin_of = {}
        for pos, image_id in enumerate(sorted(ids)):
            bin_of[image_id] = (
                BIN_LEAST if pos < third else BIN_MOST if pos >= 2 * third else BIN_MIDDLE
            )
        return bin_of

    def test_perfect_captions_everywhere(self):
        ids = list(range(9))
        generated = {i: ("a", "cat", "sat") for i in ids}
        refs = {i: [("a", "cat", "sat")] for i in ids}
        scores = binned_bleu(generated, refs, self._bins(ids))
        assert set(scores) == {BIN_LEAST, BIN_MIDDLE, BIN_MOST}
        for value in scores.values():
            assert value == pytest.approx(100.0)

    def test_bin_stats_sum_to_whole(self):
        rng = np.random.default_rng(3)
        vocab = ["a", "b", "c", "d"]
        ids = list(range(12))
        generated, refs = {}, {}
        for i in ids:
            ref = [vocab[j] for j in rng.integers(0, 4, size=6)]
            hyp = list(ref)
            hyp[rng.integers(0, 6)] = vocab[rng.integers(0, 4)]
            generated[i] = tuple(hyp)
            refs[i] = [ref]
        bins = self._bins(ids)
        by_bin: dict = {}
        for i in ids:
            by_bin.setdefault(bins[i], np.zeros(10, dtype=np.int64))
            by_bin[bins[i]] += bleu_stats(generated[i], refs[i])
        whole = sum((bleu_stats(generated[i], refs[i]) for i in ids), np.zeros(10, dtype=np.int64))
        total = np.zeros(10, dtype=np.int64)
        for stats in by_bin.values():
            total += stats
        np.testing.assert_array_equal(total, whole)
        assert binned_bleu(generated, refs, bins) == {
            name: bleu_from_stats(stats) for name, stats in by_bin.items()
        }

    def test_missing_reference(self):
        ids = [1, 2, 3]
        generated = {i: ("a",) for i in ids}
        refs = {1: [("a",)], 2: [("a",)]}
        with pytest.raises(MissingReferences):
            binned_bleu(generated, refs, self._bins(ids))

    def test_missing_bin(self):
        generated = {1: ("a",)}
        refs = {1: [("a",)]}
        with pytest.raises(MissingReferences):
            binned_bleu(generated, refs, {})
