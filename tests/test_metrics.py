import math

import numpy as np
import pytest

from capkit.metrics import (
    bleu_from_stats,
    bleu_stats,
    corpus_bleu,
    light_stem,
    meteor,
    perplexity,
)
from capkit.errors import (
    EmptyHypothesis,
    EmptyReferences,
    NonFiniteLogProb,
)


def random_corpus(rng, n_sentences, vocab=("a", "b", "c", "d", "e")):
    pairs = []
    for _ in range(n_sentences):
        ref = [vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(4, 9))]
        hyp = list(ref)
        for pos in rng.choice(len(hyp), size=rng.integers(0, 3), replace=False):
            hyp[pos] = vocab[rng.integers(0, len(vocab))]
        pairs.append((hyp, [ref]))
    return pairs


# a statistics row: 4 clipped matches, 4 n-gram totals, hypothesis length,
# closest reference length
ZERO_ROW = np.zeros(10, dtype=np.int64)


class TestBleuStats:
    def test_identical_hyp_ref(self):
        s = bleu_stats("a b c d e".split(), ["a b c d e".split()])
        assert s.dtype == np.int64 and s.shape == (10,)
        assert s[0:4].tolist() == s[4:8].tolist() == [5, 4, 3, 2]

    def test_clipping(self):
        s = bleu_stats("the the the the".split(), ["the cat".split()])
        assert s[0] == 1
        assert s[4] == 4

    def test_closest_ref_len(self):
        s = bleu_stats(["x"] * 5, [["a"] * 6, ["b"] * 7])
        assert s[9] == 6

    def test_closest_ref_len_tie_prefers_shorter(self):
        s = bleu_stats(["x"] * 5, [["a"] * 6, ["b"] * 4])
        assert s[9] == 4

    def test_empty_references(self):
        with pytest.raises(EmptyReferences):
            bleu_stats(["a"], [])


class TestBleuScore:
    def test_perfect_corpus(self):
        pairs = [("a cat".split(), ["a cat".split()]), (["dog"], [["dog"]])]
        assert corpus_bleu(pairs) == pytest.approx(100.0)

    def test_hand_case(self):
        hyp = "a cat on the mat".split()
        refs = ["a cat is on the mat".split(), "there is a cat on the mat".split()]
        assert bleu_from_stats(bleu_stats(hyp, refs)) == pytest.approx(81.87, abs=0.01)

    def test_zero_precision_zeroes_score(self):
        assert bleu_from_stats(bleu_stats(["z"], [["a"]])) == 0.0

    def test_empty_hypothesis(self):
        with pytest.raises(EmptyHypothesis):
            bleu_from_stats(ZERO_ROW)

    def test_additivity_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            part_a = random_corpus(rng, int(rng.integers(1, 5)))
            part_b = random_corpus(rng, int(rng.integers(1, 5)))
            stats_a = sum((bleu_stats(h, r) for h, r in part_a), ZERO_ROW)
            stats_b = sum((bleu_stats(h, r) for h, r in part_b), ZERO_ROW)
            whole = sum((bleu_stats(h, r) for h, r in part_a + part_b), ZERO_ROW)
            assert whole.dtype == np.int64
            np.testing.assert_array_equal(whole, stats_a + stats_b)
            assert bleu_from_stats(whole) == bleu_from_stats(stats_a + stats_b)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(19)
        pairs = random_corpus(rng, 8)
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        assert corpus_bleu(pairs) == pytest.approx(corpus_bleu(shuffled))

    def test_appending_junk_never_raises_precision(self):
        rng = np.random.default_rng(21)
        pairs = random_corpus(rng, 6)
        base = sum((bleu_stats(h, r) for h, r in pairs), ZERO_ROW)
        junked = sum(
            (bleu_stats(list(h) + ["zzz"], r) for h, r in pairs), ZERO_ROW
        )
        for n in range(4):
            p_base = base[n] / base[4 + n]
            p_junk = junked[n] / junked[4 + n]
            assert p_junk <= p_base + 1e-12


class TestMeteor:
    def test_identical_caption(self):
        cap = "a small dog".split()
        # gamma 0.5, beta 3: one chunk of three matches
        expected = 100.0 * (1.0 - 0.5 * (1.0 / len(cap)) ** 3.0)
        assert meteor(cap, [cap]) == pytest.approx(expected)

    def test_disjoint(self):
        assert meteor("a b".split(), ["c d".split()]) == 0.0

    def test_hand_case(self):
        got = meteor("the cat sat".split(), ["the cat ran".split()])
        assert got == pytest.approx(62.5, abs=0.1)

    def test_reference_order_invariance(self):
        refs = ["the cat ran".split(), "a dog sat down".split(), "the mat".split()]
        hyp = "the cat sat".split()
        assert meteor(hyp, refs) == meteor(hyp, refs[::-1])

    def test_stem_match(self):
        assert meteor(["cats"], [["cat"]]) > 0.0

    def test_empty_references(self):
        with pytest.raises(EmptyReferences):
            meteor(["a"], [])

    def test_light_stem(self):
        assert light_stem("cats") == "cat"
        assert light_stem("running") == "runn"
        assert light_stem("glass") == "glass"


class TestPerplexity:
    def test_uniform_model(self):
        vocab_size = 37
        fn = lambda cap: (-len(cap) * math.log(vocab_size), len(cap))
        corpus = [["w"] * 4, ["w"] * 7]
        assert perplexity(fn, corpus) == pytest.approx(vocab_size, abs=1e-9)

    def test_certain_model(self):
        fn = lambda cap: (0.0, len(cap))
        assert perplexity(fn, [["a", "b"]]) == pytest.approx(1.0)

    def test_hand_case(self):
        fn = lambda cap: (math.log(0.5) + math.log(0.25), 2)
        assert perplexity(fn, [["x", "y"]]) == pytest.approx(math.sqrt(8))

    def test_order_invariance(self):
        fn = lambda cap: (-0.3 * len(cap), len(cap))
        corpus = [["a"], ["b", "b"], ["c"] * 3]
        assert perplexity(fn, corpus) == perplexity(fn, corpus[::-1])

    def test_non_finite(self):
        with pytest.raises(NonFiniteLogProb):
            perplexity(lambda cap: (float("-inf"), 1), [["a"]])
