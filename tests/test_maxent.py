import numpy as np
import pytest

from capkit.corpus import CaptionRecord, DetectionSet, Vocabulary, build_vocabulary, END_TOKEN
from capkit.decoding import MaxEntScorer, sequence_logprob
from capkit.errors import DegenerateCorpus, MalformedInput
from capkit.maxent import (
    MaxEntLM,
    MaxEntTrainConfig,
    _event_nll_and_grad,
    extract_features,
    load_maxent,
    save_maxent,
    train_maxent,
)

# ids frozen from the stable 64-bit feature hash; they must never change
GOLDEN_FEATURES = {
    (("a", "black"), "cat", frozenset({"cat", "dog"})): (
        10195039588888383636,
        7281759446009437530,
        15742252250521272737,
        6607044028687475995,
    ),
    ((), "a", frozenset()): (
        16823494885137830572,
        6505807567490515966,
        13350433288851357652,
        11475394142901820444,
    ),
    (("a", "cat"), END_TOKEN, frozenset({"dog"})): (
        1346905262544910823,
        10994893959031921237,
        17295751356913996443,
        9138491122303426888,
    ),
}


class TestExtractFeatures:
    def test_golden_ids(self):
        for (history, cand, remaining), expected in GOLDEN_FEATURES.items():
            assert extract_features(history, cand, remaining) == expected

    def test_coverage_indicator_flips(self):
        hit = set(extract_features(("a",), "cat", frozenset({"cat"})))
        miss = set(extract_features(("a",), "cat", frozenset()))
        # only the coverage indicator differs
        assert len(hit ^ miss) == 2
        assert hit & miss == set(extract_features(("a",), "cat", frozenset({"cat"}))[:3])

    def test_removing_unrelated_word_changes_nothing(self):
        a = extract_features(("a",), "cat", frozenset({"cat", "dog"}))
        b = extract_features(("a",), "cat", frozenset({"cat"}))
        assert a == b  # "dog" is not referenced by any template for this candidate

    def test_end_indicator_tracks_remaining(self):
        done = extract_features(("a",), END_TOKEN, frozenset())
        pending = extract_features(("a",), END_TOKEN, frozenset({"dog"}))
        assert done[:3] == pending[:3]
        assert done[3] != pending[3]


def _toy_records(n=500):
    return [CaptionRecord.from_text(i, "a b") for i in range(n)]


def _dist(lm, history, remaining):
    """Next-token probabilities keyed by token."""
    return dict(zip(lm.candidate_tokens(), np.exp(lm.logprobs(history, remaining))))


class TestDistribution:
    def test_zero_weights_uniform(self):
        vocab = Vocabulary(["a", "b", "c"])
        lm = MaxEntLM(vocab)
        dist = _dist(lm, [], frozenset())
        n = len(lm.candidate_tokens())
        assert n == 5  # a, b, c, UNK, END
        for prob in dist.values():
            assert prob == pytest.approx(1.0 / n)

    def test_normalization(self):
        records = _toy_records(50)
        lm = train_maxent([(r, None) for r in records], MaxEntTrainConfig(epochs=2))
        for history in ([], ["a"], ["b", "a"]):
            total = sum(_dist(lm, history, frozenset()).values())
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_learns_bigram(self):
        lm = train_maxent(
            [(r, None) for r in _toy_records()],
            MaxEntTrainConfig(epochs=5, learning_rate=0.2, seed=0),
        )
        assert _dist(lm, ["a"], frozenset())["b"] > 0.9

    def test_score_shift_invariance(self):
        vocab = Vocabulary(["a", "b"])
        lm = MaxEntLM(vocab)
        rng = np.random.default_rng(0)
        for cand in lm.candidate_tokens():
            for f in extract_features((), cand, frozenset()):
                lm.weights[f] = float(rng.standard_normal())
        base = _dist(lm, [], frozenset())
        # the unigram feature is distinct per candidate, so bumping each one by
        # the same constant shifts every candidate's score equally
        shifted = MaxEntLM(vocab, weights=dict(lm.weights))
        for cand in lm.candidate_tokens():
            f_unigram = extract_features((), cand, frozenset())[0]
            shifted.weights[f_unigram] = shifted.weights.get(f_unigram, 0.0) + 7.5
        new = _dist(shifted, [], frozenset())
        for tok in base:
            assert new[tok] == pytest.approx(base[tok], abs=1e-9)


class TestTraining:
    def test_loss_decreases(self):
        lm = train_maxent(
            [(CaptionRecord.from_text(1, "a b c"), None)],
            MaxEntTrainConfig(epochs=3, learning_rate=0.5, l2=0.0),
        )
        assert lm.epoch_losses[1] < lm.epoch_losses[0]
        assert lm.epoch_losses[2] <= lm.epoch_losses[1]

    def test_huge_l2_flattens(self):
        # lr * l2 = 1 keeps the sparse decay stable while crushing weights
        records = _toy_records(30)
        lm = train_maxent(
            [(r, None) for r in records],
            MaxEntTrainConfig(epochs=5, learning_rate=0.005, l2=200.0),
        )
        assert max(abs(w) for w in lm.weights.values()) < 1e-2
        dist = _dist(lm, ["a"], frozenset())
        n = len(dist)
        for prob in dist.values():
            assert prob == pytest.approx(1.0 / n, abs=1e-2)

    def test_seeded_determinism(self):
        pairs = [(r, None) for r in _toy_records(40)]
        lm1 = train_maxent(pairs, MaxEntTrainConfig(epochs=3, seed=11))
        lm2 = train_maxent(pairs, MaxEntTrainConfig(epochs=3, seed=11))
        assert lm1.weights == lm2.weights

    def test_empty_corpus(self):
        with pytest.raises(DegenerateCorpus):
            train_maxent([], MaxEntTrainConfig())

    def test_sequence_logprob_feeds_perplexity(self):
        import math

        from capkit.metrics import perplexity

        records = _toy_records(50)
        lm = train_maxent([(r, None) for r in records], MaxEntTrainConfig(epochs=2))
        scorer = MaxEntScorer(lm)
        logprob = sequence_logprob(scorer, None, ["a", "b"])
        # matches an explicit chain over the next-token distributions, END included
        chain = (
            math.log(_dist(lm, [], frozenset())["a"])
            + math.log(_dist(lm, ["a"], frozenset())["b"])
            + math.log(_dist(lm, ["a", "b"], frozenset())[END_TOKEN])
        )
        assert logprob == pytest.approx(chain, abs=1e-9)
        pplx = perplexity(
            lambda cap: (sequence_logprob(scorer, None, cap), len(cap) + 1), [["a", "b"]] * 3
        )
        assert pplx == pytest.approx(math.exp(-logprob / 3))

    def test_coverage_features_used(self):
        det = DetectionSet.from_scored_words(1, [("b", 0.9)], 0.5)
        records = [(CaptionRecord.from_text(i, "a b"), det) for i in range(100)]
        lm = train_maxent(records, MaxEntTrainConfig(epochs=4, learning_rate=0.3))
        # with "b" still uncovered, ending is penalized relative to covered state
        p_end_pending = _dist(lm, ["a"], frozenset({"b"}))[END_TOKEN]
        p_end_done = _dist(lm, ["a", "b"], frozenset())[END_TOKEN]
        assert p_end_done > p_end_pending


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        vocab = Vocabulary(["cat", "dog", "sat", "the"])
        eps = 1e-5
        worst = 0.0
        for _ in range(20):
            lm = MaxEntLM(vocab)
            history = tuple(rng.choice(["cat", "dog", "the"], size=rng.integers(0, 3)))
            target = str(rng.choice(["cat", "dog", "sat", "the", END_TOKEN]))
            remaining = frozenset(
                str(w) for w in rng.choice(["cat", "dog"], size=rng.integers(0, 2))
            )
            for cand in lm.candidate_tokens():
                for f in extract_features(history, cand, remaining):
                    lm.weights[f] = float(rng.standard_normal() * 0.5)
            _, grad = _event_nll_and_grad(lm, history, target, remaining)
            for f, g in grad.items():
                orig = lm.weights.get(f, 0.0)
                lm.weights[f] = orig + eps
                up, _ = _event_nll_and_grad(lm, history, target, remaining)
                lm.weights[f] = orig - eps
                down, _ = _event_nll_and_grad(lm, history, target, remaining)
                lm.weights[f] = orig
                numeric = (up - down) / (2 * eps)
                worst = max(worst, abs(g - numeric) / max(abs(g), abs(numeric), 1e-6))
        assert worst < 1e-4


class TestSerialization:
    def test_round_trip(self, tmp_path):
        lm = train_maxent(
            [(r, None) for r in _toy_records(20)], MaxEntTrainConfig(epochs=2)
        )
        path = tmp_path / "m.melm"
        save_maxent(lm, path)
        loaded = load_maxent(path)
        assert loaded.weights == lm.weights
        assert loaded.vocabulary.id_of == lm.vocabulary.id_of
        assert loaded.l2 == lm.l2

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.melm"
        path.write_bytes(b"XXXX")
        with pytest.raises(MalformedInput):
            load_maxent(path)

    def test_truncated(self, tmp_path):
        lm = MaxEntLM(build_vocabulary(_toy_records(5), 1))
        path = tmp_path / "m.melm"
        save_maxent(lm, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(MalformedInput):
            load_maxent(path)
