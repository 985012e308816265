import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capkit.corpus import (
    END_TOKEN,
    START_ID,
    CaptionRecord,
    Vocabulary,
    build_vocabulary,
)
from capkit._binio import pack_str_list
from capkit.decoding import MaxEntScorer, sequence_logprob
from capkit.errors import DegenerateCorpus, MalformedInput
from capkit.maxent import (
    END_DONE,
    END_PENDING,
    HIT,
    MISS,
    MaxEntLM,
    MaxEntTrainConfig,
    load_maxent,
    save_maxent,
    train_maxent,
)

from conftest import maxent_gradient_error, randomize_maxent_event

def _train(pairs, config):
    """``train_maxent`` over the vocabulary of the pairs' captions."""
    return train_maxent(pairs, config, build_vocabulary([rec.tokens for rec, _ in pairs], 1))


def _all_weights(lm):
    """Every stored weight: unigram, coverage, then bigram and trigram rows."""
    rows = [lm.unigram, lm.coverage, *lm.bigram.values(), *lm.trigram.values()]
    return np.concatenate(rows)


def _random_lm(seed=0):
    """A model over a few words with random rows for the contexts (a,) and
    (<start>, a), and random coverage scalars."""
    lm = MaxEntLM(Vocabulary(["a", "cat", "dog", "sat"]), l2=0.0)
    rng = np.random.default_rng(seed)
    a = lm.vocabulary.lookup("a")
    width = len(lm.unigram)
    lm.unigram[:] = rng.standard_normal(width)
    lm.bigram[a] = rng.standard_normal(width)
    lm.trigram[(START_ID, a)] = rng.standard_normal(width)
    lm.coverage[:] = rng.standard_normal(4)
    return lm


def _scores(lm, history, remaining):
    return lm._scores(*lm._condition(history, remaining))


class TestExtractFeatures:
    """Which template terms a candidate's dense score reads."""

    def _ngram_part(self, lm):
        a = lm.vocabulary.lookup("a")
        return lm.unigram + lm.bigram[a] + lm.trigram[(START_ID, a)]

    def test_coverage_indicator_flips(self):
        lm = _random_lm()
        cat = lm.candidate_tokens().index("cat")
        hit = _scores(lm, ("a",), frozenset({"cat"}))
        miss = _scores(lm, ("a",), frozenset())
        ngram = self._ngram_part(lm)
        # only the coverage term of "cat" differs
        assert hit[cat] == ngram[cat] + lm.coverage[HIT]
        assert miss[cat] == ngram[cat] + lm.coverage[MISS]
        assert hit[cat] != miss[cat]
        others = np.arange(1, len(hit)) != cat
        assert np.array_equal(hit[1:][others], miss[1:][others])

    def test_removing_unrelated_word_changes_nothing(self):
        lm = _random_lm()
        dog = lm.candidate_tokens().index("dog")
        a = _scores(lm, ("a",), frozenset({"cat", "dog"}))
        b = _scores(lm, ("a",), frozenset({"cat"}))
        # "dog" is read only by its own coverage term
        assert np.array_equal(np.delete(a, dog), np.delete(b, dog))
        assert a[dog] == self._ngram_part(lm)[dog] + lm.coverage[HIT]

    def test_end_indicator_tracks_remaining(self):
        lm = _random_lm()
        done = _scores(lm, ("a",), frozenset())
        pending = _scores(lm, ("a",), frozenset({"dog"}))
        ngram = self._ngram_part(lm)
        assert done[0] == ngram[0] + lm.coverage[END_DONE]
        assert pending[0] == ngram[0] + lm.coverage[END_PENDING]
        assert done[0] != pending[0]

    def test_unseen_context_reads_zeros(self):
        lm = _random_lm()
        scores = _scores(lm, ("dog", "sat"), frozenset())
        expected = lm.unigram + np.where(
            np.arange(len(lm.unigram)) == 0, lm.coverage[END_DONE], lm.coverage[MISS]
        )
        assert np.array_equal(scores, expected)


def _toy_records(n=500):
    return [CaptionRecord(i, ("a", "b")) for i in range(n)]


def _dist(lm, history, remaining):
    """Next-token probabilities keyed by token."""
    return dict(zip(lm.candidate_tokens(), np.exp(lm.logprobs(history, remaining))))


class TestDistribution:
    def test_zero_weights_uniform(self):
        vocab = Vocabulary(["a", "b", "c"])
        lm = MaxEntLM(vocab, l2=0.0)
        dist = _dist(lm, [], frozenset())
        n = len(lm.candidate_tokens())
        assert n == 5  # a, b, c, UNK, END
        for prob in dist.values():
            assert prob == pytest.approx(1.0 / n)

    def test_normalization(self):
        records = _toy_records(50)
        lm = _train([(r, None) for r in records],
                    MaxEntTrainConfig(epochs=2, learning_rate=0.1, l2=1e-6, seed=0))
        for history in ([], ["a"], ["b", "a"]):
            total = sum(_dist(lm, history, frozenset()).values())
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_learns_bigram(self):
        lm = _train(
            [(r, None) for r in _toy_records()],
            MaxEntTrainConfig(epochs=5, learning_rate=0.2, l2=1e-6, seed=0),
        )
        assert _dist(lm, ["a"], frozenset())["b"] > 0.9

    def test_score_shift_invariance(self):
        vocab = Vocabulary(["a", "b"])
        lm = MaxEntLM(vocab, l2=0.0)
        rng = np.random.default_rng(0)
        randomize_maxent_event(lm, (), frozenset(), lambda: float(rng.standard_normal()))
        base = _dist(lm, [], frozenset())
        # bumping every unigram weight by the same constant shifts every
        # candidate's score equally
        lm.unigram += 7.5
        new = _dist(lm, [], frozenset())
        for tok in base:
            assert new[tok] == pytest.approx(base[tok], abs=1e-9)


class TestTraining:
    def test_loss_decreases(self):
        lm = _train(
            [(CaptionRecord(1, ("a", "b", "c")), None)],
            MaxEntTrainConfig(epochs=3, learning_rate=0.5, l2=0.0, seed=0),
        )
        assert lm.epoch_losses[1] < lm.epoch_losses[0]
        assert lm.epoch_losses[2] <= lm.epoch_losses[1]

    def test_huge_l2_flattens(self):
        # lr * l2 = 1 keeps the sparse decay stable while crushing weights
        records = _toy_records(30)
        lm = _train(
            [(r, None) for r in records],
            MaxEntTrainConfig(epochs=5, learning_rate=0.005, l2=200.0, seed=0),
        )
        assert np.abs(_all_weights(lm)).max() < 1e-2
        dist = _dist(lm, ["a"], frozenset())
        n = len(dist)
        for prob in dist.values():
            assert prob == pytest.approx(1.0 / n, abs=1e-2)

    def test_seeded_determinism(self):
        pairs = [(r, None) for r in _toy_records(40)]
        config = MaxEntTrainConfig(epochs=3, learning_rate=0.1, l2=1e-6, seed=11)
        lm1 = _train(pairs, config)
        lm2 = _train(pairs, config)
        assert lm1.bigram.keys() == lm2.bigram.keys()
        assert lm1.trigram.keys() == lm2.trigram.keys()
        assert np.array_equal(_all_weights(lm1), _all_weights(lm2))

    def test_empty_corpus(self):
        with pytest.raises(DegenerateCorpus):
            _train([], MaxEntTrainConfig(epochs=10, learning_rate=0.1, l2=1e-6, seed=0))

    def test_sequence_logprob_feeds_perplexity(self):
        import math

        from capkit.metrics import perplexity

        records = _toy_records(50)
        lm = _train([(r, None) for r in records],
                    MaxEntTrainConfig(epochs=2, learning_rate=0.1, l2=1e-6, seed=0))
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
        det = frozenset({"b"})
        records = [(CaptionRecord(i, ("a", "b")), det) for i in range(100)]
        lm = _train(records, MaxEntTrainConfig(epochs=4, learning_rate=0.3, l2=1e-6, seed=0))
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
            lm = MaxEntLM(vocab, l2=0.0)
            history = tuple(rng.choice(["cat", "dog", "the"], size=rng.integers(0, 3)))
            target = str(rng.choice(["cat", "dog", "sat", "the", END_TOKEN]))
            remaining = frozenset(
                str(w) for w in rng.choice(["cat", "dog"], size=rng.integers(0, 2))
            )
            condition, rows = randomize_maxent_event(
                lm, history, remaining, lambda: float(rng.standard_normal() * 0.5)
            )
            target_idx = lm.candidate_tokens().index(target)
            worst = max(worst, maxent_gradient_error(lm, condition, rows, target_idx, eps))
        assert worst < 1e-4


def _trained_with_detections():
    det = frozenset({"b"})
    return _train(
        [(r, det) for r in _toy_records(20)],
        MaxEntTrainConfig(epochs=2, learning_rate=0.1, l2=1e-6, seed=0),
    )


def _assert_same_rows(a, b):
    assert a.unigram.tobytes() == b.unigram.tobytes()
    assert a.coverage.tobytes() == b.coverage.tobytes()
    for rows_a, rows_b in ((a.bigram, b.bigram), (a.trigram, b.trigram)):
        assert rows_a.keys() == rows_b.keys()
        for context, row in rows_a.items():
            assert row.tobytes() == rows_b[context].tobytes()


@pytest.fixture(scope="module")
def melm_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("melm") / "m.melm"
    save_maxent(_trained_with_detections(), path)
    return path.read_bytes()


def _melm_v1(path):
    """The header of a version-1 model (hashed feature weights)."""
    path.write_bytes(b"MELM" + struct.pack("<Id", 1, 1e-6) + pack_str_list(["a"]))
    return path


class TestSerialization:
    def test_round_trip(self, tmp_path):
        lm = _trained_with_detections()
        assert len(lm.bigram) > 1 and len(lm.trigram) > 1
        assert np.all(lm.coverage != 0.0)
        path = tmp_path / "m.melm"
        save_maxent(lm, path)
        loaded = load_maxent(path)
        _assert_same_rows(loaded, lm)
        assert loaded.vocabulary.id_of == lm.vocabulary.id_of
        assert loaded.l2 == lm.l2
        # contexts are written sorted, whatever order training created them in
        again = tmp_path / "again.melm"
        save_maxent(loaded, again)
        assert again.read_bytes() == path.read_bytes()
        for history, remaining in (
            ([], frozenset({"b"})), (["a"], frozenset()), (["x", "y"], frozenset()),
        ):
            got = loaded.logprobs(history, remaining)
            assert got.tobytes() == lm.logprobs(history, remaining).tobytes()

    def test_loaded_weights_are_writeable_copies(self, tmp_path):
        path = tmp_path / "m.melm"
        save_maxent(_trained_with_detections(), path)
        loaded = load_maxent(path)
        assert all(arr.flags.writeable and arr.flags.owndata
                   for arr in (loaded.unigram, loaded.coverage))
        # each context block is one writeable array, and its rows view it
        for rows in (loaded.bigram, loaded.trigram):
            (block,) = {id(row.base): row.base for row in rows.values()}.values()
            assert block.flags.writeable and block.flags.owndata
        # a model without contexts has empty blocks, and saves to the same bytes
        empty = MaxEntLM(loaded.vocabulary, l2=0.0)
        save_maxent(empty, path)
        loaded = load_maxent(path)
        assert loaded.bigram == {} and loaded.trigram == {}
        again = tmp_path / "again.melm"
        save_maxent(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.melm"
        path.write_bytes(b"XXXX")
        with pytest.raises(MalformedInput):
            load_maxent(path)

    def test_version_1_rejected(self, tmp_path):
        with pytest.raises(MalformedInput, match="unsupported MELM version 1.*train-me"):
            load_maxent(_melm_v1(tmp_path / "m.melm"))

    def test_truncated(self, tmp_path):
        lm = MaxEntLM(build_vocabulary([rec.tokens for rec in _toy_records(5)], 1), l2=0.0)
        path = tmp_path / "m.melm"
        save_maxent(lm, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(MalformedInput):
            load_maxent(path)

    def test_rows_disagree_with_vocabulary(self, tmp_path):
        lm = _trained_with_detections()
        wider = MaxEntLM(Vocabulary([*lm.vocabulary.word_tokens(), "extra"]), l2=0.0)
        for name in ("unigram", "coverage", "bigram", "trigram"):
            setattr(wider, name, getattr(lm, name))
        path = tmp_path / "m.melm"
        save_maxent(wider, path)
        with pytest.raises(MalformedInput, match="disagree with the vocabulary"):
            load_maxent(path)

    def test_bad_contexts(self, tmp_path):
        lm = _trained_with_detections()
        path = tmp_path / "m.melm"
        save_maxent(lm, path)
        data = bytearray(path.read_bytes())
        width = len(lm.unigram)
        ids_at = 16 + len(pack_str_list(lm.vocabulary.word_tokens())) + 4 + 8 * (width + 4) + 8
        first, second = sorted(lm.bigram)[:2]
        for ids, message in (
            ((second, first), "not in ascending order"),
            ((first, first), "not in ascending order"),
            ((first, len(lm.vocabulary)), "out of vocabulary"),
        ):
            data[ids_at:ids_at + 8] = struct.pack("<II", *ids)
            path.write_bytes(bytes(data))
            with pytest.raises(MalformedInput, match=message):
                load_maxent(path)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestLoadFuzz:
    """A damaged model file either loads or raises an input error (exit 2),
    never anything else."""

    @settings(max_examples=300, deadline=None)
    @given(cut=st.integers(min_value=0), flips=st.lists(
        st.tuples(st.integers(min_value=0), st.integers(min_value=1, max_value=255)),
        max_size=4,
    ))
    def test_truncated_and_flipped(self, melm_bytes, fuzz_dir, cut, flips):
        data = bytearray(melm_bytes[: len(melm_bytes) - cut % len(melm_bytes)])
        for pos, mask in flips:
            if data:
                data[pos % len(data)] ^= mask
        path = fuzz_dir / "m.melm"
        path.write_bytes(bytes(data))
        try:
            lm = load_maxent(path)
        except MalformedInput:
            return
        lm.logprobs(["a"], frozenset({"b"}))
