import itertools

import numpy as np
import pytest

from capkit.corpus import CaptionRecord, END_TOKEN, Vocabulary
from capkit.decoding import (
    MaxEntScorer,
    RecurrentScorer,
    beam_search,
    coverage_beam_search,
    rescore_logprob,
    sequence_logprob,
)
from capkit.errors import DimensionMismatch, InputDataError, NonFiniteLogProb, ToolkitError
from capkit.maxent import (
    END_PENDING,
    MaxEntLM,
    MaxEntTrainConfig,
    _event_nll_and_grad,
    _training_events,
    train_maxent,
)
from capkit.recurrent import (
    MODE_COVERAGE_AUX,
    MODE_IMAGE_INITIAL,
    RecurrentConfig,
    RecurrentLM,
    RnnTrainConfig,
    forward,
    train,
)

from conftest import TableScorer


def exhaustive_best(scorer, max_len):
    """Enumerate every END-terminated sequence up to max_len tokens."""
    vocab = [c for c in scorer.candidates if c != END_TOKEN]
    index_of = {c: i for i, c in enumerate(scorer.candidates)}
    best = None
    for length in range(max_len):
        for words in itertools.product(vocab, repeat=length):
            logprob, history = 0.0, ()
            for tok in list(words) + [END_TOKEN]:
                logprob += scorer.row(history)[index_of[tok]]
                history = history + (tok,)
            key = tuple(index_of[t] for t in list(words) + [END_TOKEN])
            if best is None or (-logprob, key) < (-best[0], best[1]):
                best = (logprob, key, words)
    return best


class TestBeamSearch:
    def test_matches_exhaustive_with_huge_beam(self):
        for seed in range(20):
            scorer = TableScorer(["a", "b"], seed)
            result = beam_search(scorer, None, beam_size=27, max_len=3, n_best=3)
            logprob, _, words = exhaustive_best(scorer, 3)
            assert result.complete
            assert result.hypotheses[0].tokens == words
            assert result.hypotheses[0].features["logprob"] == pytest.approx(logprob, abs=1e-12)

    def test_beam_one_is_greedy(self):
        for seed in range(30):
            scorer = TableScorer(["a", "b", "c"], seed)
            result = beam_search(scorer, None, beam_size=1, max_len=6, n_best=1)
            history, logprob = (), 0.0
            ended = False
            for _ in range(6):
                row = scorer.row(history)
                ci = int(np.argmax(row))
                logprob += row[ci]
                if scorer.candidates[ci] == END_TOKEN:
                    ended = True
                    break
                history = history + (scorer.candidates[ci],)
            if ended:
                assert result.complete
                assert result.hypotheses[0].tokens == history
                assert result.hypotheses[0].features["logprob"] == pytest.approx(logprob, abs=1e-12)
            else:
                assert not result.complete

    def test_default_beam_size_is_ten(self):
        from capkit.pipeline import DEFAULT_HYPERPARAMETERS, decode_options

        # beam_search has no default; the pipeline's table supplies it
        assert decode_options(DEFAULT_HYPERPARAMETERS, coverage=False)["beam_size"] == 10

    def test_scores_rescore_consistently(self):
        # every returned log-prob equals the sum of its per-step log-probs
        for seed in (3, 4):
            scorer = TableScorer(["a", "b", "c"], seed)
            result = beam_search(scorer, None, beam_size=4, max_len=5, n_best=10)
            index_of = {c: i for i, c in enumerate(scorer.candidates)}
            for hyp in result.hypotheses:
                total, history = 0.0, ()
                for tok in [*hyp.tokens, END_TOKEN]:
                    total += scorer.row(history)[index_of[tok]]
                    history = history + (tok,)
                assert abs(total - hyp.features["logprob"]) < 1e-9

    def test_monotone_in_beam_size(self):
        for seed in range(40, 70):
            scorer = TableScorer(["a", "b", "c", "d"], seed)
            best = -np.inf
            for beam in (1, 2, 4, 8, 16):
                result = beam_search(scorer, None, beam_size=beam, max_len=5, n_best=1)
                if not result.complete:
                    continue
                top = result.hypotheses[0].features["logprob"]
                assert top >= best - 1e-12
                best = max(best, top)

    def test_feature_row_schema(self):
        scorer = TableScorer(["a", "b"], 0)
        result = beam_search(scorer, None, beam_size=3, max_len=4, n_best=5)
        for hyp in result.hypotheses:
            assert set(hyp.features) == {"logprob", "length"}
            assert hyp.features["length"] == len(hyp.tokens)

    def test_invalid_args(self):
        scorer = TableScorer(["a"], 0)
        with pytest.raises(ValueError):
            beam_search(scorer, None, beam_size=0, max_len=16, n_best=1)
        with pytest.raises(ValueError):
            beam_search(scorer, None, beam_size=10, max_len=0, n_best=1)


class BrokenRowScorer(TableScorer):
    """Returns ``broken(row)`` in place of the row at history ``at``."""

    def __init__(self, vocab, seed, at, broken):
        super().__init__(vocab, seed)
        self._at, self._broken = at, broken

    def logprobs(self, state, remaining):
        row, successor = super().logprobs(state, remaining)
        return (self._broken(row) if state == self._at else row), successor


class TestScorerRowsChecked:
    """Rows are split back into (hypothesis, candidate) by their width, so a
    row of the wrong length or with a NaN is a violated invariant (exit 1)."""

    @pytest.mark.parametrize("broken", [
        lambda row: row[:-1],
        lambda row: np.append(row, -1.0),
        lambda row: row[:1],
        lambda row: np.stack([row, row]),
    ])
    @pytest.mark.parametrize("at", [(), ("a",)])
    def test_wrong_width_raises(self, broken, at):
        scorer = BrokenRowScorer(["a", "b"], 0, at, broken)
        with pytest.raises(DimensionMismatch):
            beam_search(scorer, None, beam_size=3, max_len=4, n_best=3)
        detections = frozenset({"a"})
        with pytest.raises(DimensionMismatch):
            coverage_beam_search(scorer, detections, beam_size=3, max_len=4, n_best=3,
                                 min_coverage=1)

    @pytest.mark.parametrize("ci", [0, 2])
    def test_nan_raises(self, ci):
        def broken(row):
            row = row.copy()
            row[ci] = np.nan
            return row

        scorer = BrokenRowScorer(["a", "b"], 0, ("a",), broken)
        with pytest.raises(NonFiniteLogProb):
            beam_search(scorer, None, beam_size=3, max_len=4, n_best=3)

    def test_both_are_exit_one_errors(self):
        for error in (DimensionMismatch, NonFiniteLogProb):
            assert issubclass(error, ToolkitError)
            assert not issubclass(error, InputDataError)


class CoverageAwareScorer(TableScorer):
    """Boosts tokens still in the remaining set so coverage decoding has signal."""

    def logprobs(self, state, remaining):
        row, successor = super().logprobs(state, remaining)
        row = row.copy()
        if remaining:
            for i, tok in enumerate(self.candidates):
                if tok in remaining:
                    row[i] += 1.0
        return row, successor


class TestCoverageBeamSearch:
    def _detections(self, words):
        return frozenset(words)

    def test_min_coverage_zero_reduces_to_plain(self):
        for seed in range(10):
            scorer = TableScorer(["a", "b", "c"], seed)
            plain = beam_search(scorer, None, beam_size=4, max_len=5, n_best=6)
            covered = coverage_beam_search(
                scorer, self._detections(["a", "b"]), beam_size=4, max_len=5,
                n_best=6, min_coverage=0,
            )
            assert [h.tokens for h in covered.hypotheses] == [h.tokens for h in plain.hypotheses]
            assert ([h.features["logprob"] for h in covered.hypotheses]
                    == [h.features["logprob"] for h in plain.hypotheses])

    def test_single_detection_always_mentioned(self):
        for seed in range(15):
            scorer = CoverageAwareScorer(["cat", "a", "b"], seed)
            result = coverage_beam_search(
                scorer, self._detections(["cat"]), beam_size=4, max_len=6,
                n_best=8, min_coverage=1,
            )
            if result.complete:
                for hyp in result.hypotheses:
                    assert "cat" in hyp.tokens

    def test_full_coverage_mentions_every_word(self):
        detections = self._detections(["cat", "dog"])
        for seed in range(15):
            scorer = CoverageAwareScorer(["cat", "dog", "a"], seed)
            result = coverage_beam_search(
                scorer, detections, beam_size=6, max_len=8, n_best=8,
                min_coverage=len(detections),
            )
            if result.complete:
                for hyp in result.hypotheses:
                    assert {"cat", "dog"} <= set(hyp.tokens)
                    assert hyp.features["covered"] == 2.0

    def test_covered_counts_match_tokens(self):
        detections = self._detections(["cat", "dog"])
        scorer = CoverageAwareScorer(["cat", "dog", "a"], 3)
        result = coverage_beam_search(
            scorer, detections, beam_size=5, max_len=7, n_best=10, min_coverage=0
        )
        for hyp in result.hypotheses:
            assert hyp.features["covered"] == len({"cat", "dog"} & set(hyp.tokens))

    def test_unreachable_coverage_flags_partials(self):
        detections = self._detections(["a", "b"])  # two words need three steps with END
        scorer = TableScorer(["a", "b"], 0)
        result = coverage_beam_search(
            scorer, detections, beam_size=3, max_len=2, n_best=4, min_coverage=2
        )
        assert not result.complete
        assert result.hypotheses  # best-effort partials

    def test_word_the_model_cannot_emit_is_ignored(self):
        # "zebra" is not a candidate, so no hypothesis can ever cover it
        for seed in range(10):
            scorer = CoverageAwareScorer(["cat", "dog", "a"], seed)
            with_zebra = self._detections(["cat", "dog", "zebra"])
            got = coverage_beam_search(scorer, with_zebra, beam_size=6, max_len=8,
                                       n_best=8, min_coverage=None)
            want = coverage_beam_search(scorer, self._detections(["cat", "dog"]),
                                        beam_size=6, max_len=8, n_best=8, min_coverage=None)
            assert want.complete
            assert got == want
            for hyp in got.hypotheses:
                assert sequence_logprob(scorer, with_zebra, hyp.tokens) == hyp.features["logprob"]

    def test_min_coverage_above_detections_rejected(self):
        from capkit.errors import ToolkitError

        scorer = TableScorer(["a"], 0)
        with pytest.raises(ToolkitError):
            coverage_beam_search(
                scorer, self._detections(["a"]), beam_size=10, max_len=16, n_best=500,
                min_coverage=2,
            )

    def test_min_coverage_above_coverable_words_rejected(self):
        # "zebra" is detected but can never be covered, so 4 words are out of reach
        scorer = CoverageAwareScorer(["cat", "dog", "a"], 0)
        detections = self._detections(["cat", "dog", "a", "zebra"])
        with pytest.raises(InputDataError, match="^image 7: min_coverage 4 exceeds "
                                                  "detection count 3$"):
            coverage_beam_search(scorer, detections, beam_size=4, max_len=8, n_best=4,
                                 min_coverage=4, image_id=7)
        assert coverage_beam_search(scorer, detections, beam_size=4, max_len=8, n_best=4,
                                    min_coverage=3).complete


class TestModelScorers:
    def test_maxent_scorer_round_trip(self):
        vocab = Vocabulary(["a", "b"])
        lm = MaxEntLM(vocab, l2=0.0)
        scorer = MaxEntScorer(lm)
        result = beam_search(scorer, None, beam_size=2, max_len=3, n_best=2)
        assert result.hypotheses

    @pytest.mark.parametrize(
        "mode", [MODE_IMAGE_INITIAL, MODE_COVERAGE_AUX]
    )
    def test_recurrent_scorer_agrees_with_forward(self, mode):
        from capkit.recurrent import forward

        vocab = Vocabulary(["a", "b", "c"])
        config = RecurrentConfig(
            mode=mode, embed_dim=3, hidden_dim=4,
            feature_dim=5 if mode == MODE_IMAGE_INITIAL else None, seed=21,
        )
        lm = RecurrentLM(vocab, config)
        scorer = RecurrentScorer(lm)
        if mode == MODE_IMAGE_INITIAL:
            conditioning = np.linspace(-1, 1, 5)
            result = beam_search(scorer, conditioning, beam_size=3, max_len=4, n_best=3)
        else:
            detections = frozenset({"a"})
            conditioning = detections
            result = coverage_beam_search(
                scorer, detections, beam_size=3, max_len=4, n_best=3, min_coverage=0
            )
        assert result.hypotheses
        for hyp in result.hypotheses:
            _, lp = forward(lm, conditioning, list(hyp.tokens))
            assert lp == pytest.approx(hyp.features["logprob"], abs=1e-9)

    def test_rescore_adds_column(self):
        scorer = TableScorer(["a", "b"], 5)
        base = beam_search(scorer, None, beam_size=3, max_len=4, n_best=4)
        other = TableScorer(["a", "b"], 6)
        rescored = rescore_logprob(base, other, None, "second")
        index_of = {c: i for i, c in enumerate(other.candidates)}
        for old, new in zip(base.hypotheses, rescored.hypotheses):
            assert set(new.features) == set(old.features) | {"second"}
            total, history = 0.0, ()
            for tok in [*old.tokens, END_TOKEN]:
                total += other.row(history)[index_of[tok]]
                history = history + (tok,)
            assert new.features["second"] == pytest.approx(total, abs=1e-12)


class TestOneModelStepPerPosition:
    """Each decoded position, and each distinct prefix of a rescored list,
    costs exactly one GRU step."""

    def _counted(self, monkeypatch, mode):
        vocab = Vocabulary(["a", "b", "c"])
        config = RecurrentConfig(
            mode=mode, embed_dim=3, hidden_dim=4,
            feature_dim=5 if mode == MODE_IMAGE_INITIAL else None, seed=4,
        )
        lm = RecurrentLM(vocab, config)
        scorer = RecurrentScorer(lm)
        counts = {"step": 0, "logprobs": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(lm, "step", counting("step", lm.step))
        monkeypatch.setattr(scorer, "logprobs", counting("logprobs", scorer.logprobs))
        return scorer, counts

    def test_beam_search_steps_once_per_scored_state(self, monkeypatch):
        scorer, counts = self._counted(monkeypatch, MODE_IMAGE_INITIAL)
        result = beam_search(scorer, np.linspace(-1, 1, 5), beam_size=3, max_len=5, n_best=5)
        assert result.hypotheses
        assert counts["logprobs"] > 0
        assert counts["step"] == counts["logprobs"]

    @pytest.mark.parametrize("mode", [MODE_IMAGE_INITIAL, MODE_COVERAGE_AUX])
    def test_rescore_steps_once_per_prefix(self, monkeypatch, mode):
        scorer, counts = self._counted(monkeypatch, mode)
        base = beam_search(TableScorer(["a", "b", "c"], 9), None, beam_size=4, max_len=5,
                           n_best=10)
        if mode == MODE_IMAGE_INITIAL:
            conditioning = np.linspace(-1, 1, 5)
        else:
            conditioning = frozenset({"a", "c"})
        rescore_logprob(base, scorer, conditioning, "rnn")
        prefixes = {h.tokens[:k] for h in base.hypotheses for k in range(len(h.tokens) + 1)}
        assert len(prefixes) < sum(len(h.tokens) + 1 for h in base.hypotheses)
        assert counts["step"] == len(prefixes)


class TestSequenceLogprob:
    def test_detection_conditioning_shrinks_remaining(self):
        detections = frozenset({"cat", "dog"})
        seen = []

        class Recording(CoverageAwareScorer):
            def logprobs(self, state, remaining):
                seen.append(remaining)
                return super().logprobs(state, remaining)

        scorer = Recording(["cat", "dog", "a"], 1)
        sequence_logprob(scorer, detections, ("a", "cat", "dog"))
        assert seen == [
            frozenset({"cat", "dog"}), frozenset({"cat", "dog"}), frozenset({"dog"}),
            frozenset(),
        ]
        seen.clear()
        sequence_logprob(scorer, None, ("a", "cat"))
        assert seen == [None, None, None]

    def test_coverage_rescore_reproduces_search_logprob(self):
        detections = frozenset({"cat", "dog"})
        checked = 0
        for seed in range(5):
            scorer = CoverageAwareScorer(["cat", "dog", "a"], seed)
            nbest = coverage_beam_search(scorer, detections, beam_size=4, max_len=6,
                                         n_best=10, min_coverage=1)
            if not nbest.complete:
                continue  # partials lack the END term that rescoring adds
            rescored = rescore_logprob(nbest, scorer, detections, "again")
            for hyp in rescored.hypotheses:
                assert hyp.features["again"] == hyp.features["logprob"]
                checked += 1
        assert checked > 0


class TestTrainingAndScoringShareCoverage:
    """Training starts from the coverable set as decoding does, so a detected
    word the model cannot emit changes neither the trained model nor a score."""

    VOCAB = Vocabulary(["a", "cat", "dog", "sat"])
    CAPTIONS = [("a", "cat", "sat"), ("a", "dog"), ("a", "zebra", "cat")]

    def _detections(self, *extra):
        return frozenset({"cat", *extra})

    def test_maxent(self):
        config = MaxEntTrainConfig(epochs=3, learning_rate=0.3, l2=0.0, seed=0)
        models = []
        for det in (self._detections(), self._detections("zebra", END_TOKEN)):
            pairs = [(CaptionRecord(1, tokens), det) for tokens in self.CAPTIONS]
            lm = train_maxent(pairs, config, self.VOCAB)
            assert lm.coverage[END_PENDING] != 0.0
            scorer = MaxEntScorer(lm)
            conditions = {}
            for record, _ in pairs:
                events = _training_events(lm, record, det, conditions)
                nll = sum(_event_nll_and_grad(lm, conditions[key], target)[0]
                          for key, target in events)
                assert -nll == pytest.approx(sequence_logprob(scorer, det, record.tokens),
                                             abs=1e-12)
            models.append(lm)
        plain, extra = models
        assert extra.coverage.tobytes() == plain.coverage.tobytes()
        assert extra.unigram.tobytes() == plain.unigram.tobytes()
        for rows in ("bigram", "trigram"):
            got, want = getattr(extra, rows), getattr(plain, rows)
            assert got.keys() == want.keys()
            assert all(got[k].tobytes() == want[k].tobytes() for k in want)

    def test_recurrent(self):
        config = RecurrentConfig(MODE_COVERAGE_AUX, embed_dim=3, hidden_dim=4,
                                 feature_dim=None, seed=2)
        models = []
        for det in (self._detections(), self._detections("zebra", END_TOKEN)):
            lm = RecurrentLM(self.VOCAB, config)
            train(lm, [(det, list(tokens)) for tokens in self.CAPTIONS],
                  RnnTrainConfig(epochs=2, learning_rate=0.3, clip=5.0, seed=0))
            scorer = RecurrentScorer(lm)
            for tokens in self.CAPTIONS:
                _, trained_lp = forward(lm, det, list(tokens))
                assert sequence_logprob(scorer, det, tokens) == pytest.approx(trained_lp,
                                                                               abs=1e-12)
            models.append(lm)
        for name, arr in models[0].params.items():
            assert models[1].params[name].tobytes() == arr.tobytes(), name
