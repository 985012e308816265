import numpy as np
import pytest

from capkit.decoding import DecodedHypothesis, NBestList
from capkit.errors import EmptyNBest, MissingReferences, SchemaMismatch
from capkit.metrics import bleu_stats, corpus_bleu
from capkit.rerank import (
    MertConfig,
    apply_weights,
    line_envelope,
    mert_optimize,
)


def hyp(tokens, **features):
    return DecodedHypothesis(tuple(tokens), features)


def lines(rows, base, direction):
    """Slopes and offsets of the score lines of ``rows`` along ``direction``."""
    slopes = [row[direction] for row in rows]
    offsets = [sum(w * row[name] for name, w in base.items() if name != direction)
               for row in rows]
    return slopes, offsets


def segments(envelope):
    """(lo, hi, winner) of each (lo, winner) pair of ``envelope``: ``hi`` is
    the next pair's ``lo``, or +inf for the last."""
    his = [lo for lo, _ in envelope[1:]] + [float("inf")]
    return [(lo, hi, winner) for (lo, winner), hi in zip(envelope, his)]


def selected_bleu(nbests, refs, weights):
    return corpus_bleu(
        [(apply_weights(nb, weights).tokens, refs[nb.image_id]) for nb in nbests]
    )


class TestLineEnvelope:
    def test_single_hypothesis(self):
        rows = [{"f": 1.0, "g": 2.0}]
        segs = segments(line_envelope(*lines(rows, {"f": 1.0, "g": 1.0}, "f")))
        assert segs == [(float("-inf"), float("inf"), 0)]

    def test_two_line_crossing(self):
        # line 0: 0 + gamma*1, line 1: 1 - gamma*1; they cross at gamma = 0.5
        rows = [{"f": 1.0, "c": 0.0}, {"f": -1.0, "c": 1.0}]
        segs = segments(line_envelope(*lines(rows, {"f": 0.0, "c": 1.0}, "f")))
        assert len(segs) == 2
        (lo0, hi0, winner0), (lo1, hi1, winner1) = segs
        assert winner0 == 1 and winner1 == 0
        assert hi0 == pytest.approx(0.5)
        assert lo1 == pytest.approx(0.5)

    def test_matches_pointwise_argmax(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rows = [
                {"f": float(rng.standard_normal()), "g": float(rng.standard_normal())}
                for _ in range(20)
            ]
            base = {"f": 0.0, "g": float(rng.standard_normal())}
            segs = segments(line_envelope(*lines(rows, base, "f")))
            for gamma in rng.uniform(-10, 10, size=1000):
                scores = [gamma * r["f"] + base["g"] * r["g"] for r in rows]
                expect = int(np.argmax(scores))
                got = next(winner for lo, hi, winner in segs if lo <= gamma < hi)
                assert got == expect

    def test_partition_and_distinct_neighbors(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            rows = [
                {"f": float(rng.standard_normal()), "g": float(rng.standard_normal())}
                for _ in range(12)
            ]
            segs = segments(line_envelope(*lines(rows, {"f": 0.0, "g": 1.0}, "f")))
            assert segs[0][0] == float("-inf")
            assert segs[-1][1] == float("inf")
            for (lo, hi, winner), (next_lo, _, next_winner) in zip(segs, segs[1:]):
                assert lo < hi == next_lo
                assert winner != next_winner

    def test_duplicate_lines_prefer_lower_index(self):
        rows = [{"f": 1.0, "g": 1.0}, {"f": 1.0, "g": 1.0}]
        segs = segments(line_envelope(*lines(rows, {"f": 0.0, "g": 1.0}, "f")))
        assert segs == [(float("-inf"), float("inf"), 0)]

    def test_empty(self):
        with pytest.raises(EmptyNBest):
            line_envelope(*lines([], {"f": 1.0}, "f"))


class TestApplyWeights:
    def _nbest(self):
        return NBestList(
            1,
            [
                hyp(["a"], logprob=-1.0, length=1.0),
                hyp(["b"], logprob=-2.0, length=2.0),
                hyp(["c"], logprob=-3.0, length=5.0),
            ],
        )

    def test_one_hot_returns_rank_one(self):
        best = apply_weights(self._nbest(), {"logprob": 1.0, "length": 0.0})
        assert best.tokens == ("a",)

    def test_scale_invariance(self):
        weights = {"logprob": 0.3, "length": 0.7}
        nbest = self._nbest()
        for scale in (0.5, 2.0, 13.0):
            scaled = {k: v * scale for k, v in weights.items()}
            assert apply_weights(nbest, scaled) == apply_weights(nbest, weights)

    def test_hand_dot_products(self):
        # scores: a: -1*0.5+1*1 = 0.5, b: -2*0.5+2*1 = 1.0, c: -3*0.5+5*1 = 3.5
        best = apply_weights(self._nbest(), {"logprob": 0.5, "length": 1.0})
        assert best.tokens == ("c",)

    def test_tie_prefers_lower_rank(self):
        nbest = NBestList(1, [hyp(["a"], x=1.0), hyp(["b"], x=1.0)])
        assert apply_weights(nbest, {"x": 1.0}).tokens == ("a",)

    def test_schema_mismatch(self):
        with pytest.raises(SchemaMismatch):
            apply_weights(self._nbest(), {"nope": 1.0})

    def test_empty(self):
        with pytest.raises(EmptyNBest):
            apply_weights(NBestList(1, []), {"x": 1.0})


def make_problem(seed, n_sentences=5, n_hyps=4, vocab=("a", "b", "c", "d", "e", "f")):
    """Toy 2-feature reranking problem with enough n-gram signal for BLEU."""
    rng = np.random.default_rng(seed)
    nbests, refs = [], {}
    for s in range(n_sentences):
        ref = [vocab[i] for i in rng.integers(0, len(vocab), size=8)]
        refs[s] = [ref]
        hyps = []
        for _ in range(n_hyps):
            tokens = list(ref)
            for pos in rng.choice(8, size=int(rng.integers(0, 4)), replace=False):
                tokens[pos] = vocab[rng.integers(0, len(vocab))]
            hyps.append(
                hyp(tokens, x=float(rng.standard_normal()), y=float(rng.standard_normal()))
            )
        nbests.append(NBestList(s, hyps))
    return nbests, refs


def grid_search_bleu(nbests, refs, grid=200, limit=2.0):
    """Vectorized exhaustive grid over 2-feature weight space."""
    stats = np.array(
        [
            [bleu_stats(h.tokens, refs[nb.image_id]) for h in nb.hypotheses]
            for nb in nbests
        ],
        dtype=np.int64,
    )  # (S, H, 10)
    feats = np.array(
        [[[h.features["x"], h.features["y"]] for h in nb.hypotheses] for nb in nbests]
    )  # (S, H, 2)
    axis = np.linspace(-limit, limit, grid)
    weights = np.array(np.meshgrid(axis, axis)).reshape(2, -1).T  # (W, 2)
    scores = np.einsum("wf,shf->wsh", weights, feats)
    winners = scores.argmax(axis=2)  # (W, S)
    totals = stats[np.arange(stats.shape[0])[None, :], winners].sum(axis=1)  # (W, 10)
    matched = totals[:, 0:4].astype(float)
    ngrams = totals[:, 4:8].astype(float)
    hyp_len = totals[:, 8].astype(float)
    ref_len = totals[:, 9].astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        positive = (matched > 0).all(axis=1)
        log_prec = np.where(matched > 0, np.log(np.maximum(matched, 1) / ngrams), 0.0)
        brevity = np.minimum(1.0, np.exp(1.0 - ref_len / hyp_len))
        bleu = np.where(positive, 100.0 * brevity * np.exp(log_prec.mean(axis=1)), 0.0)
    return float(bleu.max())


_CONFIG = MertConfig(restarts=8, max_iters=30, seed=0)


class TestMertOptimize:
    def test_single_hypothesis_returns_init(self):
        nbests = [NBestList(i, [hyp(["a", "b"], x=1.0, y=2.0)]) for i in range(3)]
        refs = {i: [["a", "b"]] for i in range(3)}
        init = {"x": 0.25, "y": -1.5}
        weights = mert_optimize(
            nbests, refs, init, MertConfig(restarts=3, max_iters=30, seed=0)
        )
        assert weights == init

    def test_beats_grid_search(self):
        for seed in range(5):
            nbests, refs = make_problem(seed)
            optimum = grid_search_bleu(nbests, refs)
            weights = mert_optimize(
                nbests, refs, {"x": 1.0, "y": 0.0},
                MertConfig(restarts=8, max_iters=30, seed=seed),
            )
            assert selected_bleu(nbests, refs, weights) >= optimum - 0.1

    def test_iterations_never_decrease(self):
        for seed in (3, 4, 5):
            nbests, refs = make_problem(seed)
            log: list = []
            mert_optimize(
                nbests, refs, {"x": 1.0, "y": 0.0},
                MertConfig(restarts=4, max_iters=30, seed=seed), iteration_log=log,
            )
            by_restart: dict = {}
            for restart, _, bleu in log:
                by_restart.setdefault(restart, []).append(bleu)
            for seq in by_restart.values():
                assert all(b >= a - 1e-12 for a, b in zip(seq, seq[1:]))

    def test_never_below_init(self):
        for seed in range(6, 10):
            nbests, refs = make_problem(seed)
            init = {"x": 0.4, "y": 0.4}
            before = selected_bleu(nbests, refs, init)
            weights = mert_optimize(
                nbests, refs, init, MertConfig(restarts=2, max_iters=30, seed=seed)
            )
            assert selected_bleu(nbests, refs, weights) >= before - 1e-12

    def test_missing_references(self):
        nbests, refs = make_problem(0)
        del refs[2]
        with pytest.raises(MissingReferences):
            mert_optimize(nbests, refs, {"x": 1.0, "y": 0.0}, _CONFIG)

    def test_schema_mismatch(self):
        nbests, refs = make_problem(0)
        with pytest.raises(SchemaMismatch):
            mert_optimize(nbests, refs, {"x": 1.0, "nope": 0.0}, _CONFIG)

    def test_empty(self):
        with pytest.raises(EmptyNBest):
            mert_optimize([], {}, {"x": 1.0}, _CONFIG)
