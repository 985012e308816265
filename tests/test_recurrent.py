import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capkit._binio import pack_str
from capkit.corpus import END_ID, RESERVED_TOKENS, Vocabulary
from capkit.decoding import RecurrentScorer, sequence_logprob
from capkit.errors import DegenerateCorpus, DimensionMismatch, MalformedInput
from capkit.recurrent import (
    MODE_COVERAGE_AUX,
    MODE_IMAGE_INITIAL,
    RecurrentConfig,
    RecurrentLM,
    RnnTrainConfig,
    forward,
    load_recurrent,
    loss_and_gradients,
    save_recurrent,
    train,
    _forward_stacked,
    _fuse,
    _gru_step,
)

VOCAB = Vocabulary(["cat", "dog", "sat", "ran", "the"])


def small_lm(mode, seed=0, feature_dim=6):
    config = RecurrentConfig(
        mode=mode,
        embed_dim=4,
        hidden_dim=5,
        feature_dim=feature_dim if mode == MODE_IMAGE_INITIAL else None,
        seed=seed,
    )
    return RecurrentLM(VOCAB, config)


def detected(*words):
    """The detected words ``words``, as the set ``load_detections`` gives."""
    return frozenset(words)


def conditioning_for(mode, seed=0):
    if mode == MODE_IMAGE_INITIAL:
        return np.random.default_rng(seed).standard_normal(6)
    return detected("cat", "the")


def gru_scalar_oracle(x, h, params):
    """Scalar-loop reimplementation of the cell, used as an oracle."""
    d_x, d_h = params["gru_wz"].shape

    def dot(vec, mat, col):
        return sum(vec[i] * mat[i][col] for i in range(len(vec)))

    out = []
    for j in range(d_h):
        az = dot(x, params["gru_wz"], j) + dot(h, params["gru_uz"], j) + params["gru_bz"][j]
        ar = dot(x, params["gru_wr"], j) + dot(h, params["gru_ur"], j) + params["gru_br"][j]
        z = 1.0 / (1.0 + math.exp(-az))
        r = 1.0 / (1.0 + math.exp(-ar))
        out.append((z, r))
    hp = []
    for j in range(d_h):
        rh = [out[i][1] * h[i] for i in range(d_h)]
        ac = dot(x, params["gru_wc"], j) + dot(rh, params["gru_uc"], j) + params["gru_bc"][j]
        c = math.tanh(ac)
        z = out[j][0]
        hp.append((1.0 - z) * h[j] + z * c)
    return np.array(hp)


def step_cell(x, h, gru):
    """One ``RecurrentLM.step`` from state ``h`` whose input embedding is ``x``,
    with the gate tensors ``gru`` installed as a new ``params`` dict."""
    d_x, d_h = gru["gru_wz"].shape
    config = RecurrentConfig(MODE_IMAGE_INITIAL, embed_dim=d_x, hidden_dim=d_h,
                             feature_dim=2, seed=0)
    lm = RecurrentLM(VOCAB, config)
    cat_id = VOCAB.lookup("cat")
    params = {**lm.params, **gru, "embeddings": lm.params["embeddings"].copy()}
    params["embeddings"][cat_id] = x
    lm.params = params
    return lm.step(h, cat_id, ())[0]


class TestGruCell:
    def _zero_params(self, d_x, d_h):
        return {
            "gru_wz": np.zeros((d_x, d_h)), "gru_wr": np.zeros((d_x, d_h)),
            "gru_wc": np.zeros((d_x, d_h)), "gru_uz": np.zeros((d_h, d_h)),
            "gru_ur": np.zeros((d_h, d_h)), "gru_uc": np.zeros((d_h, d_h)),
            "gru_bz": np.zeros(d_h), "gru_br": np.zeros(d_h), "gru_bc": np.zeros(d_h),
        }

    def test_zero_params_halve_state(self):
        params = self._zero_params(3, 4)
        h = np.array([1.0, -2.0, 0.5, 4.0])
        np.testing.assert_allclose(step_cell(np.ones(3), h, params), 0.5 * h)

    def test_zero_state_stays_zero(self):
        params = self._zero_params(3, 4)
        np.testing.assert_allclose(step_cell(np.ones(3), np.zeros(4), params), np.zeros(4))

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            d_x, d_h = 3, 3
            params = {k: rng.standard_normal(v.shape) for k, v in self._zero_params(d_x, d_h).items()}
            x = rng.standard_normal(d_x)
            h = rng.standard_normal(d_h)
            np.testing.assert_allclose(
                step_cell(x, h, params), gru_scalar_oracle(x, h, params), atol=1e-12
            )

    def test_dimension_mismatch(self):
        params = self._zero_params(3, 4)
        with pytest.raises(DimensionMismatch, match="hidden state"):
            step_cell(np.ones(3), np.zeros(5), params)


class TestForward:
    @pytest.mark.parametrize("mode", [MODE_IMAGE_INITIAL, MODE_COVERAGE_AUX])
    def test_rows_normalized(self, mode):
        lm = small_lm(mode, seed=1)
        rows, logprob = forward(lm, conditioning_for(mode, 1), ["the", "cat", "sat"])
        assert rows.shape == (4, lm.n_out)
        np.testing.assert_allclose(rows.sum(axis=1), np.ones(4), atol=1e-6)
        assert logprob < 0.0

    def test_identical_images_identical_rows(self):
        lm = small_lm(MODE_IMAGE_INITIAL, seed=2)
        vec = np.arange(6.0)
        rows1, lp1 = forward(lm, vec, ["the", "cat"])
        rows2, lp2 = forward(lm, vec.copy(), ["the", "cat"])
        np.testing.assert_array_equal(rows1, rows2)
        assert lp1 == lp2

    def test_empty_detections_zero_aux_sum(self):
        lm = small_lm(MODE_COVERAGE_AUX, seed=3)
        zeroed = small_lm(MODE_COVERAGE_AUX, seed=3)
        zeroed.params["det_embeddings"] = np.zeros_like(zeroed.params["det_embeddings"])
        rows_a, lp_a = forward(lm, detected(), ["the", "cat"])
        rows_b, lp_b = forward(zeroed, None, ["the", "cat"])
        np.testing.assert_array_equal(rows_a, rows_b)
        assert lp_a == lp_b

    def test_detection_order_invariance(self):
        lm = small_lm(MODE_COVERAGE_AUX, seed=4)
        rows1, lp1 = forward(lm, detected("cat", "the", "dog"), ["the", "cat"])
        rows2, lp2 = forward(lm, detected("dog", "cat", "the"), ["the", "cat"])
        np.testing.assert_array_equal(rows1, rows2)
        assert lp1 == lp2

    def test_emitted_word_leaves_coverage_sum(self):
        lm = small_lm(MODE_COVERAGE_AUX, seed=5)
        fp = _forward_stacked(lm, _fuse(lm.params), detected("cat"), ["cat", "sat"])
        cat_id = lm.vocabulary.lookup("cat")
        assert fp.remaining[0] == [cat_id]
        assert fp.remaining[1] == []  # removed right after emission
        # step 1 read the input built without the word, and keeping it
        # would have changed the activations
        h1 = _gru_step(_fuse(lm.params), fp.x[0], np.zeros(5))[2]
        np.testing.assert_array_equal(fp.hs[1], h1)
        x1_removed = lm._step_input(h1, cat_id, [])
        x1_kept = lm._step_input(h1, cat_id, [cat_id])
        np.testing.assert_array_equal(fp.x[1], x1_removed)
        assert not np.allclose(x1_removed, x1_kept)

    def test_bad_conditioning_dim(self):
        lm = small_lm(MODE_IMAGE_INITIAL)
        with pytest.raises(DimensionMismatch):
            forward(lm, np.zeros(7), ["cat"])


class TestLossAndGradients:
    def test_uniform_loss_at_zero_params(self):
        lm = small_lm(MODE_IMAGE_INITIAL, seed=6)
        for key in lm.params:
            lm.params[key] = np.zeros_like(lm.params[key])
        loss, _ = loss_and_gradients(lm, [(np.zeros(6), [])])
        assert loss == pytest.approx(math.log(lm.n_out))

    def test_duplication_keeps_mean(self):
        lm = small_lm(MODE_IMAGE_INITIAL, seed=7)
        item = (np.arange(6.0), ["the", "cat"])
        loss1, _ = loss_and_gradients(lm, [item])
        loss2, _ = loss_and_gradients(lm, [item, item])
        assert loss2 == pytest.approx(loss1)

    def test_empty_batch(self):
        with pytest.raises(DegenerateCorpus):
            loss_and_gradients(small_lm(MODE_IMAGE_INITIAL), [])

    @pytest.mark.parametrize("mode", [MODE_IMAGE_INITIAL, MODE_COVERAGE_AUX])
    def test_gradients_match_finite_differences(self, mode):
        eps = 1e-5
        worst = 0.0
        for seed in range(4):
            lm = small_lm(mode, seed=seed)
            cond = conditioning_for(mode, seed)
            batch = [(cond, ["the", "cat", "sat"]), (cond, ["the", "dog", "ran"])]
            _, grads = loss_and_gradients(lm, batch)
            for name, arr in lm.params.items():
                flat = arr.ravel()
                gflat = grads[name].ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + eps
                    up, _ = loss_and_gradients(lm, batch)
                    flat[i] = orig - eps
                    down, _ = loss_and_gradients(lm, batch)
                    flat[i] = orig
                    numeric = (up - down) / (2 * eps)
                    a = gflat[i]
                    worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-6))
        assert worst < 1e-4


class TestTrain:
    def _data(self, mode, n=100):
        rng = np.random.default_rng(0)
        captions = [["the", "cat", "sat"], ["the", "dog", "ran"], ["the", "cat", "ran"]]
        data = []
        for i in range(n):
            cap = captions[i % len(captions)]
            cond = rng.standard_normal(6) if mode == MODE_IMAGE_INITIAL else detected(cap[1])
            data.append((cond, cap))
        return data

    def test_loss_improves(self):
        lm = small_lm(MODE_IMAGE_INITIAL, seed=9)
        train(lm, self._data(MODE_IMAGE_INITIAL),
              RnnTrainConfig(epochs=30, learning_rate=0.3, clip=5.0, seed=0))
        assert lm.epoch_losses[-1] < lm.epoch_losses[0]

    def test_zero_learning_rate_is_identity(self):
        lm = small_lm(MODE_IMAGE_INITIAL, seed=10)
        before = {k: v.copy() for k, v in lm.params.items()}
        train(lm, self._data(MODE_IMAGE_INITIAL, n=10),
              RnnTrainConfig(epochs=2, learning_rate=0.0, clip=5.0, seed=0))
        for key, arr in before.items():
            np.testing.assert_array_equal(lm.params[key], arr)

    @pytest.mark.parametrize("mode", [MODE_IMAGE_INITIAL, MODE_COVERAGE_AUX])
    def test_seeded_determinism(self, mode):
        data = self._data(mode, n=20)
        lms = []
        for _ in range(2):
            lm = small_lm(mode, seed=12)
            train(lm, data, RnnTrainConfig(epochs=2, learning_rate=0.1, clip=5.0, seed=5))
            lms.append(lm)
        for key in lms[0].params:
            np.testing.assert_array_equal(lms[0].params[key], lms[1].params[key])

    def test_empty_data(self):
        with pytest.raises(DegenerateCorpus):
            train(small_lm(MODE_IMAGE_INITIAL), [],
                  RnnTrainConfig(epochs=10, learning_rate=0.1, clip=5.0, seed=0))


class TestDecodingGates:
    """``step`` reads gate weights stacked once per model, never a stale copy."""

    def _step_of(self, lm, cond):
        h0, _ = lm.initial_hidden(cond)
        return lm.step(h0, VOCAB.lookup("the"), [VOCAB.lookup("cat")])

    @pytest.mark.parametrize("mode", [MODE_IMAGE_INITIAL, MODE_COVERAGE_AUX])
    def test_in_place_update_after_decoding_raises(self, mode):
        lm = small_lm(mode, seed=16)
        self._step_of(lm, conditioning_for(mode))
        for name in ("gru_wz", "gru_ur", "gru_bz"):
            with pytest.raises(ValueError):
                lm.params[name] += 1.0

    @pytest.mark.parametrize("mode", [MODE_IMAGE_INITIAL, MODE_COVERAGE_AUX])
    def test_training_after_decoding_decodes_new_weights(self, mode):
        lm = small_lm(mode, seed=17)
        cond = conditioning_for(mode)
        before = self._step_of(lm, cond)
        train(lm, [(cond, ["the", "cat", "sat"]), (cond, ["the", "dog"])] * 3,
              RnnTrainConfig(epochs=1, learning_rate=0.3, clip=5.0, seed=1))
        fresh = RecurrentLM(VOCAB, lm.config, {k: v.copy() for k, v in lm.params.items()})
        after, want = self._step_of(lm, cond), self._step_of(fresh, cond)
        assert not np.array_equal(after[1], before[1])
        for got, expected in zip(after, want):
            np.testing.assert_array_equal(got, expected)


class TestSerialization:
    @pytest.mark.parametrize("mode", [MODE_IMAGE_INITIAL, MODE_COVERAGE_AUX])
    def test_round_trip(self, tmp_path, mode):
        lm = small_lm(mode, seed=13)
        path = tmp_path / "m.grlm"
        save_recurrent(lm, path)
        loaded = load_recurrent(path)
        assert loaded.mode == lm.mode
        assert loaded.vocabulary.id_of == lm.vocabulary.id_of
        for key, arr in lm.params.items():
            np.testing.assert_array_equal(loaded.params[key], arr)
            # one writeable copy per tensor, not a view of the file's bytes
            assert loaded.params[key].flags.writeable and loaded.params[key].flags.owndata
        cond = conditioning_for(mode, 13)
        _, lp1 = forward(lm, cond, ["the", "cat"])
        _, lp2 = forward(loaded, cond, ["the", "cat"])
        assert lp1 == lp2

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.grlm"
        path.write_bytes(b"NOPE")
        with pytest.raises(MalformedInput):
            load_recurrent(path)

    def test_bad_mode(self, tmp_path):
        path = tmp_path / "m.grlm"
        save_recurrent(small_lm(MODE_IMAGE_INITIAL), path)
        path.write_bytes(path.read_bytes().replace(
            pack_str("initial_state"), pack_str("initial_stat3"), 1))
        with pytest.raises(MalformedInput, match="unknown conditioning mode 'initial_stat3'"):
            load_recurrent(path)

    def test_word_colliding_with_reserved_token(self, tmp_path):
        path = tmp_path / "m.grlm"
        save_recurrent(small_lm(MODE_COVERAGE_AUX), path)
        path.write_bytes(path.read_bytes().replace(
            pack_str("cat"), pack_str(RESERVED_TOKENS[2]), 1))
        with pytest.raises(MalformedInput, match="collides with a reserved token"):
            load_recurrent(path)

    def test_sequence_logprob_counts_end(self):
        lm = small_lm(MODE_IMAGE_INITIAL, seed=14)
        lp = sequence_logprob(RecurrentScorer(lm), np.zeros(6), ["the", "cat"])
        rows, total = forward(lm, np.zeros(6), ["the", "cat"])
        # three terms: both words, then END (output index = vocabulary id - 1)
        targets = [VOCAB.lookup("the"), VOCAB.lookup("cat"), END_ID]
        chain = sum(math.log(rows[t, tid - 1]) for t, tid in enumerate(targets))
        assert lp == pytest.approx(chain, abs=1e-9)
        assert lp == pytest.approx(total, abs=1e-9)
        assert lp < 0.0


def _header_length(lm) -> int:
    """Bytes of a saved model before its first tensor name."""
    return (4 + 4 + len(pack_str(lm.mode)) + 12
            + 4 + sum(len(pack_str(w)) for w in lm.vocabulary.word_tokens()) + 4)


@pytest.fixture(scope="module", params=[MODE_IMAGE_INITIAL, MODE_COVERAGE_AUX])
def grlm(request, tmp_path_factory):
    lm = small_lm(request.param, seed=15)
    path = tmp_path_factory.mktemp("grlm") / "m.grlm"
    save_recurrent(lm, path)
    return path.read_bytes(), _header_length(lm), path.with_name("fuzz.grlm")


class TestLoadFuzz:
    """A model file with a damaged header, or cut short, either loads or
    raises an input error (exit 2), never anything else."""

    @settings(max_examples=200, deadline=None)
    @given(cut=st.integers(min_value=0), flips=st.lists(
        st.tuples(st.integers(min_value=0), st.integers(min_value=1, max_value=255)),
        max_size=4,
    ))
    def test_truncated_and_flipped_header(self, grlm, cut, flips):
        data, header, path = grlm
        damaged = bytearray(data)
        for pos, mask in flips:
            damaged[pos % header] ^= mask
        damaged = damaged[: len(damaged) - cut % len(damaged)]
        path.write_bytes(bytes(damaged))
        try:
            lm = load_recurrent(path)
        except MalformedInput:
            return
        forward(lm, conditioning_for(lm.mode), ["the", "cat"])
