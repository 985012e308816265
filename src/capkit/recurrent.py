"""Gated recurrent language model with two image-conditioning modes.

``initial_state`` projects an image feature vector through a learned layer
to form the initial hidden state, after which the model runs as a plain
recurrent LM. ``auxiliary_vector`` starts from a zero state and instead
augments every step's input with a sigmoid-squashed auxiliary vector built
from the previous word's embedding, the summed embeddings of the detection
words not yet mentioned, and a learned map of the previous hidden state;
the not-yet-mentioned set shrinks as the caption emits detection words.

All gradients are hand-derived backpropagation through time and are
checked against finite differences in the test suite. Only the forward
hidden-state recurrence and the backward dh recurrence run step by step;
each caption's per-step activations are stacked, and every weight
gradient is formed from them once per caption. Each step multiplies its
input once by the column-stacked input weights [Wz | Wr | Wc] and its
state once by [Uz | Ur]; training stacks them once per caption and
decoding once per model (see ``RecurrentLM.step``). Training keeps every
parameter in one flat buffer and the gradient in a second, with the
tensors as views into them, so clipping and the update are a few whole-
buffer operations per caption. Training is single-threaded and
bit-reproducible given a seed; a trained model is immutable in practice
and safe to score from many threads.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from random import Random
from typing import NamedTuple

import numpy as np

from ._binio import ByteReader, atomic_write_bytes, pack_f64_array, pack_str, pack_str_list
from .corpus import END_ID, START_ID, Vocabulary
from .errors import (
    DegenerateCorpus,
    DimensionMismatch,
    MalformedInput,
    NonFiniteLoss,
)
from .maxent import _log_softmax, _softmax

MODE_IMAGE_INITIAL = "initial_state"
MODE_COVERAGE_AUX = "auxiliary_vector"
MODES = (MODE_IMAGE_INITIAL, MODE_COVERAGE_AUX)
# Parameters start uniform in [-INIT_SCALE, INIT_SCALE].
INIT_SCALE = 0.08


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


@dataclass(frozen=True)
class RecurrentConfig:
    """Shape and initialization knobs for RecurrentLM."""

    mode: str
    embed_dim: int
    hidden_dim: int
    feature_dim: int | None  # required in initial_state mode
    seed: int


def param_shapes(config: RecurrentConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Shape of each parameter tensor, in initialization order."""
    d_e, d_h = config.embed_dim, config.hidden_dim
    d_x = d_e if config.mode == MODE_IMAGE_INITIAL else 2 * d_e
    n_out = vocab_size - 1
    shapes = {
        "embeddings": (vocab_size, d_e),
        "gru_wz": (d_x, d_h),
        "gru_wr": (d_x, d_h),
        "gru_wc": (d_x, d_h),
        "gru_uz": (d_h, d_h),
        "gru_ur": (d_h, d_h),
        "gru_uc": (d_h, d_h),
        "gru_bz": (d_h,),
        "gru_br": (d_h,),
        "gru_bc": (d_h,),
        "out_w": (d_h, n_out),
        "out_b": (n_out,),
    }
    if config.mode == MODE_IMAGE_INITIAL:
        shapes["img_w"] = (config.feature_dim, d_h)
        shapes["img_b"] = (d_h,)
    else:
        shapes["det_embeddings"] = (vocab_size, d_e)
        shapes["hist_w"] = (d_h, d_e)
    return shapes


class RecurrentLM:
    """GRU language model over a vocabulary, conditioned on an image.

    The output layer covers every token except START; output index i
    corresponds to vocabulary id i + 1.
    """

    def __init__(self, vocabulary: Vocabulary, config: RecurrentConfig, params=None):
        """A model with seeded uniform parameters, or with ``params`` when given
        (their shapes are the caller's to check against ``param_shapes``)."""
        if config.mode not in MODES:
            raise ValueError(f"unknown conditioning mode {config.mode!r}")
        if config.mode == MODE_IMAGE_INITIAL and not config.feature_dim:
            raise ValueError("initial_state mode needs feature_dim")
        self.vocabulary = vocabulary
        self.config = config
        self.mode = config.mode
        self.n_out = len(vocabulary) - 1
        if params is None:
            rng = np.random.default_rng(config.seed)
            params = {
                name: rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)
                for name, shape in param_shapes(config, len(vocabulary)).items()
            }
        self.params: dict[str, np.ndarray] = params
        self._gates: tuple[dict[str, np.ndarray], _Gates] | None = None

    # -- encoding helpers -------------------------------------------------

    def encode_tokens(self, tokens) -> list[int]:
        """Vocabulary ids for a token sequence; unknown tokens map to UNK."""
        return [self.vocabulary.lookup(tok) for tok in tokens]

    def encode_detections(self, detections) -> list[int]:
        """Sorted unique vocabulary ids of a detection word set."""
        words = detections.tokens() if hasattr(detections, "tokens") else detections
        return sorted({self.vocabulary.lookup(w) for w in words})

    def initial_hidden(self, conditioning):
        """h0 (and its pre-activation cache in initial_state mode)."""
        d_h = self.config.hidden_dim
        if self.mode == MODE_IMAGE_INITIAL:
            feat = np.asarray(conditioning, dtype=np.float64)
            if feat.shape != (self.config.feature_dim,):
                raise DimensionMismatch(
                    f"conditioning vector has shape {feat.shape}, "
                    f"expected ({self.config.feature_dim},)"
                )
            h0 = np.tanh(feat @ self.params["img_w"] + self.params["img_b"])
            return h0, feat
        return np.zeros(d_h), None

    def step(self, h_prev: np.ndarray, prev_id: int, remaining_ids) -> tuple[np.ndarray, np.ndarray]:
        """One decoding step: new hidden state and output log-probabilities.

        ``remaining_ids`` is only consulted in auxiliary_vector mode.
        """
        h_prev = np.asarray(h_prev, dtype=np.float64)
        if h_prev.shape != (self.config.hidden_dim,):
            raise DimensionMismatch(
                f"hidden state has shape {h_prev.shape}, expected ({self.config.hidden_dim},)"
            )
        x = self._step_input(h_prev, prev_id, remaining_ids)
        h = _gru_step(self._decoding_gates(), x, h_prev)[2]
        return h, _log_softmax(h.dot(self.params["out_w"]) + self.params["out_b"])

    def _decoding_gates(self) -> _Gates:
        """The fused gate weights ``step`` reads, built once per ``params`` dict.

        Building them makes the tensors they copy read-only, so updating
        one in place raises instead of decoding through a stale copy;
        ``train`` gives the model a new dict.
        """
        if self._gates is None or self._gates[0] is not self.params:
            for name in _FUSED:
                self.params[name].flags.writeable = False
            self._gates = (self.params, _fuse(self.params))
        return self._gates[1]

    def _step_input(self, h_prev, prev_id, remaining_ids):
        emb = self.params["embeddings"][prev_id]
        if self.mode == MODE_IMAGE_INITIAL:
            return emb
        det = self.params["det_embeddings"]
        gsum = det[list(remaining_ids)].sum(axis=0) if remaining_ids else np.zeros_like(emb)
        u = emb + gsum + h_prev.dot(self.params["hist_w"])
        return np.concatenate([emb, _sigmoid(u)])


class _Gates(NamedTuple):
    """Gate weights stacked by columns, so that a step makes one product per input."""

    w: np.ndarray  # [Wz | Wr | Wc], (d_x, 3 d_h)
    u_zr: np.ndarray  # [Uz | Ur], (d_h, 2 d_h)
    b_zr: np.ndarray  # [bz | br]
    u_c: np.ndarray
    b_c: np.ndarray


# the tensors _fuse copies
_FUSED = ("gru_wz", "gru_wr", "gru_wc", "gru_uz", "gru_ur", "gru_bz", "gru_br")


def _fuse(params) -> _Gates:
    return _Gates(
        np.concatenate([params["gru_wz"], params["gru_wr"], params["gru_wc"]], axis=1),
        np.concatenate([params["gru_uz"], params["gru_ur"]], axis=1),
        np.concatenate([params["gru_bz"], params["gru_br"]]),
        params["gru_uc"],
        params["gru_bc"],
    )


def _gru_step(gates: _Gates, x, h):
    """One gated-recurrent step; returns (zr, c, h') with zr = [z | r].

    z = sigmoid(x Wz + h Uz + bz), r = sigmoid(x Wr + h Ur + br),
    c = tanh(x Wc + (r*h) Uc + bc), h' = (1 - z)*h + z*c.

    A column of a product with stacked weights can round differently from
    the same column of a product with its block alone, depending on how the
    BLAS kernel splits the columns. With OpenBLAS 0.3.31 on x86-64 the bits
    agree whenever d_h is a multiple of 4, as at the default of 64.
    """
    d_h = h.shape[0]
    # per-step vector products use ndarray.dot: the same BLAS gemv as @,
    # with less dispatch per call
    xw = x.dot(gates.w)
    zr = _sigmoid(xw[:2 * d_h] + h.dot(gates.u_zr) + gates.b_zr)
    z = zr[:d_h]
    c = np.tanh(xw[2 * d_h:] + (zr[d_h:] * h).dot(gates.u_c) + gates.b_c)
    return zr, c, (1.0 - z) * h + z * c


class _CaptionPass(NamedTuple):
    """One caption's forward pass, stacked: row t belongs to step t."""

    inputs: list[int]  # token id fed at each step: START, then the caption
    target_idx: np.ndarray  # output index of each step's target
    x: np.ndarray  # (T, d_x) step inputs
    hs: np.ndarray  # (T + 1, d_h) hidden states; hs[0] is h0
    z: np.ndarray  # (T, d_h) update gates
    r: np.ndarray  # (T, d_h) reset gates
    c: np.ndarray  # (T, d_h) candidate states
    probs: np.ndarray  # (T, n_out) next-token distributions
    nll: float
    feat: np.ndarray | None  # image vector (initial_state mode)
    remaining: list[list[int]]  # unmentioned detection ids per step (auxiliary_vector mode)


def _forward_stacked(lm: RecurrentLM, gates: _Gates, conditioning, tokens) -> _CaptionPass:
    """Run the recurrence step by step, then the output layer once."""
    ids = lm.encode_tokens(tokens)
    targets = ids + [END_ID]
    inputs = [START_ID] + ids
    h, feat = lm.initial_hidden(conditioning)
    aux = lm.mode == MODE_COVERAGE_AUX
    remaining = set(lm.encode_detections(conditioning)) if aux else set()
    n, d_h = len(inputs), lm.config.hidden_dim
    x_rows = np.empty((n, gates.w.shape[0]))
    hs = np.empty((n + 1, d_h))
    zr, c = np.empty((n, 2 * d_h)), np.empty((n, d_h))
    hs[0] = h
    remaining_per_step = []
    for t, (inp, tgt) in enumerate(zip(inputs, targets)):
        remaining_ids = sorted(remaining) if aux else None
        x_rows[t] = x = lm._step_input(h, inp, remaining_ids)
        zr[t], c[t], h = _gru_step(gates, x, h)
        hs[t + 1] = h
        if aux:
            remaining_per_step.append(remaining_ids)
            remaining.discard(tgt)
    probs = _softmax(hs[1:] @ lm.params["out_w"] + lm.params["out_b"])
    target_idx = np.array(targets) - 1
    nll = -float(np.log(np.maximum(probs[np.arange(n), target_idx], 1e-300)).sum())
    return _CaptionPass(inputs, target_idx, x_rows, hs, zr[:, :d_h], zr[:, d_h:], c, probs,
                        nll, feat, remaining_per_step)


def forward(lm: RecurrentLM, conditioning, tokens):
    """Score a caption; returns (per-step probability rows, total log-prob).

    Row t is the distribution over the output tokens before emitting
    target t; targets are the caption tokens followed by END.
    """
    fp = _forward_stacked(lm, _fuse(lm.params), conditioning, tokens)
    return fp.probs, -fp.nll


def _backward_stacked(lm: RecurrentLM, gates: _Gates, fp: _CaptionPass, grads) -> None:
    """Add one caption's NLL gradients to ``grads``.

    Only the dh recurrence runs per step; it fills the rows of the gate
    pre-activation gradients ``da = [da_z | da_r | da_c]``, from which
    every weight gradient is formed once.
    """
    params = lm.params
    n, d_h = fp.z.shape
    x, h_prev, h = fp.x, fp.hs[:-1], fp.hs[1:]
    z, r, c = fp.z, fp.r, fp.c
    dlogits = fp.probs.copy()
    dlogits[np.arange(n), fp.target_idx] -= 1.0
    grads["out_w"] += h.T @ dlogits
    grads["out_b"] += dlogits.sum(axis=0)
    dh_out = dlogits @ params["out_w"].T

    # step-local factors: [da_z, da_c] = dh*[gz, gc], da_r = (da_c Uc^T)*gr
    gzc = np.empty((n, 2, d_h))
    np.multiply((c - h_prev) * z, 1.0 - z, out=gzc[:, 0])
    np.multiply(z, 1.0 - c * c, out=gzc[:, 1])
    gr = h_prev * r * (1.0 - r)
    keep = 1.0 - z
    uc_t = gates.u_c.T
    uzr_t = gates.u_zr.T
    w_cat = gates.w
    da = np.empty((n, 3 * d_h))
    zc, rc, cc = slice(0, d_h), slice(d_h, 2 * d_h), slice(2 * d_h, 3 * d_h)
    da_r, da_c, da_zr = da[:, rc], da[:, cc], da[:, :2 * d_h]
    da_zc = da.reshape(n, 3, d_h)[:, ::2]
    aux = lm.mode == MODE_COVERAGE_AUX
    if aux:
        d_e = lm.config.embed_dim
        a = x[:, d_e:]
        a_slope = a * (1.0 - a)
        wa_t = w_cat[d_e:].T
        hist_t = params["hist_w"].T
        du = np.empty((n, d_e))
    # dh is updated in place in the order of dh*keep + drh*r + da_zr Uzr^T
    dh = np.zeros(d_h)
    for t in range(n - 1, -1, -1):
        dh += dh_out[t]
        np.multiply(dh, gzc[t], out=da_zc[t])
        drh = da_c[t].dot(uc_t)
        np.multiply(drh, gr[t], out=da_r[t])
        dh *= keep[t]
        dh += drh * r[t]
        dh += da_zr[t].dot(uzr_t)
        if aux:
            np.multiply(da[t].dot(wa_t), a_slope[t], out=du[t])
            dh += du[t].dot(hist_t)

    dw = x.T @ da
    du_zr = h_prev.T @ da_zr
    db = da.sum(axis=0)
    grads["gru_wz"] += dw[:, zc]
    grads["gru_wr"] += dw[:, rc]
    grads["gru_wc"] += dw[:, cc]
    grads["gru_uz"] += du_zr[:, zc]
    grads["gru_ur"] += du_zr[:, rc]
    grads["gru_uc"] += (r * h_prev).T @ da_c
    grads["gru_bz"] += db[zc]
    grads["gru_br"] += db[rc]
    grads["gru_bc"] += db[cc]
    dx = da @ w_cat.T
    if aux:
        np.add.at(grads["embeddings"], fp.inputs, dx[:, :d_e] + du)
        det_ids = np.array([i for ids in fp.remaining for i in ids], dtype=np.intp)
        steps = np.array([t for t, ids in enumerate(fp.remaining) for _ in ids], dtype=np.intp)
        np.add.at(grads["det_embeddings"], det_ids, du[steps])
        grads["hist_w"] += h_prev.T @ du
    else:
        np.add.at(grads["embeddings"], fp.inputs, dx)
        h0 = fp.hs[0]
        dq = dh * (1.0 - h0 * h0)
        grads["img_w"] += np.outer(fp.feat, dq)
        grads["img_b"] += dq


def _views(flat: np.ndarray, like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Consecutive slices of ``flat`` shaped as the tensors of ``like``, in its order."""
    views, start = {}, 0
    for name, arr in like.items():
        views[name] = flat[start:start + arr.size].reshape(arr.shape)
        start += arr.size
    return views


def _batch_gradients(lm: RecurrentLM, batch, flat_grad: np.ndarray, grads) -> float:
    """Mean per-token NLL of ``batch``; its gradients overwrite ``flat_grad``,
    which ``grads`` views tensor by tensor."""
    if not batch:
        raise DegenerateCorpus("empty batch")
    flat_grad.fill(0.0)
    gates = _fuse(lm.params)
    total_nll = 0.0
    total_targets = 0
    for conditioning, tokens in batch:
        fp = _forward_stacked(lm, gates, conditioning, tokens)
        total_nll += fp.nll
        total_targets += len(fp.inputs)
        _backward_stacked(lm, gates, fp, grads)
    loss = total_nll / total_targets
    if not math.isfinite(loss):
        raise NonFiniteLoss("forward pass produced a non-finite loss")
    flat_grad *= 1.0 / total_targets
    return loss


def loss_and_gradients(lm: RecurrentLM, batch):
    """Mean per-token negative log-likelihood and exact parameter gradients.

    ``batch`` is a list of (conditioning, tokens) items.
    """
    flat_grad = np.empty(sum(arr.size for arr in lm.params.values()))
    grads = _views(flat_grad, lm.params)
    return _batch_gradients(lm, batch, flat_grad, grads), grads


@dataclass(frozen=True)
class RnnTrainConfig:
    epochs: int
    learning_rate: float
    clip: float
    seed: int


def train(lm: RecurrentLM, data, config: RnnTrainConfig) -> RecurrentLM:
    """Per-example SGD with global gradient-norm clipping.

    ``data`` is a list of (conditioning, tokens) items; example order is
    reshuffled each epoch from the seed. Per-epoch mean per-token loss is
    stored on the model as ``epoch_losses``. While training, ``lm.params``
    views one flat buffer; on return, or when a caption raises, each tensor
    is its own array again.
    """
    if config.epochs < 1:
        raise MalformedInput("epochs must be >= 1")
    data = list(data)
    if not data:
        raise DegenerateCorpus("no training captions")
    flat_params = np.concatenate([arr.ravel() for arr in lm.params.values()])
    flat_grad = np.empty_like(flat_params)
    grads = _views(flat_grad, lm.params)
    squares = np.empty_like(flat_grad)
    # the clip norm adds up one sum of squares per tensor, in tensor order
    square_parts = [part.ravel() for part in _views(squares, lm.params).values()]
    lm.params = _views(flat_params, lm.params)
    rng = Random(config.seed)
    lm.epoch_losses = []
    try:
        for _ in range(config.epochs):
            order = list(range(len(data)))
            rng.shuffle(order)
            epoch_nll = 0.0
            epoch_tokens = 0
            for idx in order:
                item = data[idx]
                loss = _batch_gradients(lm, [item], flat_grad, grads)
                n_tokens = len(item[1]) + 1
                epoch_nll += loss * n_tokens
                epoch_tokens += n_tokens
                np.multiply(flat_grad, flat_grad, out=squares)
                norm_sq = 0.0
                for part in square_parts:
                    norm_sq += float(np.add.reduce(part))
                norm = math.sqrt(norm_sq)
                scale = config.learning_rate
                if config.clip > 0.0 and norm > config.clip:
                    scale *= config.clip / norm
                flat_grad *= scale
                flat_params -= flat_grad
            lm.epoch_losses.append(epoch_nll / epoch_tokens)
    finally:
        lm.params = {name: arr.copy() for name, arr in lm.params.items()}
    return lm


_GRLM_MAGIC = b"GRLM"
_GRLM_VERSION = 1


def save_recurrent(lm: RecurrentLM, path) -> None:
    """Write the model in the GRLM binary format (see README); atomic."""
    payload = bytearray(_GRLM_MAGIC)
    payload += struct.pack("<I", _GRLM_VERSION)
    payload += pack_str(lm.mode)
    payload += struct.pack(
        "<III",
        lm.config.embed_dim,
        lm.config.hidden_dim,
        lm.config.feature_dim or 0,
    )
    payload += pack_str_list(lm.vocabulary.word_tokens())
    names = sorted(lm.params)
    payload += struct.pack("<I", len(names))
    for name in names:
        arr = lm.params[name]
        payload += pack_str(name)
        payload += struct.pack("<I", arr.ndim)
        for dim in arr.shape:
            payload += struct.pack("<Q", dim)
        payload += pack_f64_array(arr)
    atomic_write_bytes(path, bytes(payload))


def load_recurrent(path) -> RecurrentLM:
    """Read a GRLM file; anything inconsistent in it raises MalformedInput.

    Every tensor's shape is checked against the sizes in the header before
    the model is built, so a damaged header allocates nothing.
    """
    try:
        with open(path, "rb") as fh:
            reader = ByteReader(fh.read(), str(path))
    except OSError as exc:
        raise MalformedInput(f"cannot read model file {path}: {exc}") from exc
    reader.expect_magic(_GRLM_MAGIC)
    (version,) = reader.unpack("<I")
    if version != _GRLM_VERSION:
        raise MalformedInput(f"{path}: unsupported GRLM version {version}")
    mode = reader.read_str()
    if mode not in MODES:
        raise MalformedInput(f"{path}: unknown conditioning mode {mode!r}")
    embed_dim, hidden_dim, feature_dim = reader.unpack("<III")
    if mode == MODE_IMAGE_INITIAL and not feature_dim:
        raise MalformedInput(f"{path}: initial_state mode needs a feature dimension")
    try:
        vocabulary = Vocabulary(reader.read_str_list())
    except ValueError as exc:
        raise MalformedInput(f"{path}: {exc}") from exc
    config = RecurrentConfig(
        mode=mode,
        embed_dim=embed_dim,
        hidden_dim=hidden_dim,
        feature_dim=feature_dim or None,
        seed=0,  # unused: the seed only draws parameters, and the file holds them
    )
    expected = param_shapes(config, len(vocabulary))
    (n_tensors,) = reader.unpack("<I")
    if n_tensors != len(expected):
        raise MalformedInput(f"{path}: {n_tensors} tensors, mode {mode} has {len(expected)}")
    params: dict[str, np.ndarray] = {}
    for _ in range(n_tensors):
        name = reader.read_str()
        if name not in expected or name in params:
            raise MalformedInput(f"{path}: unexpected tensor {name!r} for mode {mode}")
        (ndim,) = reader.unpack("<I")
        shape = expected[name]
        if ndim != len(shape) or reader.unpack("<" + "Q" * ndim) != shape:
            raise MalformedInput(f"{path}: tensor {name} does not have shape {shape}")
        params[name] = reader.read_f64_array(shape)
    reader.expect_end()
    return RecurrentLM(vocabulary, config, {name: params[name] for name in expected})
