"""Gated recurrent language model with two image-conditioning modes.

``initial_state`` projects an image feature vector through a learned layer
to form the initial hidden state, after which the model runs as a plain
recurrent LM. ``auxiliary_vector`` starts from a zero state and instead
augments every step's input with a sigmoid-squashed auxiliary vector built
from the previous word's embedding, the summed embeddings of the detection
words not yet mentioned, and a learned map of the previous hidden state;
the not-yet-mentioned set shrinks as the caption emits detection words.

All gradients are hand-derived backpropagation through time and are
checked against finite differences in the test suite. Training is
single-threaded and bit-reproducible given a seed; a trained model is
immutable in practice and safe to score from many threads.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from random import Random

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
        x, _ = self._step_input(h_prev, prev_id, remaining_ids)
        h = gru_cell(x, h_prev, self.params)
        return h, _log_softmax(h @ self.params["out_w"] + self.params["out_b"])

    def _step_input(self, h_prev, prev_id, remaining_ids):
        emb = self.params["embeddings"][prev_id]
        if self.mode == MODE_IMAGE_INITIAL:
            return emb, None
        det = self.params["det_embeddings"]
        gsum = det[list(remaining_ids)].sum(axis=0) if remaining_ids else np.zeros_like(emb)
        u = emb + gsum + h_prev @ self.params["hist_w"]
        a = _sigmoid(u)
        return np.concatenate([emb, a]), a


def gru_cell(x: np.ndarray, h: np.ndarray, params) -> np.ndarray:
    """One gated-recurrent step.

    z = sigmoid(x Wz + h Uz + bz), r = sigmoid(x Wr + h Ur + br),
    c = tanh(x Wc + (r*h) Uc + bc), h' = (1 - z)*h + z*c.
    """
    x = np.asarray(x, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    wz = params["gru_wz"]
    if x.shape != (wz.shape[0],) or h.shape != (wz.shape[1],):
        raise DimensionMismatch(
            f"gru_cell got x{x.shape}, h{h.shape} for weights {wz.shape}"
        )
    return _gru_step_cached(params, x, h)[0]


def _gru_step_cached(params, x, h):
    """gru_cell without the shape check; returns (h', cache for _gru_backward)."""
    z = _sigmoid(x @ params["gru_wz"] + h @ params["gru_uz"] + params["gru_bz"])
    r = _sigmoid(x @ params["gru_wr"] + h @ params["gru_ur"] + params["gru_br"])
    c = np.tanh(x @ params["gru_wc"] + (r * h) @ params["gru_uc"] + params["gru_bc"])
    h_new = (1.0 - z) * h + z * c
    return h_new, (x, h, z, r, c)


def _gru_backward(params, cache, dh_new, grads):
    """Backprop one GRU step; returns (dx, dh_prev)."""
    x, h, z, r, c = cache
    dz = dh_new * (c - h)
    dc = dh_new * z
    dh = dh_new * (1.0 - z)

    dac = dc * (1.0 - c * c)
    grads["gru_wc"] += np.outer(x, dac)
    grads["gru_uc"] += np.outer(r * h, dac)
    grads["gru_bc"] += dac
    drh = dac @ params["gru_uc"].T
    dr = drh * h
    dh += drh * r

    daz = dz * z * (1.0 - z)
    grads["gru_wz"] += np.outer(x, daz)
    grads["gru_uz"] += np.outer(h, daz)
    grads["gru_bz"] += daz
    dh += daz @ params["gru_uz"].T

    dar = dr * r * (1.0 - r)
    grads["gru_wr"] += np.outer(x, dar)
    grads["gru_ur"] += np.outer(h, dar)
    grads["gru_br"] += dar
    dh += dar @ params["gru_ur"].T

    dx = daz @ params["gru_wz"].T + dar @ params["gru_wr"].T + dac @ params["gru_wc"].T
    return dx, dh


def _forward_cached(lm: RecurrentLM, conditioning, tokens):
    """Run one caption; returns (nll, n_targets, prob_rows, caches, h0_cache)."""
    ids = lm.encode_tokens(tokens)
    targets = ids + [END_ID]
    inputs = [START_ID] + ids
    h, feat = lm.initial_hidden(conditioning)
    h0 = h
    remaining: set[int] = set()
    if lm.mode == MODE_COVERAGE_AUX:
        remaining = set(lm.encode_detections(conditioning))
    out_w, out_b = lm.params["out_w"], lm.params["out_b"]
    caches = []
    prob_rows = np.empty((len(targets), lm.n_out))
    nll = 0.0
    for t, (inp, tgt) in enumerate(zip(inputs, targets)):
        remaining_ids = sorted(remaining) if lm.mode == MODE_COVERAGE_AUX else None
        x, aux = lm._step_input(h, inp, remaining_ids)
        h_new, gru_cache = _gru_step_cached(lm.params, x, h)
        probs = _softmax(h_new @ out_w + out_b)
        prob_rows[t] = probs
        target_idx = tgt - 1
        nll -= math.log(max(probs[target_idx], 1e-300))
        caches.append((gru_cache, probs, target_idx, inp, remaining_ids, aux, h, h_new))
        h = h_new
        if lm.mode == MODE_COVERAGE_AUX:
            remaining.discard(tgt)
    return nll, len(targets), prob_rows, caches, (h0, feat)


def forward(lm: RecurrentLM, conditioning, tokens):
    """Score a caption; returns (per-step probability rows, total log-prob).

    Row t is the distribution over the output tokens before emitting
    target t; targets are the caption tokens followed by END.
    """
    nll, _, prob_rows, _, _ = _forward_cached(lm, conditioning, tokens)
    return prob_rows, -nll


def loss_and_gradients(lm: RecurrentLM, batch):
    """Mean per-token negative log-likelihood and exact parameter gradients.

    ``batch`` is a list of (conditioning, tokens) items.
    """
    if not batch:
        raise DegenerateCorpus("empty batch")
    grads = {k: np.zeros_like(v) for k, v in lm.params.items()}
    params = lm.params
    total_nll = 0.0
    total_targets = 0
    for conditioning, tokens in batch:
        nll, n_targets, _, caches, (h0, feat) = _forward_cached(lm, conditioning, tokens)
        total_nll += nll
        total_targets += n_targets
        d_e = lm.config.embed_dim
        dh = np.zeros(lm.config.hidden_dim)
        for gru_cache, probs, target_idx, inp, remaining_ids, aux, h_prev, h_new in reversed(caches):
            dlogits = probs.copy()
            dlogits[target_idx] -= 1.0
            grads["out_w"] += np.outer(h_new, dlogits)
            grads["out_b"] += dlogits
            dh = dh + dlogits @ params["out_w"].T
            dx, dh_prev = _gru_backward(params, gru_cache, dh, grads)
            if lm.mode == MODE_IMAGE_INITIAL:
                grads["embeddings"][inp] += dx
            else:
                de, da = dx[:d_e], dx[d_e:]
                du = da * aux * (1.0 - aux)
                grads["embeddings"][inp] += de + du
                if remaining_ids:
                    grads["det_embeddings"][remaining_ids] += du
                grads["hist_w"] += np.outer(h_prev, du)
                dh_prev = dh_prev + du @ params["hist_w"].T
            dh = dh_prev
        if lm.mode == MODE_IMAGE_INITIAL:
            dq = dh * (1.0 - h0 * h0)
            grads["img_w"] += np.outer(feat, dq)
            grads["img_b"] += dq
    loss = total_nll / total_targets
    if not math.isfinite(loss):
        raise NonFiniteLoss("forward pass produced a non-finite loss")
    scale = 1.0 / total_targets
    for key in grads:
        grads[key] *= scale
    return loss, grads


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
    stored on the model as ``epoch_losses``.
    """
    if config.epochs < 1:
        raise MalformedInput("epochs must be >= 1")
    data = list(data)
    if not data:
        raise DegenerateCorpus("no training captions")
    rng = Random(config.seed)
    lm.epoch_losses = []
    for _ in range(config.epochs):
        order = list(range(len(data)))
        rng.shuffle(order)
        epoch_nll = 0.0
        epoch_tokens = 0
        for idx in order:
            item = data[idx]
            loss, grads = loss_and_gradients(lm, [item])
            n_tokens = len(item[1]) + 1
            epoch_nll += loss * n_tokens
            epoch_tokens += n_tokens
            norm_sq = 0.0
            for g in grads.values():
                norm_sq += float(np.sum(g * g))
            norm = math.sqrt(norm_sq)
            scale = config.learning_rate
            if config.clip > 0.0 and norm > config.clip:
                scale *= config.clip / norm
            for key, g in grads.items():
                lm.params[key] -= scale * g
        lm.epoch_losses.append(epoch_nll / epoch_tokens)
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
