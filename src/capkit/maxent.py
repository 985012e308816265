"""Detection-conditioned log-linear next-word model trained with SGD.

Candidate scores are sums of hashed feature weights over a fixed template
set: n-gram identity up to trigrams (history padded with the start token),
one indicator for whether the candidate is still in the remaining
detection set, and a pair of end-of-sentence indicators keyed on whether
the remaining set is empty. Feature ids are stable 64-bit hashes, so
models serialize and reload across platforms; hash collisions are accepted
as ordinary feature hashing.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from random import Random

import numpy as np

from ._binio import ByteReader, atomic_write_bytes, pack_str_list
from .corpus import END_TOKEN, START_TOKEN, Vocabulary, build_vocabulary
from .errors import DegenerateCorpus, MalformedInput, NonFiniteLoss

FEATURE_TEMPLATES = (
    "unigram",
    "bigram",
    "trigram",
    "coverage_hit",
    "coverage_miss",
    "end_done",
    "end_pending",
)


@lru_cache(maxsize=None)
def _fid(*parts: str) -> int:
    key = "\x1f".join(parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def extract_features(history, candidate: str, remaining) -> tuple[int, ...]:
    """Stable feature ids for scoring ``candidate`` after ``history``.

    ``remaining`` is the set of detection words not yet mentioned. The
    history is padded with start tokens, so the first steps produce
    start-anchored bigram/trigram features.
    """
    h1 = history[-1] if len(history) >= 1 else START_TOKEN
    h2 = history[-2] if len(history) >= 2 else START_TOKEN
    if candidate == END_TOKEN:
        coverage = _fid("end_done") if not remaining else _fid("end_pending")
    else:
        coverage = _fid("coverage_hit") if candidate in remaining else _fid("coverage_miss")
    return (
        _fid("unigram", candidate),
        _fid("bigram", h1, candidate),
        _fid("trigram", h2, h1, candidate),
        coverage,
    )


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max()
    return shifted - math.log(np.exp(shifted).sum())


class MaxEntLM:
    """Log-linear next-word model over a vocabulary plus the END token."""

    def __init__(self, vocabulary: Vocabulary, l2: float = 0.0, weights=None):
        self.vocabulary = vocabulary
        self.l2 = float(l2)
        self.weights: dict[int, float] = dict(weights) if weights else {}
        self._candidates = vocabulary.candidate_tokens()
        self._candidate_index = {tok: i for i, tok in enumerate(self._candidates)}

    def candidate_tokens(self) -> list[str]:
        """Emittable tokens in id order (END, UNK, then words)."""
        return list(self._candidates)

    def _candidate_features(self, history, remaining) -> list[tuple[int, ...]]:
        return [extract_features(history, cand, remaining) for cand in self._candidates]

    def _scores(self, feature_sets) -> np.ndarray:
        weights = self.weights
        return np.array(
            [sum(weights.get(f, 0.0) for f in feats) for feats in feature_sets],
            dtype=np.float64,
        )

    def logprobs(self, history, remaining) -> np.ndarray:
        """Log-probabilities aligned with candidate_tokens()."""
        history = self.vocabulary.map_tokens(history)
        return _log_softmax(self._scores(self._candidate_features(history, remaining)))


def _event_nll_and_grad(lm: MaxEntLM, history, target: str, remaining):
    """Negative log-likelihood of one next-word event and its gradient.

    The gradient maps feature id to d(nll)/d(weight); regularization is not
    included here.
    """
    feature_sets = lm._candidate_features(history, remaining)
    scores = lm._scores(feature_sets)
    probs = _softmax(scores)
    target_idx = lm._candidate_index[target]
    nll = -math.log(max(probs[target_idx], 1e-300))
    grad: dict[int, float] = {}
    for feats, p in zip(feature_sets, probs):
        for f in feats:
            grad[f] = grad.get(f, 0.0) + float(p)
    for f in feature_sets[target_idx]:
        grad[f] -= 1.0
    return nll, grad


@dataclass(frozen=True)
class MaxEntTrainConfig:
    epochs: int = 10
    learning_rate: float = 0.1
    l2: float = 1e-6
    seed: int = 0
    min_count: int = 1


def _training_events(record, detections, vocabulary):
    """(history, target, remaining) triples for one caption, END included."""
    mapped = vocabulary.map_tokens(record.tokens)
    remaining = set(detections.tokens()) if detections is not None else set()
    events = []
    history: list[str] = []
    for target in [*mapped, END_TOKEN]:
        events.append((tuple(history), target, frozenset(remaining)))
        remaining.discard(target)
        history.append(target)
    return events


def train_maxent(pairs, config: MaxEntTrainConfig | None = None,
                 vocabulary: Vocabulary | None = None) -> MaxEntLM:
    """Train a MaxEntLM on (CaptionRecord, DetectionSet-or-None) pairs.

    Plain SGD with a fixed learning rate and sparse L2 decay on the
    features active in each event; example order is reshuffled per epoch
    from the seed, so results are bit-reproducible. Per-epoch mean NLL is
    stored on the returned model as ``epoch_losses``.
    """
    config = config or MaxEntTrainConfig()
    if config.epochs < 1:
        raise MalformedInput("epochs must be >= 1")
    pairs = list(pairs)
    if not pairs:
        raise DegenerateCorpus("no training captions")
    if vocabulary is None:
        vocabulary = build_vocabulary([rec for rec, _ in pairs], config.min_count)
    lm = MaxEntLM(vocabulary, l2=config.l2)
    events_per_pair = [
        _training_events(rec, det, vocabulary) for rec, det in pairs
    ]
    if not any(events_per_pair):
        raise DegenerateCorpus("no training events")
    rng = Random(config.seed)
    lr = config.learning_rate
    lm.epoch_losses = []
    for _ in range(config.epochs):
        order = list(range(len(events_per_pair)))
        rng.shuffle(order)
        total_nll = 0.0
        count = 0
        for idx in order:
            for history, target, remaining in events_per_pair[idx]:
                nll, grad = _event_nll_and_grad(lm, history, target, remaining)
                if not math.isfinite(nll):
                    raise NonFiniteLoss("training produced a non-finite loss")
                total_nll += nll
                count += 1
                weights = lm.weights
                for f, g in grad.items():
                    w = weights.get(f, 0.0)
                    weights[f] = w - lr * (g + config.l2 * w)
        lm.epoch_losses.append(total_nll / count)
    return lm


_MELM_MAGIC = b"MELM"
_MELM_VERSION = 1


def save_maxent(lm: MaxEntLM, path) -> None:
    """Write the model in the MELM binary format (see README); atomic."""
    payload = bytearray(_MELM_MAGIC)
    payload += struct.pack("<I", _MELM_VERSION)
    payload += struct.pack("<d", lm.l2)
    payload += pack_str_list(lm.vocabulary.word_tokens())
    payload += pack_str_list(list(FEATURE_TEMPLATES))
    items = sorted(lm.weights.items())
    payload += struct.pack("<Q", len(items))
    for fid, weight in items:
        payload += struct.pack("<Qd", fid, weight)
    atomic_write_bytes(path, bytes(payload))


def load_maxent(path) -> MaxEntLM:
    try:
        with open(path, "rb") as fh:
            reader = ByteReader(fh.read(), str(path))
    except OSError as exc:
        raise MalformedInput(f"cannot read model file {path}: {exc}") from exc
    reader.expect_magic(_MELM_MAGIC)
    (version,) = reader.unpack("<I")
    if version != _MELM_VERSION:
        raise MalformedInput(f"{path}: unsupported MELM version {version}")
    (l2,) = reader.unpack("<d")
    words = reader.read_str_list()
    templates = tuple(reader.read_str_list())
    if templates != FEATURE_TEMPLATES:
        raise MalformedInput(f"{path}: unknown feature template registry {templates}")
    (n_weights,) = reader.unpack("<Q")
    weights = {}
    for _ in range(n_weights):
        fid, weight = reader.unpack("<Qd")
        weights[fid] = weight
    reader.expect_end()
    return MaxEntLM(Vocabulary(words), l2=l2, weights=weights)
