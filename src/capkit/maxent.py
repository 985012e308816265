"""Detection-conditioned log-linear next-word model trained with SGD.

A candidate's score is the sum of four weights, one per template, added in
this order: its unigram weight, its weight in the bigram row of the
previous token, its weight in the trigram row of the previous two tokens
(history padded with the start token), and one of four coverage scalars:
``hit`` or ``miss`` for whether a word candidate is still in the remaining
detection set, ``end_done`` or ``end_pending`` for END by whether that set
is empty. The weights are dense rows indexed by candidate: one unigram
vector, one bigram row per context seen in training and one trigram row
per seen (h2, h1) context; an unseen context reads as a row of zeros.
There is no feature hashing, so no two weights collide.

Training is plain SGD with L2 decay applied per event to the rows and
scalars the event touches. An event touches every candidate's unigram,
bigram and trigram weight for its context, so a stored row holds exactly
the weights training has touched.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from random import Random

import numpy as np

from ._binio import ByteReader, atomic_write_bytes, pack_str_list, read_file
from .corpus import END_TOKEN, START_ID, Vocabulary, coverable
from .errors import DegenerateCorpus, MalformedInput, NonFiniteLoss

# Slots of MaxEntLM.coverage.
HIT, MISS, END_DONE, END_PENDING = range(4)


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis (each row of a matrix)."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max()
    return shifted - math.log(np.exp(shifted).sum())


class MaxEntLM:
    """Log-linear next-word model over a vocabulary plus the END token.

    ``unigram`` has one weight per candidate token; ``bigram`` maps a
    context token id h1 and ``trigram`` a context (h2, h1) to such a row;
    ``coverage`` holds the four coverage scalars in slot order HIT, MISS,
    END_DONE, END_PENDING.
    """

    def __init__(self, vocabulary: Vocabulary, l2: float):
        self.vocabulary = vocabulary
        self.l2 = float(l2)
        self._candidates = vocabulary.candidate_tokens()
        self._candidate_index = {tok: i for i, tok in enumerate(self._candidates)}
        width = len(self._candidates)
        self.unigram = np.zeros(width)
        self.coverage = np.zeros(4)
        self.bigram: dict[int, np.ndarray] = {}
        self.trigram: dict[tuple[int, int], np.ndarray] = {}
        self._zeros = np.zeros(width)

    def candidate_tokens(self) -> list[str]:
        """Emittable tokens in id order (END, UNK, then words)."""
        return list(self._candidates)

    def _condition(self, history, remaining):
        """(h2, h1, slots) for scoring the next token.

        h2 and h1 are the context token ids (start-padded, out-of-vocabulary
        tokens read as UNK); ``slots[i]`` is the coverage slot candidate i
        reads: END_DONE or END_PENDING for END by whether ``remaining`` is
        empty, HIT or MISS for a word by whether it is in ``remaining``.
        """
        lookup = self.vocabulary.lookup
        h1 = lookup(history[-1]) if len(history) >= 1 else START_ID
        h2 = lookup(history[-2]) if len(history) >= 2 else START_ID
        index = self._candidate_index
        slots = np.full(len(self._candidates), MISS, dtype=np.intp)
        slots[[index[tok] for tok in remaining if tok in index]] = HIT
        slots[0] = END_PENDING if remaining else END_DONE
        return h2, h1, slots

    def _scores(self, h2, h1, slots) -> np.ndarray:
        return (
            self.unigram
            + self.bigram.get(h1, self._zeros)
            + self.trigram.get((h2, h1), self._zeros)
            + self.coverage[slots]
        )

    def logprobs(self, history, remaining) -> np.ndarray:
        """Log-probabilities aligned with candidate_tokens()."""
        return _log_softmax(self._scores(*self._condition(history, remaining)))


def _event_nll_and_grad(lm: MaxEntLM, condition, target: int):
    """Negative log-likelihood of one next-word event and its gradient.

    ``condition`` comes from ``MaxEntLM._condition`` and ``target`` is a
    candidate index. Returns ``(nll, row_grad, coverage_grad)``: ``row_grad``
    is d(nll)/d(weight) for each entry of the unigram vector, and equally of
    the event's bigram and trigram rows; ``coverage_grad`` holds the
    derivative for each coverage slot, summed over the candidates that read
    it in candidate order (0.0 for a slot no candidate reads).
    Regularization is not included here.
    """
    slots = condition[2]
    probs = _softmax(lm._scores(*condition))
    nll = -math.log(max(probs[target], 1e-300))
    grad = probs.copy()
    grad[target] -= 1.0
    # bincount adds the weights in index order, one at a time
    coverage_grad = np.bincount(slots, weights=probs, minlength=4)
    coverage_grad[slots[target]] -= 1.0
    return nll, grad, coverage_grad


@dataclass(frozen=True)
class MaxEntTrainConfig:
    epochs: int
    learning_rate: float
    l2: float
    seed: int


def _training_events(lm: MaxEntLM, record, detections, conditions: dict):
    """(condition key, target index) pairs for one caption, END included.

    The remaining set starts as ``corpus.coverable`` of the detections, as
    in decoding. ``conditions`` maps each key, the last two history tokens
    and the remaining set, to its condition.
    """
    mapped = lm.vocabulary.map_tokens(record.tokens)
    remaining = set(coverable(detections, lm.vocabulary))
    events = []
    history: list[str] = []
    for target in [*mapped, END_TOKEN]:
        key = (*history[-2:], frozenset(remaining))
        if key not in conditions:
            conditions[key] = lm._condition(history, remaining)
        events.append((key, lm._candidate_index[target]))
        remaining.discard(target)
        history.append(target)
    return events


def train_maxent(pairs, config: MaxEntTrainConfig, vocabulary: Vocabulary) -> MaxEntLM:
    """Train a MaxEntLM over ``vocabulary`` on (CaptionRecord, detected words or None) pairs.

    Plain SGD with a fixed learning rate and L2 decay on the rows and
    coverage scalars each event touches; example order is reshuffled per
    epoch from the seed, so results are bit-reproducible. Per-epoch mean NLL
    is stored on the returned model as ``epoch_losses``.
    """
    if config.epochs < 1:
        raise MalformedInput("epochs must be >= 1")
    pairs = list(pairs)
    if not pairs:
        raise DegenerateCorpus("no training captions")
    lm = MaxEntLM(vocabulary, l2=config.l2)
    conditions: dict = {}
    events_per_pair = [_training_events(lm, rec, det, conditions) for rec, det in pairs]
    if not any(events_per_pair):
        raise DegenerateCorpus("no training events")

    # One weight matrix: the unigram vector, then a row per bigram and per
    # trigram context of the training events; the model's rows are views.
    bigrams = sorted({h1 for _, h1, _ in conditions.values()})
    trigrams = sorted({(h2, h1) for h2, h1, _ in conditions.values()})
    weights = np.zeros((1 + len(bigrams) + len(trigrams), len(lm.unigram)))
    row_of = {h1: 1 + i for i, h1 in enumerate(bigrams)}
    row_of.update({ctx: 1 + len(bigrams) + i for i, ctx in enumerate(trigrams)})
    lm.unigram = weights[0]
    lm.bigram = {h1: weights[row_of[h1]] for h1 in bigrams}
    lm.trigram = {ctx: weights[row_of[ctx]] for ctx in trigrams}
    # per condition: the weight rows and the coverage slots its event touches
    plans = {
        key: (condition, np.array([0, row_of[condition[1]], row_of[condition[:2]]]),
              np.bincount(condition[2], minlength=4) > 0)
        for key, condition in conditions.items()
    }
    events_per_pair = [
        [(plans[key], target) for key, target in events] for events in events_per_pair
    ]

    rng = Random(config.seed)
    lr = config.learning_rate
    l2 = config.l2
    coverage = lm.coverage
    lm.epoch_losses = []
    for _ in range(config.epochs):
        order = list(range(len(events_per_pair)))
        rng.shuffle(order)
        total_nll = 0.0
        count = 0
        for idx in order:
            for (condition, rows, used), target in events_per_pair[idx]:
                nll, grad, coverage_grad = _event_nll_and_grad(lm, condition, target)
                if not math.isfinite(nll):
                    raise NonFiniteLoss("training produced a non-finite loss")
                total_nll += nll
                count += 1
                current = weights[rows]
                weights[rows] = current - lr * (grad + l2 * current)
                np.subtract(coverage, lr * (coverage_grad + l2 * coverage),
                            out=coverage, where=used)
        lm.epoch_losses.append(total_nll / count)
    return lm


_MELM_MAGIC = b"MELM"
_MELM_VERSION = 2


def save_maxent(lm: MaxEntLM, path) -> None:
    """Write the model in the MELM v2 binary format (see README); atomic."""
    payload = bytearray(_MELM_MAGIC)
    payload += struct.pack("<Id", _MELM_VERSION, lm.l2)
    payload += pack_str_list(lm.vocabulary.word_tokens())
    payload += struct.pack("<I", len(lm.unigram))
    payload += lm.unigram.astype("<f8").tobytes()
    payload += lm.coverage.astype("<f8").tobytes()
    for rows in (lm.bigram, lm.trigram):
        contexts = sorted(rows)
        payload += struct.pack("<Q", len(contexts))
        payload += np.array(contexts, dtype="<u4").tobytes()
        for context in contexts:
            payload += rows[context].astype("<f8").tobytes()
    atomic_write_bytes(path, bytes(payload))


def _read_rows(reader: ByteReader, n_ids: int, n_tokens: int, width: int) -> dict:
    """One context block: a u64 count, each context's ``n_ids`` u32 token
    ids (contexts in ascending order), then one row of ``width`` weights per
    context."""
    (count,) = reader.unpack("<Q")
    ids = np.frombuffer(reader.take(4 * n_ids * count), dtype="<u4")
    ids = ids.astype(np.int64).reshape(count, n_ids)
    rows = reader.read_f64_array((count, width))
    if count and ids.max() >= n_tokens:
        raise MalformedInput(f"{reader.label}: context token id out of vocabulary")
    keys = ids @ (n_tokens ** np.arange(n_ids - 1, -1, -1))
    if np.any(np.diff(keys) <= 0):
        raise MalformedInput(f"{reader.label}: contexts not in ascending order")
    if n_ids == 1:
        return {int(h1): row for (h1,), row in zip(ids, rows)}
    return {(int(h2), int(h1)): row for (h2, h1), row in zip(ids, rows)}


def load_maxent(path) -> MaxEntLM:
    reader = ByteReader(read_file(path, "model file", binary=True), str(path))
    reader.expect_magic(_MELM_MAGIC)
    (version,) = reader.unpack("<I")
    if version != _MELM_VERSION:
        raise MalformedInput(
            f"{path}: unsupported MELM version {version} (this build reads "
            f"version {_MELM_VERSION}); retrain the model with `capkit train-me`"
        )
    (l2,) = reader.unpack("<d")
    words = reader.read_str_list()
    try:
        vocabulary = Vocabulary(words)
    except ValueError as exc:
        raise MalformedInput(f"{path}: {exc}") from exc
    lm = MaxEntLM(vocabulary, l2=l2)
    (width,) = reader.unpack("<I")
    if width != len(lm.unigram):
        raise MalformedInput(
            f"{path}: rows of {width} weights disagree with the vocabulary's "
            f"{len(lm.unigram)} candidates"
        )
    lm.unigram = reader.read_f64_array((width,))
    lm.coverage = reader.read_f64_array((4,))
    lm.bigram = _read_rows(reader, 1, len(vocabulary), width)
    lm.trigram = _read_rows(reader, 2, len(vocabulary), width)
    reader.expect_end()
    return lm
