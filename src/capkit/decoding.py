"""Beam-search decoding over any next-word scorer, plain or coverage-constrained.

The search is length-synchronous: at every step each live hypothesis is
expanded over the full candidate set and the best ``beam_size`` expansions
overall are kept; those ending in END retire into the n-best pool (so a
beam of one is exactly greedy decoding) and the rest stay live. Ties are
broken by the candidate-index sequence, so decoding is fully
deterministic. Each step stacks the live hypotheses' scores into one
matrix, partitions out the ``beam_size``-th best score and orders only the
expansions at or above it, so the Python work per step grows with the beam
rather than with beam × vocabulary. In coverage mode each hypothesis
tracks the detected words it has not yet mentioned, starting from
``corpus.coverable`` (words the scorer cannot emit can never be covered,
so they are left out, as in training); END only becomes admissible once
the mentioned count reaches ``min_coverage``.

A scorer provides two methods (duck-typed, see MaxEntScorer and
RecurrentScorer): ``start(conditioning)`` builds an opaque state, and
``logprobs(state, remaining)`` returns ``(logprobs, successor)``, the
log-probabilities aligned with ``scorer.candidates`` (END included) and a
function mapping an emitted token to the next state without further model
work. So each decoded position costs one model evaluation, in search and
in ``sequence_logprob`` alike, and ``rescore_logprob`` evaluates each
distinct prefix of an n-best list once. Decoding never mutates the model,
so one model may serve many images concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .corpus import END_TOKEN, START_ID, UNK_TOKEN, coverable
from .errors import DimensionMismatch, InputDataError, NonFiniteLogProb, ToolkitError

if TYPE_CHECKING:
    from .maxent import MaxEntLM
    from .recurrent import RecurrentLM


@dataclass(frozen=True)
class BeamHypothesis:
    """One search hypothesis: live while unfinished, retired once END is emitted.

    ``key`` is the candidate-index sequence used for deterministic
    tie-breaking and ``state`` the scorer's opaque per-hypothesis state
    (None once finished).
    """

    tokens: tuple[str, ...]
    logprob: float
    remaining: frozenset[str]
    key: tuple[int, ...] = ()
    state: object = None


@dataclass(frozen=True)
class DecodedHypothesis:
    """A finished (or best-effort partial) caption with its named feature values."""

    tokens: tuple[str, ...]
    features: dict[str, float]


@dataclass
class NBestList:
    """Ranked hypotheses for one image with shared named feature rows.

    ``complete`` is False when no hypothesis reached END (or coverage) in
    time and the entries are best-effort partials.
    """

    image_id: int
    hypotheses: list[DecodedHypothesis] = field(default_factory=list)
    complete: bool = True


class MaxEntScorer:
    """Adapts a MaxEntLM to the decoder interface (state = history tuple)."""

    def __init__(self, lm: MaxEntLM):
        self.lm = lm
        self.candidates = lm.candidate_tokens()

    def start(self, conditioning):
        return ()

    def logprobs(self, history, remaining):
        lps = self.lm.logprobs(list(history), remaining or frozenset())
        return lps, lambda token: history + (token,)


class RecurrentScorer:
    """Adapts a RecurrentLM to the decoder interface.

    State is (hidden vector, previous token id). In auxiliary mode each
    step reads the remaining set; in initial_state mode it is ignored and
    ``start`` expects the image feature vector.
    """

    def __init__(self, lm: RecurrentLM):
        self.lm = lm
        vocab = lm.vocabulary
        self.candidates = vocab.candidate_tokens()

    def start(self, conditioning):
        h0, _ = self.lm.initial_hidden(conditioning)
        return (h0, START_ID)

    def logprobs(self, state, remaining):
        h_prev, prev_id = state
        h, lps = self.lm.step(h_prev, prev_id, self.lm.coverage_ids(remaining))
        return lps, lambda token: (h, self.lm.vocabulary.lookup(token))


def _search(scorer, conditioning, beam_size, max_len, n_best, detections, min_coverage,
            image_id):
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if n_best < 1:
        raise ValueError("n_best must be >= 1")
    coverage_mode = detections is not None
    candidates = scorer.candidates
    index_of = _candidate_index(scorer)
    detected = coverable(detections, index_of)
    if coverage_mode:
        if min_coverage is None:
            min_coverage = min(len(detected), max_len - 1)
        if min_coverage > len(detected):
            raise InputDataError(
                f"image {image_id}: min_coverage {min_coverage} exceeds "
                f"detection count {len(detected)}"
            )
    if END_TOKEN not in index_of:
        raise ToolkitError("scorer candidates must include the END token")
    end_index = index_of[END_TOKEN]

    width = len(candidates)
    live = [BeamHypothesis((), 0.0, detected, state=scorer.start(conditioning))]
    pool: list[BeamHypothesis] = []
    for _ in range(max_len):
        scores = np.empty((len(live), width))
        successors = []
        for row, hyp in enumerate(live):
            lps, successor = scorer.logprobs(hyp.state, hyp.remaining if coverage_mode else None)
            lps = np.asarray(lps, dtype=np.float64)
            if lps.shape != (width,):
                raise DimensionMismatch(
                    f"image {image_id}: scorer returned {lps.shape} log-probabilities "
                    f"for {width} candidates"
                )
            scores[row] = lps
            successors.append(successor)
        scores += np.array([hyp.logprob for hyp in live])[:, None]
        if np.isnan(scores).any():
            raise NonFiniteLogProb(f"image {image_id}: NaN expansion score")
        end_ok = np.array([(not coverage_mode)
                           or len(detected) - len(hyp.remaining) >= min_coverage
                           for hyp in live])
        scores[~end_ok, end_index] = -np.inf
        # Keep every expansion tied with the beam_size-th best score, so the
        # (score, key) order below decides the boundary, not the partition.
        flat = scores.ravel()
        boundary = max(flat.size - beam_size, 0)
        cut = np.partition(flat, boundary)[boundary]
        kept = np.flatnonzero(flat >= cut)
        rows, cis = np.divmod(kept, width)
        admissible = (cis != end_index) | end_ok[rows]
        kept, rows, cis = kept[admissible], rows[admissible], cis[admissible]
        if kept.size == 0:
            break
        # All live keys have one length, so hyp.key + (ci,) sorts as (key rank, ci).
        key_rank = np.empty(len(live), dtype=np.int64)
        key_rank[sorted(range(len(live)), key=lambda r: live[r].key)] = np.arange(len(live))
        order = np.lexsort((cis, key_rank[rows], -flat[kept]))[:beam_size]
        new_live: list[BeamHypothesis] = []
        for row, ci, logprob in zip(rows[order].tolist(), cis[order].tolist(),
                                    flat[kept[order]].tolist()):
            hyp = live[row]
            key = hyp.key + (ci,)
            if ci == end_index:
                pool.append(BeamHypothesis(hyp.tokens, logprob, hyp.remaining, key=key))
            else:
                token = candidates[ci]
                new_live.append(
                    BeamHypothesis(hyp.tokens + (token,), logprob,
                                   hyp.remaining - {token}, key=key,
                                   state=successors[row](token))
                )
        live = new_live
        if not live:
            break

    def to_decoded(hyp: BeamHypothesis) -> DecodedHypothesis:
        row = {"logprob": float(hyp.logprob), "length": float(len(hyp.tokens))}
        if coverage_mode:
            row["covered"] = float(len(detected) - len(hyp.remaining))
        return DecodedHypothesis(hyp.tokens, row)

    if pool:
        pool.sort(key=lambda h: (-h.logprob, h.key))
        return NBestList(image_id, [to_decoded(h) for h in pool[:n_best]], complete=True)
    return NBestList(image_id, [to_decoded(h) for h in live[:n_best]], complete=False)


def nbest_sizes(nbests, requested: int) -> str:
    """Smallest..largest realized n-best size; at most beam_size * max_len finish."""
    sizes = [len(nb.hypotheses) for nb in nbests] or [0]
    return f"n-best sizes {min(sizes)}..{max(sizes)} of {requested} requested"


def beam_search(scorer, conditioning, beam_size: int, max_len: int, n_best: int,
                image_id: int = 0) -> NBestList:
    """Plain beam search; emits up to ``max_len`` tokens, END included.

    When no hypothesis produces END within ``max_len`` steps, the best
    partials are returned with ``complete=False``.
    """
    return _search(scorer, conditioning, beam_size, max_len, n_best,
                   detections=None, min_coverage=None, image_id=image_id)


def coverage_beam_search(scorer, detections, beam_size: int, max_len: int, n_best: int,
                         min_coverage: int | None, image_id: int = 0) -> NBestList:
    """Beam search that must mention at least ``min_coverage`` of the set ``detections``.

    Each hypothesis tracks the words of ``corpus.coverable`` that it has
    not yet emitted, and the scorer sees that set every step; END is only
    admissible once enough words are covered.
    ``min_coverage`` None means all of those words, capped at
    ``max_len - 1``; a value above the number of those words (the
    "detection count" of the error) raises InputDataError. Feature rows
    gain a ``covered`` column. If coverage is unreachable within
    ``max_len``, best-effort partials come back with ``complete=False``.
    """
    return _search(scorer, detections, beam_size, max_len, n_best,
                   detections=detections, min_coverage=min_coverage,
                   image_id=image_id)


def sequence_logprob(scorer, conditioning, tokens) -> float:
    """Total log-probability of ``tokens`` followed by END under ``scorer``.

    A frozenset ``conditioning``, the image's detected words, gives the
    scorer the words of ``corpus.coverable`` not yet emitted, exactly as
    coverage search does; otherwise the remaining set is None. Tokens outside
    ``scorer.candidates`` score as UNK.
    """
    index_of = _candidate_index(scorer)
    unk_index = index_of.get(UNK_TOKEN)
    coverage = isinstance(conditioning, frozenset)
    remaining = coverable(conditioning, index_of) if coverage else None
    state = scorer.start(conditioning)
    total = 0.0
    for token in tokens:
        lps, successor = scorer.logprobs(state, remaining)
        total += float(lps[index_of.get(token, unk_index)])
        state = successor(token)
        if coverage:
            remaining = remaining - {token}
    lps, _ = scorer.logprobs(state, remaining)
    return total + float(lps[index_of[END_TOKEN]])


def _candidate_index(scorer) -> dict[str, int]:
    return {tok: i for i, tok in enumerate(scorer.candidates)}


def rescore_logprob(nbest: NBestList, scorer, conditioning, feature_name: str) -> NBestList:
    """Add a feature column with another model's log-probability per hypothesis.

    ``conditioning`` is the image's feature vector or detected words, as the
    scorer's model was trained; each value equals ``sequence_logprob`` of
    its hypothesis. The list is walked depth first as a trie of token
    prefixes, children in the order the hypotheses first reach them, so the
    scorer runs once per distinct prefix and each path adds up its terms in
    the order ``sequence_logprob`` does.
    """
    index_of = _candidate_index(scorer)
    unk_index = index_of.get(UNK_TOKEN)
    end_index = index_of[END_TOKEN]
    coverage = isinstance(conditioning, frozenset)
    # trie node: ({token: child node}, indices of the hypotheses ending here)
    root: tuple[dict, list[int]] = ({}, [])
    for i, hyp in enumerate(nbest.hypotheses):
        node = root
        for token in hyp.tokens:
            node = node[0].setdefault(token, ({}, []))
        node[1].append(i)
    totals = [0.0] * len(nbest.hypotheses)
    remaining = coverable(conditioning, index_of) if coverage else None
    stack = [(root, scorer.start(conditioning), 0.0, remaining)] if totals else []
    while stack:
        (children, ending), state, total, remaining = stack.pop()
        lps, successor = scorer.logprobs(state, remaining)
        for i in ending:
            totals[i] = total + float(lps[end_index])
        for token, child in reversed(children.items()):
            stack.append((child, successor(token),
                          total + float(lps[index_of.get(token, unk_index)]),
                          remaining - {token} if coverage else None))
    rescored = []
    for hyp, total in zip(nbest.hypotheses, totals):
        row = dict(hyp.features)
        row[feature_name] = total
        rescored.append(DecodedHypothesis(hyp.tokens, row))
    return NBestList(nbest.image_id, rescored, complete=nbest.complete)
