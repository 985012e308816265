"""Minimum-error-rate training over n-best feature rows, maximizing corpus BLEU.

Along one feature direction every hypothesis score is a line
``offset + gamma * slope`` (offset: score under the other weights, slope:
that feature's value), so the best hypothesis as a function of gamma is
the upper envelope of lines. Merging the per-sentence envelope boundaries
gives the finitely many intervals on which the corpus selection is
constant; corpus BLEU is evaluated once per interval through additive
statistics and the midpoint of the best interval becomes the new weight.
Coordinate passes repeat until no direction improves BLEU by more than
``MIN_GAIN``; seeded random restarts guard against local optima and the
best weights across restarts (never worse than the initial point) win.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decoding import DecodedHypothesis, NBestList
from .errors import EmptyNBest, MissingReferences, SchemaMismatch
from .metrics import BleuStats, bleu_from_stats, bleu_stats


@dataclass(frozen=True)
class EnvelopeSegment:
    """One interval of the upper envelope: ``winner`` is best on (lo, hi)."""

    lo: float
    hi: float
    winner: int


def _line_params(rows, base_weights, direction):
    lines = []
    for idx, row in enumerate(rows):
        slope = float(row[direction])
        offset = sum(float(w) * float(row[name])
                     for name, w in base_weights.items() if name != direction)
        lines.append((slope, offset, idx))
    return lines


def line_envelope(rows, base_weights, direction: str) -> list[EnvelopeSegment]:
    """Upper envelope of the hypothesis score lines along one feature.

    ``rows`` are feature mappings sharing a schema that contains
    ``direction``. Segments partition the real line left to right; exact
    ties prefer the lower hypothesis index.
    """
    rows = list(rows)
    if not rows:
        raise EmptyNBest("envelope of an empty n-best list")
    lines = sorted(_line_params(rows, base_weights, direction),
                   key=lambda l: (l[0], -l[1], l[2]))
    hull: list[tuple[float, float, int, float]] = []  # slope, offset, idx, start
    for slope, offset, idx in lines:
        if hull and slope == hull[-1][0]:
            continue  # same slope with offset <= current best: never wins
        while hull:
            top_slope, top_offset, _, top_start = hull[-1]
            cross = (top_offset - offset) / (slope - top_slope)
            if cross <= top_start:
                hull.pop()
            else:
                break
        start = float("-inf") if not hull else cross
        hull.append((slope, offset, idx, start))
    segments = []
    for pos, (_, _, idx, start) in enumerate(hull):
        hi = hull[pos + 1][3] if pos + 1 < len(hull) else float("inf")
        segments.append(EnvelopeSegment(start, hi, idx))
    return segments


def _check_schema(nbests, init):
    schema = frozenset(init)
    for nb in nbests:
        if not nb.hypotheses:
            raise EmptyNBest(f"image {nb.image_id} has an empty n-best list")
        for hyp in nb.hypotheses:
            if not schema <= frozenset(hyp.features):
                raise SchemaMismatch(
                    f"image {nb.image_id}: feature row {sorted(hyp.features)} "
                    f"lacks weights schema {sorted(schema)}"
                )
    return schema


def _argmax_index(nbest: NBestList, weights) -> int:
    schema = frozenset(weights)
    best_idx = 0
    best_score = -math.inf
    for idx, hyp in enumerate(nbest.hypotheses):
        if not schema <= frozenset(hyp.features):
            raise SchemaMismatch(
                f"image {nbest.image_id}: feature row {sorted(hyp.features)} "
                f"lacks weights schema {sorted(schema)}"
            )
        score = sum(float(w) * float(hyp.features[name]) for name, w in weights.items())
        if score > best_score:
            best_score = score
            best_idx = idx
    return best_idx


def apply_weights(nbest: NBestList, weights) -> DecodedHypothesis:
    """Hypothesis maximizing the weighted feature sum; ties keep the lower rank."""
    if not nbest.hypotheses:
        raise EmptyNBest(f"image {nbest.image_id} has an empty n-best list")
    return nbest.hypotheses[_argmax_index(nbest, weights)]


# A coordinate step is taken only when it raises BLEU by more than
# MIN_GAIN; restart r > 0 starts from the initial weights plus
# PERTURBATION times a standard normal draw per feature.
MIN_GAIN = 1e-6
PERTURBATION = 1.0


@dataclass(frozen=True)
class MertConfig:
    restarts: int
    max_iters: int
    seed: int


def initial_weights(feature_names) -> dict[str, float]:
    """MERT's starting point: 1.0 for the first listed feature, 0.0 for the rest."""
    return {name: (1.0 if i == 0 else 0.0) for i, name in enumerate(feature_names)}


def _selection_bleu(nbests, hyp_stats, weights):
    total = BleuStats()
    for nb_idx, nb in enumerate(nbests):
        total = total + hyp_stats[nb_idx][_argmax_index(nb, weights)]
    return bleu_from_stats(total)


def _best_step(nbests, hyp_stats, weights, direction):
    """Best (bleu, gamma) along ``direction``; None when nothing can change."""
    winners = []
    events = []  # (gamma, sentence index, new winner index)
    for nb_idx, nb in enumerate(nbests):
        rows = [h.features for h in nb.hypotheses]
        segments = line_envelope(rows, weights, direction)
        winners.append(segments[0].winner)
        for seg in segments[1:]:
            events.append((seg.lo, nb_idx, seg.winner))
    if not events:
        return None
    events.sort(key=lambda e: (e[0], e[1]))
    totals = np.zeros(10, dtype=np.int64)
    for nb_idx, winner in enumerate(winners):
        totals += hyp_stats[nb_idx][winner].as_tuple()
    boundaries = sorted({gamma for gamma, _, _ in events})
    best_bleu = bleu_from_stats(BleuStats.from_tuple(totals))
    best_gamma = boundaries[0] - 1.0
    pos = 0
    for b_idx, boundary in enumerate(boundaries):
        while pos < len(events) and events[pos][0] == boundary:
            _, nb_idx, new_winner = events[pos]
            totals -= np.asarray(hyp_stats[nb_idx][winners[nb_idx]].as_tuple(), dtype=np.int64)
            totals += np.asarray(hyp_stats[nb_idx][new_winner].as_tuple(), dtype=np.int64)
            winners[nb_idx] = new_winner
            pos += 1
        if b_idx + 1 < len(boundaries):
            gamma = 0.5 * (boundary + boundaries[b_idx + 1])
        else:
            gamma = boundary + 1.0
        bleu = bleu_from_stats(BleuStats.from_tuple(totals))
        if bleu > best_bleu:
            best_bleu = bleu
            best_gamma = gamma
    return best_bleu, best_gamma


def mert_optimize(nbests, refs, init, config: MertConfig,
                  iteration_log: list | None = None) -> dict[str, float]:
    """Coordinate line search over reranking weights maximizing corpus BLEU.

    ``nbests`` is a list of NBestList, ``refs`` maps image ids to reference
    token sequences, ``init`` the starting weight vector (its keys define
    the feature schema). Returns the best weights found over
    ``config.restarts`` seeded restarts; the result never scores below the
    initial weights. When given, ``iteration_log`` receives one
    (restart, iteration, bleu) triple per completed coordinate pass.
    """
    nbests = list(nbests)
    if not nbests:
        raise EmptyNBest("MERT needs at least one n-best list")
    _check_schema(nbests, init)
    hyp_stats = []
    for nb in nbests:
        if nb.image_id not in refs:
            raise MissingReferences(f"no references for image {nb.image_id}")
        image_refs = refs[nb.image_id]
        hyp_stats.append([bleu_stats(h.tokens, image_refs) for h in nb.hypotheses])
    directions = sorted(init)
    rng = np.random.default_rng(config.seed)
    best_weights: dict[str, float] | None = None
    best_bleu = -math.inf
    for restart in range(config.restarts + 1):
        if restart == 0:
            weights = {k: float(v) for k, v in init.items()}
        else:
            weights = {
                k: float(init[k]) + PERTURBATION * float(rng.standard_normal())
                for k in directions
            }
        bleu = _selection_bleu(nbests, hyp_stats, weights)
        for iteration in range(config.max_iters):
            improved = False
            for direction in directions:
                step = _best_step(nbests, hyp_stats, weights, direction)
                if step is None:
                    continue
                step_bleu, gamma = step
                if step_bleu > bleu + MIN_GAIN:
                    weights[direction] = gamma
                    bleu = step_bleu
                    improved = True
            if iteration_log is not None:
                iteration_log.append((restart, iteration, bleu))
            if not improved:
                break
        if bleu > best_bleu:
            best_bleu = bleu
            best_weights = dict(weights)
    return best_weights
