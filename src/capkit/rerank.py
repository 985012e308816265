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
from .metrics import bleu_from_stats, nbest_bleu_stats


def line_envelope(slopes, offsets) -> list[tuple[float, int]]:
    """Upper envelope of the hypothesis score lines ``offset + gamma * slope``.

    ``slopes`` and ``offsets`` hold one value per hypothesis. The (lo, winner)
    pairs partition the real line left to right, from a first ``lo`` of -inf:
    ``winner`` is best from ``lo`` to the next pair's ``lo`` (the last, to
    +inf). Exact ties prefer the lower hypothesis index.
    """
    lines = list(zip(np.asarray(slopes).tolist(), np.asarray(offsets).tolist(),
                     range(len(slopes))))
    if not lines:
        raise EmptyNBest("envelope of an empty n-best list")
    lines.sort(key=lambda l: (l[0], -l[1], l[2]))
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
    return [(start, idx) for _, _, idx, start in hull]


def _feature_columns(nbest: NBestList, names) -> dict[str, np.ndarray]:
    """One float64 column per feature in ``names`` over the n-best's rows."""
    if not nbest.hypotheses:
        raise EmptyNBest(f"image {nbest.image_id} has an empty n-best list")
    schema = set(names)
    for hyp in nbest.hypotheses:
        if not hyp.features.keys() >= schema:
            raise SchemaMismatch(
                f"image {nbest.image_id}: feature row {sorted(hyp.features)} "
                f"lacks weights schema {sorted(schema)}"
            )
    return {name: np.array([float(h.features[name]) for h in nbest.hypotheses])
            for name in names}


def _scores(columns, weights, size: int, skip=None) -> np.ndarray:
    """Weighted sums of ``size`` feature rows, added in the order of
    ``weights`` (as a plain ``sum`` would), leaving out feature ``skip``."""
    total = np.zeros(size)
    for name, w in weights.items():
        if name != skip:
            total = total + float(w) * columns[name]
    return total


def apply_weights(nbest: NBestList, weights) -> DecodedHypothesis:
    """Hypothesis maximizing the weighted feature sum; ties keep the lower rank."""
    columns = _feature_columns(nbest, weights)
    scores = _scores(columns, weights, len(nbest.hypotheses))
    return nbest.hypotheses[int(np.argmax(scores))]


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


def _selection_bleu(columns, stats, weights) -> float:
    total = sum(st[np.argmax(_scores(cols, weights, len(st)))]
                for cols, st in zip(columns, stats))
    return bleu_from_stats(total)


def _best_step(columns, stats, weights, direction):
    """Best (bleu, gamma) along ``direction``; None when nothing can change."""
    winners = []
    events = []  # (gamma, sentence index, new winner index)
    for nb_idx, (cols, st) in enumerate(zip(columns, stats)):
        offsets = _scores(cols, weights, len(st), skip=direction)
        segments = line_envelope(cols[direction], offsets)
        winners.append(segments[0][1])
        for lo, winner in segments[1:]:
            events.append((lo, nb_idx, winner))
    if not events:
        return None
    events.sort(key=lambda e: (e[0], e[1]))
    totals = sum(st[winner] for st, winner in zip(stats, winners))
    boundaries = sorted({gamma for gamma, _, _ in events})
    best_bleu = bleu_from_stats(totals)
    best_gamma = boundaries[0] - 1.0
    pos = 0
    for b_idx, boundary in enumerate(boundaries):
        while pos < len(events) and events[pos][0] == boundary:
            _, nb_idx, new_winner = events[pos]
            totals += stats[nb_idx][new_winner] - stats[nb_idx][winners[nb_idx]]
            winners[nb_idx] = new_winner
            pos += 1
        if b_idx + 1 < len(boundaries):
            gamma = 0.5 * (boundary + boundaries[b_idx + 1])
        else:
            gamma = boundary + 1.0
        bleu = bleu_from_stats(totals)
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
    columns = [_feature_columns(nb, init) for nb in nbests]
    stats = []
    for nb in nbests:
        if nb.image_id not in refs:
            raise MissingReferences(f"no references for image {nb.image_id}")
        stats.append(nbest_bleu_stats([h.tokens for h in nb.hypotheses], refs[nb.image_id]))
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
        bleu = _selection_bleu(columns, stats, weights)
        for iteration in range(config.max_iters):
            improved = False
            for direction in directions:
                step = _best_step(columns, stats, weights, direction)
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
