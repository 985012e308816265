"""Corpus BLEU, a lightweight METEOR-style metric, and perplexity.

BLEU is computed from additive sufficient statistics so corpus scores can
be assembled from any partition of the data; the brevity penalty uses the
reference whose length is closest to the hypothesis (ties toward the
shorter reference). All functions here are pure.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .errors import (
    EmptyHypothesis,
    EmptyReferences,
    NonFiniteLogProb,
)

BLEU_MAX_ORDER = 4
# A BLEU statistics row holds 10 int64s: the clipped n-gram matches for
# orders 1..4, the hypothesis n-gram totals for orders 1..4, the hypothesis
# length and the closest reference length. Rows add exactly, so the row of a
# corpus is the sum of its sentences' rows.
BLEU_ROW_WIDTH = 2 * BLEU_MAX_ORDER + 2


def _ngrams(tokens, n: int) -> Counter:
    toks = tuple(tokens)
    return Counter(toks[i:i + n] for i in range(len(toks) - n + 1))


def nbest_bleu_stats(hyps, refs) -> np.ndarray:
    """Statistics of every hypothesis in ``hyps`` against the same references.

    Returns an int64 ``(len(hyps), BLEU_ROW_WIDTH)`` matrix of statistics
    rows. The per-n-gram maximum over the references, which clips the match
    counts, and the reference lengths are built once for all hypotheses; the
    reference-length term picks the reference closest in length to each
    hypothesis, preferring the shorter one on ties.
    """
    refs = [tuple(r) for r in refs]
    if not refs:
        raise EmptyReferences("bleu_stats needs at least one reference")
    orders = range(1, BLEU_MAX_ORDER + 1)
    max_ref = [Counter() for _ in orders]
    for ref in refs:
        for n, table in zip(orders, max_ref):
            table |= _ngrams(ref, n)
    ref_lens = [len(r) for r in refs]
    rows = []
    for hyp in hyps:
        hyp = tuple(hyp)
        grams = [_ngrams(hyp, n) for n in orders]
        closest = min(ref_lens, key=lambda L: (abs(L - len(hyp)), L))
        matches = [sum((g & table).values()) for g, table in zip(grams, max_ref)]
        totals = [sum(g.values()) for g in grams]
        rows.append((*matches, *totals, len(hyp), closest))
    return np.array(rows, dtype=np.int64).reshape(len(rows), BLEU_ROW_WIDTH)


def bleu_stats(hyp, refs) -> np.ndarray:
    """Statistics row of ``hyp`` against multiple references."""
    return nbest_bleu_stats([hyp], refs)[0]


def bleu_from_stats(row: np.ndarray) -> float:
    """Corpus BLEU on a 0-100 scale from a summed statistics row.

    Geometric mean of the clipped precisions over the orders the
    hypothesis actually has n-grams for, times the brevity penalty
    min(1, exp(1 - r/c)). Any zero precision yields 0 (no smoothing).
    """
    *ngrams, hyp_len, ref_len = row.tolist()
    if hyp_len <= 0:
        raise EmptyHypothesis("corpus BLEU needs at least one hypothesis token")
    log_sum = 0.0
    orders = 0
    for matched, total in zip(ngrams[:BLEU_MAX_ORDER], ngrams[BLEU_MAX_ORDER:]):
        if total == 0:
            continue
        if matched == 0:
            return 0.0
        log_sum += math.log(matched / total)
        orders += 1
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_sum / orders)


def corpus_bleu(pairs) -> float:
    """BLEU over an iterable of (hypothesis tokens, reference list) pairs.

    Pairs whose hypotheses hold no token at all (an under-trained model may
    decode only empty captions) score 0.
    """
    total = np.zeros(BLEU_ROW_WIDTH, dtype=np.int64)
    for hyp, refs in pairs:
        total += bleu_stats(hyp, refs)
    if total[2 * BLEU_MAX_ORDER] == 0:  # the summed hypothesis length
        return 0.0
    return bleu_from_stats(total)


# METEOR weights: alpha weighs precision against recall in the harmonic
# mean; gamma and beta shape the fragmentation penalty
# gamma * (chunks / matches) ** beta.
METEOR_ALPHA = 0.9
METEOR_BETA = 3.0
METEOR_GAMMA = 0.5


def light_stem(token: str) -> str:
    """Tiny suffix-stripping stemmer used to extend exact unigram matches."""
    if token.endswith("sses"):
        return token[:-2]
    if token.endswith("ies") and len(token) > 4:
        return token[:-3] + "y"
    for suffix in ("ing", "ed", "es"):
        if token.endswith(suffix) and len(token) - len(suffix) >= 3:
            return token[: -len(suffix)]
    if token.endswith("s") and not token.endswith("ss") and len(token) > 3:
        return token[:-1]
    return token


def _align(hyp, ref) -> tuple[int, int]:
    """Stage-wise unigram alignment; returns (matches, chunks).

    Stages run exact, then stemmed matching; within a stage each hypothesis
    token takes the first free reference token, which keeps the alignment
    order-preserving per word type.
    """
    stages = (lambda a, b: a == b, lambda a, b: light_stem(a) == light_stem(b))
    hyp_free = [True] * len(hyp)
    ref_free = [True] * len(ref)
    pairs: list[tuple[int, int]] = []
    for matches_fn in stages:
        for i, h_tok in enumerate(hyp):
            if not hyp_free[i]:
                continue
            for j, r_tok in enumerate(ref):
                if ref_free[j] and matches_fn(h_tok, r_tok):
                    pairs.append((i, j))
                    hyp_free[i] = False
                    ref_free[j] = False
                    break
    if not pairs:
        return 0, 0
    pairs.sort()
    chunks = 1
    for (i0, j0), (i1, j1) in zip(pairs, pairs[1:]):
        if i1 != i0 + 1 or j1 != j0 + 1:
            chunks += 1
    return len(pairs), chunks


def meteor(hyp, refs) -> float:
    """Best unigram-alignment score of ``hyp`` over the references, 0-100.

    F = P*R / (alpha*P + (1-alpha)*R), discounted by the fragmentation
    penalty; zero when nothing aligns.
    """
    refs = [tuple(r) for r in refs]
    if not refs:
        raise EmptyReferences("meteor needs at least one reference")
    hyp = tuple(hyp)
    best = 0.0
    for ref in refs:
        if not hyp or not ref:
            continue
        matched, chunks = _align(hyp, ref)
        if matched == 0:
            continue
        precision = matched / len(hyp)
        recall = matched / len(ref)
        fmean = (precision * recall) / (METEOR_ALPHA * precision + (1.0 - METEOR_ALPHA) * recall)
        penalty = METEOR_GAMMA * (chunks / matched) ** METEOR_BETA
        best = max(best, 100.0 * fmean * (1.0 - penalty))
    return best


def perplexity(logprob_fn, corpus) -> float:
    """exp of the average per-token negative log-likelihood over ``corpus``.

    ``logprob_fn`` maps a caption to (total natural log-probability, token
    count); counts are expected to include the end-of-sentence token.
    """
    total_logprob = 0.0
    total_tokens = 0
    for caption in corpus:
        logprob, count = logprob_fn(caption)
        if not math.isfinite(logprob):
            raise NonFiniteLogProb(f"non-finite log-probability for caption {caption!r}")
        total_logprob += float(logprob)
        total_tokens += int(count)
    if total_tokens <= 0:
        raise EmptyHypothesis("perplexity over zero tokens")
    return math.exp(-total_logprob / total_tokens)
