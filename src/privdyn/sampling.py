"""Privacy amplification by mini-batch randomness.

Two batch-generation schemes on top of the fixed-batch dynamics:

* shuffle-and-partition: one random partition per run; the bound averages
  the per-position fixed-batch tails through the scaled-exponential mixture
  inequality exp((a-1)R(mix)) <= avg exp((a-1)R(component));
* sampling without replacement: a fresh uniform batch every iteration; the
  bound iterates a log-domain moment surrogate S (S overflows float64 within
  a few epochs at large alpha). One loop runs the recursion, with the
  two-term mixture kernel written out in each step, and yields the bound at
  every epoch's end, so a curve over K costs one run.
"""

from __future__ import annotations

import math
from typing import Iterator

from .dynamics import (
    HeadTail,
    _check_alpha,
    _head,
    _head_limit,
    _require_strongly_convex,
    _require_two_batches,
)
from .numerics import logsumexp
from .params import AccountingParams

__all__ = [
    "bound_shuffle",
    "shuffle_limit",
    "bound_samp_wo_replacement",
    "samp_wo_epochs",
    "samp_wo_limit",
]


def shuffle_avg_term(params: AccountingParams, alpha: float) -> float:
    """Log-avg-exp tail of the shuffle bound (independent of the epoch count).

    (1/(a-1)) * log(avg_{j0 < m} exp((a-1)*eps0(m - j0))), through the
    mixture kernel with every weight 1/m. Each eps0(j) is eps0_term's own
    expression, eps1 * r^(j-1) / G(j) left to right, so equal bit for bit.
    """
    _check_alpha(alpha)
    _require_strongly_convex(params, "shuffle_avg_term")
    _require_two_batches(params, "shuffle_avg_term")
    scale = alpha - 1.0
    eps1, log_r = params.eps1(alpha), params.log_r
    em1 = math.expm1(log_r)  # log_r < 0 for a strongly convex loss
    exponents = [scale * (eps1 * math.exp((j - 1) * log_r) / (math.expm1(j * log_r) / em1))
                 for j in range(1, params.m + 1)]
    return logsumexp(-math.log(params.m), exponents) / scale


def bound_shuffle(params: AccountingParams, alpha: float) -> HeadTail:
    """Shuffle-and-partition bound: the fixed-partition head plus a log-avg-exp tail."""
    _check_alpha(alpha)
    _require_strongly_convex(params, "bound_shuffle")
    _require_two_batches(params, "bound_shuffle")
    if params.epochs == 0:
        return HeadTail(head=0.0, tail=0.0)
    return HeadTail(head=_head(params, alpha), tail=shuffle_avg_term(params, alpha))


def shuffle_limit(params: AccountingParams, alpha: float) -> float:
    """K -> infinity limit of the shuffle bound: the head's limit plus the tail."""
    _check_alpha(alpha)
    _require_strongly_convex(params, "shuffle_limit")
    _require_two_batches(params, "shuffle_limit")
    return _head_limit(params, alpha) + shuffle_avg_term(params, alpha)


def samp_wo_epochs(params: AccountingParams, alpha: float) -> Iterator[float]:
    """The samp-wo bound at K = 1, 2, ..., params.epochs from one run of the recursion.

    The recursion is l <- log(q*e^((a-1)*eps1 + l) + (1-q)*e^(r*l)) from
    l = log S = 0, each step numerics.logsumexp((ln q, ln(1-q)),
    ((a-1)*eps1 + l, r*l)) written out with the same float operations, so
    equal bit for bit. The true sequence increases strictly toward its fixed
    point, so the first step that makes no progress in float64 ends the run:
    every later step would return the same value. The run then yields that
    value for the epoch it ends in, and every later epoch has it too.
    """
    _check_alpha(alpha)
    _require_strongly_convex(params, "the samp-wo recursion")
    q, r, scale = params.q, params.r, alpha - 1.0
    # q = 1 is pure composition: the contracted branch has weight 0
    lw0, lw1 = math.log(q), math.log1p(-q) if q < 1.0 else -math.inf
    w0, w1 = math.exp(lw0), math.exp(lw1)
    gain = scale * params.eps1(alpha)
    exp, expm1, log1p, inf = math.exp, math.expm1, math.log1p, math.inf
    log_s = 0.0
    for _ in range(params.epochs):
        for _ in range(params.m):
            x0, x1 = gain + log_s, r * log_s
            s0, s1 = lw0 + x0, lw1 + x1
            c = s1 if s1 > s0 else s0  # max(0.0, max(s0, s1)), -0.0 and nan included
            if not c > 0.0:
                c = 0.0
            if c == inf:
                nxt = c
            else:
                # the excess over 1 of the weighted sum, each term formed as logsumexp forms it
                t0 = exp(s0 - c) - w0 if x0 - c > 1.0 else w0 * expm1(x0 - c)
                t1 = exp(s1 - c) - w1 if x1 - c > 1.0 else w1 * expm1(x1 - c)
                nxt = c + log1p(t0 + t1)  # two terms: t0 + t1 rounds as fsum does
            if nxt <= log_s:
                yield log_s / scale
                return
            log_s = nxt
        yield log_s / scale


def bound_samp_wo_replacement(params: AccountingParams, alpha: float) -> float:
    """Sampling-without-replacement bound: log(S_K)/(alpha-1) after K*m steps."""
    # the values never fall, so the last one is the largest
    return max(samp_wo_epochs(params, alpha), default=0.0)


def samp_wo_limit(params: AccountingParams, alpha: float) -> float:
    """K -> infinity limit of the samp-wo bound.

    The log-domain recursion has the fixed point
    l* = ln((1-q) / (1 - q*e^((a-1)*eps1))) / (1 - r) whenever
    q*e^((a-1)*eps1) < 1 (the state increases toward it from S = 1);
    otherwise the surrogate diverges and the limit is +inf.
    """
    _check_alpha(alpha)
    _require_strongly_convex(params, "samp_wo_limit")
    q = params.q
    gain = (alpha - 1.0) * params.eps1(alpha)
    if q >= 1.0 or math.log(q) + gain >= 0.0:
        return math.inf
    # (1 - q*e^gain)/(1 - q) = 1 - growth, formed without cancellation
    growth = q * math.expm1(gain) / (1.0 - q)
    if growth >= 1.0:
        return math.inf
    log_s_star = -math.log1p(-growth) / -math.expm1(params.log_r)
    return log_s_star / (alpha - 1.0)
