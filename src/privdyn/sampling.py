"""Privacy amplification by mini-batch randomness.

Two batch-generation schemes on top of the fixed-batch dynamics:

* shuffle-and-partition: one random partition per run; the bound averages
  the per-position fixed-batch tails through the scaled-exponential mixture
  inequality exp((a-1)R(mix)) <= avg exp((a-1)R(component));
* sampling without replacement: a fresh uniform batch every iteration; the
  bound iterates a scalar moment surrogate S, carried in log-domain because
  S overflows float64 within a few epochs at large alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .dynamics import (
    _check_alpha,
    _first_term,
    _require_strongly_convex,
    _require_two_batches,
    eps0_term,
)
from .numerics import logsumexp
from .params import AccountingError, AccountingParams

__all__ = [
    "WeightsNotNormalized",
    "ShuffleBound",
    "SampWoState",
    "bound_shuffle",
    "bound_samp_wo_replacement",
    "samp_wo_log_states",
    "samp_wo_limit",
    "mixture_bound",
]


class WeightsNotNormalized(AccountingError):
    """Mixture weights do not sum to 1."""


@dataclass(frozen=True, slots=True)
class ShuffleBound:
    """Shuffle-and-partition RDP bound, split into its two summands."""

    params: AccountingParams
    alpha: float
    first_term: float
    avg_term: float

    @property
    def eps(self) -> float:
        return self.first_term + self.avg_term


@dataclass(frozen=True, slots=True)
class SampWoState:
    """Moment surrogate after one recursion step: S = exp(log_s) >= 1."""

    step: int
    log_s: float

    @property
    def s(self) -> float:
        return math.exp(self.log_s)


def shuffle_avg_term(params: AccountingParams, alpha: float) -> float:
    """Log-avg-exp tail of the shuffle bound (independent of the epoch count).

    (1/(a-1)) * log(avg_{j0 < m} exp((a-1)*eps0(m - j0))), computed after
    factoring out the largest exponent (a-1)*eps0(1) so no overflow can occur
    for any alpha.
    """
    _check_alpha(alpha)
    _require_strongly_convex(params, "shuffle_avg_term")
    _require_two_batches(params, "shuffle_avg_term")
    scale = alpha - 1.0
    tails = [eps0_term(params, alpha, j) for j in range(1, params.m + 1)]
    top = tails[0]  # eps0(1) is the largest term
    shifted = math.fsum(math.exp(scale * (t - top)) for t in tails) / params.m
    return top + math.log(shifted) / scale


def bound_shuffle(params: AccountingParams, alpha: float) -> ShuffleBound:
    """Shuffle-and-partition bound: fixed-batch head plus a log-avg-exp tail."""
    _check_alpha(alpha)
    _require_strongly_convex(params, "bound_shuffle")
    _require_two_batches(params, "bound_shuffle")
    if params.epochs == 0:
        return ShuffleBound(params=params, alpha=alpha, first_term=0.0, avg_term=0.0)
    return ShuffleBound(
        params=params,
        alpha=alpha,
        first_term=_first_term(params, alpha),
        avg_term=shuffle_avg_term(params, alpha),
    )


def _samp_wo_step(params: AccountingParams, alpha: float, log_s: float) -> float:
    """One log-domain update: l <- logsumexp(ln q + (a-1)*eps1 + l, ln(1-q) + r*l)."""
    q = params.q
    gain = (alpha - 1.0) * params.eps1(alpha)
    if q >= 1.0:
        return gain + log_s  # pure composition: the contracted branch has weight 0
    # S >= 1 analytically (the update is a mean of terms >= S^r >= 1);
    # clamp away logsumexp rounding at the start of the recursion
    return max(
        0.0,
        logsumexp((math.log(q) + gain + log_s, math.log1p(-q) + params.r * log_s)),
    )


def bound_samp_wo_replacement(params: AccountingParams, alpha: float) -> float:
    """Sampling-without-replacement bound: log(S_K)/(alpha-1) after K*m steps."""
    _check_alpha(alpha)
    _require_strongly_convex(params, "bound_samp_wo_replacement")
    log_s = 0.0
    for _ in range(params.steps):
        nxt = _samp_wo_step(params, alpha, log_s)
        if nxt <= log_s:
            # The true sequence is strictly increasing below its fixed point,
            # so no progress means float resolution is reached; every further
            # step returns the same value.
            break
        log_s = nxt
    return log_s / (alpha - 1.0)


def samp_wo_log_states(params: AccountingParams, alpha: float) -> list[SampWoState]:
    """Per-step trace of the log-domain recursion, including the start state."""
    _check_alpha(alpha)
    _require_strongly_convex(params, "samp_wo_log_states")
    states = [SampWoState(step=0, log_s=0.0)]
    log_s = 0.0
    for step in range(1, params.steps + 1):
        log_s = _samp_wo_step(params, alpha, log_s)
        states.append(SampWoState(step=step, log_s=log_s))
    return states


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
    if q >= 1.0:
        return math.inf
    log_qe = math.log(q) + gain
    if log_qe >= 0.0:
        return math.inf
    log_s_star = (math.log1p(-q) - math.log(-math.expm1(log_qe))) / -math.expm1(params.log_r)
    return log_s_star / (alpha - 1.0)


def mixture_bound(mixtures: Sequence[tuple[float, float]], alpha: float) -> float:
    """Combine per-component RDP values through the scaled-exponential mixture rule.

    Returns (1/(a-1)) * log(sum_i w_i * exp((a-1)*eps_i)), shifted by the
    largest exponent before exponentiating.
    """
    _check_alpha(alpha)
    if not mixtures:
        raise AccountingError("mixture_bound needs at least one component")
    weights = [w for w, _ in mixtures]
    comps = [e for _, e in mixtures]
    if abs(math.fsum(weights) - 1.0) > 1e-9:
        raise WeightsNotNormalized(f"weights sum to {math.fsum(weights)!r}, expected 1")
    if any(w < 0 for w in weights):
        raise WeightsNotNormalized("negative mixture weight")
    if any(e < 0 for e in comps):
        raise AccountingError("mixture components must be nonnegative")
    scale = alpha - 1.0
    terms = [
        (math.log(w) if w > 0 else -math.inf) + scale * e
        for w, e in mixtures
    ]
    return logsumexp(terms) / scale
