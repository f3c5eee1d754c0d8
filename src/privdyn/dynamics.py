"""Fixed-mini-batch privacy dynamics bounds.

All epsilons here are Renyi DP bounds of order alpha for the last iterate of
noisy mini-batch gradient descent when the mini-batch partition is fixed and
the record that differs between the two neighboring datasets sits in batch
``j0``. Notation used throughout:

    m    = floor(n/b)                 mini-batches per epoch
    r    = (1 - eta*lambda)^2         per-step contraction of the gradient map
    G(t) = sum_{s=0}^{t-1} r^s        geometric sum (G(t) = t when lambda = 0)
    eps1 = alpha*eta*S_g^2/(4 sigma^2 b^2)   RDP cost of one differing-batch step

The single-epoch terms are eps0(j) = eps1 * r^(j-1)/G(j) for the strongly
convex class and eps1/j for the convex class; runs over K epochs compose the
contracted first-epoch terms geometrically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import contraction_pow, geometric_sum
from .params import AccountingError, AccountingParams, BatchCountTooSmall

__all__ = [
    "IndexOutOfRange",
    "RegularityMismatch",
    "HeadTail",
    "eps0_term",
    "bound_fixed",
    "bound_naive_baseline",
    "fixed_bound_limit",
    "naive_baseline_limit",
]


class IndexOutOfRange(AccountingError):
    """Batch index outside [1, m] (eps0 terms) or [0, m-1] (j0)."""


class RegularityMismatch(AccountingError):
    """A bound was requested for the wrong convexity class."""


@dataclass(frozen=True, slots=True)
class HeadTail:
    """A partition-family RDP bound: the composed head of the earlier epochs
    plus the last-epoch tail."""

    head: float
    tail: float

    @property
    def eps(self) -> float:
        return self.head + self.tail


def _check_alpha(alpha: float) -> float:
    if not (alpha > 1 and math.isfinite(alpha)):
        raise AccountingError(f"Renyi order alpha must be finite and > 1, got {alpha!r}")
    return float(alpha)


def _require_strongly_convex(params: AccountingParams, what: str) -> None:
    if not params.strongly_convex:
        raise RegularityMismatch(f"{what} needs a strongly convex loss (lambda > 0)")


def _require_two_batches(params: AccountingParams, what: str) -> None:
    # The h-split composition and the mixing-and-diffusion slope (which
    # divides by m - 1) need floor(n/b) >= 2; the samp-wo recursion and the
    # naive baseline have no such requirement.
    if params.m < 2:
        raise BatchCountTooSmall(f"{what} needs floor(n/b) >= 2, got m = {params.m}")


def eps0_term(params: AccountingParams, alpha: float, j: int) -> float:
    """Single-epoch term eps0^j(alpha) for j in [1, m].

    Strongly convex: eps1 * r^(j-1) / G(j) (equivalently
    eps1 * r^(j-1) * (1-r)/(1-r^j)); convex: eps1 / j.
    """
    _check_alpha(alpha)
    if j < 1 or j > params.m:
        raise IndexOutOfRange(f"j = {j} outside [1, {params.m}]")
    eps1 = params.eps1(alpha)
    if not params.strongly_convex:
        return eps1 / j
    return eps1 * contraction_pow(params.log_r, j - 1) / geometric_sum(params.log_r, j)


def _head(params: AccountingParams, alpha: float) -> float:
    """Composed head of the fixed bound: the epochs before the last one.

    Strongly convex: eps0(h) * (1 - r^((K-1)(m-h))) / (1 - r^(m-h)) with
    h = floor(n/(2b)); convex: eps1 * (K-1)/m. Defined as 0 for K <= 1.
    """
    if params.epochs <= 1:
        return 0.0
    if not params.strongly_convex:
        return params.eps1(alpha) * (params.epochs - 1) / params.m
    m = params.m
    h = m // 2
    span = m - h
    num = -math.expm1((params.epochs - 1) * span * params.log_r)
    den = -math.expm1(span * params.log_r)
    return eps0_term(params, alpha, h) * num / den


def _head_limit(params: AccountingParams, alpha: float) -> float:
    """K -> infinity limit of the strongly convex head: eps0(h) / (1 - r^(m-h))."""
    m = params.m
    h = m // 2
    return eps0_term(params, alpha, h) / -math.expm1((m - h) * params.log_r)


def bound_fixed(params: AccountingParams, alpha: float, j0: int) -> HeadTail:
    """Last-iterate RDP bound for records in batch j0 under a fixed partition.

    The head composes the earlier epochs (see ``_head``) and the tail is
    eps0(m - j0). A strongly convex loss needs m >= 2; a convex one does not.
    """
    _check_alpha(alpha)
    if params.strongly_convex:
        _require_two_batches(params, "bound_fixed")
    if j0 < 0 or j0 >= params.m:
        raise IndexOutOfRange(f"j0 = {j0} outside [0, {params.m - 1}]")
    if params.epochs == 0:
        return HeadTail(head=0.0, tail=0.0)
    return HeadTail(head=_head(params, alpha), tail=eps0_term(params, alpha, params.m - j0))


def bound_naive_baseline(params: AccountingParams, alpha: float) -> float:
    """Post-processing-free baseline: alpha*S_g^2/(lambda*sigma^2*b^2) * (1 - e^(-lambda*eta*K/2))."""
    _check_alpha(alpha)
    _require_strongly_convex(params, "bound_naive_baseline")
    scale = alpha * params.s_g**2 / (params.lam * params.sigma**2 * params.b**2)
    return scale * -math.expm1(-params.lam * params.eta * params.epochs / 2.0)


def fixed_bound_limit(params: AccountingParams, alpha: float, j0: int) -> float:
    """K -> infinity limit of the fixed bound; inf for a convex loss, whose head grows linearly in K."""
    _check_alpha(alpha)
    if not params.strongly_convex:
        return math.inf
    _require_two_batches(params, "fixed_bound_limit")
    return _head_limit(params, alpha) + eps0_term(params, alpha, params.m - j0)


def naive_baseline_limit(params: AccountingParams, alpha: float) -> float:
    """K -> infinity limit of the naive baseline."""
    _check_alpha(alpha)
    _require_strongly_convex(params, "naive_baseline_limit")
    return alpha * params.s_g**2 / (params.lam * params.sigma**2 * params.b**2)
