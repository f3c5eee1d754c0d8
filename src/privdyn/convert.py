"""RDP -> (eps, delta) conversion.

Every guarantee is change-one: the bounds hold for datasets that differ by
replacing one record, and so does each (eps, delta) converted from them. This
module alone knows the conversion rule; the solvers apply it through
``_converted``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .params import AccountingError, RdpPoint

__all__ = [
    "EmptyInput",
    "InvalidDelta",
    "DpGuarantee",
    "DEFAULT_ALPHA_GRID",
    "rdp_to_dp",
]


class EmptyInput(AccountingError):
    """rdp_to_dp called with no RDP points."""


class InvalidDelta(AccountingError):
    """delta outside (0, 1]."""


DEFAULT_ALPHA_GRID: tuple[float, ...] = (
    1.25,
    1.5,
    *[float(a) for a in range(2, 65)],
    128.0,
    256.0,
)


@dataclass(frozen=True, slots=True)
class DpGuarantee:
    """Change-one (eps, delta)-DP statement plus the Renyi order that produced it."""

    eps: float
    delta: float
    alpha_star: float


def _converted(alpha: float, eps: float, delta: float) -> float:
    """eps + ln(1/delta)/(alpha-1): the (eps, delta)-DP eps of one order; delta is in (0, 1]."""
    if not (alpha > 1 and math.isfinite(alpha)):
        raise AccountingError(f"Renyi order {alpha!r} must be finite and > 1")
    if not eps >= 0:  # also rejects NaN; +inf marks an order without a bound
        raise AccountingError(f"RDP eps {eps!r} must be >= 0")
    return eps + math.log(1.0 / delta) / (alpha - 1.0)


def rdp_to_dp(points: Iterable[RdpPoint], delta: float) -> DpGuarantee:
    """Standard conversion: eps = min_alpha [eps_alpha + ln(1/delta)/(alpha-1)].

    Ties go to the smallest order.
    """
    pts = list(points)
    if not pts:
        raise EmptyInput("rdp_to_dp needs at least one (alpha, eps) point")
    if not 0.0 < delta <= 1.0:
        raise InvalidDelta(f"delta = {delta!r} outside (0, 1]")
    best_eps = math.inf
    best_alpha = math.inf
    for pt in pts:
        converted = _converted(pt.alpha, pt.eps, delta)
        if converted < best_eps or (converted == best_eps and pt.alpha < best_alpha):
            best_eps = converted
            best_alpha = pt.alpha
    return DpGuarantee(eps=best_eps, delta=delta, alpha_star=best_alpha)
