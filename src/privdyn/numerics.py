"""Numerically careful scalar helpers shared by the bound formulas.

Everything here is pure float64 math. Geometric quantities are evaluated
through expm1/log1p so that contraction ratios extremely close to 1
(tiny eta*lambda) do not lose precision, and powers r**x for huge x are
taken as exp(x*ln r) so they underflow cleanly to 0.0 instead of looping.
"""

from __future__ import annotations

import math
from typing import Iterable

__all__ = [
    "contraction_log",
    "contraction_pow",
    "geometric_sum",
    "logsumexp",
]


def contraction_log(eta: float, lam: float) -> float:
    """ln r for the per-step contraction r = (1 - eta*lam)**2."""
    return 2.0 * math.log1p(-eta * lam)


def contraction_pow(log_r: float, exponent: float) -> float:
    """r**exponent via exp(exponent * ln r); underflows to 0.0 for huge exponents."""
    if log_r == 0.0:
        return 1.0
    return math.exp(exponent * log_r)


def geometric_sum(log_r: float, terms: float) -> float:
    """Closed form of sum_{s=0}^{terms-1} r**s given ln r.

    Uses expm1 on both numerator and denominator; exact (= terms) when r = 1.
    """
    if terms <= 0:
        return 0.0
    if log_r == 0.0:
        return float(terms)
    return math.expm1(terms * log_r) / math.expm1(log_r)


def logsumexp(values: Iterable[float]) -> float:
    """log(sum(exp(v))) with the max shifted out; tolerates -inf entries."""
    vals = [v for v in values]
    if not vals:
        raise ValueError("logsumexp of an empty sequence")
    top = max(vals)
    if top == -math.inf:
        return -math.inf
    if top == math.inf:
        return math.inf
    acc = 0.0
    for v in vals:
        acc += math.exp(v - top)
    return top + math.log(acc)
