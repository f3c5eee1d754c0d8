"""Numerically careful scalar helpers shared by the bound formulas.

Everything here is pure float64 math. Geometric quantities are evaluated
through expm1/log1p so that contraction ratios extremely close to 1
(tiny eta*lambda) do not lose precision, and powers r**x for huge x are
taken as exp(x*ln r) so they underflow cleanly to 0.0 instead of looping.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Sequence, Union

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


def logsumexp(log_weights: Union[float, Sequence[float]], values: Sequence[float]) -> float:
    """log(sum_i w_i * exp(x_i)) for weights w_i = exp(log_weights[i]) summing to 1.

    A single float log-weight is shared by every value. The result is
    c + log1p(sum_i w_i * expm1(x_i - c)) with c = max(0, max_i(ln w_i + x_i)),
    so a sum close to 1 keeps its precision: the excess over 1 is summed
    directly. A term with x_i - c > 1 is formed as exp(ln w_i + x_i - c) - w_i,
    whose exponent is <= 0, so a tiny weight on a huge value cannot overflow.
    With every x_i >= 0 the exact excess is >= 0; at c = 0 each of its terms
    is, so a result close to 0 cannot round below 0.
    """
    if isinstance(log_weights, float):
        log_weights = itertools.repeat(log_weights)  # endless; zip stops at the last value
    c = max(0.0, max(map(operator.add, log_weights, values)))
    if c == math.inf:
        return c
    excess = math.fsum(
        math.exp(lw + x - c) - math.exp(lw) if x - c > 1.0 else math.exp(lw) * math.expm1(x - c)
        for lw, x in zip(log_weights, values)
    )
    return c + math.log1p(excess)


def _logsumexp2(lw0: float, x0: float, lw1: float, x1: float) -> float:
    """logsumexp((lw0, lw1), (x0, x1)) bit for bit: the same terms, and t0 + t1 rounds as fsum."""
    s0, s1 = lw0 + x0, lw1 + x1
    c = max(0.0, max(s0, s1))
    if c == math.inf:
        return c
    t0 = math.exp(s0 - c) - math.exp(lw0) if x0 - c > 1.0 else math.exp(lw0) * math.expm1(x0 - c)
    t1 = math.exp(s1 - c) - math.exp(lw1) if x1 - c > 1.0 else math.exp(lw1) * math.expm1(x1 - c)
    return c + math.log1p(t0 + t1)
