"""Composition-based comparison bounds.

The main baseline is RDP composition of the subsampled Gaussian mechanism
(SGM) at integer orders; the other two are the single-epoch mixing-and-
diffusion bounds composed across epochs. These are the curves the converging
dynamics bounds are measured against.
"""

from __future__ import annotations

import math

from .dynamics import _check_alpha, _require_strongly_convex, _require_two_batches
from .numerics import contraction_pow, logsumexp
from .params import AccountingError, AccountingParams

__all__ = [
    "NonIntegerOrder",
    "sgm_order",
    "sgm_rdp_per_step",
    "sgm_eps",
    "mixing_diffusion_first_batch",
    "mixing_diffusion_last_batch",
]


class NonIntegerOrder(AccountingError):
    """sgm_rdp_per_step needs an integer order alpha >= 2."""


def _sigma_eff(params: AccountingParams) -> float:
    """Per-step noise std over per-step l2-sensitivity: sqrt(2*eta*sigma^2)/(eta*S_g/b)."""
    sens = params.eta * params.s_g / params.b
    return math.sqrt(2.0 * params.eta * params.sigma**2) / sens


def sgm_rdp_per_step(q: float, sigma_eff: float, alpha: int) -> float:
    """Integer-order RDP of one subsampled Gaussian step.

    (1/(a-1)) * ln sum_{k=0}^{a} C(a,k) (1-q)^(a-k) q^k exp(k(k-1)/(2 sigma^2)),
    summed by the mixture kernel over log-gamma binomial weights, so it
    cannot overflow. Orders above 10 000, and a sigma_eff whose square
    overflows float64, are refused.
    """
    if not (isinstance(alpha, int) or float(alpha).is_integer()):
        raise NonIntegerOrder(f"alpha = {alpha!r} is not an integer order")
    a = int(alpha)
    if a < 2:
        raise NonIntegerOrder(f"alpha = {a} must be >= 2")
    if a > 10_000:  # the moment sum has a + 1 terms
        raise AccountingError(f"sgm order {float(a):g} exceeds the largest supported order 10000")
    if not 0.0 < q <= 1.0:
        raise AccountingError(f"sampling ratio q = {q!r} outside (0, 1]")
    if not sigma_eff > 0:
        raise AccountingError(f"sigma_eff must be positive, got {sigma_eff!r}")
    try:
        two_var = 2.0 * sigma_eff**2
    except OverflowError:
        two_var = math.inf
    if two_var == math.inf:
        raise AccountingError(f"sigma_eff = {sigma_eff!r} is too large: 2*sigma_eff^2 overflows float64")
    if q == 1.0:
        return a / two_var
    log_q = math.log(q)
    log_1mq = math.log1p(-q)
    lg = math.lgamma
    log_a_fact = lg(a + 1)
    log_weights = [
        log_a_fact - lg(k + 1) - lg(a - k + 1) + (a - k) * log_1mq + k * log_q
        for k in range(a + 1)
    ]
    values = [k * (k - 1) / two_var for k in range(a + 1)]
    return logsumexp(log_weights, values) / (a - 1)


def sgm_order(alpha: float) -> int:
    """alpha rounded up to an integer order >= 2: Renyi DP is nondecreasing in the order."""
    return max(2, math.ceil(alpha))


def sgm_eps(params: AccountingParams, alpha: float) -> float:
    """Composed SGM bound after params.epochs epochs, at the order sgm_order(alpha)."""
    _check_alpha(alpha)
    if params.epochs == 0:
        return 0.0
    return params.steps * sgm_rdp_per_step(params.q, _sigma_eff(params), sgm_order(alpha))


def _mixing_slope(params: AccountingParams, alpha: float) -> float:
    """Per-epoch first-batch increment of the mixing-and-diffusion bound.

    [alpha*eta*S_g^2 / (4*(m-1)*b^2*sigma^2)] * (1 - 2*eta*beta*lambda/(beta+lambda))^(m/2).
    """
    lam, beta = params.lam, params.beta
    decay = 1.0 - 2.0 * params.eta * beta * lam / (beta + lam)
    if decay <= 0.0:
        decay_pow = 0.0
    else:
        decay_pow = contraction_pow(math.log(decay), params.m / 2.0)
    return params.eps1(alpha) / (params.m - 1) * decay_pow


def mixing_diffusion_first_batch(params: AccountingParams, alpha: float) -> float:
    """Mixing-and-diffusion + composition bound for first-batch records: slope * K."""
    _check_alpha(alpha)
    _require_strongly_convex(params, "mixing_diffusion_first_batch")
    _require_two_batches(params, "mixing_diffusion_first_batch")
    return _mixing_slope(params, alpha) * params.epochs


def mixing_diffusion_last_batch(params: AccountingParams, alpha: float) -> float:
    """Mixing-and-diffusion + composition bound for last-batch records.

    min(2*K*eps1, slope*(K-1) + eps1): the capped branch only matters for
    the first epoch, where the additive eps1 term has not amortized yet.
    """
    _check_alpha(alpha)
    _require_strongly_convex(params, "mixing_diffusion_last_batch")
    _require_two_batches(params, "mixing_diffusion_last_batch")
    if params.epochs == 0:
        return 0.0
    eps1 = params.eps1(alpha)
    k = params.epochs
    return min(2.0 * k * eps1, _mixing_slope(params, alpha) * (k - 1) + eps1)
