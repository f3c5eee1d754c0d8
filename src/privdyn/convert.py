"""RDP -> (eps, delta) conversion and the regularized-logistic-regression
parameter derivations.

Every guarantee is change-one: the bounds hold for datasets that differ by
replacing one record, and so does each (eps, delta) converted from them. This
module alone knows the conversion rule; the solvers apply it through
``_converted``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .params import (
    AccountingError,
    AccountingParams,
    NonPositive,
    RdpPoint,
    sigma_from_multiplier,
)
from .sampling import bound_shuffle

__all__ = [
    "EmptyInput",
    "InvalidDelta",
    "DpGuarantee",
    "DEFAULT_ALPHA_GRID",
    "rdp_to_dp",
    "logistic_params",
    "corollary_logistic_bound",
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


def logistic_params(
    n: int,
    b: int,
    eta: float,
    epochs: int,
    lam: float,
    l_feat: float,
    grad_clip: float,
    sigma_mul: float,
    truncate_last_batch: bool = False,
) -> AccountingParams:
    """Accounting inputs for the noisy regularized-logistic-regression run.

    For features clipped to l2-norm <= l_feat the unregularized loss is
    sqrt(2*(l_feat^2+1))-Lipschitz and beta-smooth with beta = (l_feat^2+1)/2;
    clipping the unregularized gradient at grad_clip gives the regularized
    update map l2-sensitivity S_g = 2*grad_clip and makes it
    lambda-to-(beta+lambda) bi-Lipschitz. The noise multiplier converts to
    sigma = sqrt(eta/2)*(1/b)*sigma_mul*(S_g/2), so the stepsize condition
    becomes eta < 2/((l_feat^2+1)/2 + 2*lam).
    """
    if l_feat < 0:
        raise NonPositive(f"feature clip norm must be >= 0, got {l_feat!r}")
    if not lam > 0:
        raise NonPositive(f"regularizer lambda must be positive, got {lam!r}")
    if not grad_clip > 0:
        raise NonPositive(f"gradient clip norm must be positive, got {grad_clip!r}")
    s_g = 2.0 * grad_clip
    return AccountingParams(
        n=n,
        b=b,
        eta=eta,
        epochs=epochs,
        sigma=sigma_from_multiplier(eta, b, s_g, sigma_mul),
        lam=lam,
        beta=(l_feat**2 + 1.0) / 2.0 + lam,
        s_g=s_g,
        truncate_last_batch=truncate_last_batch,
    )


def corollary_logistic_bound(
    n: int,
    b: int,
    eta: float,
    epochs: int,
    lam: float,
    l_feat: float,
    grad_clip: float,
    sigma_mul: float,
    alpha: float,
    eps_norm: float = 0.0,
    truncate_last_batch: bool = False,
) -> float:
    """Shuffle bound of the logistic run plus the feature-normalization cost.

    eps_norm is an opaque additive RDP constant supplied by the caller; the
    per-step prefactor of the underlying bound equals 2*alpha/sigma_mul^2
    exactly (the sigma_mul parameterization cancels eta, b and S_g).
    """
    if eps_norm < 0:
        raise NonPositive(f"eps_norm must be >= 0, got {eps_norm!r}")
    params = logistic_params(
        n=n, b=b, eta=eta, epochs=epochs, lam=lam,
        l_feat=l_feat, grad_clip=grad_clip, sigma_mul=sigma_mul,
        truncate_last_batch=truncate_last_batch,
    )
    return eps_norm + bound_shuffle(params, alpha).eps
