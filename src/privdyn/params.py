"""Accounting inputs: validation, derived ratios, and the derivations of
sigma from a noise multiplier and of the logistic-regression inputs.

Every bound in the package reads its hyperparameters from a single frozen
:class:`AccountingParams`. The noise convention follows the update rule
``theta <- theta - eta*grad + sqrt(2*eta*sigma^2)*N(0, I)``: per-step
Gaussian noise has variance ``2*eta*sigma^2``.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from typing import Union

from .numerics import contraction_log

__all__ = [
    "AccountingError",
    "NonPositive",
    "StepsizeTooLarge",
    "BatchCountTooSmall",
    "NonDividingBatch",
    "AccountingParams",
    "RdpPoint",
    "make_params",
    "validate",
    "with_epochs",
    "with_sigma",
    "sigma_from_multiplier",
    "logistic_params",
]


class AccountingError(ValueError):
    """Base class for all accounting input errors (CLI exit code 2)."""


class NonPositive(AccountingError):
    """A required-positive field is zero or negative."""


class StepsizeTooLarge(AccountingError):
    """eta >= 2/(lambda+beta) (strongly convex) or eta >= 2/beta (convex)."""


class BatchCountTooSmall(AccountingError):
    """Fewer than two mini-batches per epoch for a strongly convex bound."""


class NonDividingBatch(AccountingError):
    """n mod b != 0 and truncate_last_batch is off."""


@dataclass(frozen=True, slots=True)
class AccountingParams:
    """Full hyperparameter tuple shared by every bound.

    Fields: dataset size ``n``, mini-batch size ``b``, stepsize ``eta``,
    epoch count ``epochs``, noise scale ``sigma`` (per-step noise variance
    2*eta*sigma^2), the loss regularity (``lam == 0`` convex, ``lam > 0``
    lam-strongly convex; beta-smooth; per-example gradient l2-sensitivity
    ``s_g``), and the explicit opt-in for ignoring a non-dividing tail
    batch. Fields are stored as given: every construction,
    ``dataclasses.replace`` included, runs :func:`validate`, which refuses a
    field of the wrong type, so a params object that exists is a valid one.
    """

    n: int
    b: int
    eta: float
    epochs: int
    sigma: float
    lam: float
    beta: float
    s_g: float
    truncate_last_batch: bool = False

    def __post_init__(self) -> None:
        validate(self)

    @property
    def strongly_convex(self) -> bool:
        return self.lam > 0

    @property
    def m(self) -> int:
        """Mini-batches per epoch, floor(n/b)."""
        return self.n // self.b

    @property
    def q(self) -> float:
        """Per-iteration sampling ratio b/n."""
        return self.b / self.n

    @property
    def log_r(self) -> float:
        """ln of the contraction ratio r = (1 - eta*lambda)^2."""
        return contraction_log(self.eta, self.lam)

    @property
    def r(self) -> float:
        return math.exp(self.log_r)

    @property
    def eps1_coeff(self) -> float:
        """Per-step base RDP coefficient eta*S_g^2/(4*sigma^2*b^2); eps1 = alpha * this."""
        return self.eta * self.s_g**2 / (4.0 * self.sigma**2 * self.b**2)

    @property
    def steps(self) -> int:
        return self.epochs * self.m

    def eps1(self, alpha: float) -> float:
        return alpha * self.eps1_coeff


@dataclass(frozen=True, slots=True)
class RdpPoint:
    """An (order alpha, eps) pair; alpha > 1, eps >= 0."""

    alpha: float
    eps: float


def _require_positive(**fields: Union[int, float]) -> None:
    for name, value in fields.items():
        if not value > 0:
            raise NonPositive(f"{name} must be positive, got {value!r}")


def validate(params: AccountingParams) -> AccountingParams:
    """Check every invariant and return the (unchanged, frozen) params.

    Runs once per construction, from AccountingParams.__post_init__; the
    bounds never re-check. Idempotent. Raises NonPositive,
    BatchCountTooSmall, NonDividingBatch, StepsizeTooLarge, or
    AccountingError for a field of the wrong type (a bool is no number), a
    non-finite field or an eps1 coefficient that is not a positive normal
    float64; derived quantities (m, r, eps1_coeff, q) are exposed as
    properties of the returned object.
    """
    for name, value in (("n", params.n), ("b", params.b), ("epochs", params.epochs)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise AccountingError(f"{name} must be an int, got {value!r}")
    for name, value in (
        ("eta", params.eta), ("sigma", params.sigma), ("lambda", params.lam),
        ("beta", params.beta), ("sensitivity", params.s_g),
    ):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise AccountingError(f"{name} must be an int or a float, got {value!r}")
        if isinstance(value, int) and abs(value) > sys.float_info.max:  # math.isfinite would overflow
            raise AccountingError(f"{name} must be within float64 range, got an int of {value.bit_length()} bits")
        if not math.isfinite(value):
            raise AccountingError(f"{name} must be finite, got {value!r}")
    if not isinstance(params.truncate_last_batch, bool):
        raise AccountingError(f"truncate_last_batch must be a bool, got {params.truncate_last_batch!r}")
    _require_positive(
        n=params.n, b=params.b, eta=params.eta, sigma=params.sigma,
        beta=params.beta, sensitivity=params.s_g,
    )
    if params.lam < 0:
        raise NonPositive(f"lambda must be nonnegative, got {params.lam!r}")
    if params.epochs < 0:
        raise NonPositive(f"epochs must be >= 0, got {params.epochs!r}")
    if params.lam > params.beta:
        raise AccountingError(
            f"strong convexity constant {params.lam} exceeds smoothness {params.beta}"
        )
    if params.b > params.n:
        raise BatchCountTooSmall(f"batch size {params.b} exceeds dataset size {params.n}")
    if params.n % params.b != 0 and not params.truncate_last_batch:
        raise NonDividingBatch(
            f"b = {params.b} does not divide n = {params.n}; "
            "pass truncate_last_batch=True to ignore the tail batch"
        )
    max_stepsize = 2.0 / (params.lam + params.beta)  # 2/beta when convex
    if params.eta >= max_stepsize:
        raise StepsizeTooLarge(
            f"eta = {params.eta} must be < {max_stepsize} "
            f"(2/(lambda+beta) for lambda={params.lam}, beta={params.beta})"
        )
    try:
        coeff = params.eps1_coeff
    except ArithmeticError:  # sigma**2 underflows to 0, or S_g**2 overflows
        coeff = math.inf
    # A subnormal or zero coefficient (S_g**2 underflows) would under-report
    # every bound, and 1/coeff (the sgm noise-to-sensitivity ratio) overflows.
    if not sys.float_info.min <= coeff < math.inf:
        raise AccountingError(f"float64 cannot evaluate eps1 = alpha*eta*S_g^2/(4*sigma^2*b^2) "
                              f"at sigma = {params.sigma!r}, sensitivity = {params.s_g!r}")
    if params.strongly_convex:
        # 0 < r < 1 is implied by 0 < eta*lambda < 1, which the stepsize check
        # guarantees since lambda <= beta. Assert on ln r: the exponentiated
        # value rounds to exactly 1.0 when eta*lambda is below float resolution.
        if not params.log_r < 0.0:
            raise StepsizeTooLarge(f"contraction r = {params.r} not inside (0, 1)")
    return params


make_params = AccountingParams  # the constructor's library name


def with_epochs(params: AccountingParams, epochs: int) -> AccountingParams:
    return dataclasses.replace(params, epochs=epochs)


def with_sigma(params: AccountingParams, sigma: float) -> AccountingParams:
    return dataclasses.replace(params, sigma=sigma)


def sigma_from_multiplier(eta: float, b: int, s_g: float, sigma_mul: float) -> float:
    """Noise scale sigma equivalent to a given implementation noise multiplier.

    sigma = sqrt(eta/2) * (1/b) * sigma_mul * (S_g/2), so that adding
    eta*(1/b)*sigma_mul*(S_g/2)*N(0, I) per update matches the
    sqrt(2*eta*sigma^2) noise convention.
    """
    _require_positive(eta=eta, b=b, sensitivity=s_g, sigma_mul=sigma_mul)
    return math.sqrt(eta / 2.0) * sigma_mul * s_g / (2.0 * b)


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
    becomes eta < 2/((l_feat^2+1)/2 + 2*lam) and the per-step prefactor
    eps1 equals 2*alpha/sigma_mul^2 exactly.
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
