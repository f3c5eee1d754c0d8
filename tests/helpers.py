"""Reference helpers that only the test suite uses.

They cross-check the library's closed forms from another angle (the
per-iteration recursion, log-Sobolev constants, the mixture inequality, the
SGM composition curve, the whole-grid solvers) and the oracle's recursion
from its closed form, and are not part of the accounting API.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import mpmath

from privdyn.baselines import _sigma_eff, sgm_order, sgm_rdp_per_step
from privdyn.calibrate import (
    MAXED_OUT,
    BoundKind,
    MaxedOut,
    Unsatisfiable,
    bound_limit,
)
from privdyn.convert import rdp_to_dp
from privdyn.dynamics import IndexOutOfRange, _check_alpha
from privdyn.numerics import geometric_sum, logsumexp
from privdyn.oracle import OracleInstance, _gaussian_laws
from privdyn.params import AccountingError, AccountingParams, RdpPoint, with_epochs, with_sigma


class ConvexityClass(enum.Enum):
    """Which log-Sobolev recursion lsi_constant follows."""

    CONVEX = "convex"
    STRONGLY_CONVEX = "strongly_convex"


def geometric_sum_params(params: AccountingParams, terms: float) -> float:
    """sum_{s=0}^{terms-1} r**s for this params' contraction ratio (closed form)."""
    return geometric_sum(params.log_r, terms)


def lsi_constant(
    params: AccountingParams,
    convexity: Optional[ConvexityClass],
    k: int,
    j: int,
) -> float:
    """Log-Sobolev constant of the parameter law at epoch k, step j.

    Convex: 1/(2*eta*sigma^2*t) with t = k*m + j. Strongly convex:
    1/(2*eta*sigma^2*G(t)). At t = 0 the law is a point mass and the
    constant is the +inf sentinel (math.inf, never a large finite float).
    """
    if convexity is None:
        convexity = (
            ConvexityClass.STRONGLY_CONVEX if params.strongly_convex else ConvexityClass.CONVEX
        )
    if k < 0 or j < 0 or j > params.m:
        raise IndexOutOfRange(f"iteration index (k={k}, j={j}) outside the schedule")
    t = k * params.m + j
    if t == 0:
        return math.inf
    if convexity is ConvexityClass.CONVEX:
        denom = float(t)
    else:
        denom = geometric_sum(params.log_r, t)
    return 1.0 / (2.0 * params.eta * params.sigma**2 * denom)


@dataclass(frozen=True, slots=True)
class LsiSequence:
    """Log-Sobolev constants of the parameter law, indexed by (epoch, step)."""

    params: AccountingParams
    convexity: ConvexityClass

    def at(self, k: int, j: int) -> float:
        return lsi_constant(self.params, self.convexity, k, j)


@dataclass(frozen=True, slots=True)
class RecursionStep:
    """One step of the per-iteration recursion: eps <- eps*multiplier + increment."""

    multiplier: float = 1.0
    increment: float = 0.0

    def apply(self, eps: float) -> float:
        return eps * self.multiplier + self.increment


def recursion_coefficients(
    params: AccountingParams,
    alpha: float,
    k: int,
    j: int,
    in_batch: bool,
) -> RecursionStep:
    """Per-iteration recursion coefficients at epoch k, step j.

    The differing-batch step adds eps1; every other step multiplies by
    (1 + c*2*eta*sigma^2/L^2)^-1 where c is the LSI constant entering the
    step and L = 1 (convex) or 1 - eta*lambda (strongly convex). The t = 0
    multiplier is 0 (infinite LSI constant), which is never divided by: the
    closed form below evaluates it as G(t)*r / G(t+1).
    """
    _check_alpha(alpha)
    if in_batch:
        return RecursionStep(increment=params.eps1(alpha))
    t = k * params.m + j
    if t < 0:
        raise IndexOutOfRange(f"iteration index t = {t} negative")
    if not params.strongly_convex:
        return RecursionStep(multiplier=t / (t + 1.0))
    g_t = geometric_sum(params.log_r, t)
    g_next = geometric_sum(params.log_r, t + 1)
    return RecursionStep(multiplier=params.r * g_t / g_next)


def mixture_rdp(mixtures: Sequence[tuple[float, float]], alpha: float) -> float:
    """(1/(a-1)) * log(sum_i w_i*exp((a-1)*eps_i)) through the library's logsumexp kernel."""
    scale = alpha - 1.0
    log_weights = [math.log(w) if w > 0 else -math.inf for w, _ in mixtures]
    return logsumexp(log_weights, [scale * e for _, e in mixtures]) / scale


def check_joint_convexity(mixtures: Sequence[tuple[float, float]], alpha: float) -> bool:
    """Property-test helper for the mixture inequality.

    Asserts exp((a-1)*mixture_rdp) <= sum_i w_i*exp((a-1)*eps_i) (up to
    float rounding) and returns True.
    """
    scale = alpha - 1.0
    lhs = scale * mixture_rdp(mixtures, alpha)
    # reference sum, independent of the logsumexp kernel
    with mpmath.workdps(30):
        rhs = float(mpmath.log(mpmath.fsum(w * mpmath.exp(scale * e) for w, e in mixtures)))
    if lhs > rhs + 1e-9 * max(1.0, abs(rhs)):
        raise AssertionError(f"mixture inequality violated: {lhs} > {rhs}")
    return True


@dataclass(frozen=True, slots=True)
class RdpCurve:
    """Ordered (epoch, eps) samples of one bound family at fixed alpha."""

    alpha: float
    points: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        epochs = [k for k, _ in self.points]
        if any(b <= a for a, b in zip(epochs, epochs[1:])):
            raise AccountingError("curve epochs must be strictly increasing")


def sgm_composition(params: AccountingParams, alpha: float) -> RdpCurve:
    """SGM composition curve: eps(k) = k*m*per_step for k = 1..params.epochs."""
    _check_alpha(alpha)
    per_step = sgm_rdp_per_step(params.q, _sigma_eff(params), sgm_order(alpha))
    per_epoch = params.m * per_step
    points = tuple((k, k * per_epoch) for k in range(1, params.epochs + 1))
    return RdpCurve(alpha=float(alpha), points=points)


def sgm_epoch_approximation(params: AccountingParams, alpha: float) -> float:
    """Leading-term per-epoch approximation q * eps1 (documentation plots only)."""
    _check_alpha(alpha)
    return params.q * params.eps1(alpha)


def full_converted_eps(
    params: AccountingParams, alpha_grid: Sequence[float], delta: float, kind: BoundKind
) -> float:
    """converted_eps with every order evaluated in full: rdp_to_dp over the family's eps."""
    return rdp_to_dp([RdpPoint(alpha=a, eps=kind.family.eps(params, a)) for a in alpha_grid], delta).eps


def reference_calibrate_noise(
    params: AccountingParams,
    alpha_grid: Sequence[float],
    target_eps: float,
    delta: float,
    kind: BoundKind,
) -> float:
    """Smallest sigma in [1e-6, 1e6] meeting the target, by bisecting the whole grid.

    Every probe converts all orders, each evaluated in full; log-space bisection stops when the
    bracket is within a relative 1e-6 (at most 200 midpoints) and returns
    its feasible end.
    """
    lo, hi = 1e-6, 1e6

    def eps_at(sigma: float) -> float:
        return full_converted_eps(with_sigma(params, sigma), alpha_grid, delta, kind)

    if eps_at(lo) <= target_eps:
        return lo
    if eps_at(hi) > target_eps:
        raise Unsatisfiable(f"even sigma = {hi} gives eps > {target_eps} for {kind.value}")
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if eps_at(mid) <= target_eps:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-6 * hi:
            break
    return hi


def reference_max_epochs(
    params: AccountingParams,
    alpha_grid: Sequence[float],
    target_eps: float,
    delta: float,
    kind: BoundKind,
) -> Union[int, MaxedOut]:
    """Largest epoch count meeting the target, by a doubling and bisection search of the whole grid."""

    def eps_at(k: int) -> float:
        return full_converted_eps(with_epochs(params, k), alpha_grid, delta, kind)

    if eps_at(1) > target_eps:
        return 0
    limits = [RdpPoint(alpha=a, eps=bound_limit(params, a, kind)) for a in alpha_grid]
    finite = [p for p in limits if math.isfinite(p.eps)]
    if finite and rdp_to_dp(finite, delta).eps <= target_eps:
        return MAXED_OUT
    lo, hi = 1, 2
    while eps_at(hi) <= target_eps:
        lo = hi
        hi *= 2
        if hi > 2**40:
            raise AccountingError("epoch search exceeded 2^40 without crossing the target")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if eps_at(mid) <= target_eps:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True, slots=True)
class GaussianLaw:
    """Exact parameter law N(mean, variance) at one iteration."""

    mean: float
    variance: float


def gaussian_trajectory(instance: OracleInstance, alt: bool = False) -> list[GaussianLaw]:
    """The oracle's exact law of every iterate of one run, the initial point first."""
    return [GaussianLaw(mean, variance) for mean, variance in _gaussian_laws(instance, alt=alt)]


def closed_form_law(instance: OracleInstance, alt: bool = False) -> list[tuple[float, float]]:
    """(mean, variance) of every iterate of the quadratic oracle, without its recursion.

    With rho = 1 - eta*lam and S = sum_j xbar_j*rho^(m-1-j), the variance after
    t steps is 2*eta*sigma^2*(1 - rho^(2t))/(1 - rho^2), and the mean at the
    start of epoch e is rho^(e*m)*theta0 + eta*lam*S*(1 - rho^(e*m))/(1 - rho^m).
    i steps into an epoch the mean is rho^i times that, plus
    eta*lam*sum_{s<i} xbar_s*rho^(i-1-s). Powers of rho go through log1p and
    expm1, so 1 - rho^k keeps its relative precision when eta*lam is small.
    """
    p = instance.params
    eta_lam = p.eta * p.lam
    log_rho = math.log1p(-eta_lam)
    data = instance.data_alt if alt else instance.data
    xbar = [sum(data[i] for i in batch) / p.b for batch in instance.schedule]
    m = len(xbar)
    partial = [
        sum(math.exp((i - 1 - s) * log_rho) * xbar[s] for s in range(i)) for i in range(m + 1)
    ]
    stationary_var = 2.0 * p.eta * p.sigma**2 / -math.expm1(2.0 * log_rho)
    laws = []
    for t in range(p.epochs * m + 1):
        e, i = divmod(t, m)
        epoch_start = math.exp(e * m * log_rho) * instance.theta0 + (
            eta_lam * partial[m] * math.expm1(e * m * log_rho) / math.expm1(m * log_rho)
        )
        mean = math.exp(i * log_rho) * epoch_start + eta_lam * partial[i]
        laws.append((mean, stationary_var * -math.expm1(2.0 * t * log_rho)))
    return laws
