"""Bound-family registry and inverse problems: every bound family by its
CLI name, and the solvers for the noise scale or the epoch budget that
meets a target (eps, delta)."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from . import baselines, dynamics, sampling
from .convert import rdp_to_dp
from .params import AccountingError, AccountingParams, RdpPoint, with_epochs, with_sigma

__all__ = [
    "Unsatisfiable",
    "Family",
    "BoundKind",
    "MaxedOut",
    "MAXED_OUT",
    "evaluate_bound",
    "bound_limit",
    "converted_eps",
    "calibrate_noise",
    "max_epochs",
]


class Unsatisfiable(AccountingError):
    """No noise scale inside the bracket meets the target."""


Bound = Callable[[AccountingParams, float], float]


@dataclass(frozen=True, slots=True)
class Family:
    """One bound family at one order alpha.

    ``eps`` is the RDP bound at params.epochs; ``limit`` its K -> infinity
    limit (inf for the families that grow linearly in K); ``whole_curve``,
    when set, returns eps at K = 1..params.epochs in one pass.

    The entries call into the other layers through module attributes
    (``sampling.bound_shuffle``, not a captured function), so a wrapper
    installed on a module binding sees every call.
    """

    eps: Bound
    limit: Bound = lambda params, alpha: math.inf
    whole_curve: Optional[Callable[[AccountingParams, float], list[float]]] = None

    def curve(self, params: AccountingParams, alpha: float) -> list[float]:
        """eps at K = 1..params.epochs."""
        if self.whole_curve is not None:
            return self.whole_curve(params, alpha)
        return [self.eps(with_epochs(params, k), alpha) for k in range(1, params.epochs + 1)]


def _fixed_partition(j0_of: Callable[[AccountingParams], int]) -> Family:
    """The fixed-partition bound for the record in batch j0_of(params)."""

    def limit(params: AccountingParams, alpha: float) -> float:
        if params.strongly_convex:
            return dynamics.fixed_bound_limit(params, alpha, j0_of(params))
        return math.inf  # convex fixed bound grows linearly in K

    return Family(eps=lambda p, a: dynamics.bound_fixed(p, a, j0_of(p)).eps, limit=limit)


def _j0_missing(params: AccountingParams) -> int:
    raise AccountingError("kind fixed needs the batch index j0 of the differing record (--j0)")


def _shuffle_limit(params: AccountingParams, alpha: float) -> float:
    # the last-batch limit minus its eps0(1) tail is the limit of the head term
    head = dynamics.fixed_bound_limit(params, alpha, params.m - 1) - dynamics.eps0_term(
        params, alpha, 1
    )
    return head + sampling.shuffle_avg_term(params, alpha)


_LAST_BATCH = _fixed_partition(lambda p: p.m - 1)


class BoundKind(enum.Enum):
    """Every bound family, by its CLI name; ``kind.family`` evaluates it.

    This enum is the one table of families: the solvers, ``evaluate_bound``,
    ``bound_limit`` and every CLI subcommand resolve kinds through it.
    """

    SHUFFLE = "shuffle", Family(
        eps=lambda p, a: sampling.bound_shuffle(p, a).eps, limit=_shuffle_limit
    )
    SAMP_WO = "samp-wo", Family(
        eps=lambda p, a: sampling.bound_samp_wo_replacement(p, a),
        limit=lambda p, a: sampling.samp_wo_limit(p, a),
        whole_curve=lambda p, a: sampling.samp_wo_curve(p, a),
    )
    FIXED_LAST_BATCH = "fixed-last", _LAST_BATCH
    IMPROVED_LAST = "improved-last", _LAST_BATCH
    IMPROVED_FIRST = "improved-first", _fixed_partition(lambda p: 0)
    FIXED = "fixed", _fixed_partition(_j0_missing)
    SGM_COMPOSITION = "sgm", Family(eps=lambda p, a: baselines.sgm_eps(p, a))
    NAIVE = "naive", Family(
        eps=lambda p, a: dynamics.bound_naive_baseline(p, a),
        limit=lambda p, a: dynamics.naive_baseline_limit(p, a),
    )
    MIXING_DIFFUSION_FIRST = "mixing-diffusion-first", Family(
        eps=lambda p, a: baselines.mixing_diffusion_first_batch(p, a)
    )
    MIXING_DIFFUSION_LAST = "mixing-diffusion-last", Family(
        eps=lambda p, a: baselines.mixing_diffusion_last_batch(p, a)
    )

    def __new__(cls, value: str, family: Family) -> "BoundKind":
        member = object.__new__(cls)
        member._value_ = value
        member.family = family
        return member

    def at(self, j0: Optional[int] = None) -> Family:
        """This kind's family; kind fixed takes the batch index j0 from the caller."""
        if self is BoundKind.FIXED and j0 is not None:
            return _fixed_partition(lambda p: j0)
        return self.family


class MaxedOut(enum.Enum):
    """Sentinel for 'the bound converges below the budget: unlimited epochs'."""

    MAXED_OUT = "maxed_out"


MAXED_OUT = MaxedOut.MAXED_OUT


def evaluate_bound(params: AccountingParams, alpha: float, kind: BoundKind) -> float:
    """RDP eps of one bound family at params.epochs."""
    return kind.family.eps(params, alpha)


def bound_limit(params: AccountingParams, alpha: float, kind: BoundKind) -> float:
    """K -> infinity limit of a bound family (inf for the linear baselines)."""
    return kind.family.limit(params, alpha)


def converted_eps(
    params: AccountingParams,
    alpha_grid: Sequence[float],
    delta: float,
    kind: BoundKind,
) -> float:
    """(eps, delta)-DP eps of a bound family, minimized over the order grid."""
    points = [
        RdpPoint(alpha=a, eps=evaluate_bound(params, a, kind)) for a in alpha_grid
    ]
    return rdp_to_dp(points, delta).eps


def _check_target(target_eps: float) -> None:
    if not (target_eps > 0 and math.isfinite(target_eps)):
        raise AccountingError(f"target_eps must be positive and finite, got {target_eps!r}")


def calibrate_noise(
    params: AccountingParams,
    alpha_grid: Sequence[float],
    target_eps: float,
    delta: float,
    kind: BoundKind,
) -> float:
    """Smallest sigma in [1e-6, 1e6] whose converted eps meets the target.

    Bisects in log space until the bracket is within a relative 1e-6 (at
    most 200 midpoints). Every implemented bound is strictly decreasing in
    sigma. Ties break toward larger sigma (the bisection keeps the feasible
    endpoint). The incoming params.sigma is ignored.
    """
    _check_target(target_eps)
    lo, hi = 1e-6, 1e6

    def eps_at(sigma: float) -> float:
        return converted_eps(with_sigma(params, sigma), alpha_grid, delta, kind)

    if eps_at(lo) <= target_eps:
        return lo
    if eps_at(hi) > target_eps:
        raise Unsatisfiable(
            f"even sigma = {hi} gives eps > {target_eps} for {kind.value}"
        )
    for _ in range(200):
        mid = math.sqrt(lo * hi)  # sigma spans decades; bisect in log space
        if eps_at(mid) <= target_eps:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-6 * hi:
            break
    return hi


def max_epochs(
    params: AccountingParams,
    alpha_grid: Sequence[float],
    target_eps: float,
    delta: float,
    kind: BoundKind,
) -> Union[int, MaxedOut]:
    """Largest epoch count whose converted eps stays within the target.

    Returns 0 when even one epoch exceeds the budget, and the MAXED_OUT
    sentinel when the bound's K -> infinity limit already satisfies it
    (converging families admit unlimited epochs).
    """
    _check_target(target_eps)

    def eps_at(k: int) -> float:
        return converted_eps(with_epochs(params, k), alpha_grid, delta, kind)

    if eps_at(1) > target_eps:
        return 0
    limit_points = [
        RdpPoint(alpha=a, eps=bound_limit(params, a, kind)) for a in alpha_grid
    ]
    finite = [p for p in limit_points if math.isfinite(p.eps)]
    if finite and rdp_to_dp(finite, delta).eps <= target_eps:
        return MAXED_OUT
    # Exponential search for the first failing K, then binary search.
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
