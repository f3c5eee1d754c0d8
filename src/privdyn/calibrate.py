"""Bound-family registry and inverse problems: every bound family by its
CLI name, and the solvers for the noise scale or the epoch budget that
meets a target (eps, delta)."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Union

from . import baselines, dynamics, sampling
from .convert import _converted, rdp_to_dp
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


_SIGMA_BRACKET = (1e-6, 1e6)
_EPOCH_CAP = 2**40


class Unsatisfiable(AccountingError):
    """No noise scale inside the bracket meets the target."""


Bound = Callable[[AccountingParams, float], float]


@dataclass(frozen=True, slots=True)
class Family:
    """One bound family at one order alpha.

    ``eps`` is the RDP bound at params.epochs; ``limit`` its K -> infinity
    limit (inf for the families that grow linearly in K); ``epoch_scan``,
    when set, yields eps at K = 1..params.epochs from one pass and may end
    early, after which every later epoch has the last value yielded; its values never fall.

    The entries call into the other layers through module attributes
    (``sampling.bound_shuffle``, not a captured function), so a wrapper
    installed on a module binding sees every call.
    """

    eps: Bound
    limit: Bound = lambda params, alpha: math.inf
    epoch_scan: Optional[Callable[[AccountingParams, float], Iterator[float]]] = None

    def curve(self, params: AccountingParams, alpha: float) -> list[float]:
        """eps at K = 1..params.epochs."""
        if self.epoch_scan is None:
            return [self.eps(with_epochs(params, k), alpha) for k in range(1, params.epochs + 1)]
        eps = list(self.epoch_scan(params, alpha))
        return eps + [eps[-1] if eps else 0.0] * (params.epochs - len(eps))


def _fixed_partition(j0_of: Callable[[AccountingParams], int]) -> Family:
    """The fixed-partition bound for the record in batch j0_of(params)."""
    return Family(
        eps=lambda p, a: dynamics.bound_fixed(p, a, j0_of(p)).eps,
        limit=lambda p, a: dynamics.fixed_bound_limit(p, a, j0_of(p)),
    )


def _j0_missing(params: AccountingParams) -> int:
    raise AccountingError("kind fixed needs the batch index j0 of the differing record (--j0)")


_LAST_BATCH = _fixed_partition(lambda p: p.m - 1)


class BoundKind(enum.Enum):
    """Every bound family, by its CLI name; ``kind.family`` evaluates it.

    This enum is the one table of families: the solvers, ``evaluate_bound``,
    ``bound_limit`` and every CLI subcommand resolve kinds through it.
    """

    SHUFFLE = "shuffle", Family(
        eps=lambda p, a: sampling.bound_shuffle(p, a).eps,
        limit=lambda p, a: sampling.shuffle_limit(p, a),
    )
    SAMP_WO = "samp-wo", Family(
        eps=lambda p, a: sampling.bound_samp_wo_replacement(p, a),
        limit=lambda p, a: sampling.samp_wo_limit(p, a),
        epoch_scan=lambda p, a: sampling.samp_wo_epochs(p, a),
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


def _capped_eps(family: Family, params: AccountingParams, alpha: float, delta: float, cap: float) -> float:
    """family.eps(params, alpha), or inf from the first scanned epoch whose converted eps exceeds
    cap: the scan only rises and rounding is monotone, so the final value could not meet cap."""
    if family.epoch_scan is None:
        return family.eps(params, alpha)
    eps = 0.0
    for eps in family.epoch_scan(params, alpha):
        if _converted(alpha, eps, delta) > cap:
            return math.inf
    return eps


def converted_eps(
    params: AccountingParams,
    alpha_grid: Sequence[float],
    delta: float,
    kind: BoundKind,
) -> float:
    """(eps, delta)-DP eps of a bound family, minimized over the order grid.

    With an epoch scan, the orders go by converted limit, each stopped once it cannot win.
    """
    family, grid = kind.family, list(alpha_grid)
    try:  # a bad input goes to the full evaluation, which raises its usual error first
        keys = [_converted(a, family.limit(params, a), delta) for a in grid] if family.epoch_scan else []
    except (ArithmeticError, ValueError):
        keys = []
    if not keys:
        points = [RdpPoint(alpha=a, eps=evaluate_bound(params, a, kind)) for a in grid]
        return rdp_to_dp(points, delta).eps
    eps, best = [math.inf] * len(grid), math.inf
    for i in sorted(range(len(grid)), key=keys.__getitem__):
        eps[i] = _capped_eps(family, params, grid[i], delta, best)
        best = min(best, _converted(grid[i], eps[i], delta))
    return rdp_to_dp(map(RdpPoint, grid, eps), delta).eps


def _check_target(target_eps: float) -> None:
    if not (target_eps > 0 and math.isfinite(target_eps)):
        raise AccountingError(f"target_eps must be positive and finite, got {target_eps!r}")


def _ranked(points: Sequence[RdpPoint], delta: float, target_eps: float) -> list[int]:
    """Indices of the orders that leave room under the target, smallest eps per unit of room first.

    An order's room is the target less its converted eps at RDP eps 0; one
    with negative room never meets the target, since eps >= 0.
    """
    keyed = []
    for index, pt in enumerate(points):
        room = target_eps - _converted(pt.alpha, 0.0, delta)
        if room >= 0:
            keyed.append((pt.eps / room if room > 0 else math.inf, index))
    return [index for _, index in sorted(keyed)]


def calibrate_noise(
    params: AccountingParams,
    alpha_grid: Sequence[float],
    target_eps: float,
    delta: float,
    kind: BoundKind,
) -> float:
    """Smallest sigma in [1e-6, 1e6] whose converted eps meets the target.

    The converted eps meets the target exactly when one order does, so the
    answer is the smallest sigma_alpha, each order solved alone. The orders
    are taken by their eps at sigma = 1e-6 per unit of room, which ranks
    them by sigma_alpha exactly for the families that scale as 1/sigma^2.
    An order that misses the target at the best sigma so far is skipped
    after that one evaluation; any other is bisected in log space inside
    [1e-6, best] to a relative 1e-10; a family with an epoch scan stops a
    check at its first epoch over the target. Every bound decreases in
    sigma. The incoming params.sigma is ignored.
    """
    _check_target(target_eps)
    lo, hi = _SIGMA_BRACKET
    family = kind.family
    at_lo = with_sigma(params, lo)
    points = [RdpPoint(alpha=a, eps=family.eps(at_lo, a)) for a in alpha_grid]
    if rdp_to_dp(points, delta).eps <= target_eps:
        return lo

    def fits(at: AccountingParams, alpha: float) -> bool:
        return _converted(alpha, _capped_eps(family, at, alpha, delta, target_eps), delta) <= target_eps

    best, at_best, found = hi, with_sigma(params, hi), False
    for index in _ranked(points, delta, target_eps):
        alpha = points[index].alpha
        if not fits(at_best, alpha):
            continue
        below, above, at_above = lo, best, at_best
        while above - below > 1e-10 * above:
            mid = math.sqrt(below * above)  # sigma spans decades; bisect in log space
            at_mid = with_sigma(params, mid)
            if fits(at_mid, alpha):
                above, at_above = mid, at_mid
            else:
                below = mid
        best, at_best, found = above, at_above, True
    if not found:
        raise Unsatisfiable(f"even sigma = {hi} gives eps > {target_eps} for {kind.value}")
    return best


def _last_fitting_epoch(fits_at: Callable[[int], bool], lo: int) -> int:
    """Largest K that fits, given that K = lo fits: doubling over powers of two, then bisection."""
    hi = 1 << lo.bit_length()  # the smallest power of two above lo
    while lo < _EPOCH_CAP and fits_at(hi):
        lo, hi = hi, 2 * hi
    if lo >= _EPOCH_CAP:
        raise AccountingError("epoch search exceeded 2^40 without crossing the target")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits_at(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _scan_epochs(scan: Iterator[float], fits_eps: Callable[[float], bool]) -> int:
    """Largest K that fits, read from an epoch scan whose K = 1 value has been taken and fits."""
    k = 1
    for eps in scan:
        if not fits_eps(eps):
            return k
        k += 1
    # every epoch up to the cap fits, or the scan reached its fixed point and it fits
    raise AccountingError("epoch search exceeded 2^40 without crossing the target")


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
    (converging families admit unlimited epochs). Otherwise the answer is
    the largest K_alpha, each order solved alone: one evaluation at
    best + 1 skips an order that cannot raise the best so far, and the
    others get a doubling and bisection search of their own. A family with
    an epoch scan instead reads each order's scan up to its first epoch
    over the target, one pass per order.
    """
    _check_target(target_eps)
    family = kind.family
    grid = list(alpha_grid)
    if family.epoch_scan is not None:
        # each order's pass gives K = 1 now and resumes after the limit check
        scans = [family.epoch_scan(with_epochs(params, _EPOCH_CAP), a) for a in grid]
        first = [next(scan, 0.0) for scan in scans]
    else:
        at_one = with_epochs(params, 1)
        first = [family.eps(at_one, a) for a in grid]
    points = [RdpPoint(alpha=a, eps=eps) for a, eps in zip(grid, first)]
    if rdp_to_dp(points, delta).eps > target_eps:
        return 0
    limit_points = [
        RdpPoint(alpha=a, eps=bound_limit(params, a, kind)) for a in grid
    ]
    finite = [p for p in limit_points if math.isfinite(p.eps)]
    if finite and rdp_to_dp(finite, delta).eps <= target_eps:
        return MAXED_OUT
    best, at_next = 0, None  # at_next: params at best + 1, once best >= 1
    for index in _ranked(points, delta, target_eps):
        alpha = points[index].alpha

        def fits_eps(eps: float) -> bool:
            return _converted(alpha, eps, delta) <= target_eps

        if not fits_eps(points[index].eps):
            continue
        if family.epoch_scan is not None:
            best = max(best, _scan_epochs(scans[index], fits_eps))
            continue
        if at_next is not None and not fits_eps(family.eps(at_next, alpha)):
            continue
        best = _last_fitting_epoch(
            lambda k: fits_eps(family.eps(with_epochs(params, k), alpha)), best + 1
        )
        at_next = with_epochs(params, best + 1)
    return best
