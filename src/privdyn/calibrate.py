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
# eps at one order as a function of params that differ only in epochs, and the K -> infinity limit
Order = tuple[Callable[[AccountingParams], float], Callable[[], float]]


@dataclass(frozen=True, slots=True)
class Family:
    """One bound family at one order alpha.

    ``eps`` is the RDP bound at params.epochs; ``limit`` its K -> infinity
    limit (inf for the families that grow linearly in K). Two hooks give one
    order at many K for less work, and each gives values equal to ``eps``:

    - ``epoch_scan``, when set, yields eps at K = 1..params.epochs from one
      pass and may end early, after which every later epoch has the last
      value yielded; its values never fall.
    - ``per_order``, when set, takes params with epochs >= 1 and forms once
      what does not depend on K (shuffle's tail, sgm's per-step RDP); see
      ``at_order``.

    ``curve`` and ``max_epochs`` read eps from ``epoch_scan`` when set, else
    from ``per_order`` when set; ``max_epochs`` reads every order's limit from
    ``at_order``.
    The entries call into the other layers through module attributes
    (``sampling.bound_shuffle``, not a captured function), so a wrapper
    installed on a module binding sees every call.
    """

    eps: Bound
    limit: Bound = lambda params, alpha: math.inf
    epoch_scan: Optional[Callable[[AccountingParams, float], Iterator[float]]] = None
    per_order: Optional[Callable[[AccountingParams, float], Order]] = None

    def at_order(self, params: AccountingParams, alpha: float) -> Order:
        """eps at alpha as a function of params that differ from ``params`` (epochs >= 1)
        only in epochs, and the limit: ``per_order``'s pair, else ``eps`` and ``limit``."""
        if self.per_order is not None:
            return self.per_order(params, alpha)
        return (lambda p: self.eps(p, alpha)), (lambda: self.limit(params, alpha))

    def curve(
        self, params: AccountingParams, alpha: float, at_k: Optional[Sequence[AccountingParams]] = None
    ) -> list[float]:
        """eps at K = 1..params.epochs. ``at_k``, the params at those K, lets a
        caller drawing several curves build them once; an ``epoch_scan`` reads
        ``params`` alone."""
        if self.epoch_scan is not None:
            eps = list(self.epoch_scan(params, alpha))
            return eps + [eps[-1] if eps else 0.0] * (params.epochs - len(eps))
        if at_k is None:
            at_k = [with_epochs(params, k) for k in range(1, params.epochs + 1)]
        if self.per_order is None or not at_k:
            return [self.eps(p, alpha) for p in at_k]
        eps_at, _ = self.per_order(at_k[0], alpha)
        return list(map(eps_at, at_k))


def _shuffle_order(params: AccountingParams, alpha: float) -> Order:
    """The shuffle bound at one order, its K-free tail formed once by the bound_shuffle
    call that makes the family's checks and raises its errors; HeadTail.eps is head + tail,
    and shuffle_limit is _head_limit + tail."""
    tail = sampling.bound_shuffle(params, alpha).tail
    return (lambda p: dynamics._head(p, alpha) + tail), (lambda: dynamics._head_limit(params, alpha) + tail)


def _sgm_order(params: AccountingParams, alpha: float) -> Order:
    """The sgm bound at one order: sgm_eps's per-step RDP formed once, times the steps."""
    dynamics._check_alpha(alpha)
    step = baselines.sgm_rdp_per_step(params.q, baselines._sigma_eff(params), baselines.sgm_order(alpha))
    return (lambda p: p.steps * step), (lambda: math.inf)


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
        per_order=_shuffle_order,
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
    SGM_COMPOSITION = "sgm", Family(eps=lambda p, a: baselines.sgm_eps(p, a), per_order=_sgm_order)
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


MAXED_OUT = math.inf  # max_epochs' answer when the bound converges below the budget


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
    after that one check; a family with an epoch scan stops the check at its
    first epoch over the target. Any other order is solved inside
    [1e-6, best] to a relative 1e-10 by regula falsi in t = 1/sigma^2, where
    every family is convex and increasing, with the Illinois safeguard: a
    linear family is done in about 3 evaluations. Its probes read eps in
    full, and one that is not finite or leaves the bracket falls back to the
    geometric midpoint. The incoming params.sigma is ignored.
    """
    _check_target(target_eps)
    lo, hi = _SIGMA_BRACKET
    family = kind.family
    at_lo = with_sigma(params, lo)
    points = [RdpPoint(alpha=a, eps=family.eps(at_lo, a)) for a in alpha_grid]
    if rdp_to_dp(points, delta).eps <= target_eps:
        return lo
    best, at_best, found = hi, with_sigma(params, hi), False
    for index in _ranked(points, delta, target_eps):
        alpha = points[index].alpha

        def excess(eps: float) -> float:
            return _converted(alpha, eps, delta) - target_eps

        # the bracket's ends: sigma with the excess of its converted eps over the target
        above, at_above = best, at_best
        above_excess = excess(_capped_eps(family, at_best, alpha, delta, target_eps))
        if above_excess > 0:
            continue
        below, below_excess, moved = lo, excess(points[index].eps), None
        while above - below > 1e-10 * above:
            # the secant through both ends in t = 1/sigma^2: nan when below's excess is inf
            t = (above**-2 * below_excess - below**-2 * above_excess) / (below_excess - above_excess)
            sigma = 1.0 / math.sqrt(t)
            if not below <= sigma <= above:
                sigma = math.sqrt(below * above)
            half = 0.5e-10 * above  # a probe this close to an end moves just inside it
            sigma = min(max(sigma, below + half), above - half)
            at = with_sigma(params, sigma)
            probe_excess = excess(family.eps(at, alpha))
            # Illinois: an end that stays put twice running has its excess halved
            if probe_excess <= 0:
                below_excess /= 2 if moved == "above" else 1
                above, above_excess, at_above, moved = sigma, probe_excess, at, "above"
            else:
                above_excess /= 2 if moved == "below" else 1
                below, below_excess, moved = sigma, probe_excess, "below"
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
) -> Union[int, float]:
    """Largest epoch count whose converted eps stays within the target.

    Returns 0 when even one epoch exceeds the budget, and MAXED_OUT (inf)
    when the bound's K -> infinity limit already satisfies it (converging
    families admit unlimited epochs). Otherwise the answer is the largest
    K_alpha, each order solved alone: one evaluation at best + 1 skips an
    order that cannot raise the best so far, and the others get a doubling
    and bisection search of their own. Each order's K = 1 value, limit and
    search read ``Family.at_order``, which forms the K-free part once per
    order. A family with an epoch scan instead reads each order's scan up to
    its first epoch over the target, one pass per order.
    """
    _check_target(target_eps)
    family = kind.family
    grid = list(alpha_grid)
    at_one = with_epochs(params, 1)
    orders = [family.at_order(at_one, a) for a in grid]
    if family.epoch_scan is not None:
        # each order's pass gives K = 1 now and resumes after the limit check
        scans = [family.epoch_scan(with_epochs(params, _EPOCH_CAP), a) for a in grid]
        first = [next(scan, 0.0) for scan in scans]
    else:
        first = [eps_at(at_one) for eps_at, _ in orders]
    points = [RdpPoint(alpha=a, eps=eps) for a, eps in zip(grid, first)]
    if rdp_to_dp(points, delta).eps > target_eps:
        return 0
    limit_points = [RdpPoint(alpha=a, eps=limit()) for a, (_, limit) in zip(grid, orders)]
    finite = [p for p in limit_points if math.isfinite(p.eps)]
    if finite and rdp_to_dp(finite, delta).eps <= target_eps:
        return MAXED_OUT
    best, at_next = 0, None  # at_next: params at best + 1, once best >= 1
    for index in _ranked(points, delta, target_eps):
        alpha, (eps_at, _) = points[index].alpha, orders[index]

        def fits_eps(eps: float) -> bool:
            return _converted(alpha, eps, delta) <= target_eps

        if not fits_eps(points[index].eps):
            continue
        if family.epoch_scan is not None:
            best = max(best, _scan_epochs(scans[index], fits_eps))
            continue
        if at_next is not None and not fits_eps(eps_at(at_next)):
            continue
        best = _last_fitting_epoch(lambda k: fits_eps(eps_at(with_epochs(params, k))), best + 1)
        at_next = with_epochs(params, best + 1)
    return best
