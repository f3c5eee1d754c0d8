"""Exact ground truth on 1-D quadratic losses.

With loss (lam/2)*(theta - x)^2 the gradient is lam*(theta - x), every
update is affine, and the parameter law stays exactly Gaussian:

    mean     <- (1 - eta*lam)*mean + eta*lam*batch_mean
    variance <- (1 - eta*lam)^2*variance + 2*eta*sigma^2

The variance is identical across two neighboring runs (noise and contraction
never look at the data), so the last-iterate Renyi divergence has the closed
form alpha*(mean difference)^2/(2*variance). That exact value must sit below
every bound, and meets the fixed-batch bound with equality at K = 1 when the
differing record is in the first batch.

An instance holds the ``AccountingParams`` its bounds read. The quadratic is
lam-smooth, so it is beta-smooth for every beta >= lam, and ``params.beta`` is
the smoothness those bounds use.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterator, Literal, Optional

from .dynamics import _check_alpha, bound_fixed
from .numerics import logsumexp
from .params import AccountingError, AccountingParams
from .sampling import bound_shuffle

__all__ = [
    "SensitivityViolated",
    "DominanceViolated",
    "OracleInstance",
    "DominanceReport",
    "make_instance",
    "exact_renyi",
    "verify_dominance",
]


class SensitivityViolated(AccountingError):
    """|x_i0 - x'_i0| > S_g/lambda, so the gradient sensitivity budget is broken."""


class DominanceViolated(AssertionError):
    """exact > bound beyond tolerance: an implementation bug, never expected."""


@dataclass(frozen=True, slots=True)
class OracleInstance:
    """A pair of neighboring 1-D quadratic datasets plus a fixed batch schedule.

    ``data`` and ``data_alt`` hold the m*b scheduled records of ``params``
    and differ in at most one index; ``schedule`` is one shuffle-and-partition
    realization into batches of b, reused every epoch. ``theta0`` is the
    shared point initialization. The instance is checked once, at
    construction, so the oracle functions never re-check it.
    """

    params: AccountingParams
    data: tuple[float, ...]
    data_alt: tuple[float, ...]
    schedule: tuple[tuple[int, ...], ...]
    theta0: float = 0.0

    def __post_init__(self) -> None:
        p = self.params
        if not p.lam > 0:
            raise AccountingError(f"the quadratic oracle needs lambda > 0, got {p.lam!r}")
        n_used = p.m * p.b  # a truncated tail batch never runs
        if len(self.data) != n_used or len(self.data_alt) != n_used:
            raise AccountingError(f"each dataset must hold m*b = {n_used} records, "
                                  f"got {len(self.data)} and {len(self.data_alt)}")
        covered = [i for batch in self.schedule for i in batch]
        if sorted(covered) != list(range(n_used)):
            raise AccountingError("schedule must partition the index set exactly once")
        if any(len(batch) != p.b for batch in self.schedule):
            raise AccountingError(f"every batch must have size {p.b}")
        i0 = self.differing_index
        if i0 is not None:
            gap = abs(self.data[i0] - self.data_alt[i0])
            if gap > p.s_g / p.lam * (1 + 1e-12):
                raise SensitivityViolated(f"|x_i0 - x'_i0| = {gap} exceeds S_g/lam = {p.s_g / p.lam}")

    @property
    def differing_index(self) -> Optional[int]:
        """Index of the differing record; None when the datasets coincide."""
        diffs = [i for i, (x, y) in enumerate(zip(self.data, self.data_alt)) if x != y]
        if len(diffs) > 1:
            raise AccountingError(f"instance must differ in at most one index, got {diffs}")
        return diffs[0] if diffs else None

    @property
    def j0(self) -> int:
        """Index of the batch containing the differing record."""
        i0 = self.differing_index
        if i0 is None:
            raise AccountingError("identical datasets have no differing batch")
        return next(j for j, batch in enumerate(self.schedule) if i0 in batch)  # the schedule covers i0


def make_instance(
    params: AccountingParams,
    j0: int,
    delta_x: Optional[float] = None,
    theta0: float = 0.0,
) -> OracleInstance:
    """Worst-case instance for the given accounting inputs.

    All records are 0 except the differing one in the alt dataset, placed in
    batch j0 with gap delta_x (default S_g/lam, the sensitivity maximum);
    the schedule is the contiguous partition.
    """
    if j0 < 0 or j0 >= params.m:
        raise AccountingError(f"j0 = {j0} outside [0, {params.m - 1}]")
    if delta_x is None:
        delta_x = params.s_g / params.lam if params.lam > 0 else 0.0  # the instance refuses lam = 0
    n_used = params.m * params.b
    i0 = j0 * params.b
    return OracleInstance(
        params=params,
        data=(0.0,) * n_used,
        data_alt=tuple(float(delta_x) if i == i0 else 0.0 for i in range(n_used)),
        schedule=tuple(tuple(range(j * params.b, (j + 1) * params.b)) for j in range(params.m)),
        theta0=theta0,
    )


def _gaussian_laws(instance: OracleInstance, alt: bool = False) -> Iterator[tuple[float, float]]:
    """Exact law N(mean, variance) of every iterate of one run, the initial point first."""
    p = instance.params
    shrink = 1.0 - p.eta * p.lam
    noise_var = 2.0 * p.eta * p.sigma**2
    data = instance.data_alt if alt else instance.data
    means = [sum(data[i] for i in batch) / p.b for batch in instance.schedule]
    mean, var = instance.theta0, 0.0
    yield mean, var
    for _ in range(p.epochs):
        for xbar in means:
            mean = shrink * mean + p.eta * p.lam * xbar
            var = shrink**2 * var + noise_var
            yield mean, var


def exact_renyi(instance: OracleInstance, alpha: float) -> float:
    """Exact last-iterate Renyi divergence between the two runs.

    alpha*(mean gap)^2/(2*variance); 0 for identical datasets or K = 0.
    """
    _check_alpha(alpha)
    if instance.params.epochs == 0:
        return 0.0
    *_, (mean, variance) = _gaussian_laws(instance, alt=False)
    *_, (mean_alt, _) = _gaussian_laws(instance, alt=True)
    gap = mean - mean_alt
    return alpha * gap * (gap / (2.0 * variance))  # gap*gap alone can underflow


@dataclass(frozen=True, slots=True)
class DominanceReport:
    kind: str
    alpha: float
    exact: float
    bound: float

    @property
    def slack(self) -> float:
        return self.bound - self.exact

    def to_dict(self) -> dict:
        return {
            "exact": self.exact,
            "bound": self.bound,
            "slack": self.slack,
            "params": {"kind": self.kind, "alpha": self.alpha},
        }


def verify_dominance(
    instance: OracleInstance,
    alpha: float,
    bound_kind: Literal["fixed", "shuffle"] = "fixed",
    beta: Optional[float] = None,
) -> DominanceReport:
    """Check exact <= bound on this instance; raises DominanceViolated otherwise.

    kind "fixed" compares against the fixed-batch bound at the instance's own
    j0. kind "shuffle" treats the instance as a template: the exact values for
    all m placements of the differing record are combined with the log-mean-exp
    that forms the shuffle tail, and compared to the shuffle bound. The bounds
    read ``instance.params``; ``beta`` overrides its smoothness. The check
    allows a slack down to -1e-12, times the bound when the bound exceeds 1.
    """
    _check_alpha(alpha)
    params = instance.params if beta is None else dataclasses.replace(instance.params, beta=beta)
    if bound_kind == "fixed":
        exact = exact_renyi(instance, alpha)
        bound = bound_fixed(params, alpha, instance.j0).eps
    elif bound_kind == "shuffle":
        i0 = instance.differing_index
        gap = 0.0 if i0 is None else abs(instance.data[i0] - instance.data_alt[i0])
        per_batch = [
            exact_renyi(make_instance(params, j0, delta_x=gap, theta0=instance.theta0), alpha)
            for j0 in range(params.m)
        ]
        scale = alpha - 1.0
        exact = logsumexp(-math.log(params.m), [scale * e for e in per_batch]) / scale
        bound = bound_shuffle(params, alpha).eps
    else:
        raise AccountingError(f"unknown dominance kind {bound_kind!r}")
    report = DominanceReport(kind=bound_kind, alpha=alpha, exact=exact, bound=bound)
    if report.slack < -1e-12 * max(1.0, bound):
        raise DominanceViolated(
            f"exact {exact} exceeds bound {bound} (slack {report.slack})"
        )
    return report
