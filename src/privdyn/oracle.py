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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional

from .dynamics import _check_alpha, bound_fixed
from .numerics import logsumexp
from .params import AccountingError, AccountingParams
from .sampling import bound_shuffle

__all__ = [
    "SensitivityViolated",
    "DominanceViolated",
    "OracleInstance",
    "GaussianLaw",
    "DominanceReport",
    "make_instance",
    "gaussian_law",
    "exact_renyi",
    "verify_dominance",
]


class SensitivityViolated(AccountingError):
    """|x_i0 - x'_i0| > S_g/lambda, so the gradient sensitivity budget is broken."""


class DominanceViolated(AssertionError):
    """exact > bound beyond tolerance: an implementation bug, never expected."""


@dataclass(frozen=True, slots=True)
class GaussianLaw:
    """Exact parameter law N(mean, variance) at one iteration."""

    mean: float
    variance: float


@dataclass(frozen=True, slots=True)
class OracleInstance:
    """A pair of neighboring 1-D quadratic datasets plus a fixed batch schedule.

    The loss is (lam/2)*(theta - x)^2, so beta = lam and the stepsize must
    satisfy eta < 1/lam. ``data`` and ``data_alt`` differ in exactly one
    index; ``schedule`` is one shuffle-and-partition realization reused every
    epoch. ``theta0`` is the shared point initialization. Every instance is
    checked once, at construction, so the oracle functions never re-check it.
    """

    lam: float
    eta: float
    sigma: float
    epochs: int
    b: int
    s_g: float
    data: tuple[float, ...]
    data_alt: tuple[float, ...]
    schedule: tuple[tuple[int, ...], ...]
    theta0: float = 0.0

    def __post_init__(self) -> None:
        if not self.lam > 0:
            raise AccountingError(f"lam must be positive, got {self.lam!r}")
        if not self.eta > 0 or self.eta >= 1.0 / self.lam:
            raise AccountingError(f"eta = {self.eta!r} must lie in (0, 1/lam) = (0, {1.0 / self.lam})")
        if not self.sigma > 0 or not self.s_g > 0:
            raise AccountingError("sigma and s_g must be positive")
        if self.epochs < 0:
            raise AccountingError(f"epochs must be >= 0, got {self.epochs}")
        if len(self.data) != len(self.data_alt):
            raise AccountingError("neighboring datasets must have equal size")
        covered = [i for batch in self.schedule for i in batch]
        if sorted(covered) != list(range(self.n)):
            raise AccountingError("schedule must partition the index set exactly once")
        if any(len(batch) != self.b for batch in self.schedule):
            raise AccountingError(f"every batch must have size {self.b}")
        i0 = self.differing_index
        if i0 is not None:
            gap = abs(self.data[i0] - self.data_alt[i0])
            if gap > self.s_g / self.lam * (1 + 1e-12):
                raise SensitivityViolated(f"|x_i0 - x'_i0| = {gap} exceeds S_g/lam = {self.s_g / self.lam}")

    @property
    def n(self) -> int:
        return len(self.data)

    @property
    def m(self) -> int:
        return len(self.schedule)

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
        for j, batch in enumerate(self.schedule):
            if i0 in batch:
                return j
        raise AccountingError(f"differing index {i0} not covered by the schedule")

    def accounting_params(self, beta: Optional[float] = None) -> AccountingParams:
        """Matching bound inputs; beta defaults to the quadratic's own lam."""
        return AccountingParams(
            n=self.n,
            b=self.b,
            eta=self.eta,
            epochs=self.epochs,
            sigma=self.sigma,
            lam=self.lam,
            beta=self.lam if beta is None else beta,
            s_g=self.s_g,
        )


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
    if not params.lam > 0:
        raise AccountingError(f"the quadratic oracle needs lambda > 0, got {params.lam!r}")
    if j0 < 0 or j0 >= params.m:
        raise AccountingError(f"j0 = {j0} outside [0, {params.m - 1}]")
    if delta_x is None:
        delta_x = params.s_g / params.lam
    # a truncated tail batch never runs, so only the m*b scheduled records exist
    n_used = params.m * params.b
    i0 = j0 * params.b
    return OracleInstance(
        lam=params.lam,
        eta=params.eta,
        sigma=params.sigma,
        epochs=params.epochs,
        b=params.b,
        s_g=params.s_g,
        data=(0.0,) * n_used,
        data_alt=tuple(float(delta_x) if i == i0 else 0.0 for i in range(n_used)),
        schedule=tuple(tuple(range(j * params.b, (j + 1) * params.b)) for j in range(params.m)),
        theta0=theta0,
    )


def gaussian_law(
    instance: OracleInstance, alt: bool = False, trace: bool = False
) -> GaussianLaw | list[GaussianLaw]:
    """Exact (mean, variance) of the last iterate, or the whole trajectory."""
    shrink = 1.0 - instance.eta * instance.lam
    noise_var = 2.0 * instance.eta * instance.sigma**2
    data = instance.data_alt if alt else instance.data
    means = [sum(data[i] for i in batch) / instance.b for batch in instance.schedule]
    mean, var = instance.theta0, 0.0
    laws = [GaussianLaw(mean=mean, variance=var)]
    for _ in range(instance.epochs):
        for xbar in means:
            mean = shrink * mean + instance.eta * instance.lam * xbar
            var = shrink**2 * var + noise_var
            laws.append(GaussianLaw(mean=mean, variance=var))
    return laws if trace else laws[-1]


def exact_renyi(instance: OracleInstance, alpha: float) -> float:
    """Exact last-iterate Renyi divergence between the two runs.

    alpha*(mean gap)^2/(2*variance); 0 for identical datasets or K = 0.
    """
    _check_alpha(alpha)
    if instance.epochs == 0:
        return 0.0
    law = gaussian_law(instance, alt=False)
    law_alt = gaussian_law(instance, alt=True)
    gap = law.mean - law_alt.mean
    return alpha * gap * (gap / (2.0 * law.variance))  # gap*gap alone can underflow


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
    slack_tol: float = 1e-12,
) -> DominanceReport:
    """Check exact <= bound on this instance; raises DominanceViolated otherwise.

    kind "fixed" compares against the fixed-batch bound at the instance's own
    j0. kind "shuffle" treats the instance as a template: the exact values for
    all m placements of the differing record are combined with the log-mean-exp
    that forms the shuffle tail, and compared to the shuffle bound. The check
    allows a slack down to -slack_tol, times the bound when the bound exceeds 1.
    """
    _check_alpha(alpha)
    params = instance.accounting_params(beta=beta)
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
    if report.slack < -slack_tol * max(1.0, bound):
        raise DominanceViolated(
            f"exact {exact} exceeds bound {bound} (slack {report.slack})"
        )
    return report
