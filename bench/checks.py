"""Untimed output checks. Each returns the reasons a query's output is wrong.

Every query gets its cheap checks: the eps it returns or implies is finite and
>= 0, a solved sigma meets its target and is tight, a solved epoch count sits
at the crossing, and a curve parses and matches a direct bound call. A seeded
subset (``deep``) also gets the expensive ones: ``oracle.verify_dominance`` of
the fixed and shuffle bounds against the exact Gaussian law, and an mpmath
re-evaluation that the float shuffle and sgm bounds must not undercut.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Any, Callable

import mpmath

from privdyn import baselines, calibrate, convert, dynamics, oracle, params, sampling

from workloads import DELTA, GRID, Query, make

MP_DIGITS = 30
MP_REL_TOL = 1e-9  # float bound >= mpmath value * (1 - MP_REL_TOL)
ROW_REL_TOL = 1e-12  # curve row against a direct bound call
SIGMA_BRACKET_LO = 1e-6  # calibrate_noise's default bracket starts here
# verify_dominance("shuffle") steps the exact law K*m times for each of the m
# batch positions; bigger instances are left to the mpmath check.
SHUFFLE_ORACLE_MAX_STEPS = 100_000

# The bound functions themselves, not cli.BOUND_KINDS: a curve row is checked
# against a call that does not go through the dispatch that produced it.
DIRECT: dict[str, Callable[[params.AccountingParams, float], float]] = {
    "shuffle": lambda p, a: sampling.bound_shuffle(p, a).eps,
    "samp-wo": sampling.bound_samp_wo_replacement,
    "improved-first": lambda p, a: dynamics.bound_fixed(p, a, 0).eps,
    "improved-last": lambda p, a: dynamics.bound_fixed(p, a, p.m - 1).eps,
    "fixed-last": lambda p, a: dynamics.bound_fixed(p, a, p.m - 1).eps,
    "naive": dynamics.bound_naive_baseline,
    "sgm": baselines.sgm_eps,
    "mixing-diffusion-first": baselines.mixing_diffusion_first_batch,
    "mixing-diffusion-last": baselines.mixing_diffusion_last_batch,
}


def _valid_eps(eps: float) -> bool:
    return isinstance(eps, float) and math.isfinite(eps) and eps >= 0.0


def mp_shuffle(p: params.AccountingParams, alpha: float) -> float:
    """The shuffle bound re-evaluated in mpmath, tail sum through expm1/log1p."""
    if p.epochs == 0:
        return 0.0
    with mpmath.workdps(MP_DIGITS):
        a = mpmath.mpf(alpha)
        r = (1 - mpmath.mpf(p.eta) * mpmath.mpf(p.lam)) ** 2
        eps1 = a * mpmath.mpf(p.eta) * mpmath.mpf(p.s_g) ** 2 / (4 * mpmath.mpf(p.sigma) ** 2 * p.b**2)

        def eps0(j: int) -> Any:
            return eps1 * r ** (j - 1) * (1 - r) / (1 - r**j)

        m, h = p.m, p.m // 2
        first = 0 if p.epochs <= 1 else eps0(h) * (1 - r ** ((p.epochs - 1) * (m - h))) / (1 - r ** (m - h))
        total, r_prev = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(m):
            r_next = r_prev * r
            total += mpmath.expm1((a - 1) * eps1 * r_prev * (1 - r) / (1 - r_next))
            r_prev = r_next
        return float(first + mpmath.log1p(total / m) / (a - 1))


def mp_sgm(p: params.AccountingParams, alpha: float) -> float:
    """The composed sgm bound re-evaluated in mpmath at the order sgm_eps uses."""
    if p.epochs == 0:
        return 0.0
    order = max(2, math.ceil(alpha - 1e-12))
    with mpmath.workdps(MP_DIGITS):
        q = mpmath.mpf(p.b) / p.n
        eta = mpmath.mpf(p.eta)
        sigma_eff = mpmath.sqrt(2 * eta * mpmath.mpf(p.sigma) ** 2) / (eta * mpmath.mpf(p.s_g) / p.b)
        # the binomial weights sum to 1, so the moment is 1 + sum(weight * expm1(.))
        excess = mpmath.fsum(
            mpmath.binomial(order, k) * (1 - q) ** (order - k) * q**k
            * mpmath.expm1(mpmath.mpf(k * (k - 1)) / (2 * sigma_eff**2))
            for k in range(2, order + 1)
        )
        return float(p.epochs * p.m * mpmath.log1p(excess) / (order - 1))


class Checker:
    """Runs the checks and counts how many of each kind ran."""

    def __init__(self) -> None:
        self.ran: Counter[str] = Counter()

    def _deep(self, kind: str, p: params.AccountingParams, alpha: float, value: float) -> list[str]:
        """Oracle dominance and mpmath re-evaluation of one bound value."""
        bad = []
        if kind in ("shuffle", "sgm"):
            self.ran[f"mpmath.{kind}"] += 1
            ref = (mp_shuffle if kind == "shuffle" else mp_sgm)(p, alpha)
            if not value >= ref * (1 - MP_REL_TOL):
                bad.append(f"{kind} bound {value!r} < mpmath {ref!r} at alpha={alpha}")
        j0 = {"shuffle": 0, "improved-first": 0, "improved-last": p.m - 1, "fixed-last": p.m - 1}.get(kind)
        if j0 is None or p.epochs == 0:
            return bad
        oracle_kind = "shuffle" if kind == "shuffle" else "fixed"
        if oracle_kind == "shuffle" and p.steps * p.m > SHUFFLE_ORACLE_MAX_STEPS:
            return bad
        self.ran[f"oracle.{oracle_kind}"] += 1
        try:
            oracle.verify_dominance(oracle.make_instance(p, j0), alpha, oracle_kind, beta=p.beta)
        except oracle.DominanceViolated as exc:
            bad.append(f"{kind} dominance: {exc}")
        return bad

    def _grid_eps(self, p: params.AccountingParams, kind: str) -> tuple[float, float, list[str]]:
        """(eps, alpha_star) of a bound family over the grid, plus bad per-order values."""
        kind_enum = calibrate.BoundKind(kind)
        points = [params.RdpPoint(a, calibrate.evaluate_bound(p, a, kind_enum)) for a in GRID]
        bad = [f"rdp eps {pt.eps!r} at alpha={pt.alpha}" for pt in points if not _valid_eps(pt.eps)]
        if bad:
            return math.nan, math.nan, bad
        dp = convert.rdp_to_dp(points, DELTA)
        return dp.eps, dp.alpha_star, []

    def check(self, query: Query, value: Any, deep: bool, rng: random.Random) -> list[str]:
        op = query["op"]
        self.ran[op] += 1
        if op == "calibrate_noise":
            return self._calibrate_noise(query, value, deep)
        if op == "max_epochs":
            return self._max_epochs(query, value, deep)
        if op == "curve":
            return self._curve(query, value, deep, rng)
        if not _valid_eps(value):
            return [f"{op} eps {value!r}"]
        if op == "shuffle" and deep:
            return self._deep("shuffle", make(query), query["alpha"], value)
        return []

    def _calibrate_noise(self, query: Query, sigma: Any, deep: bool) -> list[str]:
        if not (isinstance(sigma, float) and math.isfinite(sigma) and sigma > 0):
            return [f"sigma {sigma!r}"]
        kind, target = query["kind"], query["target_eps"]
        p = make(query, sigma=sigma)
        eps, alpha_star, bad = self._grid_eps(p, kind)
        if bad:
            return bad
        if not eps <= target:
            return [f"eps {eps!r} at the solved sigma exceeds target {target!r}"]
        if sigma > SIGMA_BRACKET_LO:
            # calibrate_noise stops when its bracket is within 1e-6 relative
            below, _, bad = self._grid_eps(make(query, sigma=sigma * (1 - 2e-6)), kind)
            if bad or not below > target:
                return bad or [f"sigma {sigma!r} is not tight: eps {below!r} just below it"]
        if deep:
            return self._deep(kind, p, alpha_star, calibrate.evaluate_bound(p, alpha_star, calibrate.BoundKind(kind)))
        return []

    def _max_epochs(self, query: Query, result: Any, deep: bool) -> list[str]:
        kind, target = query["kind"], query["target_eps"]
        kind_enum = calibrate.BoundKind(kind)
        if result is calibrate.MAXED_OUT:
            limits = [params.RdpPoint(a, calibrate.bound_limit(make(query), a, kind_enum)) for a in GRID]
            finite = [pt for pt in limits if math.isfinite(pt.eps)]
            if not finite or not convert.rdp_to_dp(finite, DELTA).eps <= target:
                return ["MAXED_OUT but the limit exceeds the target"]
            epochs = query["epochs"]
        elif isinstance(result, int) and result >= 0:
            epochs = max(result, 1)
            eps, _, bad = self._grid_eps(make(query, epochs=epochs), kind)
            if bad:
                return bad
            if result == 0 and not eps > target:
                return [f"0 epochs but eps(1) = {eps!r} meets target {target!r}"]
            if result >= 1:
                after, _, bad = self._grid_eps(make(query, epochs=result + 1), kind)
                if bad or not eps <= target < after:
                    return bad or [f"eps({result}) = {eps!r}, eps({result + 1}) = {after!r}, target {target!r}"]
        else:
            return [f"epoch count {result!r}"]
        if not deep:
            return []
        p = make(query, epochs=epochs)
        eps, alpha_star, bad = self._grid_eps(p, kind)
        return bad or self._deep(kind, p, alpha_star, calibrate.evaluate_bound(p, alpha_star, kind_enum))

    def _curve(self, query: Query, value: Any, deep: bool, rng: random.Random) -> list[str]:
        code, text = value
        if code != 0:
            return [f"curve exit code {code}"]
        lines = text.splitlines()
        k_max = query["epochs"]
        bad = []
        block = k_max + 2
        expected = [(kind, a) for kind in query["kinds"] for a in query["alphas"]]
        if len(lines) != block * len(expected):
            return [f"curve printed {len(lines)} lines, expected {block * len(expected)}"]
        base = make(query)
        deep_block = rng.randrange(len(expected)) if deep else -1
        for i, (kind, alpha) in enumerate(expected):
            head, columns, *rows = lines[i * block:(i + 1) * block]
            if head != f"# kind={kind} alpha={alpha:g}" or columns != "k,eps":
                return [f"curve block header {head!r} {columns!r}"]
            try:
                parsed = [(int(k), float(e)) for k, e in (row.split(",") for row in rows)]
            except ValueError:
                return [f"curve rows of {kind} do not parse"]
            if [k for k, _ in parsed] != list(range(1, k_max + 1)):
                return [f"curve k column of {kind} is not 1..{k_max}"]
            bad += [f"{kind} eps {e!r} at k={k}" for k, e in parsed if not _valid_eps(e)]
            k, eps = parsed[rng.randrange(k_max)]
            p = params.with_epochs(base, k)
            direct = DIRECT[kind](p, alpha)
            self.ran["curve.row"] += 1
            if not math.isclose(eps, direct, rel_tol=ROW_REL_TOL, abs_tol=0.0):
                bad.append(f"{kind} row k={k} alpha={alpha}: {eps!r} != direct {direct!r}")
            elif i == deep_block:
                bad += self._deep(kind, p, alpha, eps)
        return bad

