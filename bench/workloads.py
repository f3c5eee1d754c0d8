"""Seeded query streams for the benchmark workloads, and the timed call of each query.

A workload's queries fall into groups (operation and bound family) that are
taken in turn. Within a group, every input that sets a query's cost (number
of batches, epoch count, step size, number of orders, the target and noise
that decide how long a solver searches) is cut into 24 equal strata, and a
Halton sequence over the group's turns, one prime base per input, picks the
stratum: any prefix of it covers each range evenly. The seed picks the point
inside the stratum. Every run of a given length therefore holds the same
mix of cheap and expensive queries, so throughput and latency percentiles
stay comparable between seeds. privdyn receives only the drawn values.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from privdyn import calibrate, cli, convert, params, sampling

GRID = convert.DEFAULT_ALPHA_GRID
DELTA = 1e-5
BETA = 4.0
S_G = 4.0
ETAS = (0.01, 0.02, 0.05)
CLOSED_FORM_KINDS = (
    "improved-first", "improved-last", "naive", "mixing-diffusion-first",
    "mixing-diffusion-last", "sgm", "fixed-last",
)
# A multiple of every option count below, so a stratum never straddles two options.
STRATA = 24
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)

Query = dict[str, Any]


def _pick(u: float, options: tuple) -> Any:
    return options[int(u * len(options))]


def _uniform(u: float, lo: float, hi: float) -> float:
    return lo + u * (hi - lo)


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(_uniform(u, math.log(lo), math.log(hi)))


def _int(u: float, lo: int, hi: int) -> int:
    return lo + int(u * (hi - lo + 1))


def _radical_inverse(index: int, base: int) -> float:
    """index written in ``base`` and mirrored about the radix point (van der Corput)."""
    value, scale = 0.0, 1.0 / base
    while index:
        index, digit = divmod(index, base)
        value += digit * scale
        scale /= base
    return value


def _draw_solve_ref(case: tuple[str, str], u: dict[str, float]) -> Query:
    op, kind = case
    b = _pick(u["b"], (1, 2, 5))
    return {
        "op": op, "kind": kind, "n": _pick(u["m"], (25, 50, 100)) * b, "b": b,
        "eta": _pick(u["eta"], ETAS), "epochs": _int(u["epochs"], 10, 100),
        "lam": _uniform(u["lam"], 0.25, 2.0),
        # calibrate_noise ignores sigma and searches its own bracket
        "sigma": _log_uniform(u["sigma"], 0.5, 8.0) if op == "max_epochs" else 1.0,
        "target_eps": _log_uniform(u["target"], 0.5, 8.0),
    }


def _draw_sampling_scale(op: str, u: dict[str, float]) -> Query:
    sigma = _log_uniform(u["sigma"], 0.5, 1e6)
    lam = _uniform(u["lam"], 0.25, 2.0)
    if op == "shuffle":
        # one order of the shuffle bound at b = 1: the per-order kernel of a
        # full-grid query at large m, which would take 20-40 s on its own
        return {
            "op": op, "n": _int(u["m"], 10_000, 60_000), "b": 1,
            "eta": _pick(u["eta"], (1e-3, 1e-2)), "epochs": _int(u["epochs"], 10, 100),
            "sigma": sigma, "lam": lam, "alpha": GRID[int(u["alpha"] * len(GRID))],
        }
    b = _pick(u["b"], (1, 2, 5))
    return {
        "op": op, "n": _pick(u["m"], (25, 50, 100)) * b, "b": b,
        "eta": _pick(u["eta"], ETAS), "epochs": _int(u["epochs"], 10, 40),
        "sigma": sigma, "lam": lam,
    }


def _draw_curve_sweep(kinds: tuple[str, ...], u: dict[str, float]) -> Query:
    free = [a for a in GRID if a.is_integer() and a <= 64]
    alphas = sorted(
        free.pop(int(u[f"alpha{i}"] * len(free))) for i in range(_pick(u["orders"], (1, 2, 3)))
    )
    b = _pick(u["b"], (1, 2))
    query = {
        "op": "curve", "kinds": list(kinds), "alphas": alphas,
        "n": round(_log_uniform(u["m"], 500, 5000)) * b, "b": b,
        "eta": _pick(u["eta"], ETAS), "epochs": _int(u["epochs"], 10, 40),
        "sigma": _log_uniform(u["sigma"], 0.5, 8.0), "lam": _uniform(u["lam"], 0.25, 2.0),
    }
    query["argv"] = [
        "curve", "--n", str(query["n"]), "--b", str(b), "--eta", repr(query["eta"]),
        "--epochs-max", str(query["epochs"]), "--sigma", repr(query["sigma"]),
        "--lambda", repr(query["lam"]), "--beta", repr(BETA), "--sensitivity", repr(S_G),
        "--alpha", ",".join(repr(a) for a in alphas), "--kinds", ",".join(kinds),
    ]
    return query


@dataclass(frozen=True)
class Workload:
    """Query groups taken in turn, and the inputs each query draws in [0, 1).

    The inputs are listed most important first and take the Halton bases
    2, 3, 5, ... in that order.
    """

    name: str
    groups: tuple[Any, ...]
    inputs: tuple[str, ...]
    draw: Callable[[Any, dict[str, float]], Query]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve-ref",
            tuple((op, kind) for op in ("calibrate_noise", "max_epochs")
                  for kind in ("shuffle", "fixed-last", "sgm", "naive")),
            ("m", "target", "epochs", "sigma", "b", "eta", "lam"), _draw_solve_ref,
        ),
        Workload(
            "sampling-scale", ("shuffle", "samp_wo"),
            ("m", "epochs", "sigma", "alpha", "eta", "b", "lam"), _draw_sampling_scale,
        ),
        Workload(
            # A third sweep a sampling recursion and take most of the time (the
            # tail latency); two thirds are closed forms, where parsing
            # arguments and printing CSV take a visible share of the call (the
            # median latency).
            "curve-sweep", (("shuffle",), ("samp-wo",)) + (CLOSED_FORM_KINDS,) * 4,
            ("m", "epochs", "orders", "alpha0", "alpha1", "alpha2", "b", "eta", "sigma", "lam"),
            _draw_curve_sweep,
        ),
    )
}


def queries(workload: Workload, seed: int, count: int) -> Iterator[Query]:
    """The seed's first ``count`` queries; a longer run extends a shorter one."""
    rng = random.Random(f"{workload.name}:{seed}")
    for index in range(count):
        turn, group = divmod(index, len(workload.groups))
        u = {
            dim: (int(_radical_inverse(turn + 1, base) * STRATA) + rng.random()) / STRATA
            for dim, base in zip(workload.inputs, _PRIMES[:len(workload.inputs)], strict=True)
        }
        yield workload.draw(workload.groups[group], u)


def make(query: Query, **overrides: Any) -> params.AccountingParams:
    fields = {k: query[k] for k in ("n", "b", "eta", "epochs", "sigma", "lam")}
    fields.update(overrides)
    return params.make_params(beta=BETA, s_g=S_G, **fields)


def run(query: Query) -> Any:
    """The timed part of one query: build the inputs through the public API and solve."""
    op = query["op"]
    if op == "calibrate_noise":
        return calibrate.calibrate_noise(
            make(query), GRID, query["target_eps"], DELTA, calibrate.BoundKind(query["kind"]))
    if op == "max_epochs":
        return calibrate.max_epochs(
            make(query), GRID, query["target_eps"], DELTA, calibrate.BoundKind(query["kind"]))
    if op == "shuffle":
        return sampling.bound_shuffle(make(query), query["alpha"]).eps
    if op == "samp_wo":
        return calibrate.converted_eps(make(query), GRID, DELTA, calibrate.BoundKind.SAMP_WO)
    if op == "curve":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(query["argv"])
        return code, out.getvalue()
    raise ValueError(f"unknown query op {op!r}")
