"""privdyn benchmark: one seeded workload against the public API, outputs checked.

    python3 bench/run.py --workload solve-ref --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; privdyn is imported from ``src/``.
One client sends each query after the previous one returns (a closed loop),
then every output is checked, untimed. A run sends a fixed number of queries,
``--seconds`` times the workload's ``QUERIES_PER_SECOND``, so that it measures
about ``--seconds`` at the seed commit, and the seed and ``--seconds`` alone
decide what is sent, attempted and failed. The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``. The lines before it record the environment and the
checks. See bench/README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_ARGV = ["-m", "privdyn", "convert", "--alpha", "10", "--eps", "0.05", "--delta", "1e-5"]
SETUP_EPS = 0.05 + math.log(1e5) / 9.0
SETUP_RUNS = 7
IMPORT_RUNS = 5
# Queries a run sends per second of --seconds: about the rate of each
# workload at the seed commit on a 2-vCPU host.
QUERIES_PER_SECOND = {"solve-ref": 9.0, "sampling-scale": 5.5, "curve-sweep": 6.0}
# The traced run sends this share of them, then sends them again untraced.
TRACE_SHARE = 1 / 3
# Share of queries that also get the oracle and mpmath checks; the mpmath
# shuffle tail at m = 60000 takes about 2.5 s.
DEEP_SHARE = {"solve-ref": 0.15, "sampling-scale": 1 / 32, "curve-sweep": 0.15}
SMOKE_QUERIES = 3
UNITS = {
    # end-to-end, --trace 0
    "queries_per_s": "1/s", "query_p50_ms": "ms", "query_p90_ms": "ms", "ok_ratio": "ratio",
    "setup_s": "s", "peak_rss_mb": "MB",
    # per layer, --trace 1; per query unless the unit says otherwise
    **{f"{layer}.self_ms": "ms/query" for layer in (
        "numerics", "params", "dynamics", "sampling", "baselines", "convert", "calibrate", "cli")},
    "params.validate_calls": "calls/query",
    "calibrate.solver_evals": "evals/query",
    "calibrate.evals_per_solve": "evals/solve",
    "calibrate.evaluate_bound_calls": "calls/query",
    "convert.rdp_to_dp_calls": "calls/query",
    "baselines.sgm_calls": "calls/query",
    "dynamics.eps0_term_calls": "calls/query",
    "sampling.samp_wo_steps": "steps/query",
    "sampling.samp_wo_step_ratio": "ratio",
    "sampling.shuffle_tail_calls": "calls/query",
    "sampling.shuffle_tail_reuse": "ratio",
    "numerics.calls": "calls/query",
    "cli.import_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.queries": "count",
}


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _run_child(extra: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *extra, *SETUP_ARGV], cwd=ROOT, env=_child_env(),
        capture_output=True, text=True, timeout=60,
    )


def measure_setup(runs: int) -> tuple[float, list[str]]:
    """Median wall time of a fresh ``privdyn convert`` process, and any wrong outputs."""
    times, bad = [], []
    for _ in range(runs):
        start = time.perf_counter()
        proc = _run_child([])
        times.append(time.perf_counter() - start)
        try:
            eps = json.loads(proc.stdout)["eps_dp"]
        except (ValueError, KeyError):
            eps = None
        if proc.returncode != 0 or eps is None or not math.isclose(eps, SETUP_EPS, rel_tol=1e-12):
            bad.append(f"setup child exited {proc.returncode} with {proc.stdout.strip()!r}")
    return statistics.median(times), bad


def measure_imports(runs: int) -> dict[str, float]:
    """Median cumulative import time of privdyn and of numpy, from ``-X importtime``."""
    privdyn_us, numpy_us = [], []
    for _ in range(runs):
        totals = {}
        for line in _run_child(["-X", "importtime"]).stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cumulative, name = line.split("|")
                if cumulative.strip().isdigit():
                    totals[name.strip()] = int(cumulative)
        privdyn_us.append(totals.get("privdyn", 0) + totals.get("privdyn.__main__", 0))
        numpy_us.append(totals.get("numpy", 0))
    return {
        "cli.import_ms": statistics.median(privdyn_us) / 1e3,
        "cli.import_numpy_ms": statistics.median(numpy_us) / 1e3,
    }


def timed_pass(run: Callable[[dict], Any], queries: list[dict]) -> tuple[list, float]:
    """Closed loop, one client: (query, value, error, latency_s) records and wall seconds."""
    records = []
    gc.collect()
    start = time.perf_counter()
    for query in queries:
        t0 = time.perf_counter()
        try:
            value, error = run(query), None
        except (Exception, SystemExit) as exc:  # a raising query is a failed query
            value, error = None, exc
        records.append((query, value, error, time.perf_counter() - t0))
    return records, time.perf_counter() - start


def git_sha() -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1, help="default 1; confirm claims on 97")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"send {SMOKE_QUERIES} queries, deep-check all, one set-up run")
    args = parser.parse_args(argv)

    if not (SRC / "privdyn" / "__init__.py").is_file():
        print(f"bench: no privdyn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mpmath
    import numpy

    import checks
    import tracer
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    count = SMOKE_QUERIES if args.smoke else max(
        1, round(args.seconds * QUERIES_PER_SECOND[args.workload] * (TRACE_SHARE if args.trace else 1)))
    sent = list(workloads.queries(workload, args.seed, count))
    digest = hashlib.sha256(json.dumps(sent, sort_keys=True).encode()).hexdigest()
    print(json.dumps({"env": {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "mpmath": mpmath.__version__, "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "queries": count, "inputs_sha256": digest,
    }}), flush=True)

    setup_runs = 1 if args.smoke else SETUP_RUNS
    bad_setup: list[str] = []
    if args.trace:
        metrics = measure_imports(1 if args.smoke else IMPORT_RUNS)
        with tracer.Tracer() as trace:
            records, _ = timed_pass(workloads.run, sent)
        again, _ = timed_pass(workloads.run, sent)
        metrics.update(trace.metrics(len(records)))
        metrics["trace.overhead_ratio"] = sum(r[3] for r in records) / sum(r[3] for r in again)
        metrics["trace.queries"] = len(records)
    else:
        setup_s, bad_setup = measure_setup(setup_runs)
        records, elapsed = timed_pass(workloads.run, sent)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        latencies = [r[3] for r in records]
        metrics = {
            "queries_per_s": len(records) / elapsed,
            "query_p50_ms": statistics.median(latencies) * 1e3,
            "query_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }

    checker = checks.Checker()
    failures = []
    unchecked = 0
    check_start = time.perf_counter()
    for index, (query, value, error, _) in enumerate(records):
        rng = random.Random(f"check:{args.workload}:{args.seed}:{index}")
        deep = rng.random() < DEEP_SHARE[args.workload] or args.smoke
        if error is not None:
            bad = [f"raised {type(error).__name__}: {error}"]
        else:
            try:
                bad = checker.check(query, value, deep, rng)
            except Exception as exc:  # the output could not be checked: a failed query
                unchecked += 1
                bad = [f"check raised {type(exc).__name__}: {exc}"]
        if bad:
            failures.append({"index": index, "query": query, "reason": bad[0]})
    failed = len(failures)
    if not args.trace:
        metrics["ok_ratio"] = (len(records) - failed) / len(records)

    print(json.dumps({
        "checks_ran": dict(sorted(checker.ran.items())),
        "check_s": time.perf_counter() - check_start,
        "setup_failures": bad_setup,
        "failures": failures[:20],
    }), flush=True)
    print(json.dumps({
        # Wrong outputs count in failed and ok_ratio; correct reports that
        # every output could be checked and the set-up process answered right.
        "correct": not unchecked and not bad_setup,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
