"""Per-layer counts and self time, recorded from outside the program.

The tracer replaces every public function that a privdyn layer module binds
by name (its own functions and the ones it imports from other layers) with a
wrapper that counts the call and times it. A call is attributed to the layer
that defines the function, whichever module's binding was used, so
``params.validate`` counts the calls made through ``dynamics.validate``,
``sampling.validate`` and the rest. A layer's self time is the time spent in
its functions minus the time of the wrapped calls they make.

Spans are folded into totals as they close instead of being kept: one
shuffle bound at m = 60000 makes about a quarter of a million wrapped calls.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time
from typing import Any, Callable

LAYERS = ("numerics", "params", "dynamics", "sampling", "baselines", "convert", "calibrate", "cli")
_SOLVERS = ("calibrate_noise", "max_epochs")
_SAMP_WO_RUNS = ("bound_samp_wo_replacement", "samp_wo_log_states")


class Tracer:
    def __init__(self) -> None:
        self.solver_evals = 0  # converted_eps calls made inside a solver
        self.samp_wo_budget = 0  # sum of K*m over samp-wo recursions started
        self.shuffle_tail_keys: set[tuple[Any, float]] = set()
        self._self_s = {layer: [0.0] for layer in LAYERS}
        self._child_s = [0.0]
        self._solver_depth = 0
        self._counts: list[tuple[str, str, str, list[int]]] = []  # layer, site, name, [calls]
        self._patched: list[tuple[Any, str, Callable]] = []

    def __enter__(self) -> "Tracer":
        hooks = self._hooks()
        for site in LAYERS:
            module = importlib.import_module(f"privdyn.{site}")
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                layer = fn.__module__.rpartition(".")[2]
                if not fn.__module__.startswith("privdyn.") or layer not in LAYERS:
                    continue
                calls = [0]
                self._counts.append((layer, site, fn.__name__, calls))
                self._patched.append((module, name, fn))
                setattr(module, name, self._wrap(fn, self._self_s[layer], calls, hooks.get(fn.__name__)))
        return self

    def __exit__(self, *exc: object) -> None:
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()

    def _wrap(self, fn: Callable, self_s: list[float], calls: list[int],
              hook: Callable[[tuple], Callable[[], None] | None] | None) -> Callable:
        child_s = self._child_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            calls[0] += 1
            leave = hook(args) if hook else None
            child_s.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                self_s[0] += spent - child_s.pop()
                child_s[-1] += spent
                if leave:
                    leave()

        return traced

    def _hooks(self) -> dict[str, Callable[[tuple], Callable[[], None] | None]]:
        def solver(args: tuple) -> Callable[[], None]:
            self._solver_depth += 1

            def leave() -> None:
                self._solver_depth -= 1

            return leave

        def converted_eps(args: tuple) -> None:
            if self._solver_depth:
                self.solver_evals += 1

        def samp_wo_run(args: tuple) -> None:
            self.samp_wo_budget += args[0].steps

        def shuffle_tail(args: tuple) -> None:
            params, alpha = args[0], args[1]
            self.shuffle_tail_keys.add((dataclasses.replace(params, epochs=0), alpha))

        hooks = {name: solver for name in _SOLVERS}
        hooks.update({name: samp_wo_run for name in _SAMP_WO_RUNS})
        hooks.update(converted_eps=converted_eps, shuffle_avg_term=shuffle_tail)
        return hooks

    def metrics(self, queries: int) -> dict[str, float]:
        """Per-layer figures, per query unless the name says otherwise."""

        def calls(layer: str, name: str, site: str | None = None) -> int:
            return sum(n[0] for lay, sit, nam, n in self._counts
                       if lay == layer and nam == name and site in (None, sit))

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        solves = sum(calls("calibrate", s) for s in _SOLVERS)
        steps = calls("numerics", "logsumexp", site="sampling")
        tails = calls("sampling", "shuffle_avg_term")
        out = {f"{layer}.self_ms": self._self_s[layer][0] * 1e3 / queries for layer in LAYERS}
        out.update({
            "params.validate_calls": calls("params", "validate") / queries,
            "calibrate.solver_evals": self.solver_evals / queries,
            "calibrate.evals_per_solve": ratio(self.solver_evals, solves),
            "calibrate.evaluate_bound_calls": calls("calibrate", "evaluate_bound") / queries,
            "convert.rdp_to_dp_calls": calls("convert", "rdp_to_dp") / queries,
            "baselines.sgm_calls": calls("baselines", "sgm_rdp_per_step") / queries,
            "dynamics.eps0_term_calls": calls("dynamics", "eps0_term") / queries,
            "sampling.samp_wo_steps": steps / queries,
            "sampling.samp_wo_step_ratio": ratio(steps, self.samp_wo_budget),
            "sampling.shuffle_tail_calls": tails / queries,
            "sampling.shuffle_tail_reuse": ratio(len(self.shuffle_tail_keys), tails),
            "numerics.calls": sum(n[0] for layer, *_, n in self._counts if layer == "numerics")
            / queries,
        })
        return out
