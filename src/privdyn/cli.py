"""Command-line front end.

Subcommands: bound (one JSON record), curve (k,eps CSV streams for
plotting), calibrate (solve for sigma or epochs), convert (RDP ->
(eps, delta)), verify (oracle suites). Every guarantee is change-one: it
holds for datasets that differ by replacing one record.

Exit codes: 0 success, 1 verification failure, 2 input error, 141 stdout
closed early (128 + SIGPIPE). Identical flags produce byte-identical output
unless --timestamp is passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Callable, NoReturn, Optional, Sequence

from . import baselines, calibrate, convert, oracle
from .calibrate import BoundKind
from .params import AccountingError, AccountingParams, logistic_params, sigma_from_multiplier

__all__ = ["main"]

_FLOAT_FMT = ".17g"


def _fmt(value: float) -> str:
    return format(value, _FLOAT_FMT)


def _kind(name: str, flag: str) -> BoundKind:
    try:
        return BoundKind(name)
    except ValueError:
        names = sorted(k.value for k in BoundKind)
        raise AccountingError(f"unknown {flag} value {name!r}; choose from {names}") from None


def _refuse_unread_j0(j0: Optional[int], kinds: list[BoundKind]) -> None:
    if j0 is not None and BoundKind.FIXED not in kinds:
        raise AccountingError("only kind fixed reads --j0, and no requested kind is fixed")


def _refuse_unread_flags(args: argparse.Namespace, keys: tuple[str, ...], why: str) -> None:
    """Refuse param flags the subcommand does not read; a --config file may carry their keys."""
    unread = [_flag(k) for k in keys if getattr(args, k) is not None]
    if unread:
        raise AccountingError(f"{args.command} does not read {', '.join(unread)}: {why}")


def _float_list(raw: str) -> list[float]:
    """A comma-separated list of numbers, the type of the --alpha and --eps flags."""
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {raw!r} as comma-separated numbers") from None
    if not values:
        raise argparse.ArgumentTypeError("must list at least one value")
    return values


# The one parameter schema. Each key is a param flag's dest and a --config key,
# with the argparse settings that read the flag's value and the config value.
_PARAMS: dict[str, dict] = {
    "n": {"type": int, "help": "dataset size"},
    "b": {"type": int, "help": "mini-batch size"},
    "eta": {"type": float, "help": "stepsize"},
    "epochs": {"type": int, "help": "number of epochs"},
    "sigma": {"type": float, "help": "noise scale (per-step variance 2*eta*sigma^2)"},
    "sigma_mul": {"type": float, "help": "implementation noise multiplier"},
    "lambda": {"type": float, "help": "strong convexity constant (0 = convex)"},
    "beta": {"type": float, "help": "smoothness constant"},
    "sensitivity": {"type": float, "help": "gradient l2-sensitivity S_g"},
    "clip_feature": {"type": float, "help": "feature clip norm (logistic derivation)"},
    "clip_gradient": {"type": float, "help": "unregularized-gradient clip norm (= S_g/2)"},
    "alpha": {"type": _float_list, "help": "Renyi order or comma-separated list"},
    "delta": {"type": float, "help": "target delta for (eps, delta)-DP"},
    "truncate_last_batch": {"action": "store_true", "default": None,
                            "help": "ignore the tail batch when b does not divide n"},
}
# the config values of the store_true flag, which itself takes no value
_YES_NO = {"true": True, "yes": True, "false": False, "no": False}


class ConfigError(AccountingError):
    """A --config file that cannot be read, or a line its flags would refuse."""


def _flag(key: str) -> str:
    """The flag of a param key, as typed."""
    return "--" + key.replace("_", "-")


def _config_value(spec: dict, raw: str) -> object:
    """A config value read as its flag reads it; ArgumentTypeError if the flag would refuse it."""
    if spec.get("action") == "store_true":
        spec, raw = {"choices": list(_YES_NO), "type": _YES_NO.get}, raw.lower()
    if raw not in spec.get("choices", [raw]):
        raise argparse.ArgumentTypeError(f"invalid choice {raw!r} (choose from {', '.join(spec['choices'])})")
    try:
        return spec.get("type", str)(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {spec['type'].__name__} value {raw!r}") from None


def _read_config(path: str) -> dict:
    """The params of a flat ``key = value`` file, with ``#`` comments and quoted values."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None
    out: dict = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, eq, raw = (part.strip() for part in stripped.partition("="))
        if not eq:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        if key not in _PARAMS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = _config_value(_PARAMS[key], raw.strip('"').strip("'"))
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from None
    return out


def _merged_options(args: argparse.Namespace) -> dict:
    merged = _read_config(args.config) if args.config else {}
    # an absent flag is None
    merged.update((k, getattr(args, k)) for k in _PARAMS if getattr(args, k) is not None)
    return merged


def _require(merged: dict, *keys: str) -> None:
    missing = [k for k in keys if merged.get(k) is None]
    if missing:
        flags = ", ".join(map(_flag, missing))
        raise AccountingError(f"missing required flag(s): {flags}")


def _logistic(merged: dict) -> bool:
    """Whether the options take the logistic-loss derivation of beta, S_g and sigma."""
    return any(merged.get(k) is not None for k in ("clip_feature", "clip_gradient"))


def _build_params(merged: dict) -> AccountingParams:
    _require(merged, "n", "b", "eta", "epochs")
    common = dict(
        n=merged["n"], b=merged["b"], eta=merged["eta"], epochs=merged["epochs"],
        lam=merged.get("lambda", 0.0),
        truncate_last_batch=merged.get("truncate_last_batch", False),
    )
    if _logistic(merged):
        derivation = ("clip_feature", "clip_gradient", "sigma_mul")
        _require(merged, *derivation)
        for k in ("beta", "sensitivity", "sigma"):
            if merged.get(k) is not None:
                raise AccountingError(
                    f"{_flag(k)} conflicts with the {'/'.join(map(_flag, derivation))} derivation"
                )
        return logistic_params(
            **common, l_feat=merged["clip_feature"], grad_clip=merged["clip_gradient"],
            sigma_mul=merged["sigma_mul"],
        )
    _require(merged, "beta", "sensitivity")
    sigma = merged.get("sigma")
    if sigma is not None and merged.get("sigma_mul") is not None:
        raise AccountingError("--sigma conflicts with --sigma-mul; give one of them")
    if sigma is None:
        if merged.get("sigma_mul") is None:
            raise AccountingError("missing required flag(s): --sigma or --sigma-mul")
        sigma = sigma_from_multiplier(
            merged["eta"], merged["b"], merged["sensitivity"], merged["sigma_mul"]
        )
    return AccountingParams(
        **common, sigma=sigma, beta=merged["beta"], s_g=merged["sensitivity"],
    )


def _params_echo(params: AccountingParams) -> dict:
    return {
        "n": params.n,
        "b": params.b,
        "eta": params.eta,
        "epochs": params.epochs,
        "sigma": params.sigma,
        "lambda": params.lam,
        "beta": params.beta,
        "sensitivity": params.s_g,
        "truncate_last_batch": params.truncate_last_batch,
        "m": params.m,
        "r": params.r,
    }


def _emit(record: dict, args: argparse.Namespace) -> None:
    for key, value in sorted(record.items()):
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (value if isinstance(value, list) else [value])):
            raise AccountingError(f"{key} = {value!r} is not finite and cannot be written as JSON")
    if args.timestamp:
        record["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    print(json.dumps(record, sort_keys=True, allow_nan=False))


def _cmd_bound(args: argparse.Namespace) -> int:
    merged = _merged_options(args)
    params = _build_params(merged)
    _require(merged, "alpha")
    alphas = merged["alpha"]
    kind = _kind(args.kind, "--kind")
    _refuse_unread_j0(args.j0, [kind])
    family = kind.at(args.j0)
    eps_values = [family.eps(params, a) for a in alphas]
    single = len(alphas) == 1
    record: dict = {
        "bound_kind": kind.value,
        "alpha": alphas[0] if single else alphas,
        "eps_rdp": eps_values[0] if single else eps_values,
        "params": _params_echo(params),
    }
    if kind is BoundKind.SGM_COMPOSITION:
        orders = [baselines.sgm_order(a) for a in alphas]
        if any(o != a for o, a in zip(orders, alphas)):
            record["sgm_order"] = orders[0] if single else orders
    delta = merged.get("delta")
    if delta is not None:
        points = [convert.RdpPoint(alpha=a, eps=e) for a, e in zip(alphas, eps_values)]
        guarantee = convert.rdp_to_dp(points, delta)
        record["delta"] = delta
        record["eps_dp"] = guarantee.eps
        record["alpha_star"] = guarantee.alpha_star
    _emit(record, args)
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    _refuse_unread_flags(args, ("delta",), "curves print RDP eps")
    merged = _merged_options(args)
    if args.epochs_max is not None:
        _refuse_unread_flags(args, ("epochs",), "--epochs-max sets the epoch count")
        merged["epochs"] = args.epochs_max
    params = _build_params(merged)
    _require(merged, "alpha")
    alphas = merged["alpha"]
    kinds = [_kind(k.strip(), "--kinds") for k in args.kinds.split(",") if k.strip()]
    _refuse_unread_j0(args.j0, kinds)
    epochs_max = params.epochs
    if epochs_max < 1:
        raise AccountingError("--epochs-max must be >= 1 for curves")
    curves: dict[str, tuple[BoundKind, float]] = {}
    for kind in kinds:
        for alpha in alphas:
            # a label names one header and one file, so a repeat would overwrite a curve
            label = f"kind={kind.value} alpha={alpha:g}"
            if label in curves:
                raise AccountingError(f"--kinds and --alpha ask for the curve {label} more than once")
            curves[label] = kind, alpha
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for label, (kind, alpha) in curves.items():
        values = kind.at(args.j0).curve(params, alpha)
        rows = [f"{k},{_fmt(v)}" for k, v in enumerate(values, start=1)]
        body = "k,eps\n" + "\n".join(rows) + "\n"
        if out_dir is None:
            print(f"# {label}")
            sys.stdout.write(body)
        else:
            name = f"{kind.value}_a={alpha:g}_k={epochs_max}.csv"
            (out_dir / name).write_text(body)
            print(f"# wrote {out_dir / name}")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    merged = _merged_options(args)
    kind = BoundKind(args.kind)
    _require(merged, "delta")
    delta = merged["delta"]
    grid = merged.get("alpha", list(convert.DEFAULT_ALPHA_GRID))
    if args.solve == "sigma":
        if merged.get("sigma") is None and merged.get("sigma_mul") is None:
            # a placeholder the solver replaces; the clip-flag path reads only sigma_mul
            merged = dict(merged, **{"sigma_mul" if _logistic(merged) else "sigma": 1.0})
        params = _build_params(merged)
        sigma = calibrate.calibrate_noise(params, grid, args.target_eps, delta, kind)
        solved = calibrate.with_sigma(params, sigma)
        record = {
            "solve": "sigma",
            "bound_kind": kind.value,
            "target_eps": args.target_eps,
            "delta": delta,
            "sigma": sigma,
            "eps_dp_at_sigma": calibrate.converted_eps(solved, grid, delta, kind),
            "alpha_grid": grid,
            "params": _params_echo(solved),
        }
    else:
        params = _build_params(merged)
        result = calibrate.max_epochs(params, grid, args.target_eps, delta, kind)
        record = {
            "solve": "epochs",
            "bound_kind": kind.value,
            "target_eps": args.target_eps,
            "delta": delta,
            "max_epochs": "inf" if result is calibrate.MAXED_OUT else result,
            "alpha_grid": grid,
            "params": _params_echo(params),
        }
    _emit(record, args)
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    alphas, epses = args.alpha, args.eps
    if len(alphas) != len(epses):
        raise AccountingError("--alpha and --eps must list the same number of values")
    points = [convert.RdpPoint(alpha=a, eps=e) for a, e in zip(alphas, epses)]
    guarantee = convert.rdp_to_dp(points, args.delta)
    record = {
        "eps_dp": guarantee.eps,
        "delta": guarantee.delta,
        "alpha_star": guarantee.alpha_star,
    }
    _emit(record, args)
    return 0


def _reference_params(merged: dict, epochs: int) -> AccountingParams:
    """The reference setting, with a default only for a key the user's path reads."""
    filled: dict = {"n": 50, "b": 2, "eta": 0.02, "lambda": 1.0}
    if not _logistic(merged):
        filled.update(beta=4.0, sensitivity=4.0)
        if merged.get("sigma_mul") is None:
            filled["sigma"] = 2.0
    filled.update(merged)
    filled["epochs"] = epochs
    return _build_params(filled)


def _cmd_verify(args: argparse.Namespace) -> int:
    _refuse_unread_flags(args, ("epochs", "alpha", "delta"),
                         "its suites set their own epochs and orders")
    merged = _merged_options(args)
    suites = ("tightness", "dominance") if args.suite == "all" else (args.suite,)
    failures = 0

    def emit_checked(record: dict, check: Callable[[], oracle.DominanceReport], tight: bool = False) -> None:
        """Emit a passing check's report, or count the failure and say why on stderr.

        A tight check fails also when its slack exceeds 1e-9 of the bound.
        """
        nonlocal failures
        try:
            report = check()
        except oracle.DominanceViolated as exc:
            reason = f"{type(exc).__name__}: {exc}"
        else:
            if not tight or abs(report.slack) <= 1e-9 * report.bound:
                _emit({**record, "report": report.to_dict(), "status": "ok"}, args)
                return
            reason = f"NotTight: slack {report.slack} exceeds 1e-9 of bound {report.bound}"
        print(reason, file=sys.stderr)
        failures += 1

    for suite in suites:
        if suite == "tightness":
            params = _reference_params(merged, epochs=1)
            instance = oracle.make_instance(params, j0=0)
            for alpha in (2.0, 10.0, 30.0):
                emit_checked(
                    {"suite": "tightness", "alpha": alpha},
                    lambda: oracle.verify_dominance(instance, alpha, "fixed"),
                    tight=True,
                )
        else:
            for epochs in (1, 2, 5, 10, 20, 40):
                params = _reference_params(merged, epochs=epochs)
                for j0 in sorted({0, params.m // 2, params.m - 1}):
                    instance = oracle.make_instance(params, j0=j0)
                    for alpha in (2.0, 10.0, 30.0):
                        emit_checked(
                            {"suite": "dominance", "epochs": epochs, "j0": j0, "alpha": alpha},
                            lambda: oracle.verify_dominance(instance, alpha, "fixed"),
                        )
                instance = oracle.make_instance(params, j0=0)
                for alpha in (2.0, 10.0):
                    emit_checked(
                        {"suite": "dominance", "epochs": epochs, "alpha": alpha},
                        lambda: oracle.verify_dominance(instance, alpha, "shuffle"),
                    )
    _emit({"failures": failures}, args)
    return 1 if failures else 0


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    """The --config file and one flag per _PARAMS key, whose dest is that key."""
    sub.add_argument("--config", help="flat key = value config file; flags override it")
    for key, spec in _PARAMS.items():
        sub.add_argument(_flag(key), dest=key, **spec)


class _Parser(argparse.ArgumentParser):
    """Reports a flag error in one line, like every other input error; subparsers inherit it."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"InputError: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="privdyn",
        description="Hidden-state (last-iterate) Renyi DP accounting for noisy mini-batch gradient descent.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_bound = subparsers.add_parser("bound", help="evaluate one bound; print a JSON record")
    _add_param_flags(p_bound)
    p_bound.add_argument("--kind", required=True,
                         help=f"bound family: {', '.join(sorted(k.value for k in BoundKind))}")
    p_bound.add_argument("--j0", type=int, help="batch index of the differing record (kind=fixed)")
    p_bound.set_defaults(func=_cmd_bound)

    p_curve = subparsers.add_parser("curve", help="emit k,eps CSV curves over epochs")
    _add_param_flags(p_curve)
    p_curve.add_argument("--kinds", required=True, help="comma-separated bound families")
    p_curve.add_argument("--epochs-max", dest="epochs_max", type=int, help="largest epoch count (in place of --epochs)")
    p_curve.add_argument("--j0", type=int, help="batch index for kind=fixed")
    p_curve.add_argument("--out-dir", dest="out_dir", help="write one CSV file per (kind, alpha) instead of stdout")
    p_curve.set_defaults(func=_cmd_curve)

    p_cal = subparsers.add_parser("calibrate", help="solve for sigma or the epoch budget")
    _add_param_flags(p_cal)
    # kind fixed needs --j0, which calibrate does not take
    p_cal.add_argument("--kind", required=True,
                       choices=[k.value for k in BoundKind if k is not BoundKind.FIXED])
    p_cal.add_argument("--target-eps", dest="target_eps", type=float, required=True)
    p_cal.add_argument("--solve", choices=("sigma", "epochs"), default="sigma")
    p_cal.set_defaults(func=_cmd_calibrate)

    p_conv = subparsers.add_parser("convert", help="RDP -> (eps, delta); every guarantee is change-one")
    p_conv.add_argument("--alpha", type=_float_list, required=True, help="Renyi order(s), comma separated")
    p_conv.add_argument("--eps", type=_float_list, required=True, help="RDP eps value(s), comma separated")
    p_conv.add_argument("--delta", type=float, required=True)
    p_conv.set_defaults(func=_cmd_convert)

    p_ver = subparsers.add_parser("verify", help="run the oracle verification suites")
    _add_param_flags(p_ver)
    p_ver.add_argument("--suite", default="all",
                       choices=("tightness", "dominance", "all"))
    p_ver.set_defaults(func=_cmd_verify)
    for sub in (p_bound, p_cal, p_conv, p_ver):  # the subcommands that print JSON
        sub.add_argument("--timestamp", action="store_true", help="add a timestamp field to JSON output")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except oracle.DominanceViolated as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    # an ArithmeticError: float64 cannot evaluate the bound at these inputs
    except (AccountingError, ArithmeticError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"InputError: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (say `| head`): point it at devnull so the
        # final flush stays quiet, and exit as a SIGPIPE-killed process would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
