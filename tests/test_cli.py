import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from privdyn import (
    BoundKind, bound_fixed, bound_shuffle, rdp_to_dp, RdpPoint, sigma_from_multiplier,
)
from privdyn.cli import main

REF_FLAGS = [
    "--n", "50", "--b", "2", "--eta", "0.02", "--lambda", "1",
    "--beta", "4", "--sensitivity", "4", "--sigma", "2",
]


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_bound_shuffle_matches_library(capsys, ref_params):
    code, out, err = run(
        capsys, "bound", "--kind", "shuffle", *REF_FLAGS, "--alpha", "10", "--epochs", "40"
    )
    assert code == 0
    record = json.loads(out)
    assert record["bound_kind"] == "shuffle"
    assert record["eps_rdp"] == pytest.approx(bound_shuffle(ref_params, 10).eps, rel=1e-15)
    assert record["params"]["m"] == 25


def test_bound_naive_zero_epochs(capsys):
    code, out, _ = run(
        capsys, "bound", "--kind", "naive", *REF_FLAGS, "--alpha", "30", "--epochs", "0"
    )
    assert code == 0
    assert json.loads(out)["eps_rdp"] == 0.0


def test_bound_with_delta_adds_conversion(capsys, ref_params):
    code, out, _ = run(
        capsys, "bound", "--kind", "improved-last", *REF_FLAGS,
        "--alpha", "10,20,30", "--epochs", "40", "--delta", "1e-5",
    )
    record = json.loads(out)
    points = [
        RdpPoint(alpha=a, eps=bound_fixed(ref_params, a, 24).eps)
        for a in (10, 20, 30)
    ]
    expected = rdp_to_dp(points, 1e-5)
    assert record["eps_dp"] == pytest.approx(expected.eps, rel=1e-15)
    assert record["alpha_star"] == expected.alpha_star


def test_missing_flag_exits_2_and_names_it(capsys):
    code, out, err = run(
        capsys, "bound", "--kind", "shuffle", "--b", "2", "--eta", "0.02",
        "--lambda", "1", "--beta", "4", "--sensitivity", "4", "--sigma", "2",
        "--alpha", "10", "--epochs", "4",
    )
    assert code == 2
    assert "--n" in err


# case -> (error name, or the start of the message, printed on stderr; argv)
BAD_INPUTS = {
    "stepsize-too-large": ("StepsizeTooLarge", (
        "bound", "--kind", "shuffle", *REF_FLAGS[:-2], "--sigma", "2",
        "--eta", "0.5", "--alpha", "10", "--epochs", "4")),
    "lambda-nan": ("AccountingError", (
        "bound", "--kind", "fixed-last", *REF_FLAGS, "--alpha", "10", "--epochs", "4",
        "--lambda", "nan")),
    "sigma-inf": ("AccountingError", (
        "bound", "--kind", "shuffle", *REF_FLAGS, "--sigma", "inf", "--alpha", "10",
        "--epochs", "4")),
    "sensitivity-inf": ("AccountingError", (
        "bound", "--kind", "shuffle", *REF_FLAGS, "--sensitivity", "inf", "--alpha", "10",
        "--epochs", "4")),
    "alpha-inf": ("AccountingError", (
        "bound", "--kind", "shuffle", *REF_FLAGS, "--alpha", "inf", "--epochs", "4")),
    "convert-eps-nan": ("AccountingError", (
        "convert", "--alpha", "10", "--eps", "nan", "--delta", "1e-5")),
    # +inf is a valid RDP eps ("no bound at this order") but not a printable result
    "convert-eps-inf": ("AccountingError", (
        "convert", "--alpha", "10", "--eps", "inf", "--delta", "1e-5")),
    "target-inf": ("AccountingError", (
        "calibrate", "--kind", "naive", *REF_FLAGS, "--epochs", "4", "--target-eps", "inf",
        "--delta", "1e-5", "--alpha", "2,8")),
    # sigma**2 underflows to 0: rejected at construction
    "sigma-underflow": ("AccountingError", (
        "bound", "--kind", "shuffle", *REF_FLAGS, "--sigma", "1e-200", "--alpha", "10",
        "--epochs", "4")),
    # S_g**2 underflows: the eps1 coefficient is 0 and the sgm noise-to-sensitivity
    # ratio sigma_eff**2 = 1/(2*coefficient) overflows; rejected at construction
    "sgm-sigma-eff-overflow": ("AccountingError", (
        "bound", "--kind", "sgm", *REF_FLAGS, "--sensitivity", "1e-300", "--alpha", "10",
        "--epochs", "4")),
    # the same 0 coefficient would print eps_rdp 0.0, below the true positive bound
    "fixed-last-sensitivity-underflow": ("AccountingError", (
        "bound", "--kind", "fixed-last", *REF_FLAGS, "--sensitivity", "1e-300",
        "--alpha", "10", "--epochs", "4")),
    # K = 0 runs the family's own checks: shuffle needs lambda > 0 ...
    "calibrate-convex-shuffle-k0": ("RegularityMismatch", (
        "calibrate", "--kind", "shuffle", *REF_FLAGS, "--lambda", "0", "--epochs", "0",
        "--target-eps", "1", "--delta", "1e-5", "--alpha", "2,8")),
    # ... and every family needs alpha > 1
    "sgm-alpha-below-one-k0": ("AccountingError", (
        "bound", "--kind", "sgm", *REF_FLAGS, "--alpha", "0.5", "--epochs", "0")),
    # rounds up to an order with 1e300 moment terms
    "sgm-order-too-large": ("AccountingError", (
        "bound", "--kind", "sgm", *REF_FLAGS, "--alpha", "1e300", "--epochs", "4")),
    "mixing-first-m1": ("BatchCountTooSmall", (
        "bound", "--kind", "mixing-diffusion-first", *REF_FLAGS, "--n", "2", "--alpha", "10",
        "--epochs", "4")),
    "mixing-last-m1": ("BatchCountTooSmall", (
        "bound", "--kind", "mixing-diffusion-last", *REF_FLAGS, "--n", "2", "--alpha", "10",
        "--epochs", "4")),
    # the worst-case oracle gap is S_g/lambda
    "verify-convex": ("AccountingError: the quadratic oracle needs lambda > 0", (
        "verify", "--suite", "tightness", "--lambda", "0")),
    "sigma-and-sigma-mul": ("AccountingError: --sigma conflicts with --sigma-mul", (
        "bound", "--kind", "shuffle", *REF_FLAGS, "--sigma-mul", "5", "--alpha", "10",
        "--epochs", "4")),
    # missing flags are named as they are typed
    "clip-without-gradient-and-sigma-mul": (
        "AccountingError: missing required flag(s): --clip-gradient, --sigma-mul", (
            "bound", "--kind", "shuffle", *REF_FLAGS[:8], "--clip-feature", "1",
            "--alpha", "10", "--epochs", "4")),
    "neither-sigma-nor-sigma-mul": (
        "AccountingError: missing required flag(s): --sigma or --sigma-mul", (
            "bound", "--kind", "shuffle", *REF_FLAGS[:-2], "--alpha", "10", "--epochs", "4")),
    # every verify suite sets its own epochs and orders
    "verify-epochs-alpha-delta": ("AccountingError: verify does not read --epochs, --alpha, --delta", (
        "verify", "--suite", "tightness", "--epochs", "3", "--alpha", "3", "--delta", "1e-5")),
    "beta-with-clip-flags": (
        "AccountingError: --beta conflicts with the --clip-feature/--clip-gradient/--sigma-mul", (
            "bound", "--kind", "shuffle", *REF_FLAGS[:8], "--clip-feature", "1",
            "--clip-gradient", "1", "--sigma-mul", "1", "--beta", "4", "--alpha", "10",
            "--epochs", "4")),
    # only kind fixed reads the batch index
    "bound-j0-without-fixed": ("AccountingError: only kind fixed reads --j0", (
        "bound", "--kind", "improved-last", *REF_FLAGS, "--alpha", "10", "--epochs", "4",
        "--j0", "0")),
    "curve-j0-without-fixed": ("AccountingError: only kind fixed reads --j0", (
        "curve", "--kinds", "naive,sgm", *REF_FLAGS, "--alpha", "10", "--epochs-max", "2",
        "--j0", "0")),
    # curves print RDP eps, and CSV has no timestamp field
    "curve-delta": ("AccountingError: curve does not read --delta", (
        "curve", "--kinds", "naive", *REF_FLAGS, "--alpha", "10", "--epochs-max", "2",
        "--delta", "1e-5")),
    "curve-timestamp": ("InputError: unrecognized arguments: --timestamp", (
        "curve", "--kinds", "naive", *REF_FLAGS, "--alpha", "10", "--epochs-max", "2",
        "--timestamp")),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_validation_error_exits_2_with_error_name(capsys, case):
    name, argv = BAD_INPUTS[case]
    try:
        code, out, err = run(capsys, *argv)
    except SystemExit as exc:  # argparse refused a flag
        code, (out, err) = exc.code, capsys.readouterr()
    assert code == 2
    assert name in err
    assert out == ""
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("field, argv", [
    ("eps_dp", ("convert", "--alpha", "10", "--eps", "inf", "--delta", "1e-5")),
    ("eps_rdp", ("bound", "--kind", "samp-wo", *REF_FLAGS, "--alpha", "1e300", "--epochs", "4")),
])
def test_non_finite_result_names_its_field(capsys, field, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"AccountingError: {field} = inf ")


def test_sgm_order_reported_only_when_rounded(capsys):
    for alpha, order in (("10.5", 11), ("10", None)):
        code, out, _ = run(capsys, "bound", "--kind", "sgm", *REF_FLAGS, "--alpha", alpha,
                           "--epochs", "4")
        assert code == 0
        assert json.loads(out).get("sgm_order") == order


def test_curve_csv_format_and_determinism(capsys):
    args = (
        "curve", "--kinds", "improved-first,naive", *REF_FLAGS,
        "--alpha", "10,30", "--epochs-max", "3",
    )
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2  # byte-identical
    sections = [s for s in out1.splitlines() if s.startswith("#")]
    assert sections == [
        "# kind=improved-first alpha=10",
        "# kind=improved-first alpha=30",
        "# kind=naive alpha=10",
        "# kind=naive alpha=30",
    ]
    lines = out1.splitlines()
    assert lines[1] == "k,eps"
    k, eps = lines[2].split(",")
    assert k == "1"
    assert float(eps) > 0
    # 17 significant digits
    assert len(eps.replace(".", "").replace("-", "").lstrip("0")) >= 16


def test_curve_single_row(capsys):
    code, out, _ = run(
        capsys, "curve", "--kinds", "naive", *REF_FLAGS, "--alpha", "30", "--epochs-max", "1"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "k,eps"
    assert len(lines) == 3


def test_curve_out_dir(capsys, tmp_path):
    out_dir = tmp_path / "curves"
    code, out, _ = run(
        capsys, "curve", "--kinds", "shuffle,sgm", *REF_FLAGS,
        "--alpha", "10", "--epochs-max", "4", "--out-dir", str(out_dir),
    )
    assert code == 0
    files = sorted(f.name for f in out_dir.iterdir())
    assert files == ["sgm_a=10_k=4.csv", "shuffle_a=10_k=4.csv"]
    body = (out_dir / "shuffle_a=10_k=4.csv").read_text()
    assert body.startswith("k,eps\n1,")
    assert len(body.splitlines()) == 5


def test_config_file_with_flag_override(capsys, tmp_path, ref_params):
    cfg = tmp_path / "ref_params.cfg"
    cfg.write_text(
        "n = 50\nb = 2\neta = 0.02\nepochs = 10\nsigma = 2\n"
        "lambda = 1\nbeta = 4\nsensitivity = 4\nalpha = 10\n"
    )
    code, out, _ = run(capsys, "bound", "--kind", "naive", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["params"]["epochs"] == 10
    # flags override file values
    code, out, _ = run(
        capsys, "bound", "--kind", "naive", "--config", str(cfg), "--epochs", "20"
    )
    assert json.loads(out)["params"]["epochs"] == 20


def test_config_round_trip(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# reference setting\n"
        "n = 50\n"
        "b = 2\n"
        "eta = 0.02\n"
        "epochs = 40\n"
        "sigma = 2.0\n"
        "lambda = 1\n"
        "beta = 4\n"
        "sensitivity = 4\n"
        "truncate_last_batch = false\n"
    )
    code, out, err = run(capsys, "bound", "--kind", "naive", "--config", str(cfg), "--alpha", "10")
    assert (code, err) == (0, "")
    echo = json.loads(out)["params"]
    assert echo["n"] == 50
    assert echo["eta"] == 0.02
    assert echo["truncate_last_batch"] is False
    assert echo["m"] == 25


def test_config_rejects_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("momentum = 0.9\n")
    code, out, err = run(capsys, "bound", "--kind", "naive", *REF_FLAGS, "--alpha", "10",
                         "--epochs", "4", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"ConfigError: {cfg}:1: unknown key 'momentum'\n"


def test_neighboring_is_neither_a_config_key_nor_a_flag(capsys, tmp_path):
    # every guarantee is change-one, and no command takes a notion
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# reference setting\nneighboring = change-one\n")
    argv = ("bound", "--kind", "naive", *REF_FLAGS, "--alpha", "10", "--epochs", "4")
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"ConfigError: {cfg}:2: unknown key 'neighboring'\n"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--neighboring", "change-one"])
    assert exc.value.code == 2


def test_missing_config_file_exits_2(capsys, tmp_path):
    cfg = tmp_path / "absent.cfg"
    code, out, err = run(capsys, "bound", "--kind", "naive", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"ConfigError: {cfg}: No such file or directory\n"


REF_CONFIG = "".join(f"{flag[2:]} = {value}\n" for flag, value in zip(REF_FLAGS[::2], REF_FLAGS[1::2]))


@pytest.mark.parametrize("line", [
    "n = 50.7", "b = 2.5", "epochs = 3.9", "lambda = true", "truncate_last_batch = maybe",
])
def test_config_value_its_flag_refuses_exits_2(capsys, tmp_path, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# reference setting\n{line}\n{REF_CONFIG}")
    argv = ("bound", "--kind", "naive", "--alpha", "10", "--epochs", "4")
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    key, _, value = line.partition(" = ")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"ConfigError: {cfg}:2: {key}: "), err
    if key != "truncate_last_batch":  # the one flag that takes no value
        with pytest.raises(SystemExit) as exc:
            main([*argv, *REF_FLAGS, f"--{key}={value}"])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("bound", "--kind", "shuffle", "--alpha", "10", "--epochs", "40", "--delta", "1e-5"),
    ("curve", "--kinds", "improved-last,sgm", "--alpha", "10,30", "--epochs-max", "3"),
    ("calibrate", "--kind", "naive", "--epochs", "10", "--target-eps", "3", "--delta", "1e-5",
     "--alpha", "2,8"),
    ("verify", "--suite", "tightness"),
], ids=lambda argv: argv[0])
def test_config_prints_the_bytes_of_its_flags(capsys, tmp_path, argv):
    cfg = tmp_path / "ref.cfg"
    cfg.write_text(REF_CONFIG)
    code, via_flags, _ = run(capsys, *argv, *REF_FLAGS)
    assert code == 0
    assert run(capsys, *argv, "--config", str(cfg)) == (0, via_flags, "")


def test_convert_command(capsys):
    argv = ("convert", "--alpha", "10", "--eps", "0.05", "--delta", "1e-5")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    record = json.loads(out)
    assert sorted(record) == ["alpha_star", "delta", "eps_dp"]
    assert record["eps_dp"] == pytest.approx(1.32922, abs=1e-5)
    assert record["alpha_star"] == 10
    # every guarantee is change-one: the flags that named a notion are gone
    for flag in (("--from", "remove_one"), ("--to", "change_one")):
        with pytest.raises(SystemExit) as exc:
            main([*argv, *flag])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("InputError: "), err


def test_curve_refuses_a_repeated_label_before_any_output(capsys, tmp_path):
    # a label names one header and one file: the second curve would overwrite the first
    for kinds, alphas, label in (("shuffle", "10,10.000001", "kind=shuffle alpha=10"),
                                 ("shuffle,shuffle", "10", "kind=shuffle alpha=10"),
                                 ("naive,sgm", "2,30,30", "kind=naive alpha=30")):
        out_dir = tmp_path / "curves"
        code, out, err = run(capsys, "curve", "--kinds", kinds, "--alpha", alphas,
                             "--epochs-max", "2", *REF_FLAGS, "--out-dir", str(out_dir))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and label in err, err
        assert not out_dir.exists()


def test_calibrate_sigma_round_trip(capsys):
    code, out, _ = run(
        capsys, "calibrate", "--kind", "shuffle", *REF_FLAGS, "--epochs", "40",
        "--target-eps", "3", "--delta", "1e-5", "--alpha", "2,4,8,16",
    )
    assert code == 0
    record = json.loads(out)
    assert record["eps_dp_at_sigma"] <= 3.0
    assert record["eps_dp_at_sigma"] == pytest.approx(3.0, rel=1e-3)


def test_calibrate_epochs_maxed_out(capsys):
    code, out, _ = run(
        capsys, "calibrate", "--kind", "shuffle", *REF_FLAGS, "--epochs", "40",
        "--target-eps", "3", "--delta", "1e-5", "--alpha", "2,4,8,16",
        "--solve", "epochs",
    )
    record = json.loads(out)
    assert record["max_epochs"] == "inf"


def test_verify_suites_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records[-1] == {"failures": 0}
    assert {r["suite"] for r in records[:-1]} == {"tightness", "dominance"}
    assert "monte-carlo" not in out


@pytest.mark.parametrize("fault, reason", [
    ("raise", "DominanceViolated: planted"),
    ("loose", "NotTight: slack 1.0 exceeds 1e-9 of bound 2.0"),
])
def test_verify_counts_a_tightness_failure_and_runs_on(capsys, monkeypatch, fault, reason):
    from privdyn import oracle

    _, expected, _ = run(capsys, "verify", "--suite", "all")
    real, calls = oracle.verify_dominance, []

    def planted(instance, alpha, *args, **kwargs):
        calls.append(alpha)
        if len(calls) == 2:  # tightness at alpha 10: that suite runs first
            if fault == "raise":
                raise oracle.DominanceViolated("planted")
            return oracle.DominanceReport(kind="fixed", alpha=alpha, exact=1.0, bound=2.0)
        return real(instance, alpha, *args, **kwargs)

    monkeypatch.setattr(oracle, "verify_dominance", planted)
    code, out, err = run(capsys, "verify", "--suite", "all")
    assert (code, err) == (1, reason + "\n")
    lines = expected.splitlines()
    assert json.loads(lines[1])["suite"] == "tightness" and calls[1] == 10.0
    # only the failed record is missing, and the count says so
    assert out.splitlines() == lines[:1] + lines[2:-1] + ['{"failures": 1}']


def test_verify_tightness_at_tiny_eta(capsys):
    # the squared mean gap underflows at eta = 1e-200; the exact value must not
    code, out, _ = run(capsys, "verify", "--suite", "tightness", "--eta", "1e-200")
    assert code == 0
    assert out.splitlines()[-1] == '{"failures": 0}'


def test_verify_all_at_tiny_sigma(capsys):
    # bounds near 1e21, where an absolute 1e-12 slack is below float resolution
    code, out, err = run(capsys, "verify", "--suite", "all", "--sigma", "1e-12")
    assert (code, err) == (0, "")
    records = [json.loads(line) for line in out.splitlines()]
    assert records[-1] == {"failures": 0}
    assert max(r["report"]["bound"] for r in records[:-1]) > 1e20


def test_verify_defaults_yield_to_sigma_mul(capsys):
    # the reference defaults fill only what the user's path reads
    sigma = sigma_from_multiplier(0.02, 2, 4.0, 0.5)
    code, via_mul, _ = run(capsys, "verify", "--suite", "tightness", "--sigma-mul", "0.5")
    assert code == 0
    _, via_sigma, _ = run(capsys, "verify", "--suite", "tightness", "--sigma", repr(sigma))
    assert via_mul == via_sigma
    _, default, _ = run(capsys, "verify", "--suite", "tightness")
    assert via_mul != default
    code, _, err = run(
        capsys, "verify", "--suite", "tightness",
        "--clip-feature", "1", "--clip-gradient", "1", "--sigma-mul", "1",
    )
    assert (code, err) == (0, "")


def test_alpha_flag_sets_calibrate_grid(capsys):
    code, out, _ = run(
        capsys, "calibrate", "--kind", "naive", *REF_FLAGS, "--epochs", "10",
        "--target-eps", "3", "--delta", "1e-5", "--alpha", "2,8",
    )
    assert code == 0
    assert json.loads(out)["alpha_grid"] == [2.0, 8.0]


def checkout_env():
    """The environment for a fresh interpreter that imports privdyn from this checkout."""
    src = Path(__file__).resolve().parent.parent / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))


def run_python(code):
    """Run code in a fresh interpreter that imports privdyn from this checkout."""
    return subprocess.run([sys.executable, "-c", code], env=checkout_env(), capture_output=True, text=True)


def test_closed_pipe_exits_141_quietly():
    # about 0.7 MB of rows: more than a pipe buffer, so the writer meets the closed pipe
    argv = ["curve", "--kinds", "naive,sgm", *REF_FLAGS, "--alpha", "10", "--epochs-max", "20000"]
    proc = subprocess.Popen([sys.executable, "-m", "privdyn", *argv], env=checkout_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"# kind=naive alpha=10\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(), err) == (141, b"")


@pytest.mark.parametrize("argv", [
    ("bound", "--kind", "shuffle", "--n", "abc"),
    ("calibrate", "--kind", "fixed", *REF_FLAGS, "--epochs", "3", "--target-eps", "3"),
    ("convert", "--alpha", "10", "--eps", "0.05", "--delta", "1e-5", "--bogus", "1"),
], ids=["bad-int", "bad-choice", "unknown-flag"])
def test_flag_errors_are_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("InputError: "), err


def test_import_does_not_load_numpy():
    # numpy is a test dependency only
    done = run_python("import sys, privdyn, privdyn.cli; assert 'numpy' not in sys.modules")
    assert done.returncode == 0, done.stderr


def test_cli_runs_without_numpy():
    # a None entry makes any import of numpy fail
    argvs = [
        ["verify", "--suite", "all"],
        ["bound", "--kind", "shuffle", *REF_FLAGS, "--alpha", "10", "--epochs", "40",
         "--delta", "1e-5"],
        ["calibrate", "--kind", "shuffle", *REF_FLAGS, "--epochs", "40", "--target-eps", "3",
         "--delta", "1e-5", "--alpha", "2,4,8,16"],
        ["convert", "--alpha", "10", "--eps", "0.05", "--delta", "1e-5"],
    ]
    done = run_python(
        "import sys; sys.modules['numpy'] = None; from privdyn.cli import main; "
        f"codes = [main(argv) for argv in {argvs!r}]; "
        "print(codes, sorted(k for k in sys.modules if k.startswith('numpy')), "
        "sys.modules['numpy'], file=sys.stderr)"
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == "[0, 0, 0, 0] ['numpy'] None\n"


def test_public_surface():
    # a fresh interpreter: importing privdyn.cli here would add "cli"
    done = run_python("import privdyn; print(*sorted(n for n in vars(privdyn) if n[0] != '_'))")
    assert done.stdout.split() == [
        "AccountingError", "AccountingParams", "BatchCountTooSmall", "BoundKind",
        "DEFAULT_ALPHA_GRID", "DominanceViolated", "DpGuarantee", "EmptyInput",
        "GaussianLaw", "HeadTail", "IndexOutOfRange", "InvalidDelta", "MAXED_OUT",
        "MaxedOut", "NonDividingBatch", "NonIntegerOrder", "NonPositive",
        "OracleInstance", "RdpPoint", "SensitivityViolated", "StepsizeTooLarge",
        "Unsatisfiable", "baselines", "bound_fixed", "bound_limit", "bound_naive_baseline",
        "bound_samp_wo_replacement", "bound_shuffle", "calibrate", "calibrate_noise",
        "convert", "converted_eps", "corollary_logistic_bound", "dynamics", "eps0_term",
        "evaluate_bound", "exact_renyi", "gaussian_law", "logistic_params",
        "make_instance", "make_params", "max_epochs", "mixing_diffusion_first_batch",
        "mixing_diffusion_last_batch", "numerics", "oracle", "params", "rdp_to_dp",
        "samp_wo_limit", "sampling", "sgm_eps", "sgm_rdp_per_step", "sigma_from_multiplier",
        "validate", "verify_dominance", "with_epochs",
        "with_sigma",
    ]


def test_bound_deterministic_output(capsys):
    args = ("bound", "--kind", "samp-wo", *REF_FLAGS, "--alpha", "10", "--epochs", "40")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_bound_kind_fixed_needs_j0(capsys, ref_params):
    code, _, err = run(
        capsys, "bound", "--kind", "fixed", *REF_FLAGS, "--alpha", "10", "--epochs", "40"
    )
    assert code == 2
    assert "--j0" in err
    code, out, _ = run(
        capsys, "bound", "--kind", "fixed", *REF_FLAGS, "--alpha", "10",
        "--epochs", "40", "--j0", "12",
    )
    assert code == 0
    record = json.loads(out)
    assert record["eps_rdp"] == pytest.approx(
        bound_fixed(ref_params, 10, 12).eps, rel=1e-15
    )


def test_calibrate_sigma_on_clip_flags_needs_no_sigma_mul(capsys):
    # the solver replaces sigma, so a given --sigma-mul changes nothing
    argv = ("calibrate", "--kind", "shuffle", "--target-eps", "3", "--delta", "1e-5",
            "--n", "50", "--b", "2", "--eta", "0.02", "--lambda", "1",
            "--clip-feature", "1", "--clip-gradient", "1", "--epochs", "40")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    _, with_mul, _ = run(capsys, *argv, "--sigma-mul", "7")
    assert out == with_mul


def test_calibrate_sigma_with_multiplier_parameterization(capsys):
    # regularity from the clip norms; sigma searched directly
    code, out, _ = run(
        capsys, "calibrate", "--kind", "naive", "--n", "64", "--b", "2",
        "--eta", "0.1", "--lambda", "0.04", "--clip-feature", "1",
        "--clip-gradient", "0.1", "--sigma-mul", "10", "--epochs", "20",
        "--target-eps", "1.0", "--delta", "1e-5", "--alpha", "4,16,64",
    )
    assert code == 0
    record = json.loads(out)
    assert record["eps_dp_at_sigma"] <= 1.0


def test_timestamp_flag_adds_field(capsys):
    args = ("bound", "--kind", "naive", *REF_FLAGS, "--alpha", "10", "--epochs", "5")
    _, plain, _ = run(capsys, *args)
    assert "timestamp" not in plain
    _, stamped, _ = run(capsys, *args, "--timestamp")
    assert "timestamp" in json.loads(stamped)


def test_both_curve_families_render(capsys):
    import time

    start = time.perf_counter()
    code, out, _ = run(
        capsys, "curve",
        "--kinds", "improved-first,improved-last,naive,mixing-diffusion-first,mixing-diffusion-last",
        *REF_FLAGS, "--alpha", "10,20,30", "--epochs-max", "25",
    )
    assert code == 0
    assert out.count("# kind=") == 15
    code, out, _ = run(
        capsys, "curve", "--kinds", "shuffle,fixed-last,sgm,samp-wo",
        *REF_FLAGS, "--alpha", "10,20,30", "--epochs-max", "80",
    )
    assert code == 0
    assert out.count("# kind=") == 12
    assert time.perf_counter() - start < 30
    # every emitted curve is nondecreasing in k
    eps_prev = None
    for line in out.splitlines():
        if line.startswith("#") or line == "k,eps":
            eps_prev = None
            continue
        eps = float(line.split(",")[1])
        if eps_prev is not None:
            assert eps >= eps_prev * (1 - 1e-12)
        eps_prev = eps


def test_curve_golden_rows(capsys):
    # pinned bytes: catches accidental changes to formulas or formatting
    code, out, _ = run(
        capsys, "curve", "--kinds", "improved-last", *REF_FLAGS,
        "--alpha", "30", "--epochs-max", "3",
    )
    assert code == 0
    assert out.splitlines() == [
        "# kind=improved-last alpha=30",
        "k,eps",
        "1,0.14999999999999999",
        "2,0.1599124388899662",
        "3,0.16577461000102583",
    ]


GOLDEN = Path(__file__).parent / "golden"
README_FLAGS = [
    "--n", "50", "--b", "2", "--eta", "0.02", "--lambda", "1", "--beta", "4",
    "--sensitivity", "4",
]
# The README's CLI examples; tests/golden holds their stdout from before the
# bound-family registry replaced the per-command dispatch tables. bound.txt
# was re-recorded when the mixture kernel moved its eps_rdp up by one ulp, to
# at or above the 50-digit value 0.0154590461519436174. calibrate_sigma.txt
# was re-recorded when each order got solved alone to a relative 1e-10: its
# sigma moved down, toward the exact minimum, from PREVIOUS_GOLDEN_SIGMA.
# bound.txt and both calibrate goldens lost the "neighboring" key of their
# params echo when params stopped carrying a neighboring notion, and
# convert.txt lost its own "neighboring" key when every guarantee became
# change-one.
PREVIOUS_GOLDEN_SIGMA = 0.3175492905026391
README_EXAMPLES = {
    "bound": ("bound", "--kind", "shuffle", *README_FLAGS, "--sigma", "2",
              "--alpha", "10", "--epochs", "40"),
    "calibrate_sigma": ("calibrate", "--kind", "shuffle", "--target-eps", "3",
                        "--delta", "1e-5", *README_FLAGS, "--epochs", "40"),
    "calibrate_epochs": ("calibrate", "--kind", "shuffle", "--solve", "epochs",
                         "--target-eps", "3", "--delta", "1e-5", *README_FLAGS,
                         "--sigma", "2", "--epochs", "1"),
    "convert": ("convert", "--alpha", "10", "--eps", "0.05", "--delta", "1e-5"),
    "curve": ("curve", "--kinds",
              "improved-first,improved-last,naive,mixing-diffusion-first,mixing-diffusion-last",
              "--alpha", "10,20,30", "--epochs-max", "25", *README_FLAGS, "--sigma", "2"),
}


@pytest.mark.parametrize("name", sorted(README_EXAMPLES))
def test_readme_examples_golden_stdout(capsys, name):
    code, out, _ = run(capsys, *README_EXAMPLES[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text()


def test_golden_sigma_is_below_the_previous_one_and_meets_the_target():
    record = json.loads((GOLDEN / "calibrate_sigma.txt").read_text())
    assert record["sigma"] <= PREVIOUS_GOLDEN_SIGMA * (1 + 1e-9)
    assert record["eps_dp_at_sigma"] <= record["target_eps"]


@pytest.mark.parametrize("kind", [k.value for k in BoundKind])
def test_bound_curve_and_calibrate_accept_the_same_kinds(capsys, kind):
    j0 = ["--j0", "12"] if kind == "fixed" else []
    code, out, _ = run(capsys, "bound", "--kind", kind, *REF_FLAGS, "--alpha", "10",
                       "--epochs", "3", *j0)
    assert code == 0
    assert json.loads(out)["bound_kind"] == kind
    code, out, _ = run(capsys, "curve", "--kinds", kind, *REF_FLAGS, "--alpha", "10",
                       "--epochs-max", "3", *j0)
    assert code == 0
    assert out.startswith(f"# kind={kind} alpha=10\nk,eps\n")
    calibrate_argv = ["calibrate", "--kind", kind, *REF_FLAGS, "--epochs", "3",
                      "--target-eps", "3", "--delta", "1e-5", "--alpha", "2,8"]
    if kind == "fixed":
        # calibrate has no --j0 flag, so the one j0-dependent family is refused
        with pytest.raises(SystemExit) as exc:
            main(calibrate_argv)
        assert exc.value.code == 2
        return
    code, out, _ = run(capsys, *calibrate_argv)
    assert code == 0
    assert json.loads(out)["bound_kind"] == kind


# Flag values for the fuzz below: finite, extreme, zero, negative, nan and inf.
# Values are passed as --flag=value so that argparse reads "-inf" as a value.
EXTREME_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([
        0.0, -0.0, -1.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-200, 1e-12, 0.5,
        1.0, 1.5, 1e12, 1e154, 1e300, 1.7976931348623157e308, math.nan, math.inf, -math.inf,
    ]),
)


def _maybe(ref, values):
    """The reference value, or one time in eight a fuzzed one, so most runs get past
    the first invalid flag."""
    return st.tuples(st.integers(0, 7), values).map(lambda t: t[1] if t[0] == 0 else ref)


def _float_list(ref):
    return _maybe(ref, st.lists(EXTREME_FLOATS, min_size=1, max_size=2).map(
        lambda xs: ",".join(map(str, xs))))


# n and epochs stay small: samp-wo and shuffle cost grows with K*m by design
PARAM_FLAGS = st.fixed_dictionaries({
    "n": _maybe(50, st.integers(-2, 40)),
    "b": _maybe(2, st.integers(-1, 41)),
    "epochs": _maybe(3, st.integers(-1, 4)),
    "eta": _maybe(0.02, EXTREME_FLOATS),
    "sigma": _maybe(2.0, EXTREME_FLOATS),
    "lambda": _maybe(1.0, EXTREME_FLOATS),
    "beta": _maybe(4.0, EXTREME_FLOATS),
    "sensitivity": _maybe(4.0, EXTREME_FLOATS),
    "alpha": _float_list("10"),
    "delta": _maybe(1e-5, EXTREME_FLOATS),
})


def _flags(values: dict) -> list[str]:
    return [f"--{key}={value}" for key, value in values.items()]


# (argv without the param flags, the param values)
FUZZ_COMMANDS = st.one_of(
    st.tuples(st.sampled_from([k.value for k in BoundKind]), PARAM_FLAGS,
              st.integers(-1, 25)).map(
        lambda t: (["bound", f"--kind={t[0]}", *([f"--j0={t[2]}"] if t[0] == "fixed" else [])],
                   t[1])),
    st.tuples(st.sampled_from([k.value for k in BoundKind if k is not BoundKind.FIXED]),
              st.sampled_from(["sigma", "epochs"]), PARAM_FLAGS,
              _maybe(3.0, EXTREME_FLOATS)).map(
        lambda t: (["calibrate", f"--kind={t[0]}", f"--solve={t[1]}", f"--target-eps={t[3]}"],
                   t[2])),
    st.tuples(_float_list("10"), _float_list("0.05"), _maybe(1e-5, EXTREME_FLOATS)).map(
        lambda t: (["convert", f"--alpha={t[0]}", f"--eps={t[1]}", f"--delta={t[2]}"], {})),
)


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(command=FUZZ_COMMANDS)
def test_fuzzed_flag_values_exit_0_or_2(tmp_path_factory, command):
    argv, values = command
    code, out, err = _run_quietly([*argv, *_flags(values)])
    if values:
        # the same values as --config lines are read as their flags read them
        cfg = tmp_path_factory.getbasetemp() / "fuzz.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        assert _run_quietly([*argv, f"--config={cfg}"]) == (code, out, err)
    assert code in (0, 2), (argv, values, err)
    if code == 2:
        assert out == ""
        assert len(err.splitlines()) == 1, err
        return
    record = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in {out}"))
    for key, value in record.items():
        if "eps" in key:
            for eps in value if isinstance(value, list) else [value]:
                assert math.isfinite(eps) and eps >= 0, (argv, key, value)
