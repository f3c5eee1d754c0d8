"""Acceptance suite: one test per criterion, each printing a PASS line with
its wall-clock time. Frozen expected values come from independent 60-digit
evaluations (mpmath) of the closed forms; the SGM criterion re-runs its
high-precision oracle in place.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from privdyn import (
    BoundKind,
    RdpPoint,
    bound_naive_baseline,
    bound_shuffle,
    bound_fixed,
    calibrate_noise,
    converted_eps,
    corollary_logistic_bound,
    eps0_term,
    exact_renyi,
    gaussian_law,
    logistic_params,
    make_instance,
    make_params,
    mixing_diffusion_first_batch,
    rdp_to_dp,
    sgm_eps,
    sgm_rdp_per_step,
    sigma_from_multiplier,
    verify_dominance,
    with_sigma,
)
from privdyn.sampling import samp_wo_log_steps

from helpers import closed_form_law, recursion_coefficients


def ref_at(epochs, lam=1.0, beta=4.0):
    return make_params(n=50, b=2, eta=0.02, epochs=epochs, sigma=2.0,
                       lam=lam, beta=beta, s_g=4.0)


class criterion:
    """Context manager asserting a wall-clock limit and printing a PASS line."""

    def __init__(self, label, seconds=None):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is not None:
            print(f"[{self.label}] FAIL after {elapsed:.2f}s")
            return False
        if self.seconds is not None:
            assert elapsed < self.seconds, f"{self.label} took {elapsed:.2f}s >= {self.seconds}s"
        print(f"[{self.label}] PASS ({elapsed:.2f}s)")
        return False


def test_criterion_01_oracle_tightness():
    with criterion("AC-1 oracle tightness at K=1, first batch", seconds=1.0):
        params = ref_at(1)
        instance = make_instance(params, j0=0)
        for alpha in (2.0, 10.0, 30.0):
            exact = exact_renyi(instance, alpha)
            bound = bound_fixed(params, alpha, 0).eps
            assert abs(bound - exact) <= 1e-9 * bound


def test_criterion_02_oracle_dominance_grid():
    with criterion("AC-2 oracle dominance over the K x j0 x alpha grid", seconds=5.0):
        for epochs in (1, 2, 5, 10, 20, 40):
            params = ref_at(epochs)
            for j0 in (0, 12, 24):
                instance = make_instance(params, j0=j0)
                for alpha in (2.0, 10.0, 30.0):
                    report = verify_dominance(instance, alpha, "fixed", beta=4.0)
                    assert report.slack >= -1e-12


def test_criterion_03_recursion_and_continuity():
    with criterion("AC-3 recursion vs closed form; lambda -> 0 continuity"):
        params = ref_at(1)
        eps = recursion_coefficients(params, 10, 0, 0, in_batch=True).apply(0.0)
        for j in range(1, 26):
            assert eps == pytest.approx(eps0_term(params, 10, j), rel=1e-12)
            if j < 25:
                eps = recursion_coefficients(params, 10, 0, j, in_batch=False).apply(eps)
        convex = ref_at(1, lam=0.0)
        near = ref_at(1, lam=1e-6)
        for j in range(1, 26):
            assert eps0_term(near, 10, j) == pytest.approx(
                eps0_term(convex, 10, j), rel=1e-3
            )
        for j0 in (0, 12, 24):
            assert bound_fixed(near, 10, j0).eps == pytest.approx(
                bound_fixed(convex, 10, j0).eps, rel=1e-3
            )


def test_criterion_04_convergence_vs_linear_baselines():
    with criterion("AC-4 converging last-batch bound vs linear baselines", seconds=1.0):
        eps200 = bound_fixed(ref_at(200), 30, 24).eps
        eps400 = bound_fixed(ref_at(400), 30, 24).eps
        assert abs(eps400 - eps200) < 1e-6
        # limit 0.15*(eps0(12)/eps1/(1-r^13) + 1), 60-digit evaluation 0.17425924657600
        assert eps400 == pytest.approx(0.1743, abs=1e-3)
        assert eps400 == pytest.approx(0.174259246575998, rel=1e-9)
        naive25 = bound_naive_baseline(ref_at(25), 30)
        assert naive25 == pytest.approx(6.64, abs=0.01)
        assert naive25 == pytest.approx(6.635976507857854, rel=1e-12)
        mixing = [mixing_diffusion_first_batch(ref_at(k), 30) for k in range(1, 26)]
        increments = [b - a for a, b in zip(mixing, mixing[1:])]
        assert all(inc == pytest.approx(mixing[0], rel=1e-9) for inc in increments)


def test_criterion_05_sgm_per_step_value():
    with criterion("AC-5 SGM per-step value vs high-precision moment sum"):
        with mpmath.workdps(60):
            q, s = mpmath.mpf("0.04"), mpmath.mpf(10)
            total = sum(
                mpmath.binomial(10, k) * (1 - q) ** (10 - k) * q**k
                * mpmath.exp(mpmath.mpf(k * (k - 1)) / (2 * s**2))
                for k in range(11)
            )
            oracle = float(mpmath.log(total) / 9)
        value = sgm_rdp_per_step(0.04, 10.0, 10)
        assert value == pytest.approx(oracle, abs=1e-7)
        assert value == pytest.approx(oracle, rel=1e-11)
        # the spec sheet's 5.80e-5 is the k=2 term alone; the full sum is
        # 8.0650673e-5 (see the decisions ledger)
        assert value == pytest.approx(8.06506731886085e-05, rel=1e-9)
        assert sgm_rdp_per_step(1.0, 10.0, 10) == pytest.approx(10 / 200, rel=1e-15)


def test_criterion_06_shuffle_crossover():
    with criterion("AC-6 shuffle crossover below composition; last-batch dominance", seconds=2.0):
        crossover_k = math.ceil(4 / (1.0 * 0.02) + 4 * 50 / 2)
        assert crossover_k == 300
        params = ref_at(crossover_k)
        assert bound_shuffle(params, 10).eps < sgm_eps(params, 10)
        for k in range(1, 81):
            p = ref_at(k)
            assert bound_shuffle(p, 10).eps <= bound_fixed(p, 10, 24).eps * (1 + 1e-12)


def test_criterion_07_samp_wo_recursion():
    with criterion("AC-7 samp-wo recursion: one-step value, domains, state"):
        first = next(samp_wo_log_steps(ref_at(1), 10))
        assert first / 9 == pytest.approx(0.0024975, abs=1e-6)
        p80 = ref_at(80)
        logs = [0.0, *samp_wo_log_steps(p80, 10)]
        # linear-domain recursion while S < 1e30
        q, gain, r = p80.q, math.exp(9 * p80.eps1(10)), p80.r
        s = 1.0
        for log_s in logs[1:]:
            s = q * gain * s + (1 - q) * s**r
            if s < 1e30:
                assert log_s == pytest.approx(math.log(s), rel=1e-10, abs=1e-12)
        assert all(log_s >= 0.0 for log_s in logs)  # S >= 1 throughout
        assert all(b >= a for a, b in zip(logs, logs[1:]))


def test_criterion_08_corollary_consistency():
    with criterion("AC-8 corollary path equals shuffle path; prefactor identity"):
        kwargs = dict(n=64, b=2, eta=0.1, epochs=9, lam=0.04, l_feat=1.0,
                      grad_clip=0.1, sigma_mul=10.0)
        direct = corollary_logistic_bound(alpha=8.0, eps_norm=0.0, **kwargs)
        params = logistic_params(**kwargs)
        assert direct == pytest.approx(bound_shuffle(params, 8.0).eps, rel=1e-12)
        rng = np.random.default_rng(17)
        for _ in range(100):
            eta = float(rng.uniform(0.001, 0.5))
            b = int(rng.integers(1, 64))
            s_g = float(rng.uniform(0.05, 20.0))
            sigma_mul = float(rng.uniform(0.2, 50.0))
            alpha = float(rng.uniform(1.01, 128.0))
            sigma = sigma_from_multiplier(eta, b, s_g, sigma_mul)
            eps1 = alpha * eta * s_g**2 / (4 * sigma**2 * b**2)
            assert eps1 == pytest.approx(2 * alpha / sigma_mul**2, rel=1e-12)


def test_criterion_09_conversion_and_calibration():
    with criterion("AC-9 conversion value, calibration round trips"):
        converted = rdp_to_dp([RdpPoint(alpha=10, eps=0.05)], 1e-5)
        assert converted.eps == pytest.approx(1.32922, abs=1e-5)
        grid = [2.0, 4.0, 8.0, 16.0, 32.0]
        base = ref_at(40)
        for kind in (k for k in BoundKind if k is not BoundKind.FIXED):
            sigma = calibrate_noise(base, grid, target_eps=3.0, delta=1e-5, kind=kind)
            achieved = converted_eps(with_sigma(base, sigma), grid, 1e-5, kind)
            assert achieved <= 3.0
            assert achieved == pytest.approx(3.0, rel=1e-3)


def test_criterion_10_gaussian_law():
    with criterion("AC-10 oracle law matches its closed form at every step", seconds=1.0):
        instance = make_instance(ref_at(5), j0=0)
        for alt in (False, True):
            laws = gaussian_law(instance, alt=alt, trace=True)
            for law, (mean, variance) in zip(laws, closed_form_law(instance, alt=alt), strict=True):
                assert law.variance == pytest.approx(variance, rel=1e-12, abs=0.0)
                assert abs(law.mean - mean) <= 1e-12 * 4.0  # max(|theta0|, max|x|) = S_g/lam
