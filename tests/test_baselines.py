import math

import mpmath
import pytest

from privdyn import (
    AccountingError,
    NonIntegerOrder,
    mixing_diffusion_first_batch,
    mixing_diffusion_last_batch,
    sgm_eps,
    sgm_rdp_per_step,
    with_epochs,
)
from privdyn.baselines import _sigma_eff, sgm_order
from privdyn.dynamics import bound_fixed

from helpers import sgm_composition, sgm_epoch_approximation


def sgm_moment_sum_highprec(q, sigma_eff, alpha, dps=60):
    """Independent oracle: the binomial moment sum at 60 decimal digits."""
    with mpmath.workdps(dps):
        q = mpmath.mpf(q)
        s = mpmath.mpf(sigma_eff)
        total = mpmath.mpf(0)
        for k in range(alpha + 1):
            total += (
                mpmath.binomial(alpha, k)
                * (1 - q) ** (alpha - k)
                * q**k
                * mpmath.exp(mpmath.mpf(k * (k - 1)) / (2 * s**2))
            )
        return float(mpmath.log(total) / (alpha - 1))


def test_sgm_params_from_ref_params(ref_params):
    assert ref_params.q == pytest.approx(0.04, rel=1e-15)
    assert _sigma_eff(ref_params) == pytest.approx(10.0, rel=1e-12)
    assert ref_params.steps == 1000


def test_sgm_per_step_full_batch_collapses_to_gaussian():
    for alpha in (2, 10, 64):
        assert sgm_rdp_per_step(1.0, 10.0, alpha) == pytest.approx(alpha / 200.0, rel=1e-15)
    assert sgm_rdp_per_step(1.0, 10.0, 10) == pytest.approx(0.05, rel=1e-15)


def test_sgm_per_step_against_highprec_oracle():
    oracle = sgm_moment_sum_highprec(0.04, 10.0, 10)
    value = sgm_rdp_per_step(0.04, 10.0, 10)
    assert value == pytest.approx(oracle, rel=1e-11)
    # frozen digits of the 60-digit evaluation
    assert value == pytest.approx(8.06506731886085e-05, rel=1e-9)


@pytest.mark.parametrize("q", [0.01, 0.04, 0.2, 0.9])
@pytest.mark.parametrize("alpha", [2, 5, 17, 64])
@pytest.mark.parametrize("sigma_eff", [1.0, 4.0, 10.0])
def test_sgm_per_step_grid_against_oracle(q, alpha, sigma_eff):
    oracle = sgm_moment_sum_highprec(q, sigma_eff, alpha)
    assert sgm_rdp_per_step(q, sigma_eff, alpha) == pytest.approx(oracle, rel=1e-10, abs=1e-14)


def test_sgm_per_step_vanishes_with_q():
    assert sgm_rdp_per_step(1e-12, 10.0, 10) == pytest.approx(0.0, abs=1e-10)


def test_sgm_per_step_monotonicity():
    qs = [0.01, 0.04, 0.2, 1.0]
    alphas = list(range(2, 65))
    sigmas = [1.0, 4.0, 10.0]
    for sigma in sigmas:
        for alpha in (2, 16, 64):
            by_q = [sgm_rdp_per_step(q, sigma, alpha) for q in qs]
            assert all(b >= a for a, b in zip(by_q, by_q[1:]))
            assert by_q[-1] == pytest.approx(alpha / (2 * sigma**2), rel=1e-12)
            # subsampling never hurts
            assert all(v <= alpha / (2 * sigma**2) * (1 + 1e-12) for v in by_q)
    for q in (0.04, 0.2):
        by_alpha = [sgm_rdp_per_step(q, 4.0, a) for a in alphas]
        assert all(b >= a for a, b in zip(by_alpha, by_alpha[1:]))
    by_sigma = [sgm_rdp_per_step(0.04, s, 10) for s in sigmas]
    assert all(b < a for a, b in zip(by_sigma, by_sigma[1:]))


def test_sgm_rejects_non_integer_order(ref_params):
    with pytest.raises(NonIntegerOrder):
        sgm_rdp_per_step(0.04, 10.0, 10.5)
    with pytest.raises(NonIntegerOrder):
        sgm_rdp_per_step(0.04, 10.0, 1)
    assert sgm_order(10.5) == 11
    assert sgm_order(2.0000000000005) == 3  # just above an integer still rounds up
    assert sgm_eps(ref_params, 10.5) == sgm_eps(ref_params, 11)


def test_sgm_large_order_via_log_gamma():
    # orders up to 1e4 must evaluate without overflow
    value = sgm_rdp_per_step(0.04, 10.0, 10_000)
    assert math.isfinite(value)
    assert value > 0


def test_sgm_rejects_orders_above_10000(ref_params):
    # the moment sum has order + 1 terms; a huge order must fail, not hang
    with pytest.raises(AccountingError, match="10000"):
        sgm_rdp_per_step(0.04, 10.0, 10_001)
    with pytest.raises(AccountingError, match="10000"):
        sgm_eps(ref_params, 1e300)


def test_sgm_rejects_sigma_eff_whose_square_overflows():
    with pytest.raises(AccountingError, match="sigma_eff = 1e[+]200"):
        sgm_rdp_per_step(0.04, 1e200, 2)
    with pytest.raises(AccountingError, match="sigma_eff"):
        sgm_rdp_per_step(1.0, 1e154, 2)  # finite square, 2*square overflows


def test_sgm_composition_linear_in_steps(ref_params):
    per_step = sgm_rdp_per_step(0.04, 10.0, 10)
    curve = sgm_composition(ref_params, 10)
    assert len(curve.points) == 40
    for k, eps in curve.points:
        assert eps == pytest.approx(k * 25 * per_step, rel=1e-12)
    assert sgm_eps(with_epochs(ref_params, 40), 10) == pytest.approx(
        40 * 25 * per_step, rel=1e-12)
    assert sgm_eps(with_epochs(ref_params, 0), 10) == 0.0


def test_sgm_epoch_approximation_close_to_exact(ref_params):
    # the per-epoch leading-term approximation q*eps1 sits within 2% of the
    # exact per-epoch value for the reference setting
    approx = sgm_epoch_approximation(ref_params, 10)
    exact = 25 * sgm_rdp_per_step(0.04, 10.0, 10)
    assert approx == pytest.approx(0.002, rel=1e-12)
    assert abs(approx - exact) / exact < 0.02


def test_mixing_diffusion_values(ref_params):
    assert mixing_diffusion_first_batch(with_epochs(ref_params, 0), 30) == 0.0
    # K=1 last batch: the additive eps1 term alone
    assert mixing_diffusion_last_batch(with_epochs(ref_params, 1), 30) == pytest.approx(0.15, rel=1e-12)
    # slope = [0.15/24] * (1 - 2*0.02*4/5)^12.5, linear in K
    slope = 0.15 / 24 * (1 - 2 * 0.02 * 4 * 1 / 5) ** 12.5
    for k in (1, 7, 25):
        assert mixing_diffusion_first_batch(with_epochs(ref_params, k), 30) == pytest.approx(
            k * slope, rel=1e-12
        )


def test_mixing_diffusion_same_order_as_dynamics_at_k1(ref_params):
    p = with_epochs(ref_params, 1)
    mixing = mixing_diffusion_first_batch(p, 30)
    dyn = bound_fixed(p, 30, 0).eps
    ratio = mixing / dyn
    assert 1 / 3 < ratio < 3
    # the converging dynamics bound wins from K = 10 onward
    for k in (10, 15, 25):
        pk = with_epochs(ref_params, k)
        assert bound_fixed(pk, 30, 0).eps < mixing_diffusion_first_batch(pk, 30)


def test_mixing_diffusion_nondecreasing_in_k(ref_params):
    first = [mixing_diffusion_first_batch(with_epochs(ref_params, k), 10) for k in range(1, 30)]
    last = [mixing_diffusion_last_batch(with_epochs(ref_params, k), 10) for k in range(1, 30)]
    assert all(b >= a for a, b in zip(first, first[1:]))
    assert all(b >= a for a, b in zip(last, last[1:]))
