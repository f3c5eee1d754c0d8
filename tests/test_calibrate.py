import math

import pytest

from privdyn import (
    DEFAULT_ALPHA_GRID,
    AccountingError,
    RdpPoint,
    rdp_to_dp,
    MAXED_OUT,
    BoundKind,
    Unsatisfiable,
    bound_limit,
    calibrate_noise,
    converted_eps,
    evaluate_bound,
    max_epochs,
    with_epochs,
    with_sigma,
)

GRID = [2.0, 4.0, 8.0, 16.0, 32.0]
# every family that evaluates from (params, alpha); kind fixed also needs j0
ALL_KINDS = [k for k in BoundKind if k is not BoundKind.FIXED]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_calibrate_noise_round_trip(ref_params, kind):
    target = 3.0
    sigma = calibrate_noise(ref_params, GRID, target_eps=target, delta=1e-5, kind=kind)
    achieved = converted_eps(with_sigma(ref_params, sigma), GRID, 1e-5, kind)
    assert achieved <= target
    # within tolerance of the crossing: nudging sigma down breaks the budget
    below = converted_eps(with_sigma(ref_params, sigma * (1 - 1e-4)), GRID, 1e-5, kind)
    assert below > target or achieved == pytest.approx(target, rel=1e-3)


def test_calibrate_noise_fixed_point(ref_params):
    # target set to the converted eps at a known sigma: the solver returns it
    kind = BoundKind.NAIVE
    target = converted_eps(ref_params, GRID, 1e-5, kind)
    sigma = calibrate_noise(ref_params, GRID, target_eps=target, delta=1e-5, kind=kind)
    assert sigma == pytest.approx(ref_params.sigma, rel=1e-4)


def test_calibrate_noise_huge_target_returns_lower_edge(ref_params):
    sigma = calibrate_noise(
        ref_params, GRID, target_eps=1e13, delta=1e-5, kind=BoundKind.NAIVE,
    )
    assert sigma == 1e-6


def test_calibrate_noise_unsatisfiable(ref_params):
    with pytest.raises(Unsatisfiable):
        calibrate_noise(
            ref_params, GRID, target_eps=1e-9, delta=1e-5, kind=BoundKind.SGM_COMPOSITION,
        )


def test_max_epochs_zero_when_budget_below_first_epoch(ref_params):
    tiny = 1e-6
    assert max_epochs(ref_params, GRID, tiny, 1e-5, BoundKind.NAIVE) == 0


def test_max_epochs_finite_and_monotone_for_naive(ref_params):
    # naive limit (alpha=2 converted): 2*16/(4*4) + log-term; pick targets below it
    k_small = max_epochs(ref_params, GRID, 2.2, 1e-5, BoundKind.NAIVE)
    k_large = max_epochs(ref_params, GRID, 3.0, 1e-5, BoundKind.NAIVE)
    assert isinstance(k_small, int) and isinstance(k_large, int)
    assert 1 <= k_small <= k_large
    assert converted_eps(with_epochs(ref_params, k_small), GRID, 1e-5, BoundKind.NAIVE) <= 2.2
    assert converted_eps(with_epochs(ref_params, k_small + 1), GRID, 1e-5, BoundKind.NAIVE) > 2.2


def test_max_epochs_maxed_out_for_converging_bounds(ref_params):
    # shuffle converges to ~0.06 (alpha=10 scale) plus the delta term: a
    # budget above the converged conversion admits unlimited epochs
    assert max_epochs(ref_params, GRID, 3.0, 1e-5, BoundKind.SHUFFLE) is MAXED_OUT
    assert max_epochs(ref_params, GRID, 3.0, 1e-5, BoundKind.SAMP_WO) is MAXED_OUT
    assert max_epochs(ref_params, GRID, 3.0, 1e-5, BoundKind.FIXED_LAST_BATCH) is MAXED_OUT


def test_max_epochs_finite_for_linear_baseline(ref_params):
    k = max_epochs(ref_params, GRID, 2.0, 1e-5, BoundKind.SGM_COMPOSITION)
    assert isinstance(k, int) and k >= 1
    assert converted_eps(with_epochs(ref_params, k), GRID, 1e-5, BoundKind.SGM_COMPOSITION) <= 2.0
    assert converted_eps(with_epochs(ref_params, k + 1), GRID, 1e-5, BoundKind.SGM_COMPOSITION) > 2.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_bound_limits_dominate_finite_k(ref_params, kind):
    limit = bound_limit(ref_params, 10.0, kind)
    for k in (1, 10, 40, 200):
        assert evaluate_bound(with_epochs(ref_params, k), 10.0, kind) <= limit * (1 + 1e-9)
    if kind is BoundKind.SGM_COMPOSITION:
        assert math.isinf(limit)


def test_evaluate_bound_matches_direct_calls(ref_params):
    from privdyn import (
        bound_naive_baseline,
        bound_samp_wo_replacement,
        bound_shuffle,
        bound_strongly_convex_fixed,
        mixing_diffusion_first_batch,
        mixing_diffusion_last_batch,
        sgm_eps,
    )

    j0 = 12  # the batch index kind fixed takes from its caller
    direct = {
        BoundKind.SHUFFLE: lambda p, a: bound_shuffle(p, a).eps,
        BoundKind.SAMP_WO: bound_samp_wo_replacement,
        BoundKind.FIXED_LAST_BATCH: lambda p, a: bound_strongly_convex_fixed(p, a, 24).eps,
        BoundKind.IMPROVED_LAST: lambda p, a: bound_strongly_convex_fixed(p, a, 24).eps,
        BoundKind.IMPROVED_FIRST: lambda p, a: bound_strongly_convex_fixed(p, a, 0).eps,
        BoundKind.FIXED: lambda p, a: bound_strongly_convex_fixed(p, a, j0).eps,
        BoundKind.SGM_COMPOSITION: sgm_eps,
        BoundKind.NAIVE: bound_naive_baseline,
        BoundKind.MIXING_DIFFUSION_FIRST: mixing_diffusion_first_batch,
        BoundKind.MIXING_DIFFUSION_LAST: mixing_diffusion_last_batch,
    }
    assert set(direct) == set(BoundKind)
    short = with_epochs(ref_params, 6)
    for kind, bound in direct.items():
        family = kind.at(j0 if kind is BoundKind.FIXED else None)
        for alpha in (1.5, 10, 64.0):
            assert family.eps(ref_params, alpha) == bound(ref_params, alpha)
            if kind is not BoundKind.FIXED:
                assert evaluate_bound(ref_params, alpha, kind) == bound(ref_params, alpha)
        # the curve (one recursion pass for samp-wo) matches the per-epoch calls
        assert family.curve(short, 10.0) == [
            bound(with_epochs(short, k), 10.0) for k in range(1, 7)
        ]
    assert BoundKind("improved-last").family is BoundKind.FIXED_LAST_BATCH.family
    with pytest.raises(AccountingError, match="j0"):
        evaluate_bound(ref_params, 10, BoundKind.FIXED)


def test_bisection_budget(ref_params):
    # the solver converges inside its 200-iteration budget at 1e-6 relative
    sigma = calibrate_noise(
        ref_params, list(DEFAULT_ALPHA_GRID), target_eps=3.0, delta=1e-5,
        kind=BoundKind.NAIVE,
    )
    achieved = converted_eps(with_sigma(ref_params, sigma), list(DEFAULT_ALPHA_GRID), 1e-5, BoundKind.NAIVE)
    assert achieved <= 3.0
    assert achieved == pytest.approx(3.0, rel=1e-3)

def test_max_epochs_finite_for_samp_wo(ref_params):
    # a target between the one-epoch value and the converged limit crosses
    # at a finite epoch count
    at_one = converted_eps(with_epochs(ref_params, 1), GRID, 1e-5, BoundKind.SAMP_WO)
    points = [
        RdpPoint(alpha=a, eps=bound_limit(ref_params, a, BoundKind.SAMP_WO)) for a in GRID
    ]
    at_limit = rdp_to_dp(points, 1e-5).eps
    assert at_one < at_limit
    target = (at_one + at_limit) / 2
    k = max_epochs(ref_params, GRID, target, 1e-5, BoundKind.SAMP_WO)
    assert isinstance(k, int) and k >= 1
    assert converted_eps(with_epochs(ref_params, k), GRID, 1e-5, BoundKind.SAMP_WO) <= target
    assert converted_eps(with_epochs(ref_params, k + 1), GRID, 1e-5, BoundKind.SAMP_WO) > target



@pytest.mark.parametrize("target", [math.inf, math.nan, 0.0])
def test_solvers_reject_non_finite_or_zero_targets(ref_params, target):
    with pytest.raises(AccountingError):
        calibrate_noise(ref_params, GRID, target, 1e-5, BoundKind.NAIVE)
    with pytest.raises(AccountingError):
        max_epochs(ref_params, GRID, target, 1e-5, BoundKind.NAIVE)
