import dataclasses
import math
import random

import pytest

from helpers import full_converted_eps, reference_calibrate_noise, reference_max_epochs
from privdyn import sampling
from privdyn import (
    DEFAULT_ALPHA_GRID,
    AccountingError,
    logistic_params,
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
    make_params,
    samp_wo_limit,
    with_epochs,
    with_sigma,
)
from privdyn.dynamics import RegularityMismatch

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
        bound_fixed,
        mixing_diffusion_first_batch,
        mixing_diffusion_last_batch,
        sgm_eps,
    )

    j0 = 12  # the batch index kind fixed takes from its caller
    direct = {
        BoundKind.SHUFFLE: lambda p, a: bound_shuffle(p, a).eps,
        BoundKind.SAMP_WO: bound_samp_wo_replacement,
        BoundKind.FIXED_LAST_BATCH: lambda p, a: bound_fixed(p, a, 24).eps,
        BoundKind.IMPROVED_LAST: lambda p, a: bound_fixed(p, a, 24).eps,
        BoundKind.IMPROVED_FIRST: lambda p, a: bound_fixed(p, a, 0).eps,
        BoundKind.FIXED: lambda p, a: bound_fixed(p, a, j0).eps,
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
    # the per-order bisection meets the target on the full default grid
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


def count_samp_wo_steps(monkeypatch):
    """Count the steps of every samp-wo recursion run from here on: [steps so far]."""
    steps = [0]
    recursion = sampling.samp_wo_log_steps

    def counted(params, alpha):
        for log_s in recursion(params, alpha):
            steps[0] += 1
            yield log_s

    monkeypatch.setattr(sampling, "samp_wo_log_steps", counted)
    return steps


def test_max_epochs_samp_wo_reads_one_pass_per_order(ref_params, monkeypatch):
    # each order's recursion runs once, up to its first epoch over the target
    at_one = converted_eps(with_epochs(ref_params, 1), GRID, 1e-5, BoundKind.SAMP_WO)
    points = [RdpPoint(alpha=a, eps=bound_limit(ref_params, a, BoundKind.SAMP_WO)) for a in GRID]
    target = (at_one + rdp_to_dp(points, 1e-5).eps) / 2
    calls = count_samp_wo_steps(monkeypatch)
    k = max_epochs(ref_params, GRID, target, 1e-5, BoundKind.SAMP_WO)
    assert isinstance(k, int) and k >= 1
    assert calls[0] <= len(GRID) * (k + 1) * ref_params.m
    assert k == reference_max_epochs(ref_params, GRID, target, 1e-5, BoundKind.SAMP_WO)
    for alpha in GRID:
        calls[0] = 0
        k_alpha = max_epochs(ref_params, [alpha], target, 1e-5, BoundKind.SAMP_WO)
        if isinstance(k_alpha, int):
            assert calls[0] <= (k_alpha + 1) * ref_params.m
            assert k_alpha <= k


def _random_case(rng, kind):
    """Small params, a grid and a target for one solver equivalence case."""
    convex_ok = kind in (BoundKind.FIXED_LAST_BATCH, BoundKind.IMPROVED_LAST,
                         BoundKind.IMPROVED_FIRST, BoundKind.SGM_COMPOSITION)
    b = rng.choice((1, 2))
    params = make_params(
        n=b * rng.randint(2, 8), b=b, eta=rng.choice((0.01, 0.05, 0.2)),
        epochs=rng.randint(1, 12), sigma=math.exp(rng.uniform(math.log(0.3), math.log(5.0))),
        lam=0.0 if convex_ok and rng.random() < 0.25 else rng.uniform(0.25, 2.0),
        beta=4.0, s_g=4.0,
    )
    grid = sorted(rng.sample(list(DEFAULT_ALPHA_GRID), rng.randint(1, 8)))
    target = math.exp(rng.uniform(math.log(0.2), math.log(20.0)))
    return params, grid, target


def _outcome(solver, *args):
    try:
        return solver(*args)
    except AccountingError as exc:
        return type(exc)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_per_order_solvers_match_whole_grid_search(kind):
    rng = random.Random(f"solvers:{kind.value}")
    delta = 1e-5
    epoch_results = set()
    for _ in range(80):
        params, grid, target = _random_case(rng, kind)
        args = (params, grid, target, delta, kind)
        ref = _outcome(reference_calibrate_noise, *args)
        sigma = _outcome(calibrate_noise, *args)
        if isinstance(ref, float):
            assert sigma <= ref * (1 + 1e-9)
            assert converted_eps(with_sigma(params, sigma), grid, delta, kind) <= target
            if sigma > 1e-6:
                below = converted_eps(with_sigma(params, sigma * (1 - 2e-6)), grid, delta, kind)
                assert below > target
        else:
            assert sigma is ref
        k = _outcome(max_epochs, *args)
        assert k == _outcome(reference_max_epochs, *args)
        epoch_results.add(k if k in (0, MAXED_OUT) else "finite")
        # a target that every order meets at the lower edge of the bracket
        edge = (params, grid, 1e18, delta, kind)
        assert calibrate_noise(*edge) == reference_calibrate_noise(*edge) == 1e-6
    assert "finite" in epoch_results


@pytest.mark.parametrize("sigma, expected", [(1e3, 5304421478), (1e5, AccountingError)])
def test_max_epochs_beyond_the_doubling_range_matches_reference(ref_params, sigma, expected):
    # sgm grows linearly in K: at sigma = 1e5 every K up to 2^40 meets the target
    args = (with_sigma(ref_params, sigma), [2.0, 8.0, 64.0], 20.0, 1e-5, BoundKind.SGM_COMPOSITION)
    assert _outcome(max_epochs, *args) == _outcome(reference_max_epochs, *args) == expected


def _random_samp_wo_case(rng):
    """Small samp-wo params (some with q = 1 or no epochs) and a shuffled grid, maybe with a repeat."""
    b = rng.choice((1, 2, 3))
    m = 1 if rng.random() < 0.15 else rng.randint(2, 30)
    params = make_params(
        n=b * m, b=b, eta=rng.choice((0.01, 0.05, 0.2)),
        epochs=0 if rng.random() < 0.1 else rng.randint(1, 15),
        sigma=math.exp(rng.uniform(math.log(0.05), math.log(50.0))),
        lam=rng.uniform(0.1, 2.0), beta=4.0, s_g=4.0,
    )
    grid = rng.sample(list(DEFAULT_ALPHA_GRID), rng.randint(1, 10))
    if rng.random() < 0.3:
        grid.insert(rng.randrange(len(grid) + 1), rng.choice(grid))  # a tie at every value
    return params, grid


def test_samp_wo_converted_eps_stops_orders_without_changing_the_answer():
    rng = random.Random("samp-wo stops")
    seen = set()
    for _ in range(400):
        params, grid = _random_samp_wo_case(rng)
        delta = rng.choice((1e-5, 1e-2, 1.0))
        got = converted_eps(params, grid, delta, BoundKind.SAMP_WO)
        assert got == full_converted_eps(params, grid, delta, BoundKind.SAMP_WO)
        seen.add("q = 1" if params.q == 1.0 else "q < 1")
        seen.add("K = 0" if params.epochs == 0 else "K > 0")
        seen.add("repeat" if len(set(grid)) < len(grid) else "distinct")
        seen.add("diverges" if any(samp_wo_limit(params, a) == math.inf for a in grid) else "converges")
    assert seen == {"q = 1", "q < 1", "K = 0", "K > 0", "repeat", "distinct", "diverges", "converges"}


@pytest.mark.parametrize("sigma", [0.5, 2.0])
def test_samp_wo_converted_eps_on_the_default_grid_matches_full_evaluation(ref_params, sigma):
    p = with_sigma(ref_params, sigma)
    grid = list(DEFAULT_ALPHA_GRID)
    assert converted_eps(p, grid, 1e-5, BoundKind.SAMP_WO) == full_converted_eps(p, grid, 1e-5, BoundKind.SAMP_WO)


def test_samp_wo_calibrate_noise_stops_orders_without_changing_the_answer(monkeypatch):
    rng = random.Random("samp-wo calibrate stops")
    full_family = dataclasses.replace(BoundKind.SAMP_WO.family, epoch_scan=None)
    for _ in range(40):
        params, grid = _random_samp_wo_case(rng)
        args = (params, grid, math.exp(rng.uniform(math.log(0.2), math.log(20.0))), 1e-5,
                BoundKind.SAMP_WO)
        with monkeypatch.context() as patch:
            patch.setattr(BoundKind.SAMP_WO, "family", full_family)
            expected = _outcome(calibrate_noise, *args)
        assert _outcome(calibrate_noise, *args) == expected


def test_samp_wo_converted_eps_work_count_on_the_logistic_setting(monkeypatch):
    # the README's logistic example: 28 800 steps per order, and most orders
    # diverge; every order run in full takes 1 787 280 steps
    params = logistic_params(n=50_000, b=2048, eta=0.75, epochs=1200, lam=0.08, l_feat=2.0,
                             grad_clip=1.58, sigma_mul=3.23, truncate_last_batch=True)
    steps = count_samp_wo_steps(monkeypatch)
    eps = converted_eps(params, DEFAULT_ALPHA_GRID, 1e-5, BoundKind.SAMP_WO)
    assert eps == 5.222606761981403  # every order evaluated in full
    assert steps[0] <= 10_000


def _error(call, *args):
    try:
        call(*args)
    except AccountingError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("lam, grid, delta", [
    (0.0, [2.0, 8.0], 1e-5),
    (0.0, [2.0, 8.0], 0.0),
    (1.0, [0.5, 8.0], 1e-5),
    (1.0, [8.0, 1.0], 1e-5),
    (0.0, [math.inf], 1e-5),
    (1.0, [2.0, 8.0], 0.0),
    (1.0, [2.0, 8.0], -1.0),
    (1.0, [2.0, 8.0], 2.0),
    (1.0, [2.0, 8.0], math.nan),
    (1.0, [], 1e-5),
])
def test_samp_wo_converted_eps_raises_the_full_evaluation_error(ref_params, monkeypatch, lam, grid, delta):
    params = dataclasses.replace(ref_params, lam=lam, epochs=2)
    error = _error(converted_eps, params, grid, delta, BoundKind.SAMP_WO)
    assert error is not None
    monkeypatch.setattr(BoundKind.SAMP_WO, "family",
                        dataclasses.replace(BoundKind.SAMP_WO.family, epoch_scan=None))
    assert _error(converted_eps, params, grid, delta, BoundKind.SAMP_WO) == error


def test_samp_wo_converted_eps_at_lambda_zero_names_the_recursion(ref_params_convex):
    with pytest.raises(RegularityMismatch) as raised:
        converted_eps(ref_params_convex, DEFAULT_ALPHA_GRID, 1e-5, BoundKind.SAMP_WO)
    assert str(raised.value) == "the samp-wo recursion needs a strongly convex loss (lambda > 0)"
