import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from privdyn import (
    DEFAULT_ALPHA_GRID,
    BoundKind,
    bound_samp_wo_replacement,
    bound_shuffle,
    bound_fixed,
    eps0_term,
    make_params,
    samp_wo_limit,
    with_epochs,
)
from privdyn.numerics import _logsumexp2, logsumexp
from privdyn.sampling import samp_wo_log_steps, shuffle_avg_term

from helpers import check_joint_convexity, mixture_rdp


def linear_domain_samp_wo(params, alpha, steps):
    """Reference recursion carried directly on S (usable while S fits in a float)."""
    q = params.q
    gain = math.exp((alpha - 1.0) * params.eps1(alpha))
    s_values = [1.0]
    s = 1.0
    for _ in range(steps):
        s = q * gain * s + (1.0 - q) * s ** params.r
        s_values.append(s)
    return s_values


def test_shuffle_small_example():
    p = make_params(n=4, b=2, eta=0.02, epochs=1, sigma=2.0, lam=1.0, beta=4.0, s_g=4.0)
    bound = bound_shuffle(p, 2)
    # avg of exp(0.01) and exp(0.0048990...), logged; frozen from 60-digit evaluation
    assert bound.eps == pytest.approx(0.007452752623358494, rel=1e-10)
    assert bound.head == 0.0
    assert bound.eps == bound.head + bound.tail


def test_shuffle_average_between_extremes():
    # the log-avg-exp tail sits between the smallest and largest eps0 term,
    # collapsing to the arithmetic mean when the exponents are tiny
    p = make_params(n=4, b=2, eta=0.02, epochs=1, sigma=2.0, lam=1e-12, beta=4.0, s_g=4.0)
    bound = bound_shuffle(p, 2)
    lo, hi = eps0_term(p, 2, 2), eps0_term(p, 2, 1)
    assert lo <= bound.tail <= hi
    assert bound.tail == pytest.approx((lo + hi) / 2, rel=1e-3)


def test_shuffle_sandwiched_by_fixed_bounds(ref_params):
    for epochs in range(1, 41):
        p = with_epochs(ref_params, epochs)
        for alpha in (10.0, 20.0, 30.0):
            sh = bound_shuffle(p, alpha)
            last = bound_fixed(p, alpha, p.m - 1).eps
            first = bound_fixed(p, alpha, 0).eps
            assert sh.eps <= last * (1 + 1e-12)
            assert sh.eps >= first * (1 - 1e-12)
            assert sh.tail <= eps0_term(p, alpha, 1) * (1 + 1e-12)


def test_samp_wo_one_step():
    p = make_params(n=50, b=2, eta=0.02, epochs=1, sigma=2.0, lam=1.0, beta=4.0, s_g=4.0)
    first = next(samp_wo_log_steps(p, 10))
    # ln(0.04*e^0.45 + 0.96)/9, frozen from 60-digit evaluation
    assert first / 9 == pytest.approx(0.002497550516593540, rel=1e-10)


def test_samp_wo_full_batch_is_pure_composition():
    p = make_params(n=4, b=4, eta=0.02, epochs=3, sigma=2.0, lam=0.1, beta=4.0, s_g=4.0)
    assert p.m == 1
    # q = 1 degenerates to composition: eps = T * eps1 exactly
    eps = bound_samp_wo_replacement(p, 10)
    assert eps == pytest.approx(p.steps * p.eps1(10), rel=1e-12)


def test_samp_wo_lambda_zero_limit_is_linear_growth():
    # r -> 1 turns the recursion into S <- (q*e^((a-1)eps1) + 1 - q)*S
    p = make_params(n=50, b=2, eta=0.02, epochs=4, sigma=2.0, lam=1e-15, beta=4.0, s_g=4.0)
    per_step = math.log(p.q * math.exp(9 * p.eps1(10)) + 1 - p.q)
    for step, log_s in enumerate(samp_wo_log_steps(p, 10), start=1):
        assert log_s == pytest.approx(step * per_step, rel=1e-9)


def test_samp_wo_state_invariants(ref_params):
    p = with_epochs(ref_params, 80)
    logs = [0.0, *samp_wo_log_steps(p, 10)]
    assert len(logs) <= p.steps + 1  # the recursion may stop at its fixed point
    assert all(b >= a for a, b in zip(logs, logs[1:]))
    assert all(log_s >= 0.0 for log_s in logs)  # S >= 1 throughout
    # log-domain vs linear-domain while S < 1e30
    linear = linear_domain_samp_wo(p, 10, p.steps)
    for log_s, s_lin in zip(logs, linear):
        if s_lin < 1e30:
            assert log_s == pytest.approx(math.log(s_lin), rel=1e-10, abs=1e-12)


def test_samp_wo_converges_to_fixed_point(ref_params):
    # values at K = 80 have reached the recursion's fixed point
    p = with_epochs(ref_params, 80)
    for alpha, expected in ((10, 0.06724058347919899), (15, 0.14531352176485305), (20, 0.35935974469297990)):
        assert bound_samp_wo_replacement(p, alpha) == pytest.approx(expected, rel=1e-9)
        assert samp_wo_limit(p, alpha) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("epochs, alpha", [(80, 10.0), (80, 30.0), (3, 2.0)])
def test_samp_wo_curve_row_k_equals_bound_at_k(ref_params, epochs, alpha):
    # at alpha = 10 the recursion stops early (step 891 of 2000), mid-epoch;
    # at alpha = 30 it diverges and runs every step
    p = with_epochs(ref_params, epochs)
    curve = BoundKind.SAMP_WO.family.curve(p, alpha)
    assert curve == [bound_samp_wo_replacement(with_epochs(p, k), alpha) for k in range(1, epochs + 1)]


@pytest.mark.parametrize(
    "sigma, eta, alpha, epochs",
    [(2.0, 0.02, 10.0, 80), (2.0, 0.02, 2.0, 80), (1e4, 0.02, 1.25, 400), (1e8, 0.01, 64.0, 4000)],
)
def test_samp_wo_early_stop_ends_at_limit(sigma, eta, alpha, epochs):
    p = make_params(n=50, b=2, eta=eta, epochs=epochs, sigma=sigma, lam=1.0, beta=4.0, s_g=4.0)
    steps = sum(1 for _ in samp_wo_log_steps(p, alpha))
    assert steps < p.steps
    assert bound_samp_wo_replacement(p, alpha) == pytest.approx(samp_wo_limit(p, alpha), rel=1e-12)


def test_samp_wo_monotone_in_k_and_alpha(ref_params):
    eps_by_k = [bound_samp_wo_replacement(with_epochs(ref_params, k), 10) for k in (1, 2, 5, 10, 20, 40)]
    assert all(b >= a for a, b in zip(eps_by_k, eps_by_k[1:]))
    eps_by_alpha = [bound_samp_wo_replacement(with_epochs(ref_params, 10), a) for a in (2, 5, 10, 20)]
    assert all(b >= a for a, b in zip(eps_by_alpha, eps_by_alpha[1:]))


def test_shuffle_monotone_in_k_and_alpha(ref_params):
    eps_by_k = [bound_shuffle(with_epochs(ref_params, k), 10).eps for k in (1, 2, 5, 10, 20, 40)]
    assert all(b >= a for a, b in zip(eps_by_k, eps_by_k[1:]))
    eps_by_alpha = [bound_shuffle(ref_params, a).eps for a in (2, 5, 10, 20)]
    assert all(b >= a for a, b in zip(eps_by_alpha, eps_by_alpha[1:]))


def test_mixture_bound_examples():
    assert mixture_rdp([(0.5, 0.3), (0.5, 0.3)], 10) == pytest.approx(0.3, rel=1e-12)
    assert mixture_rdp([(1.0, 0.7), (0.0, 0.1)], 10) == pytest.approx(0.7, rel=1e-12)
    # 0.04/0.96 mixture of (0.05, 0) at alpha=10 equals the samp-wo one-step value
    combined = mixture_rdp([(0.04, 0.05), (0.96, 0.0)], 10)
    assert combined == pytest.approx(0.002497550516593540, rel=1e-10)


@settings(max_examples=200, deadline=None)
@given(
    raw_weights=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=6),
    data=st.data(),
    alpha=st.floats(1.01, 64.0),
)
def test_joint_convexity_property(raw_weights, data, alpha):
    total = sum(raw_weights)
    weights = [w / total for w in raw_weights]
    comps = data.draw(
        st.lists(
            st.floats(0.0, 5.0), min_size=len(weights), max_size=len(weights)
        )
    )
    mixtures = list(zip(weights, comps))
    assert check_joint_convexity(mixtures, alpha)
    combined = mixture_rdp(mixtures, alpha)
    assert min(comps) - 1e-9 <= combined <= max(comps) + 1e-9


def test_no_overflow_at_extreme_orders(ref_params):
    # the shifted log-avg-exp and the log-domain recursion stay finite far
    # beyond any practical order
    sh = bound_shuffle(ref_params, 1e6)
    assert math.isfinite(sh.eps) and sh.eps > 0
    assert math.isfinite(bound_samp_wo_replacement(ref_params, 1e4))
    # at extreme orders the samp-wo surrogate diverges; the limit reports
    # that as +inf rather than overflowing
    assert samp_wo_limit(ref_params, 1e6) == math.inf
    assert math.isfinite(samp_wo_limit(ref_params, 10.0))


def test_parallel_sweeps_match_sequential(ref_params):
    from concurrent.futures import ThreadPoolExecutor

    jobs = [(k, a) for k in (1, 5, 20, 40) for a in (2.0, 10.0, 30.0)]
    sequential = [bound_shuffle(with_epochs(ref_params, k), a).eps for k, a in jobs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(
            pool.map(lambda ka: bound_shuffle(with_epochs(ref_params, ka[0]), ka[1]).eps, jobs)
        )
    assert parallel == sequential


def test_two_term_step_equals_logsumexp_bit_for_bit():
    rng = random.Random("logsumexp2")
    branches = set()
    for case in range(5000):
        q = 1.0 if case % 10 == 0 else 10 ** rng.uniform(-6, 0)
        lw0, lw1 = math.log(q), math.log1p(-q) if q < 1.0 else -math.inf
        x0, x1 = (rng.choice((0.0, 10 ** rng.uniform(-12, 3))) for _ in range(2))
        if case % 50 == 1:
            x0 = math.inf  # c = inf
        lw, x = (lw0, lw1), (x0, x1)
        c = max(0.0, max(w + v for w, v in zip(lw, x)))
        branches.update(v - c > 1.0 for v in x if c < math.inf)
        assert _logsumexp2(lw0, x0, lw1, x1) == logsumexp(lw, x)
    assert branches == {False, True}


def test_samp_wo_steps_equal_the_generic_kernel_recursion():
    rng = random.Random("samp-wo steps")
    for _ in range(300):
        b = rng.choice((1, 2, 5))
        p = make_params(
            n=b * rng.randint(1, 40), b=b, eta=10 ** rng.uniform(-4, math.log10(0.03)),
            epochs=rng.randint(1, 40), sigma=10 ** rng.uniform(-1, 3),
            lam=rng.uniform(0.1, 2.0), beta=4.0, s_g=4.0,
        )
        alpha = rng.choice(DEFAULT_ALPHA_GRID)
        # the recursion through logsumexp, as written before the two-term step
        log_weights = (math.log(p.q), math.log1p(-p.q) if p.q < 1.0 else -math.inf)
        gain, log_s, expected = (alpha - 1.0) * p.eps1(alpha), 0.0, []
        for _ in range(p.steps):
            nxt = logsumexp(log_weights, (gain + log_s, p.r * log_s))
            if nxt <= log_s:
                break
            log_s = nxt
            expected.append(log_s)
        assert list(samp_wo_log_steps(p, alpha)) == expected


def test_shuffle_tail_equals_per_term_reference_bit_for_bit():
    rng = random.Random("shuffle tail")
    for _ in range(2000):
        b = rng.choice((1, 2))
        p = make_params(
            n=b * rng.randint(2, 1000 // b), b=b, eta=10 ** rng.uniform(-5, math.log10(0.03)),
            epochs=1, sigma=10 ** rng.uniform(-1, 4), lam=rng.uniform(0.01, 2.0),
            beta=4.0, s_g=4.0,
        )
        alpha = rng.choice(DEFAULT_ALPHA_GRID)
        scale = alpha - 1.0
        exponents = [scale * eps0_term(p, alpha, j) for j in range(1, p.m + 1)]
        assert shuffle_avg_term(p, alpha) == logsumexp(-math.log(p.m), exponents) / scale
