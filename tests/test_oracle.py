import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privdyn import (
    AccountingError,
    DominanceViolated,
    SensitivityViolated,
    bound_fixed,
    eps0_term,
    exact_renyi,
    gaussian_law,
    make_instance,
    make_params,
    monte_carlo_check,
    verify_dominance,
)
from privdyn.oracle import OracleInstance


def quad_params(epochs, lam=1.0, beta=None):
    # quadratic-loss setting matched to the reference hyperparameters;
    # beta = lam for the instance itself, beta = 4 for the bound inputs
    return make_params(
        n=50, b=2, eta=0.02, epochs=epochs, sigma=2.0,
        lam=lam, beta=lam if beta is None else beta, s_g=4.0,
    )


def test_identical_datasets_have_zero_divergence():
    p = quad_params(3)
    inst = make_instance(p, j0=0, delta_x=0.0)
    for alpha in (2, 10, 30):
        assert exact_renyi(inst, alpha) == 0.0


def test_exact_equals_eps0_at_k1_first_batch():
    p = quad_params(1)
    inst = make_instance(p, j0=0)
    for alpha in (2.0, 10.0, 30.0):
        exact = exact_renyi(inst, alpha)
        assert exact == pytest.approx(eps0_term(p, alpha, p.m), rel=1e-12)


def test_exact_quadratic_in_gap_and_linear_in_alpha():
    p = quad_params(2)
    full = exact_renyi(make_instance(p, j0=5), 10)
    half = exact_renyi(make_instance(p, j0=5, delta_x=2.0), 10)
    assert half == pytest.approx(full / 4, rel=1e-12)
    assert exact_renyi(make_instance(p, j0=5), 30) == pytest.approx(3 * full, rel=1e-12)


def test_sensitivity_violated():
    p = quad_params(1)
    with pytest.raises(SensitivityViolated):
        make_instance(p, j0=0, delta_x=4.0001)  # S_g/lam = 4
    make_instance(p, j0=0, delta_x=4.0)


def test_variance_identical_across_runs_every_iteration():
    p = quad_params(4)
    inst = make_instance(p, j0=7)
    laws = gaussian_law(inst, alt=False, trace=True)
    laws_alt = gaussian_law(inst, alt=True, trace=True)
    assert len(laws) == p.steps + 1
    for a, b in zip(laws, laws_alt):
        assert a.variance == b.variance  # exact, to the last bit
    # closed form: v_T = 2*eta*sigma^2*(1-r^T)/(1-r)
    r = p.r
    v_expected = 2 * p.eta * p.sigma**2 * (1 - r**p.steps) / (1 - r)
    assert laws[-1].variance == pytest.approx(v_expected, rel=1e-12)


def test_dominance_grid():
    for epochs in (1, 2, 5, 10, 20, 40):
        p = quad_params(epochs, beta=4.0)
        for j0 in (0, 12, 24):
            for alpha in (2.0, 10.0, 30.0):
                inst = make_instance(p, j0=j0)
                report = verify_dominance(inst, alpha, "fixed", beta=4.0)
                assert report.slack >= -1e-12
                assert report.bound == pytest.approx(
                    bound_fixed(p, alpha, j0).eps, rel=1e-15
                )


def test_tightness_at_k1_first_batch():
    p = quad_params(1, beta=4.0)
    for alpha in (2.0, 10.0, 30.0):
        report = verify_dominance(make_instance(p, j0=0), alpha, "fixed", beta=4.0)
        assert abs(report.slack) <= 1e-9 * report.bound


def test_bound_strictly_loose_at_k10():
    p = quad_params(10, beta=4.0)
    for j0 in (0, 12, 24):
        report = verify_dominance(make_instance(p, j0=j0), 10, "fixed", beta=4.0)
        assert report.slack > 1e-6


def test_full_batch_instance_trips_the_precondition():
    from privdyn import BatchCountTooSmall

    p = make_params(n=4, b=4, eta=0.02, epochs=1, sigma=2.0, lam=1.0, beta=1.0, s_g=4.0)
    inst = make_instance(p, j0=0)
    with pytest.raises(BatchCountTooSmall):
        verify_dominance(inst, 10, "fixed")


def test_shuffle_dominance():
    for epochs in (1, 5, 20):
        p = quad_params(epochs, beta=4.0)
        report = verify_dominance(make_instance(p, j0=0), 10, "shuffle", beta=4.0)
        assert report.slack >= -1e-12


def test_dominance_violation_raises():
    p = quad_params(1, beta=4.0)
    inst = make_instance(p, j0=0)
    with pytest.raises(DominanceViolated):
        # shrink the bound's noise so the exact value exceeds it
        verify_dominance(inst, 10, "fixed", beta=4.0, slack_tol=-1e-3)


def test_schedule_validation():
    p = quad_params(1)
    good = make_instance(p, j0=0)
    bad = OracleInstance(
        lam=good.lam, eta=good.eta, sigma=good.sigma, epochs=good.epochs,
        b=good.b, s_g=good.s_g, data=good.data, data_alt=good.data_alt,
        schedule=good.schedule[:-1] + (good.schedule[0],),  # index 0 covered twice
    )
    with pytest.raises(AccountingError):
        exact_renyi(bad, 10)


def test_monte_carlo_matches_recursion():
    p = quad_params(5)
    inst = make_instance(p, j0=0)
    report = monte_carlo_check(inst, samples=100_000, seed=20240, alt=True)
    assert abs(report.mean_z) <= 5
    assert abs(report.variance_z) <= 5
    law = gaussian_law(inst, alt=True)
    assert report.expected_mean == law.mean
    assert report.expected_variance == law.variance


def test_monte_carlo_deterministic_given_seed():
    p = quad_params(2)
    inst = make_instance(p, j0=3)
    first = monte_carlo_check(inst, samples=20_000, seed=99)
    second = monte_carlo_check(inst, samples=20_000, seed=99)
    assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(second.to_dict(), sort_keys=True)
    third = monte_carlo_check(inst, samples=20_000, seed=100)
    assert json.dumps(third.to_dict(), sort_keys=True) != json.dumps(first.to_dict(), sort_keys=True)


def test_monte_carlo_noiseless_limit():
    p = make_params(n=8, b=2, eta=0.02, epochs=1, sigma=1e-6, lam=1.0, beta=1.0, s_g=4.0)
    inst = make_instance(p, j0=0, delta_x=1.0)
    report = monte_carlo_check(inst, samples=10_000, seed=5, alt=True)
    # empirical mean tracks the deterministic recursion when the noise is tiny
    assert report.empirical_mean == pytest.approx(report.expected_mean, abs=1e-6)


def test_monte_carlo_rejects_small_sample_count():
    p = quad_params(1)
    with pytest.raises(AccountingError):
        monte_carlo_check(make_instance(p, j0=0), samples=100, seed=1)


def test_report_json_fields():
    p = quad_params(1, beta=4.0)
    report = verify_dominance(make_instance(p, j0=0), 10, "fixed", beta=4.0)
    payload = json.loads(json.dumps(report.to_dict(), sort_keys=True))
    assert set(payload) == {"exact", "bound", "slack", "params", "seed"}
    assert payload["slack"] == pytest.approx(payload["bound"] - payload["exact"], abs=1e-18)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    epochs=st.integers(1, 6),
    n_batches=st.integers(2, 8),
    b=st.integers(1, 4),
    alpha=st.floats(1.5, 64.0),
    gap_frac=st.floats(0.05, 1.0),
)
def test_dominance_on_random_partitions(seed, epochs, n_batches, b, alpha, gap_frac):
    # the fixed-batch bound covers every partition realization and every
    # placement of the differing record, not just the contiguous schedule
    rng = np.random.default_rng(seed)
    n = n_batches * b
    perm = rng.permutation(n)
    schedule = tuple(
        tuple(int(i) for i in perm[j * b : (j + 1) * b]) for j in range(n_batches)
    )
    lam, eta, sigma, s_g = 1.0, 0.02, 2.0, 4.0
    data = tuple(float(x) for x in rng.normal(0.0, 0.5, n))
    i0 = int(rng.integers(0, n))
    data_alt = tuple(
        x + gap_frac * s_g / lam if i == i0 else x for i, x in enumerate(data)
    )
    inst = OracleInstance(
        lam=lam, eta=eta, sigma=sigma, epochs=epochs, b=b, s_g=s_g,
        data=data, data_alt=data_alt, schedule=schedule,
        theta0=float(rng.normal()),
    )
    report = verify_dominance(inst, alpha, "fixed", beta=4.0)
    assert report.slack >= -1e-12
