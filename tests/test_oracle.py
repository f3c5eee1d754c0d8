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
    make_instance,
    make_params,
    verify_dominance,
)
from privdyn.oracle import OracleInstance

from helpers import closed_form_law, gaussian_trajectory


def quad_params(epochs, lam=1.0, beta=None):
    # quadratic-loss setting matched to the reference hyperparameters; the
    # quadratic is lam-smooth, so any beta >= lam (the reference's 4) is valid
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


def test_make_instance_refuses_convex_params(ref_params_convex):
    # the worst-case gap is S_g/lam, and the quadratic loss needs lam > 0
    with pytest.raises(AccountingError, match="lambda > 0"):
        make_instance(ref_params_convex, j0=0)
    with pytest.raises(AccountingError, match="lambda > 0"):
        make_instance(ref_params_convex, j0=0, delta_x=1.0)


def test_sensitivity_violated():
    p = quad_params(1)
    with pytest.raises(SensitivityViolated):
        make_instance(p, j0=0, delta_x=4.0001)  # S_g/lam = 4
    make_instance(p, j0=0, delta_x=4.0)


def test_variance_identical_across_runs_every_iteration():
    p = quad_params(4)
    inst = make_instance(p, j0=7)
    laws = gaussian_trajectory(inst, alt=False)
    laws_alt = gaussian_trajectory(inst, alt=True)
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
                report = verify_dominance(inst, alpha, "fixed")
                assert report.slack >= -1e-12
                assert report.bound == pytest.approx(
                    bound_fixed(p, alpha, j0).eps, rel=1e-15
                )


def test_tightness_at_k1_first_batch():
    p = quad_params(1, beta=4.0)
    for alpha in (2.0, 10.0, 30.0):
        report = verify_dominance(make_instance(p, j0=0), alpha, "fixed")
        assert abs(report.slack) <= 1e-9 * report.bound


def test_bound_strictly_loose_at_k10():
    p = quad_params(10, beta=4.0)
    for j0 in (0, 12, 24):
        report = verify_dominance(make_instance(p, j0=j0), 10, "fixed")
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
        report = verify_dominance(make_instance(p, j0=0), 10, "shuffle")
        assert report.slack >= -1e-12


def test_dominance_violation_raises(monkeypatch):
    from privdyn import HeadTail, oracle

    p = quad_params(1, beta=4.0)
    inst = make_instance(p, j0=0)
    # a bound 1e-3 of itself below the true one sits below the exact value at K = 1
    real = oracle.bound_fixed(p, 10, 0)
    monkeypatch.setattr(oracle, "bound_fixed",
                        lambda params, alpha, j0: HeadTail(head=0.0, tail=real.eps * (1 - 1e-3)))
    with pytest.raises(DominanceViolated):
        verify_dominance(inst, 10, "fixed")


def test_schedule_validation():
    p = quad_params(1)
    good = make_instance(p, j0=0)
    # refused at construction, before any oracle function sees it
    with pytest.raises(AccountingError, match="partition"):
        OracleInstance(
            params=good.params, data=good.data, data_alt=good.data_alt,
            schedule=good.schedule[:-1] + (good.schedule[0],),  # index 0 covered twice
        )


# m = 2 batches of b = 2; the last record differs by S_g/lam = 4
VALID_INSTANCE = dict(
    params=make_params(n=4, b=2, eta=0.02, epochs=1, sigma=2.0, lam=1.0, beta=1.0, s_g=4.0),
    data=(0.0, 0.0, 0.0, 0.0), data_alt=(0.0, 0.0, 0.0, 4.0), schedule=((0, 1), (2, 3)),
)
# case -> (field changes, error type, start of the message); the params
# themselves are refused when they are built (see test_params)
INSTANCE_REFUSALS = {
    "lam-zero": ({"params": make_params(n=4, b=2, eta=0.02, epochs=1, sigma=2.0, lam=0.0,
                                        beta=1.0, s_g=4.0)},
                 AccountingError, "the quadratic oracle needs lambda > 0"),
    "unequal-lengths": ({"data_alt": (0.0, 0.0, 0.0)}, AccountingError,
                        "each dataset must hold m*b = 4 records, got 4 and 3"),
    "not-a-partition": ({"schedule": ((0, 1), (1, 2))}, AccountingError, "schedule must partition"),
    "wrong-batch-size": ({"schedule": ((0, 1, 2), (3,))}, AccountingError, "every batch must have size 2"),
    "two-differences": ({"data_alt": (1.0, 0.0, 0.0, 4.0)}, AccountingError, "instance must differ"),
    "gap-above-s_g/lam": ({"data_alt": (0.0, 0.0, 0.0, 4.01)}, SensitivityViolated, "|x_i0 - x'_i0|"),
}


@pytest.mark.parametrize("case", sorted(INSTANCE_REFUSALS))
def test_instance_refusals_fire_at_construction(case):
    OracleInstance(**VALID_INSTANCE)
    changes, error, message = INSTANCE_REFUSALS[case]
    with pytest.raises(error) as exc:
        OracleInstance(**{**VALID_INSTANCE, **changes})
    assert str(exc.value).startswith(message)


def random_law_instance(rng):
    """A random partition of m <= 30 batches, K <= 60 epochs and eta in [1e-4, 0.9/lam]."""
    m, b, epochs = int(rng.integers(1, 31)), int(rng.integers(1, 5)), int(rng.integers(0, 61))
    lam = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
    eta = float(np.exp(rng.uniform(np.log(1e-4), np.log(0.9 / lam))))
    n = m * b
    perm = rng.permutation(n)
    scale = float(np.exp(rng.uniform(-3.0, 3.0)))
    data = tuple(float(x) for x in rng.normal(0.0, scale, n))
    i0 = int(rng.integers(0, n))
    gap = float(rng.normal(0.0, scale))
    params = make_params(n=n, b=b, eta=eta, epochs=epochs, sigma=float(np.exp(rng.uniform(-3.0, 3.0))),
                         lam=lam, beta=lam, s_g=lam * abs(gap) + 1.0)
    return OracleInstance(
        params=params, data=data,
        data_alt=tuple(x + gap if i == i0 else x for i, x in enumerate(data)),
        schedule=tuple(tuple(int(i) for i in perm[j * b : (j + 1) * b]) for j in range(m)),
        theta0=float(rng.normal(0.0, scale)) if rng.random() < 0.7 else 0.0,
    )


def test_gaussian_law_matches_closed_form():
    # every iterate of the recursion against its closed form, both runs
    rng = np.random.default_rng(20240)
    saw_k0 = False
    for _ in range(200):
        inst = random_law_instance(rng)
        saw_k0 |= inst.params.epochs == 0
        for alt in (False, True):
            laws = gaussian_trajectory(inst, alt=alt)
            expected = closed_form_law(inst, alt=alt)
            assert len(laws) == len(expected) == inst.params.steps + 1
            data = inst.data_alt if alt else inst.data
            # the base run's mean can be exactly 0, so the mean's scale is the inputs'
            scale = max(abs(inst.theta0), max(abs(x) for x in data))
            for law, (mean, variance) in zip(laws, expected):
                assert law.variance == pytest.approx(variance, rel=1e-12, abs=0.0)
                assert abs(law.mean - mean) <= 1e-12 * scale
    assert saw_k0


def test_report_json_fields():
    p = quad_params(1, beta=4.0)
    report = verify_dominance(make_instance(p, j0=0), 10, "fixed")
    payload = json.loads(json.dumps(report.to_dict(), sort_keys=True))
    assert set(payload) == {"exact", "bound", "slack", "params"}
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
        params=make_params(n=n, b=b, eta=eta, epochs=epochs, sigma=sigma, lam=lam, beta=4.0, s_g=s_g),
        data=data, data_alt=data_alt, schedule=schedule,
        theta0=float(rng.normal()),
    )
    report = verify_dominance(inst, alpha, "fixed")
    assert report.slack >= -1e-12
