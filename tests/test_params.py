import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from privdyn import (
    AccountingError,
    AccountingParams,
    BatchCountTooSmall,
    NonDividingBatch,
    NonPositive,
    StepsizeTooLarge,
    make_params,
    sigma_from_multiplier,
    validate,
    with_epochs,
    with_sigma,
)
from helpers import geometric_sum_params


def test_ref_params_derived_fields(ref_params):
    assert ref_params.m == 25
    assert ref_params.r == pytest.approx(0.9604, abs=1e-15)
    assert ref_params.eps1_coeff == pytest.approx(0.02 * 16 / (4 * 4 * 4), rel=1e-15)
    assert ref_params.q == pytest.approx(0.04)
    assert ref_params.strongly_convex


def test_validate_is_idempotent(ref_params):
    assert validate(validate(ref_params)) == validate(ref_params)


def test_stepsize_too_large():
    with pytest.raises(StepsizeTooLarge):
        make_params(n=50, b=2, eta=0.5, epochs=1, sigma=2, lam=1, beta=4, s_g=4)
    # convex: the cutoff is 2/beta
    with pytest.raises(StepsizeTooLarge):
        make_params(n=50, b=2, eta=0.5, epochs=1, sigma=2, lam=0, beta=4, s_g=4)
    make_params(n=50, b=2, eta=0.499, epochs=1, sigma=2, lam=0, beta=4, s_g=4)
    # beta = lam (the quadratic oracle's own smoothness): the cutoff is 1/lam
    with pytest.raises(StepsizeTooLarge):
        make_params(n=50, b=2, eta=1.0, epochs=1, sigma=2, lam=1, beta=1, s_g=4)


def test_batch_count_too_small():
    from privdyn import (
        bound_shuffle,
        bound_fixed,
        mixing_diffusion_first_batch,
        mixing_diffusion_last_batch,
    )

    # floor(50/30) = 1: the strongly convex dynamics bounds refuse to run
    p = make_params(
        n=50, b=30, eta=0.02, epochs=1, sigma=2, lam=1, beta=4, s_g=4,
        truncate_last_batch=True,
    )
    assert p.m == 1
    with pytest.raises(BatchCountTooSmall):
        bound_fixed(p, 10, 0)
    with pytest.raises(BatchCountTooSmall):
        bound_shuffle(p, 10)
    # the mixing-and-diffusion slope divides by m - 1
    with pytest.raises(BatchCountTooSmall):
        mixing_diffusion_first_batch(p, 10)
    with pytest.raises(BatchCountTooSmall):
        mixing_diffusion_last_batch(p, 10)
    with pytest.raises(BatchCountTooSmall):
        make_params(n=5, b=30, eta=0.02, epochs=1, sigma=2, lam=1, beta=4, s_g=4)
    # convex class tolerates a single batch per epoch
    p = make_params(n=50, b=50, eta=0.02, epochs=1, sigma=2, lam=0, beta=4, s_g=4)
    assert p.m == 1


def test_non_dividing_batch():
    with pytest.raises(NonDividingBatch):
        make_params(n=50, b=4, eta=0.02, epochs=1, sigma=2, lam=1, beta=4, s_g=4)
    p = make_params(
        n=50, b=4, eta=0.02, epochs=1, sigma=2, lam=1, beta=4, s_g=4,
        truncate_last_batch=True,
    )
    assert p.m == 12


def test_nonpositive_fields():
    with pytest.raises(NonPositive):
        make_params(n=50, b=2, eta=-0.02, epochs=1, sigma=2, lam=1, beta=4, s_g=4)
    with pytest.raises(NonPositive):
        make_params(n=50, b=2, eta=0.02, epochs=1, sigma=0, lam=1, beta=4, s_g=4)
    with pytest.raises(NonPositive):
        make_params(n=50, b=2, eta=0.02, epochs=1, sigma=2, lam=1, beta=4, s_g=-1)
    with pytest.raises(AccountingError):
        make_params(n=50, b=2, eta=0.02, epochs=1, sigma=2, lam=5, beta=4, s_g=4)


def test_sigma_from_multiplier_values():
    assert sigma_from_multiplier(2, 1, 2, 3) == pytest.approx(3.0, rel=1e-15)
    # sqrt(0.01) * (1/2) * 10 * (4/2)
    assert sigma_from_multiplier(0.02, 2, 4, 10) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(NonPositive):
        sigma_from_multiplier(0.02, 2, 4, 0)


@pytest.mark.parametrize("mul", [0.5, 1.0, 5.0])
def test_sigma_multiplier_round_trip(mul):
    sigma = sigma_from_multiplier(0.02, 2, 4, mul)
    # the inverse: sigma_mul = sigma*2*b / (sqrt(eta/2)*S_g)
    assert sigma * 2 * 2 / (math.sqrt(0.02 / 2) * 4) == pytest.approx(mul, rel=1e-12)


@given(
    mul=st.floats(0.1, 100.0),
    s_g=st.floats(0.1, 50.0),
    scale=st.floats(1.001, 10.0),
)
def test_sigma_from_multiplier_monotone_and_linear(mul, s_g, scale):
    base = sigma_from_multiplier(0.02, 2, s_g, mul)
    assert sigma_from_multiplier(0.02, 2, s_g, mul * scale) == pytest.approx(base * scale, rel=1e-12)
    assert sigma_from_multiplier(0.02, 2, s_g * scale, mul) == pytest.approx(base * scale, rel=1e-12)
    assert sigma_from_multiplier(0.02, 2, s_g, mul * scale) > base


@pytest.mark.parametrize("j", [1, 10, 1000, 10**6])
def test_geometric_sum_closed_form_matches_direct(ref_params, j):
    closed = geometric_sum_params(ref_params, j)
    if j <= 1000:
        direct = math.fsum(ref_params.r**s for s in range(j))
    else:
        # r^s underflows long before 10^6 terms; the tail is the full limit
        direct = (1 - ref_params.r**j) / (1 - ref_params.r)
    assert 0.0 < ref_params.r < 1.0
    assert closed == pytest.approx(direct, rel=1e-12)


def test_geometric_sum_direct_summation_large_j(ref_params):
    # direct summation over 10^6 terms against the closed form
    total, power = 0.0, 1.0
    for _ in range(10**6):
        total += power
        power *= ref_params.r
        if power == 0.0:
            break
    assert geometric_sum_params(ref_params, 10**6) == pytest.approx(total, rel=1e-12)


@pytest.mark.parametrize("field", ["eta", "sigma", "lam", "beta", "s_g"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_fields_rejected_at_construction(field, value):
    fields = dict(n=50, b=2, eta=0.02, epochs=1, sigma=2.0, lam=1.0, beta=4.0, s_g=4.0)
    fields[field] = value
    with pytest.raises(AccountingError, match="finite"):
        make_params(**fields)


@pytest.mark.parametrize("field, value", [
    ("sigma", 1e-200), ("sigma", 1e-160), ("s_g", 1e200), ("s_g", 1e-300), ("s_g", 1e-154),
])
def test_params_float64_cannot_evaluate_rejected_at_construction(field, value):
    # sigma**2 underflows to 0 (1e-200), eps1_coeff overflows (1e-160), S_g**2
    # overflows (1e200); eps1_coeff underflows to 0 (1e-300) or is subnormal (1e-154)
    fields = dict(n=50, b=2, eta=0.02, epochs=1, sigma=2.0, lam=1.0, beta=4.0, s_g=4.0)
    fields[field] = value
    with pytest.raises(AccountingError, match="float64 cannot evaluate"):
        make_params(**fields)


def test_every_construction_validates(ref_params):
    # dataclasses.replace and the with_* helpers rebuild through __post_init__
    with pytest.raises(StepsizeTooLarge):
        dataclasses.replace(ref_params, eta=0.5)
    with pytest.raises(AccountingError):
        with_sigma(ref_params, math.inf)
    with pytest.raises(NonPositive):
        with_epochs(ref_params, -1)


REF_FIELDS = dict(n=50, b=2, eta=0.02, epochs=3, sigma=2.0, lam=1.0, beta=4.0, s_g=4.0)


def test_make_params_is_the_constructor():
    assert make_params is AccountingParams
    assert [f.name for f in dataclasses.fields(AccountingParams)] == [
        "n", "b", "eta", "epochs", "sigma", "lam", "beta", "s_g", "truncate_last_batch",
    ]
    # stored as given: an int real stays an int, and equals its float
    p = make_params(**dict(REF_FIELDS, sigma=2))
    assert type(p.sigma) is int
    assert p == make_params(**REF_FIELDS)


@pytest.mark.parametrize("build, field", [
    (lambda: make_params(**dict(REF_FIELDS, n=50.7)), "n"),
    (lambda: make_params(**dict(REF_FIELDS, epochs=3.9)), "epochs"),
    (lambda: with_epochs(make_params(**REF_FIELDS), 2.5), "epochs"),
    (lambda: make_params(**dict(REF_FIELDS, n=51, truncate_last_batch="no")), "truncate_last_batch"),
    (lambda: make_params(**dict(REF_FIELDS, n=True)), "n"),
    (lambda: make_params(**dict(REF_FIELDS, lam="1")), "lambda"),
    (lambda: make_params(**dict(REF_FIELDS, b=2.0)), "b"),
    (lambda: make_params(**dict(REF_FIELDS, beta=True)), "beta"),
    (lambda: with_sigma(make_params(**REF_FIELDS), "2"), "sigma"),
    # an int real beyond float64: math.isfinite would raise OverflowError
    (lambda: make_params(**dict(REF_FIELDS, eta=10**400)), "eta"),
    (lambda: make_params(**dict(REF_FIELDS, sigma=10**400)), "sigma"),
], ids=["n-float", "epochs-float", "with-epochs-float", "truncate-str", "n-bool", "lam-str",
        "b-integral-float", "beta-bool", "with-sigma-str", "eta-huge-int", "sigma-huge-int"])
def test_wrong_field_type_is_refused_by_name(build, field):
    with pytest.raises(AccountingError, match=f"^{field} must be "):
        build()
