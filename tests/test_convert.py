import dataclasses
import math

import numpy as np
import pytest

from privdyn import (
    DEFAULT_ALPHA_GRID,
    AccountingError,
    DpGuarantee,
    EmptyInput,
    InvalidDelta,
    NonPositive,
    RdpPoint,
    bound_shuffle,
    logistic_params,
    rdp_to_dp,
)


def test_rdp_to_dp_single_point():
    g = rdp_to_dp([RdpPoint(alpha=10, eps=0.05)], delta=1e-5)
    assert g.eps == pytest.approx(0.05 + math.log(1e5) / 9, rel=1e-12)
    assert g.eps == pytest.approx(1.32922, abs=1e-5)
    assert g.alpha_star == 10
    # every guarantee is change-one, so a guarantee carries no notion
    assert [f.name for f in dataclasses.fields(DpGuarantee)] == ["eps", "delta", "alpha_star"]


def test_rdp_to_dp_delta_one_drops_log_term():
    g = rdp_to_dp([RdpPoint(alpha=4, eps=0.3), RdpPoint(alpha=12, eps=0.1)], delta=1.0)
    assert g.eps == pytest.approx(0.1, rel=1e-15)
    assert g.alpha_star == 12


def test_rdp_to_dp_picks_dominating_point():
    dominated = RdpPoint(alpha=10, eps=0.9)
    dominating = RdpPoint(alpha=10, eps=0.05)
    g = rdp_to_dp([dominated, dominating], delta=1e-5)
    assert g.eps == pytest.approx(0.05 + math.log(1e5) / 9, rel=1e-12)


def test_rdp_to_dp_monotone_under_extra_points():
    points = [RdpPoint(alpha=a, eps=0.01 * a) for a in (2, 4, 8)]
    base = rdp_to_dp(points, delta=1e-5).eps
    more = rdp_to_dp(points + [RdpPoint(alpha=32, eps=0.32)], delta=1e-5).eps
    assert more <= base


def test_rdp_to_dp_errors():
    with pytest.raises(EmptyInput):
        rdp_to_dp([], delta=1e-5)
    with pytest.raises(InvalidDelta):
        rdp_to_dp([RdpPoint(alpha=2, eps=0.1)], delta=0.0)
    with pytest.raises(InvalidDelta):
        rdp_to_dp([RdpPoint(alpha=2, eps=0.1)], delta=1.5)
    with pytest.raises(AccountingError):
        rdp_to_dp([RdpPoint(alpha=10, eps=math.nan)], delta=1e-5)
    with pytest.raises(AccountingError):
        rdp_to_dp([RdpPoint(alpha=math.inf, eps=0.1)], delta=1e-5)


def test_rdp_to_dp_skips_orders_without_a_bound():
    g = rdp_to_dp([RdpPoint(2, math.inf), RdpPoint(10, 0.05)], delta=1e-5)
    assert g.alpha_star == 10


def test_logistic_constants_values():
    def params(l_feat, lam, grad_clip):
        return logistic_params(n=50, b=2, eta=0.1, epochs=1, lam=lam, l_feat=l_feat,
                               grad_clip=grad_clip, sigma_mul=10.0)

    # beta is the loss's (l_feat^2+1)/2 plus the regularizer's lam
    p = params(1.0, 0.04, 0.1)
    assert p.beta - p.lam == pytest.approx(1.0, rel=1e-15)
    assert p.s_g == pytest.approx(0.2, rel=1e-15)
    assert p.beta == pytest.approx(1.04, rel=1e-12)
    bias_only = params(0.0, 0.04, 0.1)
    assert bias_only.beta - bias_only.lam == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(NonPositive, match="feature clip norm"):
        params(-1.0, 0.04, 0.1)
    with pytest.raises(NonPositive):
        params(1.0, 0.0, 0.1)
    with pytest.raises(NonPositive):
        params(1.0, 0.04, -0.1)


def test_prefactor_identity_on_random_draws():
    # eps1 = 2*alpha/sigma_mul^2 for any (eta, b, S_g, sigma_mul)
    rng = np.random.default_rng(7)
    for _ in range(100):
        eta = float(rng.uniform(0.001, 0.5))
        b = int(rng.integers(1, 64))
        s_g = float(rng.uniform(0.05, 20.0))
        sigma_mul = float(rng.uniform(0.2, 50.0))
        alpha = float(rng.uniform(1.01, 128.0))
        from privdyn import sigma_from_multiplier

        sigma = sigma_from_multiplier(eta, b, s_g, sigma_mul)
        eps1 = alpha * eta * s_g**2 / (4 * sigma**2 * b**2)
        assert eps1 == pytest.approx(2 * alpha / sigma_mul**2, rel=1e-12)


def test_corollary_prefactor_example():
    # sigma_mul = 10, alpha = 10: eps0(1) = 2*10/100 = 0.2
    p = logistic_params(n=64, b=2, eta=0.1, epochs=1, lam=0.04, l_feat=1.0,
                        grad_clip=0.1, sigma_mul=10.0)
    assert p.eps1(10) == pytest.approx(0.2, rel=1e-12)


def test_corollary_stepsize_condition():
    from privdyn import StepsizeTooLarge

    # eta must stay below 2/((l_feat^2+1)/2 + 2*lam)
    limit = 2 / ((1 + 1) / 2 + 2 * 0.04)
    with pytest.raises(StepsizeTooLarge):
        logistic_params(n=64, b=2, eta=limit * 1.01, epochs=1, lam=0.04, l_feat=1.0,
                        grad_clip=0.1, sigma_mul=10.0)
    p = logistic_params(n=64, b=2, eta=limit * 0.99, epochs=1, lam=0.04, l_feat=1.0,
                        grad_clip=0.1, sigma_mul=10.0)
    bound_shuffle(p, 8.0)


def test_default_alpha_grid_shape():
    assert DEFAULT_ALPHA_GRID[0] == 1.25
    assert DEFAULT_ALPHA_GRID[1] == 1.5
    assert DEFAULT_ALPHA_GRID[2] == 2.0
    assert DEFAULT_ALPHA_GRID[-2:] == (128.0, 256.0)
    assert 64.0 in DEFAULT_ALPHA_GRID
    assert all(a > 1 for a in DEFAULT_ALPHA_GRID)


from hypothesis import given, strategies as st


@given(
    base=st.lists(
        st.tuples(st.floats(1.01, 256.0), st.floats(0.0, 20.0)), min_size=1, max_size=8
    ),
    extra=st.tuples(st.floats(1.01, 256.0), st.floats(0.0, 20.0)),
    delta=st.floats(1e-10, 1.0, exclude_min=False),
)
def test_rdp_to_dp_monotone_property(base, extra, delta):
    points = [RdpPoint(alpha=a, eps=e) for a, e in base]
    with_extra = points + [RdpPoint(alpha=extra[0], eps=extra[1])]
    assert rdp_to_dp(with_extra, delta).eps <= rdp_to_dp(points, delta).eps


def test_corollary_with_truncation():
    # truncation threads through to the derived params
    p = logistic_params(n=50, b=4, eta=0.1, epochs=3, lam=0.04, l_feat=1.0, grad_clip=0.1,
                        sigma_mul=10.0, truncate_last_batch=True)
    assert bound_shuffle(p, 8.0).eps > 0
    from privdyn import NonDividingBatch

    with pytest.raises(NonDividingBatch):
        logistic_params(n=50, b=4, eta=0.1, epochs=3, lam=0.04, l_feat=1.0, grad_clip=0.1,
                        sigma_mul=10.0)
