"""The bounds and their limits against 40-digit mpmath references, sigma 1e-2 to 1e8.

Large sigma is the small-eps regime, where every mixture sum is within a
rounding error of 1 and a float64 log-sum-exp that forms the sum before its
logarithm loses all precision. A stepsize near 0 puts the contraction r
within a rounding error of 1, where the geometric sums of the fixed bound
cancel. Each float value must match its reference to a relative 1e-9, from
above or below.
"""

import math

import mpmath
import pytest

from privdyn import (
    BoundKind,
    bound_fixed,
    bound_limit,
    bound_naive_baseline,
    bound_samp_wo_replacement,
    make_params,
    mixing_diffusion_first_batch,
    mixing_diffusion_last_batch,
    samp_wo_limit,
    sgm_rdp_per_step,
)
from privdyn.dynamics import fixed_bound_limit
from privdyn.sampling import shuffle_avg_term

SIGMAS = (1e-2, 1.0, 1e2, 1e4, 1e6, 1e8)
REL_TOL = 1e-9
DIGITS = 40


def _mp(params, alpha):
    """(alpha, q, r, eps1) of params in mpmath."""
    a = mpmath.mpf(alpha)
    eta, lam = mpmath.mpf(params.eta), mpmath.mpf(params.lam)
    eps1 = a * eta * mpmath.mpf(params.s_g) ** 2 / (4 * mpmath.mpf(params.sigma) ** 2 * params.b**2)
    return a, mpmath.mpf(params.b) / params.n, (1 - eta * lam) ** 2, eps1


def mp_shuffle_tail(params, alpha):
    with mpmath.workdps(DIGITS):
        a, _, r, eps1 = _mp(params, alpha)
        total, r_pow = mpmath.mpf(0), mpmath.mpf(1)  # r_pow = r^(j-1)
        for _ in range(params.m):
            # (a-1) * eps0(j) = (a-1) * eps1 * r^(j-1) * (1-r) / (1-r^j)
            total += mpmath.exp((a - 1) * eps1 * r_pow * (1 - r) / (1 - r_pow * r))
            r_pow *= r
        return mpmath.log(total / params.m) / (a - 1)


def mp_samp_wo(params, alpha):
    with mpmath.workdps(DIGITS):
        a, q, r, eps1 = _mp(params, alpha)
        gain, log_s = (a - 1) * eps1, mpmath.mpf(0)
        for _ in range(params.steps):
            log_s = mpmath.log(q * mpmath.exp(gain + log_s) + (1 - q) * mpmath.exp(r * log_s))
        return log_s / (a - 1)


def mp_samp_wo_limit(params, alpha):
    with mpmath.workdps(DIGITS):
        a, q, r, eps1 = _mp(params, alpha)
        q_gain = q * mpmath.exp((a - 1) * eps1)
        if q_gain >= 1:
            return mpmath.inf
        return mpmath.log((1 - q) / (1 - q_gain)) / (1 - r) / (a - 1)


def mp_sgm(q, sigma_eff, order):
    with mpmath.workdps(DIGITS):
        q, s = mpmath.mpf(q), mpmath.mpf(sigma_eff)
        total, weight = mpmath.mpf(0), (1 - q) ** order  # C(a, k) (1-q)^(a-k) q^k
        for k in range(order + 1):
            total += weight * mpmath.exp(mpmath.mpf(k * (k - 1)) / (2 * s**2))
            weight *= mpmath.mpf(order - k) / (k + 1) * q / (1 - q)
        return mpmath.log(total) / (order - 1)


def mp_eps0(params, alpha, j):
    """The strongly convex single-epoch term eps1 * r^(j-1) * (1-r)/(1-r^j)."""
    with mpmath.workdps(DIGITS):
        _, _, r, eps1 = _mp(params, alpha)
        return eps1 * r ** (j - 1) * (1 - r) / (1 - r**j)


def mp_fixed(params, alpha, j0):
    """The fixed-partition bound: composed head eps0(h)*G-ratio plus the eps0(m - j0) tail."""
    with mpmath.workdps(DIGITS):
        _, _, r, eps1 = _mp(params, alpha)
        m, k = params.m, params.epochs
        if params.lam == 0:
            return eps1 * (k - 1) / m + eps1 / (m - j0)
        h = m // 2
        g_ratio = (1 - r ** ((k - 1) * (m - h))) / (1 - r ** (m - h))
        head = 0 if k <= 1 else mp_eps0(params, alpha, h) * g_ratio
        return head + mp_eps0(params, alpha, m - j0)


def mp_head_limit(params, alpha):
    """K -> infinity limit of the strongly convex head: eps0(h)/(1 - r^(m-h))."""
    with mpmath.workdps(DIGITS):
        _, _, r, _ = _mp(params, alpha)
        h = params.m // 2
        return mp_eps0(params, alpha, h) / (1 - r ** (params.m - h))


def mp_fixed_limit(params, alpha, j0):
    if params.lam == 0:
        return mpmath.inf  # the convex head grows linearly in K
    with mpmath.workdps(DIGITS):
        return mp_head_limit(params, alpha) + mp_eps0(params, alpha, params.m - j0)


def mp_shuffle_limit(params, alpha):
    with mpmath.workdps(DIGITS):
        return mp_head_limit(params, alpha) + mp_shuffle_tail(params, alpha)


def mp_naive(params, alpha):
    with mpmath.workdps(DIGITS):
        lam, eta = mpmath.mpf(params.lam), mpmath.mpf(params.eta)
        scale = mpmath.mpf(alpha) * mpmath.mpf(params.s_g) ** 2 / (lam * mpmath.mpf(params.sigma) ** 2 * params.b**2)
        return scale * (1 - mpmath.exp(-lam * eta * params.epochs / 2))


def mp_mixing(params, alpha, last):
    with mpmath.workdps(DIGITS):
        _, _, _, eps1 = _mp(params, alpha)
        lam, beta, eta = mpmath.mpf(params.lam), mpmath.mpf(params.beta), mpmath.mpf(params.eta)
        decay = 1 - 2 * eta * beta * lam / (beta + lam)
        slope = eps1 / (params.m - 1) * decay ** (mpmath.mpf(params.m) / 2)
        k = params.epochs
        return min(2 * k * eps1, slope * (k - 1) + eps1) if last else slope * k


def ref_at(sigma, **overrides):
    fields = dict(n=50, b=2, eta=0.02, epochs=40, sigma=sigma, lam=1.0, beta=4.0, s_g=4.0)
    fields.update(overrides)
    return make_params(**fields)


def assert_close(value, ref):
    if ref == mpmath.inf:
        assert value == math.inf
        return
    assert value > 0
    assert abs(value / float(ref) - 1) <= REL_TOL, (value, float(ref))


@pytest.mark.parametrize("sigma", SIGMAS)
def test_shuffle_tail_matches_mpmath(sigma):
    for alpha in (1.25, 10.0, 64.0):
        params = ref_at(sigma)
        assert_close(shuffle_avg_term(params, alpha), mp_shuffle_tail(params, alpha))
        assert_close(bound_limit(params, alpha, BoundKind.SHUFFLE), mp_shuffle_limit(params, alpha))
    # m = 2000: the tail was negative (-1.8e-16) at sigma = 1e6 before the kernel
    params = ref_at(sigma, n=2000, b=1, eta=0.01, epochs=1)
    assert_close(shuffle_avg_term(params, 1.25), mp_shuffle_tail(params, 1.25))
    assert_close(bound_limit(params, 1.25, BoundKind.SHUFFLE), mp_shuffle_limit(params, 1.25))


@pytest.mark.parametrize("sigma", SIGMAS)
def test_samp_wo_matches_mpmath(sigma):
    for alpha in (1.25, 10.0, 64.0):
        params = ref_at(sigma)
        assert_close(bound_samp_wo_replacement(params, alpha), mp_samp_wo(params, alpha))
        assert_close(samp_wo_limit(params, alpha), mp_samp_wo_limit(params, alpha))
    params = ref_at(sigma, eta=0.01)
    assert_close(samp_wo_limit(params, 64.0), mp_samp_wo_limit(params, 64.0))


@pytest.mark.parametrize("sigma_eff", SIGMAS)
def test_sgm_per_step_matches_mpmath(sigma_eff):
    for q in (0.001, 0.04, 0.5):
        for order in (2, 10, 64, 256):
            assert_close(sgm_rdp_per_step(q, sigma_eff, order), mp_sgm(q, sigma_eff, order))


# stepsize and strong convexity: the reference, r within 4e-6 of 1, and a
# weakly convex loss; lam = 0 is the convex fixed bound
REGULARITY = ((0.02, 1.0), (1e-6, 1.0), (0.02, 1e-3), (0.02, 0.0))


@pytest.mark.parametrize("sigma", SIGMAS)
def test_fixed_matches_mpmath(sigma):
    for eta, lam in REGULARITY:
        for epochs in (1, 40, 10**6):
            params = ref_at(sigma, eta=eta, lam=lam, epochs=epochs)
            for alpha in (1.25, 10.0, 64.0):
                for j0 in (0, params.m - 1):
                    assert_close(bound_fixed(params, alpha, j0).eps, mp_fixed(params, alpha, j0))
                    if epochs == 1:  # the limit does not depend on K
                        assert_close(fixed_bound_limit(params, alpha, j0), mp_fixed_limit(params, alpha, j0))


@pytest.mark.parametrize("sigma", SIGMAS)
def test_naive_and_mixing_diffusion_match_mpmath(sigma):
    for eta, lam in REGULARITY[:3]:  # these families need lam > 0
        for epochs in (1, 40, 10**6):
            params = ref_at(sigma, eta=eta, lam=lam, epochs=epochs)
            for alpha in (1.25, 10.0, 64.0):
                assert_close(bound_naive_baseline(params, alpha), mp_naive(params, alpha))
                assert_close(mixing_diffusion_first_batch(params, alpha), mp_mixing(params, alpha, False))
                assert_close(mixing_diffusion_last_batch(params, alpha), mp_mixing(params, alpha, True))
