import math

import pytest

from privdyn import (
    AccountingError,
    IndexOutOfRange,
    bound_fixed,
    bound_naive_baseline,
    eps0_term,
    make_params,
    with_epochs,
)
from privdyn.dynamics import RegularityMismatch, fixed_bound_limit, naive_baseline_limit

from helpers import ConvexityClass, LsiSequence, lsi_constant, recursion_coefficients


def test_lsi_constant_values(ref_params, ref_params_convex):
    # strongly convex, t = 1: 1/(2*0.02*4) (single-term geometric sum)
    assert lsi_constant(ref_params, None, 0, 1) == pytest.approx(6.25, rel=1e-12)
    # convex, t = 10: 1/(2*0.02*4*10)
    assert lsi_constant(ref_params_convex, None, 0, 10) == pytest.approx(0.625, rel=1e-12)
    assert lsi_constant(ref_params, None, 0, 0) == math.inf


def test_lsi_classes_agree_at_lambda_zero(ref_params_convex):
    for k, j in [(0, 1), (0, 7), (2, 0), (3, 13)]:
        conv = lsi_constant(ref_params_convex, ConvexityClass.CONVEX, k, j)
        strong = lsi_constant(ref_params_convex, ConvexityClass.STRONGLY_CONVEX, k, j)
        assert conv == pytest.approx(strong, rel=1e-14)


def test_lsi_sequence_nonincreasing(ref_params):
    seq = LsiSequence(params=ref_params, convexity=ConvexityClass.STRONGLY_CONVEX)
    values = [seq.at(k, j) for k in range(3) for j in range(ref_params.m)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(v > 0 for v in values[1:])


def test_eps0_values(ref_params):
    assert eps0_term(ref_params, 10, 1) == pytest.approx(0.05, rel=1e-14)
    # 0.05 * 0.9604 * 0.0396 / (1 - 0.9604^2), frozen from 60-digit evaluation
    assert eps0_term(ref_params, 10, 2) == pytest.approx(0.02449500102019996, rel=1e-12)
    with pytest.raises(IndexOutOfRange):
        eps0_term(ref_params, 10, 0)
    with pytest.raises(IndexOutOfRange):
        eps0_term(ref_params, 10, 26)
    with pytest.raises(AccountingError, match="finite"):
        eps0_term(ref_params, math.inf, 1)


def test_eps0_convex_is_eps1_over_j(ref_params_convex):
    assert eps0_term(ref_params_convex, 10, 25) == pytest.approx(0.002, rel=1e-14)
    for j in range(1, 26):
        assert eps0_term(ref_params_convex, 10, j) == pytest.approx(0.05 / j, rel=1e-14)


def test_eps0_strictly_decreasing(ref_params):
    vals = [eps0_term(ref_params, 10, j) for j in range(1, 26)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_recursion_coefficients_examples(ref_params, ref_params_convex):
    assert recursion_coefficients(ref_params, 10, 0, 0, in_batch=True).increment == pytest.approx(0.05)
    step = recursion_coefficients(ref_params, 10, 0, 1, in_batch=False)
    assert step.multiplier == pytest.approx(0.48990002040399918, rel=1e-12)
    assert step.multiplier == pytest.approx(eps0_term(ref_params, 10, 2) / eps0_term(ref_params, 10, 1), rel=1e-12)
    conv = recursion_coefficients(ref_params_convex, 10, 0, 1, in_batch=False)
    assert conv.multiplier == pytest.approx(0.5, rel=1e-14)


@pytest.mark.parametrize("convex", [False, True])
def test_recursion_reproduces_closed_form(ref_params, ref_params_convex, convex):
    # one epoch of Lemma-style steps starting at eps = 0 must equal eps0(j)
    params = ref_params_convex if convex else ref_params
    eps = 0.0
    eps = recursion_coefficients(params, 10, 0, 0, in_batch=True).apply(eps)
    for j in range(1, params.m + 1):
        assert eps == pytest.approx(eps0_term(params, 10, j), rel=1e-12), f"j={j}"
        if j < params.m:
            eps = recursion_coefficients(params, 10, 0, j, in_batch=False).apply(eps)


def test_strongly_convex_bound_examples(ref_params):
    one_epoch = with_epochs(ref_params, 1)
    assert bound_fixed(one_epoch, 10, 24).eps == pytest.approx(0.05, rel=1e-14)
    # K -> infinity limit at alpha=10, j0=24, frozen from 60-digit evaluation
    big = with_epochs(ref_params, 5000)
    assert bound_fixed(big, 10, 24).eps == pytest.approx(
        0.05808641552533266, rel=1e-9
    )
    assert fixed_bound_limit(ref_params, 10, 24) == pytest.approx(0.05808641552533266, rel=1e-12)


def test_strongly_convex_bound_monotone_in_k_and_j0(ref_params):
    values = [bound_fixed(with_epochs(ref_params, k), 30, 24).eps for k in range(1, 60)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    # convergence rate: increments bounded by eps0(h) * r^((K-1)(m-h))
    h = ref_params.m // 2
    for k in range(2, 50):
        gap = values[k] - values[k - 1]  # eps(K=k+1) - eps(K=k)
        cap = eps0_term(ref_params, 30, h) * ref_params.r ** ((k - 1) * (ref_params.m - h))
        # the increment meets the cap with equality analytically; allow for
        # cancellation noise in the subtraction
        assert gap <= cap * (1 + 1e-6) + 1e-15
    by_j0 = [bound_fixed(ref_params, 30, j0).eps for j0 in range(ref_params.m)]
    assert all(b >= a for a, b in zip(by_j0, by_j0[1:]))


def test_convex_bound_examples(ref_params_convex):
    assert bound_fixed(with_epochs(ref_params_convex, 1), 10, 0).eps == pytest.approx(0.002, rel=1e-14)
    assert bound_fixed(with_epochs(ref_params_convex, 2), 10, 24).eps == pytest.approx(
        0.052, rel=1e-12
    )


def test_convex_bound_b1_single_epoch_matches_iteration_amplification():
    p = make_params(n=8, b=1, eta=0.02, epochs=1, sigma=2.0, lam=0.0, beta=4.0, s_g=4.0)
    eps1 = p.eps1(10)
    for j0 in range(p.n):
        assert bound_fixed(p, 10, j0).eps == pytest.approx(eps1 / (p.n - j0), rel=1e-12)


def test_naive_baseline_values(ref_params):
    assert bound_naive_baseline(with_epochs(ref_params, 10), 30) == pytest.approx(2.854877458921213, rel=1e-12)
    assert bound_naive_baseline(with_epochs(ref_params, 0), 30) == 0.0
    assert naive_baseline_limit(ref_params, 30) == pytest.approx(30.0, rel=1e-14)


def plotted_first_batch_reference(K, a, l, e, g, s, n, b):
    """Direct float transcription of the first-batch closed form, kept
    independent of the library's helpers (no expm1/log tricks)."""
    c = a * e * g**2 / (4 * s**2 * b**2)
    shrink = 1 - e * l
    h = math.floor(n / (2 * b))
    first = (
        c
        * shrink ** (2 * (h - 1))
        * (1 - shrink**2)
        / (1 - shrink ** (2 * h))
        * (1 - shrink ** (2 * (K - 1) * (n / b - h)))
        / (1 - shrink ** (2 * (n / b - h)))
    )
    tail = (
        c
        * shrink ** (2 * (n / b - 1))
        * (1 - shrink**2)
        / (1 - shrink ** (2 * (n / b)))
    )
    return max(0.0, first + tail)


def test_matches_plotted_first_batch_curve(ref_params):
    for alpha in (10, 20, 30):
        for k in (2, 5, 10, 25):
            reference = plotted_first_batch_reference(k, alpha, 1, 0.02, 4, 2, 50, 2)
            ours = bound_fixed(with_epochs(ref_params, k), alpha, 0).eps
            assert ours == pytest.approx(reference, rel=1e-12), (alpha, k)


def test_last_batch_curve_never_hits_composition_cap(ref_params):
    # the plotted last-batch curve is min(2*K*eps1, bound); the bound branch
    # always wins on this setting, so the un-capped formula is the curve
    for alpha in (10, 20, 30):
        for k in range(1, 26):
            p = with_epochs(ref_params, k)
            eps = bound_fixed(p, alpha, p.m - 1).eps
            assert eps <= 2 * k * p.eps1(alpha) * (1 + 1e-12)


def test_lambda_to_zero_continuity():
    # The single-epoch primitives (eps0 terms, LSI constants, recursion
    # factors) converge to their convex counterparts as lambda -> 0, and so
    # does the full bound at K = 1 where both theorems reduce to eps0(m-j0).
    # The multi-epoch head terms compose differently (h-split vs per-epoch)
    # and are not expected to coincide in the limit.
    convex = make_params(n=50, b=2, eta=0.02, epochs=1, sigma=2, lam=0.0, beta=4, s_g=4)
    for lam, tol in ((1e-3, 2e-2), (1e-6, 1e-3)):
        near = make_params(n=50, b=2, eta=0.02, epochs=1, sigma=2, lam=lam, beta=4, s_g=4)
        for j in range(1, 26):
            assert eps0_term(near, 10, j) == pytest.approx(eps0_term(convex, 10, j), rel=tol)
        for k, j in [(0, 1), (0, 24), (3, 13)]:
            assert lsi_constant(near, None, k, j) == pytest.approx(
                lsi_constant(convex, None, k, j), rel=tol
            )
            assert recursion_coefficients(near, 10, k, j, in_batch=False).multiplier == pytest.approx(
                recursion_coefficients(convex, 10, k, j, in_batch=False).multiplier, rel=tol
            )
        for j0 in (0, 12, 24):
            assert bound_fixed(near, 10, j0).eps == pytest.approx(
                bound_fixed(convex, 10, j0).eps, rel=tol
            )


def test_strongly_convex_requires_lambda(ref_params_convex):
    with pytest.raises(RegularityMismatch):
        bound_naive_baseline(ref_params_convex, 10)
