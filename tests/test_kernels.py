"""Kernel-family tests: transfers, decay bounds, truncation, exact spline transfers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memflo import kernels as K
from memflo.errors import BoundViolation


def exp_transfer(k, truncation=None, c=1.0):
    return K.MemoryTransfer(K.ExponentialDecay([[c]], k), truncation=truncation)


# --- critical exponent ---------------------------------------------------------


def test_critical_exponent_exponential_is_rate():
    assert K.critical_exponent(K.ExponentialDecay([[1.0]], 3.0)) == 3.0


def test_critical_exponent_delay_is_infinite():
    assert K.critical_exponent(K.Delay([[1.0]], 1.0)) == math.inf


def test_critical_exponent_sampled_is_infinite():
    kern = K.FiniteSupportSampled(np.ones((1, 8, 1, 1)), support=5.0)
    assert K.critical_exponent(kern) == math.inf


def test_exponential_rejects_nonpositive_rate():
    with pytest.raises(ValueError, match="positive"):
        K.ExponentialDecay([[1.0]], 0.0)


# --- transfer closed forms ------------------------------------------------------


def test_transfer_unit_exponential_at_origin():
    val = K.transfer_at(exp_transfer(1.0), 0.0, 0.0)
    assert val[0, 0] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("s", [0.5, 2.0, 7.0])
def test_transfer_truncated_exponential_window(s):
    val = K.transfer_at(exp_transfer(3.0, truncation=s), 0.0, 0.0)
    assert val[0, 0] == pytest.approx((1 - math.exp(-3 * s)) / 3, abs=1e-14)


def test_transfer_delay_pure_phase():
    mt = K.MemoryTransfer(K.Delay([[1.0]], 2.0))
    val = K.transfer_at(mt, 0.0, math.pi)
    assert val[0, 0] == pytest.approx(1.0, abs=1e-12)  # e^{-2 pi i}


def test_transfer_matrix_coefficient_scales():
    c = np.array([[1.0, 2.0], [0.0, -1.0]])
    mt = K.MemoryTransfer(K.ExponentialDecay(c, 2.0))
    val = K.transfer_at(mt, 1.0, 0.5)
    assert np.allclose(val, c / (2.0 + 1.0 + 0.5j), atol=1e-14)


def test_transfer_domain_guard():
    with pytest.raises(BoundViolation):
        K.transfer_at(exp_transfer(3.0), -3.0, 0.0)
    with pytest.raises(BoundViolation):
        K.transfer_at(exp_transfer(3.0), -3.5, 1.0)
    # truncated window is entire
    K.transfer_at(exp_transfer(3.0, truncation=1.0), -3.5, 1.0)


def test_transfer_sampled_matches_exponential():
    # sampled exponential with compact support == truncated closed form
    k, support = 2.0, 4.0
    u = np.linspace(0, support, 200)
    values = np.exp(-k * u)[None, :, None, None]
    mt = K.MemoryTransfer(K.FiniteSupportSampled(values, support))
    lam, om = 0.3, 1.7
    got = K.transfer_at(mt, lam, om)[0, 0]
    want = K.transfer_at(exp_transfer(k, truncation=support), lam, om)[0, 0]
    assert got == pytest.approx(want, abs=1e-8)


# --- exact transfers of sampled kernels -------------------------------------------

CUBIC = np.polynomial.Polynomial([2.0, 0.4, -1.1, 0.7])


def cubic_transfer_reference(zeta, upper, power):
    """integral_0^upper (-u)^power CUBIC(u) e^{-zeta u} du, computed without memflo."""
    poly = CUBIC * np.polynomial.Polynomial([0.0, -1.0]) ** power
    if abs(zeta) >= 0.5:  # by parts: the antiderivative is -e^{-zeta u} sum_k p^(k)(u)/zeta^(k+1)
        def antiderivative(u):
            terms = (poly.deriv(k)(u) / zeta ** (k + 1) for k in range(poly.degree() + 1))
            return -np.exp(-zeta * u) * sum(terms)
    else:  # the Taylor-expanded product is a polynomial
        taylor = np.polynomial.Polynomial([(-zeta) ** n / math.factorial(n) for n in range(8)])
        antiderivative = (poly * taylor).integ()
    return antiderivative(upper) - antiderivative(0.0)


@pytest.mark.parametrize("zeta", [0.0, 1e-12, 0.5 - 3j, -4 + 1j, 30j])
@pytest.mark.parametrize("truncation", [None, 0.77])
def test_sampled_transfer_is_exact_for_a_cubic(zeta, truncation):
    # the spline through 200 samples of a cubic is that cubic; 0.77 ends inside a panel
    support = 1.5
    u = np.linspace(0.0, support, 200)
    kern = K.FiniteSupportSampled(CUBIC(u)[None, :, None, None], support)
    mt = K.MemoryTransfer(kern, truncation)
    upper = support if truncation is None else truncation
    for power, transfer in enumerate((K.transfer_at, K.transfer_dlambda)):
        got = transfer(mt, zeta.real, zeta.imag)[0, 0]
        want = cubic_transfer_reference(complex(zeta), upper, power)
        assert abs(got - want) <= 1e-13 * abs(want)


def test_sampled_transfer_overflow_is_a_bound_violation():
    # lambda = -5 + 0.1i is the contour's left edge without a decay bound; over a support
    # of 200 the transfer grows like e^{1000}, beyond the float range
    u = np.linspace(0.0, 200.0, 400)
    mt = K.MemoryTransfer(K.FiniteSupportSampled(np.exp(-u / 50)[None, :, None, None], 200.0))
    for transfer in (K.transfer_at, K.transfer_dlambda):
        with pytest.raises(BoundViolation, match="not finite"):
            transfer(mt, -5 + 0.1j, 0.0)
    with pytest.raises(BoundViolation, match="not finite"):
        K.memory_matrix(mt, -5 + 0.1j, np.array([-1.0, 0.0, 1.0]))


# --- derivative and analyticity --------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-1.5, max_value=2.0), st.floats(min_value=-4.0, max_value=4.0),
       st.floats(min_value=-3.0, max_value=3.0))
def test_transfer_analytic_in_lambda(re, im, omega_j):
    mt = exp_transfer(2.0, truncation=3.0)
    lam = complex(re, im)
    h = 1e-5
    fd = (K.transfer_at(mt, lam + h, omega_j) - K.transfer_at(mt, lam - h, omega_j)) / (2 * h)
    an = K.transfer_dlambda(mt, lam, omega_j)
    assert abs(fd[0, 0] - an[0, 0]) < 1e-6 * (1 + abs(an[0, 0]))


def test_transfer_dlambda_untruncated_closed_form():
    mt = exp_transfer(2.0)
    lam, om = 0.4, 1.0
    got = K.transfer_dlambda(mt, lam, om)[0, 0]
    assert got == pytest.approx(-1.0 / (2.0 + lam + 1j * om) ** 2, abs=1e-14)


# --- truncation error bound ------------------------------------------------------


def test_truncation_bound_exponential_closed_form():
    mt = exp_transfer(3.0)
    val = K.truncation_error_bound(mt, 2.0, math.inf)
    assert val == pytest.approx(math.exp(-6.0) / 3.0, rel=1e-12)
    assert val == pytest.approx(8.2625072555545276e-4, rel=1e-10)


def test_truncation_bound_empty_window():
    assert K.truncation_error_bound(exp_transfer(3.0), 2.0, 2.0) == 0.0


def test_truncation_bound_delay_support_exhausted():
    mt = K.MemoryTransfer(K.Delay([[2.0]], 1.0))
    assert K.truncation_error_bound(mt, 1.5, math.inf) == 0.0
    assert K.truncation_error_bound(mt, 0.5, math.inf) == 2.0


def test_truncation_bound_rejects_bad_ordering():
    with pytest.raises(ValueError, match="ordering"):
        K.truncation_error_bound(exp_transfer(1.0), 3.0, 2.0)


def test_truncation_bound_sampled_kernel_integrates_its_norm():
    # ||K(u)|| = 1 + 2u on [0, 3]: the tail over (1/2, s] is u + u^2 between the ends
    u = np.linspace(0.0, 3.0, 40)
    values = (1 + 2 * u)[None, :, None, None] * np.array([[0.6, 0.0], [0.0, -1.0]])
    mt = K.MemoryTransfer(K.FiniteSupportSampled(values, 3.0))
    assert K.truncation_error_bound(mt, 0.5, math.inf) == pytest.approx(11.25, rel=1e-13)
    assert K.truncation_error_bound(mt, 0.5, 2.0) == pytest.approx(5.25, rel=1e-13)
    assert K.truncation_error_bound(mt, 3.5, math.inf) == 0.0  # beyond the support


@pytest.mark.parametrize("sbar", [1.0, 2.0, 4.0])
def test_truncated_transfer_converges_within_bound(sbar):
    k = 2.0
    full = K.transfer_at(exp_transfer(k), 0.0, 1.0)
    part = K.transfer_at(exp_transfer(k, truncation=sbar), 0.0, 1.0)
    gap = np.linalg.norm(full - part, 2)
    bound = K.truncation_error_bound(exp_transfer(k), sbar, math.inf)
    assert gap <= bound * (1 + 1e-12)


def test_truncated_transfer_gap_is_decreasing():
    k = 1.5
    gaps = []
    for sbar in (0.5, 1.0, 2.0, 4.0, 8.0):
        full = K.transfer_at(exp_transfer(k), 0.0, 0.3)
        part = K.transfer_at(exp_transfer(k, truncation=sbar), 0.0, 0.3)
        gaps.append(np.linalg.norm(full - part, 2))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


# --- time-invariance of sampled kernels -------------------------------------------


def test_sampled_time_invariant_memory_matrix_is_blockdiagonal():
    k = 1.0
    u = np.linspace(0, 3.0, 120)
    values = np.exp(-k * u)[None, :, None, None]
    mt = K.MemoryTransfer(K.FiniteSupportSampled(values, 3.0))
    omegas = np.arange(-2, 3) * 1.0
    mat = K.memory_matrix(mt, 0.1, omegas)
    off = mat - np.diag(np.diag(mat))
    assert np.max(np.abs(off)) == 0.0
    for j, w in enumerate(omegas):
        assert mat[j, j] == pytest.approx(K.transfer_at(mt, 0.1, w)[0, 0], abs=1e-12)
