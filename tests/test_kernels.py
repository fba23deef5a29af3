"""Kernel-family tests: transfers, decay bounds, truncation, exact spline transfers."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memflo import kernels as K
from memflo.errors import BoundViolation


def exp_transfer(k, truncation=None, c=1.0):
    return K.MemoryTransfer(K.ExponentialDecay([[c]], k), truncation=truncation)


def transfer(mt, lam, omega_j):
    """One harmonic's (transfer, lambda-derivative) pair of dim x dim blocks."""
    return K.memory_matrix(mt, lam, np.array([omega_j]))


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
    val = transfer(exp_transfer(1.0), 0.0, 0.0)[0]
    assert val[0, 0] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("s", [0.5, 2.0, 7.0])
def test_transfer_truncated_exponential_window(s):
    val = transfer(exp_transfer(3.0, truncation=s), 0.0, 0.0)[0]
    assert val[0, 0] == pytest.approx((1 - math.exp(-3 * s)) / 3, abs=1e-14)


def test_transfer_delay_pure_phase():
    mt = K.MemoryTransfer(K.Delay([[1.0]], 2.0))
    val = transfer(mt, 0.0, math.pi)[0]
    assert val[0, 0] == pytest.approx(1.0, abs=1e-12)  # e^{-2 pi i}


def test_delay_beyond_the_memory_window_transfers_nothing():
    mt = K.MemoryTransfer(K.Delay([[0.5]], 1.0), truncation=0.5)
    q, dq = K.memory_matrix(mt, 0.3 + 0.2j, np.arange(-2.0, 3.0))
    assert q.shape == dq.shape == (5, 5)
    assert not q.any() and not dq.any()


def test_transfer_matrix_coefficient_scales():
    c = np.array([[1.0, 2.0], [0.0, -1.0]])
    mt = K.MemoryTransfer(K.ExponentialDecay(c, 2.0))
    val = transfer(mt, 1.0, 0.5)[0]
    assert np.allclose(val, c / (2.0 + 1.0 + 0.5j), atol=1e-14)


def test_transfer_domain_guard():
    with pytest.raises(BoundViolation):
        transfer(exp_transfer(3.0), -3.0, 0.0)
    with pytest.raises(BoundViolation):
        transfer(exp_transfer(3.0), -3.5, 1.0)
    # truncated window is entire
    transfer(exp_transfer(3.0, truncation=1.0), -3.5, 1.0)


def test_transfer_sampled_matches_exponential():
    # sampled exponential with compact support == truncated closed form
    k, support = 2.0, 4.0
    u = np.linspace(0, support, 200)
    values = np.exp(-k * u)[None, :, None, None]
    mt = K.MemoryTransfer(K.FiniteSupportSampled(values, support))
    lam, om = 0.3, 1.7
    got = transfer(mt, lam, om)[0][0, 0]
    want = transfer(exp_transfer(k, truncation=support), lam, om)[0][0, 0]
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
    for power, block in enumerate(transfer(mt, zeta.real, zeta.imag)):
        got = block[0, 0]
        want = cubic_transfer_reference(complex(zeta), upper, power)
        assert abs(got - want) <= 1e-13 * abs(want)


# (transfer, lambda) of each family where the transfer lies beyond the float range.  Re = -5
# is the contour's left edge without a decay bound: a support of 200 grows like e^{1000}
# and a delay of 150 like e^{750}; a window of 700 at rate 1 and lambda = -4, like e^{2100}
OVERFLOWING = {
    "sampled": (K.MemoryTransfer(K.FiniteSupportSampled(
        np.exp(-np.linspace(0.0, 200.0, 400) / 50)[None, :, None, None], 200.0)), -5 + 0.1j),
    "exponential": (exp_transfer(1.0, truncation=700.0), -4.0),
    "delay": (K.MemoryTransfer(K.Delay([[1.0]], 150.0)), -5.0),
}


@pytest.mark.parametrize("family", OVERFLOWING)
@pytest.mark.parametrize("omegas", [[0.0], [-1.0, 0.0, 1.0]],
                         ids=["one-harmonic", "three-harmonics"])
def test_transfer_overflow_is_a_bound_violation(omegas, family):
    mt, lam = OVERFLOWING[family]
    with pytest.raises(BoundViolation, match="not finite"):
        K.memory_matrix(mt, lam, np.array(omegas))


@pytest.mark.parametrize("truncation, panel_lengths", [(None, 1), (0.77, 2)])
def test_sampled_transfer_pair_takes_one_expm_per_panel_length(monkeypatch, truncation,
                                                               panel_lengths):
    # the full panels share one length, and a window ending inside a panel adds a second
    import scipy.linalg

    calls = []
    expm = scipy.linalg.expm

    def counting(a):
        calls.append(a.shape)
        return expm(a)

    monkeypatch.setattr(scipy.linalg, "expm", counting)
    u = np.linspace(0.0, 1.5, 200)
    mt = K.MemoryTransfer(K.FiniteSupportSampled(CUBIC(u)[None, :, None, None], 1.5), truncation)
    q, dq = K.memory_matrix(mt, 0.5 - 3j, np.array([0.0]))
    assert np.isfinite(q).all() and np.isfinite(dq).all()
    # moments I_0..I_4 cover the cubic and the degree-raised quartic
    assert calls == [(6, 6)] * panel_lengths


# --- derivative and analyticity --------------------------------------------------


ANALYTIC = [exp_transfer(2.0, truncation=3.0), K.MemoryTransfer(K.Delay([[0.7]], 1.3)),
            K.MemoryTransfer(K.FiniteSupportSampled(
                CUBIC(np.linspace(0.0, 1.5, 40))[None, :, None, None], 1.5), truncation=1.1)]


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-1.5, max_value=2.0), st.floats(min_value=-4.0, max_value=4.0),
       st.floats(min_value=-3.0, max_value=3.0))
def test_transfer_analytic_in_lambda(re, im, omega_j):
    # central differences of the transfer against its derivative: exponential, delay, sampled
    lam = complex(re, im)
    h = 1e-5
    for mt in ANALYTIC:
        fd = (transfer(mt, lam + h, omega_j)[0] - transfer(mt, lam - h, omega_j)[0]) / (2 * h)
        an = transfer(mt, lam, omega_j)[1]
        assert abs(fd[0, 0] - an[0, 0]) < 1e-6 * (1 + abs(an[0, 0]))


def window_reference(c, s):
    """(1 - e^{-c s})/c and its c-derivative for |c s| < 1, summed exactly in rationals.

    (1 - e^{-c s})/c = sum_k (-1)^k s^{k+1} c^k/(k+1)!; 40 terms leave under 1e-40.
    """
    c = (Fraction(c.real), Fraction(c.imag))
    s = Fraction(s)
    f, df = [Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]
    power = (Fraction(1), Fraction(0))  # c^k
    for k in range(40):
        a = (-1) ** k * s ** (k + 1) / math.factorial(k + 1)  # of c^k in f
        da = (-1) ** (k + 1) * (k + 1) * s ** (k + 2) / math.factorial(k + 2)  # of c^k in f'
        for acc, coeff in ((f, a), (df, da)):
            acc[0] += coeff * power[0]
            acc[1] += coeff * power[1]
        power = (power[0] * c[0] - power[1] * c[1], power[0] * c[1] + power[1] * c[0])
    return complex(float(f[0]), float(f[1])), complex(float(df[0]), float(df[1]))


@pytest.mark.parametrize("switch", [1e-6, 0.1])
@pytest.mark.parametrize("side", [0.999, 1.001])
@pytest.mark.parametrize("phase", [0.0, 1.0, math.pi / 2, math.pi])
def test_window_transfer_agrees_with_its_closed_form_across_the_series_switch(switch, side,
                                                                             phase):
    # the s = 0 rows run the Taylor branch |c*s| < 0.1: below it the derivative's closed
    # form would cancel to about eps/|c*s|^2 relative, 1e-4 at |c*s| = 1e-6
    s, rate = 2.0, 3.0
    c_target = cmath.rect(side * switch / s, phase)
    lam, omega_j = -rate + c_target.real, c_target.imag
    mt = exp_transfer(rate, truncation=s)
    c = rate + (complex(lam) + 1j * omega_j)  # as the kernel forms it
    f, df = window_reference(c, s)
    # the closed forms above the switch: the transfer to rounding, the derivative to its
    # cancellation eps/|c*s|^2; the series below it to rounding
    df_tol = 4e-16 / abs(c * s) ** 2 if abs(c * s) >= 0.1 else 1e-15
    got, dgot = transfer(mt, lam, omega_j)
    assert abs(got[0, 0] - f) <= 1e-15 * abs(f)
    assert abs(dgot[0, 0] - df) <= df_tol * abs(df)


def test_transfer_dlambda_untruncated_closed_form():
    mt = exp_transfer(2.0)
    lam, om = 0.4, 1.0
    got = transfer(mt, lam, om)[1][0, 0]
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
    full = transfer(exp_transfer(k), 0.0, 1.0)[0]
    part = transfer(exp_transfer(k, truncation=sbar), 0.0, 1.0)[0]
    gap = np.linalg.norm(full - part, 2)
    bound = K.truncation_error_bound(exp_transfer(k), sbar, math.inf)
    assert gap <= bound * (1 + 1e-12)


def test_truncated_transfer_gap_is_decreasing():
    k = 1.5
    gaps = []
    for sbar in (0.5, 1.0, 2.0, 4.0, 8.0):
        full = transfer(exp_transfer(k), 0.0, 0.3)[0]
        part = transfer(exp_transfer(k, truncation=sbar), 0.0, 0.3)[0]
        gaps.append(np.linalg.norm(full - part, 2))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


# --- time-invariance of sampled kernels -------------------------------------------


def test_sampled_time_invariant_memory_matrix_is_blockdiagonal():
    k = 1.0
    u = np.linspace(0, 3.0, 120)
    values = np.exp(-k * u)[None, :, None, None]
    mt = K.MemoryTransfer(K.FiniteSupportSampled(values, 3.0))
    omegas = np.arange(-2, 3) * 1.0
    mat, dmat = K.memory_matrix(mt, 0.1, omegas)
    for m in (mat, dmat):
        assert np.max(np.abs(m - np.diag(np.diag(m)))) == 0.0
    for j, w in enumerate(omegas):  # each block is its harmonic's transfer computed alone
        alone, dalone = transfer(mt, 0.1, w)
        assert np.array_equal(mat[j, j], alone[0, 0])
        assert np.array_equal(dmat[j, j], dalone[0, 0])
