"""Spectral operator tests: transform pair, derivative, Toeplitz products."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memflo import hb
from memflo.oracles import fourier_coefficients_direct


def _random_samples(rng, dim, n_harmonics, period=2.0):
    return hb.TimeSamples(dim, rng.normal(size=(dim, 2 * n_harmonics + 1)), period)


# --- dft ---------------------------------------------------------------------


def test_dft_constant_signal_is_dc_only():
    x = hb.TimeSamples(1, np.full((1, 7), 4.25), period=3.0)
    a = hb.dft(x)
    assert a.amplitude(0, 0) == pytest.approx(4.25, abs=1e-14)
    for h in (-3, -2, -1, 1, 2, 3):
        assert abs(a.amplitude(0, h)) < 1e-14


def test_dft_cosine_splits_into_half_amplitudes():
    n = 4
    period = 2 * np.pi
    t = hb.sample_times(n, period)
    x = hb.TimeSamples(1, np.cos(t)[None, :], period)
    a = hb.dft(x)
    assert a.amplitude(0, 1) == pytest.approx(0.5, abs=1e-14)
    assert a.amplitude(0, -1) == pytest.approx(0.5, abs=1e-14)
    others = [a.amplitude(0, h) for h in (-4, -3, -2, 0, 2, 3, 4)]
    assert max(abs(v) for v in others) < 1e-14


def test_dft_matches_direct_fourier_sum():
    # frozen 5-sample signal, two harmonics
    samples = np.array([[0.83302494, -1.22363369, 0.15467006, 1.90903957, -0.55173469]])
    x = hb.TimeSamples(1, samples, period=1.7)
    a = hb.dft(x)
    direct = fourier_coefficients_direct(samples, 2)
    assert np.max(np.abs(a.amplitudes - direct)) < 1e-14


def test_time_samples_reject_even_count():
    with pytest.raises(ValueError, match="odd"):
        hb.TimeSamples(1, np.zeros((1, 6)), period=1.0)


# --- idft --------------------------------------------------------------------


def test_idft_zero_amplitudes():
    a = hb.HarmonicVector(2, 3, np.zeros((2, 7)), omega0=1.0)
    x = hb.idft(a)
    assert np.max(np.abs(x.samples)) == 0.0


def test_idft_half_amplitudes_give_cosine():
    n = 3
    amps = np.zeros((1, 7), dtype=complex)
    amps[0, n + 1] = amps[0, n - 1] = 0.5
    a = hb.HarmonicVector(1, n, amps, omega0=1.0, real_signal=True)
    x = hb.idft(a)
    assert np.max(np.abs(x.samples - np.cos(x.times))) < 1e-14


def test_idft_conjugate_symmetric_amplitudes_are_real():
    rng = np.random.default_rng(11)
    n = 6
    half = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    amps = np.concatenate([half[:, ::-1].conj(),
                           rng.normal(size=(3, 1)).astype(complex), half], axis=1)
    a = hb.HarmonicVector(3, n, amps, omega0=2.0, real_signal=True)
    x = hb.idft(a)
    assert np.max(np.abs(x.samples.imag)) < 1e-12


# --- differentiate -----------------------------------------------------------


def test_differentiate_constant_is_zero():
    a = hb.HarmonicVector(1, 2, np.array([[0, 0, 3.0, 0, 0]]), omega0=5.0)
    d = hb.differentiate(a)
    assert np.max(np.abs(d.amplitudes)) == 0.0


def test_differentiate_sine_gives_scaled_cosine():
    n, omega0 = 2, 3.0
    amps = np.zeros((1, 5), dtype=complex)
    amps[0, n + 1] = 1 / 2j
    amps[0, n - 1] = -1 / 2j
    d = hb.differentiate(hb.HarmonicVector(1, n, amps, omega0))
    assert d.amplitude(0, 1) == pytest.approx(omega0 / 2, abs=1e-15)
    assert d.amplitude(0, -1) == pytest.approx(omega0 / 2, abs=1e-15)


def test_differentiate_twice_cosine():
    n, omega0 = 2, 1.5
    amps = np.zeros((1, 5), dtype=complex)
    amps[0, n + 1] = amps[0, n - 1] = 0.5
    a = hb.HarmonicVector(1, n, amps, omega0)
    dd = hb.differentiate(hb.differentiate(a))
    assert np.max(np.abs(dd.amplitudes + omega0**2 * a.amplitudes)) < 1e-14


def test_diff_operator_matrix_is_diagonal():
    mat = hb.stacked_diff_matrix(1, 3, 2.0)
    h = np.arange(-3, 4)
    assert np.array_equal(mat, np.diag(1j * h * 2.0))


# --- toeplitz products --------------------------------------------------------


def test_toeplitz_constant_multiplier():
    mh = hb.MatrixHarmonics.constant([[2.5]], omega0=1.0)
    top = hb.toeplitz_from_periodic(mh, n_harmonics=3)
    assert np.max(np.abs(top - 2.5 * np.eye(7))) == 0.0


def test_toeplitz_cosine_times_cosine():
    # cos * cos = 1/2 + cos(2.)/2, truncated at the operand band
    n = 3
    coeffs = np.zeros((1, 1, 2 * n + 1), dtype=complex)
    coeffs[0, 0, n + 1] = coeffs[0, 0, n - 1] = 0.5
    mh = hb.MatrixHarmonics(1, 1, n, coeffs, omega0=1.0)
    top = hb.toeplitz_from_periodic(mh)
    amps = np.zeros((1, 2 * n + 1), dtype=complex)
    amps[0, n + 1] = amps[0, n - 1] = 0.5
    a = hb.HarmonicVector(1, n, amps, omega0=1.0)
    out = top @ a.flat
    assert out[n] == pytest.approx(0.5, abs=1e-14)
    assert out[n + 2] == pytest.approx(0.25, abs=1e-14)
    assert out[n - 2] == pytest.approx(0.25, abs=1e-14)
    assert abs(out[n + 1]) < 1e-14


def _oversampled_product_oracle(mh, a):
    """Pointwise multiply on a fine grid, transform back, truncate."""
    n = a.n_harmonics
    g = 2 * (2 * n) + 1 + 4
    period = a.period
    times = period * np.arange(1, g + 1) / g
    t_vals = np.stack([mh.evaluate(t) for t in times], axis=2)
    a_vals = a.evaluate(times)
    prod = np.einsum("rcg,cg->rg", t_vals, a_vals)
    return fourier_coefficients_direct(prod, n)


def test_toeplitz_random_matrix_against_oversampling_oracle():
    rng = np.random.default_rng(5)
    n = 4
    period = 2.0
    g = 4 * n + 1
    samples = rng.normal(size=(2, 2, g))
    mh = hb.MatrixHarmonics.from_time_grid(samples, period, n)
    half = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    amps = np.concatenate([half[:, ::-1].conj(),
                           rng.normal(size=(2, 1)).astype(complex), half], axis=1)
    a = hb.HarmonicVector(2, n, amps, omega0=2 * np.pi / period)
    out = hb.toeplitz_from_periodic(mh) @ a.flat
    oracle = _oversampled_product_oracle(mh, a)
    assert np.max(np.abs(out.reshape(2, -1) - oracle)) < 1e-10


@pytest.mark.parametrize("band, n_out", [(2, 2), (4, 1), (1, 3)])
def test_toeplitz_is_the_read_only_component_major_matrix(band, n_out):
    # entry (r, j; c, l) is coefficient j - l of element (r, c), zero out of band
    rng = np.random.default_rng(9)
    m = 2 * n_out + 1
    coeffs = rng.normal(size=(2, 2, 2 * band + 1)) + 1j * rng.normal(size=(2, 2, 2 * band + 1))
    mh = hb.MatrixHarmonics(2, 2, band, coeffs, omega0=1.0)
    top = hb.toeplitz_from_periodic(mh, n_harmonics=n_out)
    want = np.zeros((2 * m, 2 * m), dtype=complex)
    for r, c, j, l in np.ndindex(2, 2, m, m):
        want[r * m + j, c * m + l] = mh.coefficient(j - l)[r, c]
    assert np.array_equal(top, want)
    assert not top.flags.writeable


# --- structural invariants ----------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**32 - 1))
def test_round_trip_property(n_harmonics, seed):
    rng = np.random.default_rng(seed)
    x = _random_samples(rng, 2, n_harmonics)
    back = hb.idft(hb.dft(x))
    assert np.max(np.abs(back.samples - x.samples)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**32 - 1))
def test_parseval_property(n_harmonics, seed):
    rng = np.random.default_rng(seed)
    x = _random_samples(rng, 1, n_harmonics)
    a = hb.dft(x)
    m = 2 * n_harmonics + 1
    time_power = np.sum(np.abs(x.samples) ** 2) / m
    freq_power = np.sum(np.abs(a.amplitudes) ** 2)
    assert time_power == pytest.approx(freq_power, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3))
def test_linearity_of_operators(n_harmonics, seed, c1, c2):
    rng = np.random.default_rng(seed)
    x1 = _random_samples(rng, 1, n_harmonics)
    x2 = _random_samples(rng, 1, n_harmonics)
    combo = hb.TimeSamples(1, c1 * x1.samples + c2 * x2.samples, x1.period)
    lhs = hb.dft(combo).amplitudes
    rhs = c1 * hb.dft(x1).amplitudes + c2 * hb.dft(x2).amplitudes
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * (1 + abs(c1) + abs(c2))


def test_spectral_derivative_matches_sampled_derivative():
    # band-limited signal: differentiate-then-sample equals sample-then-dft-diff
    n = 5
    period = 2 * np.pi
    rng = np.random.default_rng(3)
    half = rng.normal(size=(1, n)) + 1j * rng.normal(size=(1, n))
    amps = np.concatenate([half[:, ::-1].conj(),
                           rng.normal(size=(1, 1)).astype(complex), half], axis=1)
    a = hb.HarmonicVector(1, n, amps, omega0=1.0, real_signal=True)
    t = hb.sample_times(n, period)
    h = np.arange(-n, n + 1)
    analytic = (amps * (1j * h)) @ np.exp(1j * np.outer(h, t))
    via_op = hb.idft(hb.differentiate(a)).samples
    assert np.max(np.abs(via_op - analytic)) < 1e-12


def test_real_flag_enforces_conjugate_symmetry():
    amps = np.zeros((1, 5), dtype=complex)
    amps[0, 3] = 1.0  # h = +1 only, no conjugate partner
    with pytest.raises(ValueError, match="conjugate symmetry"):
        hb.HarmonicVector(1, 2, amps, omega0=1.0, real_signal=True)


def test_flat_layout_is_component_major():
    amps = np.arange(10).reshape(2, 5).astype(complex)
    a = hb.HarmonicVector(2, 2, amps, omega0=1.0)
    assert np.array_equal(a.flat[:5], amps[0])
    assert a.amplitude(1, -2) == 5.0


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(2)
    u = rng.normal(size=3 * 9)
    amps = hb.unpack_real_coefficients(u, 3, 4)
    assert np.max(np.abs(hb.pack_real_coefficients(amps) - u)) == 0.0
    assert np.max(np.abs(amps[:, ::-1].conj() - amps)) == 0.0


def test_unpack_is_complex_linear():
    rng = np.random.default_rng(3)
    re, im = rng.normal(size=(2, 2 * 7))
    want = hb.unpack_real_coefficients(re, 2, 3) + 1j * hb.unpack_real_coefficients(im, 2, 3)
    assert np.max(np.abs(hb.unpack_real_coefficients(re + 1j * im, 2, 3) - want)) < 1e-15


@pytest.mark.parametrize("n_harmonics", [0, 1, 4])
def test_real_form_of_a_real_signal_operator(n_harmonics):
    # A - D for a real periodic 2x2 signal maps real signals to real signals
    rng = np.random.default_rng(4)
    period = 2.0
    mh = hb.MatrixHarmonics.from_time_grid(rng.normal(size=(2, 2, 4 * n_harmonics + 1)),
                                           period, 2 * n_harmonics)
    op = hb.toeplitz_from_periodic(mh, n_harmonics) - hb.stacked_diff_matrix(
        2, n_harmonics, mh.omega0)
    real = hb.real_form(op, 2, n_harmonics)
    assert real.dtype == np.float64 and real.shape == op.shape
    u = rng.normal(size=(len(op), 3))
    amps = op @ hb.unpack_real_coefficients(u, 2, n_harmonics).reshape(len(op), 3)
    assert np.max(np.abs(real @ u - hb.pack_real_coefficients(amps.reshape(2, -1, 3)))) < 1e-12
