"""Eigenproblem tests: assembly, scalar roots, Hill and contour routes, polish, classes."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.special import lambertw

from memflo import cycles as C
from memflo import floquet as F
from memflo import hb
from memflo import kernels as K
from memflo import models as M
from memflo.errors import BoundViolation, IncompleteSpectrum
from memflo.oracles import (
    monodromy_multipliers,
    pep_determinant,
    quadratic_memory_exponent,
)

LAM_A0_K3 = 0.30277563773199456   # (-3 + sqrt(13)) / 2
LAM_AM2_K3 = -1.3819660112501051  # (-5 + sqrt(5)) / 2


def scalar_problem(a, k, s=math.inf, n_harmonics=0, period=2 * math.pi):
    omega0 = 2 * math.pi / period
    jac = hb.toeplitz_from_periodic(hb.MatrixHarmonics.constant([[a]], omega0),
                                    n_harmonics=n_harmonics)
    mt = K.MemoryTransfer(K.ExponentialDecay([[1.0]], k),
                          truncation=None if math.isinf(s) else s)
    return F.FloquetProblem(jac, mt, period, n_harmonics, 1)


def memoryless_problem(a, n_harmonics=2, period=2 * math.pi):
    omega0 = 2 * math.pi / period
    jac = hb.toeplitz_from_periodic(hb.MatrixHarmonics.constant([[a]], omega0),
                                    n_harmonics=n_harmonics)
    return F.FloquetProblem(jac, None, period, n_harmonics, 1)


# --- residual assembly ----------------------------------------------------------


def test_assemble_memoryless_constant_diagonal():
    a = 0.7
    p = memoryless_problem(a, n_harmonics=2)
    lam = 0.3 + 0.1j
    r = F.assemble_residual_matrix(p, lam)
    expected = np.diag([lam + 1j * h - a for h in range(-2, 3)])
    assert np.max(np.abs(r - expected)) < 1e-14


def test_assemble_scalar_memory_root_is_singular():
    p = scalar_problem(0.0, 3.0, n_harmonics=2)
    r = F.assemble_residual_matrix(p, LAM_A0_K3)
    assert np.linalg.svd(r, compute_uv=False)[-1] < 1e-5


def test_assemble_delay_diagonal():
    n = 1
    period = 2 * math.pi
    jac = hb.toeplitz_from_periodic(hb.MatrixHarmonics.constant([[0.0]], 1.0),
                                    n_harmonics=n)
    mt = K.MemoryTransfer(K.Delay([[1.0]], 0.5))
    p = F.FloquetProblem(jac, mt, period, n, 1)
    lam = 0.2 + 0.3j
    r = F.assemble_residual_matrix(p, lam)
    for idx, h in enumerate(range(-n, n + 1)):
        want = lam + 1j * h - np.exp(-(lam + 1j * h) * 0.5)
        assert r[idx, idx] == pytest.approx(want, abs=1e-14)


# --- scalar root hunting ---------------------------------------------------------


def test_solve_scalar_asymptotic_memory():
    spec = F.solve_scalar(scalar_problem(0.0, 3.0))
    assert len(spec.canonical_strip) == 1
    assert spec.canonical_strip[0].exponent == pytest.approx(LAM_A0_K3, abs=1e-10)


def test_solve_scalar_no_memory_window():
    spec = F.solve_scalar(scalar_problem(1.0, 3.0, s=0.0))
    assert spec.canonical_strip[0].exponent == pytest.approx(1.0, abs=1e-12)


def test_solve_scalar_filters_invalid_quadratic_root():
    spec = F.solve_scalar(scalar_problem(-2.0, 3.0))
    exps = [p.exponent for p in spec.canonical_strip]
    assert len(exps) == 1
    assert exps[0] == pytest.approx(LAM_AM2_K3, abs=1e-10)
    # the second quadratic root sits below -k and must not be reported
    assert all(e.real > -3.0 for e in exps)


def test_solve_scalar_matches_quadratic_oracle_across_rates():
    for a in (-2.0, -1.0, 0.0, 1.0, 2.0):
        spec = F.solve_scalar(scalar_problem(a, 3.0))
        lam = max(p.exponent.real for p in spec.canonical_strip)
        assert lam == pytest.approx(quadratic_memory_exponent(a, 3.0), abs=1e-10)


# --- Hill matrix ---------------------------------------------------------------------


def test_hill_matrix_schur_complement_is_minus_residual():
    # eliminating the memory states of the Hill matrix recovers R(lambda)
    p = scalar_problem(0.4, 2.0, n_harmonics=2)
    h = F.hill_matrix(p)
    size = p.size
    assert h.shape == (2 * size, 2 * size)
    for lam in (0.3 + 0.2j, -0.5 + 1.1j):
        shifted = h - lam * np.eye(len(h))
        schur = shifted[:size, :size] - shifted[:size, size:] @ np.linalg.solve(
            shifted[size:, size:], shifted[size:, :size])
        r = F.assemble_residual_matrix(p, lam)
        assert np.max(np.abs(schur + r)) < 1e-12


def test_hill_matrix_adds_states_only_on_kernel_rows():
    # kernel acting on the second component only: one memory state per harmonic
    omega0 = 1.0
    n = 1
    jac = hb.toeplitz_from_periodic(
        hb.MatrixHarmonics.constant([[0.0, 1.0], [-1.0, 0.0]], omega0), n_harmonics=n)
    c = np.array([[0.0, 0.0], [0.0, 1.0]])
    mt = K.MemoryTransfer(K.ExponentialDecay(c, 2.0))
    p = F.FloquetProblem(jac, mt, 2 * math.pi, n, 2)
    h = F.hill_matrix(p)
    m = 2 * n + 1
    assert h.shape == (p.size + m, p.size + m)
    assert np.max(np.abs(h[:m, p.size:])) == 0.0  # position rows see no memory
    assert np.array_equal(h[m:p.size, p.size:], np.eye(m))


def test_hill_matrix_memoryless_is_plain_hill_operator():
    p = memoryless_problem(0.5, n_harmonics=1)
    want = 0.5 * np.eye(3) - hb.stacked_diff_matrix(1, 1, 1.0)
    assert np.array_equal(F.hill_matrix(p), want)


def test_hill_matrix_modulated_memory_row_structure():
    # memory state with a modulated input, dz/dt = q, dq/dt = -2 q + B(t) z with
    # B = 1 + 0.5 cos t: eliminating q couples harmonic neighbors with row-indexed poles
    n = 2
    coeffs = np.zeros((2, 2, 3), dtype=complex)
    coeffs[0, 1, 1] = 1.0
    coeffs[1, 1, 1] = -2.0
    coeffs[1, 0, 1] = 1.0   # constant part of B
    coeffs[1, 0, 2] = 0.25  # e^{+i w0 t}
    coeffs[1, 0, 0] = 0.25
    jac = hb.toeplitz_from_periodic(hb.MatrixHarmonics(2, 2, 1, coeffs, omega0=1.0),
                                    n_harmonics=n)
    p = F.FloquetProblem(jac, None, 2 * math.pi, n, 2, memory_rate=2.0)
    h = F.hill_matrix(p)
    m = 2 * n + 1
    omegas = np.arange(-n, n + 1) * 1.0
    lam = 0.3
    shifted = h - lam * np.eye(2 * m)
    schur = shifted[:m, :m] - shifted[:m, m:] @ np.linalg.solve(shifted[m:, m:],
                                                               shifted[m:, :m])
    mat = schur + np.diag(lam + 1j * omegas)  # the memory coupling Q(lambda)
    for j in range(m):
        pole = 2.0 + lam + 1j * omegas[j]
        assert mat[j, j] == pytest.approx(1.0 / pole, abs=1e-14)
        if j + 1 < m:
            assert mat[j + 1, j] == pytest.approx(0.25 / (2.0 + lam + 1j * omegas[j + 1]),
                                                  abs=1e-14)
    assert p.critical_exponent == 2.0


def test_linear_operator_is_built_once_per_problem(monkeypatch):
    p, _ = periodic_2d_problem(n_harmonics=6)
    builds = []
    real = F.stacked_diff_matrix

    def counting(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(F, "stacked_diff_matrix", counting)
    spec = F.floquet_spectrum(p)  # Hill matrix, then one assembly per polished pair
    F.splitting_shift(p, spec.canonical_strip[0])
    assert len(builds) == 1
    assert not p.linear_operator.flags.writeable


def test_hill_matrix_rejects_truncated_memory():
    with pytest.raises(ValueError, match="untruncated"):
        F.hill_matrix(scalar_problem(0.0, 3.0, s=2.0, n_harmonics=1))


# --- real form of the Hill matrix ----------------------------------------------------


def particle_problem(n_harmonics):
    model = M.BrownianParticleModel(alpha=1.0, beta=1.0, g=0.1, k=1.0, omega_bar=(2.0, 2.0))
    cycle, _ = M.particle_spectrum(model, n_harmonics=n_harmonics)
    return C.linearize(M.particle_system(model), cycle)


@pytest.mark.parametrize("build", [lambda: particle_problem(12),
                                   lambda: scalar_problem(0.4, 2.0, n_harmonics=3)],
                         ids=["particle", "scalar_memory_states"])
def test_hill_real_form_keeps_the_hill_spectrum(build):
    p = build()
    h = F.hill_matrix(p)
    n_states = len(h) // (2 * p.n_harmonics + 1)
    real = hb.real_form(h, n_states, p.n_harmonics)
    assert real.dtype == np.float64
    lams, vecs = scipy.linalg.eig(real)
    want = scipy.linalg.eigvals(h)
    rows, cols = linear_sum_assignment(np.abs(lams[:, None] - want[None, :]))
    assert np.all(np.abs(lams[rows] - want[cols]) <= 1e-12 * (1 + np.abs(want[cols])))
    back = hb.unpack_real_coefficients(vecs, n_states, p.n_harmonics).reshape(len(h), -1)
    resid = np.linalg.norm(h @ back - back * lams, axis=0)
    assert np.all(resid <= 1e-10 * np.linalg.norm(back, axis=0))


def test_hill_route_rejects_a_linearization_that_is_not_real():
    p = memoryless_problem(-0.5 + 0.2j, n_harmonics=2)  # a complex constant coefficient
    with pytest.raises(ValueError, match="conjugate symmetry"):
        F.floquet_spectrum(p)


# --- solve_pep --------------------------------------------------------------------


def test_solve_pep_degree_one():
    res = F.solve_pep([np.array([[-2.0]]), np.array([[1.0]])])
    assert res.total == 1
    assert res.eigenpairs[0][0] == pytest.approx(2.0, abs=1e-12)


def test_solve_pep_degree_two_scalar():
    res = F.solve_pep([np.array([[-1.0]]), np.array([[0.0]]), np.array([[1.0]])])
    lams = sorted(l.real for l, _, _ in res.eigenpairs)
    assert lams == pytest.approx([-1.0, 1.0], abs=1e-12)


def test_solve_pep_random_against_determinant_scan():
    rng = np.random.default_rng(12)
    for case in range(16):
        m = rng.integers(2, 5)
        coeffs = [rng.normal(size=(m, m)) for _ in range(3)]
        if case >= 10:  # identity leading coefficient: the standard-eig branch
            coeffs = coeffs[:1 + case % 2] + [np.eye(m)]
        degree = len(coeffs) - 1
        res = F.solve_pep(coeffs)
        assert res.total == degree * m
        assert len(res.eigenpairs) == degree * m
        for lam, vec, resid in res.eigenpairs:
            assert resid < 1e-8
            assert abs(pep_determinant(coeffs, lam)) < 1e-6


def test_solve_pep_counts_infinite_eigenvalues():
    p2 = np.diag([1.0, 0.0])  # singular leading block
    res = F.solve_pep([np.eye(2), np.eye(2), p2])
    assert res.total == 4
    assert res.n_infinite >= 1


# --- refinement -------------------------------------------------------------------


def test_refine_exact_pair_is_fixed_point():
    p = memoryless_problem(0.5, n_harmonics=1)
    vec = np.zeros(3, dtype=complex)
    vec[1] = 1.0
    out = F.refine_eigenpair(p, 0.5, vec)
    assert out.exponent == pytest.approx(0.5, abs=1e-14)
    assert out.residual < 1e-14


def test_refine_scalar_memory_seed():
    p = scalar_problem(0.0, 3.0, n_harmonics=2)
    vec = np.zeros(5, dtype=complex)
    vec[2] = 1.0
    out = F.refine_eigenpair(p, 0.30, vec)
    assert out is not None
    assert out.exponent == pytest.approx(LAM_A0_K3, abs=1e-10)
    assert out.residual < 1e-10


def test_refine_recovers_from_perturbed_vector():
    rng = np.random.default_rng(4)
    p = scalar_problem(0.0, 3.0, n_harmonics=2)
    vec = np.zeros(5, dtype=complex)
    vec[2] = 1.0
    vec += 1e-3 * (rng.normal(size=5) + 1j * rng.normal(size=5))
    out = F.refine_eigenpair(p, LAM_A0_K3, vec)
    assert out.residual < 1e-10
    assert out.exponent == pytest.approx(LAM_A0_K3, abs=1e-9)


def test_refine_rejects_bad_seed():
    p = scalar_problem(0.0, 3.0, n_harmonics=1)
    vec = np.ones(3, dtype=complex)
    with pytest.raises(ValueError, match="residual"):
        F.refine_eigenpair(p, 5.0, vec)


def test_refine_returns_none_where_the_transfer_overflows():
    # e^{-150 lambda} is beyond the float range at Re lambda = -5: no pair is certified
    p = delay_problem(1, 2 * math.pi, tau=150.0)
    vec = np.zeros(3, dtype=complex)
    vec[1] = 1.0
    assert F.refine_eigenpair(p, -5.0, vec) is None


# --- canonicalization --------------------------------------------------------------


def _plain_pair(lam, period=2 * math.pi, residual=0.0, n=2):
    vec = np.zeros(2 * n + 1, dtype=complex)
    vec[n] = 1.0
    hv = hb.HarmonicVector(1, n, vec[None, :], 2 * math.pi / period)
    return F.FloquetEigenpair(lam, np.exp(lam * period), hv, residual)


def test_canonicalize_merges_splitting_ladder():
    omega0 = 1.0
    lam = 0.1 + 0.2j
    pairs = [_plain_pair(lam), _plain_pair(lam + 1j * omega0), _plain_pair(lam + 2j * omega0)]
    spec = F.canonicalize_spectrum(pairs, omega0)
    assert len(spec.canonical_strip) == 1
    assert spec.canonical_strip[0].exponent == pytest.approx(lam, abs=1e-12)
    assert spec.canonical_strip[0].multiplier == pytest.approx(np.exp(lam * 2 * math.pi),
                                                               abs=1e-10)


def test_canonicalize_keeps_upper_strip_edge():
    omega0 = 2.0
    lam = 0.3 + 1j * omega0 / 2
    spec = F.canonicalize_spectrum([_plain_pair(lam, period=math.pi)], omega0)
    assert spec.canonical_strip[0].exponent == pytest.approx(lam, abs=1e-12)
    lam_low = 0.3 - 1j * omega0 / 2
    spec = F.canonicalize_spectrum([_plain_pair(lam_low, period=math.pi)], omega0)
    assert spec.canonical_strip[0].exponent == pytest.approx(lam, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-2, max_value=2), st.floats(min_value=-20, max_value=20),
       st.floats(min_value=0.5, max_value=4.0))
def test_canonicalize_strip_property(re, im, omega0):
    period = 2 * math.pi / omega0
    spec = F.canonicalize_spectrum([_plain_pair(complex(re, im), period=period)], omega0)
    lam = spec.canonical_strip[0].exponent
    assert -omega0 / 2 < lam.imag <= omega0 / 2 + 1e-12
    assert lam.real == pytest.approx(re, abs=1e-12)
    # multiplier is the same as for the raw exponent
    assert spec.canonical_strip[0].multiplier == pytest.approx(
        np.exp(complex(re, im) * period), rel=1e-9)


def test_canonicalize_trivial_class_exclusion():
    omega0 = 1.0
    pairs = [_plain_pair(1e-9 + 0j), _plain_pair(-0.4 + 0j)]
    spec = F.canonicalize_spectrum(pairs, omega0, autonomous=True)
    trivial = [p for p in spec.canonical_strip if p.trivial]
    assert len(trivial) == 1
    assert spec.stability == "Stable"
    # without the autonomous flag the near-zero class decides the verdict
    spec2 = F.canonicalize_spectrum(pairs, omega0, autonomous=False)
    assert spec2.stability == "Marginal"


def test_stability_thresholds():
    omega0 = 1.0
    assert F.canonicalize_spectrum([_plain_pair(0.5)], omega0).stability == "Unstable"
    assert F.canonicalize_spectrum([_plain_pair(-0.5)], omega0).stability == "Stable"
    assert F.canonicalize_spectrum([_plain_pair(1e-8 + 0j)], omega0).stability == "Marginal"


# --- end-to-end spectra -------------------------------------------------------------


def periodic_2d_problem(n_harmonics=16, period=2 * math.pi):
    omega0 = 2 * math.pi / period

    def a_of_t(t):
        return np.array([[-0.3 + 0.5 * np.cos(omega0 * t), 1.0],
                         [-1.0, -0.2 + 0.4 * np.sin(omega0 * t)]])

    g = 4 * n_harmonics + 1
    times = period * np.arange(1, g + 1) / g
    samples = np.stack([a_of_t(t) for t in times], axis=2)
    mh = hb.MatrixHarmonics.from_time_grid(samples, period, 2 * n_harmonics)
    jac = hb.toeplitz_from_periodic(mh, n_harmonics=n_harmonics)
    return F.FloquetProblem(jac, None, period, n_harmonics, 2), a_of_t


def match_nearest(got, want):
    """Greedy pairing of two eigenvalue sets; returns the worst relative gap."""
    got = list(got)
    worst = 0.0
    for w in want:
        gaps = [abs(g - w) for g in got]
        i = int(np.argmin(gaps))
        worst = max(worst, gaps[i] / max(abs(w), 1e-300))
        got.pop(i)
    return worst


def test_memoryless_multipliers_match_monodromy_oracle():
    p, a_of_t = periodic_2d_problem()
    spec = F.floquet_spectrum(p)
    assert len(spec.canonical_strip) == 2
    want = monodromy_multipliers(a_of_t, 2, p.period)
    assert match_nearest(spec.multipliers, want) < 1e-6


@pytest.mark.parametrize("n", [3, 12])
def test_mathieu_tongue_keeps_one_copy_of_each_class(n):
    # x'' + 0.05x' + (1 + 0.4 cos 2t)x = 0: two negative multipliers, so both classes
    # have copies at harmonic centroids -1/2 and +1/2, and exactly one of each is kept
    coeffs = np.zeros((2, 2, 3))
    coeffs[:, :, 1] = [[0.0, 1.0], [-1.0, -0.05]]
    coeffs[1, 0, [0, 2]] = -0.2
    mathieu = hb.MatrixHarmonics(2, 2, 1, coeffs, 2.0)
    p = F.FloquetProblem(hb.toeplitz_from_periodic(mathieu, n_harmonics=n), None, math.pi, n, 2)
    spec = F.floquet_spectrum(p)
    assert len(spec.canonical_strip) == 2
    assert spec.diagnostics["n_certified"] == 2
    want = monodromy_multipliers(lambda t: mathieu.evaluate(t).real, 2, p.period)
    assert all(w.real < -0.5 for w in want)
    assert match_nearest(spec.multipliers, want) < 1e-10


def test_hill_route_raises_on_a_lost_class(monkeypatch):
    # a class whose polish fails leaves the count one short of the two Hill states
    p, _ = periodic_2d_problem(n_harmonics=6)
    refine = F.refine_eigenpair
    seeds = []

    def failing_first(problem, exponent, vector):
        seeds.append(exponent)
        return None if len(seeds) == 1 else refine(problem, exponent, vector)

    monkeypatch.setattr(F, "refine_eigenpair", failing_first)
    with pytest.raises(IncompleteSpectrum, match="1 of 2 Hill classes"):
        F.floquet_spectrum(p)


def test_splitting_closure_of_computed_pairs():
    p, _ = periodic_2d_problem()
    spec = F.floquet_spectrum(p)
    for pair in spec.canonical_strip:
        shifted = F.splitting_shift(p, pair)
        assert shifted.residual < 1e-8
        merged = F.canonicalize_spectrum([pair, shifted], p.omega0)
        assert len(merged.canonical_strip) == 1


def test_splitting_closure_with_memory():
    p = scalar_problem(0.0, 3.0, n_harmonics=6)
    spec = F.floquet_spectrum(p)
    assert len(spec.canonical_strip) == 1
    shifted = F.splitting_shift(p, spec.canonical_strip[0])
    assert shifted.residual < 1e-10


def test_floquet_spectrum_residual_certificate():
    p, _ = periodic_2d_problem(n_harmonics=12)
    spec = F.floquet_spectrum(p)
    for pair in spec.canonical_strip:
        assert pair.residual < 1e-8
        assert abs(pair.multiplier - np.exp(pair.exponent * p.period)) \
            <= 1e-12 * abs(pair.multiplier)


def test_floquet_spectrum_bound_filter_diagnostics():
    p = scalar_problem(0.0, 3.0, n_harmonics=3)
    spec = F.floquet_spectrum(p)
    # the Hill matrix's class below -k, its centred copy only, is discarded and logged
    assert spec.diagnostics["n_bound_filtered"] == 1
    assert all(re <= -3.0 + 1e-6 for re, _ in spec.diagnostics["bound_filtered"])
    assert len(spec.canonical_strip) == 1
    assert spec.canonical_strip[0].exponent == pytest.approx(LAM_A0_K3, abs=1e-10)


def test_floquet_spectrum_autonomous_needs_trivial_class():
    # y' = -y has no exponent near zero, so it is no autonomous cycle's spectrum
    with pytest.raises(IncompleteSpectrum):
        F.floquet_spectrum(memoryless_problem(-1.0), autonomous=True)
    assert F.floquet_spectrum(memoryless_problem(0.0), autonomous=True).stability == "Marginal"


def test_solve_scalar_rejects_periodic_coefficient():
    coeffs = np.zeros((1, 1, 3), dtype=complex)
    coeffs[0, 0, 1] = 0.5
    coeffs[0, 0, 0] = coeffs[0, 0, 2] = 0.2  # genuinely periodic a(t)
    mh = hb.MatrixHarmonics(1, 1, 1, coeffs, omega0=1.0)
    jac = hb.toeplitz_from_periodic(mh)
    mt = K.MemoryTransfer(K.ExponentialDecay([[1.0]], 3.0))
    p = F.FloquetProblem(jac, mt, 2 * math.pi, 1, 1)
    with pytest.raises(ValueError, match="constant"):
        F.solve_scalar(p)


# --- contour-route spectra for delay, sampled and truncated kernels -----------------


def test_taylor_route_matches_scalar_route_for_finite_window():
    # finite memory window: the polynomial route with Newton polish must agree
    # with direct scalar root hunting
    p = scalar_problem(0.0, 3.0, s=2.0, n_harmonics=3)
    spec_taylor = F.floquet_spectrum(p)
    spec_scalar = F.solve_scalar(p)
    lam_t = max(q.exponent.real for q in spec_taylor.canonical_strip)
    lam_s = max(q.exponent.real for q in spec_scalar.canonical_strip)
    assert lam_t == pytest.approx(lam_s, abs=1e-9)
    assert all(q.residual < 1e-8 for q in spec_taylor.canonical_strip)


def test_sampled_kernel_spectrum_matches_closed_form_window():
    # a sampled exponential with compact support equals the truncated window
    k, support = 3.0, 2.0
    u = np.linspace(0, support, 240)
    values = np.exp(-k * u)[None, :, None, None]
    mt = K.MemoryTransfer(K.FiniteSupportSampled(values, support))
    jac = hb.toeplitz_from_periodic(hb.MatrixHarmonics.constant([[0.0]], 1.0),
                                    n_harmonics=2)
    p = F.FloquetProblem(jac, mt, 2 * math.pi, 2, 1)
    spec = F.floquet_spectrum(p)
    ref = F.solve_scalar(scalar_problem(0.0, k, s=support, n_harmonics=2))
    lam_ref = max(q.exponent.real for q in ref.canonical_strip)
    lam = max(q.exponent.real for q in spec.canonical_strip)
    assert lam == pytest.approx(lam_ref, abs=1e-7)


def test_delay_kernel_characteristic_root():
    # dy/dt = a y(t) + b y(t - tau): exponents solve lam = a + b e^{-lam tau}
    a, b, tau = -1.0, 0.5, 1.0
    omega0 = 1.0
    jac = hb.toeplitz_from_periodic(hb.MatrixHarmonics.constant([[a]], omega0),
                                    n_harmonics=2)
    mt = K.MemoryTransfer(K.Delay([[b]], tau))
    p = F.FloquetProblem(jac, mt, 2 * math.pi, 2, 1)

    # independent oracle: plain Newton on the scalar characteristic equation
    lam = 0.0
    for _ in range(200):
        g = lam - a - b * math.exp(-lam * tau)
        gp = 1.0 + b * tau * math.exp(-lam * tau)
        lam -= g / gp
    assert abs(lam - a - b * math.exp(-lam * tau)) < 1e-14

    spec = F.solve_scalar(p)
    lam_s = max(q.exponent.real for q in spec.canonical_strip)
    assert lam_s == pytest.approx(lam, abs=1e-10)

    spec_m = F.floquet_spectrum(p)
    lam_m = max(q.exponent.real for q in spec_m.canonical_strip)
    assert lam_m == pytest.approx(lam, abs=1e-9)


def delay_problem(n_harmonics, period, a=-1.0, b=0.5, dim=1, tau=1.0):
    # y' = a y + b y(t-tau) in each of dim uncoupled components
    jac = hb.toeplitz_from_periodic(
        hb.MatrixHarmonics.constant(a * np.eye(dim), 2 * math.pi / period),
        n_harmonics=n_harmonics)
    return F.FloquetProblem(jac, K.MemoryTransfer(K.Delay(b * np.eye(dim), tau)), period,
                            n_harmonics, dim)


def test_contour_route_finds_every_lambert_w_class_in_the_rectangle():
    # y' = -y + y(t-1)/2: lam = -1 + W_k(e/2); the rectangle [-5, 1] x strip holds the
    # branches 0, +-1, ..., +-4, each one class
    p = delay_problem(8, 2.0)
    spec = F.floquet_spectrum(p)
    diag = spec.diagnostics
    assert diag["route"] == "contour"
    assert diag["contour"]["re"] == pytest.approx([-5.0, 1.0], abs=1e-12)
    assert diag["n_enclosed"] == diag["n_certified"] == 9
    want = [-1.0 + complex(lambertw(math.e / 2, k)) for k in range(-4, 5)]
    want = [w - 1j * p.omega0 * F._strip_steps(w.imag, p.omega0) for w in want]
    assert len(spec.canonical_strip) == 9
    assert max(min(abs(got - w) for got in spec.exponents) for w in want) < 1e-9
    assert all(q.residual < 1e-8 for q in spec.canonical_strip)


def test_contour_route_encloses_a_dominant_root_far_below_its_upper_edge():
    # y' = 8y - 7y(t-1): mu_2 + integral ||K|| = 15 overestimates the root 8 + W_0(-7/e^8)
    p = delay_problem(2, 2.0, a=8.0, b=-7.0)
    spec = F.floquet_spectrum(p)
    assert spec.diagnostics["contour"]["re"] == pytest.approx([-5.0, 16.0], abs=1e-12)
    lam = 8.0 + complex(lambertw(-7.0 * math.exp(-8.0), 0))
    assert spec.canonical_strip[0].exponent == pytest.approx(lam, abs=1e-9)
    assert spec.stability == "Unstable"


def test_contour_route_counts_a_repeated_exponent_with_its_multiplicity():
    # two identical uncoupled components double every root of the scalar problem
    single = F.floquet_spectrum(delay_problem(3, 2.0))
    double = F.floquet_spectrum(delay_problem(3, 2.0, dim=2))
    assert double.diagnostics["n_enclosed"] == 2 * single.diagnostics["n_enclosed"] > 0
    assert double.diagnostics["n_certified"] == 2 * single.diagnostics["n_certified"]
    assert np.allclose(double.exponents, single.exponents, atol=1e-9)


def test_contour_route_that_encloses_no_exponent_is_incomplete():
    # y' = -10y + 1e-6 y(t-1): the root near -9.98 lies left of the edge at Re = -5
    with pytest.raises(IncompleteSpectrum, match="no exponent"):
        F.floquet_spectrum(delay_problem(2, 2 * math.pi, a=-10.0, b=1e-6))


def test_contour_route_raises_where_a_long_delay_overflows():
    # y' = -y + y(t-150)/2: e^{-150 lambda} is beyond the float range on the left edge
    # Re = -5, so the route raises there instead of integrating a stand-in value
    with pytest.raises(BoundViolation, match="not finite"):
        F.floquet_spectrum(delay_problem(2, 2 * math.pi, tau=150.0))


def test_contour_route_raises_on_a_lost_candidate(monkeypatch):
    # a candidate whose polish fails leaves the count unmatched at every node count
    p = delay_problem(8, 2.0)
    refine = F.refine_eigenpair

    def failing(problem, exponent, vector):
        if abs(exponent - (-1.0 + lambertw(math.e / 2).real)) < 1e-6:
            return None
        return refine(problem, exponent, vector)

    monkeypatch.setattr(F, "refine_eigenpair", failing)
    monkeypatch.setattr(F, "CONTOUR_DOUBLINGS", 1)
    with pytest.raises(IncompleteSpectrum, match="64 nodes"):
        F.floquet_spectrum(p)


def modulated_sampled_kernel(period, n_t=5, n_u=200, support=1.5):
    # G(t, u) = (1 + cos(omega0 t) / 2) exp(-2 u) sampled on one period of t
    t = period * np.arange(n_t) / n_t
    u = np.linspace(0.0, support, n_u)
    g = (1 + 0.5 * np.cos(2 * math.pi * t / period))[:, None] * np.exp(-2.0 * u)[None, :]
    return K.FiniteSupportSampled(g[:, :, None, None], support, period=period)


def test_sampled_time_varying_memory_matrix_matches_closed_form():
    # G_0 = exp(-2u) and G_{+-1} = exp(-2u)/4 on [0, 1.5]: the diagonal is the truncated
    # exponential transfer and each first off-diagonal a quarter of its column's diagonal
    period = 2 * math.pi
    kern = modulated_sampled_kernel(period)
    assert np.max(np.abs(kern.t_coefficient(2))) < 1e-15
    assert np.array_equal(kern.t_coefficient(3), np.zeros((200, 1, 1)))  # beyond the samples
    mt = K.MemoryTransfer(kern)
    omegas = np.arange(-3, 4) * 1.0
    lam = 0.3 + 0.2j
    mat = K.memory_matrix(mt, lam, omegas)
    window = K.MemoryTransfer(K.ExponentialDecay([[1.0]], 2.0), truncation=1.5)
    diag = np.array([K.transfer_at(window, lam, w)[0, 0] for w in omegas])
    assert np.max(np.abs(np.diag(mat) - diag)) < 1e-9
    assert np.max(np.abs(np.diag(mat, -1) - diag[:-1] / 4)) < 1e-9
    assert np.max(np.abs(np.diag(mat, 1) - diag[1:] / 4)) < 1e-9
    assert np.max(np.abs(np.triu(mat, 2)) + np.abs(np.tril(mat, -2))) < 1e-15
    assert np.max(np.abs(np.triu(mat, 3)) + np.abs(np.tril(mat, -3))) == 0.0


@pytest.mark.parametrize("truncation", [None, 1.1])
def test_time_varying_memory_matrix_shares_panel_weights_bit_for_bit(truncation):
    # every block equals its t-coefficient's transfer computed alone
    kern = modulated_sampled_kernel(2 * math.pi)
    mt = K.MemoryTransfer(kern, truncation)
    omegas = np.arange(-3, 4) * 1.0
    lam = 0.3 + 0.2j
    for power, build in ((0, K.memory_matrix), (1, K.memory_matrix_dlambda)):
        mat = build(mt, lam, omegas)
        for h, w in enumerate(omegas):
            for m, spline in kern.splines.items():
                if 0 <= h + m < len(omegas):
                    alone = K._spline_transfers([spline], truncation, lam + 1j * w, power)[0]
                    assert mat[h + m, h] == alone[0, 0]


def test_contour_route_certifies_time_varying_sampled_kernel():
    # the only non-Hill problem with harmonic coupling: G = (1 + cos(t)/2) exp(-2u)
    n, period = 3, 2 * math.pi
    jac = hb.toeplitz_from_periodic(hb.MatrixHarmonics.constant([[0.0]], 1.0),
                                    n_harmonics=n)
    mt = K.MemoryTransfer(modulated_sampled_kernel(period))
    p = F.FloquetProblem(jac, mt, period, n, 1)
    spec = F.floquet_spectrum(p)
    diag = spec.diagnostics
    assert diag["route"] == "contour"
    assert diag["n_enclosed"] == len(spec.canonical_strip) + diag["n_bound_filtered"] > 0
    assert all(q.residual < F.CERTIFICATE_TOL for q in spec.canonical_strip)


def test_problem_rejects_sampled_kernel_of_another_period():
    jac = hb.toeplitz_from_periodic(hb.MatrixHarmonics.constant([[0.0]], 1.0),
                                    n_harmonics=2)
    mt = K.MemoryTransfer(modulated_sampled_kernel(3.0))
    with pytest.raises(ValueError, match="period"):
        F.FloquetProblem(jac, mt, 2 * math.pi, 2, 1)


def test_canonicalize_merges_copies_split_across_strip_edge():
    omega0 = 2.0
    eps = 1e-12
    upper = _plain_pair(0.1 + 1j * (omega0 / 2 - eps), period=math.pi, residual=1e-12)
    lower = _plain_pair(0.1 - 1j * (omega0 / 2 - eps), period=math.pi, residual=1e-10)
    spec = F.canonicalize_spectrum([upper, lower], omega0)
    assert len(spec.canonical_strip) == 1
    assert spec.canonical_strip[0].residual == 1e-12  # best copy kept


# --- one class rule -----------------------------------------------------------------


def constant_problem(a, n_harmonics, period=2 * math.pi):
    a = np.asarray(a, dtype=float)
    jac = hb.toeplitz_from_periodic(hb.MatrixHarmonics.constant(a, 2 * math.pi / period),
                                    n_harmonics=n_harmonics)
    return F.FloquetProblem(jac, None, period, n_harmonics, len(a))


@pytest.mark.parametrize("n", [2, 4, 9])
def test_copies_split_across_the_strip_edge_are_polished_once(monkeypatch, n):
    # exponents -0.1 +- i*omega0/2 are one class whose copies round to either strip edge
    omega0 = 1.0
    p = constant_problem([[-0.1, omega0 / 2], [-omega0 / 2, -0.1]], n)
    seeds = []
    refine = F.refine_eigenpair

    def counted(problem, exponent, vector):
        seeds.append(exponent)
        return refine(problem, exponent, vector)

    monkeypatch.setattr(F, "refine_eigenpair", counted)
    spec = F.floquet_spectrum(p)
    assert len(seeds) == 1
    assert len(spec.canonical_strip) == 1
    lam = spec.exponents[0]
    assert (lam.real, abs(lam.imag)) == pytest.approx((-0.1, omega0 / 2), abs=1e-12)
    assert spec.diagnostics["n_certified"] == 2  # one centred copy of each state


def test_time_invariant_problem_keeps_exponents_a_strip_apart():
    # with no harmonics nothing is folded: -0.2 +- 3i are two classes, not one at -0.2
    p = constant_problem([[-0.2, 3.0], [-3.0, -0.2]], 0)
    spec = F.floquet_spectrum(p)
    assert len(spec.canonical_strip) == 2
    assert sorted(spec.exponents, key=lambda z: z.imag) == [
        pytest.approx(-0.2 - 3j, abs=1e-12), pytest.approx(-0.2 + 3j, abs=1e-12)]


def test_overflowing_multiplier_reads_infinite():
    # y' = 120 y: exp(120 * 2 pi) is beyond the float range
    spec = F.floquet_spectrum(memoryless_problem(120.0, n_harmonics=2))
    assert spec.stability == "Unstable"
    assert spec.exponents[0] == pytest.approx(120.0, abs=1e-12)
    assert math.isinf(abs(spec.multipliers[0]))
    assert F.floquet_multiplier(-1000.0 + 0j, 2 * math.pi) == 0


def test_contour_retry_moves_the_strip():
    # the root copy at -4.301 + 0.601i sits 0.024 below the first rectangle's upper
    # edge; the second attempt's edges at (3/8 +- 1/2) omega0 are far from every root
    assert all((2 * s) % 1 != 0 for s in F.CONTOUR_SHIFTS)
    k, support = 3.0, 2.0
    u = np.linspace(0, support, 240)
    mt = K.MemoryTransfer(K.FiniteSupportSampled(np.exp(-k * u)[None, :, None, None],
                                                 support))
    jac = hb.toeplitz_from_periodic(hb.MatrixHarmonics.constant([[0.0]], 1.0),
                                    n_harmonics=2)
    spec = F.floquet_spectrum(F.FloquetProblem(jac, mt, 2 * math.pi, 2, 1))
    contour = spec.diagnostics["contour"]
    assert contour["nodes_per_side"] <= 64
    assert contour["im"] == pytest.approx([-0.125, 0.875], abs=1e-12)


def test_contour_retry_reuses_the_real_extent(monkeypatch):
    # only the Im edges move with the strip, so the Re edges are bounded once per spectrum
    calls = []
    bound = F.truncation_error_bound
    monkeypatch.setattr(F, "truncation_error_bound", lambda *a: calls.append(a) or bound(*a))
    k, support = 3.0, 2.0
    u = np.linspace(0, support, 240)
    mt = K.MemoryTransfer(K.FiniteSupportSampled(np.exp(-k * u)[None, :, None, None],
                                                 support))
    jac = hb.toeplitz_from_periodic(hb.MatrixHarmonics.constant([[0.0]], 1.0),
                                    n_harmonics=2)
    spec = F.floquet_spectrum(F.FloquetProblem(jac, mt, 2 * math.pi, 2, 1))
    assert spec.diagnostics["contour"]["nodes_per_side"] > F.CONTOUR_NODES  # it retried
    assert len(calls) == 1
