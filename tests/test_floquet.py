"""Eigenproblem tests: assembly, scalar roots, Hill and contour routes, polish, classes."""

import math
import sys

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


def window_root(a, k, s, lam=0.0):
    # independent oracle: plain Newton on g = lam - a - (1 - e^{-mu s})/mu, mu = lam + k
    for _ in range(100):
        mu = lam + k
        e = math.exp(-mu * s)
        g = lam - a - (1.0 - e) / mu
        gp = 1.0 - (s * e * mu - (1.0 - e)) / (mu * mu)
        lam -= g / gp
    mu = lam + k
    assert abs(lam - a - (1.0 - math.exp(-mu * s)) / mu) < 1e-14
    return lam


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
    r = F.residual_matrices(p, lam)[0]
    expected = np.diag([lam + 1j * h - a for h in range(-2, 3)])
    assert np.max(np.abs(r - expected)) < 1e-14


def test_assemble_scalar_memory_root_is_singular():
    p = scalar_problem(0.0, 3.0, n_harmonics=2)
    r = F.residual_matrices(p, LAM_A0_K3)[0]
    assert np.linalg.svd(r, compute_uv=False)[-1] < 1e-5


def test_assemble_delay_diagonal():
    n = 1
    period = 2 * math.pi
    jac = hb.toeplitz_from_periodic(hb.MatrixHarmonics.constant([[0.0]], 1.0),
                                    n_harmonics=n)
    mt = K.MemoryTransfer(K.Delay([[1.0]], 0.5))
    p = F.FloquetProblem(jac, mt, period, n, 1)
    lam = 0.2 + 0.3j
    r = F.residual_matrices(p, lam)[0]
    for idx, h in enumerate(range(-n, n + 1)):
        want = lam + 1j * h - np.exp(-(lam + 1j * h) * 0.5)
        assert r[idx, idx] == pytest.approx(want, abs=1e-14)


# --- scalar memory spectra -------------------------------------------------------


def test_scalar_spectrum_asymptotic_memory():
    spec = F.floquet_spectrum(scalar_problem(0.0, 3.0))
    assert spec.diagnostics["route"] == "hill"
    assert len(spec.canonical_strip) == 1
    assert spec.canonical_strip[0].exponent == pytest.approx(LAM_A0_K3, abs=1e-10)


def test_scalar_spectrum_no_memory_window():
    spec = F.floquet_spectrum(scalar_problem(1.0, 3.0, s=0.0))
    assert spec.diagnostics["route"] == "contour"
    assert spec.canonical_strip[0].exponent == pytest.approx(1.0, abs=1e-12)


def test_scalar_spectrum_filters_invalid_quadratic_root():
    spec = F.floquet_spectrum(scalar_problem(-2.0, 3.0))
    exps = [p.exponent for p in spec.canonical_strip]
    assert len(exps) == 1
    assert exps[0] == pytest.approx(LAM_AM2_K3, abs=1e-10)
    # the second quadratic root sits below -k and must not be reported
    assert all(e.real > -3.0 for e in exps)
    assert spec.diagnostics["n_bound_filtered"] == 1


def test_scalar_spectrum_matches_quadratic_oracle_across_rates():
    for a in (-2.0, -1.0, 0.0, 1.0, 2.0):
        spec = F.floquet_spectrum(scalar_problem(a, 3.0))
        lam = max(p.exponent.real for p in spec.canonical_strip)
        assert lam == pytest.approx(quadratic_memory_exponent(a, 3.0), abs=1e-10)


def test_scalar_window_edge_encloses_exactly_the_admissible_root():
    # the contour's left edge (a - k)/2 leaves out the window roots below -k: one real
    # root right of a is enclosed and certified at the first pass, none is filtered; the
    # lemma proves that root real, so its imaginary part is an exact zero
    for a in np.linspace(-2.0, 2.0, 9):
        for s in (0.0, 0.5, 2.0, 10.0, 20.0, 35.0, 50.0):
            spec = F.floquet_spectrum(scalar_problem(float(a), 3.0, s=s))
            d = spec.diagnostics
            assert d["route"] == "contour"
            assert d["contour"]["re"][0] == pytest.approx((a - 3.0) / 2, abs=1e-15)
            assert all(type(v) is float for v in d["contour"]["re"] + d["contour"]["im"])
            assert d["n_enclosed"] == 1 and d["contour"]["nodes_per_side"] == 32
            assert d["n_bound_filtered"] == 0
            assert len(spec.canonical_strip) == 1
            lam = spec.canonical_strip[0].exponent
            assert lam.imag == 0.0 and lam.real >= a - 1e-12  # the lemma proves it real


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
        r = F.residual_matrices(p, lam)[0]
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
    jac = hb.toeplitz_from_periodic(hb.MatrixHarmonics(coeffs, omega0=1.0),
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
    real = hb.real_form(h, p.n_harmonics)
    assert real.dtype == np.float64
    lams, vecs = scipy.linalg.eig(real)
    want = scipy.linalg.eigvals(h)
    rows, cols = linear_sum_assignment(np.abs(lams[:, None] - want[None, :]))
    assert np.all(np.abs(lams[rows] - want[cols]) <= 1e-12 * (1 + np.abs(want[cols])))
    back = hb.unpack_real_coefficients(vecs, p.n_harmonics).reshape(len(h), -1)
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
    hv = hb.HarmonicVector(vec[None, :], 2 * math.pi / period)
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
    mathieu = hb.MatrixHarmonics(coeffs, 2.0)
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


# --- contour-route spectra for delay, sampled and truncated kernels -----------------


def test_taylor_route_matches_scalar_route_for_finite_window():
    # finite memory window on harmonics: the contour route with Newton polish must agree
    # with plain scalar Newton on the characteristic function
    p = scalar_problem(0.0, 3.0, s=2.0, n_harmonics=3)
    spec = F.floquet_spectrum(p)
    lam = max(q.exponent.real for q in spec.canonical_strip)
    assert lam == pytest.approx(window_root(0.0, 3.0, 2.0), abs=1e-9)
    assert all(q.residual < 1e-8 for q in spec.canonical_strip)


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
    lam = max(q.exponent.real for q in spec.canonical_strip)
    assert lam == pytest.approx(window_root(0.0, k, support), abs=1e-7)


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

    spec = F.floquet_spectrum(p)
    lam_m = max(q.exponent.real for q in spec.canonical_strip)
    assert lam_m == pytest.approx(lam, abs=1e-10)


def test_delay_beyond_the_memory_window_leaves_the_memoryless_exponent():
    # y' = -y + y(t - 1)/2 seen through a window of 0.5: the delayed term never enters
    jac = hb.toeplitz_from_periodic(hb.MatrixHarmonics.constant([[-1.0]], 1.0), n_harmonics=2)
    mt = K.MemoryTransfer(K.Delay([[0.5]], 1.0), truncation=0.5)
    spec = F.floquet_spectrum(F.FloquetProblem(jac, mt, 2 * math.pi, 2, 1))
    assert spec.diagnostics["route"] == "contour"
    assert len(spec.canonical_strip) == 1
    assert abs(spec.canonical_strip[0].exponent - (-1.0)) < 1e-12


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


def test_contour_route_certifies_a_long_delay_after_doubling():
    # y' = -y + y(t-20)/2: lam = -1 + W_k(10 e^20)/20; e^{-20 lam} oscillates along the
    # contour with period 2 pi/20 and reaches e^100 on its left edge, so the count
    # resolves only at 512 nodes per side, the fourth doubling
    p = delay_problem(2, 2 * math.pi, tau=20.0)
    spec = F.floquet_spectrum(p)
    diag = spec.diagnostics
    assert diag["contour"]["nodes_per_side"] == 512
    assert diag["n_enclosed"] == diag["n_certified"] == len(spec.canonical_strip) == 17
    want = [-1.0 + complex(lambertw(10.0 * math.exp(20.0), k)) / 20.0 for k in range(-40, 41)]
    want = [w - 1j * p.omega0 * F._strip_steps(w.imag, p.omega0) for w in want]
    assert max(min(abs(got - w) for w in want) for got in spec.exponents) < 1e-9


def test_contour_assembles_once_per_node(monkeypatch):
    # the root count and the Hankel moments read one stack of inverses: 4 sides of 32
    # nodes make 128 assemblies of R and R' together, each from one kernel evaluation
    calls = {"residual_matrices": 0, "memory_matrix": 0}
    originals = {name: getattr(F, name) for name in calls}

    def counting(name):
        def counted(*args):
            calls[name] += 1
            return originals[name](*args)
        return counted

    for name in calls:
        monkeypatch.setattr(F, name, counting(name))
    p = scalar_problem(0.0, 3.0, s=2.0)
    re_lo, re_hi = F._contour_real_extent(p)
    count, lams, _ = F.contour_eigenvalues(p, (re_lo, re_hi, -0.375, 0.625), 32)
    assert calls == {"residual_matrices": 128, "memory_matrix": 128}
    assert abs(count - 1) < F.COUNT_TOL
    assert lams == pytest.approx([window_root(0.0, 3.0, 2.0)], abs=1e-9)


@pytest.mark.parametrize("build", [lambda: delay_problem(2, 2 * math.pi, tau=5.0),
                                   lambda: time_varying_problem()],
                         ids=["delay_tau5", "time_varying_sampled"])
def test_contour_candidates_arrive_with_their_eigenvectors(monkeypatch, build):
    # the Hankel SVD of contour_eigenvalues gives each candidate's eigenvector, so R is
    # assembled and factored nowhere else but in the Newton polish
    callers = {"residual_matrices": [], "svd": []}

    def recording(name, real):
        def recorded(*args, **kwargs):
            callers[name].append(sys._getframe(1).f_code.co_name)
            return real(*args, **kwargs)
        return recorded

    monkeypatch.setattr(F, "residual_matrices",
                        recording("residual_matrices", F.residual_matrices))
    monkeypatch.setattr(np.linalg, "svd", recording("svd", np.linalg.svd))
    spec = F.floquet_spectrum(build())
    assert spec.diagnostics["route"] == "contour" and spec.canonical_strip
    assert set(callers["residual_matrices"]) == {"contour_eigenvalues", "refine_eigenpair"}
    assert set(callers["svd"]) == {"contour_eigenvalues"}


def test_problem_constants_are_built_once_and_read_only():
    p = scalar_problem(0.0, 3.0, s=2.0, n_harmonics=3)
    omegas, ops = p.omegas, p.linear_operator
    assert p.omegas is omegas and p.linear_operator is ops
    assert not omegas.flags.writeable and not ops.flags.writeable
    assert np.array_equal(omegas, np.arange(-3, 4) * p.omega0)
    assert np.array_equal(ops, p.jacobian - hb.stacked_diff_matrix(1, 3, p.omega0))


def time_varying_problem(n=3, period=2 * math.pi):
    jac = hb.toeplitz_from_periodic(hb.MatrixHarmonics.constant([[0.0]], 2 * math.pi / period),
                                    n_harmonics=n)
    return F.FloquetProblem(jac, K.MemoryTransfer(modulated_sampled_kernel(period)), period,
                            n, 1)


@pytest.mark.parametrize("build", [lambda: scalar_problem(0.0, 3.0, s=2.0, n_harmonics=2),
                                   lambda: delay_problem(3, 2.0, dim=2),
                                   lambda: time_varying_problem()],
                         ids=["memory1d_window", "delay", "time_varying_sampled"])
def test_contour_node_matrices_equal_their_definitions_exactly(monkeypatch, build):
    # R = lambda*I - (A - D) - Q(lambda) and R' = I - Q'(lambda), each term built afresh
    # from the problem's fields, at every node of the first contour
    p = build()
    seen = []
    matrices = F.residual_matrices

    def recording(q, lam):
        r, dr = matrices(q, lam)
        seen.append((lam, r.copy(), dr.copy()))
        return r, dr

    monkeypatch.setattr(F, "residual_matrices", recording)
    re_lo, re_hi = F._contour_real_extent(p)
    mid = F.CONTOUR_SHIFTS[0] * p.omega0
    F.contour_eigenvalues(p, (re_lo, re_hi, mid - p.omega0 / 2, mid + p.omega0 / 2),
                          F.CONTOUR_NODES)
    assert len(seen) == 4 * F.CONTOUR_NODES
    omegas = np.arange(-p.n_harmonics, p.n_harmonics + 1) * (2 * math.pi / p.period)
    ops = p.jacobian - hb.stacked_diff_matrix(p.dim, p.n_harmonics, 2 * math.pi / p.period)
    eye = np.eye(p.size, dtype=complex)
    for lam, r, dr in seen:
        q, dq = K.memory_matrix(p.transfer, lam, omegas)
        assert np.array_equal(r, lam * eye - ops - q)
        assert np.array_equal(dr, eye - dq)


@pytest.mark.parametrize("build", [lambda: scalar_problem(0.0, 3.0, s=2.0, n_harmonics=2),
                                   lambda: memoryless_problem(0.5, n_harmonics=2)],
                         ids=["memory", "memoryless"])
def test_changing_a_returned_residual_matrix_leaves_the_next_call_unchanged(build):
    p = build()
    lam = 0.3 + 0.2j
    builds = [lambda q, z: F.residual_matrices(q, z)[0]]
    if p.transfer is not None:
        builds.append(lambda q, z: F.residual_matrices(q, z)[1])
    for assemble in builds:
        first = assemble(p, lam)
        want = first.copy()
        first[...] = 7.0
        assert np.array_equal(assemble(p, lam), want)


def test_refine_builds_no_identity_on_a_memoryless_problem(monkeypatch):
    # the lambda column R'(lambda) x of the Newton matrix, in the pivot's place, is x itself
    p, _ = periodic_2d_problem(n_harmonics=6)
    pair = F.floquet_spectrum(p).canonical_strip[0]
    rng = np.random.default_rng(5)
    vec = pair.eigenvector.flat + 1e-4 * (rng.normal(size=p.size) + 1j * rng.normal(size=p.size))
    sizes = []
    eye = np.eye

    def recording_eye(n, *args, **kwargs):
        sizes.append(n)
        return eye(n, *args, **kwargs)

    monkeypatch.setattr(np, "eye", recording_eye)
    out = F.refine_eigenpair(p, pair.exponent + 1e-4, vec)
    assert out is not None and abs(out.exponent - pair.exponent) < 1e-10
    assert p.size not in sizes


def test_refine_solves_square_newton_systems(monkeypatch):
    # x_pivot = 1 is held and its column carries lambda's, so each Newton matrix is R's size
    shapes = []
    solve = np.linalg.solve

    def recording(a, b):
        shapes.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    rng = np.random.default_rng(6)
    memoryless, _ = periodic_2d_problem(n_harmonics=6)
    pair = F.floquet_spectrum(memoryless).canonical_strip[0]
    seed = np.zeros(5, dtype=complex)
    seed[2] = 1.0
    for p, lam, vec, want in ((memoryless, pair.exponent + 1e-4, pair.eigenvector.flat,
                               pair.exponent),
                              (scalar_problem(0.0, 3.0, n_harmonics=2), 0.30, seed, LAM_A0_K3)):
        vec = vec + 1e-4 * (rng.normal(size=p.size) + 1j * rng.normal(size=p.size))
        shapes.clear()
        out = F.refine_eigenpair(p, lam, vec)
        assert out is not None and abs(out.exponent - want) < 1e-10
        assert shapes and set(shapes) == {(p.size, p.size)}


def two_delay_problem(n_harmonics):
    # y' = -y + W y(t - 3/2), W = diag(-2, 1/2), period 2*pi: the first component has the
    # unstable pair -1 + W_k(-3 e^{3/2}) / (3/2), k = 0, -1, at Im = +-1.466
    jac = hb.toeplitz_from_periodic(hb.MatrixHarmonics.constant(-np.eye(2), 1.0),
                                    n_harmonics=n_harmonics)
    return F.FloquetProblem(jac, K.MemoryTransfer(K.Delay(np.diag([-2.0, 0.5]), 1.5)),
                            2 * math.pi, n_harmonics, 2)


@pytest.mark.parametrize("build", [lambda: two_delay_problem(0),
                                   lambda: delay_problem(0, 2 * math.pi, tau=5.0)],
                         ids=["two_delays", "delay_tau5"])
def test_time_invariant_contour_problem_is_incomplete(build):
    # nothing folds at N = 0, and one strip of the contour misses the roots beyond it
    with pytest.raises(IncompleteSpectrum, match="n_harmonics"):
        F.floquet_spectrum(build())


def test_time_invariant_delay_pair_is_found_once_harmonics_fold_it():
    p = two_delay_problem(2)
    spec = F.floquet_spectrum(p)
    assert spec.stability == "Unstable"
    for k in (0, -1):
        want = -1.0 + complex(lambertw(-3.0 * math.exp(1.5), k)) / 1.5
        want -= 1j * p.omega0 * F._strip_steps(want.imag, p.omega0)
        assert np.min(np.abs(spec.exponents - want)) < 1e-10
    assert abs(spec.max_nontrivial_re() - 0.0656177110507119) < 1e-10


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
    monkeypatch.setattr(F, "CONTOUR_SHIFTS", F.CONTOUR_SHIFTS[:2])
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
    mat = K.memory_matrix(mt, lam, omegas)[0]
    window = K.MemoryTransfer(K.ExponentialDecay([[1.0]], 2.0), truncation=1.5)
    diag = np.array([K.memory_matrix(window, lam, np.array([w]))[0][0, 0] for w in omegas])
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
    q, dq = K.memory_matrix(mt, lam, omegas)
    for h, w in enumerate(omegas):
        for m, spline in kern.splines.items():
            if 0 <= h + m < len(omegas):
                alone, dalone = K._spline_transfers([spline], truncation, lam + 1j * w)[0]
                assert q[h + m, h] == alone[0, 0] and dq[h + m, h] == dalone[0, 0]


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


# --- Hill parity blocks --------------------------------------------------------------

HALF_WAVE_ORBITS = {  # every particle cycle is half-wave symmetric: z(t + T/2) = -z(t)
    "circular": M.BrownianParticleModel(alpha=1.0, beta=1.0, g=0.1, k=1.0, omega_bar=(2.0, 2.0)),
    "polarized": M.BrownianParticleModel(alpha=0.55, beta=1.0, g=0.1, k=1.0,
                                         omega_bar=(2.0, 2.0 / 0.9)),
    "fast-memory": M.BrownianParticleModel(alpha=1.0, beta=1.0, g=0.0, k=1e8,
                                           omega_bar=(2.0, 2.0)),
}


@pytest.mark.parametrize("n", [4, 12, 20])
@pytest.mark.parametrize("orbit", sorted(HALF_WAVE_ORBITS))
def test_half_wave_cycle_solves_its_hill_matrix_as_two_parity_blocks(
        pep_blocks, monkeypatch, orbit, n):
    m = HALF_WAVE_ORBITS[orbit]
    cycle, spec = M.particle_spectrum(m, n_harmonics=n)
    # six states; harmonic 0 and the cos/sin pairs of the even h, then those of the odd h
    assert [len(c) for c, _ in pep_blocks] == [6 * (1 + 2 * (n // 2)), 6 * 2 * ((n + 1) // 2)]
    assert spec.diagnostics["n_raw"] == 6 * (2 * n + 1)
    h = hb.real_form(F.hill_matrix(C.linearize(M.particle_system(m), cycle)), n)
    whole = scipy.linalg.eig(h, right=False)
    split = np.array([lam for _, pep in pep_blocks for lam, _, _ in pep.eigenpairs])
    rows, cols = linear_sum_assignment(np.abs(whole[:, None] - split[None, :]))
    assert np.max(np.abs(whole[rows] - split[cols])) <= 1e-10 * np.linalg.norm(h, 1)
    # without the exact zeros the whole matrix is one block, as before the split
    pep_blocks.clear()
    monkeypatch.setattr(C, "_half_wave_symmetric", lambda *args: False)
    ref = F.floquet_spectrum(C.linearize(M.particle_system(m), cycle), autonomous=True)
    assert [len(c) for c, _ in pep_blocks] == [6 * (2 * n + 1)]
    assert ref.diagnostics["n_raw"] == spec.diagnostics["n_raw"]
    assert len(ref.canonical_strip) == len(spec.canonical_strip)
    # relative to ||H||_1, the scale of the rounding in every eigenvalue: at k = 1e8
    # even the slow classes are certified at the floor 1e3*eps*||R||_1, near 1e-8
    for want in ref.exponents:
        assert np.min(np.abs(spec.exponents - want)) <= 1e-12 * np.linalg.norm(h, 1)


@pytest.mark.parametrize("n", [4, 12, 20])
@pytest.mark.parametrize("orbit", sorted(HALF_WAVE_ORBITS))
def test_half_wave_cycle_newton_runs_on_the_odd_slots(solve_rows, monkeypatch, orbit, n):
    m = HALF_WAVE_ORBITS[orbit]
    system = M.particle_system(m)
    cycle, _ = M.particle_spectrum(m, n_harmonics=n)
    even = (np.arange(-n, n + 1) % 2) == 0
    assert not np.any(cycle.harmonics.amplitudes[:, even])  # the mean included
    assert cycle.residual <= C.NEWTON_TOL
    assert np.linalg.norm(C.hb_residual(system, cycle)) <= C.NEWTON_TOL
    # from a shrunken seed, so that Newton iterates even where the seed is the cycle:
    # six states and the cos/sin pairs of the odd h, omega0 in the anchor's column
    guess = M.circular_cycle_guess(m, n)
    guess = C.LimitCycle(guess.period, hb.HarmonicVector(
        0.8 * guess.harmonics.amplitudes, guess.harmonics.omega0, real_signal=True),
        math.inf)
    solve_rows.clear()
    odd = C.solve_cycle(system, guess)
    assert solve_rows and set(solve_rows) == {6 * 2 * ((n + 1) // 2)}
    assert not np.any(odd.harmonics.amplitudes[:, even])
    # the all-slot solve of the same seed
    solve_rows.clear()
    monkeypatch.setattr(C, "_half_wave_symmetric", lambda *args: False)
    full = C.solve_cycle(system, guess)
    assert set(solve_rows) == {6 * (2 * n + 1)}
    a = full.harmonics.amplitudes
    assert np.max(np.abs(odd.harmonics.amplitudes - a)) <= 1e-12 * np.max(np.abs(a))
    assert odd.period == pytest.approx(full.period, rel=1e-12)
    assert odd.residual <= C.NEWTON_TOL


def test_rest_spectrum_solves_one_block(pep_blocks):
    spec = M.particle_equilibrium_spectrum(HALF_WAVE_ORBITS["circular"])
    assert [len(c) for c, _ in pep_blocks] == [6]
    assert spec.diagnostics["n_certified"] + spec.diagnostics["n_bound_filtered"] == 6


@pytest.mark.parametrize("orbit", sorted(HALF_WAVE_ORBITS))
def test_each_class_eigenvector_is_stored_once(orbit):
    # a class polished outside the strip is moved into it once; the strip reuses that pair
    _, spec = M.particle_spectrum(HALF_WAVE_ORBITS[orbit], n_harmonics=12)
    for q in spec.canonical_strip:
        assert any(q.eigenvector is p.eigenvector for p in spec.pairs)
    assert all(-spec.omega0 / 2 < p.exponent.imag <= spec.omega0 / 2 for p in spec.pairs)
