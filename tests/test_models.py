"""Case-study tests against analytic oracles and closed forms."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from memflo import floquet as F
from memflo import models as M
from memflo.errors import MatchedLine, NoCycle
from memflo.oracles import (
    monodromy_multipliers,
    particle_effective_friction,
    quadratic_memory_exponent,
)


# --- 1-D memory system ----------------------------------------------------------


@pytest.mark.parametrize("a", [-2.0, -1.0, 0.0, 1.0, 2.0])
def test_model1d_asymptotic_exponent_matches_oracle(a):
    spec = M.model1d_exponent(M.Memory1DModel(a, 3.0))
    lam = max(p.exponent.real for p in spec.canonical_strip)
    assert lam == pytest.approx(quadratic_memory_exponent(a, 3.0), abs=1e-10)


def test_model1d_no_memory_is_bare_rate():
    spec = M.model1d_exponent(M.Memory1DModel(1.0, 3.0, 0.0))
    assert spec.canonical_strip[0].exponent == pytest.approx(1.0, abs=1e-12)


def test_model1d_sweep_respects_decay_bound():
    for a in np.linspace(-2, 2, 9):
        for s in (0.0, 0.5, 2.0, 7.0, 20.0, math.inf):
            spec = M.model1d_exponent(M.Memory1DModel(float(a), 3.0, s))
            assert all(p.exponent.real > -3.0 for p in spec.canonical_strip)


def test_model1d_exponent_increases_with_rate():
    for s in (1.0, 5.0, math.inf):
        lams = []
        for a in np.linspace(-2, 2, 9):
            spec = M.model1d_exponent(M.Memory1DModel(float(a), 3.0, s))
            lams.append(max(p.exponent.real for p in spec.canonical_strip))
        assert all(x < y for x, y in zip(lams, lams[1:]))


def test_model1d_transfers_stay_in_the_float_range(monkeypatch):
    # a Newton start that crosses the window's overflow line is dropped where the transfer
    # raises, rather than iterated on a huge stand-in value
    moduli = []
    transfer_at = F.transfer_at

    def recorded(*args):
        value = transfer_at(*args)
        moduli.append(float(np.max(np.abs(value))))
        return value

    monkeypatch.setattr(F, "transfer_at", recorded)
    M.model1d_exponent(M.Memory1DModel(0.0, 3.0, 10.0))
    assert moduli and max(moduli) <= 1e200


def test_model1d_convergence_table():
    rows = M.model1d_convergence(M.Memory1DModel(0.0, 3.0), [0.0, 1.0, 2.0, 5.0, 20.0])
    s_vals, lams, devs = zip(*rows)
    assert devs[0] == pytest.approx(abs(0.0 - quadratic_memory_exponent(0.0, 3.0)),
                                    abs=1e-12)
    assert all(x > y for x, y in zip(devs, devs[1:]))
    assert devs[-1] < 1e-10


@pytest.mark.parametrize("a", [-2.0, 0.0, 2.0])
def test_model1d_convergence_is_fast(a, s_grid=np.arange(2.0, 21.0)):
    rows = M.model1d_convergence(M.Memory1DModel(a, 3.0), s_grid)
    lam_inf = M.model1d_asymptotic_exponent(M.Memory1DModel(a, 3.0))
    rate = (3.0 + lam_inf) / 2.0  # half the kernel-plus-exponent decay rate
    anchor = rows[0][2] * math.exp(rate * rows[0][0])
    for s, _, dev in rows:
        floor = 1e-13
        assert dev <= anchor * math.exp(-rate * s) + floor


# --- particle --------------------------------------------------------------------


def test_particle_class_count_and_trivial_mode():
    m = M.BrownianParticleModel(alpha=1.0, beta=1.0, g=0.1, k=1.0, omega_bar=(2.0, 2.0))
    cyc, spec = M.particle_spectrum(m, n_harmonics=30)
    assert cyc.residual < 1e-8
    assert len(spec.canonical_strip) == 6
    omega0 = 2 * math.pi / cyc.period
    trivial = [p for p in spec.canonical_strip if p.trivial]
    assert len(trivial) == 1
    assert abs(trivial[0].exponent) < 1e-4 * omega0
    assert all(p.exponent.real > -m.k for p in spec.canonical_strip)
    assert spec.stability == "Stable"


def test_particle_cycle_is_exact_circle_at_unit_ratio():
    m = M.BrownianParticleModel(alpha=1.0, beta=1.0, g=0.1, k=1.0, omega_bar=(2.0, 2.0))
    cyc, _ = M.particle_spectrum(m, n_harmonics=16)
    radius = math.sqrt((m.alpha - m.g / m.k) / m.beta) / m.omega_bar[0]
    assert 2 * abs(cyc.harmonics.amplitude(0, 1)) == pytest.approx(radius, rel=1e-10)
    assert cyc.period == pytest.approx(2 * math.pi / m.omega_bar[0], rel=1e-12)
    # harmonics beyond |h| = 1 vanish on the circle
    a = np.abs(cyc.harmonics.amplitudes)
    nh = cyc.harmonics.n_harmonics
    a = np.delete(a, [nh - 1, nh, nh + 1], axis=1)
    assert a.max() < 1e-10


@pytest.mark.parametrize("k", [1e6, 1e8, 1e10])
def test_particle_near_memoryless_matches_monodromy(k):
    # the fast memory classes near -k pass the relative seed gate and are
    # certified at the rounding floor of R(lambda)
    m = M.BrownianParticleModel(alpha=1.0, beta=1.0, g=0.0, k=k, omega_bar=(2.0, 2.0))
    cyc, spec = M.particle_spectrum(m, n_harmonics=16)
    assert len(spec.canonical_strip) == 6
    memoryless = dataclasses.replace(m, k=math.inf)
    system = M.particle_system(memoryless)
    cyc_ml, _ = M.particle_spectrum(memoryless, n_harmonics=16)

    def a_of_t(t):
        z = cyc_ml.harmonics.evaluate(t).real[:, 0]
        return system.rhs_jacobian(z, t)

    oracle = monodromy_multipliers(a_of_t, 4, cyc_ml.period)
    got = sorted(spec.multipliers, key=lambda z: -abs(z))
    for w in oracle:
        gap = min(abs(g_val - w) for g_val in got)
        assert gap / abs(w) < 1e-3


def test_particle_equilibrium_boundary_at_g_over_k():
    for k in (1.0, 4.0):
        g = 0.4
        below = M.particle_equilibrium_spectrum(
            M.BrownianParticleModel(g / k - 0.01, 1.0, g, k, (2.0, 2.0)))
        above = M.particle_equilibrium_spectrum(
            M.BrownianParticleModel(g / k + 0.01, 1.0, g, k, (2.0, 2.0)))
        assert below.stability == "Stable"
        assert above.stability == "Unstable"


def test_particle_equilibrium_spectrum_matches_cubic_roots():
    m = M.BrownianParticleModel(alpha=0.05, beta=1.0, g=0.1, k=1.0, omega_bar=(2.0, 1.5))
    spec = M.particle_equilibrium_spectrum(m)
    gamma0 = -m.alpha + m.g / m.k
    got = [p.exponent for p in spec.canonical_strip]
    want = []
    for w in m.omega_bar:
        roots = np.roots([1.0, m.k, w**2 + m.k * gamma0, m.k * w**2])
        want.extend(complex(r) for r in roots if r.real > -m.k)
    assert len(got) == len(want)
    remaining = list(got)
    for w_val in want:
        gaps = [abs(g_val - w_val) for g_val in remaining]
        i = int(np.argmin(gaps))
        assert gaps[i] < 1e-8
        remaining.pop(i)


def test_particle_no_cycle_in_chaotic_regime():
    # far outside the locking region with an unstable rest state
    m = M.BrownianParticleModel(alpha=1.0, beta=1.0, g=0.1, k=1.0, omega_bar=(2.0, 2.0 / 1.5))
    try:
        cyc, spec = M.particle_spectrum(m, n_harmonics=12)
    except NoCycle:
        return
    assert spec.stability != "Stable"


def fast_memory_particle():
    # off the isotropic well the circular seed fails, so the time-domain seed
    # must integrate a memory state 5000 times faster than the orbit
    return M.BrownianParticleModel(alpha=0.8, beta=1.0, g=0.1, k=5000.0,
                                   omega_bar=(2.0, 2.0 / 1.1))


def test_particle_fast_memory_seeds_a_cycle():
    cyc, spec = M.particle_spectrum(fast_memory_particle(), n_harmonics=20)
    assert M.cycle_amplitude(cyc) > M.CYCLE_AMPLITUDE_TOL
    assert sum(p.trivial for p in spec.canonical_strip) == 1
    assert len(spec.canonical_strip) == 5
    assert spec.stability == "Unstable"


def test_particle_fast_memory_classes_agree_at_n12_and_n20():
    # the trivial class and the unstable pair of the N = 20 spectrum are resolved at N = 12
    _, coarse = M.particle_spectrum(fast_memory_particle(), n_harmonics=12)
    _, fine = M.particle_spectrum(fast_memory_particle(), n_harmonics=20)
    assert len(coarse.canonical_strip) == len(fine.canonical_strip) == 5
    assert sum(p.trivial for p in coarse.canonical_strip) == 1
    assert coarse.stability == fine.stability == "Unstable"
    assert np.max(np.abs(coarse.exponents - fine.exponents)) < 1e-8


def test_particle_classes_at_n4_equal_those_at_n30():
    # a coarse truncation holds the same six classes, each as its one centred copy
    m = M.BrownianParticleModel(alpha=1.0, beta=1.0, g=0.1, k=1.0, omega_bar=(2.0, 2.0))
    _, coarse = M.particle_spectrum(m, n_harmonics=4)
    _, fine = M.particle_spectrum(m, n_harmonics=30)
    assert len(coarse.canonical_strip) == len(fine.canonical_strip) == 6
    assert sum(p.trivial for p in coarse.canonical_strip) == 1
    assert np.max(np.abs(coarse.exponents - fine.exponents)) < 1e-5


def test_particle_equilibrium_regime_returns_zero_cycle():
    m = M.BrownianParticleModel(alpha=0.05, beta=1.0, g=0.1, k=1.0, omega_bar=(2.0, 2.0))
    cyc, spec = M.particle_spectrum(m, n_harmonics=12)
    assert M.cycle_amplitude(cyc) < M.CYCLE_AMPLITUDE_TOL
    assert spec.stability == "Stable"


def test_memoryless_rest_state_counts_each_double_exponent_once():
    # isotropic well: -0.25 +- 1.9843i are double eigenvalues of the rest state
    m = M.BrownianParticleModel(alpha=-0.5, beta=1.0, g=0.0, k=1.0, omega_bar=(2.0, 2.0))
    cyc, spec = M.particle_spectrum(dataclasses.replace(m, k=math.inf), n_harmonics=8)
    assert M.cycle_amplitude(cyc) < M.CYCLE_AMPLITUDE_TOL
    classes = spec.canonical_strip
    assert len(classes) == 2
    for i, a in enumerate(classes):
        for b in classes[i + 1:]:
            assert abs(a.exponent - b.exponent) >= F.MERGE_TOL
    assert all(c.residual < F.CERTIFICATE_TOL for c in classes)
    assert spec.stability == "Stable"


# --- effective friction -----------------------------------------------------------


def test_effective_friction_at_rest_is_scalar():
    m = M.BrownianParticleModel(alpha=0.3, beta=1.0, g=0.2, k=2.0, omega_bar=(2.0, 2.0))
    import memflo.hb as hb
    from memflo.cycles import LimitCycle

    cyc = LimitCycle(math.pi, hb.HarmonicVector(4, 4, np.zeros((4, 9)), 2.0,
                                                real_signal=True), 0.0)
    prof = particle_effective_friction(m, cyc)
    want = (-m.alpha + m.g / m.k) * np.eye(2)
    assert np.allclose(prof.coefficient(0), want, atol=1e-12)
    for h in range(1, 5):
        assert np.max(np.abs(prof.coefficient(h))) < 1e-12


def test_effective_friction_beta_zero_is_constant():
    m = M.BrownianParticleModel(alpha=0.3, beta=0.0, g=0.2, k=2.0, omega_bar=(2.0, 2.0))
    import memflo.hb as hb
    from memflo.cycles import LimitCycle

    rng = np.random.default_rng(5)
    half = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    amps = np.concatenate([half[:, ::-1].conj(), rng.normal(size=(4, 1)).astype(complex),
                           half], axis=1)
    cyc = LimitCycle(math.pi, hb.HarmonicVector(4, 4, amps, 2.0, real_signal=True), 0.0)
    prof = particle_effective_friction(m, cyc)
    assert np.allclose(prof.coefficient(0), (-0.3 + 0.1) * np.eye(2), atol=1e-12)
    for h in range(1, 5):
        assert np.max(np.abs(prof.coefficient(h))) < 1e-12


def test_effective_friction_matches_finite_differences():
    m = M.BrownianParticleModel(alpha=1.0, beta=1.0, g=0.1, k=1.0, omega_bar=(2.0, 2.0))
    cyc, _ = M.particle_spectrum(m, n_harmonics=12)
    prof = particle_effective_friction(m, cyc)
    h = 1e-6
    for t in (0.3, 1.1, 2.9):
        v = cyc.harmonics.evaluate(t).real[2:4, 0]
        fd = np.empty((2, 2))
        for j in range(2):
            dv = np.zeros(2)
            dv[j] = h
            fp = m.friction(v + dv) * (v + dv)
            fm = m.friction(v - dv) * (v - dv)
            fd[:, j] = (fp - fm) / (2 * h)
        got = prof.evaluate(t).real
        assert np.max(np.abs(got - fd)) < 1e-6


def test_particle_hill_matrix_schur_complement_is_minus_residual():
    # the memory states sit on the velocity rows: eliminating them recovers the
    # memory operator R(lambda) = D + lambda - A - Q(lambda) of position and
    # velocity, with Q(lambda)[j, l] = -k Gamma_{j-l} / (k + lambda + i omega_j)
    import memflo.hb as hb
    from memflo.cycles import linearize

    m = M.BrownianParticleModel(alpha=1.0, beta=1.0, g=0.1, k=1.0, omega_bar=(2.0, 2.0))
    cyc, _ = M.particle_spectrum(m, n_harmonics=8)
    prob = linearize(M.particle_system(m), cyc)
    h = F.hill_matrix(prob)
    mm = 2 * prob.n_harmonics + 1
    size = 4 * mm  # position and velocity
    assert h.shape == (size + 2 * mm, size + 2 * mm)
    gamma = hb.toeplitz_from_periodic(particle_effective_friction(m, cyc),
                                      n_harmonics=prob.n_harmonics)
    a_zz = prob.jacobian[:size, :size]
    d = hb.stacked_diff_matrix(4, prob.n_harmonics, prob.omega0)
    rng = np.random.default_rng(1)
    for lam in (0.2 + 0.4j, -0.3 - 0.9j):
        shifted = h - lam * np.eye(len(h))
        schur = shifted[:size, :size] - shifted[:size, size:] @ np.linalg.solve(
            shifted[size:, size:], shifted[size:, :size])
        poles = np.tile(m.k + lam + 1j * prob.omegas, 2)
        r = d + lam * np.eye(size) - a_zz
        r[2 * mm:, 2 * mm:] -= -m.k * gamma / poles[:, None]
        vec = rng.normal(size=size) + 1j * rng.normal(size=size)
        assert np.linalg.norm(schur @ vec + r @ vec) < 1e-10 * np.linalg.norm(vec)


def test_polarized_cycle_keeps_decay_bound_filter():
    # polarized branch: one class below -k is dropped, as its one centred copy
    m = M.BrownianParticleModel(alpha=0.55, beta=1.0, g=0.1, k=1.0, omega_bar=(2.0, 2.0 / 0.8))
    _, spec = M.particle_spectrum(m, n_harmonics=12)
    assert len(spec.canonical_strip) == 5
    assert spec.diagnostics["n_bound_filtered"] == 1
    assert all(re <= -m.k + 1e-6 for re, _ in spec.diagnostics["bound_filtered"])
    assert all(c.bound_ok and c.exponent.real > -m.k for c in spec.canonical_strip)


def test_particle_spectrum_has_no_infinite_eigenvalues():
    m = M.BrownianParticleModel(alpha=1.0, beta=1.0, g=0.1, k=1.0, omega_bar=(2.0, 2.0))
    _, spec = M.particle_spectrum(m, n_harmonics=8)
    assert spec.diagnostics["n_infinite"] == 0
    assert spec.diagnostics["n_raw"] == (4 + 2) * 17  # state plus velocity memory
    assert len(spec.canonical_strip) == 6


def test_particle_spectrum_assembles_once_per_representative(monkeypatch):
    m = M.BrownianParticleModel(alpha=1.0, beta=1.0, g=0.1, k=1.0, omega_bar=(2.0, 2.0))
    assemble = F.assemble_residual_matrix
    calls = []

    def counting(p, lam):
        calls.append(lam)
        return assemble(p, lam)

    monkeypatch.setattr(F, "assemble_residual_matrix", counting)
    _, spec = M.particle_spectrum(m, n_harmonics=12)
    diag = spec.diagnostics
    assert diag["n_seed_rejected"] == diag["n_unrefined"] == 0
    assert len(calls) == len(spec.pairs) > 0  # every seed is already polished


# --- resonator --------------------------------------------------------------------


def test_tl_marginal_line_roots():
    spec = M.tl_spectrum(M.TlResonatorModel(R=1.0, Ra=-1.0, Z0=1.0, tau_f=1.0), n_roots=5)
    for k, pair in enumerate(spec.pairs):
        assert pair.exponent == pytest.approx(1j * 2 * math.pi * k / 2.0, abs=1e-12)
    assert spec.stability == "Marginal"
    assert len(spec.canonical_strip) == 1
    assert spec.canonical_strip[0].multiplier == pytest.approx(1.0, abs=1e-12)


def test_tl_unit_reflection_iff_marginal():
    for ra, expect in ((-0.5, "Stable"), (-1.0, "Marginal"), (-1.2, "Unstable")):
        spec = M.tl_spectrum(M.TlResonatorModel(R=1.0, Ra=ra, Z0=1.0, tau_f=1.0))
        gamma = M.TlResonatorModel(R=1.0, Ra=ra).reflection_coefficient
        assert spec.stability == expect
        re = spec.canonical_strip[0].exponent.real
        assert (abs(gamma) == pytest.approx(1.0)) == (abs(re) < 1e-12)


def test_tl_half_reflection_roots():
    spec = M.tl_spectrum(M.TlResonatorModel(R=1.0, Ra=2.0, Z0=1.0, tau_f=1.0), n_roots=4)
    assert M.TlResonatorModel(R=1.0, Ra=2.0).reflection_coefficient == pytest.approx(0.5)
    for k, pair in enumerate(spec.pairs):
        want = math.log(0.5) / 2.0 + 1j * math.pi * (2 * k + 1) / 2.0
        assert pair.exponent == pytest.approx(want, abs=1e-12)
        assert pair.exponent.real == pytest.approx(-0.34657359027997264, abs=1e-14)


def test_tl_conjugate_pairing_for_real_reflection():
    for ra in (-1.3, -0.7, 2.0):
        model = M.TlResonatorModel(R=1.0, Ra=ra, Z0=1.0, tau_f=0.8)
        gamma = model.reflection_coefficient
        spec = M.tl_spectrum(model, n_roots=6)
        for pair in spec.pairs:
            conj = pair.exponent.conjugate()
            assert abs(cmath.exp(2 * conj * model.tau_f) + gamma) < 1e-12


def test_tl_common_real_part():
    model = M.TlResonatorModel(R=1.0, Ra=-0.6, Z0=2.0, tau_f=0.5)
    spec = M.tl_spectrum(model, n_roots=7)
    res = {round(p.exponent.real, 14) for p in spec.pairs}
    assert len(res) == 1
    want = math.log(abs(model.reflection_coefficient)) / (2 * model.tau_f)
    assert res.pop() == pytest.approx(want, abs=1e-13)


def test_tl_matched_line_raises():
    with pytest.raises(MatchedLine):
        M.tl_spectrum(M.TlResonatorModel(R=1.0, Ra=0.0, Z0=1.0, tau_f=1.0))


@pytest.mark.parametrize("n_roots", [0, -2])
def test_tl_without_roots_is_an_error(n_roots):
    # an empty spectrum would read Marginal with no exponent behind the verdict
    with pytest.raises(ValueError, match="n_roots"):
        M.tl_spectrum(M.TlResonatorModel(R=1.0, Ra=-0.5, Z0=1.0, tau_f=1.0), n_roots=n_roots)


def test_tl_reflection_pole_rejected():
    # (R + Ra) Y0 = -1 puts the reflection on its pole
    with pytest.raises(ValueError, match="pole"):
        M.TlResonatorModel(R=1.0, Ra=-2.0, Z0=1.0, tau_f=1.0).reflection_coefficient


def test_collapsed_cycle_does_not_warn_about_resolution():
    # the circular seed shrinks to the rest state; its leftover harmonics are
    # rounding noise below the Newton tolerance, not an unresolved cycle
    import warnings

    from memflo.errors import SpectralResolutionWarning

    m = M.BrownianParticleModel(alpha=-0.5, beta=1.0, g=0.0, k=1.0, omega_bar=(2.0, 2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", SpectralResolutionWarning)
        cyc, spec = M.particle_spectrum(dataclasses.replace(m, k=math.inf))
    assert M.cycle_amplitude(cyc) < M.CYCLE_AMPLITUDE_TOL
    assert spec.stability == "Stable"
