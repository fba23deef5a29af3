"""Cycle-solver tests: residual correctness, Newton behavior, linearization."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from memflo import cycles as C
from memflo import floquet as F
from memflo import hb
from memflo.errors import NoConvergence, SingularJacobian, SpectralResolutionWarning
from memflo.models import (
    BrownianParticleModel,
    circular_cycle_guess,
    particle_spectrum,
    particle_system,
)
from memflo.oracles import (
    circular_orbit,
    orbit_period_amplitude,
    particle_effective_friction,
    rk4_trajectory,
)


def linear_forced_model(omega0=1.0):
    return C.SystemModel(
        1,
        lambda z, t: np.array([-z[0] + np.cos(omega0 * t)]),
        lambda z, t: np.array([[-1.0]]),
        autonomous=False,
    )


def forced_memory_model(k):
    """dz/dt = -z + q + cos t with the memory q = int exp(-k (t - tau)) z dtau as a state."""
    return C.SystemModel(
        2,
        lambda z, t: np.array([-z[0] + z[1] + np.cos(t), -k * z[1] + z[0]]),
        lambda z, t: np.array([[-1.0, 1.0], [1.0, -k]]),
        autonomous=False,
        memory_rate=k,
    )


def zero_guess(dim, n_harmonics, period):
    hv = hb.HarmonicVector(np.zeros((dim, 2 * n_harmonics + 1)),
                           2 * math.pi / period, real_signal=True)
    return C.LimitCycle(period, hv, math.inf)


# --- hb_residual -----------------------------------------------------------------


def test_residual_linear_steady_state_is_zero():
    model = linear_forced_model()
    n = 5
    amps = np.zeros((1, 2 * n + 1), dtype=complex)
    amps[0, n + 1] = 0.5 / (1 + 1j)
    amps[0, n - 1] = 0.5 / (1 - 1j)
    cand = C.LimitCycle(2 * math.pi,
                        hb.HarmonicVector(amps, 1.0, real_signal=True), 0.0)
    assert np.linalg.norm(C.hb_residual(model, cand)) < 1e-12


def test_residual_zero_state_of_unforced_system():
    # dz/dt = -z + q, dq/dt = -q + 0.3 z: a memory of z carried as two states
    model = C.SystemModel(4, lambda z, t: np.concatenate([-z[:2] + z[2:], -z[2:] + 0.3 * z[:2]]),
                          lambda z, t: np.block([[-np.eye(2), np.eye(2)],
                                                 [0.3 * np.eye(2), -np.eye(2)]]),
                          autonomous=False, memory_rate=1.0)
    assert np.linalg.norm(C.hb_residual(model, zero_guess(4, 4, 2 * math.pi))) == 0.0


def test_residual_detects_imbalance():
    model = linear_forced_model()
    rr = C.hb_residual(model, zero_guess(1, 4, 2 * math.pi))
    # the forcing harmonic is unbalanced by exactly 1/2 (one packed slot per pair)
    assert np.linalg.norm(rr) == pytest.approx(0.5, abs=1e-12)


def test_residual_memory_term_uses_zero_frequency_transfer():
    # steady state of dz/dt = -z + 1 + q with the memory state dq/dt = -k q + z:
    # the DC balance holds q at z/k, the zero-frequency transfer of the kernel
    k = 2.0
    model = C.SystemModel(2, lambda z, t: np.array([-z[0] + 1.0 + z[1], -k * z[1] + z[0]]),
                          lambda z, t: np.array([[-1.0, 1.0], [1.0, -k]]),
                          autonomous=False, memory_rate=k)
    # fixed point: -z + 1 + z/k = 0  ->  z = k/(k-1)
    zstar = k / (k - 1.0)
    n = 3
    amps = np.zeros((2, 2 * n + 1))
    amps[0, n] = zstar
    amps[1, n] = zstar / k
    cand = C.LimitCycle(2 * math.pi, hb.HarmonicVector(amps, 1.0, real_signal=True),
                        0.0)
    assert np.linalg.norm(C.hb_residual(model, cand)) < 1e-12


# --- solve_cycle ------------------------------------------------------------------


def test_solve_cycle_linear_forced_converges_fast():
    model = linear_forced_model()
    evals = []
    orig = C._residual

    def spy(mdl, u, w0):
        evals.append(1)
        return orig(mdl, u, w0)

    C._residual = spy
    try:
        cyc = C.solve_cycle(model, zero_guess(1, 5, 2 * math.pi))
    finally:
        C._residual = orig
    assert len(evals) <= 4  # linear problem: one Newton step plus bookkeeping
    assert cyc.residual < 1e-12
    assert cyc.harmonics.amplitude(0, 1) == pytest.approx(0.25 - 0.25j, abs=1e-12)
    assert cyc.harmonics.amplitude(0, -1) == pytest.approx(0.25 + 0.25j, abs=1e-12)


@pytest.mark.parametrize("k", [2.0, 500.0, 1e6])
def test_solve_cycle_carries_exponential_memory(k):
    # dz/dt = -z + q + cos t, dq/dt = -k q + z: first harmonic 0.5 / (1 + i - 1/(k + i)),
    # reached from the memoryless response with the memory state at zero, fast memory included
    model = forced_memory_model(k)
    amps = np.zeros((2, 11), dtype=complex)
    amps[0, 6] = 0.5 / (1 + 1j)
    amps[0, 4] = amps[0, 6].conjugate()
    guess = C.LimitCycle(2 * math.pi, hb.HarmonicVector(amps, 1.0, real_signal=True),
                         math.inf)
    cyc = C.solve_cycle(model, guess)
    exact = 0.5 / (1 + 1j - 1 / (k + 1j))
    assert abs(cyc.harmonics.amplitude(0, 1) - exact) < 1e-10
    assert abs(cyc.harmonics.amplitude(1, 1) - exact / (k + 1j)) < 1e-10


def test_solve_cycle_memoryless_particle_matches_time_integration():
    m = BrownianParticleModel(alpha=1.0, beta=1.0, g=0.0, k=1e6, omega_bar=(2.0, 2.0))
    m = dataclasses.replace(m, k=math.inf)
    cyc, _ = particle_spectrum(m, n_harmonics=16)
    radius, period = circular_orbit(1.0, 1.0, 0.0, math.inf, 2.0)

    system = particle_system(m)
    times, traj = rk4_trajectory(lambda z, t: system.rhs(z, t),
                                 np.array([0.3, 0.0, 0.0, 0.7]), 200.0, 40000)
    period_oracle, amp_oracle = orbit_period_amplitude(times, traj, component=0)
    assert cyc.period == pytest.approx(period_oracle, rel=1e-3)
    amp_hb = 2 * abs(cyc.harmonics.amplitude(0, 1))
    assert amp_hb == pytest.approx(amp_oracle, rel=1e-3)
    # and both agree with the closed-form circle
    assert cyc.period == pytest.approx(period, rel=1e-10)
    assert amp_hb == pytest.approx(radius, rel=1e-10)


def test_solve_cycle_particle_memory_residual_and_refinement():
    m = BrownianParticleModel(alpha=1.0, beta=1.0, g=0.1, k=1.0, omega_bar=(2.0, 2.0))
    cyc30, _ = particle_spectrum(m, n_harmonics=30)
    assert cyc30.residual < 1e-8
    cyc40, _ = particle_spectrum(m, n_harmonics=40)
    # the cycle reproduces itself under truncation refinement
    assert cyc40.period == pytest.approx(cyc30.period, rel=1e-5)
    a30 = abs(cyc30.harmonics.amplitude(0, 1))
    a40 = abs(cyc40.harmonics.amplitude(0, 1))
    assert a40 == pytest.approx(a30, rel=1e-5)


def test_solve_cycle_no_convergence_reports_trace():
    # dz/dt = z^2 + 1 has no bounded periodic solution; the balance cannot close
    model = C.SystemModel(1, lambda z, t: np.array([z[0] ** 2 + 1.0]),
                          lambda z, t: np.array([[2 * z[0]]]), autonomous=True)
    amps = np.zeros((1, 7), dtype=complex)
    amps[0, 4] = amps[0, 2] = 0.5
    guess = C.LimitCycle(2 * math.pi, hb.HarmonicVector(amps, 1.0), math.inf)
    with pytest.raises(NoConvergence) as err:
        C.solve_cycle(model, guess)
    assert len(err.value.trace) >= 1


def test_solve_cycle_singular_newton_matrix_is_reported():
    # dz/dt = 0: the mean's Newton row, omega0 * 0 - 0, is zero
    model = C.SystemModel(1, lambda z, t: 0 * z, lambda z, t: np.zeros((1, 1)))
    amps = np.array([[0.5 + 0.5j, 1.0, 0.5 - 0.5j]])
    guess = C.LimitCycle(2 * math.pi, hb.HarmonicVector(amps, 1.0, real_signal=True), math.inf)
    with pytest.raises(SingularJacobian, match="Singular matrix"):
        C.solve_cycle(model, guess)


def test_solve_cycle_stops_after_its_step_budget(monkeypatch):
    # the particle cycle takes several Newton steps from its circular seed
    m = BrownianParticleModel(alpha=1.0, beta=1.0, g=0.1, k=1.0, omega_bar=(2.0, 1.9))
    monkeypatch.setattr(C, "NEWTON_MAX_ITER", 1)
    with pytest.raises(NoConvergence, match="did not reach tolerance") as err:
        C.solve_cycle(particle_system(m), circular_cycle_guess(m, 12))
    assert len(err.value.trace) == 2 and err.value.trace[1] < err.value.trace[0]


@pytest.mark.parametrize("ratio", [2.0, 1.9])
def test_autonomous_cycle_holds_its_phase_exactly(ratio):
    # Im a_{anchor,1} is fixed, not solved for: it is an exact zero on the solved cycle
    m = BrownianParticleModel(alpha=1.0, beta=1.0, g=0.1, k=1.0, omega_bar=(2.0, ratio))
    guess = circular_cycle_guess(m, 12)
    anchor = int(np.argmax(np.abs(guess.harmonics.amplitudes[:, 13])))
    cyc = C.solve_cycle(particle_system(m), guess)
    assert cyc.residual <= C.NEWTON_TOL
    assert cyc.harmonics.amplitudes[anchor, 13].imag == 0.0
    assert cyc.harmonics.amplitudes[anchor, 13].real != 0.0


def test_newton_quadratic_tail():
    # track the residual trace of a genuinely nonlinear solve
    m = BrownianParticleModel(alpha=1.0, beta=1.0, g=0.1, k=1.0, omega_bar=(2.0, 1.9))
    system = particle_system(m)
    guess = circular_cycle_guess(m, 12)
    norms = []
    orig = C._residual

    def spy(model, u, w0):
        out = orig(model, u, w0)
        norms.append(float(np.linalg.norm(out)))
        return out

    C._residual = spy
    try:
        C.solve_cycle(system, guess)
    finally:
        C._residual = orig
    accepted = [n for n in norms if n > 0]
    tail = [n for n in accepted if n < 1e-2]
    # quadratic contraction with a generous slack factor
    for before, after in zip(tail, tail[1:]):
        if after < 1e-14:
            break
        assert after <= 10.0 * before**2 / max(tail[0], 1e-30) or after <= before**2 * 1e4


def test_autonomous_cycle_needs_a_harmonic():
    # the phase condition pins a first harmonic, so N = 0 is refused up front
    m = BrownianParticleModel(alpha=1.0, beta=1.0, g=0.1, k=1.0, omega_bar=(2.0, 2.0))
    with pytest.raises(ValueError, match="n_harmonics"):
        C.solve_cycle(particle_system(m), zero_guess(6, 0, math.pi))
    with pytest.raises(ValueError, match="n_harmonics"):
        particle_spectrum(m, n_harmonics=0)


def _newton_case(name, nh):
    """A model, a packed point off its cycle and a frequency for the Newton-matrix checks."""
    rng = np.random.default_rng(nh)
    if name == "memory":
        model, omega0 = forced_memory_model(2.0), 1.0
        return model, rng.normal(size=2 * (2 * nh + 1)), omega0
    k = 1.0 if name == "particle" else math.inf
    m = BrownianParticleModel(alpha=1.0, beta=1.0, g=0.1, k=k, omega_bar=(2.0, 1.9))
    model = particle_system(m)
    guess = hb.pack_real_coefficients(circular_cycle_guess(m, nh).harmonics.amplitudes)
    return model, guess + 0.1 * rng.normal(size=guess.size), 1.9


NEWTON_CASES = [(name, nh) for name in ("particle", "particle_k_inf", "memory")
                for nh in (1, 4, 12)]


@pytest.mark.parametrize("name, nh", NEWTON_CASES)
def test_newton_matrix_matches_central_differences(name, nh):
    model, u, omega0 = _newton_case(name, nh)
    jac = C._newton_matrix(model, u, omega0)
    h = 1e-6
    fd = np.column_stack([(C._residual(model, u + h * e, omega0) -
                           C._residual(model, u - h * e, omega0)) / (2 * h)
                          for e in np.eye(u.size)])
    assert np.max(np.abs(jac - fd)) < 1e-7 * np.max(np.abs(jac))
    if model.autonomous:  # the bordering column d(residual)/d(omega0) is D u
        dw = (u.reshape(model.dim, -1) @ C._real_grid(nh)[2].T).reshape(-1)
        fd_w = (C._residual(model, u, omega0 + h) - C._residual(model, u, omega0 - h)) / (2 * h)
        assert np.max(np.abs(dw - fd_w)) < 1e-7 * np.max(np.abs(dw))


@pytest.mark.parametrize("name, nh", NEWTON_CASES)
def test_newton_matrix_equals_complex_toeplitz_chain(name, nh):
    # the former assembly: band -2N..2N of the sampled Jacobian, complex
    # Toeplitz and difference matrix, mapped to the packed basis
    model, u, omega0 = _newton_case(name, nh)
    n, period = model.dim, 2 * math.pi / omega0
    times = hb.sample_times(2 * nh, period)
    amps = hb.unpack_real_coefficients(u, nh)
    z = hb.HarmonicVector(amps, omega0).evaluate(times).real
    samples = np.broadcast_to(np.reshape(model.rhs_jacobian(z, times), (n, n, -1)),
                              (n, n, len(times)))
    band = hb.MatrixHarmonics.from_time_grid(samples, period, 2 * nh)
    chain = hb.real_form(hb.stacked_diff_matrix(n, nh, omega0)
                         - hb.toeplitz_from_periodic(band, n_harmonics=nh), nh)
    jac = C._newton_matrix(model, u, omega0)
    assert np.max(np.abs(jac - chain)) <= 1e-12 * np.max(np.abs(chain))


@pytest.mark.parametrize("name, nh", NEWTON_CASES)
def test_odd_newton_matrix_is_the_odd_slot_block_of_the_full_one(name, nh):
    model, u, omega0 = _newton_case(name, nh)
    rows = np.flatnonzero(np.tile(hb._odd_slots(nh), model.dim))
    assert len(rows) == model.dim * 2 * ((nh + 1) // 2)
    full = C._newton_matrix(model, u, omega0)
    odd = C._newton_matrix(model, u, omega0, odd=True)
    assert np.max(np.abs(odd - full[np.ix_(rows, rows)])) <= 1e-14 * np.max(np.abs(full))


def test_resolution_warning_on_underresolved_cycle():
    # the second cycle has only odd harmonics: at N = 4 harmonic 4 is a rounding
    # zero while harmonic 3 is 8% of the peak
    for alpha, omega_y, nh in ((4.0, 1.8, 3), (1.5, 2.5, 4)):
        m = BrownianParticleModel(alpha=alpha, beta=1.0, g=0.1, k=1.0, omega_bar=(2.0, omega_y))
        with warnings.catch_warnings(record=True) as captured:
            warnings.simplefilter("always")
            particle_spectrum(m, n_harmonics=nh)
        assert any(issubclass(w.category, SpectralResolutionWarning) for w in captured)


def test_particle_spectrum_records_the_cycle_tail():
    # the ratio the resolution warning reads, per spectrum: harmonics 3 and 4 over the peak
    m = BrownianParticleModel(alpha=1.5, beta=1.0, g=0.1, k=1.0, omega_bar=(2.0, 2.5))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SpectralResolutionWarning)
        cyc, spec = particle_spectrum(m, n_harmonics=4)
    a = np.abs(cyc.harmonics.amplitudes)
    want = a[:, [0, 1, 7, 8]].max() / a.max()
    assert spec.diagnostics["cycle_tail"] == want > C.RESOLUTION_WARN_RATIO
    # a resolved cycle reads a small tail; the rest state has no cycle and no tail
    _, fine = particle_spectrum(m, n_harmonics=16)
    assert fine.diagnostics["cycle_tail"] < C.RESOLUTION_WARN_RATIO
    rest = BrownianParticleModel(alpha=0.05, beta=1.0, g=0.1, k=1.0, omega_bar=(2.0, 2.0))
    assert "cycle_tail" not in particle_spectrum(rest, n_harmonics=4)[1].diagnostics


# --- linearize --------------------------------------------------------------------


def test_linearize_constant_jacobian():
    model = C.SystemModel(2, lambda z, t: np.array([z[1], -z[0]]),
                          lambda z, t: np.array([[0.0, 1.0], [-1.0, 0.0]]),
                          autonomous=False)
    cyc = zero_guess(2, 3, 2 * math.pi)
    prob = C.linearize(model, cyc)
    want = np.kron(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(7))
    assert np.max(np.abs(prob.jacobian - want)) < 1e-12
    assert prob.transfer is None


def test_linearize_zero_cycle_memory_kernel_is_plain():
    # memory carried as states: a constant Jacobian, no transfer, and the
    # memory rate as the decay bound of the problem
    jac = np.array([[-1.0, 0.0, 1.0, 0.0], [0.0, -1.0, 0.0, 1.0],
                    [0.5, 0.0, -2.0, 0.0], [0.0, 0.5, 0.0, -2.0]])
    model = C.SystemModel(4, lambda z, t: jac @ z, lambda z, t: jac,
                          autonomous=False, memory_rate=2.0)
    prob = C.linearize(model, zero_guess(4, 2, 2 * math.pi))
    assert prob.transfer is None
    assert np.max(np.abs(prob.jacobian - np.kron(jac, np.eye(5)))) < 1e-14
    assert prob.critical_exponent == 2.0


def test_linearize_particle_effective_friction_blocks():
    m = BrownianParticleModel(alpha=1.0, beta=1.0, g=0.1, k=1.0, omega_bar=(2.0, 2.0))
    cyc, _ = particle_spectrum(m, n_harmonics=12)
    system = particle_system(m)
    prob = C.linearize(system, cyc)
    assert prob.transfer is None and prob.critical_exponent == m.k
    # (row state, column state, harmonic, harmonic)
    blocks = prob.jacobian.reshape(6, 25, 6, 25).transpose(0, 2, 1, 3)
    # the memory rows see no position; the memory decays at the constant rate
    # k and feeds the velocity with the constant weight -k
    assert np.max(np.abs(blocks[4:, :2])) < 1e-14
    want = -m.k * np.eye(2)[:, :, None, None] * np.eye(25)
    assert np.max(np.abs(blocks[4:, 4:] - want)) < 1e-14
    assert np.max(np.abs(blocks[2:4, 4:] - want)) < 1e-14
    # the memory-velocity block equals the friction Jacobian harmonics
    gamma_h = particle_effective_friction(m, cyc)
    nh = cyc.harmonics.n_harmonics
    for h in (-2, 0, 2):
        got = blocks[4:, 2:4, nh + h, nh]  # coefficient h sits on diagonal h of each block
        assert np.max(np.abs(got - gamma_h.coefficient(h))) < 1e-10


def _odd_jacobian_harmonics(prob):
    """Entries of the Toeplitz Jacobian at an odd harmonic distance j - l."""
    m = 2 * prob.n_harmonics + 1
    h = np.arange(m)
    odd = (h[:, None] - h[None, :]) % 2 == 1
    return prob.jacobian.reshape(prob.dim, m, prob.dim, m).transpose(0, 2, 1, 3)[:, :, odd]


def test_linearize_zeroes_odd_jacobian_harmonics_of_a_half_wave_cycle(monkeypatch):
    # z(t + T/2) = -z(t) on the particle cycle and its Jacobian is even in z, so A(t)
    # is T/2-periodic: its odd harmonics are rounding, and linearize makes them exact zeros
    m = BrownianParticleModel(alpha=0.55, beta=1.0, g=0.1, k=1.0, omega_bar=(2.0, 2.0 / 0.9))
    cyc, _ = particle_spectrum(m, n_harmonics=12)
    system = particle_system(m)
    prob = C.linearize(system, cyc)
    assert not np.any(_odd_jacobian_harmonics(prob))
    monkeypatch.setattr(C, "_half_wave_symmetric", lambda *args: False)
    unsplit = C.linearize(system, cyc)
    assert 0 < np.max(np.abs(_odd_jacobian_harmonics(unsplit))) < 1e-13
    assert np.max(np.abs(prob.jacobian - unsplit.jacobian)) < 1e-13


def quadratic_forced_model():
    """x'' + 0.5 x' + 4 x + x^2 = cos t: a mean and even harmonics, and an odd Jacobian."""
    def rhs(z, t):
        return np.array([z[1], -4.0 * z[0] - 0.5 * z[1] - z[0] ** 2 + np.cos(t)])

    def jac(z, t):
        one = np.ones_like(z[0])
        return np.array([[0 * one, one], [-4.0 - 2 * z[0], -0.5 * one]])

    return C.SystemModel(2, rhs, jac, validate=True)


def test_cycle_without_half_wave_symmetry_keeps_odd_harmonics_in_one_block(
        pep_blocks, solve_rows):
    model = quadratic_forced_model()
    cyc = C.solve_cycle(model, zero_guess(2, 8, 2 * math.pi))
    assert solve_rows and set(solve_rows) == {2 * 17}  # cycle Newton over every slot
    a = np.abs(cyc.harmonics.amplitudes)
    assert a[0, 8] > 1e-2 and a[0, 10] > 1e-3  # the mean and the second harmonic of x
    prob = C.linearize(model, cyc)
    assert np.max(np.abs(_odd_jacobian_harmonics(prob))) > 1e-2
    spec = F.floquet_spectrum(prob)
    assert [len(c) for c, _ in pep_blocks] == [2 * 17]  # the whole real Hill matrix
    assert len(spec.canonical_strip) == 2 and spec.stability == "Stable"


def test_odd_slot_newton_goes_on_over_all_slots_when_the_even_ones_are_unbalanced(
        monkeypatch, solve_rows):
    # claim the symmetry for a model without it: the odd solve converges, the guard
    # reads the mean and second harmonic of x^2 in the full residual, and Newton goes on
    model = quadratic_forced_model()
    want = C.solve_cycle(model, zero_guess(2, 8, 2 * math.pi))
    solve_rows.clear()
    monkeypatch.setattr(C, "_half_wave_symmetric", lambda *args: True)
    cyc = C.solve_cycle(model, zero_guess(2, 8, 2 * math.pi))
    odd = 2 * 2 * 4  # the cos/sin pairs of h = 1, 3, 5, 7 in both states
    assert solve_rows[0] == odd and solve_rows[-1] == 2 * 17
    assert cyc.residual <= C.NEWTON_TOL
    assert np.linalg.norm(C.hb_residual(model, cyc)) <= C.NEWTON_TOL
    a = cyc.harmonics.amplitudes
    assert np.max(np.abs(a - want.harmonics.amplitudes)) <= 1e-12 * np.max(np.abs(a))


@pytest.mark.parametrize("instantaneous", [False, True])
def test_particle_system_jacobian_passes_validation(instantaneous):
    m = BrownianParticleModel(alpha=0.7, beta=1.3, g=0.2, k=1.5, omega_bar=(2.0, 1.7))
    if instantaneous:
        m = dataclasses.replace(m, k=math.inf)
    system = particle_system(m)
    assert system.dim == (4 if instantaneous else 6)
    assert system.memory_rate == (math.inf if instantaneous else m.k)
    dataclasses.replace(system, validate=True)  # raises on a finite-difference mismatch


@pytest.mark.parametrize("k", [1.0, math.inf])
def test_particle_system_grid_call_equals_column_calls(k):
    # one call on a (dim, G) grid gives exactly the per-sample values
    system = particle_system(BrownianParticleModel(alpha=0.7, beta=1.3, g=0.2, k=k,
                                                   omega_bar=(2.0, 1.7)))
    rng = np.random.default_rng(3)
    z = rng.normal(size=(system.dim, 9))
    t = rng.uniform(0.0, 3.0, size=9)
    f = system.rhs(z, t)
    jac = system.rhs_jacobian(z, t)
    assert f.shape == (system.dim, 9) and jac.shape == (system.dim, system.dim, 9)
    for i in range(9):
        assert np.array_equal(f[:, i], system.rhs(z[:, i], t[i]))
        assert np.array_equal(jac[:, :, i], system.rhs_jacobian(z[:, i], t[i]))


def test_trivial_exponent_from_cycle_derivative():
    # d/dt of an autonomous cycle is an exact null mode of R(0)
    m = BrownianParticleModel(alpha=1.0, beta=1.0, g=0.1, k=1.0, omega_bar=(2.0, 2.0))
    cyc, _ = particle_spectrum(m, n_harmonics=16)
    system = particle_system(m)
    prob = C.linearize(system, cyc)
    dz = hb.differentiate(cyc.harmonics)
    r0 = F.residual_matrices(prob, 0.0)[0]
    defect = np.linalg.norm(r0 @ dz.flat)
    assert defect < 1e-6 * np.linalg.norm(dz.flat)


def test_jacobian_validation_flags_wrong_jacobian():
    with pytest.raises(ValueError, match="finite differences"):
        C.SystemModel(1, lambda z, t: np.array([z[0] ** 2]),
                      lambda z, t: np.array([[1.0]]),  # wrong on purpose
                      autonomous=False, validate=True)
    C.SystemModel(1, lambda z, t: np.array([z[0] ** 2]),
                  lambda z, t: np.array([[2 * z[0]]]), autonomous=False, validate=True)
