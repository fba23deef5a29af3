"""Cycle-solver tests: residual correctness, Newton behavior, linearization."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from memflo import cycles as C
from memflo import floquet as F
from memflo import hb
from memflo.errors import NoConvergence, SpectralResolutionWarning
from memflo.models import BrownianParticleModel, particle_spectrum, particle_system
from memflo.oracles import circular_orbit, orbit_period_amplitude, rk4_trajectory


def linear_forced_model(omega0=1.0):
    return C.SystemModel(
        1,
        lambda z, t: np.array([-z[0] + math.cos(omega0 * t)]),
        lambda z, t: np.array([[-1.0]]),
        autonomous=False,
        period_hint=2 * math.pi / omega0,
    )


def forced_memory_model(k):
    """dz/dt = -z + q + cos t with the memory q = int exp(-k (t - tau)) z dtau as a state."""
    return C.SystemModel(
        2,
        lambda z, t: np.array([-z[0] + z[1] + math.cos(t), -k * z[1] + z[0]]),
        lambda z, t: np.array([[-1.0, 1.0], [1.0, -k]]),
        autonomous=False,
        period_hint=2 * math.pi,
        memory_rate=k,
    )


def zero_guess(dim, n_harmonics, period):
    hv = hb.HarmonicVector(dim, n_harmonics, np.zeros((dim, 2 * n_harmonics + 1)),
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
                        hb.HarmonicVector(1, n, amps, 1.0, real_signal=True), 0.0)
    assert np.linalg.norm(C.hb_residual(model, cand)) < 1e-12


def test_residual_zero_state_of_unforced_system():
    # dz/dt = -z + q, dq/dt = -q + 0.3 z: a memory of z carried as two states
    model = C.SystemModel(4, lambda z, t: np.concatenate([-z[:2] + z[2:], -z[2:] + 0.3 * z[:2]]),
                          lambda z, t: np.block([[-np.eye(2), np.eye(2)],
                                                 [0.3 * np.eye(2), -np.eye(2)]]),
                          autonomous=False, period_hint=2 * math.pi, memory_rate=1.0)
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
                          autonomous=False, period_hint=2 * math.pi, memory_rate=k)
    # fixed point: -z + 1 + z/k = 0  ->  z = k/(k-1)
    zstar = k / (k - 1.0)
    n = 3
    amps = np.zeros((2, 2 * n + 1))
    amps[0, n] = zstar
    amps[1, n] = zstar / k
    cand = C.LimitCycle(2 * math.pi, hb.HarmonicVector(2, n, amps, 1.0, real_signal=True),
                        0.0)
    assert np.linalg.norm(C.hb_residual(model, cand)) < 1e-12


# --- solve_cycle ------------------------------------------------------------------


def test_solve_cycle_linear_forced_converges_fast():
    model = linear_forced_model()
    evals = []
    orig = C._residual_complex

    def spy(mdl, amps, w0):
        evals.append(1)
        return orig(mdl, amps, w0)

    C._residual_complex = spy
    try:
        cyc = C.solve_cycle(model, zero_guess(1, 5, 2 * math.pi))
    finally:
        C._residual_complex = orig
    assert len(evals) <= 4  # linear problem: one Newton step plus bookkeeping
    assert cyc.residual < 1e-12
    assert cyc.harmonics.amplitude(0, 1) == pytest.approx(0.25 - 0.25j, abs=1e-12)
    assert cyc.harmonics.amplitude(0, -1) == pytest.approx(0.25 + 0.25j, abs=1e-12)


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
                          lambda z, t: np.array([[2 * z[0]]]), autonomous=True,
                          period_hint=2 * math.pi)
    amps = np.zeros((1, 7), dtype=complex)
    amps[0, 4] = amps[0, 2] = 0.5
    guess = C.LimitCycle(2 * math.pi, hb.HarmonicVector(1, 3, amps, 1.0), math.inf)
    with pytest.raises(NoConvergence) as err:
        C.solve_cycle(model, guess, max_iter=8)
    assert len(err.value.trace) >= 1


def test_newton_quadratic_tail():
    # track the residual trace of a genuinely nonlinear solve
    m = BrownianParticleModel(alpha=1.0, beta=1.0, g=0.1, k=1.0, omega_bar=(2.0, 1.9))
    system = particle_system(m)
    from memflo.models import circular_cycle_guess

    guess = circular_cycle_guess(m, 12)
    norms = []
    orig = C._residual_complex

    def spy(model, amps, w0):
        out = orig(model, amps, w0)
        norms.append(float(np.linalg.norm(hb.pack_real_coefficients(out[0]))))
        return out

    C._residual_complex = spy
    try:
        C.solve_cycle(system, guess)
    finally:
        C._residual_complex = orig
    accepted = [n for n in norms if n > 0]
    tail = [n for n in accepted if n < 1e-2]
    # quadratic contraction with a generous slack factor
    for before, after in zip(tail, tail[1:]):
        if after < 1e-14:
            break
        assert after <= 10.0 * before**2 / max(tail[0], 1e-30) or after <= before**2 * 1e4


def test_resolution_warning_on_underresolved_cycle():
    m = BrownianParticleModel(alpha=4.0, beta=1.0, g=0.1, k=1.0, omega_bar=(2.0, 1.8))
    with warnings.catch_warnings(record=True) as captured:
        warnings.simplefilter("always")
        try:
            particle_spectrum(m, n_harmonics=3)
        except Exception:
            pytest.skip("no cycle at this truncation")
        assert any(issubclass(w.category, SpectralResolutionWarning) for w in captured)


# --- linearize --------------------------------------------------------------------


def test_linearize_constant_jacobian():
    model = C.SystemModel(2, lambda z, t: np.array([z[1], -z[0]]),
                          lambda z, t: np.array([[0.0, 1.0], [-1.0, 0.0]]),
                          autonomous=False, period_hint=2 * math.pi)
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
                          autonomous=False, period_hint=2 * math.pi, memory_rate=2.0)
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
    from memflo.models import particle_effective_friction

    gamma_h = particle_effective_friction(m, cyc)
    nh = cyc.harmonics.n_harmonics
    for h in (-2, 0, 2):
        got = blocks[4:, 2:4, nh + h, nh]  # coefficient h sits on diagonal h of each block
        assert np.max(np.abs(got - gamma_h.coefficient(h))) < 1e-10


@pytest.mark.parametrize("instantaneous", [False, True])
def test_particle_system_jacobian_passes_validation(instantaneous):
    m = BrownianParticleModel(alpha=0.7, beta=1.3, g=0.2, k=1.5, omega_bar=(2.0, 1.7))
    if instantaneous:
        m = dataclasses.replace(m, k=math.inf)
    system = particle_system(m)
    assert system.dim == (4 if instantaneous else 6)
    assert system.memory_rate == (math.inf if instantaneous else m.k)
    dataclasses.replace(system, validate=True)  # raises on a finite-difference mismatch


def test_trivial_exponent_from_cycle_derivative():
    # d/dt of an autonomous cycle is an exact null mode of R(0)
    m = BrownianParticleModel(alpha=1.0, beta=1.0, g=0.1, k=1.0, omega_bar=(2.0, 2.0))
    cyc, _ = particle_spectrum(m, n_harmonics=16)
    system = particle_system(m)
    prob = C.linearize(system, cyc)
    dz = hb.differentiate(cyc.harmonics)
    r0 = F.assemble_residual_matrix(prob, 0.0)
    defect = np.linalg.norm(r0 @ dz.flat)
    assert defect < 1e-6 * np.linalg.norm(dz.flat)


def test_jacobian_validation_flags_wrong_jacobian():
    with pytest.raises(ValueError, match="finite differences"):
        C.SystemModel(1, lambda z, t: np.array([z[0] ** 2]),
                      lambda z, t: np.array([[1.0]]),  # wrong on purpose
                      autonomous=False, validate=True)
    C.SystemModel(1, lambda z, t: np.array([z[0] ** 2]),
                  lambda z, t: np.array([[2 * z[0]]]), autonomous=False, validate=True)


def test_seed_from_time_integration_recovers_forced_response():
    model = linear_forced_model()
    seed = C.seed_from_time_integration(model, 5, z0=np.array([0.0]),
                                        period_estimate=2 * math.pi)
    cyc = C.solve_cycle(model, seed)
    assert cyc.harmonics.amplitude(0, 1) == pytest.approx(0.25 - 0.25j, abs=1e-10)
    # the transient-integrated seed is already close
    assert abs(seed.harmonics.amplitude(0, 1) - (0.25 - 0.25j)) < 1e-2


def test_seed_from_time_integration_carries_exponential_memory():
    # dz/dt = -z + q + cos t, dq/dt = -2 q + z: first harmonic 0.5 / (1 + i - 1/(2 + i))
    model = forced_memory_model(2.0)
    exact = 0.5 / (1 + 1j - 1 / (2 + 1j))
    seed = C.seed_from_time_integration(model, 5, z0=np.zeros(2))
    assert abs(seed.harmonics.amplitude(0, 1) - exact) < 2e-4
    assert abs(seed.harmonics.amplitude(1, 1) - exact / (2 + 1j)) < 2e-4
    cyc = C.solve_cycle(model, seed)
    assert abs(cyc.harmonics.amplitude(0, 1) - exact) < 1e-10
    assert abs(cyc.harmonics.amplitude(1, 1) - exact / (2 + 1j)) < 1e-10


def test_seed_from_time_integration_resolves_fast_memory():
    # a fast memory state is stiff; LSODA switches method by itself, so no
    # step budget caps the rate
    for k in (500.0, 1e6):
        exact = 0.5 / (1 + 1j - 1 / (k + 1j))
        seed = C.seed_from_time_integration(forced_memory_model(k), 5, z0=np.zeros(2))
        assert abs(seed.harmonics.amplitude(0, 1) - exact) < 2e-4


def test_seed_from_time_integration_raises_on_diverging_transient():
    # dz/dt = z^3 from z = 1 blows up at t = 0.5; left alone, LSODA keeps
    # stepping on the overflowed state
    model = C.SystemModel(1, lambda z, t: z ** 3, lambda z, t: np.array([[3 * z[0] ** 2]]),
                          period_hint=2 * math.pi)
    with np.errstate(over="ignore"), pytest.raises(NoConvergence):
        C.seed_from_time_integration(model, 3, z0=np.array([1.0]))
