"""Periodic steady states of nonlinear systems with memory.

The state equation is dz/dt = f(z, t) + integral K(t - tau) w(z(tau)) dtau
with a time-invariant kernel envelope and an optional state-dependent
integrand w (identity by default).  The periodic solution is sought directly
in the frequency domain: the harmonic residual

    rho = Omega_n z - F(z) - M(z)

is driven to zero by damped Newton iteration (to a residual norm of 1e-10,
halving the step at most 20 times), where F collects the harmonics of f
sampled on the oversampled grid ``sample_times(2N, T)`` (alias-free in the
retained band for polynomial nonlinearities) and M applies the kernel
transfer per harmonic to the integrand harmonics.  Jacobians sampled on the
same grid keep the band -2N..2N before they become Toeplitz operators.  For
autonomous systems the fundamental frequency is an unknown and one
first-harmonic imaginary part, on the component with the largest
first-harmonic magnitude in the seed, is pinned to zero to fix the time
origin.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import NoConvergence, SingularJacobian, SpectralResolutionWarning
from .floquet import FloquetProblem
from .hb import (
    HarmonicVector,
    MatrixHarmonics,
    TimeSamples,
    _grid_basis,
    dft,
    extract_real_rows,
    pack_real_coefficients,
    real_coefficient_basis,
    sample_times,
    stacked_diff_matrix,
    toeplitz_from_periodic,
    unpack_real_coefficients,
)
from .kernels import (
    ExponentialDecay,
    KernelSpec,
    MemoryTransfer,
    ModulatedExponential,
    transfer_at,
    transfer_dlambda,
)

__all__ = [
    "SystemModel",
    "LimitCycle",
    "hb_residual",
    "solve_cycle",
    "linearize",
    "seed_from_time_integration",
    "rotate_phase",
]

log = logging.getLogger(__name__)

RESOLUTION_WARN_RATIO = 1e-8
NEWTON_TOL = 1e-10  # harmonic-balance residual norm at convergence


@dataclass
class SystemModel:
    """Right-hand side, Jacobian, and memory structure of the state equation.

    ``rhs(z, t)`` and ``rhs_jacobian(z, t)`` describe the memoryless part;
    ``kernel`` (optional) the memory envelope, applied to
    ``memory_integrand(z)`` which defaults to the state itself.  Autonomous
    systems must ignore ``t`` and may leave the period to be solved for.
    With ``validate=True`` the Jacobian is checked against finite differences
    of the right-hand side on a few random states at construction.
    """

    dim: int
    rhs: Callable
    rhs_jacobian: Callable
    kernel: KernelSpec | None = None
    memory_integrand: Callable | None = None
    memory_integrand_jacobian: Callable | None = None
    autonomous: bool = False
    period_hint: float | None = None
    validate: bool = False

    def __post_init__(self):
        if (self.memory_integrand is None) != (self.memory_integrand_jacobian is None):
            raise ValueError("memory integrand and its jacobian must come together")
        if self.memory_integrand is not None and not isinstance(
                self.kernel, (ExponentialDecay,)):
            raise ValueError("state-dependent integrands need an exponential envelope")
        if self.validate:
            self._check_jacobian()

    def _check_jacobian(self, n_checks: int = 3, tol: float = 1e-5):
        rng = np.random.default_rng(0)
        for _ in range(n_checks):
            z = rng.normal(size=self.dim)
            t = float(rng.uniform(0, 1))
            jac = np.atleast_2d(np.asarray(self.rhs_jacobian(z, t), dtype=float))
            fd = np.empty_like(jac)
            h = 1e-6
            for j in range(self.dim):
                dz = np.zeros(self.dim)
                dz[j] = h
                fd[:, j] = (np.asarray(self.rhs(z + dz, t)) -
                            np.asarray(self.rhs(z - dz, t))) / (2 * h)
            scale = max(1.0, float(np.max(np.abs(jac))))
            if np.max(np.abs(jac - fd)) > tol * scale:
                raise ValueError("rhs_jacobian disagrees with finite differences of rhs")

    def integrand_values(self, z: np.ndarray) -> np.ndarray:
        if self.memory_integrand is None:
            return z
        return np.asarray(self.memory_integrand(z))

    def integrand_jacobian_values(self, z: np.ndarray) -> np.ndarray:
        if self.memory_integrand_jacobian is None:
            return np.eye(self.dim)
        return np.atleast_2d(np.asarray(self.memory_integrand_jacobian(z)))


@dataclass
class LimitCycle:
    """Converged periodic steady state in harmonic form."""

    period: float
    harmonics: HarmonicVector
    residual: float
    phase_anchor: int | None = None

    @property
    def omega0(self) -> float:
        return 2 * np.pi / self.period


def rotate_phase(hv: HarmonicVector, phi: float) -> HarmonicVector:
    """Shift the time origin: a_h -> a_h * exp(i h phi)."""
    factors = np.exp(1j * hv.harmonics * phi)
    return HarmonicVector(hv.dim, hv.n_harmonics, hv.amplitudes * factors, hv.omega0,
                          real_signal=hv.real_signal)


def _sampled_band(fn, z_real: np.ndarray, times: np.ndarray, period: float) -> MatrixHarmonics:
    """Harmonics -2N..2N of the matrix fn(z, t) sampled along the cycle.

    ``times`` is the oversampled grid ``sample_times(2N, period)``.
    """
    samples = np.stack([np.atleast_2d(fn(z, t)) for z, t in zip(z_real.T, times)], axis=-1)
    return MatrixHarmonics.from_time_grid(samples, period, (len(times) - 1) // 2)


def _memory_factors(model: SystemModel, omegas: np.ndarray):
    if model.kernel is None:
        return None
    mt = MemoryTransfer(model.kernel)
    return [transfer_at(mt, 0.0, w) for w in omegas]


def _residual_complex(model: SystemModel, amps: np.ndarray, omega0: float):
    """Harmonic residual and the sampled quantities reused by the Jacobian."""
    n = model.dim
    nh = (amps.shape[1] - 1) // 2
    times = sample_times(2 * nh, 2 * np.pi / omega0)
    g = len(times)
    basis = _grid_basis(nh, g)
    # conjugate-symmetric amplitudes guarantee real samples
    z_real = HarmonicVector(n, nh, amps, omega0).evaluate(times).real
    f_samples = np.empty((n, g))
    for i, t in enumerate(times):
        f_samples[:, i] = np.asarray(model.rhs(z_real[:, i], t), dtype=float)
    f_tilde = f_samples @ basis.T

    omegas = np.arange(-nh, nh + 1) * omega0
    h = np.arange(-nh, nh + 1)
    rho = (1j * h * omega0) * amps - f_tilde

    w_tilde = None
    factors = _memory_factors(model, omegas)
    if factors is not None:
        if model.memory_integrand is None:
            w_tilde = amps
        else:
            w_samples = np.empty((n, g))
            for i in range(g):
                w_samples[:, i] = model.integrand_values(z_real[:, i])
            w_tilde = w_samples @ basis.T
        for j in range(2 * nh + 1):
            rho[:, j] -= factors[j] @ w_tilde[:, j]
    return rho, z_real, times, factors, w_tilde


def hb_residual(model: SystemModel, cycle: LimitCycle) -> np.ndarray:
    """Packed real harmonic-balance residual of a candidate cycle."""
    rho, *_ = _residual_complex(model, cycle.harmonics.amplitudes, cycle.omega0)
    return pack_real_coefficients(rho)


def _jacobian_complex(model: SystemModel, amps: np.ndarray, omega0: float,
                      z_real: np.ndarray, times: np.ndarray, factors) -> np.ndarray:
    n = model.dim
    nh = (amps.shape[1] - 1) // 2
    period = 2 * np.pi / omega0

    a_mh = _sampled_band(model.rhs_jacobian, z_real, times, period)
    jac = stacked_diff_matrix(n, nh, omega0) \
        - toeplitz_from_periodic(a_mh, n_harmonics=nh).matrix()

    if factors is not None:
        if model.memory_integrand is None:
            jw_top = np.eye(n * (2 * nh + 1), dtype=complex)
        else:
            jw_mh = _sampled_band(lambda z, t: model.integrand_jacobian_values(z),
                                  z_real, times, period)
            jw_top = toeplitz_from_periodic(jw_mh, n_harmonics=nh).matrix()
        m = 2 * nh + 1
        mem = np.zeros((n * m, n * m), dtype=complex)
        for j in range(m):
            rows = np.arange(n) * m + j
            mem[rows, :] = factors[j] @ jw_top[rows, :]
        jac = jac - mem
    return jac


def _omega_derivative(model: SystemModel, amps: np.ndarray, omega0: float,
                      factors, w_tilde) -> np.ndarray:
    """d(residual)/d(omega0) for autonomous problems (no explicit t in rhs)."""
    nh = (amps.shape[1] - 1) // 2
    h = np.arange(-nh, nh + 1)
    d = (1j * h) * amps
    if factors is not None:
        mt = MemoryTransfer(model.kernel)
        omegas = h * omega0
        for j in range(2 * nh + 1):
            dfac = 1j * h[j] * transfer_dlambda(mt, 0.0, omegas[j])
            d[:, j] -= dfac @ w_tilde[:, j]
    return d


def solve_cycle(model: SystemModel, initial_guess: LimitCycle,
                max_iter: int = 60) -> LimitCycle:
    """Damped Newton iteration on the harmonic-balance residual.

    For autonomous models the fundamental frequency joins the unknowns and
    the phase condition Im a_{anchor,1} = 0 closes the system; the anchor is
    the component with the largest first-harmonic magnitude in the seed.
    Raises :class:`NoConvergence` with the residual trace when the iteration
    stalls or runs past ``max_iter`` steps and :class:`SingularJacobian` when
    the Newton system is singular.
    """
    n = model.dim
    hv = initial_guess.harmonics
    nh = hv.n_harmonics
    if hv.dim != n:
        raise ValueError("guess dimension does not match the model")
    omega0 = 2 * np.pi / initial_guess.period

    first = np.abs(hv.amplitudes[:, nh + 1]) if nh >= 1 else np.zeros(n)
    anchor = int(np.argmax(first))
    if model.autonomous and nh >= 1:
        pivot = hv.amplitudes[anchor, nh + 1]
        if abs(pivot) > 0:
            hv = rotate_phase(hv, -np.angle(pivot))

    amps = np.array(hv.amplitudes)
    u = pack_real_coefficients(amps)
    basis = real_coefficient_basis(n, nh)
    m = 2 * nh + 1
    anchor_slot = anchor * m + 2  # packed index of Im a_{anchor,1}

    def full_residual(uvec, w0):
        a = unpack_real_coefficients(uvec, n, nh)
        rho, z_real, times, factors, w_tilde = _residual_complex(model, a, w0)
        rr = pack_real_coefficients(rho)
        if model.autonomous:
            rr = np.concatenate([rr, [a[anchor, nh + 1].imag]])
        return rr, (a, rho, z_real, times, factors, w_tilde)

    trace = []
    rr, ctx = full_residual(u, omega0)
    norm = float(np.linalg.norm(rr))
    trace.append(norm)
    for _ in range(max_iter):
        if norm < NEWTON_TOL:
            break
        a, rho, z_real, times, factors, w_tilde = ctx
        jc = _jacobian_complex(model, a, omega0, z_real, times, factors)
        jr = extract_real_rows(jc @ basis, n, nh)
        if model.autonomous:
            dw = extract_real_rows(
                _omega_derivative(model, a, omega0, factors, w_tilde).reshape(-1), n, nh)
            jr = np.block([[jr, dw[:, None]],
                           [np.zeros((1, jr.shape[1] + 1))]])
            jr[-1, anchor_slot] = 1.0
        try:
            delta = np.linalg.solve(jr, -rr)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from exc

        step = 1.0
        accepted = False
        for _ in range(20):
            u_new = u + step * delta[:n * m]
            w_new = omega0 + step * delta[n * m] if model.autonomous else omega0
            if w_new <= 0:
                step *= 0.5
                continue
            rr_new, ctx_new = full_residual(u_new, w_new)
            norm_new = float(np.linalg.norm(rr_new))
            if norm_new < norm:
                u, omega0, rr, ctx, norm = u_new, w_new, rr_new, ctx_new, norm_new
                accepted = True
                break
            step *= 0.5
        trace.append(norm)
        if not accepted:
            raise NoConvergence("cycle Newton stalled (no decreasing step)", trace)
    else:
        raise NoConvergence("cycle Newton did not reach tolerance", trace)

    amps = unpack_real_coefficients(u, n, nh)
    result = HarmonicVector(n, nh, amps, omega0, real_signal=True)
    _warn_if_underresolved(result)
    return LimitCycle(2 * np.pi / omega0, result, norm, phase_anchor=anchor)


def _warn_if_underresolved(hv: HarmonicVector):
    n = hv.n_harmonics
    if n < 2:
        return
    a = np.abs(hv.amplitudes)
    peak = a.max()
    if peak < NEWTON_TOL:  # zero within the Newton tolerance, nothing to resolve
        return
    edge = max(a[:, 0].max(), a[:, -1].max())
    if edge > RESOLUTION_WARN_RATIO * peak:
        warnings.warn(
            f"trailing harmonic amplitude {edge:.2e} exceeds {RESOLUTION_WARN_RATIO:.0e}"
            f" of the peak {peak:.2e}; increase the truncation",
            SpectralResolutionWarning, stacklevel=2)


def linearize(model: SystemModel, cycle: LimitCycle) -> FloquetProblem:
    """Variational problem about a converged cycle.

    The memoryless Jacobian sampled along the cycle becomes the Toeplitz
    operator; a state-dependent memory integrand linearizes into a
    periodically modulated exponential kernel.
    """
    n = model.dim
    nh = cycle.harmonics.n_harmonics
    times = sample_times(2 * nh, cycle.period)
    # evaluate at omega0 = 2*pi/period, the frequency of the grid and of the problem
    z_real = replace(cycle.harmonics, omega0=cycle.omega0).evaluate(times).real

    a_mh = _sampled_band(model.rhs_jacobian, z_real, times, cycle.period)
    jac = toeplitz_from_periodic(a_mh, n_harmonics=nh)

    transfer = None
    if model.kernel is not None:
        if model.memory_integrand is None:
            transfer = MemoryTransfer(model.kernel)
        else:
            env = model.kernel
            profile = _sampled_band(
                lambda z, t: env.coefficient @ model.integrand_jacobian_values(z),
                z_real, times, cycle.period)
            transfer = MemoryTransfer(ModulatedExponential(profile, env.rate))
    return FloquetProblem(jac, transfer, cycle.period, nh, n)


# --- coarse time-domain seeding ----------------------------------------------


def seed_from_time_integration(model: SystemModel, n_harmonics: int, z0,
                               period_estimate: float | None = None) -> LimitCycle:
    """Initial cycle guess from fixed-step integration of the transient.

    Marches RK4 over ten estimated periods in 2000 steps, estimates the
    period from late upcrossings, and transforms the last period to harmonic
    form.  An exponential memory integral q(t) = int exp(-rate (t - tau))
    C w(z(tau)) dtau is carried as a state that starts from the zero history:
    it is held fixed over each RK4 step and then advanced by the exact
    exponential update q <- exp(-rate h) q + (1 - exp(-rate h))/rate C w(z).
    Other kernels raise ``ValueError``.
    """
    n_periods, n_steps = 10, 2000
    t_guess = period_estimate or model.period_hint
    if t_guess is None:
        raise ValueError("need a period estimate to seed from time integration")
    kern = model.kernel
    if kern is not None and not isinstance(kern, ExponentialDecay):
        raise ValueError("time-domain seeding needs an exponential memory kernel")
    z0 = np.asarray(z0, dtype=float)
    t_end = n_periods * t_guess
    h = t_end / n_steps
    if kern is not None:
        decay = math.exp(-kern.rate * h)
        gain = (1.0 - decay) / kern.rate * kern.coefficient

    def f(zz, tt):
        return np.asarray(model.rhs(zz, tt), dtype=float)

    times = np.arange(n_steps + 1) * h
    hist_z = np.zeros((model.dim, n_steps + 1))
    hist_z[:, 0] = z0
    z = z0.copy()
    q = np.zeros(model.dim)
    for i in range(n_steps):
        t = times[i]
        k1 = f(z, t) + q
        k2 = f(z + 0.5 * h * k1, t + 0.5 * h) + q
        k3 = f(z + 0.5 * h * k2, t + 0.5 * h) + q
        k4 = f(z + h * k3, t + h) + q
        z = z + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        hist_z[:, i + 1] = z
        if kern is not None:
            q = decay * q + gain @ model.integrand_values(z)

    period = _estimate_period(times, hist_z, t_guess) if model.autonomous else t_guess
    sample_t = t_end - period + sample_times(n_harmonics, period)
    amps_samples = np.empty((model.dim, len(sample_t)))
    for c in range(model.dim):
        amps_samples[c] = np.interp(sample_t, times, hist_z[c])
    hv = dft(TimeSamples(model.dim, amps_samples, period))
    return LimitCycle(period, hv, math.inf, phase_anchor=None)


def _estimate_period(times: np.ndarray, hist: np.ndarray, fallback: float) -> float:
    tail = times >= times[-1] - 4 * fallback
    t = times[tail]
    best = None
    for c in range(hist.shape[0]):
        x = hist[c, tail]
        x = x - x.mean()
        if np.ptp(x) < 1e-12:
            continue
        ups = np.nonzero((x[:-1] < 0) & (x[1:] >= 0))[0]
        if len(ups) < 3:
            continue
        crossings = t[ups] - x[ups] * (t[ups + 1] - t[ups]) / (x[ups + 1] - x[ups])
        gaps = np.diff(crossings)
        est = float(np.median(gaps))
        if best is None or abs(est - fallback) < abs(best - fallback):
            best = est
    return best if best is not None else fallback
