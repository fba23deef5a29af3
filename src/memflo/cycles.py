"""Periodic steady states of nonlinear systems.

The state equation is the memoryless dz/dt = f(z, t); an exponential memory
is carried as extra states of z (the linear chain trick), and the rate of
the slowest such state is recorded as ``SystemModel.memory_rate`` so that
the variational problem keeps the decay bound of the memory it came from.
The periodic solution is sought directly in the frequency domain: the
harmonic residual

    rho = Omega_n z - F(z)

is driven to zero by damped Newton iteration (to a residual norm of 1e-10,
halving the step at most 20 times), where F collects the harmonics of f
sampled on the oversampled grid ``sample_times(2N, T)`` (alias-free in the
retained band for polynomial nonlinearities).  Jacobians sampled on the
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
from scipy.integrate import solve_ivp

from .errors import NoConvergence, SingularJacobian, SpectralResolutionWarning
from .floquet import FloquetProblem
from .hb import (
    HarmonicVector,
    MatrixHarmonics,
    TimeSamples,
    _grid_basis,
    dft,
    pack_real_coefficients,
    real_form,
    sample_times,
    stacked_diff_matrix,
    toeplitz_from_periodic,
    unpack_real_coefficients,
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
    """Right-hand side and Jacobian of a memoryless state equation.

    ``rhs(z, t)`` and ``rhs_jacobian(z, t)`` describe dz/dt = f(z, t) on a
    grid of states in one call: z has shape (dim, ...), t broadcasts against
    its trailing axes, ``rhs`` returns (dim, ...) and ``rhs_jacobian``
    (dim, dim, ...) or a constant (dim, dim).  The collocation grid passes
    z of shape (dim, G) with t of shape (G,), time integration one (dim,)
    state.  A
    model that carries exponential memory as states sets ``memory_rate`` to
    the decay rate of those states: exponents at or below -memory_rate belong
    to no admissible mode of the memory system and are filtered out of its
    spectra.  It is a spectral bound only: neither the cycle solve nor the
    time-domain seed reads it.  Autonomous systems must ignore ``t`` and
    may leave the period to be solved for.  With ``validate=True`` the
    Jacobian is checked against finite differences of the right-hand side on
    a few random states at construction.
    """

    dim: int
    rhs: Callable
    rhs_jacobian: Callable
    autonomous: bool = False
    period_hint: float | None = None
    memory_rate: float = math.inf
    validate: bool = False

    def __post_init__(self):
        if self.validate:
            self._check_jacobian()

    def _check_jacobian(self, n_checks: int = 3, tol: float = 1e-5):
        rng = np.random.default_rng(0)
        h = 1e-6
        dz = h * np.eye(self.dim)  # column j perturbs state j
        for _ in range(n_checks):
            z = rng.normal(size=self.dim)
            t = float(rng.uniform(0, 1))
            jac = np.asarray(self.rhs_jacobian(z, t), dtype=float)
            fd = (np.asarray(self.rhs(z[:, None] + dz, t)) -
                  np.asarray(self.rhs(z[:, None] - dz, t))) / (2 * h)
            scale = max(1.0, float(np.max(np.abs(jac))))
            if np.max(np.abs(jac - fd)) > tol * scale:
                raise ValueError("rhs_jacobian disagrees with finite differences of rhs")


@dataclass
class LimitCycle:
    """Converged periodic steady state in harmonic form."""

    period: float
    harmonics: HarmonicVector
    residual: float

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

    ``times`` is the oversampled grid ``sample_times(2N, period)``; a
    constant fn broadcasts over it.
    """
    n, g = z_real.shape
    samples = np.broadcast_to(np.reshape(fn(z_real, times), (n, n, -1)), (n, n, g))
    return MatrixHarmonics.from_time_grid(samples, period, (g - 1) // 2)


def _residual_complex(model: SystemModel, amps: np.ndarray, omega0: float):
    """Harmonic residual and the sampled cycle reused by the Jacobian."""
    n = model.dim
    nh = (amps.shape[1] - 1) // 2
    times = sample_times(2 * nh, 2 * np.pi / omega0)
    basis = _grid_basis(nh, len(times))
    # conjugate-symmetric amplitudes guarantee real samples
    z_real = HarmonicVector(n, nh, amps, omega0).evaluate(times).real
    f_samples = np.asarray(model.rhs(z_real, times), dtype=float)
    h = np.arange(-nh, nh + 1)
    rho = (1j * h * omega0) * amps - f_samples @ basis.T
    return rho, z_real, times


def hb_residual(model: SystemModel, cycle: LimitCycle) -> np.ndarray:
    """Packed real harmonic-balance residual of a candidate cycle."""
    rho, *_ = _residual_complex(model, cycle.harmonics.amplitudes, cycle.omega0)
    return pack_real_coefficients(rho)


def _jacobian_complex(model: SystemModel, amps: np.ndarray, omega0: float,
                      z_real: np.ndarray, times: np.ndarray) -> np.ndarray:
    n = model.dim
    nh = (amps.shape[1] - 1) // 2
    a_mh = _sampled_band(model.rhs_jacobian, z_real, times, 2 * np.pi / omega0)
    return stacked_diff_matrix(n, nh, omega0) - toeplitz_from_periodic(a_mh, n_harmonics=nh)


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
    m = 2 * nh + 1
    anchor_slot = anchor * m + 2  # packed index of Im a_{anchor,1}

    def full_residual(uvec, w0):
        a = unpack_real_coefficients(uvec, n, nh)
        rho, z_real, times = _residual_complex(model, a, w0)
        rr = pack_real_coefficients(rho)
        if model.autonomous:
            rr = np.concatenate([rr, [a[anchor, nh + 1].imag]])
        return rr, (a, z_real, times)

    trace = []
    rr, ctx = full_residual(u, omega0)
    norm = float(np.linalg.norm(rr))
    trace.append(norm)
    for _ in range(max_iter):
        if norm < NEWTON_TOL:
            break
        a, z_real, times = ctx
        jr = real_form(_jacobian_complex(model, a, omega0, z_real, times), n, nh)
        if model.autonomous:
            # d(residual)/d(omega0): only the derivative term depends on omega0
            dw = pack_real_coefficients((1j * np.arange(-nh, nh + 1)) * a)
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
    return LimitCycle(2 * np.pi / omega0, result, norm)


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

    The Jacobian sampled along the cycle becomes the Toeplitz operator; the
    model's memory rate becomes the problem's decay bound.
    """
    nh = cycle.harmonics.n_harmonics
    times = sample_times(2 * nh, cycle.period)
    # evaluate at omega0 = 2*pi/period, the frequency of the grid and of the problem
    z_real = replace(cycle.harmonics, omega0=cycle.omega0).evaluate(times).real
    a_mh = _sampled_band(model.rhs_jacobian, z_real, times, cycle.period)
    jac = toeplitz_from_periodic(a_mh, n_harmonics=nh)
    return FloquetProblem(jac, None, cycle.period, nh, model.dim,
                          memory_rate=model.memory_rate)


# --- coarse time-domain seeding ----------------------------------------------


def seed_from_time_integration(model: SystemModel, n_harmonics: int, z0) -> LimitCycle:
    """Initial cycle guess from integration of the transient.

    Integrates over ten periods of ``model.period_hint`` with LSODA, which
    switches to a stiff method by itself when fast memory states need one,
    estimates the period from late upcrossings, and transforms the last
    period to harmonic form.  A state that leaves the finite numbers or an
    integrator failure raises :class:`NoConvergence`.  Memory states start
    where ``z0`` puts them (zero for a zero history).
    """
    t_guess = model.period_hint
    if t_guess is None:
        raise ValueError("need the model's period_hint to seed from time integration")
    t_end = 10 * t_guess

    def f(t, z):
        # LSODA keeps stepping on an overflowed state instead of failing
        if not np.isfinite(z).all():
            raise NoConvergence(f"time-domain seed diverged at t = {t:.6g}")
        return model.rhs(z, t)

    sol = solve_ivp(f, (0.0, t_end), np.asarray(z0, dtype=float), method="LSODA",
                    rtol=1e-6, atol=1e-9, dense_output=True)
    if not sol.success:
        raise NoConvergence(f"time-domain seed failed: {sol.message}")
    period = t_guess
    if model.autonomous:
        tail = np.linspace(t_end - 4 * t_guess, t_end, 801)  # 200 samples a period
        period = _estimate_period(tail, sol.sol(tail), t_guess)
    sample_t = t_end - period + sample_times(n_harmonics, period)
    hv = dft(TimeSamples(model.dim, sol.sol(sample_t), period))
    return LimitCycle(period, hv, math.inf)


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
