"""Periodic steady states of nonlinear systems.

The state equation is the memoryless dz/dt = f(z, t); an exponential memory
is carried as extra states of z (the linear chain trick), and the rate of
the slowest such state is recorded as ``SystemModel.memory_rate`` so that
the variational problem keeps the decay bound of the memory it came from.
The periodic solution is sought in the packed real harmonics u = (c_0,
Re a_1, Im a_1, ...) of each component.  With the real synthesis S,
analysis P and derivative D on the oversampled grid ``sample_times(2N, T)``
(alias-free in the retained band for polynomial nonlinearities), the
residual rho = omega0 D u - P f(S u, t) is driven to zero by damped Newton
iteration (to a residual norm of 1e-10, halving the step at most 20 times)
on the Galerkin matrix kron(I, omega0 D) - P A(t) S, A = df/dz on the grid.
For autonomous systems the fundamental frequency is an unknown (its column
is D u) and one first-harmonic imaginary part, on the component with the
largest first-harmonic magnitude in the seed, is pinned to zero to fix the
time origin.  The caller supplies the seed in harmonic form.  A half-wave
symmetric seed (even harmonics exactly zero, f(-z, t + T/2) = -f(z, t)
bitwise on its grid) is solved in the odd-harmonic subspace: the Newton
matrix, the omega0 column and the phase row take the rows and columns of
the odd-harmonic slots only, and the even harmonics stay exact zeros.  The
residual is always evaluated on every slot; when the odd slots converge,
the full residual must be below the tolerance too, or the iteration goes on
over all slots.  Only :func:`linearize` keeps the complex band -2N..2N of A,
which becomes the Toeplitz operator of the variational problem; on a
half-wave symmetric cycle, by the same test, its odd harmonics are exact
zeros.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NoConvergence, SingularJacobian, SpectralResolutionWarning
from .floquet import FloquetProblem
from .hb import (
    HarmonicVector,
    MatrixHarmonics,
    _grid_basis,
    _odd_slots,
    pack_real_coefficients,
    sample_times,
    toeplitz_from_periodic,
    unpack_real_coefficients,
)

__all__ = [
    "SystemModel",
    "LimitCycle",
    "hb_residual",
    "solve_cycle",
    "linearize",
    "rotate_phase",
    "cycle_tail",
]

RESOLUTION_WARN_RATIO = 1e-8
NEWTON_TOL = 1e-10  # harmonic-balance residual norm at convergence
NEWTON_MAX_ITER = 60  # Newton steps before solve_cycle gives up


@dataclass
class SystemModel:
    """Right-hand side and Jacobian of a memoryless state equation.

    ``rhs(z, t)`` and ``rhs_jacobian(z, t)`` describe dz/dt = f(z, t) on a
    grid of states in one call: z has shape (dim, ...), t broadcasts against
    its trailing axes, ``rhs`` returns (dim, ...) and ``rhs_jacobian``
    (dim, dim, ...) or a constant (dim, dim).  The collocation grid passes
    z of shape (dim, G) with t of shape (G,); the rest-state Jacobian and
    time-stepping oracles pass one (dim,) state.  A model that carries
    exponential memory as states sets ``memory_rate`` to the decay rate of
    those states: exponents at or below -memory_rate belong to no admissible
    mode of the memory system and are filtered out of its spectra.  It is a
    spectral bound only: the cycle solve does not read it.  Autonomous
    systems must ignore ``t``; their period is solved for.  With
    ``validate=True`` the Jacobian is checked against finite differences of
    the right-hand side on a few random states at construction.
    """

    dim: int
    rhs: Callable
    rhs_jacobian: Callable
    autonomous: bool = False
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


@dataclass(slots=True)
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
    return HarmonicVector(hv.amplitudes * factors, hv.omega0, real_signal=hv.real_signal)


@functools.lru_cache(maxsize=None)
def _real_grid(nh: int, odd: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Synthesis S, analysis P and derivative D (at omega0 = 1) of the packed basis.

    On ``sample_times(2N, T)``, whatever T, packed coefficients u of shape
    (dim, 2N+1) have the samples ``u @ S.T`` and the derivative ``u @ D.T``,
    and samples x have the packed harmonics ``x @ P.T``.  With ``odd`` set,
    the same grid restricted to the odd-harmonic slots
    (:func:`~memflo.hb._odd_slots`): the columns of S, the rows of P and
    both of D.
    """
    if odd:
        slots = _odd_slots(nh)
        synthesis, analysis, derivative = _real_grid(nh)
        grid = (np.ascontiguousarray(synthesis[:, slots]), analysis[slots],
                derivative[np.ix_(slots, slots)])
    else:
        forward = _grid_basis(nh, 4 * nh + 1)
        unpack = unpack_real_coefficients(np.eye(2 * nh + 1), nh)  # d(amplitudes)/du
        h = np.arange(-nh, nh + 1)
        grid = (np.ascontiguousarray((forward.shape[1] * forward.conj().T @ unpack[0]).real),
                pack_real_coefficients(forward[None]),
                pack_real_coefficients((1j * h)[:, None] * unpack))
    for mat in grid:
        mat.setflags(write=False)
    return grid


def _residual(model: SystemModel, u: np.ndarray, omega0: float) -> np.ndarray:
    """Packed harmonic-balance residual omega0 D u - P f(S u, t)."""
    coeffs = u.reshape(model.dim, -1)
    nh = (coeffs.shape[1] - 1) // 2
    synthesis, analysis, derivative = _real_grid(nh)
    times = sample_times(2 * nh, 2 * np.pi / omega0)
    f = np.asarray(model.rhs(coeffs @ synthesis.T, times), dtype=float)
    return (omega0 * coeffs @ derivative.T - f @ analysis.T).reshape(-1)


def _newton_matrix(model: SystemModel, u: np.ndarray, omega0: float,
                   odd: bool = False) -> np.ndarray:
    """Jacobian of :func:`_residual` in u: kron(I, omega0 D) - P A(t) S.

    With ``odd`` set, only its rows and columns on the odd-harmonic slots of
    each component, in the same order.
    """
    n = model.dim
    coeffs = u.reshape(n, -1)
    nh = (coeffs.shape[1] - 1) // 2
    times = sample_times(2 * nh, 2 * np.pi / omega0)
    a = np.reshape(model.rhs_jacobian(coeffs @ _real_grid(nh)[0].T, times), (n, n, -1))
    synthesis, analysis, derivative = _real_grid(nh, odd)
    m = len(derivative)
    blocks = (analysis * a[:, :, None, :]) @ synthesis  # P diag(A_rc) S; a constant A broadcasts
    out = -blocks.transpose(0, 2, 1, 3).reshape(n * m, n * m)
    for i in range(n):  # kron(I, omega0 D), one diagonal block per component
        out[i * m:(i + 1) * m, i * m:(i + 1) * m] += omega0 * derivative
    return out


def _newton_rows(dim: int, nh: int, odd: bool, autonomous: bool) -> np.ndarray:
    """Unknowns of the Newton system, as indices into (u, omega0).

    The packed slots of every component, all of them or the odd-harmonic
    ones, then omega0 for an autonomous model.  The same indices pick the
    system's rows from (residual, phase condition).
    """
    size = dim * (2 * nh + 1)
    rows = np.flatnonzero(np.tile(_odd_slots(nh), dim)) if odd else np.arange(size)
    return np.append(rows, size) if autonomous else rows


def hb_residual(model: SystemModel, cycle: LimitCycle) -> np.ndarray:
    """Packed real harmonic-balance residual of a candidate, read through its harmonics h >= 0."""
    return _residual(model, pack_real_coefficients(cycle.harmonics.amplitudes), cycle.omega0)


def solve_cycle(model: SystemModel, initial_guess: LimitCycle) -> LimitCycle:
    """Damped Newton iteration on the harmonic-balance residual.

    For autonomous models the fundamental frequency joins the unknowns and
    the phase condition Im a_{anchor,1} = 0 closes the system; the anchor is
    the component with the largest first-harmonic magnitude in the seed, so
    an autonomous guess needs at least one harmonic (``ValueError``).
    When the guess is half-wave symmetric (:func:`_half_wave_symmetric`,
    tested once per solve), Newton runs on the odd-harmonic slots only
    (6*2*ceil(N/2) + 1 unknowns for the particle instead of 6*(2N+1) + 1)
    and the even harmonics of the result are exact zeros.  Once the odd
    slots converge, the full residual is read; above ``NEWTON_TOL`` the same
    iteration goes on over all slots.  ``LimitCycle.residual`` is always the
    norm of the full residual, phase condition included.  Raises
    :class:`NoConvergence` with the residual trace when the iteration stalls
    or runs past ``NEWTON_MAX_ITER`` steps and :class:`SingularJacobian` when the
    Newton system is singular.
    """
    n = model.dim
    hv = initial_guess.harmonics
    nh = hv.n_harmonics
    if hv.dim != n:
        raise ValueError("guess dimension does not match the model")
    if model.autonomous and nh < 1:
        raise ValueError("an autonomous cycle needs n_harmonics >= 1 for its phase condition")
    omega0 = 2 * np.pi / initial_guess.period
    m = 2 * nh + 1
    anchor_slot = None
    if model.autonomous:
        anchor = int(np.argmax(np.abs(hv.amplitudes[:, nh + 1])))
        pivot = hv.amplitudes[anchor, nh + 1]
        if abs(pivot) > 0:
            hv = rotate_phase(hv, -np.angle(pivot))
        anchor_slot = anchor * m + 2  # packed index of Im a_{anchor,1}
    u = pack_real_coefficients(hv.amplitudes)
    odd = _half_wave_symmetric(model, u, 2 * np.pi / omega0)
    rows = _newton_rows(n, nh, odd, model.autonomous)

    def full_residual(uvec, w0):
        rr = _residual(model, uvec, w0)
        return np.append(rr, uvec[anchor_slot]) if model.autonomous else rr

    rr = full_residual(u, omega0)
    norm = float(np.linalg.norm(rr[rows]))
    trace = [norm]
    for _ in range(NEWTON_MAX_ITER):
        if odd and norm < NEWTON_TOL:
            # converged on the odd slots: read every slot, and go on over all
            # of them if the even ones are not balanced too
            odd, rows = False, np.arange(rr.size)
            norm = float(np.linalg.norm(rr))
        if norm < NEWTON_TOL:
            break
        jr = _newton_matrix(model, u, omega0, odd)
        k = len(jr)
        if model.autonomous:
            # d(residual)/d(omega0): only the derivative term depends on omega0
            dw = (u.reshape(n, m) @ _real_grid(nh)[2].T).reshape(-1)[rows[:k]]
            jr = np.block([[jr, dw[:, None]],
                           [np.zeros((1, k + 1))]])
            jr[-1, np.searchsorted(rows, anchor_slot)] = 1.0
        try:
            delta = np.linalg.solve(jr, -rr[rows])
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from exc

        step = 1.0
        accepted = False
        for _ in range(20):
            u_new = u.copy()
            u_new[rows[:k]] += step * delta[:k]
            w_new = omega0 + step * delta[k] if model.autonomous else omega0
            if w_new <= 0:
                step *= 0.5
                continue
            rr_new = full_residual(u_new, w_new)
            norm_new = float(np.linalg.norm(rr_new[rows]))
            if norm_new < norm:
                u, omega0, rr, norm = u_new, w_new, rr_new, norm_new
                accepted = True
                break
            step *= 0.5
        trace.append(norm)
        if not accepted:
            raise NoConvergence("cycle Newton stalled (no decreasing step)", trace)
    else:
        raise NoConvergence("cycle Newton did not reach tolerance", trace)

    result = HarmonicVector(unpack_real_coefficients(u, nh), omega0, real_signal=True)
    _warn_if_underresolved(result)
    return LimitCycle(2 * np.pi / omega0, result, norm)


def cycle_tail(hv: HarmonicVector) -> float | None:
    """Largest of the last two harmonics on each side, over the peak amplitude.

    Never the first harmonic: at N = 2 only +-2 is read.  Reading two
    harmonics keeps a cycle with only odd harmonics from reading a rounding
    zero at an even N.  None below N = 2 or for an all-zero cycle.
    """
    n = hv.n_harmonics
    a = np.abs(hv.amplitudes)
    peak = a.max()
    if n < 2 or peak == 0:
        return None
    width = min(2, n - 1)
    return float(max(a[:, :width].max(), a[:, -width:].max()) / peak)


def _warn_if_underresolved(hv: HarmonicVector):
    peak = np.abs(hv.amplitudes).max()
    if peak < NEWTON_TOL:  # zero within the Newton tolerance, nothing to resolve
        return
    tail = cycle_tail(hv)
    if tail is not None and tail > RESOLUTION_WARN_RATIO:
        warnings.warn(
            f"trailing harmonic amplitude {tail * peak:.2e} exceeds {RESOLUTION_WARN_RATIO:.0e}"
            f" of the peak {peak:.2e}; increase the truncation",
            SpectralResolutionWarning, stacklevel=2)


def _half_wave_symmetric(model: SystemModel, u: np.ndarray, period: float) -> bool:
    """Whether the packed harmonics ``u`` and the model are half-wave symmetric.

    Two exact conditions: the even-harmonic slots of u, the mean included,
    are zeros, so z(t + T/2) = -z(t); and f(-z, t + T/2) = -f(z, t) holds
    bitwise on the collocation grid of u.  For a model with that symmetry the
    harmonic-balance residual of such a u has no even harmonics, the Newton
    matrix couples odd harmonics only to odd ones, and A(t) = df/dz along the
    cycle is T/2-periodic, so its odd harmonics vanish.  A forced model whose
    forcing rounds differently half a period on fails the test and is solved
    over all slots.
    """
    coeffs = u.reshape(model.dim, -1)
    nh = (coeffs.shape[1] - 1) // 2
    if np.any(coeffs[:, ~_odd_slots(nh)]):
        return False
    states = coeffs @ _real_grid(nh)[0].T
    times = sample_times(2 * nh, period)
    return np.array_equal(np.asarray(model.rhs(-states, times + period / 2)),
                          -np.asarray(model.rhs(states, times)))


def linearize(model: SystemModel, cycle: LimitCycle) -> FloquetProblem:
    """Variational problem about a converged cycle.

    The Jacobian sampled along the cycle becomes the Toeplitz operator; the
    model's memory rate becomes the problem's decay bound.  On a half-wave
    symmetric cycle (:func:`_half_wave_symmetric`, the test that
    :func:`solve_cycle` runs on its guess; every particle cycle passes it)
    the odd harmonics of the Jacobian are set to exact zeros: they are
    rounding, and their exact zeros let
    :func:`~memflo.floquet.floquet_spectrum` solve the even and the odd
    harmonics as two uncoupled blocks.
    """
    n, nh = model.dim, cycle.harmonics.n_harmonics
    times = sample_times(2 * nh, cycle.period)
    u = pack_real_coefficients(cycle.harmonics.amplitudes)
    states = u.reshape(n, -1) @ _real_grid(nh)[0].T
    samples = model.rhs_jacobian(states, times)
    samples = np.broadcast_to(np.reshape(samples, (n, n, -1)), (n, n, len(times)))
    a_mh = MatrixHarmonics.from_time_grid(samples, cycle.period, 2 * nh)
    if _half_wave_symmetric(model, u, cycle.period):
        even = a_mh.coeffs.copy()
        even[:, :, 1::2] = 0.0  # column i holds harmonic i - 2N: the odd ones
        a_mh = MatrixHarmonics(even, a_mh.omega0)
    jac = toeplitz_from_periodic(a_mh, n_harmonics=nh)
    return FloquetProblem(jac, None, cycle.period, nh, n, memory_rate=model.memory_rate)
