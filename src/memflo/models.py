"""Case-study models wired into the solver stack.

Three systems exercise the machinery end to end: a scalar linear rate
equation with an exponentially fading memory, a planar self-propelled
particle whose exponentially retarded friction is carried as two extra
memory states, and a resonator closed by an ideal delay line whose spectrum
is available in closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .cycles import LimitCycle, SystemModel, cycle_tail, linearize, solve_cycle
from .errors import MatchedLine, NoConvergence, NoCycle, SingularJacobian
from .floquet import (
    FloquetEigenpair,
    FloquetProblem,
    FloquetSpectrum,
    canonicalize_spectrum,
    floquet_multiplier,
    floquet_spectrum,
)
from .hb import (
    HarmonicVector,
    MatrixHarmonics,
    differentiate,
    toeplitz_from_periodic,
)
from .kernels import ExponentialDecay, MemoryTransfer

CYCLE_AMPLITUDE_TOL = 1e-6  # oscillation smaller than this counts as the rest state

__all__ = [
    "Memory1DModel",
    "BrownianParticleModel",
    "TlResonatorModel",
    "model1d_problem",
    "model1d_exponent",
    "model1d_asymptotic_exponent",
    "model1d_convergence",
    "particle_spectrum",
    "particle_equilibrium_spectrum",
    "tl_spectrum",
    "cycle_amplitude",
    "CYCLE_AMPLITUDE_TOL",
]


def _require_finite(params: dict, inf_ok: tuple[str, ...] = ()) -> None:
    """Reject, by name, a NaN parameter or an infinite one not listed in ``inf_ok``."""
    for name, value in params.items():
        if math.isnan(value):
            raise ValueError(f"{name} is NaN")
        if math.isinf(value) and name not in inf_ok:
            raise ValueError(f"{name} must be finite, got {value}")


# --- 1-D memory system -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Memory1DModel:
    """dy/dt = a*y + integral over the last s time units of e^{-k(t-tau)} y(tau).

    s = inf is the infinite memory; every other parameter must be finite.
    """

    a: float
    k: float
    s: float = math.inf

    def __post_init__(self):
        _require_finite({"a": self.a, "k": self.k, "s": self.s}, inf_ok=("s",))
        if self.k <= 0:
            raise ValueError("decay rate k must be positive")
        if self.s < 0:
            raise ValueError("memory length must be nonnegative")


def model1d_problem(m: Memory1DModel, n_harmonics: int = 0) -> FloquetProblem:
    """The scalar model as a FloquetProblem of period 2*pi (the model is time invariant)."""
    jac = toeplitz_from_periodic(
        MatrixHarmonics.constant([[m.a]], 1.0), n_harmonics=n_harmonics)
    truncation = None if math.isinf(m.s) else m.s
    transfer = MemoryTransfer(ExponentialDecay([[1.0]], m.k), truncation=truncation)
    return FloquetProblem(jac, transfer, 2 * math.pi, n_harmonics, 1)


def model1d_exponent(m: Memory1DModel) -> FloquetSpectrum:
    """Exponent classes of the scalar memory model.

    An infinite window runs the Hill route on its two states; a finite one
    runs the contour route, whose left edge (a - k)/2 is proven for a > -k.
    """
    return floquet_spectrum(model1d_problem(m))


def model1d_asymptotic_exponent(m: Memory1DModel) -> float:
    """Infinite-memory exponent: clearing the denominator of the scalar
    characteristic equation gives lambda^2 + (k-a) lambda - (a k + 1) = 0 and
    only the root above -k is admissible."""
    a, k = m.a, m.k
    return ((a - k) + math.sqrt((k + a) ** 2 + 4.0)) / 2.0


def model1d_convergence(m: Memory1DModel, s_values) -> list[tuple[float, complex, float]]:
    """Table of (s, lambda(s), |lambda(s) - lambda_inf|) over memory lengths."""
    lam_inf = model1d_asymptotic_exponent(m)
    out = []
    for s in s_values:
        if s < 0:
            raise ValueError("memory lengths must be nonnegative")
        spec = model1d_exponent(Memory1DModel(m.a, m.k, float(s)))
        lam = max((p.exponent for p in spec.canonical_strip), key=lambda z: z.real)
        out.append((float(s), lam, abs(lam - lam_inf)))
    return out


# --- planar particle with friction memory ------------------------------------


@dataclass(frozen=True, slots=True)
class BrownianParticleModel:
    """Planar particle in an anisotropic harmonic well with retarded friction.

    The friction coefficient gamma(v) = -alpha + beta*|v|^2 + g/k acts through
    an exponential retardation of rate k (the inverse correlation time);
    k = inf is the instantaneous (memoryless) friction, where g/k = 0.  Every
    other parameter must be finite.
    """

    alpha: float
    beta: float
    g: float
    k: float
    omega_bar: tuple[float, float] = (2.0, 2.0)

    def __post_init__(self):
        wx, wy = self.omega_bar
        _require_finite({"alpha": self.alpha, "beta": self.beta, "g": self.g, "k": self.k,
                         "omega_bar[0]": wx, "omega_bar[1]": wy}, inf_ok=("k",))
        if self.k <= 0:
            raise ValueError("inverse correlation time k must be positive")
        if self.omega_bar[0] <= 0 or self.omega_bar[1] <= 0:
            raise ValueError("well frequencies must be positive")

    def friction(self, v):
        """gamma(v) for the velocity components v[0], v[1] of any shape."""
        return -self.alpha + self.beta * (v[0] * v[0] + v[1] * v[1]) + self.g / self.k


def particle_system(m: BrownianParticleModel) -> SystemModel:
    """State-space form of the particle equations.

    Memoryless (k = inf): z = (x, v), 4 states.  With memory the integral
    s(t) = integral exp(-k (t - tau)) gamma(v) v dtau joins the state,
    z = (x, v, s) with 6 states, dv/dt = -omega^2 x - k s and
    ds/dt = -k s + gamma(v) v; its rate k bounds the admissible exponents.
    The retarded friction force is -k s; carrying s rather than the force
    keeps every equation of order one when k is large, so the damped cycle
    Newton does not stall on rows that scale with k.
    """
    wx2, wy2 = m.omega_bar[0] ** 2, m.omega_bar[1] ** 2
    k = m.k
    memoryless = math.isinf(k)
    dim = 4 if memoryless else 6

    def rhs(z, t):
        x0, x1, v0, v1, *s = z
        gam = m.friction((v0, v1))
        if memoryless:
            return np.array([v0, v1, -gam * v0 - wx2 * x0, -gam * v1 - wy2 * x1])
        s0, s1 = s
        return np.array([v0, v1, -wx2 * x0 - k * s0, -wy2 * x1 - k * s1,
                         gam * v0 - k * s0, gam * v1 - k * s1])

    def jac(z, t):
        v = z[2:4]
        # gamma(v) I + 2 beta v v^T, the velocity derivative of gamma(v) v
        friction = 2 * m.beta * np.einsum("i...,j...->ij...", v, v)
        gam = m.friction(v)
        friction[0, 0] += gam
        friction[1, 1] += gam
        out = np.zeros((dim, dim) + v.shape[1:])
        out[0, 2] = out[1, 3] = 1.0
        out[2, 0], out[3, 1] = -wx2, -wy2
        if memoryless:
            out[2:, 2:] = -friction
        else:
            out[2, 4] = out[3, 5] = out[4, 4] = out[5, 5] = -k
            out[4:, 2:4] = friction
        return out

    return SystemModel(dim, rhs, jac, autonomous=True, memory_rate=k)


def _balanced_speed2(m: BrownianParticleModel) -> float | None:
    """(alpha - g/k)/beta, the squared speed scale of the seeds; None when no orbit exists."""
    r2 = (m.alpha - m.g / m.k) / m.beta if m.beta != 0 else -1.0
    return r2 if r2 > 0 else None


def _orbit_guess(m: BrownianParticleModel, n_harmonics: int, omega: float,
                 first) -> LimitCycle:
    """Seed with the first position harmonics ``first`` = (a_x, a_y) at frequency omega.

    The velocities are their derivatives and the memory states are zero.
    """
    nh = n_harmonics
    amps = np.zeros((4 if math.isinf(m.k) else 6, 2 * nh + 1), dtype=complex)
    amps[:2, nh + 1] = first
    amps[:2, nh - 1] = np.conj(first)
    amps[2:4] = differentiate(HarmonicVector(amps[:2], omega, real_signal=True)).amplitudes
    hv = HarmonicVector(amps, omega, real_signal=True)
    return LimitCycle(2 * math.pi / omega, hv, math.inf)


def circular_cycle_guess(m: BrownianParticleModel, n_harmonics: int) -> LimitCycle | None:
    """Rotating-orbit seed; exact when the well is isotropic.

    On a circular orbit the speed is constant, so the friction coefficient
    vanishes on radius R = sqrt((alpha - g/k)/beta)/omega and the orbit closes
    at the well frequency regardless of the retardation; the memory states
    are zero on it.
    """
    r2 = _balanced_speed2(m)
    if r2 is None:
        return None
    omega = m.omega_bar[0]
    radius = math.sqrt(r2) / omega
    return _orbit_guess(m, n_harmonics, omega, (radius / 2, radius / (2j)))


def polarized_cycle_guess(m: BrownianParticleModel, n_harmonics: int,
                          axis: int) -> LimitCycle | None:
    """Seed on one axis of the well: x_axis = A cos(omega_axis t), the other axis at rest.

    Each axis is an invariant set of the particle equations.  On it the
    first-harmonic (Krylov-Bogoliubov) balance of the friction,
    (-alpha + g/k) + 3/4 beta A^2 omega_axis^2 = 0, gives
    A = sqrt(4 (alpha - g/k) / (3 beta)) / omega_axis and zeroes the first
    harmonic of gamma(v) v, so the memory states start at zero.
    """
    r2 = _balanced_speed2(m)
    if r2 is None:
        return None
    omega = m.omega_bar[axis]
    first = [0.0, 0.0]
    first[axis] = math.sqrt(4 * r2 / 3) / omega / 2
    return _orbit_guess(m, n_harmonics, omega, first)


def _rest_cycle(system: SystemModel, omega0: float, n_harmonics: int) -> LimitCycle:
    """The resting state at the origin: the zero-amplitude cycle, an exact solution."""
    zero = HarmonicVector(np.zeros((system.dim, 2 * n_harmonics + 1)), omega0, real_signal=True)
    return LimitCycle(2 * math.pi / omega0, zero, 0.0)


def particle_equilibrium_spectrum(m: BrownianParticleModel) -> FloquetSpectrum:
    """Exponents of the resting state at the origin, linearized like any cycle.

    As the zero-amplitude cycle at N = 0 its Jacobian is time invariant, so
    its exponents are plain eigenvalues, not folded into a strip.
    """
    system = particle_system(m)
    return floquet_spectrum(linearize(system, _rest_cycle(system, m.omega_bar[0], 0)))


def _seeds(m: BrownianParticleModel, n_harmonics: int, warm: LimitCycle | None):
    """The named seeds of :func:`particle_spectrum` in order, each built when it is reached."""
    yield "warm", warm
    yield "rotating", circular_cycle_guess(m, n_harmonics)
    yield "polarized-x", polarized_cycle_guess(m, n_harmonics, 0)
    yield "polarized-y", polarized_cycle_guess(m, n_harmonics, 1)


def particle_spectrum(m: BrownianParticleModel, n_harmonics: int = 30,
                      seed: LimitCycle | None = None) -> tuple[LimitCycle, FloquetSpectrum]:
    """Limit cycle and its exponent classes for the particle model.

    Newton starts from the warm start ``seed``, then from the analytic
    rotating orbit, then from the orbits polarized on the x and on the y
    axis, and keeps the first cycle of amplitude above
    ``CYCLE_AMPLITUDE_TOL``.  When none converges and the resting state is
    not unstable, the degenerate zero cycle is returned with the
    equilibrium spectrum; otherwise :class:`NoCycle` is raised
    (non-periodic attractor regime).  ``diagnostics["cycle_seed"]`` names
    the seed that converged, or ``"rest"``; a spectrum with a cycle also
    holds ``diagnostics["cycle_tail"]``, the cycle's trailing-harmonic ratio
    (:func:`~memflo.cycles.cycle_tail`), which warns above
    ``RESOLUTION_WARN_RATIO``.  ``n_harmonics`` < 1 raises
    ``ValueError``: the phase condition pins a first harmonic.
    """
    if n_harmonics < 1:
        raise ValueError(f"n_harmonics must be at least 1, got {n_harmonics}")
    system = particle_system(m)
    for name, candidate in _seeds(m, n_harmonics, seed):
        if candidate is None:
            continue
        try:
            cycle = solve_cycle(system, candidate)
        except (NoConvergence, SingularJacobian):
            continue
        if cycle_amplitude(cycle) > CYCLE_AMPLITUDE_TOL:
            spectrum = floquet_spectrum(linearize(system, cycle), autonomous=True)
            spectrum.diagnostics.update(cycle_seed=name, cycle_tail=cycle_tail(cycle.harmonics))
            return cycle, spectrum

    eq = particle_equilibrium_spectrum(m)
    if eq.stability == "Unstable":
        raise NoCycle("no periodic attractor found and the resting state is unstable")
    eq.diagnostics["cycle_seed"] = "rest"
    return _rest_cycle(system, m.omega_bar[0], n_harmonics), eq


def cycle_amplitude(cycle: LimitCycle) -> float:
    """Largest oscillating amplitude of position and velocity.

    Neither the constant offset nor the particle's memory states count.
    """
    a = np.abs(cycle.harmonics.amplitudes[:4])
    a[:, cycle.harmonics.n_harmonics] = 0.0
    return float(a.max())


# --- delay-line resonator -----------------------------------------------------


@dataclass(frozen=True, slots=True)
class TlResonatorModel:
    """Series resistances R + Ra terminating a shorted ideal line.

    ``tau_f`` is the one-way propagation delay and ``Z0`` the characteristic
    impedance; the active element may present a negative resistance.  Every
    parameter must be finite.
    """

    R: float
    Ra: float
    Z0: float = 1.0
    tau_f: float = 1.0

    def __post_init__(self):
        _require_finite({"R": self.R, "Ra": self.Ra, "Z0": self.Z0, "tau_f": self.tau_f})
        if self.R < 0:
            raise ValueError("loss resistance must be nonnegative")
        if self.Z0 <= 0:
            raise ValueError("characteristic impedance must be positive")
        if self.tau_f <= 0:
            raise ValueError("line delay must be positive")

    @property
    def reflection_coefficient(self) -> float:
        """Termination reflection against the line impedance."""
        y0 = 1.0 / self.Z0
        den = (self.R + self.Ra) * y0 + 1.0
        if abs(den) < 1e-14:
            raise ValueError("termination sits on the reflection pole")
        return ((self.R + self.Ra) * y0 - 1.0) / den


def tl_spectrum(m: TlResonatorModel, n_roots: int = 5) -> FloquetSpectrum:
    """Closed-form resonance exponents of the delay-line resonator.

    A round trip multiplies a wave by -Gamma0*exp(-2*lambda*tau_f); the
    spectrum solves exp(2*lambda*tau_f) = -Gamma0, so the ``n_roots``
    exponents k = 0..n_roots-1 share the real part ln|Gamma0|/(2*tau_f) and
    are spaced by i*pi/tau_f.  They all present the same round-trip
    multiplier -Gamma0, so they form a single class.
    """
    if n_roots < 1:
        raise ValueError(f"n_roots must be positive, got {n_roots}")  # no exponent, no verdict
    gamma0 = m.reflection_coefficient
    if abs(gamma0) < 1e-15:
        raise MatchedLine("matched termination: every reflection vanishes")
    period = 2 * m.tau_f
    omega0 = 2 * math.pi / period
    base = cmath.log(-gamma0)  # principal branch
    pairs = []
    for k in range(n_roots):
        lam = (base + 2j * math.pi * k) / (2 * m.tau_f)
        vec = HarmonicVector(np.array([[1.0 + 0j]]), omega0)
        residual = abs(cmath.exp(2 * lam * m.tau_f) + gamma0)
        pairs.append(FloquetEigenpair(lam, floquet_multiplier(lam, period), vec, residual))
    return canonicalize_spectrum(pairs, omega0, period=period,
                                 diagnostics={"reflection_coefficient": gamma0})
