"""Memory-kernel algebra.

A kernel K(t, tau) weights past states into the present dynamics.  All
supported families satisfy joint periodicity K(t, tau) = K(t+T, tau+T) and an
integrable tail.  Writing u = t - tau and G(t, u) = K(t, t-u), the
frequency-domain action of the memory term on a Floquet mode r(t) e^{lambda t}
couples harmonic amplitudes through one-sided Laplace transforms of G in u:

    q_j = sum_h Ghat_{j-h}(lambda + i*omega_h) r_h,
    Ghat_m(zeta) = integral_0^s Gm(u) e^{-zeta u} du,

where Gm(u) are the Fourier coefficients of G in t.  Time-invariant kernels
have only the m = 0 term and the coupling is diagonal over harmonics.

The asymptotic decay rate of the kernel tail (its critical exponent) bounds
every admissible exponent from below: Re(lambda) > -min_t k_c(t).  Evaluating
an untruncated transfer at or below that abscissa raises
:class:`~memflo.errors.BoundViolation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import CubicSpline

from .errors import BoundViolation, QuadratureError

__all__ = [
    "ExponentialDecay",
    "Delay",
    "FiniteSupportSampled",
    "KernelSpec",
    "MemoryTransfer",
    "critical_exponent",
    "transfer_at",
    "transfer_dlambda",
    "transfer_taylor",
    "truncation_error_bound",
    "memory_matrix",
    "memory_matrix_dlambda",
    "memory_taylor_matrices",
]

DOMAIN_MARGIN = 1e-9


@dataclass(frozen=True)
class ExponentialDecay:
    """K(t - tau) = coefficient * exp(-rate * (t - tau)), rate > 0."""

    coefficient: np.ndarray
    rate: float

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.coefficient, dtype=float))
        if c.shape[0] != c.shape[1]:
            raise ValueError("coefficient matrix must be square")
        if self.rate <= 0:
            raise ValueError("decay rate must be positive for an integrable tail")
        object.__setattr__(self, "coefficient", c)

    @property
    def dim(self) -> int:
        return self.coefficient.shape[0]


@dataclass(frozen=True)
class Delay:
    """K(t - tau) = weight * delta(t - tau - delay), delay > 0."""

    weight: np.ndarray
    delay: float

    def __post_init__(self):
        w = np.atleast_2d(np.asarray(self.weight, dtype=float))
        if w.shape[0] != w.shape[1]:
            raise ValueError("weight matrix must be square")
        if self.delay <= 0:
            raise ValueError("delay must be positive")
        object.__setattr__(self, "weight", w)

    @property
    def dim(self) -> int:
        return self.weight.shape[0]


@dataclass(frozen=True)
class FiniteSupportSampled:
    """K sampled on a (t mod T, t - tau) grid with compact support.

    ``values`` has shape (n_t, n_u, n, n): n_t samples of t over one period
    (n_t = 1 means time-invariant) and n_u uniform samples of u = t - tau over
    [0, support].  Transfers are evaluated by adaptive Gauss-Legendre
    quadrature of a cubic-spline interpolant.
    """

    values: np.ndarray
    support: float
    period: float | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 4 or v.shape[2] != v.shape[3]:
            raise ValueError("values must have shape (n_t, n_u, n, n)")
        if v.shape[1] < 4:
            raise ValueError("need at least 4 samples along the memory axis")
        if self.support <= 0:
            raise ValueError("support length must be positive")
        if v.shape[0] > 1 and self.period is None:
            raise ValueError("time-varying sampled kernels need a period")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[2]

    @property
    def time_invariant(self) -> bool:
        return self.values.shape[0] == 1

    @property
    def u_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.support, self.values.shape[1])

    def t_coefficient(self, m: int) -> np.ndarray:
        """Fourier coefficient (in t) of G(t, u); shape (n_u, n, n)."""
        n_t = self.values.shape[0]
        if abs(m) > (n_t - 1) // 2:
            return np.zeros(self.values.shape[1:], dtype=complex)
        k = np.arange(n_t)
        phases = np.exp(-2j * np.pi * m * k / n_t) / n_t
        return np.tensordot(phases, self.values.astype(complex), axes=(0, 0))


KernelSpec = Union[ExponentialDecay, Delay, FiniteSupportSampled]


def critical_exponent(kernel: KernelSpec) -> float:
    """Asymptotic decay rate of the kernel tail, minimized over t.

    Exponential kernels decay at their rate; compactly supported kernels
    (pure delays and sampled kernels) have no tail, so the limit is +inf.
    """
    if isinstance(kernel, ExponentialDecay):
        return float(kernel.rate)
    return math.inf


@dataclass(frozen=True)
class MemoryTransfer:
    """A kernel together with an optional finite memory window.

    Without truncation the transfer exists for Re(lambda) above minus the
    critical exponent; with a window of length ``truncation`` it is entire.
    """

    kernel: KernelSpec
    truncation: float | None = None

    def __post_init__(self):
        if self.truncation is not None and self.truncation < 0:
            raise ValueError("memory window must be nonnegative")

    @property
    def dim(self) -> int:
        return self.kernel.dim


def _check_domain(mt: MemoryTransfer, lam: complex) -> None:
    if mt.truncation is not None:
        return
    kc = critical_exponent(mt.kernel)
    if math.isfinite(kc) and lam.real <= -kc + DOMAIN_MARGIN:
        raise BoundViolation(
            f"Re(lambda) = {lam.real:.6g} is not above the admissible abscissa {-kc:.6g}"
        )


def _window_factor(c: complex, sbar: float | None) -> complex:
    """integral_0^sbar e^{-c u} du; sbar = None means the full half line."""
    if sbar is None:
        return 1.0 / c
    x = c * sbar
    if abs(x) < 1e-6:
        return sbar * (1.0 - x / 2.0 + x * x / 6.0 - x * x * x / 24.0)
    if x.real < -600.0:  # exp would overflow; huge sentinel makes iterations back off
        return complex(1e280, 0.0)
    return -np.expm1(-x) / c


def _window_factor_dc(c: complex, sbar: float | None) -> complex:
    """Derivative of :func:`_window_factor` with respect to c."""
    if sbar is None:
        return -1.0 / (c * c)
    x = c * sbar
    if abs(x) < 1e-6:
        return -sbar * sbar * (0.5 - x / 3.0 + x * x / 8.0)
    if x.real < -600.0:
        return complex(-1e280, 0.0)
    e = np.exp(-x)
    return (sbar * e * c - (1.0 - e)) / (c * c)


def _window_moments(c: complex, sbar: float | None, order: int) -> list[complex]:
    """I_m = integral_0^sbar u^m e^{-c u} du for m = 0..order (needs Re c > 0 if open)."""
    out = [_window_factor(c, sbar)]
    if sbar is None:
        for m in range(1, order + 1):
            out.append(out[-1] * m / c)
    else:
        e = np.exp(-c * sbar)
        for m in range(1, order + 1):
            out.append((m * out[-1] - sbar**m * e) / c)
    return out


# --- adaptive quadrature for sampled kernels -------------------------------

_GL_NODES, _GL_WEIGHTS = leggauss(10)


def _gl_integral(spline, upper: float, zeta: complex, power: int, panels: int) -> np.ndarray:
    edges = np.linspace(0.0, upper, panels + 1)
    total = None
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        u = mid + half * _GL_NODES
        vals = spline(u)  # (len(u), n, n)
        w = _GL_WEIGHTS * half * (u**power if power else 1.0) * np.exp(-zeta * u)
        contrib = np.tensordot(w, vals, axes=(0, 0))
        total = contrib if total is None else total + contrib
    return total


def _adaptive_quadrature(spline, upper: float, zeta: complex, power: int = 0) -> np.ndarray:
    if upper <= 0:
        probe = spline(0.0)
        return np.zeros_like(np.asarray(probe, dtype=complex))
    prev = _gl_integral(spline, upper, zeta, power, 1)
    panels = 2
    while panels <= 1024:
        cur = _gl_integral(spline, upper, zeta, power, panels)
        if np.max(np.abs(cur - prev)) <= 1e-10 * max(1.0, float(np.max(np.abs(cur)))):
            return cur
        prev = cur
        panels *= 2
    raise QuadratureError("sampled-kernel quadrature did not stabilize to 1e-10")


def _sampled_spline(kernel: FiniteSupportSampled, m: int = 0):
    g = kernel.t_coefficient(m) if not kernel.time_invariant or m != 0 else \
        kernel.values[0].astype(complex)
    return CubicSpline(kernel.u_grid, g, axis=0)


def _sampled_upper(kernel: FiniteSupportSampled, truncation: float | None) -> float:
    if truncation is None:
        return kernel.support
    return min(kernel.support, truncation)


# --- transfer evaluation ----------------------------------------------------


def transfer_at(mt: MemoryTransfer, lam: complex, omega_j: float) -> np.ndarray:
    """Memory transfer matrix multiplying the amplitude at one harmonic.

    For time-varying sampled kernels this returns the time-averaged (m = 0)
    coupling; the full harmonic-coupled operator is produced by
    :func:`memory_matrix`.
    """
    _check_domain(mt, lam)
    lam = complex(lam)
    zeta = lam + 1j * omega_j
    k = mt.kernel
    if isinstance(k, ExponentialDecay):
        return k.coefficient * _window_factor(k.rate + zeta, mt.truncation)
    if isinstance(k, Delay):
        if mt.truncation is not None and mt.truncation < k.delay:
            return np.zeros_like(k.weight, dtype=complex)
        return k.weight * _bounded_exp(-zeta * k.delay)
    if isinstance(k, FiniteSupportSampled):
        spline = _sampled_spline(k, 0)
        return _adaptive_quadrature(spline, _sampled_upper(k, mt.truncation), zeta)
    raise TypeError(f"unsupported kernel {type(k).__name__}")


def _bounded_exp(x: complex) -> complex:
    """exp with a huge finite sentinel instead of overflow."""
    if x.real > 600.0:
        return complex(1e280, 0.0)
    return complex(np.exp(x))


def transfer_dlambda(mt: MemoryTransfer, lam: complex, omega_j: float) -> np.ndarray:
    """d(transfer)/d(lambda); analytic for closed-form kernels."""
    _check_domain(mt, lam)
    zeta = complex(lam) + 1j * omega_j
    k = mt.kernel
    if isinstance(k, ExponentialDecay):
        return k.coefficient * _window_factor_dc(k.rate + zeta, mt.truncation)
    if isinstance(k, Delay):
        if mt.truncation is not None and mt.truncation < k.delay:
            return np.zeros_like(k.weight, dtype=complex)
        return -k.delay * k.weight * _bounded_exp(-zeta * k.delay)
    if isinstance(k, FiniteSupportSampled):
        spline = _sampled_spline(k, 0)
        return -_adaptive_quadrature(spline, _sampled_upper(k, mt.truncation), zeta, power=1)
    raise TypeError(f"unsupported kernel {type(k).__name__}")


def transfer_taylor(mt: MemoryTransfer, omega_j: float, degree: int) -> list[np.ndarray]:
    """Taylor coefficients of the transfer in lambda about 0, orders 0..degree."""
    _check_domain(mt, 0.0)
    k = mt.kernel
    zeta0 = 1j * omega_j
    if isinstance(k, ExponentialDecay):
        moments = _window_moments(k.rate + zeta0, mt.truncation, degree)
        return [k.coefficient * ((-1) ** m * moments[m] / math.factorial(m))
                for m in range(degree + 1)]
    if isinstance(k, Delay):
        if mt.truncation is not None and mt.truncation < k.delay:
            return [np.zeros_like(k.weight, dtype=complex) for _ in range(degree + 1)]
        phase = np.exp(-zeta0 * k.delay)
        return [k.weight * phase * (-k.delay) ** m / math.factorial(m) for m in range(degree + 1)]
    if isinstance(k, FiniteSupportSampled):
        spline = _sampled_spline(k, 0)
        upper = _sampled_upper(k, mt.truncation)
        return [
            (-1) ** m / math.factorial(m)
            * _adaptive_quadrature(spline, upper, zeta0, power=m)
            for m in range(degree + 1)
        ]
    raise TypeError(f"unsupported kernel {type(k).__name__}")


def truncation_error_bound(mt: MemoryTransfer, s_bar: float, s: float) -> float:
    """Tail integral of max_t ||K(t, tau)|| over the window (s_bar, s].

    This is the kernel-dependent factor of the exponent-perturbation bound;
    the multiplicative constant of that bound is problem dependent, so the
    returned value is meaningful as a relative convergence indicator only.
    """
    if s_bar > s:
        raise ValueError("window ordering must satisfy s_bar <= s")
    if s_bar == s:
        return 0.0
    k = mt.kernel
    if isinstance(k, ExponentialDecay):
        norm = float(np.linalg.norm(k.coefficient, 2))
        hi = 0.0 if math.isinf(s) else math.exp(-k.rate * s)
        return norm * (math.exp(-k.rate * s_bar) - hi) / k.rate
    if isinstance(k, Delay):
        if s_bar < k.delay <= s:
            return float(np.linalg.norm(k.weight, 2))
        return 0.0
    if isinstance(k, FiniteSupportSampled):
        lo, hi = s_bar, min(s, k.support)
        if lo >= hi:
            return 0.0
        norms = np.linalg.norm(k.values, ord=2, axis=(2, 3)).max(axis=0)
        spline = CubicSpline(k.u_grid, norms[:, None, None])
        full = _adaptive_quadrature(spline, hi, 0.0)
        head = _adaptive_quadrature(spline, lo, 0.0)
        return float((full - head).real[0, 0])
    raise TypeError(f"unsupported kernel {type(k).__name__}")


# --- assembly onto the component-major harmonic layout ----------------------


def _blockdiag_over_harmonics(blocks: list[np.ndarray], dim: int) -> np.ndarray:
    """Scatter per-harmonic (n, n) couplings onto the component-major layout."""
    m = len(blocks)
    out = np.zeros((dim * m, dim * m), dtype=complex)
    for j, b in enumerate(blocks):
        for r in range(dim):
            for c in range(dim):
                out[r * m + j, c * m + j] = b[r, c]
    return out


def memory_matrix(mt: MemoryTransfer, lam: complex, omegas: np.ndarray) -> np.ndarray:
    """Full memory coupling on the component-major layout for given lambda.

    ``omegas`` lists the harmonic frequencies in ascending order.
    """
    _check_domain(mt, lam)
    lam = complex(lam)
    k = mt.kernel
    if isinstance(k, FiniteSupportSampled) and not k.time_invariant:
        return _sampled_coupling(mt, k, omegas, lam=lam)
    blocks = [transfer_at(mt, lam, w) for w in omegas]
    return _blockdiag_over_harmonics(blocks, k.dim)


def memory_matrix_dlambda(mt: MemoryTransfer, lam: complex, omegas: np.ndarray) -> np.ndarray:
    _check_domain(mt, lam)
    lam = complex(lam)
    k = mt.kernel
    if isinstance(k, FiniteSupportSampled) and not k.time_invariant:
        return _sampled_coupling(mt, k, omegas, lam=lam, power=1, sign=-1.0)
    blocks = [transfer_dlambda(mt, lam, w) for w in omegas]
    return _blockdiag_over_harmonics(blocks, k.dim)


def memory_taylor_matrices(mt: MemoryTransfer, omegas: np.ndarray,
                           degree: int) -> list[np.ndarray]:
    """Taylor coefficients in lambda of :func:`memory_matrix` about 0."""
    _check_domain(mt, 0.0)
    k = mt.kernel
    if isinstance(k, FiniteSupportSampled) and not k.time_invariant:
        return [_sampled_coupling(mt, k, omegas, lam=0.0, power=m,
                                  sign=(-1.0) ** m / math.factorial(m))
                for m in range(degree + 1)]
    per_harmonic = [transfer_taylor(mt, w, degree) for w in omegas]
    return [_blockdiag_over_harmonics([ph[m] for ph in per_harmonic], k.dim)
            for m in range(degree + 1)]


def _sampled_coupling(mt: MemoryTransfer, k: FiniteSupportSampled, omegas: np.ndarray,
                      lam: complex, power: int = 0, sign: float = 1.0) -> np.ndarray:
    """Harmonic-coupled operator for time-varying sampled kernels.

    Entry (row j, col h) is sign * integral u^power Gm(u) e^{-(lam+i w_h) u} du
    with m = j - h, band-limited by the available t samples.
    """
    m_count = len(omegas)
    dim = k.dim
    band = (k.values.shape[0] - 1) // 2
    upper = _sampled_upper(k, mt.truncation)
    out = np.zeros((dim * m_count, dim * m_count), dtype=complex)
    splines = {m: _sampled_spline(k, m) for m in range(-band, band + 1)}
    for h in range(m_count):
        zeta = complex(lam) + 1j * omegas[h]
        for m in range(-band, band + 1):
            j = h + m
            if not 0 <= j < m_count:
                continue
            block = sign * _adaptive_quadrature(splines[m], upper, zeta, power=power)
            for r in range(dim):
                for c in range(dim):
                    out[r * m_count + j, c * m_count + h] = block[r, c]
    return out
