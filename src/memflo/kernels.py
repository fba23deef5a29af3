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
:func:`memory_matrix` assembles that coupling on the harmonic layout; it is
the module's one transfer evaluation.

The asymptotic decay rate of the kernel tail (its critical exponent) bounds
every admissible exponent from below: Re(lambda) > -min_t k_c(t).  One
evaluation per (lambda, harmonic) gives a transfer and its lambda-derivative
together: one c*s and one exponential for a window, one e^{-zeta*tau} for a
delay, one ``expm`` per panel length for a sampled kernel.  It raises
:class:`~memflo.errors.BoundViolation` where either cannot be evaluated: at
or below that abscissa when untruncated, and wherever its value would
overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import BoundViolation

__all__ = [
    "ExponentialDecay",
    "Delay",
    "FiniteSupportSampled",
    "KernelSpec",
    "MemoryTransfer",
    "critical_exponent",
    "truncation_error_bound",
    "memory_matrix",
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
    [0, support].  Transfers are the exact Laplace transforms of the
    cubic-spline interpolant in u.
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

    @cached_property
    def splines(self) -> dict:
        """Cubic-spline interpolants in u of the t-coefficients, by m, built once."""
        from scipy.interpolate import CubicSpline

        band = (self.values.shape[0] - 1) // 2
        return {m: CubicSpline(self.u_grid, self.t_coefficient(m), axis=0)
                for m in range(-band, band + 1)}


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


def _check_overflow(x: complex) -> None:
    """Raise :class:`~memflo.errors.BoundViolation` where a factor e^x of a transfer overflows."""
    if x.real > 600.0:
        raise BoundViolation(f"transfer is not finite: exponent {x.real:.6g} above 600")


# Taylor coefficients in -x of (1 - e^{-x})/x and of minus its x-derivative
_WINDOW_TAYLOR = [(1 / math.factorial(n + 1), (n + 1) / math.factorial(n + 2)) for n in range(11)]


def _window_factor(c: complex, sbar: float | None) -> tuple[complex, complex]:
    """integral_0^sbar e^{-c u} du and its c-derivative; sbar = None means the full half line.

    Below |c*sbar| = 0.1 both are Taylor polynomials in c*sbar, exact to
    rounding there; the derivative's closed form cancels to a relative error
    of about eps/|c*sbar|^2 (2e-14 at the switch).
    """
    if sbar is None:
        return 1.0 / c, -1.0 / (c * c)
    x = c * sbar
    if abs(x) < 0.1:
        f = df = 0.0
        for a, b in reversed(_WINDOW_TAYLOR):
            f = f * -x + a
            df = df * -x + b
        return sbar * f, -sbar * sbar * df
    _check_overflow(-x)
    e = np.exp(-x)
    return -np.expm1(-x) / c, (sbar * e * c - (1.0 - e)) / (c * c)


# --- exact transfers of sampled kernels --------------------------------------


def _spline_transfers(splines: list, truncation: float | None,
                      zeta: complex) -> list[tuple[np.ndarray, np.ndarray]]:
    """integral_0^U (-u)^p s(u) e^{-zeta u} du, p = 0 and 1, exact for each cubic spline s.

    The splines share their knots.  U is the support, cut to the window.  On
    the knot panel [x_i, x_i + h] the polynomial part is sum_q a_qi
    (u - x_i)^q, so the panel adds e^{-zeta x_i} sum_q a_qi I_q(h), with
    I_q(h) = integral_0^h t^q e^{-zeta t} dt = h^{q+1} q! e^{-zeta h}
    phi_{q+1}(zeta h).  expm of [[z, 1, 0, ...], [0, 0, 1, ...], ...],
    z = zeta h, has the first row (e^z, phi_1(z), ...) (Sidje, Expokit, ACM
    TOMS 1998); shifted by -z I it holds e^{-z} phi_q(z), which a decaying
    panel cannot overflow.  The factor -u = -x_i - (u - x_i) of p = 1 raises
    the degree by one, so one ``expm`` gives the moments of both transfers.
    The knots are uniform, so all full panels share one h; a window ending
    inside a panel adds it cut short.  The panel weights depend on zeta and
    the knots only, so they are computed once for all splines.  Returns the
    (p = 0, p = 1) pair of each spline.  Raises
    :class:`~memflo.errors.BoundViolation` where a transfer is not finite.
    """
    from scipy.linalg import expm

    x = splines[0].x
    coeffs = []  # p = 0 and p = 1 of each spline in turn
    for spline in splines:
        a = spline.c[::-1]  # a[q, i] multiplies (u - x_i)^q
        zero = np.zeros_like(a[:1])
        coeffs += [a, -np.concatenate([a * x[:-1, None, None], zero]) - np.concatenate([zero, a])]
    n = len(coeffs[1])

    def moments(h: float) -> np.ndarray:  # I_q(h), q < n
        aug = np.diag(np.ones(n, dtype=complex), 1) - zeta * h * np.eye(n + 1)
        aug[0, 0] = 0.0
        return [h ** (q + 1) * math.factorial(q) for q in range(n)] * expm(aug)[0, 1:]

    upper = x[-1] if truncation is None else min(truncation, x[-1])
    n_full = int(np.searchsorted(x, upper, side="right")) - 1
    totals = []
    with np.errstate(over="ignore", invalid="ignore"):
        shift = np.exp(-zeta * x[:n_full + 1])
        full = shift[:n_full] * moments(x[1] - x[0])[:, None]
        cut = moments(upper - x[n_full]) if upper > x[n_full] else None
        for a in coeffs:
            total = np.tensordot(full[:len(a)], a[:, :n_full], axes=2)
            if cut is not None:
                total += shift[n_full] * np.tensordot(cut[:len(a)], a[:, n_full], 1)
            if not np.all(np.isfinite(total)):
                raise BoundViolation(f"sampled-kernel transfer is not finite at zeta = {zeta:.6g}")
            totals.append(total)
    return list(zip(totals[::2], totals[1::2]))


# --- transfer evaluation ----------------------------------------------------


def _transfer(mt: MemoryTransfer, lam: complex,
              omega_j: float) -> tuple[np.ndarray, np.ndarray]:
    """integral (-u)^p K(u) e^{-(lam + i omega_j) u} du for p = 0 and 1 of a closed-form
    kernel: the transfer and its lambda-derivative, from one evaluation of its exponential."""
    _check_domain(mt, lam)
    zeta = complex(lam) + 1j * omega_j
    k = mt.kernel
    if isinstance(k, ExponentialDecay):
        f, df = _window_factor(k.rate + zeta, mt.truncation)
        return k.coefficient * f, k.coefficient * df
    if isinstance(k, Delay):
        if mt.truncation is not None and mt.truncation < k.delay:
            return np.zeros((2, *k.weight.shape), dtype=complex)  # both vanish
        x = -zeta * k.delay
        _check_overflow(x)
        e = complex(np.exp(x))
        return k.weight * e, -k.delay * k.weight * e
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
        from scipy.interpolate import CubicSpline

        hi = min(s, k.support)
        norms = np.linalg.norm(k.values, ord=2, axis=(2, 3)).max(axis=0)
        return float(CubicSpline(k.u_grid, norms).integrate(s_bar, hi)) if s_bar < hi else 0.0
    raise TypeError(f"unsupported kernel {type(k).__name__}")


# --- assembly onto the component-major harmonic layout ----------------------


def memory_matrix(mt: MemoryTransfer, lam: complex,
                  omegas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q, Q'): the memory coupling on the component-major layout and its lambda-derivative.

    ``omegas`` lists the harmonic frequencies in ascending order.  Column h
    couples to row j = h + m through integral (-u)^p Gm(u) e^{-(lam+i w_h) u}
    du, p = 0 in Q and 1 in Q'; only sampled kernels have t-coefficients
    m != 0.  Both come from one kernel evaluation per harmonic.  This is the
    one transfer evaluation: one harmonic's dim x dim transfer pair is
    ``memory_matrix(mt, lam, np.array([w]))``, for a time-varying sampled
    kernel its time-averaged (m = 0) coupling.
    """
    k, size = mt.kernel, len(omegas)
    q, dq = np.zeros((2, k.dim * size, k.dim * size), dtype=complex)
    for h, w in enumerate(omegas):
        if isinstance(k, FiniteSupportSampled):
            ms = [m for m in k.splines if 0 <= h + m < size]
            blocks = _spline_transfers([k.splines[m] for m in ms], mt.truncation,
                                       complex(lam) + 1j * w)
            for m, (block, dblock) in zip(ms, blocks):
                q[h + m::size, h::size] = block
                dq[h + m::size, h::size] = dblock
        else:
            q[h::size, h::size], dq[h::size, h::size] = _transfer(mt, lam, w)
    return q, dq
