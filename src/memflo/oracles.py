"""Independent cross-checks used by the test suite and the CLI selfcheck.

Every function here validates solver output through a route that shares no
code with the solver it checks: direct Fourier summation against the matrix
transform, time-domain monodromy integration against the frequency-domain
eigenproblem, closed-form roots against iterative ones, and determinant scans
against companion linearization.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import lambertw

from .hb import MatrixHarmonics, sample_times

__all__ = [
    "fourier_coefficients_direct",
    "quadratic_memory_exponent",
    "monodromy_multipliers",
    "pep_value",
    "pep_determinant",
    "rk4_trajectory",
    "orbit_period_amplitude",
    "circular_orbit",
    "particle_effective_friction",
    "selfcheck",
]


def fourier_coefficients_direct(samples: np.ndarray, n_harmonics: int) -> np.ndarray:
    """O(M^2) discrete Fourier sum on the grid t_k = k*T/M, k = 1..M."""
    samples = np.atleast_2d(samples)
    m = samples.shape[1]
    out = np.zeros((samples.shape[0], 2 * n_harmonics + 1), dtype=complex)
    for idx, h in enumerate(range(-n_harmonics, n_harmonics + 1)):
        acc = np.zeros(samples.shape[0], dtype=complex)
        for k in range(1, m + 1):
            acc += samples[:, k - 1] * np.exp(-2j * np.pi * h * k / m)
        out[:, idx] = acc / m
    return out


def quadratic_memory_exponent(a: float, k: float) -> float:
    """Admissible root of lambda^2 + (k - a) lambda - (a k + 1) = 0.

    This is the infinite-memory scalar characteristic equation with its
    denominator cleared; only the root above -k solves the original equation.
    """
    disc = math.sqrt((k - a) ** 2 + 4.0 * (a * k + 1.0))
    roots = [(-(k - a) + disc) / 2.0, (-(k - a) - disc) / 2.0]
    good = [r for r in roots if r > -k]
    if len(good) != 1:
        raise ValueError("expected exactly one admissible quadratic root")
    return good[0]


def monodromy_multipliers(jacobian_of_t, dim: int, period: float,
                          rtol: float = 1e-11, atol: float = 1e-13) -> np.ndarray:
    """Multipliers from time-domain integration of the variational equation.

    Integrates dY/dt = A(t) Y over one period from the identity and returns
    the eigenvalues of the resulting monodromy matrix, sorted by magnitude.
    """

    def rhs(t, y):
        return (np.atleast_2d(jacobian_of_t(t)) @ y.reshape(dim, dim)).reshape(-1)

    sol = solve_ivp(rhs, (0.0, period), np.eye(dim).reshape(-1), method="DOP853",
                    rtol=rtol, atol=atol, dense_output=False)
    if not sol.success:
        raise RuntimeError(f"monodromy integration failed: {sol.message}")
    mono = sol.y[:, -1].reshape(dim, dim)
    mults = np.linalg.eigvals(mono)
    return mults[np.argsort(-np.abs(mults))]


def pep_value(coeffs, lam: complex) -> np.ndarray:
    """sum_k P_k lam^k evaluated directly."""
    total = np.zeros_like(np.asarray(coeffs[0], dtype=complex))
    for k, c in enumerate(coeffs):
        total = total + np.asarray(c, dtype=complex) * lam**k
    return total


def pep_determinant(coeffs, lam: complex) -> complex:
    return complex(np.linalg.det(pep_value(coeffs, lam)))


def pep_determinant_normalized(coeffs, lam: complex) -> float:
    """|det| divided by the product of row norms (Hadamard bound).

    The quotient is scale free, at most 1, and vanishes exactly at the
    eigenvalues, which makes it a meaningful smallness test for matrices of
    any size or magnitude.
    """
    mat = pep_value(coeffs, lam)
    rows = np.linalg.norm(mat, axis=1)
    scale = float(np.prod(rows))
    if scale == 0.0:
        return 0.0
    return abs(np.linalg.det(mat)) / scale


def rk4_trajectory(f, z0, t_end: float, n_steps: int):
    """Fixed-step classical Runge-Kutta integration of dz/dt = f(z, t)."""
    z = np.asarray(z0, dtype=float).copy()
    h = t_end / n_steps
    times = np.arange(n_steps + 1) * h
    out = np.empty((len(z), n_steps + 1))
    out[:, 0] = z
    for i in range(n_steps):
        t = times[i]
        k1 = np.asarray(f(z, t))
        k2 = np.asarray(f(z + 0.5 * h * k1, t + 0.5 * h))
        k3 = np.asarray(f(z + 0.5 * h * k2, t + 0.5 * h))
        k4 = np.asarray(f(z + h * k3, t + h))
        z = z + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        out[:, i + 1] = z
    return times, out


def orbit_period_amplitude(times: np.ndarray, trajectory: np.ndarray,
                           component: int = 0, tail_fraction: float = 0.4):
    """Period and amplitude estimates from late upcrossings of one component."""
    n_tail = int(len(times) * tail_fraction)
    t = times[-n_tail:]
    x = trajectory[component, -n_tail:]
    x0 = x - x.mean()
    ups = np.nonzero((x0[:-1] < 0) & (x0[1:] >= 0))[0]
    if len(ups) < 3:
        raise ValueError("not enough oscillations in the trajectory tail")
    crossings = t[ups] - x0[ups] * (t[ups + 1] - t[ups]) / (x0[ups + 1] - x0[ups])
    period = float(np.median(np.diff(crossings)))
    lo, hi = crossings[-2], crossings[-1]
    mask = (t >= lo) & (t <= hi)
    amplitude = float((x[mask].max() - x[mask].min()) / 2.0)
    return period, amplitude


def circular_orbit(alpha: float, beta: float, g: float, k: float, omega: float):
    """Radius and period of the rotating particle orbit in an isotropic well.

    On a circular orbit the speed R*omega is constant, the friction
    coefficient -alpha + beta (R omega)^2 + g/k vanishes, and the retardation
    integral of a zero integrand vanishes with it; hence
    R = sqrt((alpha - g/k)/beta)/omega exactly, at period 2*pi/omega.
    Returns None when no such orbit exists.
    """
    shift = g / k if math.isfinite(k) else 0.0
    r2 = (alpha - shift) / beta
    if r2 <= 0:
        return None
    return math.sqrt(r2) / omega, 2 * math.pi / omega


def particle_effective_friction(m, c) -> MatrixHarmonics:
    """Harmonics of the friction force's velocity Jacobian along a cycle.

    For the particle model ``m`` on the cycle ``c``, the friction force
    density gamma(|v|) v linearizes to gamma(|v|) I + 2 beta v v^T, formed
    here sample by sample, apart from the grid-wide Jacobian of
    ``models.particle_system``; the harmonics of that 2x2 matrix drive the
    memory states of the variational problem.
    """
    nh = c.harmonics.n_harmonics
    times = sample_times(2 * nh, c.period)
    z = c.harmonics.evaluate(times).real
    samples = np.empty((2, 2, len(times)))
    for i in range(len(times)):
        v = z[2:4, i]
        samples[:, :, i] = m.friction(v) * np.eye(2) + 2 * m.beta * np.outer(v, v)
    return MatrixHarmonics.from_time_grid(samples, c.period, 2 * nh)


# --- embedded quick checks (CLI selfcheck) ------------------------------------


def selfcheck() -> list[tuple[str, bool, str]]:
    """Fast oracle-backed sanity checks; returns (name, passed, detail) rows."""
    from . import floquet, hb, kernels, models

    checks = []

    rng = np.random.default_rng(7)
    samples = hb.TimeSamples(2, rng.normal(size=(2, 9)), period=2.0)
    direct = fourier_coefficients_direct(samples.samples, 4)
    via_matrix = hb.dft(samples).amplitudes
    err = float(np.max(np.abs(direct - via_matrix)))
    checks.append(("dft matches direct Fourier summation", err < 1e-12, f"max err {err:.2e}"))

    back = hb.idft(hb.dft(samples)).samples
    err = float(np.max(np.abs(back - samples.samples)))
    checks.append(("dft/idft round trip", err < 1e-12, f"max err {err:.2e}"))

    spec = models.model1d_exponent(models.Memory1DModel(0.0, 3.0))
    lam = max(p.exponent.real for p in spec.canonical_strip)
    ref = quadratic_memory_exponent(0.0, 3.0)
    err = abs(lam - ref)
    checks.append(("scalar memory exponent vs quadratic root", err < 1e-10,
                   f"|lambda - ref| = {err:.2e}"))

    p0 = np.array([[-1.0, 0.3], [0.1, -2.0]])
    p1 = np.array([[0.5, 0.0], [0.2, 1.0]])
    p2 = np.eye(2)
    res = floquet.solve_pep([p0, p1, p2])
    worst = max(abs(pep_determinant([p0, p1, p2], lam)) for lam, _, _ in res.eigenpairs)
    checks.append(("polynomial eigenvalues against determinant scan",
                   res.total == 4 and worst < 1e-8, f"max |det| = {worst:.2e}"))

    # y' = -y + y(t-1)/2 on the contour route: lam = -1 + W_0(e/2)
    jac = hb.toeplitz_from_periodic(hb.MatrixHarmonics.constant([[-1.0]], 1.0), n_harmonics=2)
    delay = kernels.MemoryTransfer(kernels.Delay([[0.5]], 1.0))
    spec = floquet.floquet_spectrum(floquet.FloquetProblem(jac, delay, 2 * math.pi, 2, 1))
    err = abs(spec.max_nontrivial_re() - (-1.0 + lambertw(math.e / 2).real))
    checks.append(("delay exponent on the contour route vs Lambert W", err < 1e-10,
                   f"|lambda - ref| = {err:.2e}"))

    # x'' + 0.05x' + (1 + 0.4 cos 2t)x = 0 in its first tongue: two negative multipliers
    coeffs = np.zeros((2, 2, 3))
    coeffs[:, :, 1] = [[0.0, 1.0], [-1.0, -0.05]]
    coeffs[1, 0, [0, 2]] = -0.2
    mathieu = hb.MatrixHarmonics(2, 2, 1, coeffs, 2.0)
    jac = hb.toeplitz_from_periodic(mathieu, n_harmonics=12)
    spec = floquet.floquet_spectrum(floquet.FloquetProblem(jac, None, math.pi, 12, 2))
    want = monodromy_multipliers(lambda t: mathieu.evaluate(t).real, 2, math.pi)
    err = max(np.min(np.abs(spec.multipliers - w)) / abs(w) for w in want)
    checks.append(("Mathieu period-doubling multipliers vs monodromy",
                   len(spec.canonical_strip) == 2 and err < 1e-10, f"max rel err {err:.2e}"))

    samples = np.exp(-2.0 * np.linspace(0.0, 4.0, 200))[None, :, None, None]
    sampled = kernels.MemoryTransfer(kernels.FiniteSupportSampled(samples, 4.0))
    closed = kernels.MemoryTransfer(kernels.ExponentialDecay([[1.0]], 2.0), truncation=4.0)
    err = abs(kernels.transfer_at(sampled, 0.3, 1.7) - kernels.transfer_at(closed, 0.3, 1.7))[0, 0]
    checks.append(("sampled-kernel transfer vs exponential closed form", err < 1e-8,
                   f"|G - ref| = {err:.2e}"))

    tl = models.tl_spectrum(models.TlResonatorModel(R=1.0, Ra=-0.5, Z0=1.0, tau_f=1.0),
                            n_roots=3)
    expect = math.log(abs(models.TlResonatorModel(1.0, -0.5).reflection_coefficient)) / 2.0
    err = max(abs(p.exponent.real - expect) for p in tl.pairs)
    checks.append(("resonator spectrum real part", err < 1e-12, f"max err {err:.2e}"))

    return checks
