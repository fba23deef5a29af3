"""Dense spectral machinery for band-limited periodic signals.

A T-periodic signal truncated to ``N`` harmonics is held either as complex
amplitudes ``a_h`` (h = -N..N, ascending) or as ``2N+1`` samples on the
uniform grid ``t_k = k*T/(2N+1)``, ``k = 1..2N+1``.  Vector signals are laid
out component-major: the flat index of (component ``c``, harmonic ``h``) is
``c*(2N+1) + (h+N)``, and the same convention orders the time samples.

The forward transform is one explicit dense basis per (band, grid size),
built once and shared by every module that gathers coefficients from
samples; FFT acceleration is deliberately out of scope at these sizes.  The
inverse is plain evaluation of the series on the grid.  Multiplication by a
periodic matrix becomes a plain dense matrix on the flat layout, block
Toeplitz in the harmonics (:func:`toeplitz_from_periodic`); products are
formed from Fourier coefficients gathered on the oversampled grid
``sample_times(2N, T)`` so that quadratic nonlinearities stay alias-free in
the retained band.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HarmonicVector",
    "TimeSamples",
    "MatrixHarmonics",
    "dft",
    "idft",
    "differentiate",
    "toeplitz_from_periodic",
    "sample_times",
    "stacked_diff_matrix",
    "pack_real_coefficients",
    "unpack_real_coefficients",
    "real_form",
]

_SYMMETRY_TOL = 1e-12


def sample_times(n_harmonics: int, period: float) -> np.ndarray:
    """Uniform collocation grid t_k = k*T/(2N+1), k = 1..2N+1 (interval ]0, T])."""
    m = 2 * n_harmonics + 1
    return period * np.arange(1, m + 1) / m


@functools.lru_cache(maxsize=None)
def _grid_basis(n_keep: int, g: int) -> np.ndarray:
    """Forward DFT rows h = -n_keep..n_keep for samples on t_k = k*T/g, k = 1..g.

    ``samples @ basis.T`` gives the coefficients; for g = 2*n_keep + 1 this
    inverts evaluation on the collocation grid.
    """
    h = np.arange(-n_keep, n_keep + 1)
    k = np.arange(1, g + 1)
    basis = np.exp(-2j * np.pi * np.outer(h, k) / g) / g
    basis.setflags(write=False)
    return basis


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TimeSamples:
    """Equispaced samples of a periodic vector signal over one period.

    ``samples`` has shape (dim, 2N+1); the sample count must be odd.
    """

    dim: int
    samples: np.ndarray
    period: float

    def __post_init__(self):
        s = np.atleast_2d(np.asarray(self.samples))
        if s.shape[0] != self.dim:
            raise ValueError(f"expected {self.dim} signal components, got {s.shape[0]}")
        if s.shape[1] % 2 != 1:
            raise ValueError("sample count must be odd (2*n_harmonics + 1)")
        if self.period <= 0:
            raise ValueError("period must be positive")
        object.__setattr__(self, "samples", _readonly(s))

    @property
    def n_harmonics(self) -> int:
        return (self.samples.shape[1] - 1) // 2

    @property
    def times(self) -> np.ndarray:
        return sample_times(self.n_harmonics, self.period)


@dataclass(frozen=True)
class HarmonicVector:
    """Truncated complex-exponential Fourier representation of a periodic signal.

    ``amplitudes`` has shape (dim, 2N+1) with harmonics ordered -N..N.  When
    ``real_signal`` is set the coefficients must be conjugate symmetric,
    a(c, -h) == conj(a(c, h)).
    """

    dim: int
    n_harmonics: int
    amplitudes: np.ndarray
    omega0: float
    real_signal: bool = False

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.amplitudes, dtype=complex))
        m = 2 * self.n_harmonics + 1
        if a.shape != (self.dim, m):
            raise ValueError(f"amplitudes must have shape ({self.dim}, {m}), got {a.shape}")
        if self.omega0 <= 0:
            raise ValueError("omega0 must be positive")
        if self.real_signal:
            defect = np.max(np.abs(a[:, ::-1].conj() - a))
            if defect > _SYMMETRY_TOL * (1.0 + np.max(np.abs(a))):
                raise ValueError(f"conjugate symmetry violated by {defect:.3e}")
        object.__setattr__(self, "amplitudes", _readonly(a))

    @property
    def period(self) -> float:
        return 2 * np.pi / self.omega0

    @property
    def harmonics(self) -> np.ndarray:
        return np.arange(-self.n_harmonics, self.n_harmonics + 1)

    @property
    def flat(self) -> np.ndarray:
        """Component-major flattening, length dim*(2N+1)."""
        return self.amplitudes.reshape(-1)

    def amplitude(self, component: int, harmonic: int) -> complex:
        if abs(harmonic) > self.n_harmonics:
            raise IndexError(f"harmonic {harmonic} outside +-{self.n_harmonics}")
        return complex(self.amplitudes[component, harmonic + self.n_harmonics])

    def evaluate(self, t) -> np.ndarray:
        """Evaluate the truncated series at arbitrary times; shape (dim, len(t))."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        phases = np.exp(1j * self.omega0 * np.outer(self.harmonics, t))
        return self.amplitudes @ phases

    @classmethod
    def from_flat(cls, flat, dim, n_harmonics, omega0, real_signal=False):
        a = np.asarray(flat, dtype=complex).reshape(dim, 2 * n_harmonics + 1)
        return cls(dim, n_harmonics, a, omega0, real_signal)


def dft(x: TimeSamples) -> HarmonicVector:
    """Transform time samples to harmonic amplitudes; the sample count fixes the truncation."""
    n = x.n_harmonics
    amps = x.samples @ _grid_basis(n, 2 * n + 1).T
    real = bool(np.max(np.abs(np.asarray(x.samples).imag)) == 0.0) if np.iscomplexobj(x.samples) else True
    return HarmonicVector(x.dim, n, amps, 2 * np.pi / x.period, real_signal=real)


def idft(a: HarmonicVector) -> TimeSamples:
    """Evaluate the truncated series on the collocation grid."""
    samples = a.evaluate(sample_times(a.n_harmonics, a.period))
    return TimeSamples(a.dim, samples, a.period)


def differentiate(a: HarmonicVector) -> HarmonicVector:
    """Time derivative in harmonic form: a_h -> i*h*omega0 * a_h."""
    factors = 1j * a.harmonics * a.omega0
    return HarmonicVector(a.dim, a.n_harmonics, a.amplitudes * factors, a.omega0,
                          real_signal=a.real_signal)


@dataclass(frozen=True)
class MatrixHarmonics:
    """Fourier coefficients of a periodic matrix-valued signal.

    ``coeffs`` has shape (rows, cols, 2N+1), harmonic index ordered -N..N.
    """

    rows: int
    cols: int
    n_harmonics: int
    coeffs: np.ndarray
    omega0: float

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        m = 2 * self.n_harmonics + 1
        if c.shape != (self.rows, self.cols, m):
            raise ValueError(f"coeffs must have shape ({self.rows}, {self.cols}, {m})")
        object.__setattr__(self, "coeffs", _readonly(c))

    @classmethod
    def constant(cls, mat, omega0: float) -> "MatrixHarmonics":
        mat = np.atleast_2d(np.asarray(mat, dtype=complex))
        c = mat[:, :, None]
        return cls(mat.shape[0], mat.shape[1], 0, c, omega0)

    @classmethod
    def from_time_grid(cls, values, period: float, n_keep: int) -> "MatrixHarmonics":
        """Coefficients -n_keep..n_keep from samples on t_g = g*T/G, g = 1..G."""
        values = np.asarray(values)
        rows, cols, g = values.shape
        if g < 2 * n_keep + 1:
            raise ValueError("grid too coarse for the requested coefficient band")
        coeffs = np.einsum("rcg,hg->rch", values.astype(complex), _grid_basis(n_keep, g))
        return cls(rows, cols, n_keep, coeffs, 2 * np.pi / period)

    def coefficient(self, harmonic: int) -> np.ndarray:
        """The (rows, cols) coefficient matrix of one harmonic; zero out of band."""
        if abs(harmonic) > self.n_harmonics:
            return np.zeros((self.rows, self.cols), dtype=complex)
        return np.asarray(self.coeffs[:, :, harmonic + self.n_harmonics])

    def evaluate(self, t: float) -> np.ndarray:
        h = np.arange(-self.n_harmonics, self.n_harmonics + 1)
        return (self.coeffs * np.exp(1j * self.omega0 * h * t)).sum(axis=2)


def toeplitz_from_periodic(mh: MatrixHarmonics, n_harmonics: int | None = None) -> np.ndarray:
    """Dense operator of multiplication by a periodic matrix signal.

    On the component-major layout, entry (r*(2n+1) + j, c*(2n+1) + l) is the
    (j-l)-th Fourier coefficient of matrix element (r, c); coefficients beyond
    the band of ``mh`` are zero.  ``n_harmonics`` = n sets the operand
    truncation; by default it matches the coefficient band.  Supplying a wider
    coefficient band than the operand truncation keeps products exact for
    polynomial nonlinearities.  The returned array is read-only.
    """
    if mh.rows != mh.cols:
        raise ValueError("Toeplitz assembly needs a square matrix signal")
    n_out = mh.n_harmonics if n_harmonics is None else n_harmonics
    m = 2 * n_out + 1
    # padded lookup over coefficient differences j-l in [-(m-1), m-1]
    table = np.zeros((mh.rows, mh.cols, 2 * m - 1), dtype=complex)
    band = min(m - 1, mh.n_harmonics)
    table[:, :, m - 1 - band:m + band] = \
        mh.coeffs[:, :, mh.n_harmonics - band:mh.n_harmonics + band + 1]
    j = np.arange(m)
    rows = np.arange(mh.rows)[:, None, None, None]
    cols = np.arange(mh.cols)[None, None, :, None]
    diff = (j[:, None] - j[None, :] + m - 1)[None, :, None, :]
    out = table[rows, cols, diff].reshape(mh.rows * m, mh.cols * m)  # (r, j, c, l) order
    out.setflags(write=False)
    return out


def stacked_diff_matrix(dim: int, n_harmonics: int, omega0: float) -> np.ndarray:
    """Differentiation operator on the component-major flat layout."""
    h = np.arange(-n_harmonics, n_harmonics + 1)
    return np.kron(np.eye(dim), np.diag(1j * h * omega0))


# ---------------------------------------------------------------------------
# Real packing of conjugate-symmetric coefficient sets.
#
# Per component the real unknowns are ordered [a_0.re, a_1.re, a_1.im,
# a_2.re, a_2.im, ...]; negative harmonics follow by conjugation.  This keeps
# Newton systems square and real.  The unpacking map U (amplitudes = U u) is
# complex-linear: a complex u, such as an eigenvector of a real form, unpacks
# to U u, which carries it back to complex harmonics.
# ---------------------------------------------------------------------------


def pack_real_coefficients(amps: np.ndarray) -> np.ndarray:
    """Flatten conjugate-symmetric (dim, 2N+1, ...) amplitudes to dim*(2N+1) reals.

    Trailing axes are carried along, so complex rows in the flat layout,
    reshaped to (dim, 2N+1, cols), project onto the packed row layout; for a
    conjugate-symmetric residual this loses no information.
    """
    amps = np.atleast_2d(amps)
    dim, m = amps.shape[:2]
    n = (m - 1) // 2
    out = np.empty(amps.shape)
    out[:, 0] = amps[:, n].real
    out[:, 1::2] = amps[:, n + 1:].real
    out[:, 2::2] = amps[:, n + 1:].imag
    return out.reshape((dim * m,) + amps.shape[2:])


def unpack_real_coefficients(u: np.ndarray, dim: int, n_harmonics: int) -> np.ndarray:
    """Inverse of :func:`pack_real_coefficients`; restores conjugate symmetry.

    Trailing axes of ``u`` are carried along: unpacking the identity gives
    the columns of U = d(amplitudes)/d(packed real unknowns).  The map is
    complex-linear, a_{+-h} = u_{2h-1} +- i*u_{2h}, so a complex ``u`` unpacks
    to U u (conjugate symmetric only when ``u`` is real).
    """
    u = np.asarray(u)
    u = u.reshape((dim, 2 * n_harmonics + 1) + u.shape[1:])
    re, im = u[:, 1::2], 1j * u[:, 2::2]
    amps = np.empty(u.shape, dtype=complex)
    amps[:, n_harmonics] = u[:, 0]
    amps[:, n_harmonics + 1:] = re + im
    amps[:, :n_harmonics] = (re - im)[:, ::-1]
    return amps


def real_form(mat: np.ndarray, dim: int, n_harmonics: int) -> np.ndarray:
    """U^-1 mat U: a (dim*(2N+1))-square matrix on the harmonic layout, in the packed basis.

    U is the map of :func:`unpack_real_coefficients`, so an eigenvector v of
    the result unpacks to the eigenvector U v of ``mat``.  Both factors are
    applied by slicing the harmonic pairs +-h.  A matrix that maps
    conjugate-symmetric amplitudes to conjugate-symmetric ones (a real
    signal operator) has a real form; an imaginary part above the
    conjugate-symmetry tolerance raises ``ValueError``.
    """
    n, m = n_harmonics, 2 * n_harmonics + 1
    a = np.asarray(mat).reshape(dim, m, dim, m)
    # columns of mat U, from the columns of harmonics 0, +h and -h (h = 1..N)
    pos, neg = a[..., n + 1:], a[..., :n][..., ::-1]
    cols = np.empty(a.shape, dtype=complex)
    cols[..., 0], cols[..., 1::2], cols[..., 2::2] = a[..., n], pos + neg, 1j * (pos - neg)
    # rows of U^-1 (mat U), likewise
    pos, neg = cols[:, n + 1:], cols[:, :n][:, ::-1]
    out = np.empty(a.shape, dtype=complex)
    out[:, 0], out[:, 1::2], out[:, 2::2] = cols[:, n], (pos + neg) / 2, (pos - neg) / 2j
    out = out.reshape(dim * m, dim * m)
    defect = np.max(np.abs(out.imag))
    if defect > _SYMMETRY_TOL * (1.0 + np.max(np.abs(a))):
        raise ValueError(f"conjugate symmetry violated by {defect:.3e}: no real form")
    return np.ascontiguousarray(out.real)
