"""Floquet exponents of periodic states with linear memory.

The characteristic operator on the harmonic layout is

    R(lambda) = Omega_n + lambda*I - A_toeplitz - Q(lambda),

whose null pairs (lambda, r) are the Floquet exponents and eigenvector
harmonics.  Q(lambda) is the memory coupling of :mod:`memflo.kernels`; a
problem whose exponential memory already sits in its state (the linear chain
trick, as in the particle model) has no Q and carries the memory's decay
rate instead.  Two solution routes are provided: the standard
Floquet-Fourier-Hill eigenproblem for memoryless problems and untruncated
exponential kernels, whose memory integral is carried as extra states, solved
in real arithmetic in the cos/sin basis (the linearization is real), one
eigenproblem per parity block when a T/2-periodic linearization leaves the
even and the odd harmonics uncoupled, and contour integrals of the exact
R(lambda) for delay, sampled and truncated kernels, whose integer root count
certifies that no exponent in the enclosed rectangle was missed.  The
rectangle's left edge lies just below the decay bound, or, for the scalar
rate equation y' = a*y + c*integral over a window of e^{-k u} y(t-u) with
c > 0 and a > -k, at (a - k)/2, where Rouche's theorem proves that no
exponent lies between it and -k and that the one it encloses is real
(:func:`_contour_real_extent`).  Each class is invariant under shifts by
i*omega0, so a Hill matrix of d states holds d classes of 2N+1 copies: the
route keeps each class's copy with centred eigenvector harmonics, and is
complete when d classes are certified or filtered.  Candidates are filtered
against the decay bound, polished by Newton iteration on the exact
transcendental operator (one eigenvector entry held at 1, so the system is
square), and collapsed into classes (multipliers exp(lambda*T) label them
uniquely); each class's eigenvector is stored once, shared by the spectrum's pairs and its canonical strip.  Every route
has one certificate: a pair's residual ||R(lambda) r|| / ||r|| lies below
``CERTIFICATE_TOL``, or below the rounding floor 1e3*eps*||R(lambda)||_1
where that is larger.  The tolerances are the module constants below; the
stability verdict is derived from the classes by
:attr:`FloquetSpectrum.stability`.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import BoundViolation, IncompleteSpectrum
from .hb import (
    HarmonicVector,
    _odd_slots,
    real_form,
    stacked_diff_matrix,
    unpack_real_coefficients,
)
from .kernels import (
    DOMAIN_MARGIN,
    ExponentialDecay,
    FiniteSupportSampled,
    MemoryTransfer,
    critical_exponent,
    memory_matrix,
    truncation_error_bound,
)

__all__ = [
    "FloquetProblem",
    "FloquetEigenpair",
    "FloquetSpectrum",
    "PepResult",
    "residual_matrices",
    "hill_matrix",
    "solve_pep",
    "contour_eigenvalues",
    "refine_eigenpair",
    "canonicalize_spectrum",
    "floquet_spectrum",
    "splitting_shift",
    "shift_harmonics",
]

log = logging.getLogger(__name__)

STABILITY_TOL = 1e-6
MERGE_TOL = 1e-8
TRIVIAL_FACTOR = 1e-3
CERTIFICATE_TOL = 1e-10     # residual that certifies a pair, unless R's rounding floor is above it
CONTOUR_NODES = 32          # Gauss-Legendre nodes per rectangle side, first pass
CONTOUR_MARGIN = 1.0        # rectangle clearance beyond the root and decay bounds
CONTOUR_DEPTH = 5.0         # rectangle left edge at Re = -CONTOUR_DEPTH without a decay bound
# contour attempt j: edges at Im = (+-1/2 + CONTOUR_SHIFTS[j]) * omega0, CONTOUR_NODES * 2^j
# nodes per side; never a shift of 0 or 1/2 mod 1, where real multipliers put exponents
CONTOUR_SHIFTS = (0.125, 0.375, 0.25, 0.0625, 0.3125)
COUNT_TOL = 0.05            # distance of the contour count from its integer
RANK_TOL = 1e-8             # relative singular value that still counts in the Hankel rank
_GL_NODES, _GL_WEIGHTS = leggauss(CONTOUR_NODES)  # on [-1, 1], mapped to every contour panel


@dataclass(frozen=True)
class FloquetProblem:
    """Assembled ingredients of the harmonic eigenproblem.

    ``jacobian`` is the dense (size, size) matrix A of multiplication by the
    periodic Jacobian on the component-major layout, as
    :func:`~memflo.hb.toeplitz_from_periodic` builds it.  ``memory_rate`` is
    the decay rate of exponential memory that the state already carries (the
    Jacobian holds its states); it bounds the admissible exponents like the
    critical exponent of ``transfer`` does.  The lambda-independent parts of
    R(lambda), ``omegas`` and ``linear_operator``, are built on first use and
    then shared, read-only, by every contour node and Newton step.
    """

    jacobian: np.ndarray
    transfer: MemoryTransfer | None
    period: float
    n_harmonics: int
    dim: int
    memory_rate: float = math.inf

    def __post_init__(self):
        if self.jacobian.shape != (self.size, self.size):
            raise ValueError("jacobian layout does not match the problem")
        if self.transfer is not None and self.transfer.dim != self.dim:
            raise ValueError("kernel dimension does not match the problem")
        if self.period <= 0:
            raise ValueError("period must be positive")
        k = self.transfer.kernel if self.transfer is not None else None
        if isinstance(k, FiniteSupportSampled) and not k.time_invariant \
                and not math.isclose(k.period, self.period):
            raise ValueError("time-varying sampled kernel period does not match the problem")

    @property
    def omega0(self) -> float:
        return 2 * np.pi / self.period

    @cached_property
    def omegas(self) -> np.ndarray:
        """Harmonic frequencies h*omega0, h = -N..N, built once, read-only."""
        out = np.arange(-self.n_harmonics, self.n_harmonics + 1) * self.omega0
        out.flags.writeable = False
        return out

    @property
    def size(self) -> int:
        return self.dim * (2 * self.n_harmonics + 1)

    @property
    def critical_exponent(self) -> float:
        if self.transfer is None:
            return self.memory_rate
        return min(self.memory_rate, critical_exponent(self.transfer.kernel))

    @cached_property
    def linear_operator(self) -> np.ndarray:
        """A - D: the lambda-independent part of -R(lambda), built once, read-only."""
        out = self.jacobian - stacked_diff_matrix(self.dim, self.n_harmonics, self.omega0)
        out.flags.writeable = False
        return out

    @cached_property
    def _window_lemma(self) -> bool:
        """Jacobian a*I, one truncated exponential kernel c*e^{-k u}, c > 0, a > -k.

        The lemma of :func:`_contour_real_extent` covers such a problem: its
        rectangle encloses exactly one exponent, and that exponent is real.
        Decided once per problem with memory, on first use.
        """
        k, a, window = self.transfer.kernel, self.jacobian[0, 0].real, self.transfer.truncation
        return self.dim == 1 and window is not None and math.isfinite(window) \
            and isinstance(k, ExponentialDecay) and k.coefficient[0, 0] > 0 and a > -k.rate \
            and np.array_equal(self.jacobian, a * np.eye(self.size))


@dataclass(slots=True)
class FloquetEigenpair:
    exponent: complex
    multiplier: complex
    eigenvector: HarmonicVector | None
    residual: float
    trivial: bool = False


@dataclass(slots=True)
class FloquetSpectrum:
    """Computed exponents, one canonical representative per splitting class."""

    pairs: list
    canonical_strip: list
    period: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def omega0(self) -> float:
        return 2 * np.pi / self.period

    @property
    def exponents(self) -> np.ndarray:
        return np.array([p.exponent for p in self.canonical_strip])

    @property
    def multipliers(self) -> np.ndarray:
        return np.array([p.multiplier for p in self.canonical_strip])

    def max_nontrivial_re(self) -> float | None:
        res = [p.exponent.real for p in self.canonical_strip if not p.trivial]
        return max(res) if res else None

    @property
    def stability(self) -> str:
        """Verdict on the largest non-trivial real part, with a STABILITY_TOL band."""
        worst = self.max_nontrivial_re()
        if worst is None or abs(worst) <= STABILITY_TOL:
            return "Marginal"
        return "Unstable" if worst > STABILITY_TOL else "Stable"


def _gauge_normalize(vec: np.ndarray) -> np.ndarray:
    idx = int(np.argmax(np.abs(vec)))
    pivot = vec[idx]
    if pivot == 0:
        return vec
    return vec / pivot


def floquet_multiplier(exponent: complex, period: float) -> complex:
    """exp(exponent * period); a modulus beyond the float range reads infinite."""
    try:
        return cmath.exp(exponent * period)
    except OverflowError:
        return complex(math.inf, 0.0)


def make_eigenpair(problem: FloquetProblem, exponent: complex, vector: np.ndarray,
                   residual: float) -> FloquetEigenpair:
    """Package an eigenpair: gauge-normalized vector and multiplier, no bound test."""
    vec = _gauge_normalize(np.asarray(vector, dtype=complex)).reshape(problem.dim, -1)
    return FloquetEigenpair(complex(exponent), floquet_multiplier(exponent, problem.period),
                            HarmonicVector(vec, problem.omega0), float(residual))


def residual_matrices(p: FloquetProblem, lam: complex) -> tuple[np.ndarray, np.ndarray | None]:
    """R(lambda) = lambda*I - (A - D) - Q(lambda) and R'(lambda) = I - Q'(lambda).

    Eigenpairs satisfy R r = 0.  Both are new arrays on the component-major
    layout, and this is the one assembly of R: a caller that wants R alone
    takes ``residual_matrices(p, lam)[0]``, so it raises
    :class:`~memflo.errors.BoundViolation` where only Q' would overflow.  R'
    is None without memory: a memoryless problem has R' = I, so no identity
    is built.  Otherwise Q and Q' come from one
    :func:`~memflo.kernels.memory_matrix` call on the cached ``p.omegas``.  R
    starts from the cached ``p.linear_operator``; lambda, and the 1 of R',
    are added through a strided view of the diagonal.
    """
    step = p.size + 1  # of the diagonal in the flattened matrix
    r = -p.linear_operator
    r.reshape(-1)[::step] += complex(lam)
    if p.transfer is None:
        return r, None
    q, dq = memory_matrix(p.transfer, lam, p.omegas)
    r -= q
    dr = -dq
    dr.reshape(-1)[::step] += 1.0
    return r, dr


def shift_harmonics(hv: HarmonicVector, m: int) -> HarmonicVector:
    """Amplitudes of r(t)*exp(i*m*omega0*t): new a_h = old a_{h-m}, zero filled."""
    a = np.zeros_like(hv.amplitudes)
    mm = 2 * hv.n_harmonics + 1
    if abs(m) >= mm:
        return HarmonicVector(a, hv.omega0)
    if m >= 0:
        a[:, m:] = hv.amplitudes[:, :mm - m]
    else:
        a[:, :mm + m] = hv.amplitudes[:, -m:]
    return HarmonicVector(a, hv.omega0)


def splitting_shift(p: FloquetProblem, pair: FloquetEigenpair) -> FloquetEigenpair:
    """The same eigenspace presented at exponent + i*omega0.

    Its residual measures how well the truncated operator preserves the
    exponent-shift invariance of the underlying problem.
    """
    lam = pair.exponent + 1j * p.omega0
    hv = shift_harmonics(pair.eigenvector, -1)
    vec = hv.flat
    res = float(np.linalg.norm(residual_matrices(p, lam)[0] @ vec) / np.linalg.norm(vec))
    return make_eigenpair(p, lam, vec, res)


# --- eigenproblem routes ---------------------------------------------------


def _hill_applies(p: FloquetProblem) -> bool:
    """Memoryless, or memory that an exact exponential state can carry."""
    return p.transfer is None or (p.transfer.truncation is None and isinstance(
        p.transfer.kernel, ExponentialDecay))


def hill_matrix(p: FloquetProblem) -> np.ndarray:
    """Hill matrix of the state and its exponential-memory states.

    For an exponential kernel the memory integral q is itself a state,
    dq/dt = -rate*q + C z with C the kernel coefficient, so the harmonics of
    (z, q) satisfy lambda [z; q] = H [z; q] with

        H = [[A - D, E], [C, -(rate + D)]],

    A the Toeplitz Jacobian, D = diag(i*omega_j) and E the injection of q
    into the rows it drives.  Memory states sit only on rows where C is
    nonzero; a memoryless problem has none and H = A - D.  The Schur
    complement of H - lambda*I over the memory block is -R(lambda), so no
    approximation is made.  H is returned on the complex harmonic layout;
    :func:`floquet_spectrum` solves its real form (:func:`~memflo.hb.real_form`,
    the cos/sin basis of the state and memory components) in real arithmetic.
    """
    if not _hill_applies(p):
        raise ValueError("memory states need an untruncated exponential kernel")
    if p.transfer is None:
        return p.linear_operator
    k = p.transfer.kernel
    coupling = np.kron(k.coefficient, np.eye(2 * p.n_harmonics + 1))
    rows = np.flatnonzero(np.any(coupling != 0.0, axis=1))
    size, n_mem = p.size, len(rows)
    h = np.zeros((size + n_mem, size + n_mem), dtype=complex)
    h[:size, :size] = p.linear_operator
    h[rows, size + np.arange(n_mem)] = 1.0
    h[size:, :size] = coupling[rows]
    h[size:, size:] = np.diag(-(k.rate + 1j * np.tile(p.omegas, p.dim)[rows]))
    return h


def _parity_blocks(rf: np.ndarray, n_harmonics: int) -> list[np.ndarray]:
    """Index sets of the real Hill matrix ``rf`` that solve as separate eigenproblems.

    In the packed basis each component holds harmonic 0, then the cos/sin
    pair of each h = 1..N.  A T/2-periodic linearization (only even harmonics
    in A, as :func:`~memflo.cycles.linearize` leaves a half-wave symmetric
    cycle's) couples even harmonics only to even ones and odd to odd, so
    when every entry between the two parities is an exact zero, they are two
    blocks: the Floquet-Bloch split of the T/2-periodic problem (Deconinck &
    Kutz, JCP 2006).  Otherwise, and at N = 0, the matrix is one block.
    """
    odd = np.tile(_odd_slots(n_harmonics), len(rf) // (2 * n_harmonics + 1))
    if odd.any() and not rf[np.ix_(odd, ~odd)].any() and not rf[np.ix_(~odd, odd)].any():
        return [np.flatnonzero(~odd), np.flatnonzero(odd)]
    return [np.arange(len(rf))]


@dataclass
class PepResult:
    """Finite eigenpairs plus the multiplicity of eigenvalues at infinity."""

    eigenpairs: list  # (eigenvalue, vector, residual)
    n_infinite: int

    @property
    def total(self) -> int:
        return len(self.eigenpairs) + self.n_infinite


def solve_pep(coeffs: list[np.ndarray]) -> PepResult:
    """Solve (sum_k P_k lambda^k) v = 0 by first companion linearization.

    A degree-r problem of size m yields exactly r*m eigenvalues counting the
    infinite ones that arise from a singular leading coefficient; those are
    counted in ``n_infinite`` rather than dropped.  An identity leading
    coefficient makes the pencil a standard eigenproblem, solved without QZ,
    and its residual skips the product with the identity.  Real coefficients
    are solved in real arithmetic; the eigenvalues are complex either way.
    The Hill route of :func:`floquet_spectrum` calls it once per parity
    block of the real form of :func:`hill_matrix`, with the block's own
    identity: twice for a half-wave symmetric cycle, once otherwise.
    """
    import scipy.linalg

    coeffs = [np.atleast_2d(np.asarray(c)) for c in coeffs]
    degree = len(coeffs) - 1
    if degree < 1:
        raise ValueError("need at least two coefficient matrices")
    msize = coeffs[0].shape[0]
    for c in coeffs:
        if c.shape != (msize, msize):
            raise ValueError("coefficient matrices must be square and same size")

    dim = degree * msize
    dtype = np.result_type(float, *coeffs)
    a = np.zeros((dim, dim), dtype=dtype)
    for k in range(degree - 1):
        a[k * msize:(k + 1) * msize, (k + 1) * msize:(k + 2) * msize] = np.eye(msize)
    for k in range(degree):
        a[(degree - 1) * msize:, k * msize:(k + 1) * msize] = -coeffs[k]
    standard = np.array_equal(coeffs[-1], np.eye(msize))
    if standard:
        w, vr = scipy.linalg.eig(a)
    else:
        b = np.eye(dim, dtype=dtype)
        b[(degree - 1) * msize:, (degree - 1) * msize:] = coeffs[-1]
        w, vr = scipy.linalg.eig(a, b)
    finite = np.isfinite(w)
    n_inf = int(np.sum(~finite))
    lams = w[finite]
    # row i: the largest degree block of eigenvector i, at unit norm
    blocks = vr[:, finite].reshape(degree, msize, -1)
    best = np.argmax(np.linalg.norm(blocks, axis=1), axis=0)
    x = blocks[best, :, np.arange(len(lams))]
    x /= np.linalg.norm(x, axis=1)[:, None]
    # x @ c.T as two products on the parts: numpy would run a real c as a complex product
    val = sum((x if standard and k == degree else x.real @ c.T + 1j * (x.imag @ c.T))
              * lams[:, None]**k for k, c in enumerate(coeffs))
    resid = np.linalg.norm(val, axis=1)
    pairs = [(complex(lam), x[i], float(resid[i])) for i, lam in enumerate(lams)]
    pairs.sort(key=lambda t: (t[0].real, t[0].imag))
    return PepResult(pairs, n_inf)


def _contour_real_extent(p: FloquetProblem) -> tuple[float, float]:
    """(Re lo, Re hi) of every contour rectangle, whichever strip it spans.

    R is nonsingular right of mu_2(A) + integral ||K|| (mu_2 the top eigenvalue
    of the Hermitian part of the Jacobian, as ||Q|| <= integral ||K|| for
    Re(lambda) >= 0 and D is skew-Hermitian), so every exponent right of the
    left edge is enclosed.  The left edge is CONTOUR_MARGIN below the decay
    bound, or at -CONTOUR_DEPTH without one, except on a scalar problem with
    Jacobian a*I and a truncated exponential kernel c*e^{-k u}, c > 0, a > -k:
    there it is (a - k)/2.  R is then diagonal, with entries g(lambda +
    i*omega_h), g(lambda) = lambda - a - c*(1 - e^{-mu s})/mu and mu = lambda + k,
    and mu*g = P(mu) + c*e^{-mu s} with P = mu^2 - b*mu - c, b = k + a > 0.  For
    0 < Re mu < b, Re P < -c - (Im mu)^2, so |P| > c >= |c*e^{-mu s}| and g has
    no root with -k < Re lambda < a; by Rouche's theorem against P it has
    exactly one with Re lambda >= a, and that root is real.  So the edge
    encloses every admissible exponent and leaves out the window's roots, which
    crowd at spacing 2*pi/s just below -k.  For a <= -k the lemma gives nothing
    and the edge stays below the decay bound.
    """
    window = math.inf if p.transfer.truncation is None else p.transfer.truncation
    op = p.linear_operator
    mu2 = np.linalg.eigvalsh(0.5 * (op + op.conj().T))[-1]
    hi = max(0.0, float(mu2) + truncation_error_bound(p.transfer, 0.0, window)) + CONTOUR_MARGIN
    if p._window_lemma:
        return float(p.jacobian[0, 0].real - p.transfer.kernel.rate) / 2, hi
    kc = p.critical_exponent
    return (-kc - CONTOUR_MARGIN if math.isfinite(kc) else -CONTOUR_DEPTH), hi


def contour_eigenvalues(p: FloquetProblem, rect: tuple[float, float, float, float],
                        nodes: int) -> tuple[complex, np.ndarray, np.ndarray]:
    """Unrounded root count of det R in ``rect``, the enclosed eigenvalues and eigenvectors.

    ``nodes`` points per side, the ``CONTOUR_NODES``-point Gauss-Legendre rule
    on each of nodes // CONTOUR_NODES equal panels, give the argument-principle
    count (1/2 pi i) contour-integral tr(R^-1 R') (Delves & Lyness, Math. Comp.
    1967), then, if it is within COUNT_TOL of a positive integer, the moments of
    R^-1, whose block Hankel pencil cut to that rank k has the eigenvalues (Beyn,
    LAA 2012, section 3).  Eigenvector i, row i of the (k, n) array, is the
    first block row of U_k s_i, U_k the Hankel's leading left singular vectors
    and s_i the pencil's eigenvector; an unresolved count gives a (0, n) array.
    One :func:`residual_matrices` call per node, so one kernel
    evaluation, fills the (4*nodes, n, n) stacks of R and R', n = ``p.size``,
    and R is inverted as one batch; the count and the moments both read that
    stack of inverses.  Each stack holds 4*nodes*n^2
    complex values while the function runs: 2 KB for a memory1d row (n = 1,
    32 nodes per side), 0.8 MB for a delay of 20 at 512 nodes per side with
    n = 5.  R must be analytic on and inside the rectangle.
    """
    corners = [complex(rect[i], rect[j]) for i, j in ((0, 2), (1, 2), (1, 3), (0, 3))]
    panels = nodes // CONTOUR_NODES
    t = ((np.arange(panels)[:, None] + 0.5 * (_GL_NODES + 1)) / panels).ravel()  # in (0, 1)
    w = np.tile(0.5 * _GL_WEIGHTS, panels) / panels
    sides = list(zip(corners, corners[1:] + corners[:1]))
    z = np.concatenate([a + (b - a) * t for a, b in sides])
    dz = np.concatenate([(b - a) * w for a, b in sides]) / (2j * np.pi)
    r = np.empty((len(z), p.size, p.size), dtype=complex)
    dr = np.empty_like(r)
    for j, zj in enumerate(z):
        r[j], dr[j] = residual_matrices(p, zj)
    inv = np.linalg.inv(r)
    count = dz @ np.einsum("jab,jba->j", inv, dr)  # tr(R^-1 R') at each node
    k = max(0, round(count.real))
    if k == 0 or abs(count - k) >= COUNT_TOL:  # nothing enclosed, or the count is unresolved
        return count, np.empty(0, dtype=complex), np.empty((0, p.size), dtype=complex)
    center = sum(corners) / 4
    scale = abs(corners[2] - center)
    # moments as deep as the rank loop can reach
    weights = dz * ((z - center) / scale) ** np.arange(2 * k + 2)[:, None]
    mom = np.tensordot(weights, inv, axes=(1, 0))
    for depth in range(-(-k // p.size), k + 2):  # deepen until the Hankel has rank k
        h0 = np.block([[mom[i + j] for j in range(depth)] for i in range(depth)])
        u, s, vh = np.linalg.svd(h0)
        if s[k - 1] > RANK_TOL * s[0]:
            break
    h1 = np.block([[mom[i + j + 1] for j in range(depth)] for i in range(depth)])
    b = (u[:, :k].conj().T @ h1 @ vh[:k].conj().T) / s[:k]
    w, c = np.linalg.eig(b)
    return count, center + scale * w, (u[:p.size, :k] @ c).T


# --- Newton polish ----------------------------------------------------------


def refine_eigenpair(p: FloquetProblem, exponent: complex,
                     vector: np.ndarray) -> FloquetEigenpair | None:
    """Polish a candidate against the exact transcendental operator.

    Newton iteration on R(lambda) x = 0 with the pivot entry x_pivot = 1
    held (Ruhe, SIAM J. Numer. Anal. 1973), at most 50 steps, until the
    residual ||R(lambda) x|| / ||x|| is certified: below ``CERTIFICATE_TOL``,
    or below the rounding floor 1e3*eps*||R(lambda)||_1 where that is
    larger (fast memory puts entries of size ~rate in R).
    Each iterate's R and R' come from one :func:`residual_matrices` call,
    and the Newton matrix is that R with its pivot column replaced by
    lambda's, R'(lambda) x, which is x itself on a memoryless problem: a
    square system of ``p.size`` unknowns.
    Returns the certified pair, or None on failure (no certified iterate, a
    singular step, or an iterate where the transfer raises
    ``BoundViolation``).  The candidate's residual is measured at the first
    iterate; a candidate at max(0.1, 1e-6*||R(lambda)||_1) or above raises
    ``ValueError`` (the relative gate admits fast-memory seeds, whose
    residual scales with the rate).
    """
    x = np.asarray(vector, dtype=complex)
    idx = int(np.argmax(np.abs(x)))
    x = x / x[idx]
    lam = complex(exponent)
    try:
        for it in range(51):  # the residual at the seed and after each of 50 steps
            rmat, drmat = residual_matrices(p, lam)
            r = rmat @ x
            res = np.linalg.norm(r) / np.linalg.norm(x)
            if it == 0 and res >= 0.1 and res >= 1e-6 * np.linalg.norm(rmat, 1):
                raise ValueError("seed residual at or above max(0.1, 1e-6*||R(lambda)||_1)")
            if res < CERTIFICATE_TOL or res < 1e3 * np.finfo(float).eps * np.linalg.norm(rmat, 1):
                return make_eigenpair(p, lam, x, res)
            if it == 50:
                break
            # x[idx] = 1 is held, so its column of R is free for lambda's, R'(lambda) x
            rmat[:, idx] = x if drmat is None else drmat @ x
            delta = np.linalg.solve(rmat, -r)
            dlam, delta[idx] = delta[idx], 0.0
            step = 1.0
            kc = p.critical_exponent
            if p.transfer is not None and p.transfer.truncation is None and math.isfinite(kc):
                # keep the iterate inside the transfer domain, a margin clear of its edge
                while step > 1e-6 and (lam + step * dlam).real <= -kc + 2 * DOMAIN_MARGIN:
                    step *= 0.5
            x = x + step * delta
            lam = lam + step * dlam
    except (BoundViolation, np.linalg.LinAlgError):  # an iterate off the domain, or singular
        pass
    return None


# --- canonicalization -------------------------------------------------------


def _strip_steps(im: float, omega0: float) -> int:
    """Shift count mapping Im(lambda) into (-omega0/2, omega0/2]."""
    return int(math.ceil(im / omega0 - 0.5))


def _exponent_classes(items, exponent, omega0: float | None) -> list[tuple[object, int]]:
    """Group ``items``, given best first, into exponent classes.

    Two exponents share a class when they differ by i*m*omega0, m an integer,
    to within ``MERGE_TOL``; with ``omega0=None`` nothing is folded (m = 0).
    Returns each class's first member and the class size.
    """
    firsts, keys, sizes = [], [], []
    for item in items:
        lam = exponent(item)
        for i, key in enumerate(keys):
            gap = lam - key
            if omega0 is not None:
                gap -= 1j * round(gap.imag / omega0) * omega0
            if abs(gap) < MERGE_TOL:
                sizes[i] += 1
                break
        else:
            firsts.append(item)
            keys.append(lam)
            sizes.append(1)
    return list(zip(firsts, sizes))


def _least_stable_first(classes) -> list[FloquetEigenpair]:
    return sorted(classes, key=lambda q: (-q.exponent.real, q.exponent.imag))


def _in_strip(pair: FloquetEigenpair, omega0: float | None, period: float) -> FloquetEigenpair:
    """``pair`` itself when Im(lambda) lies in (-omega0/2, omega0/2], else its shifted
    copy with the same residual; ``omega0=None`` folds nothing."""
    m = _strip_steps(pair.exponent.imag, omega0) if omega0 is not None else 0
    if not m:
        return pair
    lam = pair.exponent - 1j * m * omega0
    vec = shift_harmonics(pair.eigenvector, m) if pair.eigenvector is not None else None
    return FloquetEigenpair(lam, floquet_multiplier(lam, period), vec, pair.residual)


def canonicalize_spectrum(pairs, omega0: float | None, autonomous: bool = False,
                          period: float | None = None,
                          diagnostics: dict | None = None) -> FloquetSpectrum:
    """Collapse splitting copies into classes.

    Exponents that differ by i*m*omega0, m an integer, form one class (the
    rule of :func:`_exponent_classes`), represented by its lowest-residual
    member shifted into the strip Im in (-omega0/2, omega0/2] (the upper
    edge is kept); a member already in the strip is reused, not copied.
    ``omega0=None`` marks a time-invariant problem, whose exponents are
    neither folded nor shifted; ``period`` is then required.  For autonomous
    problems the class nearest zero (within ``TRIVIAL_FACTOR * 2*pi/period``)
    is labeled as the time-translation mode and excluded from the verdict.
    """
    period = period if period is not None else 2 * np.pi / omega0
    classes = [_in_strip(pair, omega0, period)
               for pair, _ in _exponent_classes(sorted(pairs, key=lambda q: q.residual),
                                                lambda q: q.exponent, omega0)]

    if autonomous and classes:
        nearest = min(range(len(classes)), key=lambda i: abs(classes[i].exponent))
        if abs(classes[nearest].exponent) < TRIVIAL_FACTOR * (2 * np.pi / period):
            classes[nearest] = replace(classes[nearest], trivial=True)

    return FloquetSpectrum(list(pairs), _least_stable_first(classes), period,
                           diagnostics=dict(diagnostics or {}))


# --- end-to-end driver ------------------------------------------------------


def floquet_spectrum(p: FloquetProblem, autonomous: bool = False) -> FloquetSpectrum:
    """Full pipeline: eigenproblem, class pick, filter, polish, canonical strip.

    Memoryless problems and untruncated exponential kernels go through the
    exact standard eigenproblem of :func:`hill_matrix`, solved as a real
    matrix in the cos/sin basis, whose eigenvectors are mapped back to
    complex harmonics (a linearization that is not real raises
    ``ValueError``).  Where every entry between an even and an odd harmonic
    is an exact zero (:func:`_parity_blocks`; the linearization of a
    half-wave symmetric cycle), the two parity blocks are solved apart and
    their eigenvectors embedded back into the full layout, so the
    candidates, ``n_raw`` and the class count are those of the whole
    matrix; any other problem is one block.  Of each class's copies it keeps
    the one whose eigenvector centroid sum_j j*|v_j|^2 / sum_j |v_j|^2, over
    every state and memory component, lies in (-1/2, 1/2]; of the two copies
    of a negative real multiplier, at -1/2 and +1/2 within ``MERGE_TOL``, the
    +1/2 one.
    Delay, sampled and truncated kernels go through
    :func:`contour_eigenvalues` on the exact R(lambda), whose Hankel pencil
    gives each candidate with its eigenvector; where the scalar
    lemma of :func:`_contour_real_extent` proves the enclosed root real, its
    candidate drops the quadrature's imaginary rounding.  Candidates are
    grouped into classes modulo i*omega0 before the polish, except for a
    time-invariant problem (``n_harmonics == 0``), whose exponents are not
    folded; one strip of the contour then holds only some of them, so such a
    problem raises :class:`~memflo.errors.IncompleteSpectrum` on the contour
    route unless the scalar lemma proves its one enclosed root alone.  One
    member of each class is polished against the exact R(lambda) by
    :func:`refine_eigenpair`, which certifies it at a residual below
    ``CERTIFICATE_TOL``, or below the rounding floor of R(lambda) where
    that is larger, and moved into the canonical strip, so ``pairs`` and
    ``canonical_strip`` share one eigenvector per class.  The certified plus
    the bound-filtered candidates must number the Hill states, or the contour
    root count; an unmatched contour count moves the rectangle to the next
    of ``CONTOUR_SHIFTS`` with twice the nodes, so the shift list is the
    retry budget.  An unmatched count after its last shift, or a
    matched contour count with no certified class, raises
    :class:`~memflo.errors.IncompleteSpectrum`.  ``autonomous`` marks the
    time-translation class as trivial, and a spectrum without one raises it
    too.  Diagnostics name the ``route`` and count every discarded
    candidate (decay-bound violations, failed polishes); the contour route
    adds ``n_enclosed`` and ``contour``.
    """
    if _hill_applies(p):
        hill = hill_matrix(p)
        n_states = len(hill) // (2 * p.n_harmonics + 1)  # state and memory components
        rf = real_form(hill, p.n_harmonics)
        eigenpairs = []  # (eigenvalue, eigenvector in the full packed layout)
        for block in _parity_blocks(rf, p.n_harmonics):
            pep = solve_pep([-rf[np.ix_(block, block)], np.eye(len(block))])
            embedded = np.zeros((len(pep.eigenpairs), len(hill)), dtype=complex)
            embedded[:, block] = [v for _, v, _ in pep.eigenpairs]
            eigenpairs += zip([lam for lam, _, _ in pep.eigenpairs], embedded)
        diag = {"route": "hill", "n_raw": len(eigenpairs)}
        amps = unpack_real_coefficients(np.array([v for _, v in eigenpairs]).T,
                                        p.n_harmonics)  # complex harmonics
        weight = np.sum(np.abs(amps) ** 2, axis=0)
        centroid = np.arange(-p.n_harmonics, p.n_harmonics + 1) @ weight / weight.sum(axis=0)
        vecs = amps.reshape(len(hill), -1)[:p.size].T
        # centroids in (-1/2, 1/2], the edges moved up by MERGE_TOL: of a tie the +1/2 copy stays
        cands = [(eigenpairs[i][0], vecs[i])
                 for i in np.flatnonzero(np.abs(centroid - MERGE_TOL) <= 0.5)]
        spec = _polished_spectrum(p, cands, diag, autonomous)
        found = spec.diagnostics["n_certified"] + spec.diagnostics["n_bound_filtered"]
        if found != n_states:
            raise IncompleteSpectrum(f"{found} of {n_states} Hill classes certified or filtered")
        return spec
    if not (p.n_harmonics or p._window_lemma):  # nothing folds, so no one strip holds them all
        raise IncompleteSpectrum("a time-invariant contour problem needs n_harmonics >= 1")
    re_lo, re_hi = _contour_real_extent(p)
    for doubling, shift in enumerate(CONTOUR_SHIFTS):
        nodes = CONTOUR_NODES << doubling
        mid = shift * p.omega0
        rect = (re_lo, re_hi, mid - p.omega0 / 2, mid + p.omega0 / 2)
        count, lams, vecs = contour_eigenvalues(p, rect, nodes)
        if p._window_lemma:  # proven real: drop the quadrature's imaginary rounding
            lams = lams.real + 0j
        n_enclosed = round(count.real)
        if abs(count - n_enclosed) >= COUNT_TOL:
            continue
        diag = {"route": "contour", "n_raw": len(lams), "n_enclosed": n_enclosed,
                "contour": {"re": list(rect[:2]), "im": list(rect[2:]), "nodes_per_side": nodes}}
        spec = _polished_spectrum(p, list(zip(lams, vecs)), diag, autonomous)
        d = spec.diagnostics
        if n_enclosed == d["n_certified"] + d["n_bound_filtered"]:
            if not d["n_certified"]:  # every exponent lies left of the rectangle
                raise IncompleteSpectrum(f"no exponent right of Re = {rect[0]:.6g}")
            return spec
    raise IncompleteSpectrum(f"contour count {count:.6g} unmatched at {nodes} nodes per side")


def _polished_spectrum(p: FloquetProblem, candidates, diag: dict,
                       autonomous: bool) -> FloquetSpectrum:
    """Bound filter, classes, one polish per class; ``n_certified`` counts every copy.

    ``candidates`` are the (eigenvalue, eigenvector) pairs of one route's
    solve.  The decay bound is enforced here only: a candidate at or below
    -k_c + ``DOMAIN_MARGIN`` is dropped and listed in ``bound_filtered``.
    Each certified pair is moved into the canonical strip before
    :func:`canonicalize_spectrum` sees it, so the spectrum's ``pairs`` and
    ``canonical_strip`` share one eigenvector per class.
    """
    floor = -p.critical_exponent + DOMAIN_MARGIN  # -inf without a decay bound
    survivors = [(lam, vec) for lam, vec in candidates if lam.real > floor]
    below = [[lam.real, lam.imag] for lam, _ in candidates if lam.real <= floor]
    diag.update({"n_bound_filtered": len(below), "bound_filtered": below, "n_unrefined": 0,
                 "n_seed_rejected": 0, "n_certified": 0})
    if below:
        log.info("discarded %d eigenvalue candidates below the decay bound %.6g",
                 len(below), -p.critical_exponent)

    omega0 = p.omega0 if p.n_harmonics else None  # a time-invariant problem folds nothing
    polished = []
    for (lam, vec), n_copies in _exponent_classes(survivors, lambda c: c[0], omega0):
        try:
            pair = refine_eigenpair(p, lam, vec)
        except ValueError:  # seed residual at or above the gate
            diag["n_seed_rejected"] += 1
            continue
        if pair is None:
            diag["n_unrefined"] += 1
            continue
        polished.append(_in_strip(pair, omega0, p.period))  # one eigenvector per class
        diag["n_certified"] += n_copies

    spec = canonicalize_spectrum(polished, omega0, autonomous=autonomous,
                                 period=p.period, diagnostics=diag)
    # an oscillating autonomous cycle always has its time-translation exponent
    if autonomous and not any(q.trivial for q in spec.canonical_strip):
        raise IncompleteSpectrum("autonomous spectrum lacks its time-translation class")
    return spec
