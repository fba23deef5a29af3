"""Floquet stability of periodic states in dynamical systems with memory.

The package computes Floquet exponents, multipliers, and eigenvectors of
limit cycles governed by integro-differential equations with linear memory
kernels.  Everything runs in the frequency domain: periodic signals are
truncated Fourier series and the variational problem becomes a transcendental
eigenproblem in the exponent.  Exponential memory is carried as extra states,
which makes that problem a standard Hill eigenproblem; for other kernels,
contour integrals of the exact operator find the exponents and count them, so
a missed exponent raises instead of going unnoticed.  Every candidate is
polished by Newton iteration on the exact operator.
"""

from .cycles import LimitCycle, SystemModel, hb_residual, linearize, solve_cycle
from .errors import (
    BoundViolation,
    ConfigError,
    IncompleteSpectrum,
    MatchedLine,
    MemfloError,
    NoConvergence,
    NoCycle,
    SingularJacobian,
    SpectralResolutionWarning,
)
from .floquet import (
    FloquetEigenpair,
    FloquetProblem,
    FloquetSpectrum,
    assemble_residual_matrix,
    canonicalize_spectrum,
    floquet_spectrum,
    hill_matrix,
    refine_eigenpair,
    solve_pep,
    solve_scalar,
    splitting_shift,
)
from .hb import (
    HarmonicVector,
    MatrixHarmonics,
    TimeSamples,
    dft,
    differentiate,
    idft,
    toeplitz_from_periodic,
)
from .kernels import (
    Delay,
    ExponentialDecay,
    FiniteSupportSampled,
    KernelSpec,
    MemoryTransfer,
    critical_exponent,
    transfer_at,
    truncation_error_bound,
)
from .models import (
    BrownianParticleModel,
    Memory1DModel,
    TlResonatorModel,
    model1d_convergence,
    model1d_exponent,
    particle_equilibrium_spectrum,
    particle_spectrum,
    tl_spectrum,
)

__version__ = "0.1.0"
