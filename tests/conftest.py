"""Session settings for the test suite: one BLAS and OpenMP thread.

pytest loads this file before any test module imports numpy, so the
thread counts take effect.  Small dense kernels (the ``expm`` of the
sampled-kernel transfers) then do not slow down by contending for cores
with other processes.  Values already set in the environment are kept.
The ``pep_blocks`` fixture records the eigenproblems the Hill route solves,
and ``solve_rows`` the size of every dense linear solve.
"""

import os

import pytest

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")


@pytest.fixture
def pep_blocks(monkeypatch):
    """(first coefficient, result) of every solve_pep call that floquet_spectrum makes."""
    from memflo import floquet

    calls = []
    solve = floquet.solve_pep

    def recording(coeffs):
        pep = solve(coeffs)
        calls.append((coeffs[0], pep))
        return pep

    monkeypatch.setattr(floquet, "solve_pep", recording)
    return calls


@pytest.fixture
def solve_rows(monkeypatch):
    """Row count of every numpy.linalg.solve call, the Newton systems of solve_cycle among them."""
    import numpy

    rows = []
    solve = numpy.linalg.solve

    def recording(a, b):
        rows.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(numpy.linalg, "solve", recording)
    return rows
