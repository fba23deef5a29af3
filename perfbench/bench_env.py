"""Thread pinning and the environment record shared by every benchmark process.

``pin()`` must run before numpy is imported: OpenBLAS reads its thread count
once, when it loads.  On a 2-core machine a second BLAS thread made the fig3
sweep about 1.5x slower and moved ``max_re_lambda`` in the last digits, so
every figure here is taken with one thread.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent  # the checkout being measured
SRC = ROOT / "src"


def pin() -> None:
    """Fix the BLAS thread count and make the program's inputs come from the seed only."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # memflo jitters its root-hunt starting grid when MEMFLO_SEED is set; the
    # benchmark's own --seed is the only source of variation.
    os.environ.pop("MEMFLO_SEED", None)


def use_checkout_source() -> None:
    """Import memflo from this checkout's ``src/``, never from anywhere else."""
    if not (SRC / "memflo" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no memflo sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def check_source(memflo) -> None:
    if Path(memflo.__file__).resolve().parent != SRC / "memflo":
        raise SystemExit(f"benchmark: memflo imported from {memflo.__file__}, not {SRC}")


def record() -> dict:
    """Versions and thread settings the figures depend on."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }
