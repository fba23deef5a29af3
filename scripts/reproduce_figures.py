#!/usr/bin/env python3
"""Run every figure-reproduction config (``figs/*.cfg``) into out/.

Usage: python3 scripts/reproduce_figures.py [JOBS]

Each config is a plain CLI run; plotting is left to downstream tools that
consume the CSV/JSON.  BLAS and OpenMP are pinned to one thread, as in the
test suite, so a rerun reproduces the committed files bit for bit.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_name] = "1"  # before numpy loads

import pathlib  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from memflo.cli import main as memflo_main  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent.parent


def run_all(jobs: int = 1) -> int:
    os.chdir(HERE)  # configs name their outputs relative to the repo root
    (HERE / "out").mkdir(exist_ok=True)
    worst = 0
    for cfg in sorted(HERE.glob("figs/*.cfg")):
        t0 = time.time()
        print(f"== {cfg.relative_to(HERE)}")
        code = memflo_main(["run", str(cfg), "--jobs", str(jobs)])
        print(f"   exit {code} in {time.time() - t0:.1f}s")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    jobs = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    sys.exit(run_all(jobs))
