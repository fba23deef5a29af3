#!/usr/bin/env python3
"""Run every figure-reproduction config into out/.

Each config is a plain CLI run; plotting is left to downstream tools that
consume the CSV/JSON.
"""

import pathlib
import sys
import time

from memflo.cli import main as memflo_main

HERE = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = [
    "figs/fig1.cfg",
    "figs/fig2.cfg",
    "figs/fig3.cfg",
    "figs/fig4.cfg",
    "figs/fig4_k3.cfg",
    "figs/fig4_k10.cfg",
    "figs/fig4_k100.cfg",
    "figs/tl_bifurcation.cfg",
]


def run_all(jobs: int = 1) -> int:
    import os

    os.chdir(HERE)  # configs name their outputs relative to the repo root
    (HERE / "out").mkdir(exist_ok=True)
    worst = 0
    for cfg in CONFIGS:
        t0 = time.time()
        print(f"== {cfg}")
        code = memflo_main(["run", str(HERE / cfg), "--jobs", str(jobs)])
        print(f"   exit {code} in {time.time() - t0:.1f}s")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    jobs = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    sys.exit(run_all(jobs))
