#!/usr/bin/env python3
"""Run every figure-reproduction config (``figs/*.cfg``) into out/.

Usage: python3 scripts/reproduce_figures.py [JOBS]

Each config is a plain CLI run; plotting is left to downstream tools that
consume the CSV/JSON.  BLAS and OpenMP are pinned to one thread, as in the
test suite, so a rerun reproduces the committed files bit for bit.  A JSON
output that differs from the file there before the run only in the run's
``metadata`` timestamp and wall times gets its old bytes back, so an
unchanged figure leaves its file alone.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_name] = "1"  # before numpy loads

import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from memflo.cli import main as memflo_main  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent.parent
VOLATILE = ("timestamp", "total_walltime_ms", "row_walltimes_ms")  # of the run, not the rows


def _same_rows(old: bytes, new: bytes) -> bool:
    """Two JSON outputs that differ in no more than the run's ``VOLATILE`` metadata."""
    try:
        docs = [json.loads(doc) for doc in (old, new)]
    except ValueError:
        return False
    for doc in docs:
        for key in VOLATILE:
            doc.get("metadata", {}).pop(key, None)
    return docs[0] == docs[1]


def run_all(jobs: int = 1) -> int:
    os.chdir(HERE)  # configs name their outputs relative to the repo root
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    before = {path: path.read_bytes() for path in sorted(out.glob("*.json"))}
    worst = 0
    for cfg in sorted(HERE.glob("figs/*.cfg")):
        t0 = time.time()
        print(f"== {cfg.relative_to(HERE)}")
        code = memflo_main(["run", str(cfg), "--jobs", str(jobs)])
        print(f"   exit {code} in {time.time() - t0:.1f}s")
        worst = max(worst, code)
    for path, old in before.items():
        if path.exists() and path.read_bytes() != old and _same_rows(old, path.read_bytes()):
            path.write_bytes(old)
            print(f"kept {path.relative_to(HERE)}: only its timestamp and wall times moved")
    return worst


if __name__ == "__main__":
    jobs = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    sys.exit(run_all(jobs))
