"""Set-up time of one workload: import memflo, then one warm-up spectrum.

Run as a script it prints the seconds on its last line; ``run.py`` calls
``measure`` once in its own process and starts this script for the other
samples, so every sample pays for a cold import.

    python3 perfbench/setup_probe.py <workload> <output dir>
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

import bench_env


def measure(workload: str, out_dir: Path):
    """(seconds, workload instance); imports the library from the checkout."""
    bench_env.use_checkout_source()
    t0 = perf_counter()
    import bench_workloads

    bench_env.check_source(sys.modules["memflo"])
    w = bench_workloads.WORKLOADS[workload](out_dir, bench_env.ROOT / "out")
    w.warm_up()
    return perf_counter() - t0, w


if __name__ == "__main__":
    bench_env.pin()
    seconds, _ = measure(sys.argv[1], Path(sys.argv[2]))
    print(repr(seconds))
