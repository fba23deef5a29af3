"""memflo benchmark: one workload, one seed, a fixed measuring window.

    python3 perfbench/run.py --workload hires-spectrum --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its ``src/``.
``--trace 0`` measures the end-to-end metrics with no instrumentation
beyond timing each model call.  ``--trace 1`` runs the same window, then
replays its units with every layer function wrapped and reports the
per-layer metrics; spans go to ``.bench_out/``.  Every op is checked after
the window (see ``bench_checks``).  The last line of standard output is the
JSON result.
"""

from __future__ import annotations

import bench_env

bench_env.pin()  # before anything imports numpy

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import setup_probe  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3  # one in this process, the rest in fresh interpreters
TAIL_BEYOND = 10  # the tail percentile leaves at least this many ops above it
TAIL_MIN_OPS = 2 * TAIL_BEYOND  # below this the tail would sit under the median
# bench_workloads.WORKLOADS, named here because importing it is part of set-up
WORKLOADS = ("hires-spectrum", "locking-sweep", "memory-scan")


def setup_samples(workload: str, out_dir: Path, samples: int):
    """Median-ready set-up times, and the workload built in this process."""
    first, w = setup_probe.measure(workload, out_dir)
    times = [first]
    for _ in range(samples - 1):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload,
                               str(out_dir)], cwd=bench_env.ROOT, capture_output=True,
                              text=True, timeout=150, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times, w


def tail(times_ms: list[float]) -> tuple[float, str]:
    """Highest percentile with TAIL_BEYOND ops above it, and how it was taken."""
    ordered = sorted(times_ms)
    n = len(ordered)
    if n < TAIL_MIN_OPS:
        return ordered[-1], f"slowest of {n} ops (fewer than {TAIL_MIN_OPS})"
    pct = 100.0 * (n - TAIL_BEYOND) / n
    return ordered[n - TAIL_BEYOND - 1], f"p{pct:.1f} of {n} ops, {TAIL_BEYOND} beyond it"


def end_to_end(window, setup: list[float]) -> tuple[dict, dict]:
    times_ms = [op.seconds * 1e3 for op in window.ops]
    tail_ms, tail_note = tail(times_ms)
    metrics = {
        "throughput_ops_s": (len(window.ops) / window.wall, "1/s"),
        "op_p50_ms": (statistics.median(times_ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, {"op_tail_ms": tail_note, "setup_s": f"median of {setup}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench_env.use_checkout_source()

    out_dir = bench_env.ROOT / ".bench_out" / f"run-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if not any(out_dir.parent.iterdir()):
            out_dir.parent.rmdir()


def _run(args, out_dir: Path) -> int:
    setup, workload = setup_samples(args.workload, out_dir, SETUP_SAMPLES)
    import bench_checks
    import bench_workloads

    env = bench_env.record()
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    with bench_workloads.OpRecorder() as rec:
        window = bench_workloads.run_units(workload.units(args.seed), rec, out_dir,
                                           seconds=args.seconds)
    e2e, notes = end_to_end(window, setup)
    ops = list(window.ops)
    per_layer = None
    if args.trace:
        import bench_trace

        tracer = bench_trace.Tracer()
        with tracer, bench_workloads.OpRecorder(tracer) as rec:
            replay = bench_workloads.run_units(window.units, rec, out_dir, tracer=tracer)
        ops += replay.ops
        per_layer = tracer.layer_metrics(replay.wall, window.wall)
        tracer.write(bench_env.ROOT / ".bench_out" /
                     f"spans-{args.workload}-seed{args.seed}.json", env)

    failed = 0
    for op in ops:
        op.failures = bench_checks.check(op)
        failed += bool(op.failures)
    diffs = [(op, bench_checks.reference_diff(op)) for op in ops if op.reference is not None]

    print(f"workload {args.workload} seed {args.seed}: {len(window.ops)} ops, "
          f"{len(window.units)} units in {window.wall:.3f} s (window {args.seconds:g} s)")
    for name, (value, unit) in e2e.items():
        note = notes.get(name)
        print(f"  {name:<18} {value:14.6g} {unit:<5}" + (f" ({note})" if note else ""))
    print(f"  {'fail_ratio':<18} {failed / len(ops):14.6g} ratio (failed {failed} of {len(ops)}"
          " ops checked)")
    if diffs:
        differ = [(op, d) for op, d in diffs if d]
        print(f"seed-0 rows vs committed out/: {len(differ)} of {len(diffs)} differ "
              "(reported, not failures)")
        for op, d in differ[:10]:
            print(f"  unit {op.unit} {op.model}: {d}")
    for op in [op for op in ops if op.failures][:10]:
        print(f"FAILED unit {op.unit} {op.model}: {'; '.join(op.failures)}")

    if per_layer is not None:
        print("traced self time, share of traced wall:")
        for name, share in tracer.attribution(per_layer["trace.wall_s"]):
            print(f"  {name:<40} {share:7.1%}")
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit, _ in bench_trace.PER_LAYER}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
