"""Tiny-size smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Runs each workload in-process for one unit at reduced size, and checks that
every metric is printed with its unit, that BENCHMARK.json lists the same
metrics, and that a wrong result or a stray exception counts as a failed op.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import bench_env
import run

bench_env.use_checkout_source()

import bench_checks  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
from memflo import cli  # noqa: E402

E2E_UNITS = {"throughput_ops_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB", "fail_ratio": "ratio"}
SPEC = json.loads((bench_env.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def one_setup_sample(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)  # no set-up subprocesses


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(bench_workloads.HiresSpectrum, "n_harmonics", 8)
    monkeypatch.setattr(bench_workloads.LockingSweep, "n_harmonics", 6)


def _run(capsys, workload, trace=0, seconds=0.01):
    assert run.main(["--workload", workload, "--seed", "1", "--seconds", str(seconds),
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["hires-spectrum", "locking-sweep", "memory-scan"])
def test_end_to_end_metrics_printed_with_units(tiny, capsys, workload):
    text, result = _run(capsys, workload)
    for name, unit in E2E_UNITS.items():
        assert any(line.split()[:1] == [name] and unit in line.split() for line in text), name
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_workload_names_agree():
    assert run.WORKLOADS == tuple(bench_workloads.WORKLOADS)
    assert run.WORKLOADS == tuple(w["name"] for w in SPEC["workloads"])


def test_traced_run_reports_every_layer_metric(tiny, capsys):
    text, result = _run(capsys, "locking-sweep", trace=1)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert declared == {name: unit for name, unit, _ in bench_trace.PER_LAYER}
    assert result["metrics"]["floquet.eig_calls"]["value"] >= 1
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def _shift_first_class(spec, by):
    first = dataclasses.replace(spec.canonical_strip[0],
                                exponent=spec.canonical_strip[0].exponent + by)
    return dataclasses.replace(spec, canonical_strip=[first, *spec.canonical_strip[1:]])


# The first model call of a run is the set-up warm-up; the second is the first op.


def test_wrong_result_counts_as_failed(capsys, monkeypatch):
    real = cli.model1d_exponent
    calls = []

    def wrong_once(model, *args, **kwargs):
        spec = real(model, *args, **kwargs)
        calls.append(model)
        return _shift_first_class(spec, 1e-3) if len(calls) == 2 else spec

    monkeypatch.setattr(cli, "model1d_exponent", wrong_once)
    text, result = _run(capsys, "memory-scan", seconds=0.2)
    assert result["attempted"] > 1
    assert result["failed"] == 1 and not result["correct"]
    assert any(line.startswith("FAILED") and "residual" in line for line in text)


def test_stray_exception_fails_one_op_and_run_goes_on(capsys, monkeypatch):
    real = cli.model1d_exponent
    calls = []

    def overflow_once(model, *args, **kwargs):
        calls.append(model)
        if len(calls) == 2:
            raise OverflowError("math range error")
        return real(model, *args, **kwargs)

    monkeypatch.setattr(cli, "model1d_exponent", overflow_once)
    text, result = _run(capsys, "memory-scan", seconds=0.2)
    assert result["attempted"] > 1 and result["failed"] == 1
    assert any("OverflowError" in line for line in text)


def test_particle_checks_catch_a_wrong_orbit_and_residual(tiny, tmp_path):
    w = bench_workloads.HiresSpectrum(tmp_path, tmp_path)
    unit = w.pass_units(0, 0)[0]  # ratio 1: the circular orbit oracle applies
    with bench_workloads.OpRecorder() as rec:
        bench_workloads.run_units([unit], rec, tmp_path)
    op = rec.ops[0]
    assert bench_checks.check(op) == []
    cycle, spec = op.result
    op.result = (dataclasses.replace(cycle, period=cycle.period * (1 + 1e-6)), spec)
    assert any("period" in f for f in bench_checks.check(op))
    bad = dataclasses.replace(spec.canonical_strip[0], residual=1e-6)
    op.result = (cycle, dataclasses.replace(spec, canonical_strip=[bad, *spec.canonical_strip[1:]]))
    assert any("residual" in f for f in bench_checks.check(op))
