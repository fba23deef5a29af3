"""CLI harness tests: config schema, determinism, serialization, exit codes."""

import ast
import dataclasses
import importlib
import json
import math
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import memflo

from memflo import cli
from memflo.errors import ConfigError, NoCycle
from memflo.models import (
    BrownianParticleModel,
    Memory1DModel,
    TlResonatorModel,
    model1d_asymptotic_exponent,
    particle_spectrum,
)
from memflo.oracles import quadratic_memory_exponent


REPO = Path(__file__).resolve().parent.parent


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


MEM1D_CONV = """
# comment lines and blanks are ignored
model = memory1d
mode = convergence
a = 0.0
k = 3.0
s = range(0, 20, 41)
format = csv
"""

TL_BISECT = """
model = tl
mode = boundary_bisect
R = 1.0
Z0 = 1.0
tau_f = 1.0
Ra = range(-1.5, -0.5, 11)
bisect_tol = 1e-6
format = json
"""


# --- config parsing -----------------------------------------------------------


def test_parse_flat_config(tmp_path):
    cfg = cli.parse_config(write(tmp_path, "a.cfg", MEM1D_CONV))
    assert cfg.model == "memory1d"
    assert cfg.mode == "convergence"
    assert isinstance(cfg.parameters["s"], cli.LinearRange)
    assert cfg.parameters["s"].count == 41
    assert cfg.parameters["a"] == 0.0


def test_parse_json_config(tmp_path):
    doc = {"model": "tl", "mode": "spectrum", "R": 1.0, "Ra": -0.5,
           "Z0": 1.0, "tau_f": 1.0, "format": "json"}
    cfg = cli.parse_config(write(tmp_path, "a.json", json.dumps(doc)))
    assert cfg.model == "tl"
    assert cfg.parameters["Ra"] == -0.5


def test_parse_json_range(tmp_path):
    doc = {"model": "memory1d", "mode": "sweep", "a": {"range": [-2, 2, 5]},
           "k": 3.0, "s": "inf"}
    cfg = cli.parse_config(write(tmp_path, "a.json", json.dumps(doc)))
    assert cfg.parameters["a"].count == 5
    assert math.isinf(cfg.parameters["s"])


def test_particle_mass_is_not_a_parameter(tmp_path):
    # no particle equation reads a mass, so a config that sets one is rejected
    text = "model = particle\nmode = spectrum\nalpha = 1.0\nmass = 2\n"
    with pytest.raises(ConfigError, match="mass"):
        cli.parse_config(write(tmp_path, "p.cfg", text))


@pytest.mark.parametrize("bad, message", [
    ("model = nosuch\nmode = spectrum\n", "unknown model"),
    ("model = tl\nmode = warp\n", "unknown mode"),
    ("model = tl\nmode = spectrum\nn_harmonics = 0\n", "n_harmonics"),
    ("model = tl\nmode = boundary_bisect\nRa = 1.0\n", "exactly one ranged"),
    ("model = memory1d\nmode = sweep\na = range(0,1,2)\nk = range(1,2,2)\n"
     "s = range(0,1,2)\n", "one or two ranged"),
    ("model = tl\nmode = spectrum\nbogus = 1\n", "not valid"),
    ("model = memory1d\nmode = convergence\na = 0\nk = 3\ns = 2.0\n", "ranged s"),
    ("model = tl\nmode = spectrum\nn_harmonics = 2.5\n", "n_harmonics"),  # ran at N = 2
    ('{"model": "tl", "mode": "sweep", "Ra": {"range": [0, 1, 2.5]}}', "count"),
])
def test_config_validation_errors(tmp_path, bad, message):
    with pytest.raises(ConfigError, match=message):
        cli.parse_config(write(tmp_path, "bad.cfg", bad))


TL_SCAN = "model = tl\nmode = boundary_bisect\nR = 1.0\nRa = range(-1.4, -0.45, 3)\n"


@pytest.mark.parametrize("bad, message", [
    (TL_SCAN + "bisect_tol = 0\n", "bisect_tol"),  # bisects forever
    (TL_SCAN + "bisect_tol = -1e-3\n", "bisect_tol"),
    (TL_SCAN + "bisect_tol = nan\n", "bisect_tol"),
    (TL_SCAN + "bisect_tol = abc\n", "bisect_tol"),  # escaped as a traceback
    ("model = tl\nmode = sweep\nRa = range(0, 1, -1)\n", "count"),  # escaped from numpy
    ("model = tl\nmode = sweep\nRa = range(0, 1, 0)\n", "count"),  # an empty sweep
])
def test_config_rejects_values_that_hang_or_crash_a_run(tmp_path, capsys, bad, message):
    path = write(tmp_path, "bad.cfg", bad)
    with pytest.raises(ConfigError, match=message):
        cli.parse_config(path)
    assert cli.main(["run", path]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "model = tl\nmode = spectrum\noutput = 1\n",  # descriptor 1: the CSV to stdout, which is then closed
    '{"model": "tl", "mode": "spectrum", "output": 5}',
], ids=["key-value", "json"])
def test_numeric_output_is_a_config_error_not_a_file_descriptor(tmp_path, capsys, text):
    path = write(tmp_path, "out.cfg", text)
    with pytest.raises(ConfigError, match="output must be a file name"):
        cli.parse_config(path)
    assert cli.main(["run", path]) == 1
    assert "config error: output must be a file name" in capsys.readouterr().err


def test_bisection_stops_at_adjacent_floats(tmp_path):
    cfg = cli.parse_config(write(tmp_path, "tl.cfg", TL_SCAN + "bisect_tol = 1e-300\n"))
    result = cli.run(cfg)
    bisect = result.metadata["bisect"]
    assert bisect["boundary"] == pytest.approx(-1.0, abs=1e-15)
    assert len(bisect["history"]) < 64


# --- runs ----------------------------------------------------------------------


def test_memory1d_convergence_run(tmp_path):
    cfg = cli.parse_config(write(tmp_path, "a.cfg", MEM1D_CONV))
    result = cli.run(cfg)
    assert len(result.rows) == 41
    assert not result.failed
    lam_inf = quadratic_memory_exponent(0.0, 3.0)
    last = result.rows[-1]
    assert last.params[0] == pytest.approx(20.0)
    assert abs(last.max_re_lambda - lam_inf) < 1e-10
    assert last.extra["deviation_from_asymptote"] < 1e-10


def test_tl_bisection_finds_threshold(tmp_path):
    cfg = cli.parse_config(write(tmp_path, "tl.cfg", TL_BISECT))
    result = cli.run(cfg)
    boundary = result.metadata["bisect"]["boundary"]
    assert boundary == pytest.approx(-1.0, abs=1e-6)
    assert result.metadata["bisect"]["history"]  # bracket trail is kept


def test_bisection_without_a_sign_change_reports_no_boundary(tmp_path, capsys):
    # every scan point lies right of the threshold Ra = -R, so there is nothing to bisect
    text = TL_BISECT.replace("range(-1.5, -0.5, 11)", "range(0.25, 1, 4)")
    path = write(tmp_path, "tl.cfg", text)
    result = cli.run(cli.parse_config(path))
    assert len(result.rows) == 4 and not result.failed
    assert result.metadata["bisect"]["boundary"] is None
    assert result.metadata["bisect"]["history"] == []
    assert cli.main(["run", path, "--out", str(tmp_path / "tl.json")]) == 0
    assert "no sign change bracketed" in capsys.readouterr().out


def test_committed_fig4_boundaries_lie_at_the_rest_state_hopf_point():
    # below the boundary a row has no cycle, so fig4 bisects the birth of the cycle from
    # the rest state, whose friction -alpha + g/k changes sign at alpha = g/k
    cfg_paths = sorted((REPO / "figs").glob("fig4*.cfg"))
    assert len(cfg_paths) == 4
    for cfg_path in cfg_paths:
        cfg = cli.parse_config(str(cfg_path))
        boundary = json.loads((REPO / cfg.output_path).read_text())["metadata"]["bisect"]
        hopf = cfg.parameters["g"] / cfg.parameters["k"]
        assert abs(boundary["boundary"] - hopf) <= cfg.bisect_tol, cfg_path.name


def test_bisection_solves_each_point_once(tmp_path, monkeypatch):
    calls = []
    real = cli.tl_spectrum

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "tl_spectrum", counted)
    cfg = cli.parse_config(write(tmp_path, "tl.cfg", TL_BISECT))
    result = cli.run(cfg)
    history = result.metadata["bisect"]["history"]
    assert history
    assert len(calls) == 11 + len(history)  # scan points plus bisection midpoints


def test_matched_line_row_is_error_coded(tmp_path):
    cfg_text = "model = tl\nmode = sweep\nRa = range(-0.5, 0.5, 3)\nR = 1.0\n"
    cfg = cli.parse_config(write(tmp_path, "tl2.cfg", cfg_text))
    result = cli.run(cfg)
    codes = [r.error_code for r in result.rows]
    assert codes[1] == "matched_line"  # Ra = 0 is the matched termination
    assert codes[0] is None and codes[2] is None
    assert result.failed


@pytest.mark.parametrize("n_roots", ["2.5", "0", "-2"])
def test_non_integral_n_roots_is_an_error_row(tmp_path, n_roots):
    # a fractional count, or none at all, is not a spectrum
    cfg_text = f"model = tl\nmode = spectrum\nR = 1.0\nRa = -0.5\nn_roots = {n_roots}\n"
    row = cli.run(cli.parse_config(write(tmp_path, "tl.cfg", cfg_text))).rows[0]
    assert row.error_code == "valueerror" and row.n_classes is None


@pytest.mark.parametrize("model, entries", [
    ("memory1d", "a = nan\nk = 3.0\ns = 2.0\n"),
    ("tl", "R = 1.0\nRa = -0.5\nZ0 = inf\n"),
    ("particle", "alpha = nan\nbeta = 1.0\ng = 0.1\nk = 1.0\nn_harmonics = 4\n"),
    ("particle", "alpha = 1.0\nratio = 0\nn_harmonics = 4\n")])  # omega1 / ratio
def test_non_finite_parameter_is_a_valueerror_row(tmp_path, model, entries):
    # rejected when the model is built, before any solver runs into the NaN
    path = write(tmp_path, "n.cfg", f"model = {model}\nmode = spectrum\n{entries}")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        row = cli.run(cli.parse_config(path)).rows[0]
        assert cli.main(["run", path, "--out", str(tmp_path / "n.csv")]) == 2
    assert row.error_code == "valueerror" and row.n_classes is None


@pytest.mark.parametrize("ratio", [0.0, -0.0, -1.0, math.inf, math.nan])
def test_particle_ratio_error_names_ratio(ratio):
    with pytest.raises(ValueError, match="ratio"):
        cli._particle_row({"ratio": ratio}, 4, "spectrum", None)


def test_particle_instantaneous_friction_row(tmp_path):
    # k = inf is the 4-state memoryless particle; g/k = 0 drops out of the friction
    cfg_text = ("model = particle\nmode = spectrum\nalpha = 1.0\nbeta = 1.0\n"
                "g = 0.1\nk = inf\nn_harmonics = 8\n")
    row = cli.run(cli.parse_config(write(tmp_path, "p.cfg", cfg_text))).rows[0]
    assert row.error_code is None
    assert row.verdict == "Stable" and row.n_classes == 4
    assert row.max_re_lambda == pytest.approx(-0.466823165069082, rel=1e-12)


def test_particle_spectrum_mode(tmp_path):
    cfg_text = ("model = particle\nmode = spectrum\nalpha = 1.0\nbeta = 1.0\n"
                "g = 0.1\nk = 1.0\nomega1 = 2.0\nratio = 1.0\nn_harmonics = 12\n")
    cfg = cli.parse_config(write(tmp_path, "p.cfg", cfg_text))
    result = cli.run(cfg)
    row = result.rows[0]
    assert row.verdict == "Stable"
    assert row.n_classes == 6
    assert row.cycle_residual < 1e-8
    assert row.max_re_lambda < -1e-6


# --- emit ----------------------------------------------------------------------


def test_emit_empty_sweep_is_header_only():
    result = cli.SweepResult([], {})
    assert cli.emit(result, "csv").decode() == cli.CSV_HEADER + "\n"


def test_emit_single_row_is_two_lines():
    row = cli.RowResult((1.0, None), -0.25, "Stable", 3, None, 1.0)
    out = cli.emit(cli.SweepResult([row], {}), "csv").decode()
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[0] == cli.CSV_HEADER
    assert lines[1] == "1,,-0.25,Stable,3,,"


def test_csv_numbers_round_trip_exactly():
    values = [math.pi, 1 / 3, 2 ** -40, -1.2345678901234567e-101]
    for v in values:
        row = cli.RowResult((v, None), v, "Stable", 1, v, 0.0)
        out = cli.emit(cli.SweepResult([row], {}), "csv").decode()
        fields = out.strip().split("\n")[1].split(",")
        assert float(fields[0]) == v
        assert float(fields[2]) == v
        assert float(fields[5]) == v


def test_csv_cells_are_the_json_values_formatted(tmp_path):
    # one field list: the same header in both encodings, and each CSV cell is _fmt
    # of its JSON value (Ra = 0 is an error row, so empty cells are covered)
    cfg_text = "model = tl\nmode = sweep\nRa = range(-0.5, 0.5, 3)\nR = 1.0\n"
    result = cli.run(cli.parse_config(write(tmp_path, "tl.cfg", cfg_text)))
    header, *lines = cli.emit(result, "csv").decode().splitlines()
    doc = json.loads(cli.emit(result, "json"))
    assert doc["header"] == header.split(",")
    assert len(lines) == len(doc["rows"]) == 3
    for line, row in zip(lines, doc["rows"]):
        assert list(row) == doc["header"] + ["extra"]
        assert line.split(",") == [cli._fmt(row[name]) for name in doc["header"]]


def test_json_round_trip_preserves_values(tmp_path):
    cfg = cli.parse_config(write(tmp_path, "a.cfg", MEM1D_CONV.replace("csv", "json")))
    result = cli.run(cfg)
    doc = json.loads(cli.emit(result, "json"))
    for row_out, row in zip(doc["rows"], result.rows):
        assert row_out["max_re_lambda"] == row.max_re_lambda
        assert row_out["param1"] == row.params[0]


def test_determinism_excluding_metadata(tmp_path):
    cfg = cli.parse_config(write(tmp_path, "a.cfg", MEM1D_CONV))
    first = cli.emit(cli.run(cfg), "csv")
    second = cli.emit(cli.run(cfg), "csv")
    assert first == second  # CSV carries no timestamps at all
    cfg_json = cli.parse_config(write(tmp_path, "b.cfg", MEM1D_CONV.replace("csv", "json")))
    doc1 = json.loads(cli.emit(cli.run(cfg_json), "json"))
    doc2 = json.loads(cli.emit(cli.run(cfg_json), "json"))
    doc1["metadata"].pop("timestamp"), doc2["metadata"].pop("timestamp")
    doc1["metadata"].pop("total_walltime_ms"), doc2["metadata"].pop("total_walltime_ms")
    doc1["metadata"].pop("row_walltimes_ms"), doc2["metadata"].pop("row_walltimes_ms")
    assert json.dumps(doc1) == json.dumps(doc2)


def test_sweep_grid_row_major_order(tmp_path):
    cfg_text = ("model = memory1d\nmode = sweep\na = range(-1, 1, 2)\nk = 3.0\n"
                "s = range(1, 2, 2)\n")
    cfg = cli.parse_config(write(tmp_path, "g.cfg", cfg_text))
    result = cli.run(cfg)
    params = [r.params for r in result.rows]
    assert params == [(-1.0, 1.0), (-1.0, 2.0), (1.0, 1.0), (1.0, 2.0)]


def test_parallel_jobs_match_serial(tmp_path):
    cfg_text = ("model = memory1d\nmode = sweep\na = range(-1, 1, 3)\nk = 3.0\n"
                "s = range(0, 4, 3)\n")
    cfg = cli.parse_config(write(tmp_path, "par.cfg", cfg_text))
    serial = cli.emit(cli.run(cfg, jobs=1), "csv")
    parallel = cli.emit(cli.run(cfg, jobs=3), "csv")
    assert serial == parallel


def test_per_op_records_have_slots_and_survive_pickling(tmp_path):
    # a sweep keeps every row with its cycle and spectrum, and --jobs pickles rows
    # between processes: the records carry no per-instance dict and read back whole
    cfg_text = ("model = particle\nmode = spectrum\nalpha = 1.0\nbeta = 1.0\n"
                "g = 0.1\nk = 1.0\nn_harmonics = 4\n")
    row = cli.run(cli.parse_config(write(tmp_path, "p.cfg", cfg_text))).rows[0]
    cycle, spec = particle_spectrum(
        BrownianParticleModel(alpha=1.0, beta=1.0, g=0.1, k=1.0), n_harmonics=4)
    models = (Memory1DModel(0.0, 3.0, 2.0), TlResonatorModel(1.0, -0.5),
              BrownianParticleModel(alpha=1.0, beta=1.0, g=0.1, k=1.0))
    for record in (row, cycle, cycle.harmonics, spec, spec.pairs[0]) + models:
        assert not hasattr(record, "__dict__")
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record)
        assert pickle.dumps(back) == pickle.dumps(record)  # every field, arrays included
    for model in models:  # a sweep derives its points' models by replace
        field = dataclasses.fields(model)[0].name
        moved = dataclasses.replace(model, **{field: 0.25})
        assert getattr(moved, field) == 0.25 and type(moved) is type(model)


# --- entry point ----------------------------------------------------------------


def test_main_writes_output_and_exits_zero(tmp_path):
    cfg_path = write(tmp_path, "a.cfg", MEM1D_CONV)
    out_path = str(tmp_path / "out.csv")
    code = cli.main(["run", cfg_path, "--out", out_path])
    assert code == 0
    lines = open(out_path).read().strip().split("\n")
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 42


def test_main_config_error_exit_code(tmp_path):
    bad = write(tmp_path, "bad.cfg", "model = nosuch\nmode = spectrum\n")
    assert cli.main(["run", bad]) == 1


def test_main_row_failure_exit_code(tmp_path):
    cfg_text = "model = tl\nmode = sweep\nRa = range(-0.5, 0.5, 3)\nR = 1.0\n"
    path = write(tmp_path, "tl.cfg", cfg_text)
    out_path = str(tmp_path / "tl.csv")
    assert cli.main(["run", path, "--out", out_path]) == 2


def test_memory1d_invalid_points_become_error_rows(tmp_path):
    cfg_text = "model = memory1d\nmode = sweep\na = 0.0\nk = range(-1, 1, 3)\ns = inf\n"
    path = write(tmp_path, "m.cfg", cfg_text)
    out_path = str(tmp_path / "m.csv")
    assert cli.main(["run", path, "--out", out_path]) == 2
    rows = open(out_path).read().strip().split("\n")[1:]
    codes = [row.split(",")[-1] for row in rows]
    assert codes == ["valueerror", "valueerror", ""]
    assert rows[2].split(",")[3] == "Unstable"  # k = 1, a = 0: lambda = (sqrt(5) - 1)/2


def test_selfcheck_passes():
    assert cli.main(["selfcheck"]) == 0


def test_import_loads_no_heavy_scipy_submodule():
    # a fresh interpreter, as this process already holds them: integrators, splines,
    # special functions, optimizers and dense linear algebra are imported where they run,
    # not by the package; particle rows below g/k and on a polarized cycle integrate
    # nothing in time, and a finite-window memory1d row runs no SciPy at all (the particle
    # rows solve their Hill matrices with scipy.linalg, so it is not checked after them)
    heavy = ("scipy.integrate", "scipy.interpolate", "scipy.special", "scipy.optimize")
    window_row = ("from memflo.models import Memory1DModel, model1d_exponent\n"
                  "model1d_exponent(Memory1DModel(0.5, 3.0, 2.0))\n")
    particle_rows = (
        "from memflo.models import BrownianParticleModel as P, particle_spectrum\n"
        "particle_spectrum(P(0.05, 1.0, 0.1, 1.0), n_harmonics=12)\n"
        "particle_spectrum(P(0.5, 1.0, 0.1, 3.0, (2.0, 2.0 / 0.95)), n_harmonics=20)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(memflo.__file__).parent.parent))
    no_linalg = heavy + ("scipy.linalg",)
    for work, absent in (("", no_linalg), (window_row, no_linalg), (particle_rows, heavy)):
        code = ("import sys, memflo, memflo.cli, memflo.oracles\n" + work +
                f"print([m for m in {absent!r} if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"


def test_every_exported_name_resolves():
    # each module's __all__ names only what the module holds, and the package root
    # imports only names that their module exports
    root = Path(memflo.__file__)
    for path in sorted(root.parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        mod = importlib.import_module(f"memflo.{path.stem}")
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == [], path.name
    for node in ast.parse(root.read_text()).body:
        if isinstance(node, ast.ImportFrom):
            exported = importlib.import_module(f"memflo.{node.module}").__all__
            assert [a.name for a in node.names if a.name not in exported] == [], node.module


def test_memory1d_row_with_an_overflowing_multiplier(tmp_path):
    # exp(lambda * 2 pi) overflows from a ~ 113 on; the rows still carry the exponent
    cfg_text = "model = memory1d\nmode = sweep\na = range(100, 130, 4)\nk = 3\ns = inf\n"
    result = cli.run(cli.parse_config(write(tmp_path, "m.cfg", cfg_text)))
    row = result.rows[2]
    assert row.params[0] == 120.0
    assert row.error_code is None
    assert row.verdict == "Unstable"
    want = model1d_asymptotic_exponent(Memory1DModel(120.0, 3.0, math.inf))
    assert row.max_re_lambda == pytest.approx(want, abs=1e-9)


def test_no_seed_and_an_unstable_rest_state_is_a_no_cycle_row():
    # beta = 0 leaves no seed; the rest friction -alpha + g/k = -0.9 makes the rest state unstable
    params = {"alpha": 1.0, "beta": 0.0, "g": 0.1, "k": 1.0}
    with pytest.raises(NoCycle):
        particle_spectrum(BrownianParticleModel(**params), n_harmonics=4)
    row, warm = cli._evaluate("particle", (1.0, None), params, 4, "sweep")
    assert row.error_code == "no_cycle" and warm is None
    assert cli._bisect_value(row) == 1.0
