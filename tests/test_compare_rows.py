"""Tests of the row comparison script that checks figure outputs across checkouts."""

import importlib.util
import json
from pathlib import Path

import pytest

from memflo import cli

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "compare_rows.py"
_spec = importlib.util.spec_from_file_location("compare_rows", SCRIPT)
compare_rows = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_rows)

CONFIG = "model = particle\nmode = boundary_bisect\noutput = out/b.json\n"
ROW = {"param1": 1.0, "param2": 0.5, "max_re_lambda": -0.1, "verdict": "Stable",
       "n_classes": 6, "cycle_residual": 1e-12, "error_code": ""}


CYCLE = {"cycle_amplitude": 0.45, "period": 3.14, "cycle_exists": True}


def _checkout(root: Path, history: list, row: dict = ROW) -> Path:
    (root / "figs").mkdir(parents=True)
    (root / "out").mkdir()
    (root / "figs" / "b.cfg").write_text(CONFIG)
    doc = {"header": list(ROW), "rows": [row],
           "metadata": {"bisect": {"boundary": 0.5, "history": history}}}
    (root / "out" / "b.json").write_text(json.dumps(doc))
    return root


def _csv_checkout(root: Path, model: str, line: str) -> Path:
    (root / "figs").mkdir(parents=True)
    (root / "out").mkdir()
    (root / "figs" / "c.cfg").write_text(f"model = {model}\nmode = sweep\noutput = out/c.csv\n")
    (root / "out" / "c.csv").write_text(",".join(ROW) + "\n" + line + "\n")
    return root


def _row(**changes) -> dict:
    extra = dict(CYCLE, **changes.pop("extra", {}))
    return dict(ROW, extra=extra, **changes)


def test_history_without_scalar_key_compares_equal(tmp_path):
    history = [{"lo": 0.0, "hi": 1.0, "mid": 0.5, "max_re_lambda": -0.1}]
    a = _checkout(tmp_path / "a", history)
    b = _checkout(tmp_path / "b", history)
    assert compare_rows.main([str(a), str(b)]) == 0


def test_history_key_missing_on_one_side_is_a_violation(tmp_path, capsys):
    entry = {"lo": 0.0, "hi": 1.0, "mid": 0.5, "max_re_lambda": -0.1}
    a = _checkout(tmp_path / "a", [entry])
    b = _checkout(tmp_path / "b", [dict(entry, scalar=1.0)])
    assert compare_rows.main([str(a), str(b)]) == 1
    assert "keys" in capsys.readouterr().out


def test_history_trail_must_match_exactly(tmp_path):
    entry = {"lo": 0.0, "hi": 1.0, "mid": 0.5, "max_re_lambda": -0.1, "scalar": 1.0}
    a = _checkout(tmp_path / "a", [entry])
    b = _checkout(tmp_path / "b", [dict(entry, max_re_lambda=-0.1 * (1 + 1e-12))])
    c = _checkout(tmp_path / "c", [dict(entry, mid=0.5 + 1e-12)])
    assert compare_rows.main([str(a), str(b)]) == 0
    assert compare_rows.main([str(a), str(c)]) == 1


def test_particle_cycle_fields_move_within_pinned_tolerances(tmp_path, capsys):
    a = _checkout(tmp_path / "a", [], _row())
    b = _checkout(tmp_path / "b", [], _row(
        max_re_lambda=-0.1 * (1 + 1e-12), cycle_residual=8e-11,
        extra={"period": 3.14 * (1 + 1e-12), "cycle_amplitude": 0.45 * (1 - 1e-12)}))
    assert compare_rows.main([str(a), str(b)]) == 0
    # the largest move |a - b| / (1 + |a|) of each relative field, per file and in total
    lines = capsys.readouterr().out.splitlines()
    moves = [line for line in lines if "largest" in line]
    assert len(moves) == 2 and moves[0] == moves[1]
    printed = dict(item.split() for item in moves[1].split(": ", 1)[1].split(", "))
    want = {"max_re_lambda": 0.1e-12 / 1.1, "period": 3.14e-12 / 4.14,
            "cycle_amplitude": 0.45e-12 / 1.45}
    assert printed.keys() == want.keys()
    for key, value in want.items():
        assert float(printed[key]) == pytest.approx(value, rel=1e-3)


def test_particle_cycle_fields_out_of_tolerance_are_violations(tmp_path):
    a = _checkout(tmp_path / "a", [], _row())
    changed = {
        "period": _row(extra={"period": 3.14 * (1 + 1e-8)}),
        "amplitude": _row(extra={"cycle_amplitude": 0.45 + 1e-8}),
        "residual": _row(cycle_residual=2e-10),
        "classes": _row(n_classes=5),
        "verdict": _row(verdict="Marginal"),
        "exists": _row(extra={"cycle_exists": False}),
        "extra key": _row(extra={"branch": "rotating"}),
    }
    for name, row in changed.items():
        b = _checkout(tmp_path / name, [], row)
        assert compare_rows.main([str(a), str(b)]) == 1, name


def test_csv_residual_loose_for_particle_only(tmp_path):
    old = "1,0.5,-0.1,Stable,6,1e-12,"
    new = "1,0.5,-0.10000000000001,Stable,6,5e-11,"
    a = _csv_checkout(tmp_path / "a", "particle", old)
    b = _csv_checkout(tmp_path / "b", "particle", new)
    assert compare_rows.main([str(a), str(b)]) == 0
    c = _csv_checkout(tmp_path / "c", "memory1d", old)
    d = _csv_checkout(tmp_path / "d", "memory1d", new)
    assert compare_rows.main([str(c), str(d)]) == 1


MEMORY_ROW = {"param1": 10.0, "param2": None, "max_re_lambda": 0.3, "verdict": "Unstable",
              "n_classes": 1, "cycle_residual": None, "error_code": None,
              "extra": {"n_bound_filtered": 12, "lambda_re": 0.3, "lambda_im": 0.0,
                        "deviation_from_asymptote": 2e-9}}


def _memory_checkout(root: Path, row: dict) -> Path:
    (root / "figs").mkdir(parents=True)
    (root / "out").mkdir()
    (root / "figs" / "m.cfg").write_text("model = memory1d\nmode = convergence\n"
                                         "output = out/m.json\n")
    doc = {"header": [k for k in row if k != "extra"], "rows": [row], "metadata": {}}
    (root / "out" / "m.json").write_text(json.dumps(doc))
    return root


def _memory_row(**changes) -> dict:
    extra = dict(MEMORY_ROW["extra"], **changes.pop("extra", {}))
    return dict(MEMORY_ROW, extra=extra, **changes)


def test_memory1d_fields_move_within_pinned_tolerances(tmp_path):
    a = _memory_checkout(tmp_path / "a", _memory_row())
    b = _memory_checkout(tmp_path / "b", _memory_row(
        max_re_lambda=0.3 * (1 + 1e-12),
        extra={"n_bound_filtered": 0, "lambda_re": 0.3 * (1 + 1e-12), "lambda_im": 1e-16,
               "deviation_from_asymptote": 2e-9 + 9e-14}))
    assert compare_rows.main([str(a), str(b)]) == 0


def test_memory1d_fields_out_of_tolerance_are_violations(tmp_path):
    a = _memory_checkout(tmp_path / "a", _memory_row())
    changed = {
        "max_re_lambda": _memory_row(max_re_lambda=0.3 + 2e-9),
        "lambda_re": _memory_row(extra={"lambda_re": 0.3 + 2e-9}),
        "lambda_im": _memory_row(extra={"lambda_im": 2e-9}),
        "deviation": _memory_row(extra={"deviation_from_asymptote": 2e-9 + 2e-13}),
        "filtered": _memory_row(extra={"n_bound_filtered": 3}),
        "verdict": _memory_row(verdict="Marginal"),
        "classes": _memory_row(n_classes=2),
        "error": _memory_row(error_code="incomplete_spectrum"),
    }
    for name, row in changed.items():
        b = _memory_checkout(tmp_path / name, row)
        assert compare_rows.main([str(a), str(b)]) == 1, name


def test_tl_rows_stay_exact(tmp_path):
    old = "1,0.5,-0.1,Stable,1,,"
    a = _csv_checkout(tmp_path / "a", "tl", old)
    b = _csv_checkout(tmp_path / "b", "tl", "1,0.5,-0.10000000000001,Stable,1,,")
    assert compare_rows.main([str(a), str(b)]) == 1
    c = _csv_checkout(tmp_path / "c", "memory1d", old)
    d = _csv_checkout(tmp_path / "d", "memory1d", "1,0.5,-0.10000000000001,Stable,1,,")
    assert compare_rows.main([str(c), str(d)]) == 0


def test_committed_outputs_match_a_fresh_run(tmp_path, capsys):
    # every figs/*.cfg rerun into a scratch out/ keeps the committed out/ rows
    (tmp_path / "out").mkdir()
    for cfg_path in sorted((REPO / "figs").glob("*.cfg")):
        config = cli.parse_config(str(cfg_path))
        config.output_path = str(tmp_path / config.output_path)
        cli.run(config)
    code = compare_rows.main([str(REPO), str(tmp_path)])
    assert code == 0, capsys.readouterr().out
