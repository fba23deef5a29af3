"""Tests of the script that regenerates the figure outputs in out/."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "reproduce_figures", REPO / "scripts" / "reproduce_figures.py")
reproduce_figures = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reproduce_figures)


@pytest.fixture
def checkout(tmp_path, monkeypatch):
    """A checkout holding one figure config; the script runs in it and the cwd is restored."""
    (tmp_path / "figs").mkdir()
    cfg = (REPO / "figs" / "tl_bifurcation.cfg").read_text()
    (tmp_path / "figs" / "tl.cfg").write_text(cfg.replace("out/tl_bifurcation.json", "out/tl.json"))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(reproduce_figures, "HERE", tmp_path)
    return tmp_path


def test_rerun_keeps_a_file_whose_rows_did_not_move(checkout):
    out = checkout / "out" / "tl.json"
    assert reproduce_figures.run_all() == 0
    fresh_rows = json.loads(out.read_bytes())["rows"]
    doc = json.loads(out.read_bytes())

    # a second run differs only in its timestamp and wall times: the bytes stay
    doc["metadata"].update(timestamp="1970-01-01T00:00:00Z", total_walltime_ms=0.0,
                           row_walltimes_ms=[0.0] * len(fresh_rows))
    out.write_text(json.dumps(doc, indent=2))
    kept = out.read_bytes()
    assert reproduce_figures.run_all() == 0
    assert out.read_bytes() == kept

    # a moved row rewrites the file with the fresh rows
    doc["rows"][0]["max_re_lambda"] += 1.0
    out.write_text(json.dumps(doc, indent=2))
    assert reproduce_figures.run_all() == 0
    rewritten = json.loads(out.read_bytes())
    assert rewritten["rows"] == fresh_rows
    assert rewritten["metadata"]["timestamp"] != "1970-01-01T00:00:00Z"


def test_a_bad_config_is_reported_and_the_others_still_run(checkout):
    (checkout / "figs" / "bad.cfg").write_text("mode = nonsense\n")  # runs first
    assert reproduce_figures.run_all() == 1
    assert json.loads((checkout / "out" / "tl.json").read_bytes())["rows"]
