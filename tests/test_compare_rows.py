"""Tests of the row comparison script that checks figure outputs across checkouts."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_rows.py"
_spec = importlib.util.spec_from_file_location("compare_rows", SCRIPT)
compare_rows = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_rows)

CONFIG = "model = particle\nmode = boundary_bisect\noutput = out/b.json\n"
ROW = {"param1": 1.0, "param2": 0.5, "max_re_lambda": -0.1, "verdict": "Stable",
       "n_classes": 6, "cycle_residual": 1e-12, "error_code": ""}


def _checkout(root: Path, history: list) -> Path:
    (root / "figs").mkdir(parents=True)
    (root / "out").mkdir()
    (root / "figs" / "b.cfg").write_text(CONFIG)
    doc = {"header": list(ROW), "rows": [ROW],
           "metadata": {"bisect": {"boundary": 0.5, "history": history}}}
    (root / "out" / "b.json").write_text(json.dumps(doc))
    return root


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
