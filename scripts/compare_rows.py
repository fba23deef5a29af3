#!/usr/bin/env python3
"""Compare the figure outputs of two checkouts row by row.

Usage: python3 scripts/compare_rows.py PARENT_DIR CHANGE_DIR

Each directory is a checkout whose ``figs/*.cfg`` have been run (for example
with ``scripts/reproduce_figures.py``).  For every config of PARENT_DIR the
output it names is read from both directories and held to fixed tolerances:

- tl outputs are identical outside the JSON ``metadata`` block;
- particle rows hold the same fields; ``max_re_lambda`` and the ``period``
  and ``cycle_amplitude`` extras may move by at most 1e-9 * (1 + |x|), x the
  parent value, and ``cycle_residual`` may move while it stays at or below
  the cycle Newton tolerance 1e-10 on both sides;
- memory1d rows hold the same fields; ``max_re_lambda`` and the ``lambda_re``
  and ``lambda_im`` extras may move by at most 1e-9 * (1 + |x|), the
  ``deviation_from_asymptote`` extra by at most 1e-13, and the
  ``n_bound_filtered`` extra may fall to 0 (a count of roots below the decay
  bound that one route reaches and another leaves outside its contour);
- every other field (verdict, ``n_classes``, ``error_code``,
  ``cycle_exists``, ...) is exact;
- bisection boundaries are identical; the bisection history entries hold the
  same keys and the same lo/hi/mid trail, and for particle and memory1d
  configs their other values may move within the relative bound.

Prints how many rows are byte-identical and, for each field under the
relative rule, the largest move |a - b| / (1 + |a|) it saw, per file and in
total; exits 1 on any violation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REL_TOL = 1e-9
RESIDUAL_TOL = 1e-10  # cycle Newton tolerance: a converged residual stays below it
DEVIATION_TOL = 1e-13  # absolute move of a memory1d deviation from the s = inf exponent
TRAIL = ("lo", "hi", "mid")  # bisection bracket keys, compared exactly


def _config(path: Path) -> dict:
    """The key = value pairs of a figure config, comments dropped."""
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.split("#", 1)[0].partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _move(a, b) -> float | None:
    """|a - b| / (1 + |a|) of two numbers; None unless both are numbers."""
    try:
        a, b = float(a), float(b)
    except (TypeError, ValueError):  # an empty field or None against a number
        return None
    return abs(a - b) / (1.0 + abs(a))


def _close(a, b) -> bool:
    """Equal, or two numbers within the pinned relative tolerance."""
    if a == b:
        return True
    move = _move(a, b)
    return move is not None and move <= REL_TOL


def _record(moves: dict, key: str, a, b):
    """Keep the largest move of a field under the relative rule (a key of ``moves``)."""
    move = _move(a, b) if key in moves else None
    if move is not None:
        moves[key] = max(moves[key], move)


def _converged(a, b) -> bool:
    """Equal, or two cycle residuals both within the Newton tolerance."""
    if a == b:
        return True
    try:
        return float(a) <= RESIDUAL_TOL and float(b) <= RESIDUAL_TOL
    except (TypeError, ValueError):
        return False


def _deviation_close(a, b) -> bool:
    """Two deviations within the absolute ``DEVIATION_TOL``."""
    try:
        return abs(float(a) - float(b)) <= DEVIATION_TOL
    except (TypeError, ValueError):
        return False


def _fell_to_zero(a, b) -> bool:
    """A count that fell to 0."""
    return b == 0


# fields that may move, per model, and the rule that holds each; every other field is exact
RULES = {
    "particle": {**dict.fromkeys(("max_re_lambda", "period", "cycle_amplitude"), _close),
                 "cycle_residual": _converged},
    "memory1d": {**dict.fromkeys(("max_re_lambda", "lambda_re", "lambda_im"), _close),
                 "deviation_from_asymptote": _deviation_close,
                 "n_bound_filtered": _fell_to_zero},
}


def _field_ok(key: str, a, b, rules: dict, moves: dict) -> bool:
    """One row field (the ``extra`` dict field by field) against its rule."""
    if a == b:
        return True
    _record(moves, key, a, b)
    if not rules:
        return False
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_field_ok(k, a[k], b[k], rules, moves) for k in a)
    return key in rules and rules[key](a, b)


def _csv_rows(text: str) -> tuple[str, list[str]]:
    header, *rows = text.rstrip("\n").split("\n")
    return header, rows


def _compare_csv(old: str, new: str, rules: dict, moves: dict) -> tuple[int, int, list[str]]:
    head_old, rows_old = _csv_rows(old)
    head_new, rows_new = _csv_rows(new)
    if head_old != head_new or len(rows_old) != len(rows_new):
        return 0, len(rows_old), ["header or row count differs"]
    names = head_old.split(",")
    same, errors = 0, []
    for i, (a, b) in enumerate(zip(rows_old, rows_new)):
        if a == b:
            same += 1
            continue
        fa, fb = a.split(","), b.split(",")
        if len(fa) != len(fb) or not all(
                _field_ok(k, x, y, rules, moves) for k, x, y in zip(names, fa, fb)):
            errors.append(f"row {i}: {a!r} != {b!r}")
    return same, len(rows_old), errors


def _compare_json(old: str, new: str, rules: dict, moves: dict) -> tuple[int, int, list[str]]:
    doc_old, doc_new = json.loads(old), json.loads(new)
    rows_old, rows_new = doc_old["rows"], doc_new["rows"]
    if doc_old["header"] != doc_new["header"] or len(rows_old) != len(rows_new):
        return 0, len(rows_old), ["header or row count differs"]
    same, errors = 0, []
    for i, (a, b) in enumerate(zip(rows_old, rows_new)):
        if json.dumps(a) == json.dumps(b):
            same += 1
            continue
        if not _field_ok("row", a, b, rules, moves):
            errors.append(f"row {i}: {json.dumps(a)} != {json.dumps(b)}")
    bis_old = doc_old["metadata"].get("bisect")
    bis_new = doc_new["metadata"].get("bisect")
    if (bis_old is None) != (bis_new is None):
        errors.append("bisection present on one side only")
    elif bis_old is not None:
        if bis_old["boundary"] != bis_new["boundary"]:
            errors.append(f"boundary {bis_old['boundary']!r} != {bis_new['boundary']!r}")
        hist_old, hist_new = bis_old["history"], bis_new["history"]
        if len(hist_old) != len(hist_new):
            errors.append("bisection history lengths differ")
        for j, (a, b) in enumerate(zip(hist_old, hist_new)):
            if a == b:
                continue
            if a.keys() != b.keys():
                errors.append(f"history step {j}: keys {sorted(a)} != {sorted(b)}")
                continue
            for k in a:
                _record(moves, k, a[k], b[k])
            ok = bool(rules) and all(a[k] == b[k] if k in TRAIL else _close(a[k], b[k]) for k in a)
            if not ok:
                errors.append(f"history step {j}: {a} != {b}")
    return same, len(rows_old), errors


def _moves_line(moves: dict) -> str:
    return "  largest |a-b|/(1+|a|): " + ", ".join(f"{k} {v:.3e}" for k, v in moves.items())


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    parent, change = Path(argv[0]), Path(argv[1])
    configs = sorted((parent / "figs").glob("*.cfg"))
    if not configs:
        print(f"no figs/*.cfg under {parent}", file=sys.stderr)
        return 2
    total_same = total_rows = n_errors = 0
    total_moves = {}
    for cfg_path in configs:
        cfg = _config(cfg_path)
        output = cfg.get("output")
        if output is None:
            continue
        old_path, new_path = parent / output, change / output
        if not old_path.exists() or not new_path.exists():
            print(f"{output}: missing in {'PARENT_DIR' if not old_path.exists() else 'CHANGE_DIR'}")
            n_errors += 1
            continue
        rules = RULES.get(cfg.get("model"), {})
        compare = _compare_json if output.endswith(".json") else _compare_csv
        moves = {key: 0.0 for key, rule in rules.items() if rule is _close}
        same, rows, errors = compare(old_path.read_text(), new_path.read_text(), rules, moves)
        total_same += same
        total_rows += rows
        n_errors += len(errors)
        print(f"{output}: {same}/{rows} rows byte-identical, {len(errors)} violations")
        if moves:
            print(_moves_line(moves))
        for err in errors[:10]:
            print(f"  {err}")
        for key, move in moves.items():
            total_moves[key] = max(total_moves.get(key, 0.0), move)
    print(f"total: {total_same}/{total_rows} rows byte-identical, {n_errors} violations")
    print(_moves_line(total_moves))
    return 1 if n_errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
