"""Command-line harness: case-study runs, parameter sweeps, boundary bisection.

A run is described by a flat ``key = value`` config file (JSON accepted as an
alternative encoding).  Values are numbers, strings, ``inf``, or linear
ranges written ``range(start, stop, count)``.  Results are emitted as CSV
with a fixed header or as JSON with a stable field order; numbers are
serialized with 17 significant digits so parsing them back is bit exact.
Wall times and timestamps live in a separate metadata block so identical
configs produce identical row bytes.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    IncompleteSpectrum,
    MatchedLine,
    MemfloError,
    NoConvergence,
    NoCycle,
)
from .models import (
    CYCLE_AMPLITUDE_TOL,
    BrownianParticleModel,
    Memory1DModel,
    TlResonatorModel,
    cycle_amplitude,
    model1d_asymptotic_exponent,
    model1d_exponent,
    particle_spectrum,
    tl_spectrum,
)

__all__ = ["SweepConfig", "SweepResult", "RowResult", "parse_config", "run", "emit", "main"]

CSV_HEADER = "param1,param2,max_re_lambda,verdict,n_classes,cycle_residual,error_code"
_FIELDS = CSV_HEADER.split(",")  # a row's grid point, then RowResult fields by name

_MODEL_PARAMS = {
    "memory1d": {"a", "k", "s"},
    "particle": {"alpha", "beta", "g", "k", "omega1", "ratio"},
    "tl": {"R", "Ra", "Z0", "tau_f", "n_roots"},
}
_MODES = {"spectrum", "sweep", "boundary_bisect", "convergence"}


@dataclass(frozen=True)
class LinearRange:
    start: float
    stop: float
    count: int

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass
class SweepConfig:
    """Validated run description."""

    model: str
    mode: str
    parameters: dict
    n_harmonics: int = 30
    output_path: str | None = None
    output_format: str = "csv"
    bisect_tol: float = 1e-4

    def __post_init__(self):
        if self.model not in _MODEL_PARAMS:
            raise ConfigError(f"unknown model {self.model!r}")
        if self.mode not in _MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.n_harmonics < 1:
            raise ConfigError("n_harmonics must be at least 1")
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise ConfigError(f"output must be a file name, got {self.output_path!r}")
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"unknown output format {self.output_format!r}")
        if not (math.isfinite(self.bisect_tol) and self.bisect_tol > 0):
            raise ConfigError("bisect_tol must be positive and finite")
        unknown = set(self.parameters) - _MODEL_PARAMS[self.model]
        if unknown:
            raise ConfigError(f"parameters {sorted(unknown)} not valid for {self.model}")
        ranged = self.ranged_names()
        for name in ranged:
            if self.parameters[name].count < 1:
                raise ConfigError(f"range of {name} needs a count of at least 1")
        if self.mode == "sweep" and not 1 <= len(ranged) <= 2:
            raise ConfigError("sweep mode needs one or two ranged parameters")
        if self.mode == "boundary_bisect" and len(ranged) != 1:
            raise ConfigError("boundary_bisect mode needs exactly one ranged parameter")
        if self.mode == "spectrum" and ranged:
            raise ConfigError("spectrum mode takes fixed parameters only")
        if self.mode == "convergence":
            if self.model != "memory1d":
                raise ConfigError("convergence mode applies to the memory1d model")
            if "s" not in ranged:
                raise ConfigError("convergence mode needs a ranged s")
            if len(ranged) > 2:
                raise ConfigError("convergence mode allows at most one extra range")

    def ranged_names(self) -> list[str]:
        return [k for k, v in self.parameters.items() if isinstance(v, LinearRange)]

    def fixed_values(self) -> dict:
        return {k: v for k, v in self.parameters.items() if not isinstance(v, LinearRange)}


@dataclass(slots=True)
class RowResult:
    params: tuple
    max_re_lambda: float | None
    verdict: str | None
    n_classes: int | None
    cycle_residual: float | None
    walltime_ms: float
    error_code: str | None = None
    extra: dict = field(default_factory=dict)


@dataclass
class SweepResult:
    rows: list
    metadata: dict

    @property
    def failed(self) -> bool:
        return any(r.error_code for r in self.rows)


def _whole(value, name: str) -> int:
    """``value`` as an int; ``ValueError`` unless it is an integral number."""
    if isinstance(value, int) or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _linear_range(start, stop, count) -> LinearRange:
    try:
        return LinearRange(float(start), float(stop), _whole(count, "range count"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad range ({start!r}, {stop!r}, {count!r}): {exc}") from exc


def _parse_value(text: str):
    text = text.strip()
    if text.startswith("range(") and text.endswith(")"):
        parts = [p.strip() for p in text[6:-1].split(",")]
        if len(parts) != 3:
            raise ConfigError(f"range needs (start, stop, count): {text!r}")
        return _linear_range(*map(_parse_value, parts))
    if text.lower() in ("inf", "+inf", "infinity"):
        return math.inf
    try:
        return int(text) if text.lstrip("+-").isdigit() else float(text)
    except ValueError:
        return text


def parse_config(path: str) -> SweepConfig:
    """Read a flat key = value config; JSON objects are accepted as well."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    stripped = raw.lstrip()
    entries: dict = {}
    if stripped.startswith("{"):
        data = json.loads(raw)
        for key, val in data.items():
            if isinstance(val, dict) and set(val) == {"range"}:
                entries[key] = _linear_range(*val["range"])
            elif isinstance(val, str):
                entries[key] = _parse_value(val)
            else:
                entries[key] = val
    else:
        for lineno, line in enumerate(raw.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key = value")
            key, _, value = line.partition("=")
            entries[key.strip()] = _parse_value(value)
    return _config_from_entries(entries)


def _config_from_entries(entries: dict) -> SweepConfig:
    entries = dict(entries)
    try:
        model = str(entries.pop("model"))
        mode = str(entries.pop("mode"))
    except KeyError as exc:
        raise ConfigError(f"missing required key {exc}") from exc
    try:
        n_harmonics = _whole(entries.pop("n_harmonics", 30), "n_harmonics")
        bisect_tol = float(entries.pop("bisect_tol", 1e-4))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad n_harmonics or bisect_tol: {exc}") from exc
    output_path = entries.pop("output", None)
    output_format = str(entries.pop("format", "csv"))
    return SweepConfig(model, mode, entries, n_harmonics=n_harmonics,
                       output_path=output_path, output_format=output_format,
                       bisect_tol=bisect_tol)


# --- per-point model evaluation ----------------------------------------------


def _memory1d_row(params: dict, n_harmonics: int, mode: str, warm):
    model = Memory1DModel(float(params.get("a", 0.0)), float(params.get("k", 3.0)),
                          float(params.get("s", math.inf)))
    spec = model1d_exponent(model)
    extra = {"n_bound_filtered": spec.diagnostics.get("n_bound_filtered", 0)}
    if mode == "convergence":
        lam = max((p.exponent for p in spec.canonical_strip), key=lambda z: z.real)
        extra.update(lambda_re=lam.real, lambda_im=lam.imag,
                     deviation_from_asymptote=abs(lam - model1d_asymptotic_exponent(model)))
    return spec, None, extra, None


def _tl_row(params: dict, n_harmonics: int, mode: str, warm):
    model = TlResonatorModel(float(params.get("R", 1.0)), float(params.get("Ra", 0.0)),
                             float(params.get("Z0", 1.0)), float(params.get("tau_f", 1.0)))
    spec = tl_spectrum(model, n_roots=_whole(params.get("n_roots", 5), "n_roots"))
    extra = {"reflection_coefficient": spec.diagnostics["reflection_coefficient"]}
    return spec, None, extra, None


def _particle_row(params: dict, n_harmonics: int, mode: str, warm):
    omega1, ratio = float(params.get("omega1", 2.0)), float(params.get("ratio", 1.0))
    if not 0 < ratio < math.inf:  # omega1 / ratio is the second well frequency
        raise ValueError(f"ratio must be positive and finite, got {ratio!r}")
    model = BrownianParticleModel(
        float(params.get("alpha", 1.0)), float(params.get("beta", 1.0)),
        float(params.get("g", 0.0)), float(params.get("k", 1.0)), (omega1, omega1 / ratio))
    cycle, spec = particle_spectrum(model, n_harmonics=n_harmonics, seed=warm)
    amp = cycle_amplitude(cycle)
    extra = {"cycle_amplitude": amp, "period": cycle.period,
             "cycle_exists": amp > CYCLE_AMPLITUDE_TOL}
    return spec, cycle.residual, extra, cycle if amp > CYCLE_AMPLITUDE_TOL else None


# model -> evaluator returning (spectrum, cycle residual, row extra, next warm start);
# the evaluators look the model functions up at call time so they can be rebound
_EVALUATORS = {"memory1d": _memory1d_row, "tl": _tl_row, "particle": _particle_row}


def _evaluate(model: str, point: tuple, params: dict, n_harmonics: int, mode: str,
              warm=None) -> tuple[RowResult, object]:
    """One grid point as a row; input and solver failures become error codes."""
    t0 = time.perf_counter()
    try:
        spec, residual, extra, warm_next = _EVALUATORS[model](params, n_harmonics, mode, warm)
    except (MemfloError, ValueError) as exc:
        return RowResult(point, None, None, None, None, (time.perf_counter() - t0) * 1e3,
                         error_code=_code(exc)), None
    return RowResult(point, spec.max_nontrivial_re(), spec.stability,
                     len(spec.canonical_strip), residual, (time.perf_counter() - t0) * 1e3,
                     extra=extra), warm_next


def _code(exc) -> str:
    return {
        NoCycle: "no_cycle",
        NoConvergence: "no_convergence",
        MatchedLine: "matched_line",
        IncompleteSpectrum: "incomplete_spectrum",
    }.get(type(exc), type(exc).__name__.lower())


def _grid(config: SweepConfig) -> list[list[tuple[tuple, dict]]]:
    """Warm-start chains of (point, params) pairs whose concatenation is row-major.

    A 2-D sweep has one chain per value of its first ranged parameter, a 1-D
    particle sweep is one chain, and every other point is a chain of its own.
    """
    ranged = config.ranged_names()
    fixed = config.fixed_values()
    axes = [config.parameters[name].values().tolist() for name in ranged]
    pairs = [((*values, None, None)[:2], fixed | dict(zip(ranged, values)))
             for values in itertools.product(*axes)]  # points padded to (param1, param2)
    if len(axes) == 2:
        size = len(axes[1])
    elif axes and config.model == "particle":
        size = len(pairs)
    else:
        size = 1
    return [pairs[i:i + size] for i in range(0, len(pairs), size)]


def _run_chain(model: str, mode: str, n_harmonics: int, chain) -> list[RowResult]:
    rows = []
    warm = None
    for point, params in chain:
        row, warm = _evaluate(model, point, params, n_harmonics, mode, warm)
        rows.append(row)
    return rows


def _bisect_value(row: RowResult) -> float:
    """Scalar whose sign change the bisection hunts.

    The exponent real part of a converged periodic state; points without one
    (failed rows, matched lines, cycle-free regimes) sit on the positive side,
    so the located boundary is where a stably oscillating state appears or
    loses stability.
    """
    if row.error_code or row.max_re_lambda is None:
        return 1.0
    if row.extra.get("cycle_exists") is False:
        return 1.0
    return row.max_re_lambda


def _bisect_scalar(point_eval, values: np.ndarray, tol: float):
    """Bracket a sign change of the row scalar along the scan; bisect it.

    Returns (rows, history, boundary or None).
    """
    rows = [point_eval(float(v)) for v in values]
    scalars = [_bisect_value(row) for row in rows]
    signs = [math.copysign(1.0, val) if val != 0 else 0.0 for val in scalars]
    bracket = None
    for i in range(len(values) - 1):
        if signs[i] != signs[i + 1]:
            bracket = i
            break
    history = []
    if bracket is None:
        return rows, history, None
    lo, hi = float(values[bracket]), float(values[bracket + 1])
    sign_lo = math.copysign(1.0, scalars[bracket])  # the scan already solved lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # the bracket is down to adjacent floats
            break
        row = point_eval(mid)
        rows.append(row)
        val = _bisect_value(row)
        history.append({"lo": lo, "hi": hi, "mid": mid,
                        "max_re_lambda": row.max_re_lambda,
                        "scalar": val})
        if math.copysign(1.0, val) == sign_lo:
            lo = mid
        else:
            hi = mid
    return rows, history, 0.5 * (lo + hi)


def run(config: SweepConfig, jobs: int = 1) -> SweepResult:
    """Execute a validated config; deterministic row order, per-row errors."""
    started = time.time()
    meta = {
        "config": _config_echo(config),
        "library_version": __version__,
    }
    if config.mode == "boundary_bisect":
        name = config.ranged_names()[0]
        values = config.parameters[name].values()
        fixed = config.fixed_values()

        def point_eval(v: float) -> RowResult:
            return _evaluate(config.model, (v, None), fixed | {name: v},
                             config.n_harmonics, config.mode)[0]

        rows, history, boundary = _bisect_scalar(point_eval, values, config.bisect_tol)
        meta["bisect"] = {"parameter": name, "history": history, "boundary": boundary,
                          "tolerance": config.bisect_tol}
    else:
        chains = _grid(config)
        run_chain = functools.partial(_run_chain, config.model, config.mode, config.n_harmonics)
        if jobs > 1 and len(chains) > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
                per_chain = list(pool.map(run_chain, chains))
        else:
            per_chain = map(run_chain, chains)
        rows = [row for chain_rows in per_chain for row in chain_rows]

    meta["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started))
    meta["total_walltime_ms"] = (time.time() - started) * 1e3
    meta["row_walltimes_ms"] = [r.walltime_ms for r in rows]
    result = SweepResult(rows, meta)
    if config.output_path:
        with open(config.output_path, "wb") as fh:
            fh.write(emit(result, config.output_format))
    return result


def _config_echo(config: SweepConfig) -> dict:
    params = {}
    for key, val in config.parameters.items():
        if isinstance(val, LinearRange):
            params[key] = {"range": [val.start, val.stop, val.count]}
        else:
            params[key] = val
    return {"model": config.model, "mode": config.mode, "parameters": params,
            "n_harmonics": config.n_harmonics, "format": config.output_format,
            "bisect_tol": config.bisect_tol}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.17g}"
    return str(value)


def _fields(row: RowResult) -> list:
    """A row's values in ``CSV_HEADER`` order: its grid point, then the named fields."""
    return [*row.params, *(getattr(row, name) for name in _FIELDS[2:])]


def emit(result: SweepResult, fmt: str) -> bytes:
    """Serialize rows; CSV has the fixed header, JSON a stable field order."""
    if fmt == "csv":
        lines = [CSV_HEADER] + [",".join(map(_fmt, _fields(r))) for r in result.rows]
        return ("\n".join(lines) + "\n").encode()
    if fmt == "json":
        rows = [dict(zip(_FIELDS, _fields(r)), extra=r.extra) for r in result.rows]
        doc = {"header": _FIELDS, "rows": rows, "metadata": result.metadata}
        return (json.dumps(_json_safe(doc), indent=2, allow_nan=False) + "\n").encode()
    raise ConfigError(f"unknown output format {fmt!r}")


# --- entry point --------------------------------------------------------------


def _json_safe(obj):
    """Standard-JSON view: non-finite floats become strings, complex pairs."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, float) and not math.isfinite(obj):
        return _fmt(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="memflo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a sweep/spectrum/bisection config")
    run_p.add_argument("config", help="path to a key=value or JSON config file")
    run_p.add_argument("--out", help="output file (overrides the config)")
    run_p.add_argument("--format", choices=("csv", "json"), help="output format override")
    run_p.add_argument("--jobs", type=int, default=1, help="parallel worker count")

    sub.add_parser("selfcheck", help="run the embedded oracle suite")

    args = parser.parse_args(argv)
    if args.command == "selfcheck":
        from .oracles import selfcheck

        failures = 0
        for name, ok, detail in selfcheck():
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
            failures += 0 if ok else 1
        return 1 if failures else 0

    try:
        config = parse_config(args.config)
        if args.out:
            config.output_path = args.out
        if args.format:
            config.output_format = args.format
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    result = run(config, jobs=args.jobs)
    if config.output_path:
        print(f"wrote {config.output_path} ({len(result.rows)} rows)")
    else:
        sys.stdout.write(emit(result, config.output_format).decode())
    if config.mode == "boundary_bisect":
        boundary = result.metadata.get("bisect", {}).get("boundary")
        print(f"boundary {config.ranged_names()[0]} = {_fmt(boundary)}"
              if boundary is not None else "no sign change bracketed")
    return 2 if result.failed else 0


if __name__ == "__main__":
    sys.exit(main())
