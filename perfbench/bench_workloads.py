"""Workload inputs generated from the seed, and the op recorder.

A workload is an endless stream of *units*, each one call into memflo's public
API (``memflo.models.particle_spectrum`` or ``memflo.cli.run``).  A unit
produces one or more *ops*; an op is one model evaluation, i.e. one spectrum
and one output row.  The stream is cut into passes over a fixed grid; pass p
of seed s draws its jitter from ``default_rng([s, p])``, so a repeated grid
point never repeats its exact inputs, and seed 0 starts with the unjittered
points named below.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from memflo import cli, models

@dataclass
class Op:
    """One model evaluation, with the inputs the program received."""

    unit: int
    model: object
    n_harmonics: int | None
    seconds: float = 0.0
    result: object = None
    error: BaseException | None = None
    row: object = None
    reference: dict | None = None  # committed out/* row this op reproduces at seed 0
    failures: list = field(default_factory=list)


class OpRecorder:
    """Times and keeps every model evaluation, at the boundary cli calls through.

    The benchmark's only hook into an untraced run: it rebinds the model
    functions that ``cli`` imported by name (and ``models.particle_spectrum``,
    which the hires workload calls) for the duration of a ``with`` block.
    """

    TARGETS = ((cli, "particle_spectrum"), (cli, "model1d_exponent"),
               (models, "particle_spectrum"))

    def __init__(self, tracer=None):
        self.ops: list[Op] = []
        self.unit = 0
        self.tracer = tracer
        self._saved = []

    def __enter__(self):
        self._saved = [(mod, name, getattr(mod, name)) for mod, name in self.TARGETS]
        for mod, name, fn in self._saved:
            setattr(mod, name, self._wrap(fn))
        return self

    def __exit__(self, *exc):
        for mod, name, fn in reversed(self._saved):
            setattr(mod, name, fn)
        self._saved = []

    def _wrap(self, fn):
        @functools.wraps(fn)
        def recorded(model, *args, **kwargs):
            op = Op(self.unit, model, kwargs.get("n_harmonics"))
            self.ops.append(op)
            if self.tracer is not None:
                self.tracer.op = len(self.ops) - 1
            t0 = perf_counter()
            try:
                op.result = fn(model, *args, **kwargs)
                return op.result
            except BaseException as exc:
                op.error = exc
                raise
            finally:
                op.seconds = perf_counter() - t0
                if self.tracer is not None:
                    self.tracer.op = None

        return recorded


# --- units ---------------------------------------------------------------------


@dataclass
class Unit:
    """One call into memflo; ``references`` are the committed rows it should reproduce."""

    kind: str  # "spectrum" (direct model call) or "config" (cli.run on a config file)
    payload: object  # model instance, or config text
    n_harmonics: int | None = None
    references: list | None = None

    def run(self, tmp: Path):
        if self.kind == "spectrum":
            return models.particle_spectrum(self.payload, n_harmonics=self.n_harmonics)
        path = tmp / "unit.cfg"
        path.write_text(self.payload)
        return cli.run(cli.parse_config(str(path)))


def _config(tmp_output: str, fmt: str, **entries) -> str:
    lines = [f"{key} = {_value(val)}" for key, val in entries.items()]
    lines += [f"format = {fmt}", f"output = {tmp_output}"]
    return "\n".join(lines) + "\n"


def _value(val) -> str:
    if isinstance(val, tuple):  # (start, stop, count) linear range
        return f"range({val[0]!r}, {val[1]!r}, {val[2]})"
    if isinstance(val, float) and math.isinf(val):
        return "inf"
    return val if isinstance(val, str) else repr(val)


def _particle(alpha: float, k: float, ratio: float, g: float = 0.1, beta: float = 1.0,
              omega1: float = 2.0):
    return models.BrownianParticleModel(alpha, beta, g, k, (omega1, omega1 / ratio))


def _rng(seed: int, pass_index: int) -> np.random.Generator | None:
    if seed == 0 and pass_index == 0:
        return None  # seed 0 starts on the exact grid
    return np.random.default_rng([seed, pass_index])


def _jitter(rng, value: float, half_width: float) -> float:
    return value if rng is None else float(value + rng.uniform(-half_width, half_width))


class Workload:
    name = ""

    def __init__(self, out_dir: Path, reference_dir: Path):
        self.out_dir = out_dir  # where cli writes its rows; never the repo's out/
        self.reference_dir = reference_dir  # the committed out/ rows, read at seed 0

    def pass_units(self, seed: int, pass_index: int) -> list[Unit]:
        raise NotImplementedError

    def warm_up(self):
        raise NotImplementedError

    def units(self, seed: int):
        for p in itertools.count():
            yield from self.pass_units(seed, p)


class HiresSpectrum(Workload):
    """Cold particle spectra at n_harmonics=20: the QZ solve on a 328x328 pencil.

    n_harmonics=20 rather than 30 (a 488x488 pencil, 3-5 s an op) so that one
    run holds about twenty ops and its median is steady; QZ is still about 90%
    of the wall time.  Circular cycles (ratio 1, six classes; checked against
    the closed-form orbit) alternate with linearly polarized ones (ratio
    0.875-0.95 at k=1, five classes plus bound-filtered candidates).  Jitter
    moves alpha by up to 0.05 and the polarized ratios by up to 0.01; the
    circular ratio stays 1, where the orbit oracle holds.  The polarized
    ratios stay below 1: above it a cold start raises ``NoCycle`` at scattered
    points (ratio 1.05 at alpha 0.54, ratio 1.059 at alpha 0.533) whose
    neighbours converge, and a timed op has to succeed.
    """

    name = "hires-spectrum"
    n_harmonics = 20
    CIRCULAR = [(1.0, k, a) for k in (1.0, 3.0) for a in (0.55, 0.70, 0.85, 1.0)]
    POLARIZED = [(r, 1.0, a) for r in (0.875, 0.9, 0.925, 0.95) for a in (0.55, 0.70)]

    def pass_units(self, seed, pass_index):
        rng = _rng(seed, pass_index)
        units = []
        for circ, pol in zip(self.CIRCULAR, self.POLARIZED):
            for ratio, k, alpha in (circ, pol):
                r = ratio if ratio == 1.0 else _jitter(rng, ratio, 0.01)
                m = _particle(_jitter(rng, alpha, 0.05), k, r)
                units.append(Unit("spectrum", m, self.n_harmonics))
        return units

    def warm_up(self):
        models.particle_spectrum(_particle(0.7, 1.0, 1.0), n_harmonics=self.n_harmonics)


class LockingSweep(Workload):
    """figs/fig3.cfg as warm-started chains, then the figs/fig4.cfg bisection.

    fig3: one cli sweep per ratio column, alpha ranged (the same chains the
    two-parameter sweep runs with jobs=1).  Jitter moves each ratio column by
    up to 0.0125 (the ratio 1 column stays exact) and each end of the alpha
    range by up to 0.04, which keeps the first row below alpha = g/k.
    fig4: boundary bisection in alpha at ratio 1, g=0.5; jitter moves the scan
    start up by at most 0.03 and its end by at most 0.03.
    """

    name = "locking-sweep"
    n_harmonics = 12
    RATIOS = np.linspace(0.8, 1.25, 10)  # figs/fig3.cfg
    ALPHA = (0.05, 1.55, 7)
    BISECT_ALPHA = (0.0, 0.8, 9)  # figs/fig4.cfg

    def pass_units(self, seed, pass_index):
        rng = _rng(seed, pass_index)
        refs = _reference_rows(self.reference_dir / "fig3.csv") \
            if rng is None else None
        units = []
        for i, ratio in enumerate(self.RATIOS):
            ratio = float(ratio)
            r = ratio if ratio == 1.0 else _jitter(rng, ratio, 0.0125)
            lo, hi, count = self.ALPHA
            text = _config(str(self.out_dir / "fig3-chain.csv"), "csv",
                           model="particle", mode="sweep", beta=1.0, g=0.1, k=1.0,
                           omega1=2.0, ratio=r,
                           alpha=(_jitter(rng, lo, 0.04), _jitter(rng, hi, 0.04), count),
                           n_harmonics=self.n_harmonics)
            chain_refs = refs[i * count:(i + 1) * count] if refs else None
            units.append(Unit("config", text, references=chain_refs))
        lo, hi, count = self.BISECT_ALPHA
        if rng is not None:
            lo, hi = lo + rng.uniform(0.0, 0.03), _jitter(rng, hi, 0.03)
        text = _config(str(self.out_dir / "fig4.json"), "json",
                       model="particle", mode="boundary_bisect", beta=1.0, g=0.5, k=1.0,
                       omega1=2.0, ratio=1.0, alpha=(lo, hi, count),
                       n_harmonics=self.n_harmonics, bisect_tol=1e-4)
        bisect_refs = _reference_rows(self.reference_dir / "fig4_k1.json") \
            if rng is None else None
        units.append(Unit("config", text, references=bisect_refs))
        return units

    def warm_up(self):
        _run_text(self.out_dir, _config(str(self.out_dir / "warm.csv"), "csv",
                                        model="particle", mode="spectrum", beta=1.0, g=0.1,
                                        k=1.0, omega1=2.0, ratio=1.0, alpha=0.8,
                                        n_harmonics=self.n_harmonics))


class MemoryScan(Workload):
    """memory1d rows at k=3: the fig1 rates a times the fig2 windows s, plus s=inf.

    One cli spectrum run per row.  Windows are visited in bit-reversed order
    so that any prefix of a pass covers short and long memories alike.
    Jitter moves a by up to 0.2 and every finite s > 0 by up to 0.125; s=0
    (no memory) and s=inf (the closed-form case) stay exact.
    """

    name = "memory-scan"
    K = 3.0
    RATES = np.linspace(-2.0, 2.0, 5)  # figs/fig1.cfg
    WINDOWS = list(np.linspace(0.0, 20.0, 41)) + [math.inf]  # figs/fig2.cfg, plus inf

    def pass_units(self, seed, pass_index):
        rng = _rng(seed, pass_index)
        refs = _reference_rows(self.reference_dir / "fig1.csv", keyed=True) \
            if rng is None else None
        units = []
        for j in _bit_reversed(len(self.WINDOWS)):
            s = float(self.WINDOWS[j])
            for a in self.RATES:
                a = float(a)
                sj = s if s == 0.0 or math.isinf(s) else _jitter(rng, s, 0.125)
                aj = _jitter(rng, a, 0.2)
                text = _config(str(self.out_dir / "memory.csv"), "csv",
                               model="memory1d", mode="spectrum", a=aj, k=self.K, s=sj)
                ref = refs.get((_fmt(a), _fmt(s))) if refs else None
                units.append(Unit("config", text, references=[ref] if ref else None))
        return units

    def warm_up(self):
        _run_text(self.out_dir, _config(str(self.out_dir / "warm.csv"), "csv",
                                        model="memory1d", mode="spectrum", a=0.0, k=self.K,
                                        s=5.0))


WORKLOADS = {w.name: w for w in (HiresSpectrum, LockingSweep, MemoryScan)}


def _run_text(tmp: Path, text: str):
    return Unit("config", text).run(tmp)


def _bit_reversed(n: int) -> list[int]:
    bits = max(1, (n - 1).bit_length())
    order = [int(format(i, f"0{bits}b")[::-1], 2) for i in range(1 << bits)]
    return [i for i in order if i < n]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _reference_rows(path: Path, keyed: bool = False):
    """Committed output rows, or None when the checkout has no out/ directory."""
    if not path.is_file():
        return None
    if path.suffix == ".json":
        rows = json.loads(path.read_text())["rows"]
    else:
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:] if line]
    if keyed:
        return {(_fmt(float(r["param1"])), _fmt(float(r["param2"]))): r for r in rows}
    return rows


# --- the measured window ---------------------------------------------------------


@dataclass
class Window:
    ops: list
    units: list
    wall: float


def run_units(units, recorder: OpRecorder, tmp: Path, seconds: float | None = None,
              tracer=None) -> Window:
    """Run units until ``seconds`` have passed (or all of a finite list).

    An exception that escapes a unit ends that unit only: the op it was in
    keeps the exception and counts as failed; the run goes on.
    """
    done = []
    first_op = len(recorder.ops)
    start = perf_counter()
    for unit in units:
        recorder.unit = len(done)
        before = len(recorder.ops)
        if tracer is not None:
            tracer.unit = recorder.unit
        try:
            out = unit.run(tmp)
        except Exception as exc:  # boundary: record it and keep measuring
            out = None
            traceback.print_exc()
            if len(recorder.ops) == before:  # failed before reaching a model call
                recorder.ops.append(Op(recorder.unit, unit.payload, unit.n_harmonics,
                                       error=exc))
        _attach_rows(out, recorder.ops[before:], unit.references)
        done.append(unit)
        if seconds is not None and perf_counter() - start >= seconds:
            break
    wall = perf_counter() - start
    return Window(recorder.ops[first_op:], done, wall)


def _attach_rows(result, ops: list, references) -> None:
    """Pair cli rows with the model calls that produced them.

    A boundary bisection evaluates the bracket end once more without emitting
    a row; that call keeps ``row = None``.
    """
    rows = list(getattr(result, "rows", []) or [])
    refs = list(references or [])
    for op in ops:
        if not rows:
            break
        p1 = rows[0].params[0]
        if p1 is None or p1 == getattr(op.model, "alpha", None):
            op.row = rows.pop(0)
            op.reference = refs.pop(0) if refs else None
