"""Correctness checks applied to every op after the measured window.

Each check returns a list of failure messages; an op with any failure, or one
that raised, counts as failed.  ``memflo.oracles`` is used here and nowhere
else in the benchmark.  The thresholds are the documented contract of the
library (1e-8 residual certificate, 1e-6 stability band), written out here so
that a change to the library's own constants cannot relax the check.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from memflo import oracles
from memflo.models import BrownianParticleModel, Memory1DModel

RESIDUAL_TOL = 1e-8  # every reported class carries a residual certificate below this
STABILITY_TOL = 1e-6  # |max Re| within this band grades Marginal
AMPLITUDE_TOL = 1e-6  # oscillation below this is the resting state
ORBIT_TOL = 1e-9  # relative radius and period error against the circular orbit
ORACLE_TOL = 1e-9  # s=inf exponent against the closed-form root
SCALAR_TOL = 1e-8  # characteristic-equation residual, relative to 1 + |lambda|
OUT_ROW_TOL = 1e-9  # seed-0 rows against the committed out/ rows


def check(op) -> list[str]:
    """All failures of one op; [] when it passed."""
    if op.error is not None:
        return [f"raised {type(op.error).__name__}: {op.error}"]
    if isinstance(op.model, BrownianParticleModel):
        cycle, spec = op.result
        fails = _check_particle(op.model, cycle, spec)
    elif isinstance(op.model, Memory1DModel):
        spec = op.result
        fails = _check_memory(op.model, spec)
    else:
        return [f"unexpected op input {type(op.model).__name__}"]
    if op.row is not None:
        fails += _check_row(op.row, spec)
    return fails


def _verdict(worst: float | None) -> str:
    if worst is None or abs(worst) <= STABILITY_TOL:
        return "Marginal"
    return "Unstable" if worst > STABILITY_TOL else "Stable"


def _check_classes(spec, floor: float) -> list[str]:
    fails = []
    classes = spec.canonical_strip
    if not classes:
        fails.append("no exponent class")
    for c in classes:
        if not c.exponent.real > floor:
            fails.append(f"class {c.exponent:.6g} not above the decay floor {floor}")
    res = [c.exponent.real for c in classes if not c.trivial]
    expected = _verdict(max(res) if res else None)
    if spec.stability != expected:
        fails.append(f"verdict {spec.stability} but max Re {max(res, default=None)}")
    return fails


def _check_particle(m: BrownianParticleModel, cycle, spec) -> list[str]:
    fails = _check_classes(spec, -m.k)
    for c in spec.canonical_strip:
        if not c.residual < RESIDUAL_TOL:
            fails.append(f"class {c.exponent:.6g} residual {c.residual:.3g}")
    amps = np.abs(np.asarray(cycle.harmonics.amplitudes))
    nh = cycle.harmonics.n_harmonics
    amps[:, nh] = 0.0
    oscillating = amps.max() > AMPLITUDE_TOL
    if oscillating and not any(c.trivial for c in spec.canonical_strip):
        fails.append("oscillating cycle without a trivial class")
    if m.omega_bar[0] == m.omega_bar[1]:
        orbit = oracles.circular_orbit(m.alpha, m.beta, m.g, m.k, m.omega_bar[0])
        if orbit is not None and not oscillating and orbit[0] > 1e-3:
            fails.append(f"rest state where a circular orbit of radius {orbit[0]:.4g} exists")
        if orbit is not None and oscillating:
            fails += _check_orbit(cycle, *orbit)
    return fails


def _check_orbit(cycle, radius: float, period: float) -> list[str]:
    """Sample the cycle's position independently of the library and compare."""
    fails = []
    if abs(cycle.period - period) > ORBIT_TOL * period:
        fails.append(f"period {cycle.period!r} vs circular orbit {period!r}")
    nh = cycle.harmonics.n_harmonics
    h = np.arange(-nh, nh + 1)
    t = cycle.period * np.arange(64) / 64
    z = (np.asarray(cycle.harmonics.amplitudes)[:2]
         @ np.exp(2j * np.pi / cycle.period * np.outer(h, t))).real
    err = np.max(np.abs(np.hypot(z[0], z[1]) - radius))
    if err > ORBIT_TOL * radius:
        fails.append(f"orbit radius off by {err:.3g} (radius {radius:.6g})")
    return fails


def _check_memory(m: Memory1DModel, spec) -> list[str]:
    fails = _check_classes(spec, -m.k)
    for c in spec.canonical_strip:
        lam = c.exponent
        z = m.k + lam
        if math.isinf(m.s):
            window = 1.0 / z
        elif abs(z * m.s) < 1e-8:
            window = m.s  # limit of (1 - exp(-z s))/z
        else:
            window = (1.0 - cmath.exp(-z * m.s)) / z
        res = abs(lam - m.a - window)
        if not res <= SCALAR_TOL * (1.0 + abs(lam)):
            fails.append(f"class {lam:.6g} characteristic residual {res:.3g}")
    if math.isinf(m.s):
        exact = oracles.quadratic_memory_exponent(m.a, m.k)
        if len(spec.canonical_strip) != 1:
            fails.append(f"{len(spec.canonical_strip)} classes at s=inf, expected 1")
        elif abs(spec.canonical_strip[0].exponent - exact) > ORACLE_TOL * (1 + abs(exact)):
            fails.append(f"exponent {spec.canonical_strip[0].exponent} vs closed form {exact}")
    return fails


def _check_row(row, spec) -> list[str]:
    """The emitted row must say what the spectrum says."""
    fails = []
    if row.error_code:
        fails.append(f"row error {row.error_code}")
    if row.verdict != spec.stability:
        fails.append(f"row verdict {row.verdict} vs spectrum {spec.stability}")
    if row.n_classes != len(spec.canonical_strip):
        fails.append(f"row n_classes {row.n_classes} vs {len(spec.canonical_strip)}")
    classes = spec.canonical_strip
    nontrivial = [c.exponent.real for c in classes if not c.trivial]
    if row.max_re_lambda != max(nontrivial, default=None):
        fails.append(f"row max_re_lambda {row.max_re_lambda} vs {max(nontrivial, default=None)}")
    return fails


def reference_diff(op) -> str | None:
    """How a seed-0 row differs from the committed out/ row, or None if it agrees.

    Reported, never counted as a failure: later work may change verdicts on
    purpose.
    """
    ref, row = op.reference, op.row
    if ref is None or row is None:
        return None
    diffs = []
    want = ref.get("max_re_lambda")
    want = None if want in (None, "") else float(want)
    got = row.max_re_lambda
    if (want is None) != (got is None) or (
            want is not None and abs(got - want) > OUT_ROW_TOL * (1 + abs(want))):
        diffs.append(f"max_re_lambda {got!r} vs {want!r}")
    if (ref.get("verdict") or None) != row.verdict:
        diffs.append(f"verdict {row.verdict} vs {ref.get('verdict')}")
    n_ref = ref.get("n_classes")
    if (None if n_ref in (None, "") else int(n_ref)) != row.n_classes:
        diffs.append(f"n_classes {row.n_classes} vs {n_ref}")
    return "; ".join(diffs) or None
