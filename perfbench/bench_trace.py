"""Layer spans recorded from outside the library, for the traced run.

``Tracer.install()`` wraps every public function of ``memflo.hb``,
``kernels``, ``floquet``, ``cycles``, ``models`` and ``cli`` and rebinds each
module attribute that holds one, because the modules import each other's
functions by name (``models`` calls its own ``floquet_spectrum`` and
``solve_cycle``).  ``scipy.linalg.eig`` and ``numpy.linalg.solve`` get spans
of their own, so the QZ solve and the Newton solves are timed apart from the
code around them.  ``kernels.transfer_at`` and ``transfer_dlambda``, called
about 10^4 times per memory1d row (3.6 million calls in one 25 s memory-scan
run on a 2-core x86 VM), are only counted: a span on each would cost about
as much as the work it times.

Spans are kept in memory as [name, start, end, parent, unit, op, failed] and
written out once, at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy
import scipy.linalg

LAYERS = ("hb", "kernels", "floquet", "cycles", "models", "cli")
COUNT_ONLY = {"kernels.transfer_at", "kernels.transfer_dlambda"}
EXTERNAL = ((scipy.linalg, "eig", "scipy.linalg.eig"),
            (numpy.linalg, "solve", "numpy.linalg.solve"))

# (name, unit, better) of every per-layer metric, in BENCHMARK.json order.
# Times are totals over the traced replay; "self" excludes traced callees.
PER_LAYER = [
    ("floquet.eig_s", "s", "lower"),  # scipy.linalg.eig under solve_pep (QZ)
    ("floquet.eig_calls", "count", "lower"),
    ("floquet.eig_n3_sum", "dim3", "lower"),  # sum of pencil dimension cubed, computed
    ("floquet.solve_pep.self_s", "s", "lower"),
    ("floquet.assembly_s", "s", "lower"),  # cleared_pep + taylor_pep, inclusive
    ("floquet.floquet_spectrum.self_s", "s", "lower"),
    ("floquet.refine_eigenpair.self_s", "s", "lower"),
    ("floquet.refine_eigenpair.calls", "count", "lower"),
    ("floquet.eigenpair_residual.calls", "count", "lower"),
    ("floquet.canonicalize_spectrum.self_s", "s", "lower"),
    ("floquet.candidates", "count", "lower"),  # n_raw + n_infinite
    ("floquet.classes", "count", "higher"),
    ("floquet.class_yield", "ratio", "higher"),  # classes / candidates
    ("floquet.filtered.edge", "count", "lower"),
    ("floquet.filtered.bound", "count", "lower"),
    ("floquet.filtered.seed_rejected", "count", "lower"),
    ("floquet.filtered.unrefined", "count", "lower"),
    ("floquet.solve_scalar.self_s", "s", "lower"),
    ("floquet.solve_scalar.calls", "count", "lower"),
    ("kernels.transfer_at.calls", "count", "lower"),
    ("kernels.transfer_dlambda.calls", "count", "lower"),
    ("kernels.memory_matrix.self_s", "s", "lower"),
    ("kernels.memory_matrix.calls", "count", "lower"),
    ("kernels.memory_matrix_dlambda.self_s", "s", "lower"),
    ("cycles.solve_cycle.self_s", "s", "lower"),
    ("cycles.solve_cycle.calls", "count", "lower"),
    ("cycles.solve_cycle.fail", "count", "lower"),
    ("cycles.newton_iters", "count", "lower"),  # numpy.linalg.solve calls in solve_cycle
    ("cycles.newton_solve_s", "s", "lower"),
    ("cycles.seed_from_time_integration.self_s", "s", "lower"),
    ("cycles.seed_from_time_integration.calls", "count", "lower"),
    ("cycles.linearize.self_s", "s", "lower"),
    ("hb.toeplitz_from_periodic.self_s", "s", "lower"),
    ("hb.toeplitz_from_periodic.calls", "count", "lower"),
    ("hb.stacked_diff_matrix.self_s", "s", "lower"),
    ("hb.stacked_diff_matrix.calls", "count", "lower"),
    ("models.particle_spectrum.self_s", "s", "lower"),
    ("models.seed_attempts", "1/op", "lower"),  # solve_cycle calls per particle spectrum
    ("models.equilibrium_fallbacks", "count", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("cli.rows", "count", "higher"),
    ("cli.bisect_evals", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),  # traced wall / untraced wall, same units
    ("trace.wall_s", "s", "lower"),
]


class Tracer:
    """Spans and counts of the layer calls made while installed (a ``with`` block)."""

    def __init__(self):
        self.spans: list[list] = []
        self._count_cells: dict[str, list[int]] = {}
        self.stats: Counter = Counter()  # results read off returned objects
        self.unit = None
        self.op = None
        self._stack: list[int] = []
        self._rebound: list[tuple] = []

    # --- wrapping ---------------------------------------------------------------

    def _span(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, perf_counter(), None, stack[-1] if stack else -1, self.unit,
                   self.op, False]
            spans.append(rec)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[6] = True
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(args, out)
            return out

        return traced

    def _counter(self, name: str, fn):
        cell = self._count_cells.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    @property
    def counts(self) -> dict:
        return {name: cell[0] for name, cell in self._count_cells.items()}

    def install(self) -> None:
        """Rebind every memflo module attribute that holds a public layer function."""
        wrappers, hooks = {}, self._hooks()
        for layer in LAYERS:
            mod = sys.modules[f"memflo.{layer}"]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in COUNT_ONLY:
                    wrappers[id(fn)] = self._counter(name, fn)
                else:
                    wrappers[id(fn)] = self._span(name, fn, hooks.get(name))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "memflo" or mod_name.startswith("memflo.")):
                continue
            if mod_name == "memflo.oracles":
                continue  # the checker's, outside every unit
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and callable(val):
                    self._rebound.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])
        for mod, attr, name in EXTERNAL:
            fn = getattr(mod, attr)
            self._rebound.append((mod, attr, fn))
            setattr(mod, attr, self._span(name, fn, hooks.get(name)))

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._rebound):
            setattr(mod, attr, val)
        self._rebound = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _hooks(self) -> dict:
        stats = self.stats

        def eig(args, out):
            stats["eig_n3_sum"] += int(numpy.shape(args[0])[0]) ** 3

        def spectrum(args, out):
            d = out.diagnostics
            stats["candidates"] += d.get("n_raw", 0) + d.get("n_infinite", 0)
            stats["classes"] += len(out.canonical_strip)
            stats["edge"] += d.get("n_edge_filtered", 0)
            stats["bound"] += d.get("n_bound_filtered", 0)
            stats["seed_rejected"] += d.get("n_seed_rejected", 0)
            stats["unrefined"] += d.get("n_unrefined", 0)

        def run(args, out):
            stats["rows"] += len(out.rows)
            stats["bisect_evals"] += len(out.metadata.get("bisect", {}).get("history", []))

        return {"scipy.linalg.eig": eig, "floquet.floquet_spectrum": spectrum,
                "cli.run": run}

    # --- reduction --------------------------------------------------------------

    def write(self, path: Path, env: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"env": env, "fields": ["name", "start", "end", "parent", "unit", "op", "failed"],
               "spans": self.spans, "counts": self.counts}
        path.write_text(json.dumps(doc))

    def _totals(self):
        """Per span duration, and per name: self time, total time, calls, failures."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        self_s, total_s, calls, fails = Counter(), Counter(), Counter(), Counter()
        for i, s in enumerate(spans):
            self_s[s[0]] += dur[i] - child[i]
            total_s[s[0]] += dur[i]
            calls[s[0]] += 1
            fails[s[0]] += s[6]
        return dur, self_s, total_s, calls, fails

    def layer_metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        """Every PER_LAYER metric, from the spans of the traced replay."""
        spans = self.spans
        dur, self_s, total_s, calls, fails = self._totals()

        def under(i: int, name: str) -> bool:
            p = spans[i][3]
            while p >= 0:
                if spans[p][0] == name:
                    return True
                p = spans[p][3]
            return False

        def memflo_parent(i: int) -> str | None:
            p = spans[i][3]
            while p >= 0 and not spans[p][0].split(".")[0] in LAYERS:
                p = spans[p][3]
            return spans[p][0] if p >= 0 else None

        eig = [i for i, s in enumerate(spans)
               if s[0] == "scipy.linalg.eig" and under(i, "floquet.solve_pep")]
        newton = [i for i, s in enumerate(spans)
                  if s[0] == "numpy.linalg.solve" and memflo_parent(i) == "cycles.solve_cycle"]
        seed_attempts = sum(1 for i, s in enumerate(spans) if s[0] == "cycles.solve_cycle"
                            and under(i, "models.particle_spectrum"))
        st = self.stats
        metrics = {
            "floquet.eig_s": sum(dur[i] for i in eig),
            "floquet.eig_calls": len(eig),
            "floquet.eig_n3_sum": st["eig_n3_sum"],
            "floquet.solve_pep.self_s": self_s["floquet.solve_pep"],
            "floquet.assembly_s": total_s["floquet.cleared_pep"] + total_s["floquet.taylor_pep"],
            "floquet.floquet_spectrum.self_s": self_s["floquet.floquet_spectrum"],
            "floquet.refine_eigenpair.self_s": self_s["floquet.refine_eigenpair"],
            "floquet.refine_eigenpair.calls": calls["floquet.refine_eigenpair"],
            "floquet.eigenpair_residual.calls": calls["floquet.eigenpair_residual"],
            "floquet.canonicalize_spectrum.self_s": self_s["floquet.canonicalize_spectrum"],
            "floquet.candidates": st["candidates"],
            "floquet.classes": st["classes"],
            "floquet.class_yield": st["classes"] / st["candidates"] if st["candidates"] else 0.0,
            "floquet.filtered.edge": st["edge"],
            "floquet.filtered.bound": st["bound"],
            "floquet.filtered.seed_rejected": st["seed_rejected"],
            "floquet.filtered.unrefined": st["unrefined"],
            "floquet.solve_scalar.self_s": self_s["floquet.solve_scalar"],
            "floquet.solve_scalar.calls": calls["floquet.solve_scalar"],
            "kernels.transfer_at.calls": self.counts.get("kernels.transfer_at", 0),
            "kernels.transfer_dlambda.calls": self.counts.get("kernels.transfer_dlambda", 0),
            "kernels.memory_matrix.self_s": self_s["kernels.memory_matrix"],
            "kernels.memory_matrix.calls": calls["kernels.memory_matrix"],
            "kernels.memory_matrix_dlambda.self_s": self_s["kernels.memory_matrix_dlambda"],
            "cycles.solve_cycle.self_s": self_s["cycles.solve_cycle"],
            "cycles.solve_cycle.calls": calls["cycles.solve_cycle"],
            "cycles.solve_cycle.fail": fails["cycles.solve_cycle"],
            "cycles.newton_iters": len(newton),
            "cycles.newton_solve_s": sum(dur[i] for i in newton),
            "cycles.seed_from_time_integration.self_s":
                self_s["cycles.seed_from_time_integration"],
            "cycles.seed_from_time_integration.calls": calls["cycles.seed_from_time_integration"],
            "cycles.linearize.self_s": self_s["cycles.linearize"],
            "hb.toeplitz_from_periodic.self_s": self_s["hb.toeplitz_from_periodic"],
            "hb.toeplitz_from_periodic.calls": calls["hb.toeplitz_from_periodic"],
            "hb.stacked_diff_matrix.self_s": self_s["hb.stacked_diff_matrix"],
            "hb.stacked_diff_matrix.calls": calls["hb.stacked_diff_matrix"],
            "models.particle_spectrum.self_s": self_s["models.particle_spectrum"],
            "models.seed_attempts": (seed_attempts / calls["models.particle_spectrum"]
                                     if calls["models.particle_spectrum"] else 0.0),
            "models.equilibrium_fallbacks": calls["models.particle_equilibrium_spectrum"],
            "cli.run.self_s": self_s["cli.run"],
            "cli.rows": st["rows"],
            "cli.bisect_evals": st["bisect_evals"],
            "trace.overhead_ratio": traced_wall / untraced_wall,
            "trace.wall_s": traced_wall,
        }
        units = {name: unit for name, unit, _ in PER_LAYER}
        return {name: float(metrics[name]) if units[name] in ("s", "ratio", "1/op")
                else int(metrics[name]) for name, _, _ in PER_LAYER}

    def attribution(self, traced_wall: float, top: int = 12) -> list[tuple[str, float]]:
        """Largest self times as shares of the traced wall time."""
        ranked = sorted(self._totals()[1].items(), key=lambda kv: -kv[1])[:top]
        return [(name, sec / traced_wall) for name, sec in ranked]
