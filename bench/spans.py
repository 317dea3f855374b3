"""Spans around calls into the package, recorded from outside it.

The package binds names with ``from .lattice import to_grid``, so one
function is looked up in several module namespaces.  ``Tracer.install``
replaces the function in every ``torus_nls`` module that holds it, so each
call site records a span: name, start, end and the span that was open when
it began.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from collections import defaultdict

import numpy as np


def _grid_points_to_grid(field_, oversample=1, *_, **__):
    return (oversample * (2 * field_.bandlimit + 1)) ** 3


def _grid_points_to_spectral(grid, *_, **__):
    return grid.n**3


def _v2_pairs(path, *_, **__):
    # _v2_batch compares each of the n nodes with every earlier node and the
    # appended terminal 0 with all n: n(n+1)/2 pairs per mode
    n = path.grid.n
    return (2 * path.bandlimit + 1) ** 3 * n * (n + 1) // 2


# metric prefix -> (module, attribute, optional work count from the arguments)
TARGETS = {
    "cli.cli_main": ("torus_nls.cli", "cli_main", None),
    "lattice.to_grid": ("torus_nls.lattice", "to_grid", _grid_points_to_grid),
    "lattice.to_spectral": ("torus_nls.lattice", "to_spectral", _grid_points_to_spectral),
    "nonlinearity.apply_F": ("torus_nls.nonlinearity", "apply_F", None),
    "nonlinearity.evaluate_F": ("torus_nls.nonlinearity", "evaluate_F", None),
    "evolution.duhamel_operator": ("torus_nls.evolution", "duhamel_operator", None),
    "evolution.free_flow_path": ("torus_nls.evolution", "free_flow_path", None),
    "norms.y_norm": ("torus_nls.norms", "y_norm", _v2_pairs),
    "norms.spacetime_lp": ("torus_nls.norms", "spacetime_lp", None),
    "norms.sobolev_norm": ("torus_nls.norms", "sobolev_norm", None),
    "solver.picard_solve": ("torus_nls.solver", "picard_solve", None),
    "harness.sample_path": ("torus_nls.harness.samplers", "sample_path", None),
    "harness.random_field": ("torus_nls.harness.samplers", "random_field", None),
    "harness.run_estimate": ("torus_nls.harness.estimates", "run_estimate", None),
    "harness.contraction_ratio": ("torus_nls.harness.presets", "contraction_ratio", None),
    "io.save_field": ("torus_nls.io", "save_field", None),
    "io.load_field": ("torus_nls.io", "load_field", None),
    "io.write_report": ("torus_nls.io", "write_report", None),
}


# the per-layer metrics the benchmark reports, in BENCHMARK.json order
PER_LAYER = [
    "cli.cli_main.self_s",
    "lattice.to_grid.calls", "lattice.to_grid.self_s", "lattice.to_spectral.calls",
    "lattice.to_spectral.self_s", "lattice.grid_points",
    "nonlinearity.apply_F.calls", "nonlinearity.apply_F.self_s", "nonlinearity.evaluate_F.self_s",
    "evolution.duhamel_operator.calls", "evolution.duhamel_operator.self_s",
    "evolution.free_flow_path.self_s",
    "norms.y_norm.calls", "norms.y_norm.self_s", "norms.spacetime_lp.self_s",
    "norms.sobolev_norm.self_s", "norms.v2_pairs",
    "solver.picard_solve.calls", "solver.picard_solve.self_s", "solver.picard_iterations",
    "solver.useful_iteration_ratio",
    "harness.sample_path.self_s", "harness.random_field.self_s", "harness.run_estimate.self_s",
    "harness.contraction_ratio.self_s",
    "io.save_field.calls", "io.save_field.self_s", "io.load_field.self_s",
    "io.write_report.self_s", "io.bytes_written",
    "trace.overhead_s",
]


class Tracer:
    """Records one span per call of each target while ``active``."""

    def __init__(self):
        # [name, start, end, parent index, work count, raised]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.active = False

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            work = count(*args, **kwargs) if count else 0
            return self.span(name, fn, args, kwargs, work)

        return traced

    def span(self, name, fn, args=(), kwargs=None, work=0):
        """Call fn(*args, **kwargs) inside a span named ``name``."""
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, self._open[-1] if self._open else -1, work, False]
        self.spans.append(rec)
        self._open.append(idx)
        try:
            return fn(*args, **(kwargs or {}))
        except BaseException:
            rec[5] = True
            raise
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    @staticmethod
    def span_cost() -> float:
        """Seconds one active wrapper adds to a call: the median over five
        repeats of (wrapped - bare) time of 20000 calls of a no-op."""
        calls, repeats = 20000, 5
        tracer = Tracer()
        tracer.active = True
        noop = lambda: None  # noqa: E731
        wrapped = tracer._wrap("noop", noop, None)
        costs = []
        for _ in range(repeats):
            tracer.spans.clear()
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = time.perf_counter()
            costs.append(((t2 - t1) - (t1 - t0)) / calls)
        return float(np.median(costs))

    def install(self):
        """Replace each target in every torus_nls module namespace."""
        import torus_nls

        for info in pkgutil.walk_packages(torus_nls.__path__, "torus_nls."):
            importlib.import_module(info.name)
        modules = [m for k, m in sys.modules.items()
                   if k == "torus_nls" or k.startswith("torus_nls.")]
        for name, (modname, attr, count) in TARGETS.items():
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "work", "raised"],
                       "spans": self.spans}, fh)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer calls, self time and work counts over all spans."""
        child_time = np.zeros(len(self.spans))
        duhamel_children = defaultdict(int)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                if name == "evolution.duhamel_operator":
                    duhamel_children[parent] += 1
        calls = defaultdict(int)
        self_s = defaultdict(float)
        work = defaultdict(int)
        for i, (name, start, end, _, w, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[i]
            work[name] += w

        # a converged solve spends one Duhamel call on the residual; a solve
        # that raised NoConvergence wasted every iteration it ran
        iterations = useful = 0
        for i, (name, _, _, _, _, raised) in enumerate(self.spans):
            if name == "solver.picard_solve":
                n = duhamel_children[i] - (0 if raised else 1)
                iterations += n
                useful += 0 if raised else n

        out: dict[str, tuple[float, str]] = {}
        for name in TARGETS:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        out["lattice.grid_points"] = (work["lattice.to_grid"] + work["lattice.to_spectral"], "count")
        out["norms.v2_pairs"] = (work["norms.y_norm"], "count")
        out["solver.picard_iterations"] = (iterations, "count")
        out["solver.useful_iteration_ratio"] = (useful / iterations if iterations else 0.0, "ratio")
        return out
