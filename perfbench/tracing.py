"""Spans around the public functions of every steklov_annulus module.

The package is not edited: each public function is replaced by a timing
wrapper at every module attribute that binds it (``fem`` imports
``schur_condense`` by name, so patching ``linalg`` alone would miss the
calls made through ``fem``).  A function that no longer exists is simply
not wrapped, so its layer reads 0.

A span is (name, start, end, parent, row); with ``memory=True`` it also
records the tracemalloc peak above the traced memory at entry.  Spans stay
in memory and are aggregated into per-layer numbers when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import tracemalloc
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "steklov_annulus"
MODULES = ("geometry", "mesher", "fem", "linalg", "analytic", "shape_deriv",
           "experiments", "cli")
# geometry work the tables pay for lives in methods, not module functions
METHODS = (("BoundaryCurve", "arc_length"), ("Circle", "arc_length"),
           ("AnnularDomain", "gap"), ("AnnularDomain", "perimeter"))
ROOT = "bench.pass"   # the benchmark's own span around one pass
MB = 2.0 ** 20


class Span:
    __slots__ = ("name", "start", "end", "parent", "row", "base", "peak", "counts")

    def __init__(self, name, start, parent, row, base):
        self.name, self.start, self.end = name, start, start
        self.parent, self.row = parent, row
        self.base = self.peak = base
        self.counts = None


def _condense_counts(args, kwargs, result):
    k, boundary = args[0], args[1]
    nb = len(boundary)
    ni = k.shape[0] - nb
    # K_IB, its solve X, K_BB and S are held as dense float64 arrays
    return {"rhs_columns": nb, "dense_mb": (2 * ni * nb + 2 * nb * nb) * 8 / MB}


def _spectrum_counts(args, kwargs, result):
    system = args[0]
    return {"dofs": system.stiffness.shape[0], "boundary_dofs": len(system.boundary_dofs)}


def _mesh_counts(args, kwargs, result):
    return {"triangles": len(result.triangles)}


COUNTERS = {
    "linalg.schur_condense": _condense_counts,
    "fem.solve_spectrum": _spectrum_counts,
    "mesher.build_annular_mesh": _mesh_counts,
}


class Tracer:
    """Collects spans; ``only`` limits wrapping to the named functions."""

    def __init__(self, memory=False, only=None):
        self.memory = memory
        self.only = only
        self.spans = []
        self.stack = []
        self.row = None
        self._undo = []

    # -- recording ---------------------------------------------------------
    def _open(self, name):
        base = 0
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self.stack:
                parent = self.stack[-1]
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
            base = current
        parent = self.stack[-1] if self.stack else None
        span = Span(name, perf_counter(), parent, self.row, base)
        self.stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span):
        span.end = perf_counter()
        self.stack.pop()
        if self.memory:
            span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
            if self.stack:
                self.stack[-1].peak = max(self.stack[-1].peak, span.peak)

    @contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    span.counts = counter(args, kwargs, result)
                return result
            finally:
                self._close(span)
        return traced

    # -- patching ----------------------------------------------------------
    def install(self):
        """Wrap every selected public function at each of its binding sites."""
        package = importlib.import_module(PACKAGE)
        modules = {}
        for name in MODULES:
            try:
                modules[name] = importlib.import_module(f"{PACKAGE}.{name}")
            except ModuleNotFoundError:
                continue
        sites = [package, *modules.values()]
        for mod_name, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                self._patch_everywhere(f"{mod_name}.{fn.__name__}", fn, sites)
        geometry = modules.get("geometry")
        for cls_name, meth in METHODS if geometry else ():
            cls = getattr(geometry, cls_name, None)
            if cls is not None and meth in vars(cls):
                self._patch(cls, meth, f"geometry.{cls_name}.{meth}")

    def _selected(self, name):
        return self.only is None or name in self.only

    def _patch_everywhere(self, name, fn, sites):
        if not self._selected(name):
            return
        wrapper = self.wrap(name, fn)
        for site in sites:
            for attr, value in list(vars(site).items()):
                if value is fn:
                    self._undo.append((site, attr, value))
                    setattr(site, attr, wrapper)

    def _patch(self, owner, attr, name):
        if not self._selected(name):
            return
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------
    def durations(self, name):
        return [s.end - s.start for s in self.spans if s.name == name]

    def dump(self, path):
        """One JSON list per line: id, name, start, end, parent id, row."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                parent = ids[id(s.parent)] if s.parent is not None else None
                fh.write(json.dumps([i, s.name, s.start, s.end, parent, s.row]) + "\n")


# layer -> predicate on span names
def _module(prefix):
    return lambda name: name.startswith(prefix + ".")


def _names(*names):
    return lambda name: name in names


GROUPS = {
    "linalg": _module("linalg"),
    "linalg.condense": _names("linalg.schur_condense"),
    "linalg.eig": _names("linalg.sym_generalized_eig"),
    "linalg.cholesky": _names("linalg.cholesky"),
    "fem.solve_spectrum": _names("fem.solve_spectrum"),
    "fem.assemble": _names("fem.assemble"),
    "mesher": _module("mesher"),
    "geometry": _module("geometry"),
    "shape_deriv.fd_oracle": _names("shape_deriv.fd_branch_oracle"),
    "shape_deriv.matrix": _names(
        "shape_deriv.annulus_coeffs", "shape_deriv.annulus_matrices",
        "shape_deriv.split_radial", "shape_deriv.ball_matrix",
        "shape_deriv.perimeter_derivative", "shape_deriv.normalized_derivative"),
    "analytic": _module("analytic"),
    "experiments": _module("experiments"),
    "cli": _module("cli"),
}


def layer_metrics(spans, passes):
    """Per-pass layer numbers from a traced run of ``passes`` passes.

    busy_s counts a layer's outermost spans (nested calls inside the same
    layer are not counted twice), self_s subtracts the time of child spans,
    calls counts entries into the layer from outside it.
    """
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[id(s.parent)] = child_time.get(id(s.parent), 0.0) + (s.end - s.start)

    def self_time(s):
        return (s.end - s.start) - child_time.get(id(s), 0.0)

    out = {}
    for layer, member in GROUPS.items():
        busy = own = 0.0
        calls = 0
        peak = 0.0
        for s in spans:
            if not member(s.name):
                continue
            own += self_time(s)
            peak = max(peak, (s.peak - s.base) / MB)
            outer = s.parent
            while outer is not None and not member(outer.name):
                outer = outer.parent
            if outer is None:
                busy += s.end - s.start
                calls += 1
        out[layer] = {"busy_s": busy / passes, "self_s": own / passes,
                      "calls": calls / passes, "peak_alloc_mb": peak}

    counts = {}
    for s in spans:
        for key, value in (s.counts or {}).items():
            if key in ("dofs", "boundary_dofs", "dense_mb"):
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value / passes

    roots = [s for s in spans if s.name == ROOT]
    pass_time = sum(s.end - s.start for s in roots)
    covered = sum(self_time(s) for s in spans if not s.name.startswith("bench."))
    solves = out["fem.solve_spectrum"]["calls"]
    return {
        "linalg.condense.busy_s": out["linalg.condense"]["busy_s"],
        "linalg.condense.calls": out["linalg.condense"]["calls"],
        "linalg.rhs_columns": counts.get("rhs_columns", 0),
        "linalg.dense_mb": counts.get("dense_mb", 0.0),
        "linalg.eig.self_s": out["linalg.eig"]["self_s"],
        "linalg.cholesky.busy_s": out["linalg.cholesky"]["busy_s"],
        "linalg.peak_alloc_mb": out["linalg"]["peak_alloc_mb"],
        "fem.solve_spectrum.peak_alloc_mb": out["fem.solve_spectrum"]["peak_alloc_mb"],
        "fem.solve_spectrum.self_s": out["fem.solve_spectrum"]["self_s"],
        "fem.solve_spectrum.calls": solves,
        "fem.dofs": counts.get("dofs", 0),
        "fem.boundary_dofs": counts.get("boundary_dofs", 0),
        "fem.assemble.busy_s": out["fem.assemble"]["busy_s"],
        "fem.assemble.calls": out["fem.assemble"]["calls"],
        "mesher.busy_s": out["mesher"]["busy_s"],
        "mesher.calls": out["mesher"]["calls"],
        "mesher.triangles": counts.get("triangles", 0),
        "mesher.calls_per_solve": out["mesher"]["calls"] / solves if solves else 0.0,
        "geometry.busy_s": out["geometry"]["busy_s"],
        "geometry.calls": out["geometry"]["calls"],
        "shape_deriv.fd_oracle.self_s": out["shape_deriv.fd_oracle"]["self_s"],
        "shape_deriv.fd_oracle.calls": out["shape_deriv.fd_oracle"]["calls"],
        "shape_deriv.matrix.busy_s": out["shape_deriv.matrix"]["busy_s"],
        "shape_deriv.matrix.calls": out["shape_deriv.matrix"]["calls"],
        "analytic.busy_s": out["analytic"]["busy_s"],
        "analytic.calls": out["analytic"]["calls"],
        "experiments.self_s": out["experiments"]["self_s"],
        "cli.self_s": out["cli"]["self_s"],
        "cli.calls": out["cli"]["calls"],
        "trace.coverage": covered / pass_time if pass_time else 0.0,
    }
