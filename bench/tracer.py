"""Layer tracer for c0ip_control, installed from outside the program.

The tracer replaces every function named in a module's ``__all__`` with a
wrapper that records a span (name, start, end, parent) in memory, at every
c0ip_control module that binds that name, so calls through re-exports are
caught too. Classes are left alone, so ``isinstance`` checks keep working;
the time spent constructing them counts to the calling span. SuperLU
factorizations and their back-solves are recorded through a proxy of
``scipy.sparse.linalg.splu``.

A span's name is ``<module>.<function>``; its self time is its duration minus
the part of that interval covered by its child spans, and goes to the module
named by the prefix. The self times of all spans therefore sum to the
durations of the top-level spans. A function that a later version of the
program removes is simply not wrapped, and the metrics derived from it are
absent rather than zero.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import time
import types
from collections import Counter

import numpy as np

PACKAGE = "c0ip_control"

# callables outside any ``__all__`` that are layer boundaries too
EXTRA_TARGETS = ["assembly.element_geometry", "solver.evaluate_p2",
                 "cases.ManufacturedCase.control_error"]

SPLU_SPAN = "solver.splu"
LU_SOLVE_SPAN = "solver.lu_solve"


def _arguments(func, args, kwargs):
    return inspect.signature(func).bind(*args, **kwargs).arguments


def _probe_bisect(counters, func, args, kwargs, result):
    bound = _arguments(func, args, kwargs)
    bisections = result.num_triangles - bound["mesh"].num_triangles
    counters["mesh.bisections"] += bisections
    counters["mesh.triangles_created"] += 2 * bisections
    counters["mesh.marked"] += len(np.unique(np.asarray(list(bound["marked"]),
                                                        dtype=int)))


def _probe_dofmap(counters, func, args, kwargs, result):
    counters["fem.free_dofs_total"] += result.nfree


def _probe_pdas(counters, func, args, kwargs, result):
    counters["solver.pdas_iterations"] += result.iterations


def _probe_evaluate_p2(counters, func, args, kwargs, result):
    counters["solver.evaluate_p2_points"] += int(
        np.size(_arguments(func, args, kwargs)["x"]))


def _probe_adaptive(counters, func, args, kwargs, result):
    counters["adaptive.levels"] += len(result.records)


# span name -> (probe reading a wrapped call's arguments and result,
#               the counters it keeps)
PROBES = {
    "mesh.bisect": (_probe_bisect, ["mesh.bisections",
                                    "mesh.triangles_created",
                                    "mesh.marked"]),
    "fem.build_dofmap": (_probe_dofmap, ["fem.free_dofs_total"]),
    "solver.solve_pdas": (_probe_pdas, ["solver.pdas_iterations"]),
    "solver.evaluate_p2": (_probe_evaluate_p2,
                           ["solver.evaluate_p2_points"]),
    "adaptive.run_adaptive": (_probe_adaptive, ["adaptive.levels"]),
    SPLU_SPAN: (None, ["solver.factorizations", "solver.factor_rows",
                       "solver.lu_fill_nnz", "solver.lu_solves"]),
}


class _FactorProxy:
    """SuperLU object whose ``solve`` is recorded as a span."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        self._tracer.counters["solver.lu_solves"] += 1
        with self._tracer.span(LU_SOLVE_SPAN):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Spans and counters of one traced run; ``install`` patches, ``uninstall``
    restores every patched attribute."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counters = Counter()
        self.wrapped = set()     # span names that exist in this program
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrap(self, name, func):
        probe = PROBES.get(name, (None, []))[0]
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = func(*args, **kwargs)
            if probe is not None:
                probe(tracer.counters, func, args, kwargs, result)
            return result

        self.wrapped.add(name)
        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        package = importlib.import_module(PACKAGE)
        modules = {info.name: importlib.import_module(
                       "%s.%s" % (PACKAGE, info.name))
                   for info in pkgutil.iter_modules(package.__path__)}
        bindings = [package] + list(modules.values())
        wrappers = {}           # original function -> wrapper
        for short, module in sorted(modules.items()):
            for attr in getattr(module, "__all__", []):
                func = getattr(module, attr, None)
                if isinstance(func, types.FunctionType) and \
                        func not in wrappers:
                    wrappers[func] = self._wrap("%s.%s" % (short, attr), func)
        for target in EXTRA_TARGETS:
            short, *path = target.split(".")
            owner = modules.get(short)
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            func = getattr(owner, path[-1], None)
            if isinstance(func, types.FunctionType) and func not in wrappers:
                wrapper = self._wrap("%s.%s" % (short, path[-1]), func)
                wrappers[func] = wrapper
                if isinstance(owner, type):
                    self._patch(owner, path[-1], wrapper)
        for module in bindings:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and \
                        value in wrappers:
                    self._patch(module, attr, wrappers[value])
        self._install_splu(bindings)
        return self

    def _install_splu(self, bindings):
        import scipy.sparse.linalg as spla
        original = spla.splu
        tracer = self

        @functools.wraps(original)
        def splu(matrix, *args, **kwargs):
            with tracer.span(SPLU_SPAN):
                lu = original(matrix, *args, **kwargs)
            tracer.counters["solver.factorizations"] += 1
            tracer.counters["solver.factor_rows"] += matrix.shape[0]
            # entries SuperLU stores for L and U together (supernodal
            # storage), read without copying the factors out
            tracer.counters["solver.lu_fill_nnz"] += int(lu.nnz)
            return _FactorProxy(lu, tracer)

        self.wrapped.update((SPLU_SPAN, LU_SOLVE_SPAN))
        self._patch(spla, "splu", splu)
        for module in bindings:
            if getattr(module, "splu", None) is original:
                self._patch(module, "splu", splu)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def dump(self):
        """JSON-ready record of everything the run traced."""
        return {"spans": self.spans, "counters": dict(self.counters),
                "wrapped": sorted(self.wrapped)}


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans):
    """Per-span self time: duration minus the union of its children."""
    children = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - _covered(children[i])
            for i, (name, start, end, parent) in enumerate(spans)]


def inclusive_times(spans):
    """Per-name wall time, counting a span only if no ancestor shares its
    name, so recursion is not counted twice; plus per-name call counts."""
    seconds, calls = Counter(), Counter()
    for name, start, end, parent in spans:
        calls[name] += 1
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            seconds[name] += end - start
    return seconds, calls


def layer_metrics(trace):
    """Per-layer metrics from a ``Tracer.dump()`` record.

    Returns a dict of ``<span>_s`` and ``<span>_calls`` for every wrapped
    name, ``<module>.self_s`` for every module, the probe counters, and the
    derived ratios. Names the program no longer has are absent.
    """
    spans, counters = trace["spans"], trace["counters"]
    wrapped = trace["wrapped"]
    seconds, calls = inclusive_times(spans)
    metrics = {}
    for name in wrapped:
        metrics[name + "_s"] = seconds.get(name, 0.0)
        metrics[name + "_calls"] = calls.get(name, 0)
    modules = {name.split(".")[0] for name in wrapped}
    self_by_module = Counter()
    for span, own in zip(spans, self_times(spans)):
        self_by_module[span[0].split(".")[0]] += own
    for module in modules:
        metrics[module + ".self_s"] = self_by_module.get(module, 0.0)
    for name, (_, keys) in PROBES.items():
        if name in wrapped:
            metrics.update({key: counters.get(key, 0) for key in keys})
    if "mesh.bisect" in wrapped:
        marked = counters.get("mesh.marked", 0)
        metrics["mesh.closure_ratio"] = (
            counters.get("mesh.bisections", 0) / marked if marked else 0.0)
    io_writes = [n for n in wrapped if n.startswith("io.write")]
    if io_writes:
        metrics["io.write_s"] = sum(seconds.get(n, 0.0) for n in io_writes)
    metrics["trace.self_sum_s"] = sum(self_by_module.values())
    metrics["trace.spans"] = len(spans)
    return metrics

