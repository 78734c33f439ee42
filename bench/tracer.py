"""Spans around the calls into each dephnet module, recorded from the
benchmark's side.

`install` wraps every public function of each dephnet module and
rebinds every name that refers to it (the defining module, modules
that imported it by name, and the package namespace). It also wraps
the numpy.linalg and scipy.integrate calls that `steady_state` makes,
and makes the sweep and calibration thread pools hand the submitting
span to their workers, so worker spans attach to the sweep's span.

A span is (id, parent, name, start, end, attrs). Spans stay in memory
until `dump` writes them out.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

MODULES = ("graphs", "generator", "steady_state", "observables", "registry",
           "calibrate", "experiments", "output", "cli")


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        """Innermost open span of this thread (or the span that handed
        work to this worker thread); 0 at top level."""
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "inherited", 0)

    def wrap(self, name, fn, prepare=None, after=None):
        """`prepare(args, kwargs) -> (args, kwargs, attrs)` runs before
        the call, `after(args, kwargs, result) -> attrs` after it."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = None
            if prepare is not None:
                args, kwargs, attrs = prepare(args, kwargs)
            parent = self.current()
            sid = next(self._ids)
            stack = self._stack()
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans.append((sid, parent, name, start,
                                   time.perf_counter(), attrs))
                stack.pop()
                raise
            end = time.perf_counter()
            stack.pop()
            if after is not None:
                attrs = after(args, kwargs, result)
            self.spans.append((sid, parent, name, start, end, attrs))
            return result
        return traced

    def pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run(*a, **k):
                    tracer._local.inherited = parent
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer._local.inherited = 0
                return super().submit(run, *args, **kwargs)
        return TracedPool


def dump(path, spans, extra=None) -> None:
    """Write spans (and any extra keys) as one JSON object."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": spans, **(extra or {})}, fh)


class _Proxy:
    """Module stand-in: the names in `wrapped` are replaced, the rest
    are looked up on the real module."""

    def __init__(self, target, wrapped):
        self._target = target
        self._wrapped = wrapped

    def __getattr__(self, name):
        if name in self._wrapped:
            return self._wrapped[name]
        return getattr(self._target, name)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _file_size(path) -> int:
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


def _hooks():
    def candidates(args, kwargs):
        family = list(_arg(args, kwargs, 0, "family"))
        rest = args[1:] if args else ()
        kwargs = {k: v for k, v in kwargs.items() if k != "family"}
        return (family, *rest), kwargs, {"candidates": len(family)}

    def records_bytes(args, kwargs, _result):
        return {"bytes": _file_size(_arg(args, kwargs, 1, "path"))}

    def chart_bytes(args, kwargs, result):
        return {"bytes": _file_size(_arg(args, kwargs, 2, "path")) if result else 0}

    def model_time(args, kwargs, _result):
        return {"t_end": float(_arg(args, kwargs, 2, "t_end"))}

    return {
        "calibrate.calibrate_topology": {"prepare": candidates},
        "output.write_records": {"after": records_bytes},
        "output.render_chart": {"after": chart_bytes},
        "steady_state.evolve": {"after": model_time},
    }


def install(tracer: Tracer) -> None:
    import numpy as np

    import dephnet

    mods = {name: importlib.import_module(f"dephnet.{name}") for name in MODULES}
    hooks = _hooks()
    wrapped = {}
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            name = f"{short}.{attr}"
            wrapped[id(obj)] = (obj, tracer.wrap(name, obj, **hooks.get(name, {})))
    for namespace in (dephnet, *mods.values()):
        for attr, obj in list(vars(namespace).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(namespace, attr, hit[1])

    ss = mods["steady_state"]

    def svd_shape(args, kwargs, _result):
        return {"shape": list(_arg(args, kwargs, 0, "a").shape)}

    linalg = _Proxy(np.linalg, {
        "svd": tracer.wrap("numpy.linalg.svd", np.linalg.svd, after=svd_shape),
        "solve": tracer.wrap("numpy.linalg.solve", np.linalg.solve),
        "eigvalsh": tracer.wrap("numpy.linalg.eigvalsh", np.linalg.eigvalsh),
    })
    ss.np = _Proxy(np, {"linalg": linalg,
                        "polyfit": tracer.wrap("numpy.polyfit", np.polyfit)})
    ss.solve_ivp = tracer.wrap(
        "scipy.integrate.solve_ivp", ss.solve_ivp,
        after=lambda a, k, sol: {"nfev": int(sol.nfev)})
    pool = tracer.pool_class()
    for short in ("experiments", "calibrate"):
        mods[short].ThreadPoolExecutor = pool


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def _union_length(intervals, lo, hi) -> float:
    total, cursor = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def _svd_flops(shape) -> float:
    """Full SVD (U, S, V) of an m x n matrix, m >= n, by Golub-Reinsch:
    4 m^2 n + 8 m n^2 + 9 n^3 flops (Golub & Van Loan, table 8.6.1)."""
    m, n = max(shape), min(shape)
    return 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n ** 3


def layer_metrics(spans, rounds: int) -> dict:
    """Per-round totals of every span-based per-layer metric."""
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)

    def dur(s):
        return s[4] - s[3]

    def self_time(s):
        return dur(s) - _union_length([(c[3], c[4]) for c in children.get(s[0], ())],
                                      s[3], s[4])

    def has_ancestor(s, prefix):
        parent = by_id.get(s[1])
        while parent is not None:
            if parent[2].startswith(prefix):
                return True
            parent = by_id.get(parent[1])
        return False

    def named(name):
        return [s for s in spans if s[2] == name]

    def total_ms(name):
        return 1e3 * sum(dur(s) for s in named(name))

    def attr_sum(name, key):
        return sum((s[5] or {}).get(key, 0) for s in named(name))

    exp = [s for s in spans if s[2].startswith("experiments.")]
    outer_exp = sum(dur(s) for s in exp if not has_ancestor(s, "experiments."))
    solves_in_exp = sum(dur(s) for s in named("steady_state.solve_ness_direct")
                        if has_ancestor(s, "experiments."))
    svds = named("numpy.linalg.svd")
    shapes = [s[5]["shape"] for s in svds if s[5]]  # None when svd raised
    metrics = {
        "cli.main_ms": total_ms("cli.main"),
        "experiments.self_ms": 1e3 * sum(self_time(s) for s in exp),
        "experiments.solve_overlap": solves_in_exp / outer_exp if outer_exp else 0.0,
        "calibrate.calibrate_topology_ms": total_ms("calibrate.calibrate_topology"),
        "calibrate.candidates": attr_sum("calibrate.calibrate_topology", "candidates"),
        "output.write_records_ms": total_ms("output.write_records"),
        "output.render_chart_ms": total_ms("output.render_chart"),
        "output.bytes_written": attr_sum("output.write_records", "bytes")
        + attr_sum("output.render_chart", "bytes"),
        "observables.relative_entropy_coherence_ms":
            total_ms("observables.relative_entropy_coherence"),
        "generator.assemble_generator_ms": total_ms("generator.assemble_generator"),
        "generator.vectorize_generator_ms": total_ms("generator.vectorize_generator"),
        "generator.vectorize_generator_calls": len(named("generator.vectorize_generator")),
        "steady_state.solve_ness_direct_self_ms":
            1e3 * sum(self_time(s) for s in named("steady_state.solve_ness_direct")),
        "steady_state.solve_ness_direct_calls": len(named("steady_state.solve_ness_direct")),
        "kernel.svd_ms": total_ms("numpy.linalg.svd"),
        "kernel.svd_calls": len(svds),
        "kernel.system_mb_computed": sum(8.0 * m * n for m, n in shapes) / 1e6,
        "kernel.svd_gflop_computed": sum(_svd_flops(shape) for shape in shapes) / 1e9,
        "steady_state.evolve_ms": total_ms("steady_state.evolve"),
        "steady_state.evolve_calls": len(named("steady_state.evolve")),
        "steady_state.rhs_evals": attr_sum("scipy.integrate.solve_ivp", "nfev"),
        "steady_state.model_time": attr_sum("steady_state.evolve", "t_end"),
        "steady_state.detect_divergence_ms": total_ms("steady_state.detect_divergence"),
    }
    return {k: v / rounds if k != "experiments.solve_overlap" else v
            for k, v in metrics.items()}
