"""Spans around the public functions of the fracwiener layers.

``Tracer.install`` wraps every public function of each layer module (the
names in its ``__all__``) and every public method of its public classes.
A function imported with ``from .x import y`` is a separate binding in
the importing module, so each wrapper is bound at every module attribute
that holds the original.  Each call records one span: name, start, end,
parent span and thread id.  Each thread keeps its own span stack, because
``rng.map_path_blocks`` runs path blocks on a thread pool; spans opened on
a pool thread have no parent.  Spans stay in memory until ``records``
hands them out once, at the end of a run.

``aggregate`` turns the span records of one run into the per-layer
metrics of the benchmark.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "fracwiener"
LAYERS = ("rng", "chaos", "processes", "integrals", "sobolev", "spde", "experiments", "cli")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _integrand_norm_method(args, kwargs) -> str:
    return kwargs.get("method", args[3] if len(args) > 3 else "transform")


# span name -> function of the call arguments giving a sub-name
SPLIT = {"sobolev.integrand_norm": _integrand_norm_method}
# span name -> counter computed from the call arguments
COUNTERS = {
    "chaos.increment_block": ("normals", lambda args, kwargs, result: args[2] * args[0].n_cells),
    "spde.solve_mild": ("coeffs_mb", lambda args, kwargs, result: result.coeffs.nbytes / 2**20),
}
# spans that also record the rise of the process's peak RSS during the call
RSS_SPANS = {"spde.solve_mild", "spde.holder_exponent_estimate"}


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        split = SPLIT.get(name)
        counter = COUNTERS.get(name)
        track_rss = name in RSS_SPANS
        spans = self.spans
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            label = name if split is None else f"{name}.{split(args, kwargs)}"
            # [name, start, end, parent, thread id, extra counters]
            span = [label, 0.0, 0.0, stack[-1] if stack else None, threading.get_ident(), None]
            rss0 = _peak_rss_mb() if track_rss else 0.0
            stack.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                spans.append(span)
            extra = {}
            if counter is not None:
                extra[counter[0]] = counter[1](args, kwargs, result)
            if track_rss:
                extra["rss_mb"] = _peak_rss_mb() - rss0
            if extra:
                span[5] = extra
            return result

        return traced

    def install(self):
        """Wrap the public functions of every layer at every binding site."""
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            setattr(obj, meth, self.wrap(f"{layer}.{meth}", fn))
        for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == PACKAGE]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    setattr(mod, attr, wrappers[id(obj)])

    def records(self) -> list:
        """Spans as plain lists with integer ids: name, start, end, parent, tid, extra."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        return [
            [s[0], s[1], s[2], None if s[3] is None else ids[id(s[3])], s[4], s[5]]
            for s in self.spans
        ]


# ---------------------------------------------------------------------------
# per-layer metrics from span records


def aggregate(records: list, main_tid: int, run_s: float) -> dict:
    """Per-layer metrics of one traced run.

    ``X.s`` and ``X.calls`` sum every span of function ``X`` on all
    threads, so pool-thread work shows as busy time.  Self time is a
    span's duration minus that of its children; the ``<layer>.self_s``
    totals use the thread that called ``cli.main`` and, with the time
    outside ``cli.main``, add up to ``run_s``.
    """
    dur = [end - start for _, start, end, _, _, _ in records]
    child_s = [0.0] * len(records)
    map_child_s = [0.0] * len(records)
    for i, (name, _, _, parent, _, _) in enumerate(records):
        if parent is not None:
            child_s[parent] += dur[i]
            if name == "rng.map_path_blocks":
                map_child_s[parent] += dur[i]

    total = defaultdict(float)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    extra = defaultdict(float)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, (name, _, _, _, tid, ext) in enumerate(records):
        total[name] += dur[i]
        calls[name] += 1
        self_s[name] += dur[i] - child_s[i]
        if name == "processes.simulate_hermite_k2":
            extra["processes.simulate_hermite_k2.build_s"] += dur[i] - map_child_s[i]
        for key, value in (ext or {}).items():
            extra[f"{name}.{key}"] += value
        if tid == main_tid:
            layer_self[name.split(".")[0]] += dur[i] - child_s[i]

    metrics = {
        "processes.simulate_hermite_k2.s": total["processes.simulate_hermite_k2"],
        "processes.simulate_hermite_k2.calls": calls["processes.simulate_hermite_k2"],
        "processes.simulate_hermite_k2.build_s": extra["processes.simulate_hermite_k2.build_s"],
        "rng.map_path_blocks.s": total["rng.map_path_blocks"],
        "chaos.increment_block.s": total["chaos.increment_block"],
        "chaos.normals": extra["chaos.increment_block.normals"],
        "processes.simulate_fbm.s": total["processes.simulate_fbm"],
        "processes.simulate_fbm.calls": calls["processes.simulate_fbm"],
        "spde.solve_mild.self_s": self_s["spde.solve_mild"],
        "spde.solve_mild.coeffs_mb": extra["spde.solve_mild.coeffs_mb"],
        "spde.solve_mild.rss_mb": extra["spde.solve_mild.rss_mb"],
        "spde.holder_exponent_estimate.s": total["spde.holder_exponent_estimate"],
        "spde.holder_exponent_estimate.rss_mb": extra["spde.holder_exponent_estimate.rss_mb"],
        "sobolev.integrand_norm.transform.s": total["sobolev.integrand_norm.transform"],
        "sobolev.integrand_norm.transform.calls": calls["sobolev.integrand_norm.transform"],
        "sobolev.integrand_norm.covariance.s": total["sobolev.integrand_norm.covariance"],
        "sobolev.integrand_norm.covariance.calls": calls["sobolev.integrand_norm.covariance"],
        "sobolev.sobolev_norm_fourier.s": total["sobolev.sobolev_norm_fourier"],
        "spde.existence_report.s": total["spde.existence_report"],
        "spde.existence_report.calls": calls["spde.existence_report"],
        "spde.neumann_boundary_integral.s": total["spde.neumann_boundary_integral"],
        "spde.boundary_solution_check.s": total["spde.boundary_solution_check"],
        "integrals.gamma_norm_lp.s": total["integrals.gamma_norm_lp"],
        "integrals.isometry_report.s": total["integrals.isometry_report"],
        "experiments.run_experiment.s": total["experiments.run_experiment"],
        "cli.artifacts_s": total["cli.main"] - total["experiments.run_experiment"],
    }
    for layer, value in layer_self.items():
        metrics[f"{layer}.self_s"] = value
    metrics["trace.accounted_share"] = sum(layer_self.values()) / run_s
    metrics["trace.spans"] = len(records)
    return metrics
