"""Spans recorded from outside the package, and their roll-up into the
per-layer metrics.

The traced pass replaces module attributes with timing wrappers, so each
wrapper sits at the name its callers actually look up (``fredholm`` calls
``np.linalg.slogdet``, so ``numpy.linalg.slogdet`` is replaced).  Each span
records its name, layer, start, end, parent span and run id; spans stay in
memory and are dumped when the round ends.  The package itself is never
edited.

Pool workers are forked from the traced process, so they inherit the
wrappers; ``TracedPool`` returns the spans a worker records together with
each task result.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

MAIN_RUN = "main"

# A forked pool worker finds the recorder of its parent here.
_ACTIVE = None


class Recorder:
    """In-memory span store with the stack of currently open spans."""

    def __init__(self):
        self.run = MAIN_RUN
        self.spans = []
        self.stack = []
        self._ids = itertools.count()
        self._patched = []

    def open(self, name: str, layer: str) -> dict:
        span = {"id": f"{self.run}:{next(self._ids)}", "name": name,
                "layer": layer, "run": self.run,
                "parent": self.stack[-1]["id"] if self.stack else None,
                "start": time.monotonic(), "end": None, "counts": {}}
        self.stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.monotonic()
        if self.stack and self.stack[-1] is span:
            self.stack.pop()
        self.spans.append(span)

    def wrap(self, fn, name: str, layer: str, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                span["counts"] = counter(args, kwargs, result)
            return result
        return traced

    def install(self, table) -> list:
        """Patch every (module, attribute) of ``table``; returns the names
        that do not exist in this version of the package."""
        global _ACTIVE
        missing = []
        for module_name, attr, name, layer, counter in table:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, layer, counter))
        harness = importlib.import_module("airypng.harness")
        if hasattr(harness, "ProcessPoolExecutor"):
            self._patched.append((harness, "ProcessPoolExecutor",
                                  harness.ProcessPoolExecutor))
            harness.ProcessPoolExecutor = TracedPool
        _ACTIVE = self
        return missing

    def uninstall(self) -> None:
        global _ACTIVE
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        _ACTIVE = None


def _pool_task(parent_id, fn, arg):
    """Run one pool task in a forked worker and hand back its spans."""
    rec = _ACTIVE
    rec.run = f"worker-{os.getpid()}"
    rec.stack = []
    mark = len(rec.spans)
    task = rec.open("harness.pool_task", "harness")
    task["parent"] = parent_id
    try:
        result = fn(arg)
    finally:
        rec.close(task)
    spans = rec.spans[mark:]
    del rec.spans[mark:]
    return result, spans


class TracedPool(ProcessPoolExecutor):
    """ProcessPoolExecutor whose life is one ``harness.pool`` span and whose
    tasks return the spans recorded in the workers."""

    def __init__(self, max_workers=None, *args, **kwargs):
        super().__init__(max_workers, *args, **kwargs)
        self._span = _ACTIVE.open("harness.pool", "harness")
        self._span["counts"] = {"workers": self._max_workers}

    def map(self, fn, *iterables, timeout=None, chunksize=1):
        task = functools.partial(_pool_task, self._span["id"], fn)
        out = []
        for result, spans in super().map(task, *iterables, timeout=timeout,
                                         chunksize=chunksize):
            _ACTIVE.spans.extend(spans)
            out.append(result)
        return iter(out)

    def shutdown(self, *args, **kwargs):
        try:
            super().shutdown(*args, **kwargs)
        finally:
            if self._span["end"] is None:
                _ACTIVE.close(self._span)


# ---------------------------------------------------------------------------
# What gets wrapped.  Counters read sizes from arguments and results, so
# every count repeats exactly for a given seed.
# ---------------------------------------------------------------------------

def _points(args, kwargs, result):
    return {"points": int(np.size(args[0]))}


def _one_point(args, kwargs, result):
    return {"points": 1}


def _operator(args, kwargs, result):
    return {"order": int(result.block_matrix.shape[0])}


def _slogdet(args, kwargs, result):
    a = np.asarray(args[0])
    n = a.shape[-1]
    batch = a.size // (n * n) if n else 0
    return {"order": int(n), "gflop": batch * (2.0 / 3.0) * n ** 3 / 1e9}


def _evolve(args, kwargs, result):
    _q, n_steps, _seed, _tag, replicas, positions = args[:6]
    T = int(n_steps)
    B = len(replicas)
    N = (T + 1) // 2
    k = np.asarray(positions, dtype=float) / 2.0
    rect = (N + float(k.max())) * (N - float(k.min()))
    draws = B * T * (T + 1) // 2
    return {"replicas": B, "uniforms": draws,
            "noise_bytes": draws * 12, "light_cone_draws": B * rect}


def _lpp_table(args, kwargs, result):
    return {"cells": int(np.size(args[0]))}


def _experiment(args, kwargs, result):
    if hasattr(result, "conditioned_count"):
        return {"conditioned": int(result.conditioned_count),
                "simulated": int(args[0].replicas)}
    return {}


# (module, attribute, span name, layer, counter)
WRAPPED = [
    ("airypng.fredholm", "airy_ai_aip_vec", "special.airy", "special",
     _points),
    ("airypng.airy_kernel", "airy_ai_aip_vec", "special.airy", "special",
     _points),
    ("airypng.airy_kernel", "airy_ai", "special.airy", "special", _one_point),
    ("airypng.airy_kernel", "airy_ai_prime", "special.airy", "special",
     _one_point),
    ("airypng.fredholm", "panel_rule", "special.quadrature", "special", None),
    ("airypng.fredholm", "gauss_legendre", "special.quadrature", "special",
     None),
    ("airypng.airy_kernel", "panel_rule", "special.quadrature", "special",
     None),

    ("airypng.airy_kernel", "extended_airy_kernel", "airy_kernel.kernel",
     "airy_kernel", None),
    ("airypng.airy_kernel", "a_tilde", "airy_kernel.kernel", "airy_kernel",
     None),

    ("airypng.fredholm", "tw2_cdf", "fredholm.tw2", "fredholm", None),
    ("airypng.fredholm", "tw2_pdf", "fredholm.tw2", "fredholm", None),
    ("airypng.fredholm", "_tw2_moments", "fredholm.tw2", "fredholm", None),
    ("airypng.fredholm", "gap_probability", "fredholm.gap", "fredholm", None),
    ("airypng.fredholm", "_operator_from_legs", "fredholm.operator",
     "fredholm", _operator),
    ("airypng.fredholm", "conditional_window_probability",
     "fredholm.conditional", "fredholm", None),
    ("airypng.fredholm", "increment_variance", "fredholm.variance",
     "fredholm", None),
    ("airypng.fredholm", "_covariance", "fredholm.covariance", "fredholm",
     None),

    ("numpy.linalg", "slogdet", "linalg.slogdet", "linalg", _slogdet),

    ("airypng.harness", "evolve_batch_heights", "png_sim.batch", "png_sim",
     _evolve),
    ("airypng.png_sim", "png_step", "png_sim.step", "png_sim", None),
    ("airypng.png_sim", "last_passage_table", "png_sim.lpp", "png_sim",
     _lpp_table),
    ("airypng.png_sim", "last_passage_batch", "png_sim.lpp", "png_sim",
     _lpp_table),
    ("airypng.png_sim", "coupling_check", "png_sim.coupling", "png_sim",
     None),

    ("airypng.png_kernel", "ktilde_matrix", "png_kernel.ktilde",
     "png_kernel", None),
    ("numpy.fft", "fft", "png_kernel.fft", "png_kernel", _points),
    ("numpy.fft", "ifft", "png_kernel.fft", "png_kernel", _points),
    ("airypng.png_kernel", "joint_gap_probability", "png_kernel.gap",
     "png_kernel", None),
    ("airypng.png_kernel", "discrete_gap_probability", "png_kernel.gap",
     "png_kernel", None),

    ("airypng.harness", "run_png_brownian_experiment", "harness.experiment",
     "harness", _experiment),
    ("airypng.harness", "run_airy_brownian_experiment", "harness.experiment",
     "harness", _experiment),
    ("airypng.harness", "_tw2_for_ks", "harness.ks", "harness", None),
    ("airypng.harness", "ks_distance", "harness.ks", "harness", None),

    ("airypng.cli", "main", "cli.main", "cli", None),
    ("airypng.cli", "write_csv", "cli.write", "cli", None),
]

LAYERS = ("special", "airy_kernel", "fredholm", "linalg", "png_sim",
          "png_kernel", "harness", "cli", "bench")


# ---------------------------------------------------------------------------
# Roll-up.
# ---------------------------------------------------------------------------

def _has_ancestor(span, by_id, names) -> bool:
    parent = by_id.get(span["parent"])
    while parent is not None:
        if parent["name"] in names:
            return True
        parent = by_id.get(parent["parent"])
    return False


def _ratio(num, den, scale=1.0) -> float:
    return scale * num / den if den else 0.0


def rollup(spans) -> dict:
    """Per-layer metrics of one traced round.

    Self time is taken along the main process: a span's duration minus the
    durations of its main-process children (calls there are sequential).
    The round itself is the ``bench.round`` span, so the self times of all
    layers sum to its duration.  Worker spans count as busy time only.
    """
    by_id = {s["id"]: s for s in spans}
    main = [s for s in spans if s["run"] == MAIN_RUN]
    child_time = {}
    for s in main:
        if s["parent"] is not None:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + s["end"] - s["start"])
    self_s = dict.fromkeys(LAYERS, 0.0)
    for s in main:
        self_s[s["layer"]] += (s["end"] - s["start"]
                               - child_time.get(s["id"], 0.0))

    def named(name, pool=spans):
        return [s for s in pool if s["name"] == name]

    def total(name, key, pool=spans):
        return sum(s["counts"].get(key, 0) for s in named(name, pool))

    def busy(*names):
        """Summed duration of the outermost spans with these names."""
        return sum(s["end"] - s["start"] for s in spans
                   if s["name"] in names
                   and not _has_ancestor(s, by_id, names))

    roots = named("bench.round", main)
    wall = sum(s["end"] - s["start"] for s in roots)

    airy_points = total("special.airy", "points")
    airy_s = busy("special.airy")
    slog_gflop = total("linalg.slogdet", "gflop")
    slog_s = busy("linalg.slogdet")
    batch_s = busy("png_sim.batch")
    uniforms = total("png_sim.batch", "uniforms")
    pools = named("harness.pool", main)
    pool_capacity = sum((s["end"] - s["start"]) * s["counts"]["workers"]
                        for s in pools)
    task_s = sum(s["end"] - s["start"] for s in named("harness.pool_task"))
    metrics = {
        "special.airy_points": airy_points,
        "special.airy_s": airy_s,
        "special.ns_per_point": _ratio(airy_s, airy_points, 1e9),
        "airy_kernel.kernel_calls": len(named("airy_kernel.kernel")),
        "airy_kernel.kernel_s": busy("airy_kernel.kernel"),
        "fredholm.operators": len(named("fredholm.operator")),
        "fredholm.operator_nodes": total("fredholm.operator", "order"),
        "fredholm.tw2_s": busy("fredholm.tw2"),
        "fredholm.covariance_s": busy("fredholm.covariance"),
        "fredholm.conditional_s": busy("fredholm.conditional"),
        "linalg.slogdet_calls": len(named("linalg.slogdet")),
        "linalg.slogdet_gflop": slog_gflop,
        "linalg.slogdet_s": slog_s,
        "linalg.gflop_per_s": _ratio(slog_gflop, slog_s),
        "png_sim.batches": len(named("png_sim.batch")),
        "png_sim.uniforms": uniforms,
        "png_sim.batch_s": batch_s,
        "png_sim.ns_per_uniform": _ratio(batch_s, uniforms, 1e9),
        "png_sim.noise_buffer_mb": max(
            [s["counts"]["noise_bytes"] for s in named("png_sim.batch")],
            default=0) / 1e6,
        "png_sim.useful_draw_ratio": _ratio(
            total("png_sim.batch", "light_cone_draws"), uniforms),
        "png_sim.coupling_checks": len(named("png_sim.coupling")),
        "png_sim.steps": len(named("png_sim.step")),
        "png_sim.step_s": busy("png_sim.step"),
        "png_sim.lpp_cells": total("png_sim.lpp", "cells"),
        "png_sim.lpp_s": busy("png_sim.lpp"),
        "png_kernel.ktilde_calls": len(named("png_kernel.ktilde")),
        "png_kernel.fft_points": total("png_kernel.fft", "points"),
        "png_kernel.ktilde_s": busy("png_kernel.ktilde"),
        "png_kernel.gap_s": busy("png_kernel.gap"),
        "harness.ks_tw2_values": sum(
            1 for s in named("fredholm.tw2")
            if _has_ancestor(s, by_id, {"harness.ks"})
            and not _has_ancestor(s, by_id, {"fredholm.tw2"})),
        "harness.ks_s": busy("harness.ks"),
        "harness.conditioned_ratio": _ratio(
            total("harness.experiment", "conditioned"),
            total("harness.experiment", "simulated")),
        "harness.pool_efficiency": _ratio(task_s, pool_capacity),
        "cli.invocations": len(named("cli.main")),
        "cli.write_s": busy("cli.write"),
        "trace.wall_s": wall,
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
    return metrics
