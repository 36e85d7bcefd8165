"""Traced runs: spans around the calls into each layer, made from outside.

``install`` wraps the public names each layer exports, at the place the
calling module looks them up: ``RandomSource.normals``, the steppers that
``harness.make_stepper`` returns, the model's ``grad`` (through
``harness.builtin_potential`` and the workload's own model), the metric and
writer functions the harness imports, the ``analysis`` oracles and
``cli.main``. Spans and counts stay in memory until ``write``.

A span's self time is its duration minus the part of it that its child
spans cover. A span opened on a pool thread with nothing open on that
thread is a child of the innermost span open on the installing thread.
"""

from __future__ import annotations

import dataclasses
import math
import os
import statistics
import threading
import time
from collections import Counter, defaultdict

import numpy as np
from hfhr import analysis, cli, harness, potentials, rng, samplers

# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = (
    ("rng.normals_s", "s", "lower"),
    ("rng.normals_drawn", "count", "lower"),
    ("rng.ns_per_normal", "ns", "lower"),
    ("potentials.grad_s", "s", "lower"),
    ("potentials.grad_rows", "count", "lower"),
    ("potentials.ns_per_grad_coord", "ns", "lower"),
    ("samplers.step_self_s", "s", "lower"),
    ("samplers.steps", "count", "lower"),
    ("samplers.hfhr_strang.ns_per_coord_step", "ns", "lower"),
    ("samplers.uld_klmc.ns_per_coord_step", "ns", "lower"),
    ("samplers.ula.ns_per_coord_step", "ns", "lower"),
    ("samplers.hfhr_em.ns_per_coord_step", "ns", "lower"),
    ("samplers.step_overhead_us", "us", "lower"),
    ("metrics.w2_gaussian_s", "s", "lower"),
    ("metrics.w2_gaussian_calls", "count", "lower"),
    ("analysis.step_affine_map_s", "s", "lower"),
    ("analysis.step_affine_map_calls", "count", "lower"),
    ("analysis.discrete_stationary_covariance_s", "s", "lower"),
    ("analysis.discrete_stationary_covariance_calls", "count", "lower"),
    ("analysis.gaussian_continuous_propagation_s", "s", "lower"),
    ("analysis.gaussian_continuous_propagation_calls", "count", "lower"),
    ("harness.run_experiment_self_s", "s", "lower"),
    ("harness.write_csv_s", "s", "lower"),
    ("harness.write_svg_s", "s", "lower"),
    ("harness.csv_bytes", "bytes", "lower"),
    ("harness.svg_bytes", "bytes", "lower"),
    ("harness.parse_config_s", "s", "lower"),
    ("harness.sweep_self_s", "s", "lower"),
    ("harness.sweep.pair_runs", "count", "lower"),
    ("harness.sweep.steps_run", "count", "lower"),
    ("harness.sweep.useful_step_ratio", "ratio", "higher"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# microbenchmark shapes: one block of chains at the highdim-pool dimension
BLOCK = (1000, 100)

# span name -> (module or class, attribute); ``make_stepper`` and
# ``builtin_potential`` are wrapped by hand below
_PLAIN = {
    "rng.normals": (rng.RandomSource, "normals"),
    "metrics.w2_gaussian": (harness, "w2_gaussian"),
    "harness.run_experiment": (harness, "run_experiment"),
    "harness.sweep": (harness, "sweep_iteration_complexity"),
    "harness.parse_config": (harness, "parse_config"),
    "harness.write_csv": (harness, "write_csv"),
    "harness.write_svg": (harness, "write_svg_plot"),
    "cli.main": (cli, "main"),
    "analysis.step_affine_map": (analysis, "step_affine_map"),
    "analysis.discrete_stationary_covariance": (analysis, "discrete_stationary_covariance"),
    "analysis.gaussian_continuous_propagation": (analysis, "gaussian_continuous_propagation"),
}


def _size_of_result(args, kwargs, result):
    return int(np.size(result))


def _rows_of_result(args, kwargs, result):
    shape = np.shape(result)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _coords_of_state(args, kwargs, result):
    return int(np.size(result.q))


def _file_size(index):
    def size(args, kwargs, result):
        path = kwargs.get("path", args[index] if len(args) > index else None)
        return os.path.getsize(path)

    return size


_SIZES = {
    "rng.normals": _size_of_result,
    "harness.write_csv": _file_size(1),
    "harness.write_svg": _file_size(2),
}


class Tracer:
    """Spans as [name, thread, start_ns, end_ns, parent, size] records."""

    def __init__(self):
        self.spans = []
        # one [alpha, seed, steps, mean of q after the last step] per stepper
        # made inside a sweep
        self.runs = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, size=None):
        spans, lock, now, root = self.spans, self._lock, time.perf_counter_ns, self._root

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (root[-1] if root else -1)
            rec = [name, threading.get_ident(), 0, 0, parent, 0]
            with lock:
                idx = len(spans)
                spans.append(rec)
            stack.append(idx)
            rec[2] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = now()
                stack.pop()
            if size is not None:
                rec[5] = size(args, kwargs, result)
            return result

        return traced

    def traced_model(self, model):
        return dataclasses.replace(
            model, grad=self.wrap("potentials.grad", model.grad, _rows_of_result)
        )

    def _traced_make_stepper(self, make_stepper):
        def bookkeep(run, state, source):
            run[1] = source.seed
            run[2] += 1
            run[3] = state.q.mean(axis=0)

        bookkeeping = self.wrap("trace.bookkeeping", bookkeep)

        def build(model, config):
            step = self.wrap("samplers.step", make_stepper(model, config), _coords_of_state)
            # the innermost open span is this make_stepper call; its parent
            # tells whether a sweep made the stepper
            parent = self.spans[self._stack()[-1]][4]
            in_sweep = parent >= 0 and self.spans[parent][0] == "harness.sweep"
            if not in_sweep:
                return step
            run = [config.alpha, None, 0, None]
            self.runs.append(run)

            def tracked(state, source):
                out = step(state, source)
                bookkeeping(run, out, source)
                return out

            return tracked

        return self.wrap("samplers.make_stepper", build)

    def write(self, path):
        threads = {}
        with open(path, "w") as fh:
            fh.write("index,name,thread,start_ns,end_ns,parent,size\n")
            for i, (name, thread, start, end, parent, size) in enumerate(self.spans):
                t = threads.setdefault(thread, len(threads))
                fh.write(f"{i},{name},{t},{start},{end},{parent},{size}\n")


def install(tracer, workload):
    """Wrap every traced name; returns a function that puts the originals back."""
    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    for name, (owner, attr) in _PLAIN.items():
        patch(owner, attr, tracer.wrap(name, getattr(owner, attr), _SIZES.get(name)))
    patch(harness, "make_stepper", tracer._traced_make_stepper(harness.make_stepper))
    original_builtin = harness.builtin_potential
    patch(harness, "builtin_potential",
          lambda *a, **k: tracer.traced_model(original_builtin(*a, **k)))
    patch(workload, "model", tracer.traced_model(workload.model))

    def restore():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)

    return restore


def _covered(spans, kids, start, end):
    """Length of [start, end] covered by the union of the child spans."""
    intervals = sorted((max(spans[k][2], start), min(spans[k][3], end)) for k in kids)
    total, cur_lo, cur_hi = 0, None, None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _useful_step_ratio(runs, goal, steps_run):
    """Steps of the runs that set each (alpha, seed) best, over all sweep steps."""
    if not steps_run or goal is None:
        return 0.0
    target, eps = goal
    best = {}
    for alpha, seed, steps, mean in runs:
        if mean is None or not np.all(np.isfinite(mean)):
            continue
        if np.linalg.norm(mean - target) <= eps:
            key = (alpha, seed)
            if key not in best or steps < best[key]:
                best[key] = steps
    return sum(best.values()) / steps_run


def layer_metrics(tracer, jobs, goal=None):
    """Per-job layer totals from the spans of ``jobs`` traced jobs."""
    spans = tracer.spans
    children = defaultdict(list)
    for i, rec in enumerate(spans):
        if rec[4] >= 0:
            children[rec[4]].append(i)
    total, own = Counter(), Counter()
    calls, size = Counter(), Counter()
    sweep_children = Counter()
    for i, (name, _, start, end, parent, sz) in enumerate(spans):
        kids = children.get(i)
        dur = end - start
        total[name] += dur
        own[name] += dur - (_covered(spans, kids, start, end) if kids else 0)
        calls[name] += 1
        size[name] += sz
        if parent >= 0 and spans[parent][0] == "harness.sweep":
            sweep_children[name] += 1

    def sec(counter, name):
        return counter[name] / 1e9 / jobs

    out = {
        "rng.normals_s": sec(total, "rng.normals"),
        "rng.normals_drawn": size["rng.normals"] / jobs,
        "potentials.grad_s": sec(total, "potentials.grad"),
        "potentials.grad_rows": size["potentials.grad"] / jobs,
        "samplers.step_self_s": sec(own, "samplers.step"),
        "samplers.steps": calls["samplers.step"] / jobs,
        "metrics.w2_gaussian_s": sec(total, "metrics.w2_gaussian"),
        "metrics.w2_gaussian_calls": calls["metrics.w2_gaussian"] / jobs,
        "harness.run_experiment_self_s": sec(own, "harness.run_experiment"),
        "harness.write_csv_s": sec(total, "harness.write_csv"),
        "harness.write_svg_s": sec(total, "harness.write_svg"),
        "harness.csv_bytes": size["harness.write_csv"] / jobs,
        "harness.svg_bytes": size["harness.write_svg"] / jobs,
        "harness.parse_config_s": sec(total, "harness.parse_config"),
        "harness.sweep_self_s": sec(own, "harness.sweep"),
        "harness.sweep.pair_runs": sweep_children["samplers.make_stepper"] / jobs,
        "harness.sweep.steps_run": sweep_children["samplers.step"] / jobs,
        # every traced job runs the same pairs, so per-job best steps over
        # per-job steps is the ratio over all jobs
        "harness.sweep.useful_step_ratio": _useful_step_ratio(
            tracer.runs, goal, sweep_children["samplers.step"] / jobs
        ),
        "cli.self_s": sec(own, "cli.main"),
    }
    for oracle in ("step_affine_map", "discrete_stationary_covariance", "gaussian_continuous_propagation"):
        out[f"analysis.{oracle}_s"] = sec(total, f"analysis.{oracle}")
        out[f"analysis.{oracle}_calls"] = calls[f"analysis.{oracle}"] / jobs
    return out


def _ns_per_call(fn, repeats=5, batch_s=0.02):
    start = time.perf_counter_ns()
    fn()
    once = max(time.perf_counter_ns() - start, 1)
    number = max(1, int(batch_s * 1e9 / once))
    batches = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for _ in range(number):
            fn()
        batches.append((time.perf_counter_ns() - start) / number)
    return statistics.median(batches)


def microbenchmarks(workload):
    """Per-call costs at block shape, taken untraced after the traced jobs."""
    source = rng.RandomSource(workload.seed, 0)
    out = {"rng.ns_per_normal": _ns_per_call(lambda: source.normals(BLOCK)) / math.prod(BLOCK)}
    x = np.full((BLOCK[0], workload.model.dim), 0.5)
    out["potentials.ns_per_grad_coord"] = _ns_per_call(lambda: workload.model.grad(x)) / x.size
    model = potentials.builtin_potential("quadratic_aniso", m=1.0, kappa=4.0, d=BLOCK[1])
    state = samplers.ChainState(q=np.full(BLOCK, 0.5), p=np.zeros(BLOCK))
    for kind in samplers.KINDS:
        config = samplers.SamplerConfig(kind=kind, step=0.1, gamma=2.0, alpha=1.0)
        step = samplers.make_stepper(model, config)
        out[f"samplers.{kind}.ns_per_coord_step"] = (
            _ns_per_call(lambda: step(state, source)) / state.q.size
        )
    tiny_model = potentials.builtin_potential("quadratic_iso", m=1.0, d=1)
    tiny = samplers.ChainState(q=np.ones((1, 1)), p=np.zeros((1, 1)))
    step = samplers.make_stepper(
        tiny_model, samplers.SamplerConfig(kind="hfhr_strang", step=0.1, gamma=2.0, alpha=1.0)
    )
    out["samplers.step_overhead_us"] = _ns_per_call(lambda: step(tiny, source)) / 1e3
    return out
