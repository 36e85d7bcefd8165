"""The contract between the program and perfbench's tracer.

``perfbench/tracing.py`` wraps module attributes by name and reads what the
program hands its steppers (a sweep's noise must carry a ``seed``).  A
change that breaks that contract still passes an untraced run, so each
workload's small job is run traced here, with perfbench imported read-only
as its own tests import it.
"""

import math
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402
from hfhr import harness  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_traced_small_job_restores_every_name_and_reports_finite_layers(tmp_path, name):
    workload = workloads.WORKLOADS[name](0, str(tmp_path), small=True)
    patched = [*tracing._PLAIN.values(), (harness, "make_stepper"), (harness, "builtin_potential"),
               (workload, "model")]
    originals = [getattr(owner, attr) for owner, attr in patched]
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, workload)
    try:
        workload.job()
    finally:
        restore()
    assert all(getattr(owner, attr) is original for (owner, attr), original in zip(patched, originals))
    values = tracing.layer_metrics(tracer, 1, workload.sweep_goal)
    assert values and all(math.isfinite(value) for value in values.values()), values


def test_a_traced_sweep_charges_every_step_to_the_sweep_span(tmp_path):
    # a span opened on a thread with no span of its own takes the installing
    # thread's innermost open span as its parent; the sweep's caller waits
    # for its two stepping threads without opening one, so harness.sweep.
    # steps_run counts every step, and it makes each stepper itself, so
    # harness.sweep.pair_runs counts every pair
    workload = workloads.WORKLOADS["iter-sweep"](0, str(tmp_path), small=True)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, workload)
    try:
        workload.job()
    finally:
        restore()
    spans = tracer.spans
    (sweep,) = [i for i, rec in enumerate(spans) if rec[0] == "harness.sweep"]
    steps = [rec for rec in spans if rec[0] == "samplers.step"]
    makers = [rec for rec in spans if rec[0] == "samplers.make_stepper"]
    assert steps and all(rec[4] == sweep for rec in steps)
    assert len({rec[1] for rec in steps} - {threading.get_ident()}) == 2
    assert len(makers) == workload.ops_per_job
    assert all(rec[1] == threading.get_ident() and rec[4] == sweep for rec in makers)
