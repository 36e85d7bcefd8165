"""The contract between the program and perfbench's tracer.

``perfbench/tracing.py`` wraps module attributes by name and reads what the
program hands its steppers (a sweep's noise must carry a ``seed``).  A
change that breaks that contract still passes an untraced run, so each
workload's small job is run traced here, with perfbench imported read-only
as its own tests import it.
"""

import math
import sys
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
