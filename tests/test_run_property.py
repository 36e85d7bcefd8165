"""Property: ``(spec, seed)`` fixes every byte of a run's CSV.

Small random specs cover every sampler kind, metric and potential at
d <= 3, ragged chain counts up to 3,001, random ``record_every`` and random
starts, configs that leave the finite floats, and ``benchmark_run``
references of a few chains.  Each spec runs once as the baseline (one
worker, the default ``_CHUNK_STEPS`` and ``_STACK_COORDS``) and once under
a drawn worker count (1, 2 or 3), ``_CHUNK_STEPS`` (1, 2, 4 or 7),
``_STACK_COORDS`` (from one block's coordinates up to the default) and
thread timing: a short switch interval, and a delay in each noise fill of
the calling thread, which lets the pool thread that draws ahead reach the
next chunk while a fill of this one is still to come.  The CSV bytes, or
the ConfigError a run raises, must be the same.  ``BLOCK_SIZE`` fixes the
streams, so it is not drawn.

A drawn share of the closed-form examples is also checked against its
blocks run alone: each group's records against ``serial_block``
(tests/test_harness.py), and the rows against those blocks' records merged
in block order and scored by the harness's own metric code.  The first
check sees the streams, the stepping and the record steps; the second the
order of the merge, which no worker count or stacking changes.
"""

import contextlib
import json
import os
import sys
import tempfile
import threading
import time
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hfhr import harness
from hfhr.analysis import GaussianSummary
from hfhr.harness import BLOCK_SIZE, METRICS, ConfigError, parse_config, run_experiment, write_csv
from hfhr.rng import RandomSource
from hfhr.samplers import KINDS
from test_harness import check_against_serial, recording_run_group, serial_block

# the potentials whose closed-form reference each metric can take
CLOSED_FORM = {
    "w2_gaussian": ("quadratic_iso", "quadratic_aniso"),
    "mean_error": ("quadratic_iso", "quadratic_aniso", "quartic", "bimodal", "coupled_logcosh"),
    "chi2_hist": ("quadratic_iso", "quadratic_aniso", "quartic", "perturbed", "bimodal", "coupled_logcosh"),
}
ANY_POTENTIAL = ("quadratic_iso", "quadratic_aniso", "quartic", "perturbed", "bimodal", "rosenbrock2d", "coupled_logcosh")
FIXED_DIMS = {"quartic": 1, "perturbed": 1, "bimodal": 1, "rosenbrock2d": 2}


@st.composite
def specs(draw):
    """A spec that parses, at a size that runs in tens of milliseconds.

    A third diverge: a start of 3 or 1e6 sends the quartic and bimodal
    gradients out of the floats within a few steps, chain by chain under a
    random start, so blocks and groups stop at different steps (and a
    ``benchmark_run`` reference from that start diverges, a ConfigError).
    """
    metric = draw(st.sampled_from(METRICS))
    benchmark = metric != "chi2_hist" and draw(st.booleans())
    names = ANY_POTENTIAL if benchmark else CLOSED_FORM[metric]
    diverge = metric != "w2_gaussian" or benchmark  # the closed-form W2 needs a quadratic
    diverge = diverge and draw(st.sampled_from([False, False, True]))
    name = draw(st.sampled_from(("quartic", "bimodal") if diverge else names))
    dim = FIXED_DIMS.get(name, 1 if metric == "chi2_hist" else draw(st.integers(1, 3)))
    if name == "quadratic_iso":
        params = {"m": draw(st.floats(0.5, 2.0)), "d": dim}
    elif name == "quadratic_aniso":
        params = {"m": draw(st.floats(0.5, 2.0)), "kappa": draw(st.floats(1.0, 5.0)), "d": dim}
    elif name == "coupled_logcosh":
        params = {"d": dim, "shift": draw(st.floats(-1.0, 1.0))}
    else:
        params = {}
    samplers = []
    for i in range(draw(st.integers(1, 2))):
        entry = {"id": f"s{i}", "kind": draw(st.sampled_from(KINDS)), "step": draw(st.floats(0.05, 0.6))}
        entry.update(gamma=draw(st.floats(0.5, 3.0)), alpha=draw(st.floats(0.0, 2.0)))
        samplers.append(entry)
    doc = {
        "potential": {"name": name, "params": params},
        "sampler": samplers,
        # block edges and ragged tails: one group of three blocks at d = 1 from 3,000 on
        "chains": draw(st.one_of(st.integers(2, 2500), st.sampled_from([999, 1000, 1001, 2000, 2001, 2500, 3000, 3001]))),
        "seed": draw(st.integers(0, 2**32)),
        "metric": metric,
        "init": {
            "q": draw(st.sampled_from([3.0, 1e6]) if diverge else st.one_of(
                st.sampled_from([0.0, 1.0, -2.0]), st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim))),
            "p": draw(st.floats(-1.0, 1.0)),
            "q_std": draw(st.sampled_from([0.0, 0.3, 1.0])),
            "p_std": draw(st.sampled_from([0.0, 0.5])),
        },
    }
    if draw(st.booleans()):
        doc["steps"] = draw(st.integers(1, 12))
        doc["record_every"] = draw(st.integers(1, doc["steps"]))
    else:
        doc["horizon"] = draw(st.floats(0.1, 0.6))  # at most 12 steps of 0.05
    if benchmark:
        doc["reference"] = {
            "type": "benchmark_run",
            "kind": draw(st.sampled_from(KINDS)),
            "step": draw(st.floats(0.1, 0.5)),
            "gamma": draw(st.floats(0.5, 3.0)),
            "horizon": draw(st.floats(0.1, 2.0)),
            "chains": draw(st.integers(1, 50)),
        }
    if metric == "chi2_hist" and draw(st.booleans()):
        lo = draw(st.floats(-4.0, 0.0))
        doc["histogram"] = {"lo": lo, "hi": lo + draw(st.floats(1.0, 6.0)), "bins": draw(st.integers(2, 30))}
    return parse_config(json.dumps(doc))


def outcome(spec, workers):
    """The CSV bytes of a run, or its ConfigError's message."""
    try:
        series = run_experiment(spec, workers=workers)
    except ConfigError as exc:
        return f"ConfigError: {exc}", None
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        write_csv(series, path)
        with open(path, "rb") as fh:
            return fh.read(), series


@contextlib.contextmanager
def switch_interval(seconds):
    old = sys.getswitchinterval()
    sys.setswitchinterval(seconds)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


@contextlib.contextmanager
def slow_calling_thread_fills():
    """Sleep 1 ms before each noise fill on the calling thread."""
    original = RandomSource.normals

    def normals(self, shape, out=None):
        if out is not None and threading.current_thread() is threading.main_thread():
            time.sleep(0.001)
        return original(self, shape, out=out)

    with mock.patch.object(RandomSource, "normals", normals):
        yield


def merged_rows(spec):
    """Every config's rows from its blocks run alone, their records merged in block order.

    A closed-form reference only.  The merge adds block b's sums after
    those of blocks 0 .. b - 1, starting from zeros, as the harness does;
    ``_moment_values`` then scores the merged sums as one group of one
    block, so its own block loop adds nothing to them.
    """
    model = spec.model()
    if spec.metric == "w2_gaussian":
        reference = GaussianSummary(mean=np.zeros(model.dim), cov=np.linalg.inv(model.quadratic_hessian))
    elif spec.metric == "mean_error":
        reference = model.target_mean
    else:
        reference = harness._target_density_1d(model)
    sizes = [min(BLOCK_SIZE, spec.chains - start) for start in range(0, spec.chains, BLOCK_SIZE)]
    keep = spec.metric == "chi2_hist"
    rows = []
    for c, (config_id, config) in enumerate(spec.samplers):
        steps = spec.steps_for(config)
        record_steps = set(range(0, steps + 1, spec.record_every)) | {steps}
        alone = [serial_block(spec, model, config, steps, record_steps, c * harness._CONFIG_STREAMS + b, n, keep)
                 for b, n in enumerate(sizes)]
        records = min(len(sums) for sums, _ in alone)
        ks = [min(i * spec.record_every, steps) for i in range(records)]
        with np.errstate(over="ignore", invalid="ignore"):
            if keep:
                values = [harness._chi2_value(spec, reference, np.concatenate([sums[i] for sums, _ in alone]).ravel(), k)
                          for i, k in enumerate(ks)]
                stderrs = [None] * records
            else:
                merged = []
                for i in range(records):
                    sum_q, sum_qq = np.zeros((1, model.dim)), np.zeros((1, model.dim, model.dim))
                    for sums, _ in alone:
                        sum_q, sum_qq = sum_q + sums[i][0], sum_qq + sums[i][1]
                    merged.append((sum_q, sum_qq))
                values, stderrs = harness._moment_values(spec, reference, [merged], records, model.dim)
        diverged = any(bad is not None for _, bad in alone)
        rows += [(config_id, k, repr(k * config.step), repr(float(value)), repr(stderr),
                  "diverged" if diverged and i == records - 1 else "")
                 for i, (k, value, stderr) in enumerate(zip(ks, values, stderrs))]
    return rows


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=specs(), data=st.data())
def test_csv_bytes_do_not_depend_on_workers_noise_chunks_or_stacking(spec, data):
    baseline, _ = outcome(spec, workers=1)
    block_coords = min(spec.chains, BLOCK_SIZE) * spec.model().dim
    workers = data.draw(st.sampled_from([1, 2, 3]), label="workers")
    chunk_steps = data.draw(st.sampled_from([1, 2, 4, 7]), label="_CHUNK_STEPS")
    stack_coords = data.draw(st.one_of(st.just(block_coords), st.integers(block_coords, harness._STACK_COORDS)),
                             label="_STACK_COORDS")
    interval = data.draw(st.sampled_from([sys.getswitchinterval(), 1e-6]), label="switch interval")
    slow_fills = data.draw(st.booleans(), label="slow calling-thread fills")
    oracle = spec.reference == "closed_form" and data.draw(st.integers(0, 3), label="oracle") == 0
    groups = []
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.multiple(harness, _CHUNK_STEPS=chunk_steps, _STACK_COORDS=stack_coords))
        stack.enter_context(switch_interval(interval))
        if slow_fills:
            stack.enter_context(slow_calling_thread_fills())
        if oracle:
            stack.enter_context(mock.patch.object(harness, "_run_group", recording_run_group(groups)))
        got, series = outcome(spec, workers=workers)
    assert got == baseline
    if oracle and series is not None:
        check_against_serial(spec, groups)
        rows = [(r.config_id, r.step, repr(r.time), repr(r.value), repr(r.stderr), r.flag) for r in series.rows]
        assert rows == merged_rows(spec)
