"""Tests of the benchmark itself: determinism across workers, and that every
output check rejects a deliberately perturbed result.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import exact  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hfhr import harness  # noqa: E402


def _perturbed_rows(rows, config_id, step, factor):
    return [
        dataclasses.replace(r, value=r.value * factor)
        if (r.config_id, r.step) == (config_id, step) else r
        for r in rows
    ]


def test_highdim_pool_output_is_the_same_at_one_and_two_workers(tmp_path):
    digests = []
    for workers in (1, 2):
        w = workloads.HighdimPool(3, str(tmp_path / f"w{workers}"))
        w.workers = workers
        digests.append(w.digest(w.job()))
    assert digests[0] == digests[1]


@pytest.fixture(scope="module")
def dense(tmp_path_factory):
    w = workloads.DenseRecord(5, str(tmp_path_factory.mktemp("dense")), small=True)
    assert w.job() == 0
    return w


def test_dense_record_check_passes_on_the_program_output(dense):
    dense.check(0)


def test_w2_check_rejects_a_scaled_value(dense):
    rows = harness.read_csv(dense._paths()[0])
    with pytest.raises(checks.CheckFailed):
        dense.check_rows(_perturbed_rows(rows, "uld_klmc", 3, 1.2))


def test_w2_check_rejects_values_one_record_late(dense):
    rows = harness.read_csv(dense._paths()[0])
    em = [r for r in rows if r.config_id == "hfhr_em"]
    late = [dataclasses.replace(r, value=prev.value) for prev, r in zip(em, em[1:])]
    shifted = [r for r in rows if r.config_id != "hfhr_em"] + em[:1] + late
    with pytest.raises(checks.CheckFailed):
        dense.check_rows(shifted)


def test_dense_record_check_rejects_a_failed_exit(dense):
    with pytest.raises(checks.CheckFailed):
        dense.check(3)


@pytest.fixture(scope="module")
def pool(tmp_path_factory):
    w = workloads.HighdimPool(5, str(tmp_path_factory.mktemp("pool")), small=True)
    return w, w.job()


def test_highdim_pool_check_passes_on_the_program_output(pool):
    w, series = pool
    w.check(series)


def test_highdim_pool_check_rejects_a_scaled_value(pool):
    w, series = pool
    with pytest.raises(checks.CheckFailed):
        w.check_rows(_perturbed_rows(series.rows, "hfhr_strang", 4, 1.05))


def test_highdim_pool_check_rejects_a_wrong_gradient_count(pool):
    w, series = pool
    evals = dict(series.grad_evals, ula=series.grad_evals["ula"] - 1)
    with pytest.raises(checks.CheckFailed):
        w.check(dataclasses.replace(series, grad_evals=evals))


def test_csv_check_rejects_rows_that_differ_from_the_file(pool):
    w, series = pool
    rows = _perturbed_rows(series.rows, "ula", 2, 1.0 + 1e-12)
    with pytest.raises(checks.CheckFailed):
        checks.csv_round_trip(harness, w.csv_path, series.metric, rows)


def test_csv_check_rejects_bytes_the_writer_would_not_produce(pool, tmp_path):
    w, series = pool
    text = Path(w.csv_path).read_text().replace(",w2_gaussian,", ",w2_gaussian,0", 1)
    path = tmp_path / "odd.csv"
    path.write_text(text)
    with pytest.raises(checks.CheckFailed):
        checks.csv_round_trip(harness, str(path), series.metric)


def test_csv_check_rejects_an_unparseable_file(pool, tmp_path):
    w, series = pool
    path = tmp_path / "comma.csv"
    path.write_text(Path(w.csv_path).read_text().replace("\nula,", "\nu,la,", 1))
    with pytest.raises(checks.CheckFailed):
        checks.csv_round_trip(harness, str(path), series.metric)


@pytest.fixture(scope="module")
def oracles(tmp_path_factory):
    w = workloads.TheoryOracles(2, str(tmp_path_factory.mktemp("oracles")), small=True)
    return w, w.job()


def test_theory_oracles_check_passes_on_the_program_output(oracles):
    w, result = oracles
    w.check(result)


@pytest.mark.parametrize("field", ["T", "Q"])
def test_affine_map_check_rejects_a_perturbed_map(oracles, field):
    w, (maps, props) = oracles
    d, kind, h, amap, _ = maps[0]
    bad = dataclasses.replace(amap, **{field: getattr(amap, field) + 1e-7})
    with pytest.raises(checks.CheckFailed):
        checks.affine_map(kind, w.hessians[d], workloads.ALPHA, workloads.GAMMA, h, bad)


def test_stationary_check_rejects_a_perturbed_covariance(oracles):
    w, (maps, props) = oracles
    d, kind, h, amap, summary = maps[0]
    T, Q = exact.kernel_map(kind, w.hessians[d], workloads.ALPHA, workloads.GAMMA, h)
    bad = dataclasses.replace(summary, cov=summary.cov * (1.0 + 1e-6))
    with pytest.raises(checks.CheckFailed):
        checks.stationary(T, Q, bad, "perturbed")


def test_propagation_check_rejects_a_perturbed_covariance(oracles):
    w, (maps, props) = oracles
    d = w.prop_dims[0]
    summaries = [dataclasses.replace(s, cov=s.cov + 1e-6 * np.eye(2 * d)) for s in props[0]]
    with pytest.raises(checks.CheckFailed):
        checks.propagation(
            w.hessians[d], workloads.ALPHA, workloads.GAMMA, w.starts[d],
            np.zeros((2 * d, 2 * d)), w.times, summaries,
        )


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    w = workloads.IterSweep(0, str(tmp_path_factory.mktemp("sweep")))
    return w, w.job()


def test_sweep_check_passes_on_the_program_output(sweep):
    w, rows = sweep
    w.check(rows)


def test_sweep_check_rejects_a_diverged_baseline(sweep):
    w, rows = sweep
    bad = [dataclasses.replace(rows[0], iterations_mean=math.inf)] + rows[1:]
    with pytest.raises(checks.CheckFailed):
        w.check(bad)


def test_sweep_check_rejects_acceleration_that_loses(sweep):
    w, rows = sweep
    bad = [rows[0]] + [dataclasses.replace(r, iterations_mean=rows[0].iterations_mean + 1) for r in rows[1:]]
    with pytest.raises(checks.CheckFailed):
        w.check(bad)


def test_sweep_check_rejects_a_winner_that_does_not_reach_eps(sweep):
    w, rows = sweep
    # at h = 1e-4 the chain moves too little in cap steps to reach eps
    bad = [rows[0], dataclasses.replace(rows[1], best_step=1e-4)] + rows[2:]
    with pytest.raises(checks.CheckFailed):
        w.check(bad)


def test_run_rejects_jobs_with_different_outputs(pool):
    w, series = pool
    tally = {"last": series}
    assert run._check(w, tally, ["a", "a"])
    assert not run._check(w, tally, ["a", "b"])


def test_untraced_jobs_each_get_a_host_probe_taken_before_them(tmp_path):
    w = workloads.TheoryOracles(3, str(tmp_path), small=True)
    tally = {"jobs": 0, "failed_jobs": 0, "last": None}
    walls, probes, digests = run._timed_jobs(w, 0.0, tally, probe=True)
    assert len(walls) == len(probes) == len(digests) == tally["jobs"] == 1
    assert probes[0] > 0
    assert "hfhr" not in run.host_probe.__code__.co_names


def test_self_time_subtracts_the_union_of_overlapping_children():
    # parent [0, 100]; children [10, 40] and [30, 60] overlap; [90, 120] is clipped
    spans = [["p", 1, 0, 100, -1, 0], ["c", 2, 10, 40, 0, 0], ["c", 3, 30, 60, 0, 0],
             ["c", 2, 90, 120, 0, 0]]
    assert tracing._covered(spans, [1, 2, 3], 0, 100) == 60


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb", "work_per_s"}
