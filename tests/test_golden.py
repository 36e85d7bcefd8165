"""Golden output bytes: ``(spec, seed)`` fixes every byte the CLI writes.

The hashes were taken from the serial block-by-block runner; any change to
how chains are batched, scheduled or merged must leave them as they are.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

import pytest

from hfhr.cli import main
from hfhr.rng import RandomSource

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# three samplers on 2,500 chains: blocks of 1,000, 1,000 and a ragged 500,
# a random start, and one sampler that leaves the finite floats at step 251
RAGGED_DIVERGING = {
    "potential": {"name": "quadratic_iso", "params": {"m": 4.0, "d": 1}},
    "sampler": [
        {"id": "uld", "kind": "uld_klmc", "gamma": 2.0, "step": 0.2},
        {"id": "em", "kind": "hfhr_em", "alpha": 0.5, "gamma": 2.0, "step": 0.2},
        {"id": "blowup", "kind": "hfhr_strang", "alpha": 1.0, "gamma": 2.0, "step": 3.0},
    ],
    "chains": 2500,
    "steps": 300,
    "record_every": 20,
    "seed": 11,
    "init": {"q": 1.0, "p": 0.0, "q_std": 0.5, "p_std": 0.25},
}

# d = 3: stacked moments, eigh, matmul and trace over more than one coordinate.
# A record every step on 2,500 chains, with a sampler that leaves the finite
# floats at step 251 after its second moments overflow (nan rows)
ANISO_DENSE = {
    "potential": {"name": "quadratic_aniso", "params": {"m": 1.0, "kappa": 4.0, "d": 3}},
    "sampler": [
        {"id": "uld", "kind": "uld_klmc", "gamma": 2.0, "step": 0.1},
        {"id": "strang", "kind": "hfhr_strang", "alpha": 0.5, "gamma": 2.0, "step": 0.1},
        {"id": "blowup", "kind": "hfhr_strang", "alpha": 1.0, "gamma": 2.0, "step": 3.0},
    ],
    "chains": 2500,
    "steps": 300,
    "record_every": 1,
    "seed": 13,
    "init": {"q": [1.0, -0.5, 0.25], "p": 0.0, "q_std": 0.5, "p_std": 0.25},
}

# d = 3 mean_error, with its stderr column, on a non-quadratic potential
LOGCOSH_MEAN = {
    "potential": {"name": "coupled_logcosh", "params": {"d": 3, "shift": 1.0}},
    "sampler": [
        {"id": "ula", "kind": "ula", "step": 0.1},
        {"id": "em", "kind": "hfhr_em", "alpha": 1.0, "gamma": 2.0, "step": 0.1},
    ],
    "chains": 2500,
    "steps": 100,
    "record_every": 5,
    "seed": 5,
    "metric": "mean_error",
    "init": {"q": 1.0, "p": 0.0, "q_std": 0.5},
}

# two chains whose start covariance (about 1.39e308) lies between half the
# largest float and the largest: a second symmetrisation of it overflowed,
# and every stderr but the last was inf
HUGE_SPREAD_MEAN = {
    "potential": {"name": "quadratic_iso", "params": {"m": 1.0, "d": 1}},
    "sampler": [{"id": "ula", "kind": "ula", "step": 0.1}],
    "chains": 2,
    "steps": 3,
    "record_every": 1,
    "seed": 8,
    "metric": "mean_error",
    "init": {"q": 0.0, "p": 0.0, "q_std": 1.3e154},
}

GOLDEN = {
    "gaussian1d": {
        "results.csv": "cc432ac64cb9f3ecbc2b6f571d25d5d3f59e5f71b77b1a62edac4dd0378c9918",
        "results.svg": "bb67a13c8530820bf2af55b24d12995bf28c2ae7d2ca82ed88d398cd4f766673",
    },
    # CSV only: the diverging sampler's last rows overflow the plot scale
    "ragged_diverging": {
        "results.csv": "740d8c263169fb585f1f29d30a727d4d52e43b8b020f09098d2674d3599cc87b",
    },
    "aniso_dense": {
        "results.csv": "b8b253a701a0fec64d824eb183484efc14a47fea525317a5c3008b4e3243a52a",
        "results.svg": "15eab962cf12a1dd6d02003acc8780409735379f0c1569e3cc41ee39ca27e639",
    },
    "logcosh_mean": {
        "results.csv": "0ab97140f173a88c1c3f5bc72d1efc8f4d071905843374b22eb8ae9d21a66955",
        "results.svg": "42b002f70665ced8db0d41987951a6465633b4d0666a6ce49dab98e99190c2d1",
    },
    "huge_spread_mean": {
        "results.csv": "2283c381b0deb5189111dc873058c8edebbff60e906a200f361bd705d8da5ad6",
    },
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(capsys, config, out_dir, workers, *extra):
    code = main(["experiment", str(config), "--out-dir", str(out_dir), "--workers", str(workers), *extra])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("workers", [1, 2])
def test_gaussian1d_bytes(tmp_path, capsys, workers):
    code, err = run(capsys, CONFIGS / "gaussian1d.json", tmp_path, workers)
    assert code == 0, err
    assert {name: sha256(tmp_path / name) for name in GOLDEN["gaussian1d"]} == GOLDEN["gaussian1d"]


@pytest.mark.parametrize("workers", [1, 2])
def test_ragged_diverging_bytes(tmp_path, capsys, workers):
    config = tmp_path / "spec.json"
    config.write_text(json.dumps(RAGGED_DIVERGING))
    out_dir = tmp_path / "out"
    code, err = run(capsys, config, out_dir, workers, "--format", "csv")
    assert code == 0, err
    assert "warning: blowup diverged at step 251" in err
    assert {name: sha256(out_dir / name) for name in GOLDEN["ragged_diverging"]} == GOLDEN["ragged_diverging"]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name, doc", [("aniso_dense", ANISO_DENSE), ("logcosh_mean", LOGCOSH_MEAN)])
def test_three_dimensional_bytes(tmp_path, capsys, name, doc, workers):
    config = tmp_path / "spec.json"
    config.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    code, err = run(capsys, config, out_dir, workers)
    assert code == 0, err
    assert {file: sha256(out_dir / file) for file in GOLDEN[name]} == GOLDEN[name]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_spread_near_the_largest_float_has_finite_stderrs(tmp_path, capsys, workers):
    config = tmp_path / "spec.json"
    config.write_text(json.dumps(HUGE_SPREAD_MEAN))
    out_dir = tmp_path / "out"
    code, err = run(capsys, config, out_dir, workers, "--format", "csv")
    assert code == 0, err
    rows = list(csv.DictReader((out_dir / "results.csv").read_text().splitlines()))
    assert len(rows) == 4 and all(math.isfinite(float(row["stderr"])) for row in rows)
    # sqrt(cov / 2) with cov = (q1 - q2)^2 / 2 of the two start rows
    q1, q2 = 1.3e154 * RandomSource(8, 0).normals((2, 1))[:, 0]
    assert float(rows[0]["stderr"]) == pytest.approx(abs(q1 - q2) / 2.0, rel=1e-12)
    assert {file: sha256(out_dir / file) for file in GOLDEN["huge_spread_mean"]} == GOLDEN["huge_spread_mean"]


# one long chain per kind through ``hfhr sample``: a d = 3 state stepped
# 2,000 times on a non-quadratic potential, every state printed
SAMPLE_ARGS = (
    "--potential", "coupled_logcosh", "--param", "d=3", "--param", "shift=1.0",
    "--alpha", "0.5", "--gamma", "2.0", "--step", "0.1", "--steps", "2000",
    "--seed", "17", "--chain-index", "3", "--q0", "0.5",
)

SAMPLE_STDOUT = {
    "hfhr_strang": "6d3a60a501204c8cb4b82b26092f6744c0f9cdeacbe2065dcd5d4e8750d8af80",
    "uld_klmc": "abd75b2da13f70b9e8cb318813472590cc4a4ee6ef6dff68a5ac992c4151e713",
    "ula": "b0c8df52f19792f4a010613c6b26d43c498691e1a532ed14854eedebcad88c2b",
    "hfhr_em": "ba0cf9023d67d302d411b7414f34fc6d087147228954ec7e73e46f110d8e5950",
}


@pytest.mark.parametrize("kind", sorted(SAMPLE_STDOUT))
def test_sample_stdout_bytes(capsys, kind):
    code = main(["sample", "--kind", kind, *SAMPLE_ARGS])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLE_STDOUT[kind]


# chi2_hist keeps every sample: a random start on 2,500 chains stacks the
# two full blocks and leaves the ragged 500 alone
CHI2_RANDOM_START = {
    "potential": {"name": "perturbed"},
    "sampler": [
        {"id": "uld", "kind": "uld_klmc", "gamma": 2.0, "step": 0.05},
        {"id": "strang", "kind": "hfhr_strang", "alpha": 0.5, "gamma": 2.0, "step": 0.05},
    ],
    "chains": 2500,
    "steps": 62,
    "record_every": 10,
    "seed": 23,
    "metric": "chi2_hist",
    "init": {"q": 0.5, "p": 0.0, "q_std": 0.5, "p_std": 0.25},
}

GOLDEN["chi2_random_start"] = {
    "results.csv": "28f1cca1356367d6bd0b07ff51a2e68ec114af4e2afb99700020da172d27cc71",
    "results.svg": "145c4ccd4eabf7472bb9613289c0d1cedee9e71b5c5697f7ef3df6ebc567039b",
}


@pytest.mark.parametrize("workers", [1, 2])
def test_chi2_random_start_bytes(tmp_path, capsys, workers):
    config = tmp_path / "spec.json"
    config.write_text(json.dumps(CHI2_RANDOM_START))
    out_dir = tmp_path / "out"
    code, err = run(capsys, config, out_dir, workers)
    assert code == 0, err
    assert {name: sha256(out_dir / name) for name in GOLDEN["chi2_random_start"]} == GOLDEN["chi2_random_start"]


# a benchmark_run reference: d = 2 on a non-quadratic potential, a random
# start, and a uld_klmc baseline of 700 chains over 3,000 steps; its cached
# summary is pinned too.  Both metrics read the same cache file
BENCHMARK_REFERENCE = {
    "potential": {"name": "coupled_logcosh", "params": {"d": 2, "shift": 1.0}},
    "sampler": [
        {"id": "ula", "kind": "ula", "step": 0.1},
        {"id": "strang", "kind": "hfhr_strang", "alpha": 0.5, "gamma": 2.0, "step": 0.1},
    ],
    "chains": 1500,
    "steps": 60,
    "record_every": 5,
    "seed": 29,
    "init": {"q": 1.0, "p": 0.0, "q_std": 0.5, "p_std": 0.25},
    "reference": {"type": "benchmark_run", "kind": "uld_klmc", "gamma": 2.0, "step": 0.01, "horizon": 30.0,
                  "chains": 700},
}

BENCHMARK_CSV = {
    "mean_error": "e7b54c412efdb9598fb3b1fa9e18ed92a1b02a4988ac2671546f9da8046f86e9",
    "w2_gaussian": "cb686e0e383f3a72c48630059553ba8d7789105f34dad67c9a30a7975d5acdcd",
}
BENCHMARK_CACHE = "3f3b93891a4a2220ae7edd5d27d1dff6dc6fd6ecf15f3f7227d3038070d2cadb"


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("metric", sorted(BENCHMARK_CSV))
def test_benchmark_reference_bytes(tmp_path, capsys, metric, workers):
    config = tmp_path / "spec.json"
    config.write_text(json.dumps({**BENCHMARK_REFERENCE, "metric": metric}))
    out_dir = tmp_path / "out"
    code, err = run(capsys, config, out_dir, workers, "--format", "csv")
    assert code == 0, err
    cached = list((out_dir / "cache").glob("benchmark-*.json"))
    assert len(cached) == 1
    assert (sha256(out_dir / "results.csv"), sha256(cached[0])) == (BENCHMARK_CSV[metric], BENCHMARK_CACHE)
