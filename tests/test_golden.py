"""Golden output bytes: ``(spec, seed)`` fixes every byte the CLI writes.

The hashes were taken from the serial block-by-block runner; any change to
how chains are batched, scheduled or merged must leave them as they are.
"""

import hashlib
import json
from pathlib import Path

import pytest

from hfhr.cli import main

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

GOLDEN = {
    "gaussian1d": {
        "results.csv": "cc432ac64cb9f3ecbc2b6f571d25d5d3f59e5f71b77b1a62edac4dd0378c9918",
        "results.svg": "bb67a13c8530820bf2af55b24d12995bf28c2ae7d2ca82ed88d398cd4f766673",
    },
    # CSV only: the diverging sampler's last rows overflow the plot scale
    "ragged_diverging": {
        "results.csv": "740d8c263169fb585f1f29d30a727d4d52e43b8b020f09098d2674d3599cc87b",
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
