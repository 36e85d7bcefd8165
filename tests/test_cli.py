import json

import pytest

from hfhr.cli import main
from hfhr.harness import read_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSample:
    def test_streams_states_deterministically(self, capsys):
        args = (
            "sample", "--potential", "quadratic_iso", "--param", "m=1", "--param", "d=1",
            "--kind", "hfhr_strang", "--alpha", "1.0", "--gamma", "2.0",
            "--step", "0.1", "--steps", "5", "--seed", "3",
        )
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert lines[0] == "step,time,q0,p0"
        assert len(lines) == 7  # header + initial state + 5 steps

    def test_bad_potential_is_config_error(self, capsys):
        code, _, err = run_cli(
            capsys, "sample", "--potential", "nope", "--step", "0.1", "--steps", "1"
        )
        assert code == 2
        assert "unknown potential" in err


class TestTheory:
    def test_prints_constants(self, capsys):
        code, out, _ = run_cli(
            capsys, "theory", "--L", "1.0", "--m", "1.0", "--alpha", "1.0",
            "--gamma", "2.0", "--poincare", "1.0",
        )
        assert code == 0
        assert "lambda'   = 1.5" in out
        assert "W2 rate   = 1.5" in out
        assert "chi2 rate (Poincare) = 2" in out


class TestSpectral:
    def test_tables(self, capsys):
        code, out, _ = run_cli(capsys, "spectral", "--gamma", "1.0", "--eps", "0.1", "0.2")
        assert code == 0
        assert "uld_discount" in out
        # accelerated discount column strictly below the baseline one
        for line in out.splitlines():
            cols = line.split()
            if cols and cols[0] in ("0.1", "0.2"):
                assert float(cols[7]) < float(cols[3])


class TestExperiment:
    def test_end_to_end(self, tmp_path, capsys):
        doc = {
            "potential": {"name": "quadratic_iso", "params": {"m": 1.0, "d": 1}},
            "sampler": [
                {"id": "fast", "kind": "hfhr_strang", "alpha": 1.0, "gamma": 2.0, "step": 0.1},
                {"id": "base", "kind": "uld_klmc", "gamma": 2.0, "step": 0.1},
            ],
            "chains": 500,
            "horizon": 3.0,
            "record_every": 5,
            "seed": 9,
        }
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        code, _, err = run_cli(
            capsys, "experiment", str(cfg), "--out-dir", str(out_dir), "--workers", "2"
        )
        assert code == 0, err
        rows = read_csv(str(out_dir / "results.csv"))
        assert {r.config_id for r in rows} == {"fast", "base"}
        svg = (out_dir / "results.svg").read_text()
        assert svg.count("<polyline") == 2

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{\"potential\": {\"name\": \"quadratic_iso\"}}")
        code, _, err = run_cli(capsys, "experiment", str(cfg))
        assert code == 2
        assert "error:" in err

    def test_all_divergent_exit_code(self, tmp_path, capsys):
        doc = {
            "potential": {"name": "quadratic_iso", "params": {"m": 1.0, "d": 1}},
            "sampler": [
                {"id": "boom", "kind": "hfhr_strang", "alpha": 1.0, "gamma": 2.0, "step": 4.0}
            ],
            "chains": 100,
            "steps": 900,
            "record_every": 100,
            "seed": 0,
            "metric": "mean_error",
        }
        cfg = tmp_path / "boom.json"
        cfg.write_text(json.dumps(doc))
        code, _, err = run_cli(
            capsys, "experiment", str(cfg), "--out-dir", str(tmp_path / "o"), "--format", "csv"
        )
        assert code == 3
        assert "diverged" in err

    def test_diverging_reference_is_config_error(self, tmp_path, capsys):
        # ula at h=5 on a unit quadratic multiplies q by -4 per step
        doc = {
            "potential": {"name": "quadratic_iso", "params": {"m": 1.0, "d": 1}},
            "sampler": [{"id": "a", "kind": "ula", "step": 0.1}],
            "chains": 100,
            "horizon": 1.0,
            "metric": "mean_error",
            "reference": {"type": "benchmark_run", "kind": "ula", "step": 5.0, "horizon": 5000.0, "chains": 100},
        }
        cfg = tmp_path / "ref.json"
        cfg.write_text(json.dumps(doc))
        out_dir = tmp_path / "o"
        code, _, err = run_cli(capsys, "experiment", str(cfg), "--out-dir", str(out_dir))
        assert code == 2
        assert "reference run diverged at step" in err
        assert not list((out_dir / "cache").glob("*"))
        assert not (out_dir / "results.csv").exists()

    def test_single_chain_is_config_error(self, tmp_path, capsys):
        doc = {
            "potential": {"name": "quadratic_iso", "params": {"m": 1.0, "d": 1}},
            "sampler": [{"id": "a", "kind": "ula", "step": 0.1}],
            "chains": 1,
            "steps": 3,
        }
        cfg = tmp_path / "one.json"
        cfg.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "experiment", str(cfg), "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert "chains must be an integer >= 2" in err
