import json
import math

import pytest

from hfhr import harness
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

    def test_huge_dimension_is_config_error(self, capsys):
        # the model's arrays cannot be allocated, so nothing is
        code, _, err = run_cli(
            capsys, "sample", "--potential", "quadratic_iso", "--param", "d=1e12", "--step", "0.1", "--steps", "1"
        )
        assert code == 2
        assert "error: potential.params.d is too large" in err

    @pytest.mark.parametrize(
        "potential, params, message",
        [
            ("quadratic_iso", ["m=inf"], "potential.params.m must be a number"),
            ("coupled_logcosh", ["d=1", "shift=nan"], "potential.params.shift must be a number"),
            ("coupled_logcosh", ["d=1", "shift=inf"], "potential.params.shift must be a number"),
            ("coupled_logcosh", ["d=nan"], "potential.params.d must be a number"),
            ("coupled_logcosh", ["d=1", "shift=701"], "potential.params.shift must be within [-700, 700]"),
        ],
    )
    def test_params_follow_the_spec_rules(self, capsys, potential, params, message):
        flags = [arg for param in params for arg in ("--param", param)]
        code, out, err = run_cli(capsys, "sample", "--potential", potential, *flags, "--step", "0.1", "--steps", "3")
        assert (code, out) == (2, "")
        assert f"error: {message}" in err

    def test_negative_steps_fail_before_any_output(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--potential", "quartic", "--step", "0.1", "--steps", "-1")
        assert (code, out) == (2, "")
        assert "error: steps must be a non-negative integer" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--param", "d=abc"], "potential.params.d must be a number"),
            (["--seed", "-3"], "seed must be a non-negative integer"),
            (["--chain-index", "-1"], "chain-index must be a non-negative integer"),
            (["--q0", "inf"], "q0 must be a finite number"),
            (["--q0", "nan"], "q0 must be a finite number"),
            (["--p0=-inf"], "p0 must be a finite number"),
        ],
    )
    def test_flags_fail_before_any_output_naming_the_flag(self, capsys, flags, message):
        code, out, err = run_cli(
            capsys, "sample", "--potential", "quadratic_iso", "--step", "0.1", "--steps", "3", *flags
        )
        assert (code, out) == (2, "")
        assert f"error: {message}" in err


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

    def test_an_error_prints_no_line(self, capsys):
        # every line but the chi-squared bounds is valid here
        code, out, err = run_cli(
            capsys, "theory", "--L", "1", "--m", "1", "--alpha", "1", "--gamma", "2", "--poincare", "-1",
        )
        assert (code, out) == (2, "")
        assert "error: alpha, gamma and lambda_pi must be > 0" in err


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

    def test_an_error_prints_no_line(self, capsys):
        # the first table is valid; eps = 1.5 fails in the second
        code, out, err = run_cli(capsys, "spectral", "--eps", "1.5")
        assert (code, out) == (2, "")
        assert "error: eps must lie in (0, 1)" in err


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

    @pytest.mark.parametrize("q0", [1.0, 0.1])
    def test_chi2_without_histogram_range_runs_from_a_fixed_start(self, tmp_path, capsys, q0):
        # every chain starts at q0, so the step-0 samples sit at one point;
        # their computed sd is 0 at q0 = 1 and a round-off residue at 0.1
        doc = {
            "potential": {"name": "quadratic_iso", "params": {"m": 1.0, "d": 1}},
            "sampler": [{"id": "a", "kind": "hfhr_strang", "alpha": 1.0, "gamma": 2.0, "step": 0.1}],
            "chains": 200,
            "steps": 4,
            "record_every": 2,
            "metric": "chi2_hist",
            "init": {"q": q0},
        }
        cfg = tmp_path / "chi2.json"
        cfg.write_text(json.dumps(doc))
        out_dir = tmp_path / "o"
        code, _, err = run_cli(capsys, "experiment", str(cfg), "--out-dir", str(out_dir), "--format", "csv")
        assert code == 0, err
        rows = read_csv(str(out_dir / "results.csv"))
        assert [r.step for r in rows] == [0, 2, 4]
        assert all(r.value > 0 and r.flag == "" for r in rows)

    def test_huge_dimension_is_config_error(self, tmp_path, capsys):
        doc = {
            "potential": {"name": "quadratic_iso", "params": {"m": 1.0, "d": 1000000000000}},
            "sampler": [{"id": "a", "kind": "ula", "step": 0.1}],
            "steps": 3,
        }
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "experiment", str(cfg), "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert "error: potential.params.d is too large" in err

    def test_blocks_too_large_to_allocate_are_config_error(self, tmp_path, capsys, monkeypatch):
        # the model of d = 10**6 fits; a block of 1,000 such chains is 7.45 GiB
        def no_memory(spec, dim, n, sources):
            raise MemoryError(f"Unable to allocate an array with shape ({n}, {dim})")

        monkeypatch.setattr(harness, "_init_blocks", no_memory)
        doc = {
            "potential": {"name": "coupled_logcosh", "params": {"d": 1000000}},
            "sampler": [{"id": "a", "kind": "ula", "step": 0.1}],
            "steps": 3,
            "metric": "mean_error",
        }
        cfg = tmp_path / "wide.json"
        cfg.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "experiment", str(cfg), "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert "error: chains and potential.params.d are too large" in err

    def test_diverging_config_still_plots(self, tmp_path, capsys):
        # the diverging sampler's last records overflow the metric to inf
        # and nan; the plot leaves those points out
        doc = {
            "potential": {"name": "quadratic_iso", "params": {"m": 4.0, "d": 1}},
            "sampler": [
                {"id": "ok", "kind": "uld_klmc", "gamma": 2.0, "step": 0.2},
                {"id": "boom", "kind": "hfhr_strang", "alpha": 1.0, "gamma": 2.0, "step": 3.0},
            ],
            "chains": 50,
            "steps": 300,
            "record_every": 20,
        }
        cfg = tmp_path / "boom.json"
        cfg.write_text(json.dumps(doc))
        out_dir = tmp_path / "o"
        code, _, err = run_cli(capsys, "experiment", str(cfg), "--out-dir", str(out_dir))
        assert code == 0, err
        rows = read_csv(str(out_dir / "results.csv"))
        assert any(r.value != r.value for r in rows)  # a nan row
        svg = (out_dir / "results.svg").read_text()
        assert svg.count("<polyline") == 2 and "nan" not in svg and "inf" not in svg

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"m": {}, "d": 1}, "potential.params.m must be a number"),
            ({"m": 1.0, "d": 0}, "potential.params.d must be >= 1"),
        ],
    )
    def test_bad_potential_params_are_config_errors(self, tmp_path, capsys, params, message):
        doc = {
            "potential": {"name": "quadratic_iso", "params": params},
            "sampler": [{"id": "a", "kind": "ula", "step": 0.1}],
            "steps": 3,
        }
        cfg = tmp_path / "params.json"
        cfg.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "experiment", str(cfg), "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert message in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seed", "-1"], "seed must be a non-negative integer"),
            (["--workers", "0"], "workers must be a positive integer"),
            (["--workers", "-3"], "workers must be a positive integer"),
        ],
    )
    def test_overrides_follow_the_spec_rules(self, tmp_path, capsys, flags, message):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "potential": {"name": "quadratic_iso", "params": {"m": 1.0, "d": 1}},
            "sampler": [{"id": "a", "kind": "ula", "step": 0.1}],
            "chains": 10,
            "steps": 3,
        }))
        out_dir = tmp_path / "o"
        code, out, err = run_cli(capsys, "experiment", str(cfg), "--out-dir", str(out_dir), *flags)
        assert (code, out) == (2, "")
        assert f"error: {message}" in err
        assert not out_dir.exists()

    def test_fixed_start_against_a_wide_target_scores_w2(self, tmp_path, capsys):
        # the step-0 sample variance is a round-off residue, -1.1e-16, and
        # the target variance is 1e7
        doc = {
            "potential": {"name": "quadratic_iso", "params": {"m": 1e-7, "d": 1}},
            "sampler": [{"id": "u", "kind": "uld_klmc", "step": 0.1, "gamma": 2.0}],
            "chains": 87,
            "steps": 5,
            "init": {"q": 0.75},
        }
        cfg = tmp_path / "wide.json"
        cfg.write_text(json.dumps(doc))
        out_dir = tmp_path / "o"
        code, _, err = run_cli(capsys, "experiment", str(cfg), "--out-dir", str(out_dir), "--format", "csv")
        assert code == 0, err
        rows = read_csv(str(out_dir / "results.csv"))
        assert [r.step for r in rows] == list(range(6))
        assert all(math.isfinite(r.value) for r in rows)

    def test_seed_override_matches_the_seed_in_the_spec(self, tmp_path, capsys):
        doc = {
            "potential": {"name": "quadratic_iso", "params": {"m": 1.0, "d": 1}},
            "sampler": [{"id": "a", "kind": "ula", "step": 0.1}],
            "chains": 10,
            "steps": 3,
        }
        outputs = []
        for seed_in_spec, flags in ((0, ["--seed", "7"]), (7, [])):
            cfg = tmp_path / f"exp{seed_in_spec}.json"
            cfg.write_text(json.dumps({**doc, "seed": seed_in_spec}))
            out_dir = tmp_path / f"o{seed_in_spec}"
            code, _, err = run_cli(capsys, "experiment", str(cfg), "--out-dir", str(out_dir), "--format", "csv", *flags)
            assert code == 0, err
            outputs.append((out_dir / "results.csv").read_bytes())
        assert outputs[0] == outputs[1]
