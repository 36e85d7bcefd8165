import json
import math
import re
import warnings

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
            (["--q0=-inf"], "q0 must be a finite number"),
        ],
    )
    def test_flags_fail_before_any_output_naming_the_flag(self, capsys, flags, message):
        code, out, err = run_cli(
            capsys, "sample", "--potential", "quadratic_iso", "--step", "0.1", "--steps", "3", *flags
        )
        assert (code, out) == (2, "")
        assert f"error: {message}" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--step", "1e300"], "gamma * step must be < 1400 for hfhr_strang's exact OU flow"),
            (["--kind", "uld_klmc", "--step", "400"], "gamma * step must be < 700 for uld_klmc's exact OU flow"),
            (["--step", "5e-324"], "step * 0.5 must be > 0 for hfhr_strang's exact OU flow"),
        ],
    )
    def test_an_exact_ou_flow_out_of_range_fails_before_any_output(self, capsys, flags, message):
        # the header and the step-0 row were printed before the kernel failed
        code, out, err = run_cli(capsys, "sample", "--potential", "quadratic_iso", "--steps", "2", *flags)
        assert (code, out) == (2, "")
        assert f"error: {message}" in err

    @pytest.mark.parametrize("kind", ["hfhr_strang", "uld_klmc"])
    def test_a_subnormal_gamma_samples(self, capsys, kind):
        # gamma**2 underflowed to 0.0: a ZeroDivisionError traceback
        code, out, err = run_cli(
            capsys, "sample", "--potential", "quadratic_iso", "--kind", kind, "--step", "0.1", "--gamma", "1e-320",
            "--steps", "2",
        )
        assert code == 0, err
        q = [float(line.split(",")[2]) for line in out.splitlines()[1:]]
        assert q[1] == pytest.approx(0.995, rel=1e-9)  # the frictionless step with no noise to speak of

    def test_a_negative_value_in_exponent_form_takes_the_equals_form(self, capsys):
        # argparse reads "-1e3" after a flag as an option of its own, so it
        # is written --q0=-1e3 (see the README's CLI section)
        code, out, err = run_cli(capsys, "sample", "--potential", "quadratic_iso", "--step", "0.1", "--steps", "1", "--q0=-1e3")
        assert code == 0, err
        header, first = out.splitlines()[:2]
        assert float(first.split(",")[header.split(",").index("q0")]) == -1000.0


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

    def test_a_negative_value_in_exponent_form_reaches_the_rule(self, capsys):
        code, out, err = run_cli(
            capsys, "theory", "--L", "1", "--m", "1", "--alpha", "1", "--gamma", "2", "--poincare=-1e-3",
        )
        assert (code, out) == (2, "")
        assert "error: alpha, gamma and lambda_pi must be > 0" in err

    @pytest.mark.parametrize(
        "flag, value, name",
        [
            ("--gamma", "inf", "gamma"),
            ("--alpha", "nan", "alpha"),
            ("--L", "inf", "L"),
            ("--m", "nan", "m"),
            ("--poincare", "nan", "lambda_pi"),
            ("--poincare", "inf", "lambda_pi"),
        ],
    )
    def test_a_non_finite_flag_is_named_before_any_output(self, capsys, flag, value, name):
        flags = {"--L": "1", "--m": "1", "--alpha": "1", "--gamma": "2", "--poincare": "1", flag: value}
        code, out, err = run_cli(capsys, "theory", *[x for item in flags.items() for x in item])
        assert (code, out) == (2, "")
        assert f"error: {name} must be a finite number" in err

    @pytest.mark.parametrize("flag, name", [("--gamma", "gamma"), ("--alpha", "alpha")])
    def test_a_flag_taking_a_constant_beyond_the_floats_is_named(self, capsys, flag, name):
        # gamma**4 or alpha**2 raised OverflowError, a traceback
        flags = {"--L": "1", "--m": "1", "--alpha": "1", "--gamma": "1", flag: "1e200"}
        code, out, err = run_cli(capsys, "theory", *[x for item in flags.items() for x in item])
        assert (code, out) == (2, "")
        assert f"error: {name} = 1e+200 is out of range" in err

    def test_a_non_finite_poincare_constant_without_alpha_is_named(self, capsys):
        # alpha = 0 skips the Poincare bound: the convex bound checks it alone
        code, out, err = run_cli(
            capsys, "theory", "--L", "1", "--m", "1", "--alpha", "0", "--gamma", "2", "--poincare", "nan",
        )
        assert (code, out) == (2, "")
        assert "error: lambda_pi must be a finite number" in err


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

    @pytest.mark.parametrize("gamma", ["-1", "0", "nan", "inf"])
    def test_a_gamma_that_is_not_finite_and_positive_prints_no_line(self, capsys, gamma):
        # gamma = -1 zeroes 1 + alpha gamma, the first table's divisor
        code, out, err = run_cli(capsys, "spectral", "--gamma", gamma)
        assert (code, out) == (2, "")
        assert "error: --gamma must be a finite number > 0" in err

    def test_an_eps_whose_inverse_overflows_is_named(self, capsys):
        # 1 / eps = inf made the eigenvalue block non-finite: "matrix must be finite"
        code, out, err = run_cli(capsys, "spectral", "--eps", "5e-324")
        assert (code, out) == (2, "")
        assert "error: eps must lie in (0, 1), with 1 / eps finite" in err

    def test_a_large_gamma_prints_its_radius(self, capsys):
        # tr^2 of the alpha = 0 block overflowed with a RuntimeWarning
        code, out, err = run_cli(capsys, "spectral", "--gamma", "1e154")
        assert code == 0, err
        assert out.splitlines()[2] == "0 1e+154 5e+153 5e+307"

    def test_a_c_that_underflows_prints_no_line(self, capsys):
        code, out, err = run_cli(capsys, "spectral", "--c", "5e-324", "--eps", "0.9")
        assert (code, out) == (2, "")
        assert "error: eps, c outside the range where the defining system holds to 1e-10" in err

    @pytest.mark.parametrize("c", ["nan", "inf"])
    def test_a_non_finite_c_prints_no_line(self, capsys, c):
        code, out, err = run_cli(capsys, "spectral", "--c", c)
        assert (code, out) == (2, "")
        assert "error: c must be a finite number" in err


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

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"sampler": [{"id": "u", "kind": "uld_klmc", "gamma": 2.0, "step": 400.0}]},
             "sampler[0].gamma * step must be < 700 for uld_klmc's exact OU flow"),
            ({"metric": "mean_error", "reference": {"type": "benchmark_run", "kind": "uld_klmc", "step": 400.0}},
             "reference.gamma * step must be < 700 for uld_klmc's exact OU flow"),
        ],
    )
    def test_an_exact_ou_flow_out_of_range_is_a_spec_error(self, tmp_path, capsys, change, message):
        # the kernel failed at run time with "gamma * t too large for stable exponentials"
        doc = {
            "potential": {"name": "quadratic_iso", "params": {"m": 1.0, "d": 1}},
            "sampler": [{"id": "a", "kind": "ula", "step": 0.1}],
            "chains": 10,
            "steps": 2,
            **change,
        }
        with pytest.raises(harness.ConfigError, match=re.escape(message)):
            harness.parse_config(json.dumps(doc))
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "experiment", str(cfg), "--out-dir", str(tmp_path / "o"))
        assert (code, out) == (2, "")
        assert f"error: {message}" in err

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

    def test_covariance_lost_to_raw_moments_names_sampler_step_and_init(self, tmp_path, capsys):
        # |mean| 1e6 over a spread of 1e-7: the raw second moments cancel
        # below the spread, and the record's covariance is not PSD
        doc = {
            "potential": {"name": "quadratic_iso", "params": {"m": 1.0, "d": 2}},
            "sampler": [{"id": "a", "kind": "ula", "step": 0.1}],
            "steps": 2,
            "chains": 2000,
            "init": {"q": 1e6, "q_std": 1e-7},
        }
        cfg = tmp_path / "far.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "experiment", str(cfg), "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert err == (
            "error: sampler 'a': covariance is not positive semi-definite at record step 0; "
            "likely cause: init.q far from 0 against init.q_std\n"
        )
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("bins", [10**12, 2**63 - 1, 10**29, 2**62], ids=["1e12", "2^63-1", "1e29", "2^62"])
    def test_histogram_bins_too_many_to_allocate_is_config_error(self, tmp_path, capsys, bins):
        # 1e12 bins parse and fail to allocate their edges; numpy cannot even
        # ask for the edges of the others
        doc = {
            "potential": {"name": "quadratic_iso", "params": {"m": 1.0, "d": 1}},
            "sampler": [{"id": "u", "kind": "uld_klmc", "gamma": 2.0, "step": 0.1}],
            "chains": 2,
            "steps": 1,
            "metric": "chi2_hist",
            "histogram": {"bins": bins},
        }
        cfg = tmp_path / "bins.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "experiment", str(cfg), "--out-dir", str(tmp_path / "o"), "--format", "csv")
        assert (code, out) == (2, "")
        assert err.startswith("error: histogram.bins ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "given, message",
        [
            ({"lo": 5.0}, r"histogram\.lo = 5 is not below the automatic upper bound 0\.58\d* at record step 0; "
                          r"give histogram\.hi too"),
            ({"hi": -5.0}, r"histogram\.hi = -5 is not above the automatic lower bound -0\.57\d* at record step 0; "
                           r"give histogram\.lo too"),
        ],
        ids=["lo", "hi"],
    )
    def test_one_histogram_bound_beyond_the_samples_is_config_error(self, tmp_path, capsys, given, message):
        # the automatic other bound (mean +- 6 sd, about +-0.6 here) does not
        # lie beyond the given one, so no range holds the bins
        doc = {
            "potential": {"name": "quadratic_iso", "params": {"m": 1.0, "d": 1}},
            "sampler": [{"id": "u", "kind": "uld_klmc", "gamma": 2.0, "step": 0.1}],
            "chains": 2000,
            "steps": 4,
            "record_every": 1,
            "metric": "chi2_hist",
            "init": {"q": 0.0, "q_std": 0.1},
            "histogram": given,
        }
        cfg = tmp_path / "range.json"
        cfg.write_text(json.dumps(doc))
        out_dir = tmp_path / "o"
        code, out, err = run_cli(capsys, "experiment", str(cfg), "--out-dir", str(out_dir), "--format", "csv")
        assert (code, out) == (2, "")
        assert re.fullmatch("error: " + message + "\n", err), err
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
        "sampler, steps, record_every, code",
        [
            ({"id": "u", "kind": "uld_klmc", "gamma": 2.0, "step": 0.1}, 3, 1, 0),
            ({"id": "boom", "kind": "hfhr_strang", "alpha": 1.0, "gamma": 2.0, "step": 4.0}, 900, 100, 3),
        ],
        ids=["finished", "diverged"],
    )
    def test_a_run_with_no_finite_value_writes_no_plot_and_exits_as_its_run(self, tmp_path, capsys, sampler,
                                                                             steps, record_every, code):
        # every sample lands in the bin [40, 40.1], where the target's mass
        # underflows, so every row is inf; the parent exited 2, a config error
        doc = {
            "potential": {"name": "quadratic_iso", "params": {"m": 1.0, "d": 1}},
            "sampler": [sampler],
            "chains": 100,
            "steps": steps,
            "record_every": record_every,
            "metric": "chi2_hist",
            "histogram": {"lo": 40, "hi": 41, "bins": 10},
        }
        cfg = tmp_path / "far.json"
        cfg.write_text(json.dumps(doc))
        out_dir = tmp_path / "o"
        code_got, out, err = run_cli(capsys, "experiment", str(cfg), "--out-dir", str(out_dir))
        assert (code_got, out) == (code, ""), err
        rows = read_csv(str(out_dir / "results.csv"))
        assert rows and all(r.value == math.inf for r in rows)
        assert "warning: no finite values to plot; results.svg not written" in err
        assert not (out_dir / "results.svg").exists()

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

    @pytest.mark.parametrize("init", [{"q": 1e200}, {"q": 0.0, "q_std": 1e308}], ids=["huge-mean", "huge-spread"])
    def test_a_start_that_overflows_writes_nan_rows(self, tmp_path, capsys, init):
        # the start and its step-0 record run under the loop's errstate: an
        # overflow there is a nan metric (the README's overflow rule), not a
        # RuntimeWarning
        doc = {
            "potential": {"name": "quadratic_iso", "params": {"m": 1.0, "d": 1}},
            "sampler": [{"id": "u", "kind": "uld_klmc", "gamma": 2.0, "step": 0.1}],
            "chains": 10,
            "steps": 3,
            "init": init,
        }
        cfg = tmp_path / "overflow.json"
        cfg.write_text(json.dumps(doc))
        out_dir = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run_cli(capsys, "experiment", str(cfg), "--out-dir", str(out_dir), "--format", "csv")
        assert code == 0, err
        rows = read_csv(str(out_dir / "results.csv"))
        assert [r.step for r in rows] == [0, 1, 2, 3]
        assert all(math.isnan(r.value) for r in rows)

    def test_a_reference_start_that_overflows_diverges_without_a_warning(self, tmp_path, capsys):
        doc = {
            "potential": {"name": "quadratic_iso", "params": {"m": 1.0, "d": 1}},
            "sampler": [{"id": "u", "kind": "uld_klmc", "gamma": 2.0, "step": 0.1}],
            "chains": 10,
            "steps": 3,
            "init": {"q": 0.0, "q_std": 1e308},
            "metric": "mean_error",
            "reference": {"type": "benchmark_run", "kind": "uld_klmc", "step": 0.1, "chains": 10},
        }
        cfg = tmp_path / "overflow.json"
        cfg.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "experiment", str(cfg), "--out-dir", str(tmp_path / "o"))
        assert (code, out) == (2, "")
        assert "error: reference run diverged at step 1" in err
