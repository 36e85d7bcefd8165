import dataclasses
import json
import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from hfhr import harness
from hfhr.analysis import GaussianSummary, gaussian_continuous_propagation
from hfhr.harness import (
    ConfigError,
    parse_config,
    read_csv,
    run_experiment,
    sweep_iteration_complexity,
    write_csv,
    write_svg_plot,
)
from hfhr.metrics import w2_gaussian
from hfhr.potentials import builtin_potential


def minimal_doc(**overrides):
    doc = {
        "potential": {"name": "quadratic_iso", "params": {"m": 1.0, "d": 1}},
        "sampler": [
            {"id": "hfhr", "kind": "hfhr_strang", "alpha": 1.0, "gamma": 2.0, "step": 0.1}
        ],
        "horizon": 5.0,
        "record_every": 5,
        "seed": 42,
    }
    doc.update(overrides)
    return doc


class TestParseConfig:
    def test_defaults(self):
        spec = parse_config(json.dumps(minimal_doc()))
        assert spec.chains == 10000
        assert spec.hist_bins == 50
        assert spec.metric == "w2_gaussian"
        assert spec.reference == "closed_form"

    def test_negative_step_message(self):
        doc = minimal_doc()
        doc["sampler"][0]["step"] = -0.1
        with pytest.raises(ConfigError, match=re.escape("sampler[0].step must be > 0")):
            parse_config(json.dumps(doc))

    def test_unknown_potential_lists_valid_names(self):
        doc = minimal_doc(potential={"name": "gauss", "params": {}})
        with pytest.raises(ConfigError, match="quadratic_iso"):
            parse_config(json.dumps(doc))

    def test_unknown_key_rejected(self):
        doc = minimal_doc()
        doc["workers"] = 3
        with pytest.raises(ConfigError, match="unknown key 'workers'"):
            parse_config(json.dumps(doc))
        doc = minimal_doc()
        doc["sampler"][0]["h"] = 0.1
        with pytest.raises(ConfigError, match=re.escape("unknown key 'h' in sampler[0]")):
            parse_config(json.dumps(doc))

    def test_steps_xor_horizon(self):
        doc = minimal_doc()
        doc["steps"] = 10
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(json.dumps(doc))
        doc = minimal_doc()
        del doc["horizon"]
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(json.dumps(doc))

    def test_bad_potential_params_surface_eagerly(self):
        doc = minimal_doc(potential={"name": "quadratic_aniso", "params": {"m": 1.0, "kappa": 0.5, "d": 2}})
        with pytest.raises((ConfigError, ValueError), match="kappa"):
            parse_config(json.dumps(doc))

    def test_duplicate_ids(self):
        doc = minimal_doc()
        doc["sampler"] = [doc["sampler"][0], dict(doc["sampler"][0])]
        with pytest.raises(ConfigError, match="unique"):
            parse_config(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("{nope")

    def test_sampler_fields_checked_by_sampler_config(self):
        for field, value, message in (
            ("kind", "nope", "sampler[0].kind must be one of hfhr_strang"),
            ("step", "x", "sampler[0].step must be a finite number"),
            ("gamma", 0.0, "sampler[0].gamma must be > 0"),
            ("alpha", -1.0, "sampler[0].alpha must be >= 0"),
        ):
            doc = minimal_doc()
            doc["sampler"][0][field] = value
            with pytest.raises(ConfigError, match=re.escape(message)):
                parse_config(json.dumps(doc))

    def test_init_and_histogram_fields_checked(self):
        for overrides, message in (
            ({"init": {"q": [1.0, 2.0]}}, "init.q must be a number or a list of 1 numbers"),
            ({"init": {"p": "x"}}, "init.p must be a number or a list of 1 numbers"),
            ({"init": {"q_std": -1.0}}, "init.q_std must be a number >= 0"),
            ({"histogram": {"lo": "a", "hi": 1.0}}, "histogram.lo must be a number"),
            ({"histogram": {"lo": 2.0, "hi": 1.0}}, "histogram.lo must be < histogram.hi"),
        ):
            with pytest.raises(ConfigError, match=re.escape(message)):
                parse_config(json.dumps(minimal_doc(metric="chi2_hist", **overrides)))

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            parse_config(json.dumps(minimal_doc(seed=-1)))

    def test_single_chain_rejected(self):
        with pytest.raises(ConfigError, match=re.escape("chains must be an integer >= 2")):
            parse_config(json.dumps(minimal_doc(chains=1)))

    @staticmethod
    def reference_doc(**fields):
        return minimal_doc(metric="mean_error", reference={"type": "benchmark_run", **fields})

    def test_reference_kind_checked(self):
        with pytest.raises(ConfigError, match=re.escape("reference.kind must be one of")):
            parse_config(json.dumps(self.reference_doc(kind="nope")))

    def test_reference_horizon_checked(self):
        for horizon in ("x", 0.0, -2.0):
            with pytest.raises(ConfigError, match=re.escape("reference.horizon must be > 0")):
                parse_config(json.dumps(self.reference_doc(horizon=horizon)))

    def test_reference_gamma_checked(self):
        with pytest.raises(ConfigError, match=re.escape("reference.gamma must be a finite number")):
            parse_config(json.dumps(self.reference_doc(gamma="x")))
        with pytest.raises(ConfigError, match=re.escape("reference.gamma must be > 0")):
            parse_config(json.dumps(self.reference_doc(gamma=-1.0)))

    def test_reference_chains_checked(self):
        for chains in (0, 2.5, "x"):
            with pytest.raises(ConfigError, match=re.escape("reference.chains must be a positive integer")):
                parse_config(json.dumps(self.reference_doc(chains=chains)))

    def test_chi2_hist_with_benchmark_reference_rejected(self):
        doc = minimal_doc(metric="chi2_hist", reference={"type": "benchmark_run"})
        with pytest.raises(ConfigError, match="benchmark_run supports w2_gaussian and mean_error"):
            parse_config(json.dumps(doc))


def small_spec(**overrides):
    doc = minimal_doc(
        chains=400,
        horizon=2.0,
        record_every=4,
        init={"q": 1.0, "p": 0.0},
    )
    doc.update(overrides)
    return parse_config(json.dumps(doc))


class TestRunExperiment:
    def test_worker_count_does_not_change_bytes(self, tmp_path):
        spec = small_spec(chains=2500)
        paths = []
        for workers in (1, 8):
            series = run_experiment(spec, workers=workers)
            path = tmp_path / f"w{workers}.csv"
            write_csv(series, str(path))
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_gradient_accounting(self):
        spec = small_spec(chains=500)
        series = run_experiment(spec)
        steps = spec.steps_for(spec.samplers[0][1])
        assert series.grad_evals["hfhr"] == 500 * steps

    def test_gradient_count_of_diverging_blocks(self, monkeypatch):
        # two blocks (1000 + 500 chains) that blow up on their own steps:
        # each block is charged its chains times the step it diverged at
        rows = {"n": 0}
        original = harness.builtin_potential

        def counted(*args, **kwargs):
            model = original(*args, **kwargs)

            def grad(q):
                rows["n"] += np.shape(q)[0]
                return model.grad(q)

            return dataclasses.replace(model, grad=grad)

        monkeypatch.setattr(harness, "builtin_potential", counted)
        doc = minimal_doc(chains=1500, steps=800, record_every=100)
        del doc["horizon"]
        doc["sampler"] = [{"id": "blowup", "kind": "hfhr_strang", "alpha": 1.0, "gamma": 2.0, "step": 4.0}]
        series = run_experiment(parse_config(json.dumps(doc)))
        first_bad = series.diverged["blowup"]
        assert first_bad is not None
        assert series.grad_evals["blowup"] == rows["n"]
        assert 1500 * first_bad <= rows["n"] < 1500 * 800

    def test_w2_decay_on_standard_gaussian(self):
        # 1D standard Gaussian, gamma=2, alpha=1, h=0.1, horizon 5:
        # the final W2 sits a factor e^2 below the initial one, and the
        # whole trace stays near the continuous-dynamics oracle
        doc = minimal_doc(chains=10000, horizon=5.0, record_every=10)
        doc["init"] = {"q": 1.0, "p": 0.0}
        spec = parse_config(json.dumps(doc))
        series = run_experiment(spec)
        ts, vals = series.values("hfhr")
        assert vals[-1] < vals[0] / math.exp(2.0)
        # continuous oracle from the same (Dirac) start
        target = GaussianSummary([0.0], [[1.0]])
        oracle = gaussian_continuous_propagation(
            [[1.0]], 1.0, 2.0, [1.0, 0.0], np.zeros((2, 2)), ts[1:]
        )
        w_oracle = np.array([w2_gaussian(s.marginal([0]), target) for s in oracle])
        # discretization and Monte Carlo floors allow a loose band
        assert np.all(vals[1:] <= w_oracle + 0.1)

    def test_divergent_config_flagged_not_fatal(self):
        # spectral radius ~5 at h=4 needs a few hundred steps to overflow
        doc = minimal_doc(chains=200, steps=800, record_every=100)
        del doc["horizon"]
        doc["sampler"] = [
            {"id": "ok", "kind": "uld_klmc", "gamma": 2.0, "step": 0.1},
            {"id": "blowup", "kind": "hfhr_strang", "alpha": 1.0, "gamma": 2.0, "step": 4.0},
        ]
        spec = parse_config(json.dumps(doc))
        series = run_experiment(spec)
        assert series.diverged["ok"] is None
        assert series.diverged["blowup"] is not None
        assert not series.all_diverged
        flags = [r.flag for r in series.rows if r.config_id == "blowup"]
        assert flags and flags[-1] == "diverged"

    def test_mean_error_metric_closed_form(self):
        doc = minimal_doc(chains=3000, horizon=3.0, record_every=6, metric="mean_error")
        spec = parse_config(json.dumps(doc))
        series = run_experiment(spec)
        _, vals = series.values("hfhr")
        assert vals[0] == pytest.approx(1.0, abs=0.05)
        assert vals[-1] < 0.1
        stderrs = [r.stderr for r in series.rows]
        assert all(s is not None for s in stderrs)

    def test_chi2_hist_metric(self):
        doc = minimal_doc(
            chains=4000,
            horizon=4.0,
            record_every=10,
            metric="chi2_hist",
            histogram={"lo": -5.0, "hi": 5.0, "bins": 40},
        )
        spec = parse_config(json.dumps(doc))
        series = run_experiment(spec)
        _, vals = series.values("hfhr")
        assert vals[-1] < vals[0]
        assert vals[-1] < 0.05

    def test_benchmark_reference_cached(self, tmp_path):
        doc = minimal_doc(
            chains=400,
            horizon=1.0,
            record_every=5,
            metric="mean_error",
            reference={"type": "benchmark_run", "gamma": 2.0, "step": 0.01, "horizon": 12.0, "chains": 2000},
        )
        spec = parse_config(json.dumps(doc))
        cache = tmp_path / "cache"
        series1 = run_experiment(spec, cache_dir=str(cache))
        files = list(cache.glob("benchmark-*.json"))
        assert len(files) == 1
        series2 = run_experiment(spec, cache_dir=str(cache))
        assert [r.value for r in series1.rows] == [r.value for r in series2.rows]

    def test_closed_form_requires_quadratic_for_w2(self):
        doc = minimal_doc(potential={"name": "bimodal", "params": {}})
        spec = parse_config(json.dumps(doc))
        with pytest.raises(ConfigError, match="quadratic"):
            run_experiment(spec)


class TestSweep:
    def test_threshold_already_met_is_zero_iterations(self):
        model = builtin_potential("quadratic_iso", m=1.0, d=1)
        table = sweep_iteration_complexity(
            model, alphas=[0.0], gammas=[2.0], steps_grid=[0.1],
            eps=5.0, chains=100, seeds=(0,), init_q=1.0,
        )
        assert table[0].iterations_mean == 0.0

    def test_all_divergent_reports_infinity(self):
        model = builtin_potential("quadratic_iso", m=1.0, d=1)
        table = sweep_iteration_complexity(
            model, alphas=[1.0], gammas=[2.0], steps_grid=[50.0],
            eps=0.01, chains=50, seeds=(0,), cap=200,
        )
        assert math.isinf(table[0].iterations_mean)

    def test_alpha_zero_column_is_uld_discretization(self):
        # alpha = 0 must run the same kernel with no position noise; its
        # counts match a direct alpha=0 scan
        model = builtin_potential("quadratic_iso", m=1.0, d=2)
        table = sweep_iteration_complexity(
            model, alphas=[0.0, 1.0], gammas=[1.0, 2.0], steps_grid=[0.5, 0.2],
            eps=0.05, chains=1000, seeds=(0, 1),
        )
        assert table[0].alpha == 0.0
        assert table[0].iterations_mean >= 1
        assert table[1].iterations_mean >= 1


class TestCsv:
    def test_empty_series_header_only(self, tmp_path):
        series = harness.ResultSeries(metric="w2_gaussian", rows=[], grad_evals={}, diverged={})
        path = tmp_path / "empty.csv"
        write_csv(series, str(path))
        assert path.read_text() == harness.CSV_HEADER + "\n"

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        rows = [
            harness.ResultRow(
                config_id="c0",
                step=i,
                time=float(rng.uniform(0, 10)),
                value=float(rng.standard_normal() * 10.0 ** rng.integers(-12, 12)),
                stderr=None if i % 2 else float(rng.uniform()),
                flag="" if i % 3 else "diverged",
            )
            for i in range(20)
        ]
        series = harness.ResultSeries(metric="w2_gaussian", rows=rows, grad_evals={}, diverged={})
        path = tmp_path / "rt.csv"
        write_csv(series, str(path))
        back = read_csv(str(path))
        for orig, parsed in zip(rows, back):
            assert parsed.value == orig.value  # bit-identical through repr
            assert parsed.time == orig.time
            assert parsed.stderr == orig.stderr
            assert parsed.flag == orig.flag

    def test_round_trip_of_ids_needing_quotes(self, tmp_path):
        ids = ['a,b', 'say "hi"', "<x & y>", "plain"]
        rows = [
            harness.ResultRow(config_id=cid, step=1, time=0.5, value=0.25, stderr=None, flag="")
            for cid in ids
        ]
        series = harness.ResultSeries(metric="w2_gaussian", rows=rows, grad_evals={}, diverged={})
        path = tmp_path / "quoted.csv"
        write_csv(series, str(path))
        assert [r.config_id for r in read_csv(str(path))] == ids
        assert path.read_text().splitlines()[-1] == "plain,1,0.5,w2_gaussian,0.25,,"

    def test_io_error_carries_path(self):
        series = harness.ResultSeries(metric="m", rows=[], grad_evals={}, diverged={})
        with pytest.raises(OSError, match="/nonexistent"):
            write_csv(series, "/nonexistent/dir/file.csv")


def series_from(points):
    rows = []
    for cid, data in points.items():
        for i, (t, v) in enumerate(data):
            rows.append(harness.ResultRow(config_id=cid, step=i, time=t, value=v, stderr=None, flag=""))
    return harness.ResultSeries(metric="w2_gaussian", rows=rows, grad_evals={}, diverged={})


class TestSvg:
    def test_two_configs_two_polylines_with_legend(self, tmp_path):
        series = series_from({
            "a": [(0.0, 1.0), (1.0, 0.5), (2.0, 0.25)],
            "b": [(0.0, 2.0), (1.0, 1.0), (2.0, 0.5)],
        })
        path = tmp_path / "plot.svg"
        write_svg_plot(series, "linear", str(path))
        text = path.read_text()
        assert text.count("<polyline") == 2
        assert ">a</text>" in text and ">b</text>" in text
        assert "xlink" not in text and "href" not in text  # no external assets

    def test_ids_and_title_are_escaped(self, tmp_path):
        cid = 'a,"b" <c> & d'
        series = series_from({cid: [(0.0, 1.0), (1.0, 0.5)]})
        path = tmp_path / "escaped.svg"
        write_svg_plot(series, "linear", str(path), title="<w2> & more")
        texts = [el.text for el in ET.fromstring(path.read_text()).iter("{http://www.w3.org/2000/svg}text")]
        assert cid in texts and "<w2> & more" in texts

    def test_semilog_straightens_exponential(self, tmp_path):
        ts = np.linspace(0.0, 5.0, 11)
        series = series_from({"e": [(t, math.exp(-1.7 * t)) for t in ts]})
        path = tmp_path / "semilog.svg"
        write_svg_plot(series, "semilog-y", str(path))
        text = path.read_text()
        pts = re.search(r'points="([^"]+)"', text).group(1)
        xy = np.array([[float(v) for v in p.split(",")] for p in pts.split()])
        # collinearity of the polyline in pixel space
        x, y = xy[:, 0], xy[:, 1]
        slope = (y[-1] - y[0]) / (x[-1] - x[0])
        pred = y[0] + slope * (x - x[0])
        assert np.max(np.abs(y - pred)) < 1e-6
        # decade tick labels present
        assert "1e-" in text

    def test_loglog_slope_one_is_45_degrees(self, tmp_path):
        hs = [2.0**-k for k in range(8)]
        series = series_from({"h": [(h, 0.37 * h) for h in hs]})
        path = tmp_path / "loglog.svg"
        write_svg_plot(series, "log-log", str(path))
        text = path.read_text()
        pts = re.search(r'points="([^"]+)"', text).group(1)
        xy = np.array([[float(v) for v in p.split(",")] for p in pts.split()])
        dx = xy[-1, 0] - xy[0, 0]
        dy = xy[-1, 1] - xy[0, 1]
        # equal decade scaling: slope-one data runs at exactly -45 degrees
        assert dy / dx == pytest.approx(-1.0, abs=1e-9)

    def test_log_rejects_nonpositive(self, tmp_path):
        series = series_from({"z": [(0.0, 1.0), (1.0, 0.0), (2.0, 0.5)]})
        with pytest.raises(ValueError, match="nonpositive"):
            write_svg_plot(series, "semilog-y", str(tmp_path / "x.svg"))

    def test_bad_style(self, tmp_path):
        series = series_from({"a": [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]})
        with pytest.raises(ValueError, match="style"):
            write_svg_plot(series, "polar", str(tmp_path / "x.svg"))
