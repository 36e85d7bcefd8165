import dataclasses
import hashlib
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
from hfhr.rng import RandomSource
from hfhr.samplers import KINDS, ChainState, DivergenceError, SamplerConfig, iterate_chain, make_stepper


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

    def test_steps_that_overflow_are_rejected(self):
        doc = minimal_doc(horizon=1e300)
        doc["sampler"].append({"id": "tiny", "kind": "ula", "step": 1e-10})
        with pytest.raises(ConfigError, match=re.escape("sampler[1].step: the ratio horizon / step overflows")):
            parse_config(json.dumps(doc))
        doc["sampler"][1]["step"] = 1e-7  # 1e307 steps: huge but finite
        assert parse_config(json.dumps(doc)).steps_for(SamplerConfig(kind="ula", step=1e-7)) > 10**306

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

    def test_potential_params_errors_carry_their_path(self):
        cases = [
            ({"m": {}, "d": 1}, "potential.params.m must be a number"),
            ({"m": 1.0, "d": 0}, "potential.params.d must be >= 1"),
            ({"m": 1.0, "d": 1.5}, "potential.params.d must be an integer"),
            ({"m": 1.0, "kappa": 2.0}, "unknown key 'kappa' in potential.params"),
        ]
        for params, message in cases:
            doc = minimal_doc(potential={"name": "quadratic_iso", "params": params})
            with pytest.raises(ConfigError, match=re.escape(message)):
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

    def test_reference_steps_that_overflow_are_rejected(self):
        doc = self.reference_doc(step=1e-300, horizon=1e300)
        with pytest.raises(ConfigError, match=re.escape("reference.horizon: its ratio to reference.step overflows")):
            parse_config(json.dumps(doc))
        # unset, the reference horizon is 10 x horizon, which itself overflows
        doc = self.reference_doc()
        doc["horizon"] = 1e308
        doc["sampler"][0]["step"] = 1e300
        with pytest.raises(ConfigError, match=re.escape("reference.horizon: its ratio")):
            parse_config(json.dumps(doc))
        # huge but finite: a valid, endless run
        assert parse_config(json.dumps(self.reference_doc(step=1e-7, horizon=1e300))).benchmark.horizon == 1e300

    def test_reference_gamma_checked(self):
        with pytest.raises(ConfigError, match=re.escape("reference.gamma must be a finite number")):
            parse_config(json.dumps(self.reference_doc(gamma="x")))
        with pytest.raises(ConfigError, match=re.escape("reference.gamma must be > 0")):
            parse_config(json.dumps(self.reference_doc(gamma=-1.0)))

    def test_reference_chains_checked(self):
        for chains in (0, 2.5, "x"):
            with pytest.raises(ConfigError, match=re.escape("reference.chains must be a positive integer")):
                parse_config(json.dumps(self.reference_doc(chains=chains)))

    def test_booleans_are_not_numbers(self):
        # JSON true loads as a Python bool, which is an int
        for overrides, message in (
            ({"chains": True}, "chains must be an integer >= 2"),
            ({"record_every": True}, "record_every must be a positive integer"),
            ({"seed": False}, "seed must be a non-negative integer"),
            ({"horizon": True}, "horizon must be > 0"),
            ({"histogram": {"bins": True}}, "histogram.bins must be an integer >= 2"),
            ({"potential": {"name": "quadratic_iso", "params": {"m": True}}}, "potential.params.m must be a number"),
            ({"reference": {"type": "benchmark_run", "chains": True}}, "reference.chains must be a positive integer"),
            ({"init": {"q_std": True}}, "init.q_std must be a number >= 0"),
        ):
            with pytest.raises(ConfigError, match=re.escape(message)):
                parse_config(json.dumps(minimal_doc(metric="mean_error", **overrides)))
        doc = minimal_doc()
        doc["sampler"][0]["step"] = True
        with pytest.raises(ConfigError, match=re.escape("sampler[0].step must be a finite number")):
            parse_config(json.dumps(doc))

    def test_chi2_hist_with_benchmark_reference_rejected(self):
        doc = minimal_doc(metric="chi2_hist", reference={"type": "benchmark_run"})
        with pytest.raises(ConfigError, match="benchmark_run supports w2_gaussian and mean_error"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize(
        "potential, metric, message",
        [
            ({"name": "perturbed"}, "mean_error", "metric mean_error requires a potential with a known mean"),
            ({"name": "quadratic_iso", "params": {"d": 2}}, "chi2_hist", "metric chi2_hist requires a 1D potential"),
        ],
    )
    def test_closed_form_reference_needs_are_checked_at_parse_time(self, potential, metric, message):
        with pytest.raises(ConfigError, match=re.escape(f"reference.type closed_form with {message}")):
            parse_config(json.dumps(minimal_doc(potential=potential, metric=metric)))

    def test_shift_is_bounded_where_the_target_mean_is_finite(self):
        def doc(shift):
            potential = {"name": "coupled_logcosh", "params": {"d": 1, "shift": shift}}
            return json.dumps(minimal_doc(potential=potential, metric="mean_error"))

        assert np.isfinite(parse_config(doc(700)).model().target_mean).all()
        for shift in (701, -800):
            with pytest.raises(ConfigError, match=re.escape("potential.params.shift must be within [-700, 700]")):
                parse_config(doc(shift))

    def test_aniso_quadratic_requires_m(self):
        doc = minimal_doc(potential={"name": "quadratic_aniso", "params": {"kappa": 2.0, "d": 2}})
        with pytest.raises(ConfigError, match=re.escape("potential.params.m is required by 'quadratic_aniso'")):
            parse_config(json.dumps(doc))

    def test_chains_stop_where_block_streams_would_reach_the_reference(self):
        # block b of sampler c draws from stream c * 1,000,000 + b and the
        # reference from 900,000; parsing allocates nothing per chain
        assert parse_config(json.dumps(minimal_doc(chains=900_000_000))).chains == 900_000_000
        for chains in (900_000_001, 10**12):
            with pytest.raises(ConfigError, match="chains must be at most 900000000"):
                parse_config(json.dumps(minimal_doc(chains=chains)))
            with pytest.raises(ConfigError, match="reference.chains must be a positive integer at most 900000000"):
                parse_config(json.dumps(self.reference_doc(chains=chains)))

    def test_histogram_range_is_stored_as_floats(self):
        # a JSON integer of 10**30 would make numpy build object arrays
        spec = parse_config(json.dumps(minimal_doc(metric="chi2_hist", histogram={"lo": -5, "hi": 10**30})))
        assert (type(spec.hist_lo), type(spec.hist_hi)) == (float, float)


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

    def test_benchmark_cache_key_holds_the_format_version(self, monkeypatch):
        spec = parse_config(json.dumps(minimal_doc(metric="mean_error", reference={"type": "benchmark_run"})))
        key = harness._benchmark_key(spec)
        monkeypatch.setattr(harness, "BENCHMARK_CACHE_FORMAT", harness.BENCHMARK_CACHE_FORMAT + 1)
        assert harness._benchmark_key(spec) != key

    def test_interrupted_cache_write_leaves_no_file(self, tmp_path, monkeypatch):
        doc = minimal_doc(
            chains=50,
            horizon=1.0,
            metric="mean_error",
            reference={"type": "benchmark_run", "step": 0.1, "horizon": 2.0, "chains": 50},
        )
        spec = parse_config(json.dumps(doc))

        def dump_half(obj, fh):
            fh.write('{"mean": [')
            raise RuntimeError("killed mid-write")

        monkeypatch.setattr(harness.json, "dump", dump_half)
        cache = tmp_path / "cache"
        with pytest.raises(RuntimeError, match="killed mid-write"):
            run_experiment(spec, cache_dir=str(cache))
        assert list(cache.iterdir()) == []

    def test_an_integer_histogram_bound_runs(self):
        doc = minimal_doc(chains=20, steps=2, record_every=1, metric="chi2_hist", histogram={"lo": -5, "hi": 10**30})
        del doc["horizon"]
        series = run_experiment(parse_config(json.dumps(doc)))
        assert [r.step for r in series.rows] == [0, 1, 2]

    def test_record_steps_are_decided_by_arithmetic(self, monkeypatch):
        # no list or set of every record step is built before the first step
        class FirstGroup(Exception):
            pass

        def first_group(spec, model, config, steps, record_steps, streams, n, keep_samples):
            raise FirstGroup(steps, record_steps)

        monkeypatch.setattr(harness, "_run_group", first_group)
        for steps in (50, 10**12):  # a list at 50 fails before 10**12 is tried
            doc = minimal_doc(steps=steps, record_every=7)
            del doc["horizon"]
            with pytest.raises(FirstGroup) as exc:
                run_experiment(parse_config(json.dumps(doc)))
            assert exc.value.args == (steps, range(0, steps + 1, 7))

    def test_record_steps_end_at_the_last_step(self):
        doc = minimal_doc(chains=10, steps=50, record_every=7)
        del doc["horizon"]
        series = run_experiment(parse_config(json.dumps(doc)))
        assert [r.step for r in series.rows] == [0, 7, 14, 21, 28, 35, 42, 49, 50]

    @pytest.mark.parametrize("metric", ["mean_error", "w2_gaussian"])
    def test_reference_whose_moments_overflow_diverged(self, tmp_path, metric):
        # ula at h = 2.5 multiplies q by -1.5 per step: by step 1000 of the
        # reference q^2 overflows, though q itself stays finite
        doc = minimal_doc(
            chains=10,
            metric=metric,
            reference={"type": "benchmark_run", "kind": "ula", "step": 2.5, "horizon": 2500.0, "chains": 10},
        )
        with pytest.raises(ConfigError, match="reference run diverged: its moments overflowed by step 1000"):
            run_experiment(parse_config(json.dumps(doc)), cache_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_reference_too_large_to_allocate_is_config_error(self, monkeypatch):
        def no_memory(spec, dim, n, sources):
            raise MemoryError(f"Unable to allocate {n} rows")

        monkeypatch.setattr(harness, "_init_blocks", no_memory)
        doc = minimal_doc(metric="mean_error", reference={"type": "benchmark_run", "chains": 900_000_000})
        with pytest.raises(ConfigError, match="reference.chains is too large: Unable to allocate 900000000 rows"):
            run_experiment(parse_config(json.dumps(doc)))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_blocks_too_large_to_allocate_are_config_error(self, monkeypatch, workers):
        def no_memory(spec, dim, n, sources):
            raise MemoryError(f"Unable to allocate {n} x {dim}")

        monkeypatch.setattr(harness, "_init_blocks", no_memory)
        doc = minimal_doc(potential={"name": "coupled_logcosh", "params": {"d": 10**6}}, metric="mean_error")
        with pytest.raises(ConfigError, match="chains and potential.params.d are too large .*1000 x 1000000"):
            run_experiment(parse_config(json.dumps(doc)), workers=workers)

    def test_samples_where_the_target_has_no_mass_score_infinite_chi2(self):
        # one step of h = 1.3 throws chains far out of the double well, where
        # the target density underflows to 0 inside the automatic range
        doc = minimal_doc(
            potential={"name": "bimodal", "params": {}},
            sampler=[{"id": "s", "kind": "hfhr_strang", "step": 1.3, "gamma": 1.2, "alpha": 1.3}],
            chains=200,
            steps=2,
            record_every=1,
            seed=1,
            metric="chi2_hist",
        )
        del doc["horizon"]
        series = run_experiment(parse_config(json.dumps(doc)))
        values = [r.value for r in series.rows]
        assert math.isfinite(values[0]) and values[1:] == [math.inf, math.inf]

    def test_overflowed_second_moments_give_nan_w2(self):
        # d = 2: the moments overflow on the way to the blow-up at step 251
        doc = minimal_doc(
            potential={"name": "quadratic_aniso", "params": {"m": 1.0, "kappa": 4.0, "d": 2}},
            sampler=[{"id": "s", "kind": "hfhr_strang", "alpha": 1.0, "gamma": 2.0, "step": 3.0}],
            chains=20,
            steps=300,
            record_every=20,
            seed=11,
        )
        del doc["horizon"]
        series = run_experiment(parse_config(json.dumps(doc)))
        assert series.diverged["s"] == 251
        last = series.rows[-1]
        assert (last.step, last.flag) == (240, "diverged") and math.isnan(last.value)

    def test_closed_form_requires_quadratic_for_w2(self):
        doc = minimal_doc(potential={"name": "bimodal", "params": {}})
        with pytest.raises(ConfigError, match="quadratic"):
            parse_config(json.dumps(doc))


def serial_block(spec, model, config, steps, record_steps, stream, n, keep_samples):
    """One block run alone on its own stream: (snapshots, diverged_at)."""
    rng = RandomSource(spec.seed, stream)
    q = np.broadcast_to(np.asarray(spec.init.q, dtype=float), (n, model.dim)).copy()
    p = np.broadcast_to(np.asarray(spec.init.p, dtype=float), (n, model.dim)).copy()
    if spec.init.q_std > 0:
        q += spec.init.q_std * rng.normals((n, model.dim))
    if spec.init.p_std > 0:
        p += spec.init.p_std * rng.normals((n, model.dim))

    def snapshot(q):
        return q.copy() if keep_samples else (q.sum(axis=0), q.T @ q)

    state = ChainState(q=q, p=p)
    sums = [snapshot(state.q)]
    try:
        for k, state in iterate_chain(state, make_stepper(model, config), steps, rng):
            if k in record_steps:
                sums.append(snapshot(state.q))
    except DivergenceError as exc:
        return sums, exc.step
    return sums, None


def assert_same_block(records, j, n, sums):
    """Block j's slice of a group's records holds the bytes of its run alone.

    The slice is ``(sum_q[j], sum_qq[j])`` of a moment record, or rows
    ``j * n:(j + 1) * n`` of a samples record; the run alone may hold more
    records than the group.
    """
    assert len(records) <= len(sums)
    for got, want in zip(records, sums):
        got, want = ((got[0][j], got[1][j]), want) if isinstance(want, tuple) else ((got[j * n:(j + 1) * n],), (want,))
        assert [np.shape(g) for g in got] == [np.shape(w) for w in want]
        assert [np.asarray(g).tobytes() for g in got] == [np.asarray(w).tobytes() for w in want]


def assert_same_group(spec, model, config, steps, record_steps, streams, n, result):
    """A group's (records, diverged_at) against its blocks run alone.

    The group stops at its blocks' first divergence, so it holds the records
    that every block holds alone.
    """
    records, diverged_at = result
    alone = [serial_block(spec, model, config, steps, record_steps, stream, n, spec.metric == "chi2_hist")
             for stream in streams]
    assert diverged_at == min((bad for _, bad in alone if bad is not None), default=None)
    assert len(records) == min(len(sums) for sums, _ in alone)
    for j, (sums, _) in enumerate(alone):
        assert_same_block(records, j, n, sums)


@pytest.fixture
def recorded_groups(monkeypatch):
    """Each group run_experiment steps: (config, n, streams, result), in call order."""
    groups = []
    original = harness._run_group

    def recording(spec, model, config, steps, record_steps, streams, n, keep_samples):
        result = original(spec, model, config, steps, record_steps, streams, n, keep_samples)
        groups.append((config, n, list(streams), result))
        return result

    monkeypatch.setattr(harness, "_run_group", recording)
    return groups


def check_against_serial(spec, groups):
    """Every recorded group against its blocks run alone; returns each config's groups of streams."""
    model = spec.model()
    stacks = {}
    for config, n, streams, result in groups:
        steps = spec.steps_for(config)
        record_steps = set(range(0, steps + 1, spec.record_every)) | {steps}
        assert_same_group(spec, model, config, steps, record_steps, streams, n, result)
        stacks.setdefault(config, []).append(streams)
    return {config: sorted(streams) for config, streams in stacks.items()}


def counting_grad(monkeypatch, counted, fault=None):
    """Make run_experiment's potentials count gradient calls and rows in ``counted``.

    ``fault(calls, g)`` may then write into the gradient ``g`` of that call.
    """
    original = harness.builtin_potential

    def counted_potential(*args, **kwargs):
        model = original(*args, **kwargs)

        def grad(q):
            counted["calls"] += 1
            counted["rows"] += np.shape(q)[0]
            g = model.grad(q)
            if fault is not None:
                fault(counted["calls"], g)
            return g

        return dataclasses.replace(model, grad=grad)

    monkeypatch.setattr(harness, "builtin_potential", counted_potential)


def quartic_blowup_spec(monkeypatch):
    """Four blocks of ten in one group: ula at h = 0.5 on the quartic throws
    out chains that wander past |q| ~ 2; run alone, the blocks diverge at
    steps 7, 10, 11 and 9."""
    monkeypatch.setattr(harness, "BLOCK_SIZE", 10)
    doc = minimal_doc(
        potential={"name": "quartic", "params": {}},
        sampler=[{"id": "c", "kind": "ula", "step": 0.5}],
        chains=40,
        steps=30,
        record_every=1,
        seed=5,
        metric="mean_error",
        init={"q": 0.0, "q_std": 1.0},
    )
    del doc["horizon"]
    return parse_config(json.dumps(doc))


def csv_sha256(series, tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(series, str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


# name -> params, every builtin potential at a small size
SMALL_POTENTIALS = {
    "quadratic_iso": {"m": 1.0, "d": 3},
    "quadratic_aniso": {"m": 1.0, "kappa": 4.0, "d": 2},
    "quartic": {},
    "perturbed": {},
    "bimodal": {},
    "rosenbrock2d": {},
    "coupled_logcosh": {"d": 3, "shift": 1.0},
}


class TestStackedBlocks:
    def test_groups_stack_equal_sizes_up_to_the_cap(self):
        assert harness._groups([1000] * 10, 1) == [list(range(10))]
        assert harness._groups([1000, 1000, 500], 1) == [[0, 1], [2]]
        assert harness._groups([1000] * 4, 100) == [[0], [1], [2], [3]]
        assert harness._groups([1000] * 12, 10) == [list(range(10)), [10, 11]]
        assert harness._groups([1000] * 3, 1000) == [[0], [1], [2]]

    def test_stacked_draws_put_each_block_stream_in_its_rows(self):
        draws = harness._StackedDraws([RandomSource(3, b) for b in (5, 6, 7)], 4)
        stacked = [draws.normals((2, 12, 3)), draws.normals((12, 3))]
        for i, b in enumerate((5, 6, 7)):
            alone = RandomSource(3, b)
            assert stacked[0][:, 4 * i:4 * (i + 1)].tobytes() == alone.normals((2, 4, 3)).tobytes()
            assert stacked[1][4 * i:4 * (i + 1)].tobytes() == alone.normals((4, 3)).tobytes()

    def test_one_block_gets_its_draw_without_a_copy(self):
        drawn = []

        class Source:
            def normals(self, shape):
                drawn.append(np.zeros(shape))
                return drawn[-1]

        assert harness._StackedDraws([Source()], 4).normals((2, 4, 3)) is drawn[-1]

    @pytest.mark.parametrize("name", sorted(SMALL_POTENTIALS))
    def test_every_potential_and_kind_matches_blocks_run_alone(self, name):
        doc = minimal_doc(
            potential={"name": name, "params": SMALL_POTENTIALS[name]},
            init={"q": 0.5, "p": 0.0, "q_std": 0.3, "p_std": 0.3},
            steps=12,
            record_every=3,
            reference={"type": "benchmark_run"},  # parses on every potential; never run here
        )
        del doc["horizon"]
        spec = parse_config(json.dumps(doc))
        model = spec.model()
        streams = [3, 4, 5, 6, 7]
        for kind in KINDS:
            config = SamplerConfig(kind=kind, step=0.02, gamma=2.0, alpha=0.5)
            result = harness._run_group(spec, model, config, 12, [0, 3, 6, 9, 12], streams, 30, False)
            assert result[1] is None
            assert_same_group(spec, model, config, 12, {3, 6, 9, 12}, streams, 30, result)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("metric", ["w2_gaussian", "chi2_hist"])
    def test_ragged_chains_match_blocks_run_alone(self, recorded_groups, metric, workers):
        doc = minimal_doc(chains=2500, horizon=2.0, record_every=4, metric=metric)
        doc["init"] = {"q": 1.0, "p": 0.0, "q_std": 0.5}
        doc["sampler"].append({"id": "klmc", "kind": "uld_klmc", "gamma": 2.0, "step": 0.1})
        spec = parse_config(json.dumps(doc))
        run_experiment(spec, workers=workers)
        # two full blocks stack; the ragged 500 runs alone
        assert list(check_against_serial(spec, recorded_groups).values()) == [
            [[0, 1], [2]],
            [[1_000_000, 1_000_001], [1_000_002]],
        ]

    @pytest.mark.parametrize("case", ["1-mean_error", "1-w2_gaussian", "2-mean_error", "2-w2_gaussian", "quartic-blowup"])
    def test_record_chunks_do_not_change_the_rows(self, monkeypatch, case):
        # _STACK_COORDS bounds the groups and the merge's record chunks: at 1
        # and 7 every block is a group of its own; at 1 each record is a chunk
        # of its own, at 7 the 26 records of d = 1 split 7, 7, 7, 5 and those
        # of d = 2 go one by one. A group stops at its first divergence, so a
        # diverging config's gradient count follows the groups; its rows and
        # divergence step do not
        if case == "quartic-blowup":
            spec = quartic_blowup_spec(monkeypatch)
        else:
            d, metric = case.split("-")
            doc = minimal_doc(
                potential={"name": "quadratic_aniso", "params": {"m": 1.0, "kappa": 4.0, "d": int(d)}},
                chains=2500,
                steps=25,
                record_every=1,
                metric=metric,
                init={"q": 1.0, "q_std": 0.5},
            )
            del doc["horizon"]
            doc["sampler"].append({"id": "ula", "kind": "ula", "step": 0.2})
            spec = parse_config(json.dumps(doc))
        counted = {"calls": 0, "rows": 0}
        counting_grad(monkeypatch, counted)

        def run():
            counted["rows"] = 0
            series = run_experiment(spec)
            assert sum(series.grad_evals.values()) == counted["rows"]
            rows = [(r.config_id, r.step, repr(r.value), repr(r.stderr), r.flag) for r in series.rows]
            return rows, series.diverged, series.grad_evals

        expected = run()
        assert len(expected[0]) == (7 if case == "quartic-blowup" else 52)
        for coords in (1, 7):
            monkeypatch.setattr(harness, "_STACK_COORDS", coords)
            rows, diverged, grad_evals = run()
            assert (rows, diverged) == expected[:2]
            if case == "quartic-blowup":  # one group of four, then four groups stopped at 7, 10, 11 and 9
                assert (expected[2], grad_evals) == ({"c": 40 * 7}, {"c": 10 * (7 + 10 + 11 + 9)})
            else:
                assert grad_evals == expected[2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_group_stops_at_its_first_divergence(self, recorded_groups, monkeypatch, tmp_path, workers):
        # the quartic's four blocks of ten form one group; run alone they
        # diverge at steps 7, 10, 11 and 9, so the group stops at step 7
        spec = quartic_blowup_spec(monkeypatch)
        counted = {"calls": 0, "rows": 0}
        counting_grad(monkeypatch, counted)
        series = run_experiment(spec, workers=workers)
        assert series.grad_evals["c"] == counted["rows"] == 40 * 7
        assert check_against_serial(spec, recorded_groups) == {spec.samplers[0][1]: [[0, 1, 2, 3]]}
        (config, n, streams, (records, diverged_at)), = recorded_groups
        alone = [serial_block(spec, spec.model(), config, 30, set(range(31)), stream, n, False) for stream in streams]
        assert [bad for _, bad in alone] == [7, 10, 11, 9]
        assert (diverged_at, len(records)) == (7, 7)
        assert series.diverged["c"] == 7
        assert [(r.step, r.flag) for r in series.rows] == [(k, "") for k in range(6)] + [(6, "diverged")]
        # the rows as they were when every block stepped on to its own divergence
        assert csv_sha256(series, tmp_path) == "e0d2ba6ddd32fcaaececc7559d65525f352dd166e4eea75c43d84d7cffbd638e"

    def test_gradient_count_of_a_group_that_stops_at_its_first_divergence(self, recorded_groups, monkeypatch, tmp_path):
        # two blocks of 1000 at d = 1 stack; the gradient returns inf on the
        # second block's rows from step 3 and on the first block's from step 6,
        # a step the group never takes
        def fault(calls, g):
            if calls >= 3:
                g[1000:] = np.inf
            if calls >= 6:
                g[:1000] = np.inf

        counted = {"calls": 0, "rows": 0}
        counting_grad(monkeypatch, counted, fault)
        doc = minimal_doc(chains=2000, steps=10, record_every=1)
        del doc["horizon"]
        doc["sampler"] = [{"id": "c", "kind": "ula", "step": 0.1}]
        series = run_experiment(parse_config(json.dumps(doc)))
        (_, _, streams, (records, diverged_at)), = recorded_groups
        assert (streams, diverged_at, len(records)) == ([0, 1], 3, 3)
        assert series.diverged["c"] == 3
        assert series.grad_evals["c"] == counted["rows"] == 2000 * 3
        assert counted["calls"] == 3
        assert [(r.step, r.flag) for r in series.rows] == [(0, ""), (1, ""), (2, "diverged")]
        # the rows as they were when the first block stepped on to step 6
        assert csv_sha256(series, tmp_path) == "9f3305eed343b7f6c448c0a06e1802822fd8f9df961df62e22c9429c18fb6307"


def serial_pair_hit(model, config, seed, chains, limit, eps, init_q):
    """First-hit step of one pair run alone on a fresh RandomSource(seed, 0):
    an int, "diverged", or None when it neither hits nor diverges by ``limit``."""
    state = ChainState(q=np.full((chains, model.dim), float(init_q)), p=np.zeros((chains, model.dim)))
    if np.linalg.norm(state.q.mean(axis=0) - model.target_mean) <= eps:
        return 0
    try:
        for k, state in iterate_chain(state, make_stepper(model, config), limit, RandomSource(seed, 0)):
            if np.linalg.norm(state.q.mean(axis=0) - model.target_mean) <= eps:
                return k
    except DivergenceError:
        return "diverged"
    return None


def serial_sweep(model, alphas, gammas, steps_grid, eps, chains, seeds, cap, init_q):
    """The sweep one pair at a time, in grid order, each pair capped at the
    best count so far; a later pair wins only with strictly fewer steps."""
    table = []
    for alpha in alphas:
        per_seed, best_combo = [], None
        for seed in seeds:
            best = None
            for gamma in gammas:
                for h in steps_grid:
                    config = SamplerConfig(kind="hfhr_strang", step=h, gamma=gamma, alpha=alpha)
                    limit = cap if best is None else min(cap, best)
                    k = serial_pair_hit(model, config, seed, chains, limit, eps, init_q)
                    if isinstance(k, int) and (best is None or k < best):
                        best = k
                        if seed == seeds[0]:
                            best_combo = (float(gamma), float(h))
            per_seed.append(best)
        finite = np.array([k for k in per_seed if k is not None], dtype=float)
        if finite.size == 0:
            table.append(harness.SweepRow(float(alpha), None, None, math.inf, math.inf))
        else:
            gamma, h = best_combo if best_combo else (None, None)
            table.append(harness.SweepRow(float(alpha), gamma, h, float(finite.mean()), float(finite.std())))
    return table


# (alphas, gammas, steps_grid, eps, init_q, seeds), each named for what it covers
SWEEP_CASES = {
    # at alpha = 1 every pair hits at step 2 on seed 0: the first pair wins
    "tie": ([0.0, 1.0], [1.0, 2.0, 4.0], [0.5, 1.0], 0.3, 1.0, (0, 1)),
    # h = 1e35 with a near-zero gamma overflows at step 4, before h = 0.5
    # hits at step 8; alpha = 1e308 makes alpha * h overflow, so its row is inf
    "divergence": ([1.0, 1e308], [1e-40], [1e35, 0.5], 0.3, 10.0, (0, 1)),
    "start-within-eps": ([0.0, 1.0], [1.0, 2.0], [0.5, 1.0], 5.0, 1.0, (0,)),
}


class TestSweep:
    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_lockstep_matches_serial_scan(self, case):
        alphas, gammas, steps_grid, eps, init_q, seeds = SWEEP_CASES[case]
        model = builtin_potential("quadratic_iso", m=1.0, d=2)
        kwargs = dict(eps=eps, chains=200, seeds=seeds, cap=150, init_q=init_q)
        expected = serial_sweep(model, alphas, gammas, steps_grid, **kwargs)
        assert sweep_iteration_complexity(model, alphas, gammas, steps_grid, **kwargs) == expected

        def hits(alpha):
            return [
                serial_pair_hit(model, SamplerConfig("hfhr_strang", h, g, alpha), seeds[0], 200, 150, eps, init_q)
                for g in gammas for h in steps_grid
            ]

        # the case exercises what it is named for
        if case == "tie":
            assert hits(1.0) == [2] * 6 and (expected[1].best_gamma, expected[1].best_step) == (1.0, 0.5)
        elif case == "divergence":
            assert hits(1.0) == ["diverged", 8] and expected[0].iterations_mean == 8.0
            assert set(hits(1e308)) == {"diverged"} and math.isinf(expected[1].iterations_mean)
        else:
            assert [row.iterations_mean for row in expected] == [0.0, 0.0]
            assert (expected[0].best_gamma, expected[0].best_step) == (1.0, 0.5)

    def test_errstate_is_restored(self):
        # each pair's loop holds its own errstate across yields; the sweep
        # must hand back the caller's, however its pairs leave
        model = builtin_potential("quadratic_iso", m=1.0, d=1)
        with np.errstate(over="warn", invalid="warn"):
            before = np.geterr()
            # alpha * h overflows, so the first pair diverges at step 1
            table = sweep_iteration_complexity(
                model, alphas=[1e308], gammas=[2.0], steps_grid=[10.0, 0.5], eps=0.01, chains=50, seeds=(0,), cap=50
            )
            assert math.isinf(table[0].iterations_mean)
            assert np.geterr() == before
            # the first pair leaves at step 4, after the second entered its
            # loop, and the second hits at step 8: the loops leave out of
            # entry order
            model = builtin_potential("quadratic_iso", m=1.0, d=2)
            table = sweep_iteration_complexity(
                model, alphas=[1.0], gammas=[1e-40], steps_grid=[1e35, 0.5], eps=0.3, chains=200, seeds=(0,),
                cap=150, init_q=10.0,
            )
            assert table[0].iterations_mean == 8.0
            assert np.geterr() == before

    def test_kernel_writing_into_its_noise_fails_loudly(self, monkeypatch):
        def make_writing_stepper(model, config):
            step = make_stepper(model, config)

            def writing(state, rng):
                rng.normals(np.shape(state.q))[...] = 0.0
                return step(state, rng)

            return writing

        monkeypatch.setattr(harness, "make_stepper", make_writing_stepper)
        model = builtin_potential("quadratic_iso", m=1.0, d=1)
        with np.errstate(over="warn", invalid="warn"):
            before = np.geterr()
            with pytest.raises(ValueError, match="read-only"):
                sweep_iteration_complexity(
                    model, alphas=[1.0], gammas=[2.0], steps_grid=[0.5, 0.2], eps=0.01, chains=50, seeds=(0,), cap=20
                )
            assert np.geterr() == before

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

    def test_non_finite_values_are_left_out(self, tmp_path):
        finite = series_from({"a": [(0.0, 1.0), (1.0, 0.5)], "b": [(0.0, 2.0), (1.0, 1.0)]})
        mixed = series_from({"a": [(0.0, 1.0), (1.0, 0.5), (2.0, math.inf)], "b": [(0.0, 2.0), (1.0, 1.0), (2.0, math.nan)]})
        for style in ("linear", "semilog-y"):
            write_svg_plot(finite, style, str(tmp_path / "finite.svg"))
            write_svg_plot(mixed, style, str(tmp_path / "mixed.svg"))
            assert (tmp_path / "mixed.svg").read_bytes() == (tmp_path / "finite.svg").read_bytes()
        with pytest.raises(ValueError, match="no finite values"):
            write_svg_plot(series_from({"a": [(0.0, math.nan)]}), "linear", str(tmp_path / "none.svg"))

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
