"""Experiment specification, seeded parallel execution, and CSV/SVG output.

Chains are stepped in fixed-size blocks of 1000; each block draws from its
own noise stream keyed on (seed, config index, block index) and the block
partials are merged in block order, so results are byte-identical for any
worker count.

Consecutive equal-size blocks of a config step as one stacked state, each
block still on its own stream (``_run_group``); these groups are the thread
pool's tasks.  A group stops at its first non-finite row, since a config's
output ends at its first divergence.  A config's records are merged and
scored as stacked arrays (``_moment_values``).
"""

from __future__ import annotations

import csv
import hashlib
import html
import json
import math
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, closing
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .analysis import GaussianSummary
from .metrics import chi2_histogram, w2_gaussian_stack
from .metrics import w2_gaussian  # noqa: F401  perfbench's tracer wraps harness.w2_gaussian
from .potentials import POTENTIAL_PARAMS, VALID_POTENTIALS, PotentialModel, builtin_potential, finite_number
from .rng import RandomSource
from .samplers import ChainState, DivergenceError, SamplerConfig, iterate_chain, make_stepper

BLOCK_SIZE = 1000

# block b of config c draws from stream c * _CONFIG_STREAMS + b, the benchmark
# reference from _REFERENCE_STREAM: more blocks than that would share streams
_CONFIG_STREAMS = 1_000_000
_REFERENCE_STREAM = 900_000

METRICS = ("w2_gaussian", "chi2_hist", "mean_error")


class ConfigError(ValueError):
    """Schema violation in an experiment document; message carries the path."""


@dataclass(frozen=True)
class InitSpec:
    q: float | list = 1.0
    p: float | list = 0.0
    q_std: float = 0.0
    p_std: float = 0.0


@dataclass(frozen=True)
class BenchmarkSpec:
    kind: str = "uld_klmc"
    gamma: float = 2.0
    step: float = 0.0005
    horizon: Optional[float] = None  # defaults to 10x the experiment horizon
    chains: Optional[int] = None


@dataclass(frozen=True)
class ExperimentSpec:
    potential_name: str
    potential_params: dict
    samplers: list  # of (config_id, SamplerConfig)
    chains: int = 10000
    steps: Optional[int] = None
    horizon: Optional[float] = None
    record_every: int = 1
    seed: int = 0
    metric: str = "w2_gaussian"
    reference: str = "closed_form"
    benchmark: Optional[BenchmarkSpec] = None
    init: InitSpec = field(default_factory=InitSpec)
    hist_lo: Optional[float] = None
    hist_hi: Optional[float] = None
    hist_bins: int = 50

    def model(self) -> PotentialModel:
        return builtin_potential(self.potential_name, **self.potential_params)

    def steps_for(self, config: SamplerConfig) -> int:
        if self.steps is not None:
            return self.steps
        return max(1, int(round(self.horizon / config.step)))

    def reference_horizon(self) -> float:
        """The benchmark reference's horizon: its own, or 10x the experiment's."""
        return self.benchmark.horizon or (10.0 * (self.horizon or 1.0))


@dataclass(frozen=True)
class ResultRow:
    config_id: str
    step: int
    time: float
    value: float
    stderr: Optional[float]
    flag: str


@dataclass(frozen=True)
class ResultSeries:
    metric: str
    rows: list
    grad_evals: dict  # config_id -> int
    diverged: dict  # config_id -> Optional[int] (first bad step)

    def values(self, config_id: str):
        rows = [r for r in self.rows if r.config_id == config_id]
        return (
            np.array([r.time for r in rows]),
            np.array([r.value for r in rows]),
        )

    @property
    def all_diverged(self) -> bool:
        return len(self.diverged) > 0 and all(
            v is not None for v in self.diverged.values()
        )


def _check_keys(obj: dict, allowed: set, where: str):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {where}")


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _positive_number(value) -> bool:
    return finite_number(value) and value > 0


def _sampler_config(where: str, **fields) -> SamplerConfig:
    """SamplerConfig from spec fields; its ValueError gains the spec path."""
    try:
        return SamplerConfig(**fields)
    except ValueError as exc:
        raise ConfigError(f"{where}.{exc}") from exc


def build_potential(name, params: dict) -> PotentialModel:
    """The named built-in potential under the spec's rules; errors carry spec paths."""
    if name not in VALID_POTENTIALS:
        raise ConfigError(f"potential.name: unknown potential '{name}'; valid names: " + ", ".join(VALID_POTENTIALS))
    _check_keys(params, set(POTENTIAL_PARAMS[name]), "potential.params")
    try:
        return builtin_potential(name, **params)
    except ValueError as exc:  # its messages start with the parameter's name
        raise ConfigError(f"potential.params.{exc}") from exc
    except MemoryError as exc:  # only d sizes the model's arrays
        raise ConfigError(f"potential.params.d is too large: {exc}") from exc


def parse_config(text: str) -> ExperimentSpec:
    """Parse and validate a JSON experiment document.

    Unknown keys are rejected; violations carry path-qualified messages
    (e.g. "sampler[0].step must be > 0").  Defaults are documented in the
    README: chains=10000, record_every=1, seed=0, metric=w2_gaussian,
    reference=closed_form, histogram bins=50.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("top level must be an object")
    _check_keys(
        doc,
        {
            "potential",
            "sampler",
            "chains",
            "steps",
            "horizon",
            "record_every",
            "seed",
            "metric",
            "reference",
            "init",
            "histogram",
        },
        "top level",
    )

    pot = doc.get("potential")
    if not isinstance(pot, dict) or "name" not in pot:
        raise ConfigError("potential must be an object with a 'name'")
    _check_keys(pot, {"name", "params"}, "potential")
    name, params = pot["name"], pot.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("potential.params must be an object")
    model = build_potential(name, params)

    samplers_doc = doc.get("sampler")
    if not isinstance(samplers_doc, list) or not samplers_doc:
        raise ConfigError("sampler must be a non-empty array")
    samplers = []
    for i, entry in enumerate(samplers_doc):
        where = f"sampler[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where} must be an object")
        _check_keys(entry, {"id", "kind", "alpha", "gamma", "step"}, where)
        kind, step = entry.get("kind"), entry.get("step")
        gamma, alpha = entry.get("gamma", 1.0), entry.get("alpha", 0.0)
        config = _sampler_config(where, kind=kind, step=step, gamma=gamma, alpha=alpha)
        samplers.append((str(entry.get("id", f"{kind}-a{alpha}-g{gamma}-h{step}")), config))
    if len({cid for cid, _ in samplers}) != len(samplers):
        raise ConfigError("sampler ids must be unique")

    steps = doc.get("steps")
    horizon = doc.get("horizon")
    if (steps is None) == (horizon is None):
        raise ConfigError("exactly one of 'steps' or 'horizon' is required")
    if steps is not None and (not _integer(steps) or steps < 1):
        raise ConfigError("steps must be a positive integer")
    if horizon is not None and not _positive_number(horizon):
        raise ConfigError("horizon must be > 0")
    if horizon is not None:
        for i, (_, config) in enumerate(samplers):
            if not math.isfinite(horizon / config.step):
                raise ConfigError(f"sampler[{i}].step: the ratio horizon / step overflows")

    chains = doc.get("chains", 10000)
    max_chains = _REFERENCE_STREAM * BLOCK_SIZE
    if not _integer(chains) or chains < 2:
        raise ConfigError("chains must be an integer >= 2")
    if chains > max_chains:
        raise ConfigError(f"chains must be at most {max_chains}: block b of sampler c draws from stream "
                          f"c * {_CONFIG_STREAMS} + b, below the reference's {_REFERENCE_STREAM}")
    record_every = doc.get("record_every", 1)
    if not _integer(record_every) or record_every < 1:
        raise ConfigError("record_every must be a positive integer")
    if steps is not None and record_every > steps:
        raise ConfigError("record_every must not exceed steps")
    seed = doc.get("seed", 0)
    if not _integer(seed) or seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    metric = doc.get("metric", "w2_gaussian")
    if metric not in METRICS:
        raise ConfigError(f"metric must be one of {', '.join(METRICS)}")

    ref_doc = doc.get("reference", {"type": "closed_form"})
    if not isinstance(ref_doc, dict) or "type" not in ref_doc:
        raise ConfigError("reference must be an object with a 'type'")
    benchmark = None
    if ref_doc["type"] == "closed_form":
        _check_keys(ref_doc, {"type"}, "reference")
        reference = "closed_form"
        # what the potential must provide for the closed form of each metric
        ok, needs = {
            "w2_gaussian": (model.quadratic_hessian is not None, "a quadratic potential"),
            "mean_error": (model.target_mean is not None, "a potential with a known mean"),
            "chi2_hist": (model.dim == 1, "a 1D potential"),
        }[metric]
        if not ok:
            raise ConfigError(f"reference.type closed_form with metric {metric} requires {needs}")
    elif ref_doc["type"] == "benchmark_run":
        _check_keys(ref_doc, {"type", "kind", "gamma", "step", "horizon", "chains"}, "reference")
        reference = "benchmark_run"
        if metric == "chi2_hist":
            raise ConfigError("reference.type benchmark_run supports w2_gaussian and mean_error only")
        config = _sampler_config(
            "reference",
            kind=ref_doc.get("kind", BenchmarkSpec.kind),
            step=ref_doc.get("step", BenchmarkSpec.step),
            gamma=ref_doc.get("gamma", BenchmarkSpec.gamma),
        )
        ref_horizon = ref_doc.get("horizon")
        if ref_horizon is not None and not _positive_number(ref_horizon):
            raise ConfigError("reference.horizon must be > 0")
        ref_chains = ref_doc.get("chains")
        if ref_chains is not None and (not _integer(ref_chains) or not 1 <= ref_chains <= max_chains):
            raise ConfigError(f"reference.chains must be a positive integer at most {max_chains}, as chains")
        benchmark = BenchmarkSpec(
            kind=config.kind, gamma=config.gamma, step=config.step, horizon=ref_horizon, chains=ref_chains
        )
    else:
        raise ConfigError("reference.type must be 'closed_form' or 'benchmark_run'")

    init_doc = doc.get("init", {})
    if not isinstance(init_doc, dict):
        raise ConfigError("init must be an object")
    _check_keys(init_doc, {"q", "p", "q_std", "p_std"}, "init")
    stds = {key: init_doc.get(key, 0.0) for key in ("q_std", "p_std")}
    for key, value in stds.items():
        if not (finite_number(value) and value >= 0):
            raise ConfigError(f"init.{key} must be a number >= 0")
    init = InitSpec(
        q=init_doc.get("q", 1.0),
        p=init_doc.get("p", 0.0),
        q_std=float(stds["q_std"]),
        p_std=float(stds["p_std"]),
    )

    hist_doc = doc.get("histogram", {})
    if not isinstance(hist_doc, dict):
        raise ConfigError("histogram must be an object")
    _check_keys(hist_doc, {"lo", "hi", "bins"}, "histogram")
    bins = hist_doc.get("bins", 50)
    if not _integer(bins) or bins < 2:
        raise ConfigError("histogram.bins must be an integer >= 2")
    lo, hi = hist_doc.get("lo"), hist_doc.get("hi")
    for key, value in (("lo", lo), ("hi", hi)):
        if value is not None and not finite_number(value):
            raise ConfigError(f"histogram.{key} must be a number")
    if lo is not None and hi is not None and lo >= hi:
        raise ConfigError("histogram.lo must be < histogram.hi")

    spec = ExperimentSpec(
        potential_name=name,
        potential_params=params,
        samplers=samplers,
        chains=chains,
        steps=steps,
        horizon=horizon,
        record_every=record_every,
        seed=seed,
        metric=metric,
        reference=reference,
        benchmark=benchmark,
        init=init,
        hist_lo=None if lo is None else float(lo),
        hist_hi=None if hi is None else float(hi),
        hist_bins=bins,
    )
    if benchmark is not None and not math.isfinite(spec.reference_horizon() / benchmark.step):
        raise ConfigError("reference.horizon: its ratio to reference.step overflows "
                          "(an unset reference.horizon is 10 x horizon)")
    for key in ("q", "p"):
        value = getattr(init, key)
        values = value if isinstance(value, list) else [value]
        if len(values) not in (1, model.dim) or not all(finite_number(v) for v in values):
            raise ConfigError(f"init.{key} must be a number or a list of {model.dim} numbers")
    return spec


def _init_blocks(spec: ExperimentSpec, dim: int, n: int, sources: list) -> ChainState:
    """Start states of len(sources) blocks of n chains, block b in rows b * n:(b + 1) * n."""
    rows = n * len(sources)
    q = np.broadcast_to(np.atleast_1d(np.asarray(spec.init.q, dtype=float)), (rows, dim)).copy()
    p = np.broadcast_to(np.atleast_1d(np.asarray(spec.init.p, dtype=float)), (rows, dim)).copy()
    for b, rng in enumerate(sources):
        if spec.init.q_std > 0:
            q[b * n:(b + 1) * n] += spec.init.q_std * rng.normals((n, dim))
        if spec.init.p_std > 0:
            p[b * n:(b + 1) * n] += spec.init.p_std * rng.normals((n, dim))
    return ChainState(q=q, p=p)


# a group stacks equal-size blocks up to about one d = 100 block of
# coordinates: every d = 1 block of a config fits, a d = 100 block stands
# alone.  The record merge stacks records up to as many covariance entries
_STACK_COORDS = 100_000


def _groups(sizes: list, dim: int) -> list:
    """Runs of consecutive equal-size block indices, each within _STACK_COORDS."""
    groups = []
    for b, n in enumerate(sizes):
        if groups and sizes[groups[-1][0]] == n and (len(groups[-1]) + 1) * n * dim <= _STACK_COORDS:
            groups[-1].append(b)
        else:
            groups.append([b])
    return groups


class _StackedDraws:
    """Normals for a stack of equal-size blocks, each block from its own stream.

    A request of shape ``lead + (B * n, d)`` takes each block's
    ``lead + (n, d)`` draw from its source and puts block b's at rows
    ``b * n:(b + 1) * n``, so every block sees the numbers it sees alone.
    """

    def __init__(self, sources: list, n: int):
        self._sources = sources
        self._n = n

    def normals(self, shape) -> np.ndarray:
        if len(self._sources) == 1:
            return self._sources[0].normals(shape)
        block_shape = tuple(shape[:-2]) + (self._n, shape[-1])
        return np.concatenate([source.normals(block_shape) for source in self._sources], axis=-2)


def _run_group(
    spec: ExperimentSpec,
    model: PotentialModel,
    config: SamplerConfig,
    steps: int,
    record_steps: list,
    streams: list,
    n: int,
    keep_samples: bool,
) -> tuple:
    """Step equal-size blocks as one (B * n, d) state: (records, diverged_at).

    Block b draws only from ``RandomSource(spec.seed, streams[b])``, so its
    rows hold the numbers of the block run alone.  Step k is recorded when it
    is in ``record_steps`` (a range tests that by arithmetic) or is the last
    step; a record is the blocks' stacked ``(sum_q (B, d), sum_qq (B, d, d))``,
    or the group's samples.  The group stops at its first non-finite row,
    ``diverged_at``: a config's output ends before its first divergence, so
    no later step could reach it.
    """
    sources = [RandomSource(spec.seed, stream) for stream in streams]
    try:
        state = _init_blocks(spec, model.dim, n, sources)
    except (MemoryError, ValueError) as exc:  # numpy cannot allocate, or even ask for, the state
        raise ConfigError(f"chains and potential.params.d are too large for a block of {n} chains: {exc}") from exc

    def snapshot(q):
        if keep_samples:
            return q.copy()
        # every block's moments at once: the same sums and syrk products
        # as each block's (n, d) rows would give alone
        qs = q.reshape(len(sources), n, -1)
        return qs.sum(axis=1), np.matmul(qs.transpose(0, 2, 1), qs)

    records = [snapshot(state.q)]  # step 0 is always a record step
    try:
        for k, state in iterate_chain(state, make_stepper(model, config), steps, _StackedDraws(sources, n)):
            if k in record_steps or k == steps:
                records.append(snapshot(state.q))
    except DivergenceError as exc:
        return records, exc.step
    return records, None


def _target_density_1d(model: PotentialModel) -> Callable:
    from scipy.integrate import quad  # on demand: it loads scipy.optimize too, ~24 MB

    norm, _ = quad(lambda x: math.exp(-float(model.eval(np.array([x])))), -40.0, 40.0, limit=400)

    def density(xs):
        xs = np.asarray(xs, dtype=float)
        vals = model.eval(xs[..., None])
        return np.exp(-vals) / norm

    return density


# bump when the cached summary's meaning or layout changes: old files then miss
BENCHMARK_CACHE_FORMAT = 1


def _benchmark_key(spec: ExperimentSpec) -> str:
    payload = {
        "format": BENCHMARK_CACHE_FORMAT,
        "potential": [spec.potential_name, spec.potential_params],
        "benchmark": [
            spec.benchmark.kind,
            spec.benchmark.gamma,
            spec.benchmark.step,
            spec.reference_horizon(),
            spec.benchmark.chains or spec.chains,
        ],
        "seed": spec.seed,
        "init": [spec.init.q, spec.init.p, spec.init.q_std, spec.init.p_std],
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _benchmark_reference(spec: ExperimentSpec, model: PotentialModel, cache_dir: Optional[str]):
    """Long tiny-step baseline run; the final-half time average estimates the
    target mean (and second moment).  Cached by content hash."""
    key = _benchmark_key(spec)
    cache_path = None
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        cache_path = os.path.join(cache_dir, f"benchmark-{key}.json")
        if os.path.exists(cache_path):
            with open(cache_path) as fh:
                payload = json.load(fh)
            return GaussianSummary(np.array(payload["mean"]), np.array(payload["cov"]))

    bench = spec.benchmark
    horizon = spec.reference_horizon()
    chains = bench.chains or spec.chains
    config = SamplerConfig(kind=bench.kind, step=bench.step, gamma=bench.gamma, alpha=0.0)
    steps = max(1, int(round(horizon / bench.step)))
    rng = RandomSource(spec.seed, _REFERENCE_STREAM)
    try:
        state = _init_blocks(spec, model.dim, chains, [rng])
    except (MemoryError, ValueError) as exc:  # numpy cannot allocate, or even ask for, the state
        raise ConfigError(f"reference.chains is too large: {exc}") from exc
    acc_q = np.zeros(model.dim)
    acc_qq = np.zeros((model.dim, model.dim))
    count = 0
    start = steps // 2
    try:
        for k, state in iterate_chain(state, make_stepper(model, config), steps, rng):
            if k > start:
                acc_q += state.q.mean(axis=0)
                acc_qq += state.q.T @ state.q / state.q.shape[0]
                count += 1
    except DivergenceError as exc:
        raise ConfigError(f"reference run diverged at step {exc.step}") from exc
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported just below
        mean = acc_q / count
        cov = acc_qq / count - np.outer(mean, mean)
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):  # finite states, overflowed moments
        raise ConfigError(f"reference run diverged: its moments overflowed by step {steps}")
    summary = GaussianSummary(mean=mean, cov=0.5 * (cov + cov.T))
    if cache_path is not None:
        # written beside the cache file, then renamed over it: a reader sees
        # a whole file or none, even if this run dies mid-write
        fd, tmp_path = tempfile.mkstemp(dir=cache_dir, prefix=f".benchmark-{key}-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump({"mean": mean.tolist(), "cov": summary.cov.tolist()}, fh)
            os.replace(tmp_path, cache_path)
        except BaseException:
            os.unlink(tmp_path)
            raise
    return summary


def _chi2_value(spec, reference, x) -> float:
    lo = spec.hist_lo
    hi = spec.hist_hi
    if lo is None or hi is None:
        mu, sd = float(x.mean()), float(x.std())
        if lo is None and hi is None and x.min() == x.max():
            # every chain at one point (a fixed start): sd is 0, or a
            # round-off residue too small to hold the bins; use mu +- 1
            sd = 1.0 / 6.0
        lo = mu - 6.0 * sd if lo is None else lo
        hi = mu + 6.0 * sd if hi is None else hi
    try:
        return chi2_histogram(x, reference, lo, hi, spec.hist_bins)
    except ValueError:
        # a bin holds samples where the target's mass underflows to 0, or
        # the samples overflow the range: the divergence is infinite
        return math.inf


def _moment_values(spec, reference, groups, records, dim):
    """(values, stderrs) of the first ``records`` records of the groups' sums.

    Records go in chunks of at most _STACK_COORDS covariance entries.  In a
    chunk, each group's sums are stacked over the records and its blocks
    added one by one, in block order; then every record's mean, covariance
    and metric is taken at once.
    """
    n_total = spec.chains
    chunk = max(1, _STACK_COORDS // (dim * dim))
    values, stderrs = [], []
    for lo in range(0, records, chunk):
        hi = min(lo + chunk, records)
        sum_q = np.zeros((hi - lo, dim))
        sum_qq = np.zeros((hi - lo, dim, dim))
        for group in groups:
            group_q = np.array([q for q, _ in group[lo:hi]])  # (records, B, d)
            group_qq = np.array([qq for _, qq in group[lo:hi]])
            for b in range(group_q.shape[1]):
                sum_q = sum_q + group_q[:, b]
                sum_qq = sum_qq + group_qq[:, b]
        mean = sum_q / n_total
        cov = sum_qq / (n_total - 1) - mean[:, :, None] * mean[:, None, :] * (n_total / (n_total - 1))
        cov = 0.5 * (cov + cov.transpose(0, 2, 1))
        if spec.metric == "w2_gaussian":
            values.extend(w2_gaussian_stack(mean, cov, reference).tolist())
            stderrs.extend([None] * (hi - lo))
        else:  # mean_error: sqrt(dot(x, x)) record by record, as np.linalg.norm takes it
            diff = mean - reference
            values.extend(np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0]).tolist())
            trace = np.trace(cov, axis1=1, axis2=2)
            stderrs.extend(np.sqrt(np.where(0.0 > trace, 0.0, trace) / n_total).tolist())
    return values, stderrs


def run_experiment(
    spec: ExperimentSpec, workers: int = 1, cache_dir: Optional[str] = None
) -> ResultSeries:
    """Run every sampler config of the spec and score it against the reference.

    Chains advance in fixed blocks with per-block noise streams, equal-size
    blocks stacked into groups; block partials merge in block order, so the
    output is identical for any ``workers`` value.  A diverging config is
    truncated and flagged, not fatal to the run.
    """
    model = spec.model()
    # parse_config checked that a closed-form reference exists for the model
    if spec.reference == "benchmark_run":
        summary = _benchmark_reference(spec, model, cache_dir)
        reference = summary.mean if spec.metric == "mean_error" else summary
    elif spec.metric == "w2_gaussian":
        reference = GaussianSummary(mean=np.zeros(model.dim), cov=np.linalg.inv(model.quadratic_hessian))
    elif spec.metric == "mean_error":
        reference = model.target_mean
    else:
        reference = _target_density_1d(model)
    keep_samples = spec.metric == "chi2_hist"

    rows = []
    grad_evals = {}
    diverged = {}
    n_blocks = (spec.chains + BLOCK_SIZE - 1) // BLOCK_SIZE
    for c_idx, (config_id, config) in enumerate(spec.samplers):
        steps = spec.steps_for(config)
        record_steps = range(0, steps + 1, spec.record_every)  # and the last step
        sizes = [
            min(BLOCK_SIZE, spec.chains - b * BLOCK_SIZE) for b in range(n_blocks)
        ]

        def task(group):
            return _run_group(
                spec,
                model,
                config,
                steps,
                record_steps,
                streams=[c_idx * _CONFIG_STREAMS + b for b in group],
                n=sizes[group[0]],
                keep_samples=keep_samples,
            )

        groups = _groups(sizes, model.dim)
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                group_records, stops = zip(*pool.map(task, groups))
        else:
            group_records, stops = zip(*map(task, groups))
        # a group is charged its rows times the steps it ran
        grad_evals[config_id] = sum(
            sizes[group[0]] * len(group) * (steps if stop is None else stop) for group, stop in zip(groups, stops)
        )
        first_bad = min((stop for stop in stops if stop is not None), default=None)
        diverged[config_id] = first_bad

        # merge, in block order, the records that every group holds: those
        # before the first divergence. Snapshots just before a blow-up can
        # overflow the metric; the row is flagged, so an inf value is fine
        records = min(len(r) for r in group_records)
        with np.errstate(over="ignore", invalid="ignore"):
            if keep_samples:
                values = [
                    _chi2_value(spec, reference, np.concatenate([r[i] for r in group_records]).ravel())
                    for i in range(records)
                ]
                stderrs = [None] * records
            else:
                values, stderrs = _moment_values(spec, reference, group_records, records, model.dim)
        for i, (value, stderr) in enumerate(zip(values, stderrs)):
            k = min(i * spec.record_every, steps)
            flag = "diverged" if (first_bad is not None and i == records - 1) else ""
            rows.append(
                ResultRow(
                    config_id=config_id,
                    step=k,
                    time=k * config.step,
                    value=float(value),
                    stderr=stderr,
                    flag=flag,
                )
            )
    return ResultSeries(metric=spec.metric, rows=rows, grad_evals=grad_evals, diverged=diverged)


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    best_gamma: Optional[float]
    best_step: Optional[float]
    iterations_mean: float  # inf when every combination fails
    iterations_std: float


class _SharedDraws:
    """One step's normals, drawn once from ``source`` and replayed to each pair.

    The pairs of a lockstep sweep run one kernel on one stream, so the k-th
    draw of a step is the same array for all of them.  ``new_step`` drops the
    last step's draws and ``rewind`` starts the next pair at the first draw.
    The arrays are read-only: a kernel that wrote into its noise would
    otherwise change it for the pairs after it.
    """

    def __init__(self, source: RandomSource):
        self.seed = source.seed
        self._source = source
        self._draws = []
        self._next = 0

    def new_step(self):
        self._draws = []
        self._next = 0

    def rewind(self):
        self._next = 0

    def normals(self, shape) -> np.ndarray:
        if self._next == len(self._draws):
            z = self._source.normals(shape)
            z.flags.writeable = False
            self._draws.append(z)
        z = self._draws[self._next]
        self._next += 1
        return z


def sweep_iteration_complexity(
    model: PotentialModel,
    alphas,
    gammas,
    steps_grid,
    eps: float,
    chains: int = 1000,
    seeds=(0, 1, 2),
    kind: str = "hfhr_strang",
    cap: int = 2000,
    init_q: float = 1.0,
) -> list:
    """Fewest iterations to bring the mean error below eps, per alpha.

    For each alpha the (gamma, h) grid is scanned for the first-hit step
    count; divergent combinations are excluded.  The scan is repeated over
    seeds and the per-seed minima are summarized by mean and standard
    deviation.  An all-divergent alpha reports infinity.

    The pairs of one (alpha, seed) advance in lockstep, one step at a time
    in grid order (gamma outer, h inner), on the draws of one stream
    ``RandomSource(seed, 0)`` taken once per step: each pair sees the
    numbers it would see run alone.  A diverging pair leaves; the scan stops
    at the first step where a pair hits, and the first such pair in grid
    order wins.  Lockstep holds one state per live pair, pairs x chains x
    dim x 16 bytes.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if model.target_mean is None:
        raise ValueError("sweep requires a potential with a known target mean")
    target = model.target_mean

    def first_hit(configs, seed):
        """(step, pair index) of the earliest hit, or (None, None)."""
        steppers = [make_stepper(model, config) for config in configs]
        state = ChainState(
            q=np.full((chains, model.dim), float(init_q)),
            p=np.zeros((chains, model.dim)),
        )
        if steppers and np.linalg.norm(state.q.mean(axis=0) - target) <= eps:
            return 0, 0
        draws = _SharedDraws(RandomSource(seed, 0))
        # each chain holds iterate_chain's errstate across its yields; closing
        # them all inside one outer errstate puts the caller's state back
        # whatever order they leave in
        with np.errstate(over="ignore", invalid="ignore"), ExitStack() as stack:
            live = [
                (i, stack.enter_context(closing(iterate_chain(state, stepper, cap, draws))))
                for i, stepper in enumerate(steppers)
            ]
            while live:
                draws.new_step()
                survivors = []
                for i, chain in live:
                    draws.rewind()
                    try:
                        stepped = next(chain, None)
                    except DivergenceError:
                        continue
                    if stepped is None:  # every live pair reaches the cap at once
                        return None, None
                    k, pair_state = stepped
                    if np.linalg.norm(pair_state.q.mean(axis=0) - target) <= eps:
                        return k, i
                    survivors.append((i, chain))
                live = survivors
        return None, None

    combos = [(float(gamma), float(h)) for gamma in gammas for h in steps_grid]
    table = []
    for alpha in alphas:
        configs = [SamplerConfig(kind=kind, step=h, gamma=gamma, alpha=float(alpha)) for gamma, h in combos]
        hits = [first_hit(configs, seed) for seed in seeds]
        finite = [k for k, _ in hits if k is not None]
        if not finite:
            table.append(SweepRow(alpha=float(alpha), best_gamma=None, best_step=None,
                                  iterations_mean=math.inf, iterations_std=math.inf))
        else:
            winner = hits[0][1]
            best_gamma, best_step = combos[winner] if winner is not None else (None, None)
            arr = np.array(finite, dtype=float)
            table.append(
                SweepRow(
                    alpha=float(alpha),
                    best_gamma=best_gamma,
                    best_step=best_step,
                    iterations_mean=float(arr.mean()),
                    iterations_std=float(arr.std()),
                )
            )
    return table


CSV_HEADER = "config_id,step,time,metric,value,stderr,flag"


def write_csv(series: ResultSeries, path: str) -> None:
    """Emit rows as CSV with round-trip decimal formatting.

    Fields are quoted only where needed (an id holding ',' or '"')."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_HEADER.split(","))
            for r in series.rows:
                stderr = "" if r.stderr is None else repr(float(r.stderr))
                writer.writerow(
                    [r.config_id, r.step, repr(float(r.time)), series.metric,
                     repr(float(r.value)), stderr, r.flag]
                )
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def read_csv(path: str) -> list:
    """Round-trip parser for files produced by write_csv."""
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    if not lines or lines[0] != CSV_HEADER.split(","):
        raise ValueError(f"{path} is not a result CSV")
    out = []
    for cid, step, time, metric, value, stderr, flag in lines[1:]:
        out.append(
            ResultRow(
                config_id=cid,
                step=int(step),
                time=float(time),
                value=float(value),
                stderr=None if stderr == "" else float(stderr),
                flag=flag,
            )
        )
    return out


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


def _ticks_linear(lo, hi, n=6):
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / (n - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(t)
        t += step
    return ticks


def _ticks_decades(lo, hi):
    return [10.0**e for e in range(math.ceil(math.log10(lo) - 1e-12), math.floor(math.log10(hi) + 1e-12) + 1)]


def write_svg_plot(series: ResultSeries, style: str, path: str, title: str = "") -> None:
    """Static SVG: one polyline per config, legend, tick labels, no assets.

    Styles: 'linear', 'semilog-y', 'log-log'.  Log axes require positive
    data and put ticks at decades; log-log uses the same pixels-per-decade
    on both axes so a slope-one series renders at 45 degrees.  Non-finite
    values are left out.
    """
    if style not in ("linear", "semilog-y", "log-log"):
        raise ValueError("style must be linear, semilog-y or log-log")
    config_ids = []
    for r in series.rows:
        if r.config_id not in config_ids:
            config_ids.append(r.config_id)
    if not config_ids:
        raise ValueError("empty series")
    data = {}
    for cid in config_ids:
        xs, ys = series.values(cid)
        finite = np.isfinite(ys)  # rows on the way to a blow-up may be inf or nan
        data[cid] = (xs[finite], ys[finite])
    if not any(ys.size for _, ys in data.values()):
        raise ValueError("no finite values to plot")
    logx = style == "log-log"
    logy = style in ("semilog-y", "log-log")
    for cid, (xs, ys) in data.items():
        if logy and np.any(ys <= 0):
            raise ValueError(f"nonpositive values under log scaling in '{cid}'")
        if logx and np.any(xs <= 0):
            raise ValueError(f"nonpositive x values under log scaling in '{cid}'")

    all_x = np.concatenate([v[0] for v in data.values()])
    all_y = np.concatenate([v[1] for v in data.values()])
    fx = np.log10 if logx else (lambda a: np.asarray(a, dtype=float))
    fy = np.log10 if logy else (lambda a: np.asarray(a, dtype=float))
    x_lo, x_hi = float(fx(all_x).min()), float(fx(all_x).max())
    y_lo, y_hi = float(fy(all_y).min()), float(fy(all_y).max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    width, height = 640, 480
    ml, mr, mt, mb = 70, 160, 30, 50
    plot_w, plot_h = width - ml - mr, height - mt - mb
    if style == "log-log":
        # equal decade scaling on both axes
        per_decade = min(plot_w / (x_hi - x_lo), plot_h / (y_hi - y_lo))
        plot_w = per_decade * (x_hi - x_lo)
        plot_h = per_decade * (y_hi - y_lo)

    def to_px(x, y):
        px = ml + (fx(x) - x_lo) / (x_hi - x_lo) * plot_w
        py = mt + (1.0 - (fy(y) - y_lo) / (y_hi - y_lo)) * plot_h
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{plot_w:.2f}" height="{plot_h:.2f}" '
        'fill="none" stroke="black"/>',
    ]
    if title:
        parts.append(f'<text x="{ml}" y="{mt - 10}">{html.escape(title, quote=False)}</text>')

    x_ticks = _ticks_decades(all_x.min(), all_x.max()) if logx else _ticks_linear(all_x.min(), all_x.max())
    y_ticks = _ticks_decades(all_y.min(), all_y.max()) if logy else _ticks_linear(all_y.min(), all_y.max())
    for t in x_ticks:
        px, _ = to_px(t, all_y.max())
        label = f"1e{int(round(math.log10(t)))}" if logx else f"{t:g}"
        parts.append(
            f'<line x1="{px:.2f}" y1="{mt + plot_h:.2f}" x2="{px:.2f}" y2="{mt + plot_h + 5:.2f}" stroke="black"/>'
        )
        parts.append(f'<text x="{px:.2f}" y="{mt + plot_h + 18:.2f}" text-anchor="middle">{label}</text>')
    for t in y_ticks:
        _, py = to_px(all_x.max(), t)
        label = f"1e{int(round(math.log10(t)))}" if logy else f"{t:g}"
        parts.append(f'<line x1="{ml - 5}" y1="{py:.2f}" x2="{ml}" y2="{py:.2f}" stroke="black"/>')
        parts.append(f'<text x="{ml - 8}" y="{py + 4:.2f}" text-anchor="end">{label}</text>')

    for i, cid in enumerate(config_ids):
        xs, ys = data[cid]
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{to_px(x, y)[0]:.3f},{to_px(x, y)[1]:.3f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        ly = mt + 15 + 16 * i
        lx = ml + plot_w + 10
        parts.append(f'<line x1="{lx:.2f}" y1="{ly - 4:.2f}" x2="{lx + 18:.2f}" y2="{ly - 4:.2f}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{lx + 24:.2f}" y="{ly:.2f}">{html.escape(cid, quote=False)}</text>')
    parts.append("</svg>")
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(parts) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write SVG to {path}: {exc}") from exc


__all__ = [
    "BLOCK_SIZE",
    "ConfigError",
    "InitSpec",
    "BenchmarkSpec",
    "ExperimentSpec",
    "ResultRow",
    "ResultSeries",
    "SweepRow",
    "build_potential",
    "parse_config",
    "run_experiment",
    "sweep_iteration_complexity",
    "write_csv",
    "read_csv",
    "write_svg_plot",
]
