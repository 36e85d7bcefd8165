"""Experiment specification, seeded parallel execution, and CSV/SVG output.

Chains are stepped in fixed-size blocks of 1000; each block draws from its
own noise stream keyed on (seed, config index, block index) and the block
partials are merged in block order, so results are byte-identical for any
worker count.

Consecutive equal-size blocks of a config step as one stacked state, each
block still on its own stream (``_run_group``); a ``benchmark_run``
reference is a group of one block of ``reference.chains`` rows on stream
900,000, stepped the same way.  A run opens one thread pool, before the
reference: with more than one worker and more than one group the groups
are its tasks, and otherwise its single thread draws each group's noise
ahead of the kernel (``_GroupNoise``); it draws the reference's ahead
either way.  A group stops at its first non-finite row, since a config's
output ends at its first divergence.  A config's records are merged and
scored as stacked arrays (``_moment_values``).  The iteration sweep steps
its (gamma, h) pairs on two threads of its own, each pair pinned to one
(``_step_pass``).
"""

from __future__ import annotations

import collections
import csv
import dataclasses
import hashlib
import html
import json
import math
import mmap
import os
import sys
import tempfile
import threading
from concurrent import futures
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .analysis import GaussianSummary
from .metrics import chi2_histogram, w2_gaussian_stack
from .metrics import w2_gaussian  # noqa: F401  perfbench's tracer wraps harness.w2_gaussian
from .potentials import POTENTIAL_PARAMS, VALID_POTENTIALS, PotentialModel, builtin_potential, finite_number
from .rng import RandomSource
from .samplers import KERNELS, ChainState, DivergenceError, SamplerConfig, iterate_chain, make_stepper

BLOCK_SIZE = 1000

# block b of config c draws from stream c * _CONFIG_STREAMS + b, the benchmark
# reference from _REFERENCE_STREAM: more blocks than that would share streams
_CONFIG_STREAMS = 1_000_000
_REFERENCE_STREAM = 900_000

METRICS = ("w2_gaussian", "chi2_hist", "mean_error")

# np.histogram makes its bins + 1 edges with np.linspace, which counts them
# in float64; numpy cannot even ask for an array of more than sys.maxsize
# bytes, and within 64 edges of that limit the count rounds up past it
_MAX_BINS = sys.maxsize // 16


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
    config: SamplerConfig = SamplerConfig("uld_klmc", step=0.0005, gamma=2.0)
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
    benchmark: Optional[BenchmarkSpec] = None  # set for a benchmark_run reference
    init: InitSpec = field(default_factory=InitSpec)
    hist_lo: Optional[float] = None
    hist_hi: Optional[float] = None
    hist_bins: int = 50

    @property
    def reference(self) -> str:
        """The reference type: "benchmark_run" when a benchmark is set, else "closed_form"."""
        return "closed_form" if self.benchmark is None else "benchmark_run"

    def model(self) -> PotentialModel:
        return builtin_potential(self.potential_name, **self.potential_params)

    def steps_for(self, config: SamplerConfig) -> int:
        if self.steps is not None:
            return self.steps
        return _steps(self.horizon, config.step)

    def reference_horizon(self) -> float:
        """The benchmark reference's horizon: its own, or 10x the experiment's."""
        return self.benchmark.horizon or (10.0 * (self.horizon or 1.0))


def _steps(horizon: float, step: float) -> int:
    """Steps of size ``step`` that cover ``horizon``, at least one: a config's, and the reference's."""
    return max(1, int(round(horizon / step)))


def _raw_moments(q: np.ndarray) -> tuple:
    """Each block's row sum and q^T q of a (B, n, d) state, shapes (B, d) and (B, d, d).

    The one place raw moments are formed, for the records and the
    reference: a block's slice holds the sum and the syrk product its
    (n, d) rows give alone.
    """
    return q.sum(axis=1), np.matmul(q.transpose(0, 2, 1), q)


def _mean_cov(sum_q: np.ndarray, sum_qq: np.ndarray, n: int, ddof: int) -> tuple:
    """Mean and covariance of n rows from their raw sums, the covariance over n - ddof.

    Shared by the records (ddof 1, stacked over records) and the reference's
    time average (ddof 0); the mean is sum / n, as ``np.mean`` takes it.
    """
    mean = sum_q / n
    return mean, sum_qq / (n - ddof) - mean[..., :, None] * mean[..., None, :] * (n / (n - ddof))


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
        if metric == "chi2_hist":
            raise ConfigError("reference.type benchmark_run supports w2_gaussian and mean_error only")
        config = _sampler_config(
            "reference",
            kind=ref_doc.get("kind", BenchmarkSpec.config.kind),
            step=ref_doc.get("step", BenchmarkSpec.config.step),
            gamma=ref_doc.get("gamma", BenchmarkSpec.config.gamma),
        )
        ref_horizon = ref_doc.get("horizon")
        if ref_horizon is not None and not _positive_number(ref_horizon):
            raise ConfigError("reference.horizon must be > 0")
        ref_chains = ref_doc.get("chains")
        if ref_chains is not None and (not _integer(ref_chains) or not 1 <= ref_chains <= max_chains):
            raise ConfigError(f"reference.chains must be a positive integer at most {max_chains}, as chains")
        benchmark = BenchmarkSpec(config, horizon=ref_horizon, chains=ref_chains)
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
    if bins > _MAX_BINS:
        raise ConfigError(f"histogram.bins must be at most {_MAX_BINS}: numpy cannot ask for the bin edges of more")
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
        benchmark=benchmark,
        init=init,
        hist_lo=None if lo is None else float(lo),
        hist_hi=None if hi is None else float(hi),
        hist_bins=bins,
    )
    if benchmark is not None and not math.isfinite(spec.reference_horizon() / benchmark.config.step):
        raise ConfigError("reference.horizon: its ratio to reference.step overflows "
                          "(an unset reference.horizon is 10 x horizon)")
    for key in ("q", "p"):
        value = getattr(init, key)
        values = value if isinstance(value, list) else [value]
        if len(values) not in (1, model.dim) or not all(finite_number(v) for v in values):
            raise ConfigError(f"init.{key} must be a number or a list of {model.dim} numbers")
    return spec


def _init_blocks(spec: ExperimentSpec, dim: int, n: int, sources: list) -> ChainState:
    """Start states of len(sources) blocks of n chains, shape (B, n, d), block b at index b."""
    shape = (len(sources), n, dim)
    q = np.broadcast_to(np.atleast_1d(np.asarray(spec.init.q, dtype=float)), shape).copy()
    p = np.broadcast_to(np.atleast_1d(np.asarray(spec.init.p, dtype=float)), shape).copy()
    for b, rng in enumerate(sources):
        if spec.init.q_std > 0:
            q[b] += spec.init.q_std * rng.normals((n, dim))
        if spec.init.p_std > 0:
            p[b] += spec.init.p_std * rng.normals((n, dim))
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


# steps of noise a chunk holds when a pool thread draws ahead, cut so that
# steps x coordinates stays within _STACK_COORDS: two buffers of 4 steps of
# hfhr_strang's 5 normals on 10 x 1,000 d = 1 chains take 3.2 MB
_CHUNK_STEPS = 4


def _mapped_empty(shape: tuple) -> np.ndarray:
    """An uninitialised float64 array in an anonymous mapping of its own, outside malloc.

    A group's noise buffer lives as long as the group.  Taken from malloc,
    its free at the group's end raises glibc's mmap threshold to its size,
    and each step's scratch array and gradient then stay on a heap that
    keeps twice that untrimmed: at 1,000 x 100 chains on two workers,
    about 4.5 MB more peak resident memory.
    """
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=np.float64).reshape(shape)


class _GroupNoise:
    """A group's noise: each ``normals`` call is the next step's slab.

    The group's B blocks of n chains hold one state of shape (B, n, d), and
    block b's normals fill ``buf[b]``, of shape (K, draws, n, d), in one call
    to its own source per chunk of K steps.  The stream is flat, so block b
    draws the numbers of its steps run alone, in their order.  Step j of a
    chunk reads the view ``buf[:, j].swapaxes(0, 1)``, shape
    (draws, B, n, d); the last chunk holds only the steps left.

    A chunk's block indices wait in a deque, and every thread that fills
    pops them in block order.  With a ``pool``, the chunk after the
    kernel's is one Future on it, filling the second of two buffers.  On
    reaching a chunk the caller fills the blocks left, waits for the
    Future (which raises a pool-side exception here), and only then hands
    the next chunk to the pool: no fill of chunk c + 1 starts before every
    fill of chunk c has ended, so each block draws its chunks in order.
    ``close`` empties the deque and waits for the Future.  Without a pool a
    chunk is one step, drawn into one buffer.
    """

    def __init__(
        self, sources: list, draws: int, n: int, dim: int, steps: int, pool: Optional[ThreadPoolExecutor] = None
    ):
        blocks = len(sources)
        chunk = min(_CHUNK_STEPS, max(1, _STACK_COORDS // (blocks * n * dim)), steps) if pool else 1
        self._sources = sources
        self._steps = steps
        self._shape = (draws, blocks, n, dim)
        self._bufs = [_mapped_empty((blocks, chunk, draws, n, dim)) for _ in range(2 if pool else 1)]
        self._chunk = chunk
        self._pool = pool
        self._used = self._filled = 0  # steps of the current chunk taken, and held
        self._next = 0  # the chunk the kernel reaches next
        self._blocks, self._future = self._hand_over(0)

    def _hand_over(self, c: int) -> tuple:
        """Chunk c's blocks to fill, and the pool's Future that fills them, if there is a pool and a chunk c."""
        blocks = collections.deque(range(len(self._sources)))
        if self._pool is None or c * self._chunk >= self._steps:
            return blocks, None
        return blocks, self._pool.submit(self._fill, c, blocks)

    def _fill(self, c: int, blocks: collections.deque) -> None:
        """Pop chunk c's blocks and draw each into its buffer in place, until none is left."""
        out = self._bufs[c % len(self._bufs)][:, : min(self._chunk, self._steps - c * self._chunk)]
        while True:
            try:
                b = blocks.popleft()
            except IndexError:
                return
            self._sources[b].normals(out.shape[1:], out=out[b])

    def _take(self) -> None:
        """Make the next chunk current, and hand the one after it to the pool."""
        c = self._next
        self._fill(c, self._blocks)
        if self._future is not None:
            self._future.result()
        self._buf = self._bufs[c % len(self._bufs)]
        self._used, self._filled = 0, min(self._chunk, self._steps - c * self._chunk)
        self._next = c + 1  # the kernel has left chunk c - 1: its buffer is free
        self._blocks, self._future = self._hand_over(c + 1)

    def normals(self, shape) -> np.ndarray:
        if tuple(shape) != self._shape:
            raise ValueError(f"the group's noise has shape {self._shape}, not {tuple(shape)}")
        if self._used == self._filled:
            self._take()
        self._used += 1
        return self._buf[:, self._used - 1].swapaxes(0, 1)

    def close(self) -> None:
        # no fill starts, and the one under way is waited for; its exception,
        # if any, is dropped, as no step reads the chunk
        self._blocks.clear()
        if self._future is not None:
            futures.wait([self._future])


def _run_group(
    spec: ExperimentSpec,
    model: PotentialModel,
    config: SamplerConfig,
    steps: int,
    streams: list,
    n: int,
    observe: Callable,
    noise_pool: Optional[ThreadPoolExecutor] = None,
    too_large: Optional[str] = None,
) -> Optional[int]:
    """Step equal-size blocks as one (B, n, d) state: the first divergent step, or None.

    Every block of a run steps here: a config's groups, and the benchmark
    reference as a group of one block.  Block b draws only from
    ``RandomSource(spec.seed, streams[b])``, so its rows hold the numbers of
    the block run alone.  Its noise comes from a ``_GroupNoise``, drawn
    ahead on ``noise_pool`` when one is given, and one step at a time on the
    calling thread when not.  The gradient sees the state as its
    (B * n, d) rows, the shape each reduction in it has alone.  The group
    owns its start state and steps it in place, ``step(s, rng, out=s)``, so
    ``observe(k, q)`` sees the same positions array, shape (B, n, d), at the
    start (k = 0) and after each step k, and copies what it keeps.  The group
    stops at its first non-finite row: a config's output ends before its
    first divergence, so no later step could reach it.  A start or noise
    buffer that cannot be allocated is a ``ConfigError`` led by ``too_large``.
    """
    sources = [RandomSource(spec.seed, stream) for stream in streams]
    dim = model.dim
    grad = model.grad
    rows_model = dataclasses.replace(model, grad=lambda q: grad(q.reshape(-1, dim)).reshape(q.shape))
    # the start and the observations overflow as the steps do: into a
    # divergence or a non-finite metric, never into a warning
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            state = _init_blocks(spec, dim, n, sources)
            noise = _GroupNoise(sources, KERNELS[config.kind].draws, n, dim, steps, noise_pool)
        except (MemoryError, ValueError, OSError) as exc:  # numpy or mmap cannot allocate, or even ask for, the arrays
            too_large = too_large or f"chains and potential.params.d are too large for a block of {n} chains"
            raise ConfigError(f"{too_large}: {exc}") from exc
        try:
            observe(0, state.q)
            step = make_stepper(rows_model, config)
            for k, state in iterate_chain(state, lambda s, rng: step(s, rng, out=s), steps, noise):
                observe(k, state.q)
        except DivergenceError as exc:
            return exc.step
        finally:
            noise.close()
    return None


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
            spec.benchmark.config.kind,
            spec.benchmark.config.gamma,
            spec.benchmark.config.step,
            spec.reference_horizon(),
            spec.benchmark.chains or spec.chains,
        ],
        "seed": spec.seed,
        "init": [spec.init.q, spec.init.p, spec.init.q_std, spec.init.p_std],
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _benchmark_reference(spec: ExperimentSpec, model: PotentialModel, cache_dir: Optional[str], noise_pool):
    """Long tiny-step baseline run, a ``_run_group`` block of ``reference.chains``
    rows on ``_REFERENCE_STREAM`` drawn ahead on ``noise_pool``; the final-half
    time average estimates the target mean (and second moment).  Cached by content hash."""
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
    chains = bench.chains or spec.chains
    steps = _steps(spec.reference_horizon(), bench.config.step)
    start = steps // 2
    acc = (np.zeros(model.dim), np.zeros((model.dim, model.dim)))  # the time sums of each record's raw moments / chains

    def accumulate(k, q):
        if k > start:
            for total, raw in zip(acc, _raw_moments(q)):
                total += raw[0] / chains

    diverged = _run_group(spec, model, bench.config, steps, [_REFERENCE_STREAM], chains, accumulate, noise_pool,
                          "reference.chains is too large")
    if diverged is not None:
        raise ConfigError(f"reference run diverged at step {diverged}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported just below
        mean, cov = _mean_cov(*acc, steps - start, 0)
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):  # finite states, overflowed moments
        raise ConfigError(f"reference run diverged: its moments overflowed by step {steps}")
    summary = GaussianSummary(mean=mean, cov=cov)
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


def _chi2_value(spec, reference, x, k) -> float:
    """The chi2_hist value of record step ``k``'s pooled samples ``x``."""
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
        # one bound given: the automatic one must lie beyond it, unless it
        # overflowed on the way to a blow-up (an inf value below)
        if spec.hist_hi is None and spec.hist_lo is not None and math.isfinite(hi) and not hi > lo:
            raise ConfigError(f"histogram.lo = {lo:g} is not below the automatic upper bound {hi:g} "
                              f"at record step {k}; give histogram.hi too")
        if spec.hist_lo is None and spec.hist_hi is not None and math.isfinite(lo) and not hi > lo:
            raise ConfigError(f"histogram.hi = {hi:g} is not above the automatic lower bound {lo:g} "
                              f"at record step {k}; give histogram.lo too")
    try:
        return chi2_histogram(x, reference, lo, hi, spec.hist_bins)
    except MemoryError as exc:
        raise ConfigError(f"histogram.bins is too large: {exc}") from exc
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
        mean, cov = _mean_cov(sum_q, sum_qq, n_total, 1)
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
    output is identical for any ``workers`` value.  With ``workers`` > 1
    and two or more groups, up to ``workers`` pool threads step the groups;
    otherwise the calling thread steps them and one pool thread draws their
    noise ahead.  A benchmark reference steps first, on the calling thread,
    and draws ahead on the same pool.  A diverging config is truncated and
    flagged, not fatal to the run.
    """
    model = spec.model()
    keep_samples = spec.metric == "chi2_hist"
    rows = []
    grad_evals = {}
    diverged = {}
    n_blocks = (spec.chains + BLOCK_SIZE - 1) // BLOCK_SIZE
    sizes = [min(BLOCK_SIZE, spec.chains - b * BLOCK_SIZE) for b in range(n_blocks)]
    groups = _groups(sizes, model.dim)
    # one executor per run: with workers > 1 and two or more groups its
    # threads step the groups; else its one thread draws each group's noise
    # ahead while the calling thread steps the groups, at any worker count
    parallel = workers > 1 and len(groups) > 1
    if parallel:
        pool = ThreadPoolExecutor(max_workers=workers)
    else:
        pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="hfhr-noise")
    with pool:
        # parse_config checked that a closed-form reference exists for the model
        if spec.reference == "benchmark_run":
            summary = _benchmark_reference(spec, model, cache_dir, pool)
            reference = summary.mean if spec.metric == "mean_error" else summary
        elif spec.metric == "w2_gaussian":
            reference = GaussianSummary(mean=np.zeros(model.dim), cov=np.linalg.inv(model.quadratic_hessian))
        elif spec.metric == "mean_error":
            reference = model.target_mean
        else:
            reference = _target_density_1d(model)

        for c_idx, (config_id, config) in enumerate(spec.samplers):
            steps = spec.steps_for(config)
            record_steps = range(0, steps + 1, spec.record_every)  # and the last step

            def task(group):
                records = []

                def record(k, q):
                    if k in record_steps or k == steps:
                        records.append(q.reshape(-1, model.dim).copy() if keep_samples else _raw_moments(q))

                streams = [c_idx * _CONFIG_STREAMS + b for b in group]
                stop = _run_group(spec, model, config, steps, streams, sizes[group[0]], record,
                                  noise_pool=None if parallel else pool)
                return records, stop

            group_records, stops = zip(*(pool.map if parallel else map)(task, groups))
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
                        _chi2_value(spec, reference, np.concatenate([r[i] for r in group_records]).ravel(),
                                    min(i * spec.record_every, steps))
                        for i in range(records)
                    ]
                    stderrs = [None] * records
                else:
                    try:
                        values, stderrs = _moment_values(spec, reference, group_records, records, model.dim)
                    except ValueError as exc:  # the raw moments lost a covariance to cancellation
                        with suppress(ValueError):  # i stops at the first record that fails alone
                            for i in range(records):
                                _moment_values(spec, reference, [r[i : i + 1] for r in group_records], 1, model.dim)
                        k = min(i * spec.record_every, steps)
                        raise ConfigError(f"sampler '{config_id}': {exc} at record step {k}; likely cause: init.q far from 0 against init.q_std") from exc
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


class _SharedSlab:
    """One step's noise slab, drawn once from ``source`` and read by each pair.

    The pairs of a lockstep sweep run one kernel on one stream, so a step's
    slab is the same for all of them: ``draw`` refills it in place, and
    ``normals`` hands every pair the same view.  The view is read-only: a
    kernel that wrote into its noise would otherwise change it for the pairs
    after it.
    """

    def __init__(self, source: RandomSource, shape: tuple):
        # perfbench's tracer reads the seed of the noise a sweep stepper is
        # handed; without it the traced iter-sweep run exits 1
        self.seed = source.seed
        self._source = source
        # from malloc, not _mapped_empty: with an mmap'd slab perfbench's
        # iter-sweep job took about 30% longer on 2 vCPUs
        self._slab = np.empty(shape)
        self._view = self._slab.view()
        self._view.flags.writeable = False

    def draw(self) -> None:
        self._source.normals(self._slab.shape, out=self._slab)

    def normals(self, shape) -> np.ndarray:
        return self._view


def _step_pass(workers: list, live: list, target: np.ndarray, eps: float) -> dict:
    """Step each live ``(index, chain)`` pair once, pair i on ``workers[i % 2]``.

    Returns {index: outcome}: the step count of a hit, None for a step that
    missed, or the exception the step raised (a DivergenceError when the
    pair left).  Each thread takes its pairs in grid order and checks their
    hits itself.  A hit or a raise other than a divergence makes its index
    the stop index, and no pair after it starts.  A thread starts pair i
    only once the other has finished its pairs up to i - 3, so at most one
    pair past the stop index steps.  Every pair up to it has its outcome.
    """
    shares = [[pair for pair in live if pair[0] % 2 == w] for w in range(2)]
    # index of each thread's first unfinished pair, inf once its share is done
    front = [share[0][0] if share else math.inf for share in shares]
    stop = math.inf
    outcomes = {}
    turn = threading.Condition()

    def run(w):
        nonlocal stop
        share = shares[w]
        try:
            # numpy's errstate is per thread; the hit check of a state near
            # overflow may overflow
            with np.errstate(over="ignore", invalid="ignore"):
                for n, (i, chain) in enumerate(share):
                    with turn:
                        turn.wait_for(lambda: front[1 - w] > i - 3)
                        if i > stop:
                            return
                    try:
                        k, state = next(chain)
                        outcome = k if np.linalg.norm(state.q.mean(axis=0) - target) <= eps else None
                    except Exception as exc:  # the caller raises it if no pair before i hits or raises
                        outcome = exc
                    with turn:
                        outcomes[i] = outcome
                        if outcome is not None and not isinstance(outcome, DivergenceError):
                            stop = min(stop, i)
                        front[w] = share[n + 1][0] if n + 1 < len(share) else math.inf
                        turn.notify_all()
        finally:
            with turn:
                front[w] = math.inf
                turn.notify_all()

    for task in [workers[w].submit(run, w) for w in range(2) if shares[w]]:
        task.result()
    return outcomes


def sweep_iteration_complexity(
    model: PotentialModel,
    alphas,
    gammas,
    steps_grid,
    eps: float,
    chains: int = 1000,
    seeds=(0, 1, 2),
    cap: int = 2000,
    init_q: float = 1.0,
) -> list:
    """Fewest hfhr_strang iterations to bring the mean error below eps, per alpha.

    For each alpha the (gamma, h) grid is scanned for the first-hit step
    count; divergent combinations are excluded.  The scan is repeated over
    seeds and the per-seed minima are summarized by mean and standard
    deviation; a seed with no hit is left out of the mean.  The row's
    (gamma, h) is the winner of the first seed, in ``seeds`` order, that
    hits.  An alpha with no hit on any seed reports infinity.

    The pairs of one (alpha, seed) advance in lockstep, one step at a time
    in grid order (gamma outer, h inner), on one noise slab of the stream
    ``RandomSource(seed, 0)`` drawn once per step: each pair sees the
    numbers it would see run alone.  A diverging pair leaves; the scan stops
    at the first step where a pair hits, and the first such pair in grid
    order wins.  Lockstep holds one state per live pair, pairs x chains x
    dim x 16 bytes, and the slab, chains x dim x 40 bytes.

    Each pass, the calling thread draws the slab, then two threads, which
    live for this call, step the live pairs: pair i of the grid always on
    thread i mod 2, each thread in grid order with its own hit check (see
    ``_step_pass``).  The first pair in grid order that hits or raises
    stops the pass; at most one pair after it takes a step that is thrown
    away.  The caller reads the outcomes in grid order, so the rows, the
    winners and the errors raised are those of a one-thread scan.  Each
    thread holds one more step in flight, about 4 MB at 10,000 chains and
    dim 10.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if not _integer(chains) or chains < 1:
        raise ValueError("chains must be an integer >= 1")
    if not _integer(cap) or cap < 0:
        raise ValueError("cap must be an integer >= 0")
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
        slab = _SharedSlab(RandomSource(seed, 0), (KERNELS["hfhr_strang"].draws,) + state.q.shape)
        live = [(i, iterate_chain(state, stepper, cap, slab)) for i, stepper in enumerate(steppers)]
        for _ in range(cap):  # every live pair steps once a pass, up to the cap
            if not live:
                break
            slab.draw()
            outcomes = _step_pass(workers, live, target, eps)
            survivors = []
            for i, chain in live:
                outcome = outcomes[i]
                if isinstance(outcome, DivergenceError):
                    continue
                if isinstance(outcome, Exception):
                    raise outcome
                if outcome is not None:
                    return outcome, i
                survivors.append((i, chain))
            live = survivors
        return None, None

    combos = [(float(gamma), float(h)) for gamma in gammas for h in steps_grid]
    table = []
    # a thread starts at its first task: none for an empty grid, one for one pair
    with (
        ThreadPoolExecutor(1, thread_name_prefix="hfhr-sweep_0") as even,
        ThreadPoolExecutor(1, thread_name_prefix="hfhr-sweep_1") as odd,
    ):
        workers = [even, odd]
        for alpha in alphas:
            configs = [SamplerConfig(kind="hfhr_strang", step=h, gamma=gamma, alpha=float(alpha))
                       for gamma, h in combos]
            hits = [first_hit(configs, seed) for seed in seeds]
            finite = [k for k, _ in hits if k is not None]
            if not finite:
                table.append(SweepRow(alpha=float(alpha), best_gamma=None, best_step=None,
                                      iterations_mean=math.inf, iterations_std=math.inf))
            else:
                best_gamma, best_step = combos[next(i for k, i in hits if k is not None)]
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
        pts = " ".join(f"{px:.3f},{py:.3f}" for px, py in map(to_px, xs, ys))
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
