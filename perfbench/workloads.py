"""The four workloads: inputs made from a seed, one timed job, its checks.

A job is one batch call from a single caller. Each workload calls the
program only through module attributes (``harness.run_experiment``, not a
name bound at import), so the traced run can wrap those attributes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import xml.etree.ElementTree as ET

import numpy as np
from hfhr import analysis, cli, harness, potentials

import checks
import exact

ALPHA = 1.0
GAMMA = 2.0


def _sampler_entries(h):
    return [
        {"id": "hfhr_strang", "kind": "hfhr_strang", "alpha": ALPHA, "gamma": GAMMA, "step": h},
        {"id": "uld_klmc", "kind": "uld_klmc", "gamma": GAMMA, "step": h},
        {"id": "ula", "kind": "ula", "step": h},
        {"id": "hfhr_em", "kind": "hfhr_em", "alpha": ALPHA, "gamma": GAMMA, "step": h},
    ]


class Workload:
    """Inputs built in the constructor (the set-up), then ``job`` on repeat.

    Each subclass also takes ``small=True``: the same job at a tiny size,
    for the warm-up and the benchmark's tests.
    """

    name = ""
    # operations one job attempts, and the work units ``work_per_s`` counts
    ops_per_job = 1
    work_per_job = 1.0
    # (target mean, eps) when the job runs an iteration sweep
    sweep_goal = None
    # threads the job keeps busy; the host probe runs on as many
    threads = 1

    def __init__(self, seed: int, out_dir: str):
        self.seed = int(seed)
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)

    def warm_up(self):
        """One job at the small size: lazy imports and first allocations."""
        type(self)(self.seed, os.path.join(self.out_dir, "warm-up"), small=True).job()

    def job(self):
        raise NotImplementedError

    def output(self, result) -> bytes:
        """Every output byte of one job; ``(spec, seed)`` fixes them all."""
        raise NotImplementedError

    def check(self, result) -> None:
        raise NotImplementedError

    def digest(self, result) -> str:
        return hashlib.sha256(self.output(result)).hexdigest()


class _QuadraticExperiment(Workload):
    """An experiment spec on a diagonal quadratic, scored by w2_gaussian."""

    potential = ""
    params: dict = {}
    chains = steps = record_every = 0
    h = 0.0
    draws = 0  # exact-law draws of the statistic per record

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.doc = {
            "potential": {"name": self.potential, "params": self.params},
            "sampler": _sampler_entries(self.h),
            "chains": self.chains,
            "steps": self.steps,
            "record_every": self.record_every,
            "seed": self.seed,
            "metric": "w2_gaussian",
            "reference": {"type": "closed_form"},
            "init": {"q": 1.0, "p": 0.0},
        }
        self.spec_path = os.path.join(out_dir, "spec.json")
        text = json.dumps(self.doc, indent=1)
        with open(self.spec_path, "w") as fh:
            fh.write(text)
        self.spec = harness.parse_config(text)
        self.model = self.spec.model()
        self.curvatures = np.diag(self.model.quadratic_hessian).copy()
        self.ops_per_job = len(self.doc["sampler"])
        self.work_per_job = float(self.chains * self.steps * self.model.dim * self.ops_per_job)

    def check_rows(self, rows):
        """Every sampler's series against the exact law of its chains."""
        steps = self.doc["steps"]
        record_steps = sorted(set(range(0, steps + 1, self.doc["record_every"])) | {steps})
        ids = [e["id"] for e in self.doc["sampler"]]
        checks.require(
            sorted({r.config_id for r in rows}) == sorted(ids), "unexpected sampler ids in the result"
        )
        rng = np.random.default_rng([self.seed, 7])
        lams, inverse = np.unique(self.curvatures, return_inverse=True)
        for entry in self.doc["sampler"]:
            mine = [r for r in rows if r.config_id == entry["id"]]
            label = f"{self.name}/{entry['id']}"
            checks.require([r.step for r in mine] == record_steps, f"{label}: wrong record steps")
            checks.require(all(r.flag == "" for r in mine), f"{label}: flagged as diverged")
            laws = [
                exact.position_law(
                    entry["kind"], lam, entry.get("alpha", 0.0), entry.get("gamma", 1.0),
                    entry["step"], 1.0, 0.0, steps,
                )
                for lam in lams
            ]
            means = np.stack([laws[i][0][record_steps] for i in inverse], axis=1)
            variances = np.stack([laws[i][1][record_steps] for i in inverse], axis=1)
            draws = exact.w2_statistic_draws(
                means, variances, 1.0 / self.curvatures, self.doc["chains"], self.draws, rng
            )
            checks.w2_series([r.value for r in mine], draws, label)


class DenseRecord(_QuadraticExperiment):
    """``hfhr experiment`` through cli.main: d=1, a record at every step."""

    name = "dense-record"
    potential = "quadratic_iso"
    params = {"m": 1.0, "d": 1}
    chains = 10_000
    steps = 400
    record_every = 1
    h = 0.05
    draws = 400

    def __init__(self, seed, out_dir, small=False):
        if small:
            self.chains, self.steps = 2000, 5
        super().__init__(seed, out_dir)
        self.run_dir = os.path.join(out_dir, "run")

    def job(self):
        argv = ["experiment", self.spec_path, "--out-dir", self.run_dir,
                "--workers", "1", "--format", "both"]
        return cli.main(argv)

    def _paths(self):
        return [os.path.join(self.run_dir, f) for f in ("results.csv", "results.svg")]

    def output(self, result):
        parts = []
        for path in self._paths():
            with open(path, "rb") as fh:
                parts.append(fh.read())
        return b"\0".join(parts)

    def check(self, result):
        checks.require(result == 0, f"hfhr experiment exited with {result}")
        csv_path, svg_path = self._paths()
        rows = checks.csv_round_trip(harness, csv_path, "w2_gaussian")
        self.check_rows(rows)
        lines = ET.parse(svg_path).getroot().iter("{http://www.w3.org/2000/svg}polyline")
        checks.require(
            len(list(lines)) == self.ops_per_job, "the SVG does not hold one curve per sampler"
        )


class HighdimPool(_QuadraticExperiment):
    """run_experiment on the thread pool, then write_csv: d=100, sparse records."""

    name = "highdim-pool"
    potential = "quadratic_aniso"
    # L = m * kappa = 4 and h = 0.1, so alpha * L * h = 0.4 < 1 for every kernel
    params = {"m": 1.0, "kappa": 4.0, "d": 100}
    # four blocks for two workers: a worker whose CPU stalls hands blocks to
    # the other, where two blocks would make each job wait for the slower CPU
    chains = 4000
    steps = 50
    record_every = 10
    h = 0.1
    draws = 32
    workers = threads = 2

    def __init__(self, seed, out_dir, small=False):
        if small:
            self.steps, self.record_every = 4, 2
        super().__init__(seed, out_dir)
        self.csv_path = os.path.join(out_dir, "results.csv")

    def job(self):
        series = harness.run_experiment(self.spec, workers=self.workers)
        harness.write_csv(series, self.csv_path)
        return series

    def output(self, result):
        with open(self.csv_path, "rb") as fh:
            return fh.read()

    def check(self, result):
        checks.csv_round_trip(harness, self.csv_path, result.metric, result.rows)
        for entry in self.doc["sampler"]:
            cid = entry["id"]
            checks.require(result.diverged[cid] is None, f"{cid} diverged")
            checks.require(
                result.grad_evals[cid] == self.chains * self.steps,
                f"{cid}: {result.grad_evals[cid]} gradient rows, expected {self.chains * self.steps}",
            )
        self.check_rows(result.rows)


class IterSweep(Workload):
    """sweep_iteration_complexity on the coupled log-cosh target (criterion 7b)."""

    name = "iter-sweep"
    # the order puts a pair that hits early first, so the caps tighten at once;
    # alpha = 2 is left out because its first pair's hit step moves with the
    # seed (4 or 15 steps), and the job's work with it
    alphas = (0.0, 0.5, 1.0)
    gammas = (2.0, 5.0, 10.0)
    steps_grid = (0.5, 1.0, 0.2)
    chains = 10_000
    cap = 500
    eps = 0.1
    dim = 10

    def __init__(self, seed, out_dir, small=False):
        super().__init__(seed, out_dir)
        if small:
            self.chains, self.cap = 200, 3
        self.seeds = (2 * self.seed, 2 * self.seed + 1)
        self.model = potentials.builtin_potential("coupled_logcosh", d=self.dim, shift=1.0)
        self.sweep_goal = (self.model.target_mean, self.eps)
        self.ops_per_job = len(self.alphas) * len(self.gammas) * len(self.steps_grid) * len(self.seeds)
        self.work_per_job = float(self.ops_per_job)

    def job(self):
        return harness.sweep_iteration_complexity(
            self.model, self.alphas, self.gammas, self.steps_grid, self.eps,
            chains=self.chains, seeds=self.seeds, cap=self.cap,
        )

    def output(self, result):
        return json.dumps([dataclasses.asdict(r) for r in result]).encode()

    def check(self, result):
        def replay(alpha, gamma, h):
            return exact.strang_first_hit(
                self.model.grad, self.model.target_mean, 1.0, self.chains, self.dim,
                alpha, gamma, h, self.eps, self.cap, self.seeds[0],
            )

        checks.sweep(result, self.alphas, replay)


class TheoryOracles(Workload):
    """The analysis layer's oracles on random dense quadratics; no sampling."""

    name = "theory-oracles"
    dims = (4, 8, 16, 32)
    h_grid = (0.05, 0.1, 0.2)
    prop_dims = (12, 16)
    times = (0.5, 1.0, 2.0)
    # eigenvalues of every H; alpha * L * h <= 0.4 keeps each kernel stable
    curvature = (0.5, 2.0)

    def __init__(self, seed, out_dir, small=False):
        super().__init__(seed, out_dir)
        if small:
            self.dims, self.h_grid, self.prop_dims, self.times = (2,), (0.2,), (2,), (0.1,)
        rng = np.random.default_rng([self.seed, 11])
        self.hessians = {d: self._hessian(rng, d) for d in sorted(set(self.dims) | set(self.prop_dims))}
        self.starts = {
            d: np.concatenate([rng.standard_normal(d), np.zeros(d)]) for d in self.prop_dims
        }
        # the oracles take H directly; this model only feeds the gradient
        # microbenchmark of the traced run
        self.model = potentials.builtin_potential(
            "quadratic_aniso", m=self.curvature[0], kappa=self.curvature[1] / self.curvature[0],
            d=self.prop_dims[-1],
        )
        self.ops_per_job = 2 * len(self.dims) * len(exact.KINDS) * len(self.h_grid) + len(self.prop_dims)
        self.work_per_job = float(self.ops_per_job)

    def _hessian(self, rng, d):
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        H = (basis * np.linspace(*self.curvature, d)) @ basis.T
        return 0.5 * (H + H.T)

    def job(self):
        maps = []
        for d in self.dims:
            for kind in exact.KINDS:
                for h in self.h_grid:
                    amap = analysis.step_affine_map(kind, self.hessians[d], ALPHA, GAMMA, h)
                    maps.append((d, kind, h, amap, analysis.discrete_stationary_covariance(amap)))
        props = [
            analysis.gaussian_continuous_propagation(
                self.hessians[d], ALPHA, GAMMA, self.starts[d], np.zeros((2 * d, 2 * d)), list(self.times)
            )
            for d in self.prop_dims
        ]
        return maps, props

    def output(self, result):
        maps, props = result
        arrays = [a for *_, m, s in maps for a in (m.T, m.c, m.Q, s.mean, s.cov)]
        arrays += [a for summaries in props for s in summaries for a in (s.mean, s.cov)]
        return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)

    def check(self, result):
        maps, props = result
        for d, kind, h, amap, summary in maps:
            T, Q = checks.affine_map(kind, self.hessians[d], ALPHA, GAMMA, h, amap)
            checks.stationary(T, Q, summary, f"{kind} d={d} h={h}")
        for d, summaries in zip(self.prop_dims, props):
            checks.propagation(
                self.hessians[d], ALPHA, GAMMA, self.starts[d], np.zeros((2 * d, 2 * d)),
                self.times, summaries,
            )


WORKLOADS = {w.name: w for w in (DenseRecord, HighdimPool, IterSweep, TheoryOracles)}
