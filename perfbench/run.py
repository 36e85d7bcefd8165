"""Benchmark of the hfhr package: one workload per run, result as a JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree; it imports ``hfhr`` from ``src/``.
The run repeats the workload's job, in whole jobs that fit in ``--seconds``
(at least one), and checks the outputs. With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` it wraps each layer's
public names, repeats the job traced and prints the per-layer metrics.

The end-to-end times are scaled to a nominal host speed. On a shared host
the same job runs up to 15% slower for minutes at a time, so the run times
``host_probe``, a fixed computation that uses no hfhr code, right before
each job, and reports the median over jobs of job time / probe time,
times ``PROBE_NOMINAL_S``. The raw job and probe times go to stderr.
Outputs go to ``.perfbench_out/``, span files to ``.perfbench_trace/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

# one BLAS thread, set before numpy loads: a job then runs at most the pool's
# two threads (the machine's nproc) instead of two BLAS threads per thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TRACE_DIR = ROOT / ".perfbench_trace"
WORKLOADS = ("dense-record", "highdim-pool", "iter-sweep", "theory-oracles")
# fresh interpreters that each import hfhr and build the inputs
SETUP_PROBES = 3
# median ``host_probe`` time on the reference host of perfbench/README.md;
# a scaled time is the time the job would take at that probe speed
PROBE_NOMINAL_S = 0.13


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _probe_blocks(seed):
    import numpy as np

    gen = np.random.default_rng(seed)
    block = np.empty((1000, 100))
    for _ in range(20):
        gen.standard_normal(out=block)
        block *= 0.3
        block += 1.0


def host_probe(threads=1) -> float:
    """Seconds the host takes now for a fixed computation without hfhr code.

    The three parts are the kinds of work the jobs do: Python bytecode, many
    numpy calls on small arrays, and normal draws and arithmetic on blocks
    of 1000 x 100. The block part runs on ``threads`` threads at once, one
    per thread the job keeps busy, since numpy releases the GIL there; a job
    on the pool's two threads waits for the slower CPU, and so does the probe.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i % 7
    x = np.ones(16)
    contraction = np.full((16, 16), 0.5 / 16)
    for _ in range(4000):
        x = contraction @ x + 0.1 * np.sin(x)
    workers = [threading.Thread(target=_probe_blocks, args=(i,)) for i in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return time.perf_counter() - start


def _setup_probe(args, out_dir):
    """Time importing hfhr and building the inputs, in this fresh process."""
    start = time.perf_counter()
    import hfhr  # noqa: F401  (the import is what is timed)
    import workloads

    workloads.WORKLOADS[args.workload](args.seed, str(out_dir))
    setup_s = time.perf_counter() - start
    host_probe()  # the first call pays numpy's lazy set-up and thread start
    print(json.dumps({"setup_s": setup_s, "probe_s": host_probe()}))
    return 0


def _setup_seconds(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    ratios = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(done.stdout.splitlines()[-1])
        print(f"setup (s): {probe['setup_s']:.3f}, host probe (s): {probe['probe_s']:.4f}",
              file=sys.stderr)
        ratios.append(probe["setup_s"] / probe["probe_s"])
    return PROBE_NOMINAL_S * statistics.median(ratios)


def _timed_jobs(workload, seconds, tally, probe=False):
    """Run whole jobs within ``seconds``, at least one.

    Returns (walls, probes, digests): with ``probe``, ``probes[i]`` is the
    ``host_probe`` time taken right before the job of ``walls[i]``. A job
    starts only if the previous job, with its probe, still fits in the window.
    """
    walls, probes, results = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        probe_s = host_probe(workload.threads) if probe else None
        t1 = time.perf_counter()
        tally["jobs"] += 1
        try:
            result = workload.job()
        except Exception:
            traceback.print_exc()
            tally["failed_jobs"] += 1
        else:
            walls.append(time.perf_counter() - t1)
            probes.append(probe_s)
            results.append(workload.digest(result))
            tally["last"] = result
        now = time.perf_counter()
        if now + (now - t0) > start + seconds:
            return walls, probes, results


def _check(workload, tally, digests):
    import checks

    if tally["last"] is None:
        print("error: no job completed", file=sys.stderr)
        return False
    try:
        checks.require(len(set(digests)) == 1, f"jobs wrote {len(set(digests))} different outputs")
        workload.check(tally["last"])
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "hfhr" / "__init__.py").is_file():
        print(f"error: no hfhr source under {SRC}; run from a full source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out_dir = OUT_DIR / args.workload / f"seed-{args.seed}"
    if args.setup_probe:
        return _setup_probe(args, out_dir)

    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    setup_s = None if args.trace else _setup_seconds(args)

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, str(out_dir))
    workload.warm_up()
    host_probe(workload.threads)
    tally = {"jobs": 0, "failed_jobs": 0, "last": None}

    if args.trace:
        import tracing

        untraced, _, digests = _timed_jobs(workload, 0.0, tally)
        tracer = tracing.Tracer()
        restore = tracing.install(tracer, workload)
        try:
            walls, _, traced_digests = _timed_jobs(workload, args.seconds, tally)
        finally:
            restore()
        digests += traced_digests
        values = tracing.layer_metrics(tracer, len(walls), workload.sweep_goal)
        values.update(tracing.microbenchmarks(workload))
        values["trace.overhead_ratio"] = statistics.median(walls) / untraced[0]
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"{args.workload}-seed-{args.seed}.csv")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in tracing.LAYER_METRICS}
    else:
        walls, probes, digests = _timed_jobs(workload, args.seconds, tally, probe=True)
        print("job walls (s): " + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
        print("host probes (s): " + " ".join(f"{p:.4f}" for p in probes), file=sys.stderr)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wall_s = PROBE_NOMINAL_S * statistics.median([w / p for w, p in zip(walls, probes)])
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "work_per_s": {"value": workload.work_per_job / wall_s, "unit": "1/s"},
        }

    correct = _check(workload, tally, digests)
    if digests:
        (out_dir / "output.sha256").write_text(digests[0] + "\n")
        print(f"output sha256 {args.workload} seed {args.seed}: {digests[0]}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally["jobs"] * workload.ops_per_job,
        "failed": tally["failed_jobs"] * workload.ops_per_job,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
