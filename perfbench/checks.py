"""Output checks. Each raises CheckFailed with the first disagreement it finds.

The tolerances are part of the benchmark's definition and documented in
README.md next to the check that uses them.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np
from scipy.linalg import solve_discrete_lyapunov

import exact

# a reported W2 value must lie within Z_TOL standard deviations of the mean of
# its exact-law draws, plus a floating-point allowance relative to the value
Z_TOL = 8.0
FLOAT_TOL = 1e-6
# max-abs disagreement allowed against the benchmark's own linear algebra,
# relative to the largest entry of the reference
MAP_TOL = 1e-9
LYAPUNOV_TOL = 1e-8
PROPAGATION_TOL = 1e-8


class CheckFailed(AssertionError):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def w2_series(values, draws, label):
    """Reported values (records,) against exact-law draws (records, R)."""
    values = np.asarray(values, dtype=float)
    require(values.shape == draws.shape[:1], f"{label}: {values.size} records, expected {draws.shape[0]}")
    require(np.all(np.isfinite(values)), f"{label}: non-finite value")
    centre = draws.mean(axis=1)
    spread = draws.std(axis=1, ddof=1)
    allowed = Z_TOL * spread + FLOAT_TOL * np.maximum(1.0, np.abs(centre))
    excess = np.abs(values - centre) - allowed
    worst = int(np.argmax(excess))
    require(
        excess[worst] <= 0.0,
        f"{label}: record {worst} reads {values[worst]!r}, exact law gives "
        f"{centre[worst]:.6g} +- {spread[worst]:.3g}",
    )


def csv_round_trip(harness, path, metric, rows=None):
    """The file parses back (to ``rows``, when given) and re-serialises to the same bytes."""
    try:
        parsed = harness.read_csv(path)
    except ValueError as exc:
        raise CheckFailed(f"{path}: read_csv cannot parse it: {exc}") from exc
    if rows is not None:
        require(parsed == list(rows), f"{path}: read_csv does not give back the rows written")
    with open(path, "rb") as fh:
        original = fh.read()
    series = harness.ResultSeries(metric=metric, rows=parsed, grad_evals={}, diverged={})
    fd, tmp = tempfile.mkstemp(suffix=".csv", dir=os.path.dirname(path))
    os.close(fd)
    try:
        harness.write_csv(series, tmp)
        with open(tmp, "rb") as fh:
            again = fh.read()
    finally:
        os.remove(tmp)
    require(again == original, f"{path}: rewriting the parsed rows changes the bytes")
    return parsed


def affine_map(kind, H, alpha, gamma, h, amap):
    T, Q = exact.kernel_map(kind, H, alpha, gamma, h)
    if kind == "ula":
        n = np.shape(H)[0]
        T, Q = T[:n, :n], Q[:n, :n]
    for name, got, want in (("T", amap.T, T), ("Q", amap.Q, Q)):
        err = float(np.max(np.abs(got - want)))
        require(
            err <= MAP_TOL * max(1.0, float(np.max(np.abs(want)))),
            f"step_affine_map({kind}, d={np.shape(H)[0]}, h={h}).{name} off by {err:.3g}",
        )
    require(not np.any(amap.c), f"step_affine_map({kind}) has a nonzero offset")
    return T, Q


def stationary(T, Q, summary, label):
    want = solve_discrete_lyapunov(T, Q)
    err = float(np.max(np.abs(summary.cov - want)))
    require(
        err <= LYAPUNOV_TOL * float(np.max(np.abs(want))),
        f"{label}: stationary covariance off by {err:.3g} from solve_discrete_lyapunov",
    )
    require(not np.any(summary.mean), f"{label}: stationary mean is not zero")


def propagation(H, alpha, gamma, mean0, cov0, times, summaries):
    require(len(summaries) == len(times), "propagation returned the wrong number of times")
    for t, got in zip(times, summaries):
        mean, cov = exact.continuous_law(H, alpha, gamma, mean0, cov0, t)
        scale = max(1.0, float(np.max(np.abs(cov))), float(np.max(np.abs(mean))))
        err = max(float(np.max(np.abs(got.mean - mean))), float(np.max(np.abs(got.cov - cov))))
        require(
            err <= PROPAGATION_TOL * scale,
            f"propagation d={np.shape(H)[0]} t={t}: off by {err:.3g} from Van Loan",
        )


def sweep(rows, alphas, replay):
    """The paper's prediction on the sweep table, plus a replay of each winner.

    ``replay(alpha, gamma, h)`` returns the first-hit step on the first seed,
    or None.
    """
    require([r.alpha for r in rows] == [float(a) for a in alphas], "sweep rows do not follow alphas")
    base = rows[0]
    require(base.alpha == 0.0 and math.isfinite(base.iterations_mean), "alpha=0 row is not finite")
    best = min(rows[1:], key=lambda r: r.iterations_mean)
    require(
        best.iterations_mean <= base.iterations_mean,
        f"best alpha>0 row (alpha={best.alpha}) needs {best.iterations_mean} "
        f"iterations, more than alpha=0's {base.iterations_mean}",
    )
    for r in rows:
        if not math.isfinite(r.iterations_mean):
            continue
        require(r.best_gamma is not None, f"alpha={r.alpha}: finite row without a winning pair")
        k = replay(r.alpha, r.best_gamma, r.best_step)
        require(
            k is not None,
            f"alpha={r.alpha}: replaying gamma={r.best_gamma}, h={r.best_step} never reaches eps",
        )
