"""Distances and diagnostics: Gaussian W2, empirical moments, histogram and
closed-form chi-squared divergences, the mean-error surrogate, and log-log
scaling fits."""

from __future__ import annotations

import math

import numpy as np

from .analysis import GaussianSummary


def _psd_sqrt(S: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Square root of each symmetric PSD matrix of a (..., d, d) stack."""
    # eigenvalue clamping keeps tiny negative sampling noise from poisoning
    # the matrix square root; eigenvalues below -1e-10 * max(1, scale,
    # largest eigenvalue) are not noise
    vals, vecs = np.linalg.eigh(S)
    scales = np.maximum(max(1.0, scale), vals.max(axis=-1, initial=0.0))
    if np.any(vals.min(axis=-1, initial=0.0) < -1e-10 * scales):
        raise ValueError("covariance is not positive semi-definite")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)[..., None, :]) @ vecs.swapaxes(-1, -2)


def w2_gaussian_stack(means: np.ndarray, covs: np.ndarray, b: GaussianSummary) -> np.ndarray:
    """w2_gaussian of each N(means[r], covs[r]) against b, for (R, d) means
    and (R, d, d) covariances.

    The covariances are symmetrized as GaussianSummary does; one with a
    non-finite entry (moments that overflowed) has no distance and gets nan.
    b's square root and trace are taken once for the whole stack.
    """
    if means.shape[-1] != b.dim:
        raise ValueError("dimension mismatch")
    covs = 0.5 * (covs + covs.swapaxes(-1, -2))
    finite = np.isfinite(covs).all(axis=(-2, -1))
    out = np.full(len(covs), math.nan)
    rb = _psd_sqrt(b.cov)
    S = covs[finite]
    _psd_sqrt(S)  # validates PSD of the stack too
    # rb S rb scales a round-off residue of S by up to b's largest
    # eigenvalue, which the trace bounds
    tr_b = np.trace(b.cov)
    cross = _psd_sqrt(rb @ S @ rb, scale=float(tr_b))
    trace_term = np.trace(S, axis1=-2, axis2=-1) + tr_b - 2.0 * np.trace(cross, axis1=-2, axis2=-1)
    # np.where(0.0 > x, 0.0, x) is max(x, 0.0): nan stays nan
    gap = np.sum((means[finite] - b.mean) ** 2, axis=-1) + np.where(0.0 > trace_term, 0.0, trace_term)
    out[finite] = np.sqrt(np.where(0.0 > gap, 0.0, gap))
    return out


def w2_gaussian(a: GaussianSummary, b: GaussianSummary) -> float:
    """2-Wasserstein distance between Gaussians (Bures form).

    sqrt(||m_a - m_b||^2 + tr(S_a + S_b - 2 (S_b^1/2 S_a S_b^1/2)^1/2)).
    """
    return float(w2_gaussian_stack(a.mean[None], a.cov[None], b)[0])


def empirical_moments(samples) -> GaussianSummary:
    """Sample mean and unbiased sample covariance of an (n, d) point set."""
    X = np.atleast_2d(np.asarray(samples, dtype=float))
    if X.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / (X.shape[0] - 1)
    return GaussianSummary(mean=mean, cov=np.atleast_2d(cov))


# target bin masses are taken this many bins at a time, so one density call
# sees at most 32 * _BIN_CHUNK points
_BIN_CHUNK = 2**14
_SUB = (np.arange(32) + 0.5) / 32.0


def chi2_histogram(samples, target_density, lo: float, hi: float, bins: int) -> float:
    """Histogram chi-squared divergence sum_j (p_j - q_j)^2 / q_j.

    Empirical bin masses come from the samples (values outside [lo, hi]
    accumulate into the boundary bins); target bin masses use a midpoint
    rule with 32 sub-points per bin, taken _BIN_CHUNK bins at a time by one
    ``target_density`` call on the chunk's sub-points as a flat 1D array.
    The terms are added in bin order.  The target should carry essentially
    all of its mass inside [lo, hi].
    """
    if bins < 2:
        raise ValueError("bins must be >= 2")
    if not hi > lo:
        raise ValueError("need hi > lo")
    counts, _ = np.histogram(np.clip(np.asarray(samples, dtype=float), lo, hi), bins=bins, range=(lo, hi))
    n = counts.sum()
    if n == 0:
        raise ValueError("empty histogram")
    width = (hi - lo) / bins
    total = 0.0
    for start in range(0, bins, _BIN_CHUNK):
        j = np.arange(start, min(start + _BIN_CHUNK, bins))
        xs = (lo + (j[:, None] + _SUB) * width).ravel()
        density = np.broadcast_to(target_density(xs), xs.shape)  # a constant may come back as a scalar
        q = np.mean(density.reshape(-1, 32), axis=1) * width
        p = counts[j] / n
        empty = q <= 0.0
        lost = np.flatnonzero(empty & (p > 0.0))
        if lost.size:
            raise ValueError(f"target mass vanishes in nonempty bin {start + lost[0]}")
        keep = ~empty  # a nan mass stays in, as a nan term
        # float_power squares with C pow, as ** on a float does; x * x (what
        # ** 2 on an array gives) differs in the last bit about once in 1000
        terms = np.float_power(p[keep] - q[keep], 2) / q[keep]
        # a cumulative sum adds left to right, as a loop over the bins would
        total = float(np.cumsum(np.concatenate(([total], terms)))[-1])
    return total


def chi2_gaussian_1d(m1: float, s1: float, m2: float, s2: float) -> float:
    """Exact chi^2(N(m1, s1^2) || N(m2, s2^2)), +inf when the integral diverges.

    Finiteness requires 2/s1^2 - 1/s2^2 > 0.
    """
    if s1 <= 0 or s2 <= 0:
        raise ValueError("scales must be > 0")
    a = 1.0 / (s1 * s1)
    b = 1.0 / (2.0 * s2 * s2)
    c = a - b
    if c <= 0.0:
        return math.inf
    mu = (a * m1 - b * m2) / c
    expo = c * mu * mu - a * m1 * m1 + b * m2 * m2
    integral = (s2 / (math.sqrt(2.0 * math.pi) * s1 * s1)) * math.sqrt(math.pi / c) * math.exp(expo)
    return max(integral - 1.0, 0.0)


def mean_error(summary: GaussianSummary, target_mean) -> float:
    """Euclidean norm of the mean difference; a lower bound on W2."""
    target = np.atleast_1d(np.asarray(target_mean, dtype=float))
    if target.size != summary.dim:
        raise ValueError("dimension mismatch")
    return float(np.linalg.norm(summary.mean - target))


def loglog_slope(xs, ys) -> tuple[float, float, float]:
    """Least-squares fit of log y on log x; returns (slope, intercept, r2)."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size < 3 or y.size != x.size:
        raise ValueError("need at least 3 matching points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("log-log fit requires positive data")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(slope), float(intercept), r2


__all__ = [
    "w2_gaussian",
    "w2_gaussian_stack",
    "empirical_moments",
    "chi2_histogram",
    "chi2_gaussian_1d",
    "mean_error",
    "loglog_slope",
]
