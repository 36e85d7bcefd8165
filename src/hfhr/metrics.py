"""Distances and diagnostics: Gaussian W2, empirical moments, histogram and
closed-form chi-squared divergences, the mean-error surrogate, and log-log
scaling fits."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import GaussianSummary


def _psd_sqrt(S: np.ndarray, scale: float = 1.0) -> np.ndarray:
    # eigenvalue clamping keeps tiny negative sampling noise from poisoning
    # the matrix square root; eigenvalues below -1e-10 * max(1, scale,
    # largest eigenvalue) are not noise
    vals, vecs = np.linalg.eigh(S)
    scale = max(1.0, scale, float(vals.max(initial=0.0)))
    if vals.min(initial=0.0) < -1e-10 * scale:
        raise ValueError("covariance is not positive semi-definite")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def w2_gaussian(a: GaussianSummary, b: GaussianSummary) -> float:
    """2-Wasserstein distance between Gaussians (Bures form).

    sqrt(||m_a - m_b||^2 + tr(S_a + S_b - 2 (S_b^1/2 S_a S_b^1/2)^1/2)).
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    rb = _psd_sqrt(b.cov)
    _psd_sqrt(a.cov)  # validates PSD of the first argument too
    # rb S_a rb scales a round-off residue of S_a by up to b's largest
    # eigenvalue, which the trace bounds
    cross = _psd_sqrt(rb @ a.cov @ rb, scale=float(np.trace(b.cov)))
    trace_term = float(np.trace(a.cov) + np.trace(b.cov) - 2.0 * np.trace(cross))
    gap = float(np.sum((a.mean - b.mean) ** 2)) + max(trace_term, 0.0)
    return math.sqrt(max(gap, 0.0))


def empirical_moments(samples) -> GaussianSummary:
    """Sample mean and unbiased sample covariance of an (n, d) point set."""
    X = np.atleast_2d(np.asarray(samples, dtype=float))
    if X.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / (X.shape[0] - 1)
    return GaussianSummary(mean=mean, cov=np.atleast_2d(cov))


@dataclass(frozen=True, eq=False)
class HistogramDensity:
    """Normalized histogram over [lo, hi]: bin masses sum to one."""

    lo: float
    hi: float
    bins: int
    counts: np.ndarray

    def __post_init__(self):
        if self.bins < 2:
            raise ValueError("bins must be >= 2")
        if np.any(self.counts < 0):
            raise ValueError("counts must be nonnegative")

    @property
    def masses(self) -> np.ndarray:
        total = self.counts.sum()
        if total == 0:
            raise ValueError("empty histogram")
        return self.counts / total

    @classmethod
    def from_samples(cls, samples, lo: float, hi: float, bins: int) -> "HistogramDensity":
        x = np.clip(np.asarray(samples, dtype=float), lo, hi)
        counts, _ = np.histogram(x, bins=bins, range=(lo, hi))
        return cls(lo=lo, hi=hi, bins=bins, counts=counts)


def chi2_histogram(samples, target_density, lo: float, hi: float, bins: int) -> float:
    """Histogram chi-squared divergence sum_j (p_j - q_j)^2 / q_j.

    Empirical bin masses come from the samples (values outside [lo, hi]
    accumulate into the boundary bins); target bin masses use a midpoint
    rule with 32 sub-points per bin.  The target should carry essentially
    all of its mass inside [lo, hi].
    """
    if bins < 2:
        raise ValueError("bins must be >= 2")
    if not hi > lo:
        raise ValueError("need hi > lo")
    hist = HistogramDensity.from_samples(samples, lo, hi, bins)
    p_hat = hist.masses
    width = (hi - lo) / bins
    sub = (np.arange(32) + 0.5) / 32.0
    total = 0.0
    for j in range(bins):
        xs = lo + (j + sub) * width
        q_j = float(np.mean(target_density(xs)) * width)
        if q_j <= 0.0:
            if p_hat[j] > 0.0:
                raise ValueError(f"target mass vanishes in nonempty bin {j}")
            continue
        total += (p_hat[j] - q_j) ** 2 / q_j
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
    "HistogramDensity",
    "w2_gaussian",
    "empirical_moments",
    "chi2_histogram",
    "chi2_gaussian_1d",
    "mean_error",
    "loglog_slope",
]
