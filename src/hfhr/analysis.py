"""Closed-form machinery: contraction constants, rate bounds, affine-Gaussian
step maps, spectral study of the discretized mean process, and exact Gaussian
propagation used as an oracle for the samplers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
from scipy.linalg import expm, solve_discrete_lyapunov
from scipy.optimize import brentq


@dataclass(frozen=True)
class TheoryConstants:
    """Derived constants of the transformed dynamics.

    ``lambda_prime`` is the contraction rate min{m/gamma + alpha m,
    (gamma^2 - L)/gamma}; it is only positive when gamma^2 > L, and callers
    should treat a nonpositive value as "contraction unavailable".
    """

    l_prime: float
    sigma_max: float
    sigma_min: float
    kappa_prime: float
    lambda_prime: float

    @property
    def contraction_available(self) -> bool:
        return self.lambda_prime > 0


@dataclass(frozen=True, eq=False)
class GaussianSummary:
    """Mean vector and symmetric PSD covariance (exact or empirical)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if cov.shape != (mean.size, mean.size):
            raise ValueError("cov must be n x n for an n-vector mean")
        scale = max(1.0, float(np.max(np.abs(cov))))
        if np.max(np.abs(cov - cov.T)) > 1e-12 * scale:
            raise ValueError("cov must be symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", 0.5 * (cov + cov.T))

    @property
    def dim(self) -> int:
        return self.mean.size

    def marginal(self, indices) -> "GaussianSummary":
        idx = np.asarray(indices)
        return GaussianSummary(self.mean[idx], self.cov[np.ix_(idx, idx)])


@dataclass(frozen=True, eq=False)
class AffineGaussianMap:
    """One kernel step as x -> T x + c + N(0, Q)."""

    T: np.ndarray
    c: np.ndarray
    Q: np.ndarray

    @property
    def dim(self) -> int:
        return self.T.shape[0]


def theory_constants(L: float, m: float, alpha: float, gamma: float) -> TheoryConstants:
    """Evaluate the four transformed-dynamics constants verbatim."""
    if not (L >= m >= 0):
        raise ValueError("require L >= m >= 0")
    if gamma <= 0 or alpha < 0:
        raise ValueError("require gamma > 0 and alpha >= 0")
    l_prime = math.sqrt(2.0) * max(
        math.sqrt(1.0 + alpha * alpha) * max(1.0 / math.sqrt(2.0), L),
        math.sqrt(1.0 + gamma * gamma),
    )
    root = math.sqrt(
        alpha**2 * gamma**2 - 2 * alpha * gamma**3 + 4 * alpha * gamma + gamma**4 + 4
    )
    base = 0.5 * alpha * gamma + 0.5 * gamma * gamma + 1.0
    sigma_max = math.sqrt(base + 0.5 * root)
    sigma_min = math.sqrt(base - 0.5 * root)
    lambda_prime = min(m / gamma + alpha * m, (gamma * gamma - L) / gamma)
    return TheoryConstants(
        l_prime=l_prime,
        sigma_max=sigma_max,
        sigma_min=sigma_min,
        kappa_prime=sigma_max / sigma_min,
        lambda_prime=lambda_prime,
    )


def rate_bound_chi2_poincare(alpha: float, gamma: float, lambda_pi: float) -> float:
    """Exponential chi^2 rate 2 min{lambda_PI, 1} min{alpha, gamma}."""
    if alpha <= 0 or gamma <= 0 or lambda_pi <= 0:
        raise ValueError("alpha, gamma and lambda_pi must be > 0")
    return 2.0 * min(lambda_pi, 1.0) * min(alpha, gamma)


@dataclass(frozen=True)
class Chi2ConvexBound:
    rate: float
    gamma_ok: bool
    alpha_ok: bool


def rate_bound_chi2_convex(
    alpha: float,
    gamma: float,
    lambda_pi: float,
    smoothness: Optional[float] = None,
) -> Chi2ConvexBound:
    """Log-concave chi^2 rate sqrt(lambda)/(2 gamma) + sqrt(lambda) alpha / 16.

    The assumptions (gamma^2 >= max{2 lambda, L} and
    alpha <= gamma/lambda - 2/gamma) are flagged, not enforced; the bound
    keeps empirical value beyond them.
    """
    if gamma <= 0 or alpha < 0 or lambda_pi < 0:
        raise ValueError("require gamma > 0, alpha >= 0, lambda_pi >= 0")
    root = math.sqrt(lambda_pi)
    rate = root / (2.0 * gamma) + root * alpha / 16.0
    gamma_ok = gamma * gamma >= 2.0 * lambda_pi and (
        smoothness is None or gamma * gamma >= smoothness
    )
    alpha_cap = math.inf if lambda_pi == 0 else gamma / lambda_pi - 2.0 / gamma
    return Chi2ConvexBound(rate=rate, gamma_ok=gamma_ok, alpha_ok=alpha <= alpha_cap)


@dataclass(frozen=True)
class W2RateBound:
    rate: float
    prefactor: float
    gamma_ok: bool
    alpha_ok: bool


def rate_bound_w2(alpha: float, gamma: float, m: float, L: float) -> W2RateBound:
    """Wasserstein contraction: rate m/gamma + m alpha, prefactor kappa'."""
    if m <= 0:
        raise ValueError("m must be > 0")
    consts = theory_constants(L, m, alpha, gamma)
    return W2RateBound(
        rate=m / gamma + m * alpha,
        prefactor=consts.kappa_prime,
        gamma_ok=gamma * gamma > L + m,
        alpha_ok=alpha <= (gamma * gamma - L - m) / (m * gamma),
    )


def w2_bound_discrete(
    alpha: float,
    gamma: float,
    m: float,
    L: float,
    h: float,
    k: float,
    w2_init: float,
    C: float,
) -> float:
    """Discrete-time W2 bound: sqrt(2) kappa' e^{-rate k h} W2(0) + sqrt(2) C h."""
    consts = theory_constants(L, m, alpha, gamma)
    rate = m / gamma + m * alpha
    return math.sqrt(2.0) * consts.kappa_prime * math.exp(-rate * k * h) * w2_init + (
        math.sqrt(2.0) * C * h
    )


def iteration_complexity(
    alpha: float,
    gamma: float,
    m: float,
    C: float,
    h0: float,
    eps: float,
    kappa_prime: float,
    w2_init: float,
) -> tuple[float, float]:
    """Step size and step count reaching eps accuracy in W2.

    Returns (h_star, k_star) with h_star = min{h0, eps / (2 sqrt(2) C)} and
    k_star the real-valued count (callers take the ceiling); the count is
    clamped at 0 when the target accuracy already exceeds the start.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    rate = m / gamma + m * alpha
    root8 = 2.0 * math.sqrt(2.0)
    h_star = min(h0, eps / (root8 * C))
    log_term = math.log(root8 * kappa_prime * w2_init / eps)
    k_star = max(0.0, (1.0 / rate) * max(1.0 / h0, root8 * C / eps) * log_term)
    return h_star, k_star


def discretization_constant_bound(b1: float, b2: float, alpha: float, m: float, gamma: float) -> float:
    """Upper bound (b1 alpha^3 + b2) / (m/gamma + m alpha) on the error constant."""
    return (b1 * alpha**3 + b2) / (m / gamma + m * alpha)


def optimal_alpha(b1: float, b2: float, gamma: float) -> float:
    """Minimizer over alpha >= 0 of (b1 a^3 + b2) / (m/gamma + m a)^2.

    The strong-convexity scale m cancels from the argmin.  Stationarity
    reduces to the cubic b1 a^3 + (3 b1 / gamma) a^2 - 2 b2 = 0, which has
    exactly one positive root.
    """
    if b1 <= 0 or b2 <= 0 or gamma <= 0:
        raise ValueError("b1, b2 and gamma must be > 0")

    def cubic(a):
        return b1 * a**3 + 3.0 * b1 * a * a / gamma - 2.0 * b2

    hi = 1.0
    while cubic(hi) < 0:
        hi *= 2.0
    return brentq(cubic, 0.0, hi, xtol=1e-14)


def step_thresholds(L: float, m: float, G: float, alpha: float, gamma: float) -> dict:
    """Evaluate the admissible-step formulas h0 = min{1/(4 k' L'), h1, h2, h3}.

    These are conservative; only their functional form is meaningful.
    Requires gamma^2 > L so the contraction rate is positive.
    """
    if gamma * gamma <= L:
        raise ValueError("step thresholds require gamma^2 > L")
    consts = theory_constants(L, m, alpha, gamma)
    kp, lp = consts.kappa_prime, consts.lambda_prime
    big = max(alpha + 1.25, gamma + 1.0)
    h1 = math.sqrt(lp) / (4.0 * math.sqrt(2.0) * kp * L * big * (1.92 + 2.30 * alpha * L))
    h2 = lp / (16.0 * math.sqrt(2.0) * kp * (L + G) * big * (1.74 + 0.71 * alpha))
    h3 = lp / (8.0 * kp * L * big * (1.92 + 2.30 * alpha * L))
    h0 = min(1.0 / (4.0 * kp * consts.l_prime), h1, h2, h3)
    return {"h0": h0, "h1": h1, "h2": h2, "h3": h3}


def _phi_drift_blocks(gamma: float, t: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    from .samplers import phi_covariance

    eye = np.eye(n)
    decay = math.exp(-gamma * t)
    drift = -math.expm1(-gamma * t) / gamma
    T = np.block([[eye, drift * eye], [np.zeros((n, n)), decay * eye]])
    cov = phi_covariance(gamma, t)
    Q = np.block([[cov[0, 0] * eye, cov[0, 1] * eye], [cov[0, 1] * eye, cov[1, 1] * eye]])
    return T, Q


def step_affine_map(
    kind: str, H: np.ndarray, alpha: float, gamma: float, h: float
) -> AffineGaussianMap:
    """Exact affine-Gaussian representation of one kernel step on a quadratic.

    For 'ula' the returned map acts on position space only (momentum is
    carried identically zero by that kernel); the remaining kinds act on the
    full (q, p) phase space.
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    n = H.shape[0]
    if H.shape != (n, n) or np.max(np.abs(H - H.T)) > 1e-10 * max(1.0, np.abs(H).max()):
        raise ValueError("H must be symmetric")
    eye = np.eye(n)
    zeros = np.zeros((n, n))

    if kind == "ula":
        return AffineGaussianMap(T=eye - h * H, c=np.zeros(n), Q=2.0 * h * eye)
    if kind == "hfhr_em":
        T = np.block([[eye - alpha * h * H, h * eye], [-h * H, (1.0 - gamma * h) * eye]])
        Q = np.block([[2.0 * alpha * h * eye, zeros], [zeros, 2.0 * gamma * h * eye]])
        return AffineGaussianMap(T=T, c=np.zeros(2 * n), Q=Q)
    if kind == "uld_klmc":
        decay = math.exp(-gamma * h)
        c1 = -math.expm1(-gamma * h) / gamma
        c2 = (h - c1) / gamma
        T = np.block([[eye - c2 * H, c1 * eye], [-c1 * H, decay * eye]])
        _, Q = _phi_drift_blocks(gamma, h, n)
        return AffineGaussianMap(T=T, c=np.zeros(2 * n), Q=Q)
    if kind == "hfhr_strang":
        Tphi, Qphi = _phi_drift_blocks(gamma, 0.5 * h, n)
        Tpsi = np.block([[eye - alpha * h * H, zeros], [-h * H, eye]])
        Qpsi = np.block([[2.0 * alpha * h * eye, zeros], [zeros, zeros]])
        T = Tphi @ Tpsi @ Tphi
        inner = Tpsi @ Qphi @ Tpsi.T + Qpsi
        Q = Tphi @ inner @ Tphi.T + Qphi
        return AffineGaussianMap(T=T, c=np.zeros(2 * n), Q=0.5 * (Q + Q.T))
    raise ValueError(f"unknown kernel kind '{kind}'")


def spectral_radius(T: np.ndarray) -> float:
    """Largest eigenvalue modulus; 2x2 blocks are handled in closed form."""
    T = np.atleast_2d(np.asarray(T, dtype=float))
    n = T.shape[0]
    if T.shape != (n, n):
        raise ValueError("matrix must be square")
    if n == 1:
        return abs(float(T[0, 0]))
    if n == 2:
        tr = T[0, 0] + T[1, 1]
        det = T[0, 0] * T[1, 1] - T[0, 1] * T[1, 0]
        disc = tr * tr - 4.0 * det
        if disc <= 0.0:
            return math.sqrt(det)  # complex pair: |lambda|^2 = det
        root = math.sqrt(disc)
        return max(abs(tr + root), abs(tr - root)) / 2.0
    return float(np.max(np.abs(np.linalg.eigvals(T))))


def _demo_block(lam: float, alpha: float, gamma: float, h: float) -> np.ndarray:
    """Forward-Euler mean-process block for one Hessian eigenvalue."""
    return np.array([[1.0 - alpha * lam * h, h], [-lam * h, 1.0 - gamma * h]])


@dataclass(frozen=True)
class UldOptimalDiscount:
    step: float
    gamma: float
    discount: float


def uld_optimal_discount(eps: float) -> UldOptimalDiscount:
    """Fastest forward-Euler ULD discount on the two-eigenvalue quadratic.

    For Hessian eigenvalues {1, 1/eps} the optimum is h = sqrt(2 eps/(1+eps)),
    gamma = sqrt(2 (1+eps)/eps), with discount sqrt((1-eps)/(1+eps)).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    h = math.sqrt(2.0 * eps / (1.0 + eps))
    gamma = math.sqrt(2.0 * (1.0 + eps)) / math.sqrt(eps)
    discount = math.sqrt((1.0 - eps) / (1.0 + eps))
    radius = max(
        spectral_radius(_demo_block(1.0, 0.0, gamma, h)),
        spectral_radius(_demo_block(1.0 / eps, 0.0, gamma, h)),
    )
    if abs(radius - discount) > 1e-10:
        raise AssertionError("closed-form discount disagrees with block spectra")
    return UldOptimalDiscount(step=h, gamma=gamma, discount=discount)


@dataclass(frozen=True)
class AcceleratedDiscount:
    gamma: float
    alpha: float
    step: float
    discount: float


def hfhr_demo2_parameters(eps: float, c: float) -> AcceleratedDiscount:
    """Constructive accelerated parameters beating the optimal ULD discount.

    Solves tr A1 = 0 and det A1 + det A2 = 0 with h = c eps; the resulting
    discount is (1/(sqrt(2)(1+eps))) sqrt((1-eps)(1-eps+R)) where R is the
    common radical.  Both defining residuals are checked to 1e-10.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if c <= 0:
        raise ValueError("c must be > 0")
    R = math.sqrt(
        4 * c * c * eps**4 + 8 * c * c * eps**3 + 4 * c * c * eps**2 + eps**2 - 2 * eps + 1
    )
    denom = 2.0 * c * eps * eps + 2.0 * c * eps
    gamma = (R + eps + 3.0) / denom
    alpha = (-R + 3.0 * eps + 1.0) / denom
    h = c * eps
    if alpha <= 0 or gamma <= 0:
        raise ValueError("eps, c outside the admissible range (alpha or gamma <= 0)")
    discount = math.sqrt((1.0 - eps) * (1.0 - eps + R)) / (math.sqrt(2.0) * (1.0 + eps))

    A1 = _demo_block(1.0, alpha, gamma, h)
    A2 = _demo_block(1.0 / eps, alpha, gamma, h)
    tr1 = A1[0, 0] + A1[1, 1]
    det_sum = np.linalg.det(A1) + np.linalg.det(A2)
    if abs(tr1) > 1e-10 or abs(det_sum) > 1e-10:
        raise AssertionError("defining system residuals exceed 1e-10")
    return AcceleratedDiscount(gamma=gamma, alpha=alpha, step=h, discount=discount)


def _drift_diffusion(H: np.ndarray, alpha: float, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    H = np.atleast_2d(np.asarray(H, dtype=float))
    n = H.shape[0]
    eye = np.eye(n)
    A = np.block([[-alpha * H, eye], [-H, -gamma * eye]])
    D = np.block(
        [[2.0 * alpha * eye, np.zeros((n, n))], [np.zeros((n, n)), 2.0 * gamma * eye]]
    )
    return A, D


def gaussian_continuous_propagation(
    H: np.ndarray,
    alpha: float,
    gamma: float,
    mean0: np.ndarray,
    cov0: np.ndarray,
    t: Union[float, Sequence[float]],
):
    """Exact law of the continuous dynamics on a quadratic potential.

    The mean follows e^{A t} mean0 and the covariance solves the Lyapunov ODE
    dS/dt = A S + S A^T + D.  Over a sub-span tau, S <- F S F^T + Q with
    F = e^{A tau} and Q = int_0^tau e^{A s} D e^{A^T s} ds, both read off one
    block exponential (Van Loan 1978).  Sub-spans keep ||A||_1 tau <= 1: over
    a long span the e^{-A tau} block of that exponential grows and cancels.
    ``t`` may be a scalar or an increasing sequence; a matching
    GaussianSummary (or list thereof) is returned.
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    eigs = np.linalg.eigvalsh(0.5 * (H + H.T))
    if np.max(np.abs(H - H.T)) > 1e-10 * max(1.0, np.abs(H).max()) or eigs.min() <= 0:
        raise ValueError("H must be symmetric positive definite")
    scalar = np.isscalar(t)
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(times < 0) or np.any(np.diff(times) < 0):
        raise ValueError("times must be nonnegative and nondecreasing")
    A, D = _drift_diffusion(H, alpha, gamma)
    n2 = A.shape[0]
    mean0 = np.asarray(mean0, dtype=float)
    cov = np.atleast_2d(np.asarray(cov0, dtype=float)).copy()
    norm_a = max(1.0, np.linalg.norm(A, 1))

    out = []
    t_prev = 0.0
    for t_k in times:
        span = t_k - t_prev
        if span > 0:
            nsteps = max(1, int(math.ceil(span * norm_a)))
            tau = span / nsteps
            E = expm(np.block([[-A, D], [np.zeros_like(A), A.T]]) * tau)
            F = E[n2:, n2:].T
            Q = F @ E[:n2, n2:]
            for _ in range(nsteps):
                cov = F @ cov @ F.T + Q
        mean = expm(A * t_k) @ mean0 if t_k > 0 else mean0.copy()
        out.append(GaussianSummary(mean=mean, cov=0.5 * (cov + cov.T)))
        t_prev = t_k
    return out[0] if scalar else out


def discrete_stationary_covariance(step_map: AffineGaussianMap) -> GaussianSummary:
    """Unique fixed point of S = T S T^T + Q, by a direct discrete Lyapunov solve."""
    radius = spectral_radius(step_map.T)
    if radius >= 1.0:
        raise ValueError(
            f"spectral radius {radius:.6f} >= 1: no stationary distribution"
        )
    S = solve_discrete_lyapunov(step_map.T, step_map.Q)
    mean = np.linalg.solve(np.eye(step_map.dim) - step_map.T, step_map.c)
    return GaussianSummary(mean=mean, cov=0.5 * (S + S.T))


__all__ = [
    "TheoryConstants",
    "GaussianSummary",
    "AffineGaussianMap",
    "Chi2ConvexBound",
    "W2RateBound",
    "UldOptimalDiscount",
    "AcceleratedDiscount",
    "theory_constants",
    "rate_bound_chi2_poincare",
    "rate_bound_chi2_convex",
    "rate_bound_w2",
    "w2_bound_discrete",
    "iteration_complexity",
    "discretization_constant_bound",
    "optimal_alpha",
    "step_thresholds",
    "step_affine_map",
    "spectral_radius",
    "uld_optimal_discount",
    "hfhr_demo2_parameters",
    "gaussian_continuous_propagation",
    "discrete_stationary_covariance",
]
