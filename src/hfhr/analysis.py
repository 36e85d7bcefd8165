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

from .potentials import require_finite, require_nonnegative, require_positive


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
    """One kernel step as x -> T x + c + N(0, Q).

    ``modes`` is optional: ``(U, T_blocks, Q_blocks)`` with U the orthonormal
    eigenvectors of H (one column per eigenvalue) and T_blocks, Q_blocks the
    (d, k, k) per-eigenvalue blocks, k = 1 or 2, such that quadrant (i, j) of
    T is U diag(T_blocks[:, i, j]) U^T, and likewise for Q.  A map built by
    hand leaves it None.
    """

    T: np.ndarray
    c: np.ndarray
    Q: np.ndarray
    modes: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    @property
    def dim(self) -> int:
        return self.T.shape[0]


def _symmetric(H) -> np.ndarray:
    """H as a float matrix, which must be square, finite and symmetric within
    1e-10 max(1, max |H|), or a ValueError names H."""
    H = np.atleast_2d(np.asarray(H, dtype=float))
    finite_square = H.shape == (len(H),) * 2 and np.isfinite(H).all()
    if not finite_square or np.max(np.abs(H - H.T)) > 1e-10 * max(1.0, np.abs(H).max()):
        raise ValueError("H must be finite and symmetric")
    return H


def _w2_rate(alpha: float, gamma: float, m: float) -> float:
    """The paper's W2 contraction rate m/gamma + m alpha: underdamped
    Langevin's m/gamma plus the additional acceleration m alpha.

    Its one definition: theory_constants takes it as the first term of
    lambda', rate_bound_w2 reports it (and w2_bound_discrete takes it from
    there), and iteration_complexity and discretization_constant_bound
    divide by it.  Callers check the parameters.
    """
    return m / gamma + m * alpha


def theory_constants(L: float, m: float, alpha: float, gamma: float) -> TheoryConstants:
    """Evaluate the four transformed-dynamics constants verbatim.

    Only sigma_min is rewritten: sqrt(base - root / 2) cancels once gamma^2
    nears 1 / eps, so it is taken from sigma_max sigma_min = gamma
    sqrt(1 + alpha gamma), the determinant of the transform.  Parameters
    that take a constant beyond the floats raise a ValueError naming the
    one farthest from 1.
    """
    require_finite(L=L, m=m)
    require_nonnegative(alpha=alpha)
    require_positive(gamma=gamma)
    if not (L >= m >= 0):
        raise ValueError("require L >= m >= 0")
    l_prime = math.sqrt(2.0) * max(
        math.sqrt(1.0 + alpha * alpha) * max(1.0 / math.sqrt(2.0), L),
        math.sqrt(1.0 + gamma * gamma),
    )
    try:
        root = math.sqrt(
            alpha**2 * gamma**2 - 2 * alpha * gamma**3 + 4 * alpha * gamma + gamma**4 + 4
        )
    except OverflowError:  # a power left the floats
        root = math.inf
    base = 0.5 * alpha * gamma + 0.5 * gamma * gamma + 1.0
    sigma_max = math.sqrt(base + 0.5 * root)
    sigma_min = gamma * math.sqrt(1.0 + alpha * gamma) / sigma_max
    kappa_prime = sigma_max / sigma_min if sigma_min > 0 else math.inf
    rates = (_w2_rate(alpha, gamma, m), (gamma * gamma - L) / gamma)
    if not all(map(math.isfinite, (l_prime, sigma_max, kappa_prime, *rates))):
        params = {"gamma": gamma, "alpha": alpha, "L": L, "m": m}
        name = max(params, key=lambda k: abs(math.log(params[k])) if params[k] > 0 else 0.0)
        raise ValueError(f"{name} = {params[name]:g} is out of range: a constant leaves the floats")
    return TheoryConstants(
        l_prime=l_prime,
        sigma_max=sigma_max,
        sigma_min=sigma_min,
        kappa_prime=kappa_prime,
        lambda_prime=min(rates),
    )


def rate_bound_chi2_poincare(alpha: float, gamma: float, lambda_pi: float) -> float:
    """Exponential chi^2 rate 2 min{lambda_PI, 1} min{alpha, gamma}."""
    require_finite(alpha=alpha, gamma=gamma, lambda_pi=lambda_pi)
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
    require_nonnegative(alpha=alpha, lambda_pi=lambda_pi)
    require_positive(gamma=gamma)
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
    """Wasserstein contraction: rate ``_w2_rate`` (m/gamma + m alpha), prefactor kappa'.

    Requires m > 0, besides theory_constants' rules.
    """
    require_positive(m=m)
    consts = theory_constants(L, m, alpha, gamma)
    return W2RateBound(
        rate=_w2_rate(alpha, gamma, m),
        prefactor=consts.kappa_prime,
        gamma_ok=gamma * gamma > L + m,
        alpha_ok=alpha * m * gamma <= gamma * gamma - L - m,  # alpha <= (gamma^2 - L - m) / (m gamma); m gamma may underflow
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
    """Discrete-time W2 bound: sqrt(2) kappa' e^{-rate k h} W2(0) + sqrt(2) C h.

    The rate and kappa' are rate_bound_w2's, under its rules (m > 0).  h
    must be finite and > 0, and k, w2_init and C finite and >= 0, or a
    ValueError names one that is not.
    """
    bound = rate_bound_w2(alpha, gamma, m, L)
    require_positive(h=h)
    require_nonnegative(k=k, w2_init=w2_init, C=C)
    return math.sqrt(2.0) * bound.prefactor * math.exp(-bound.rate * k * h) * w2_init + (
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
    clamped at 0 when the target accuracy already exceeds the start.  The
    rate is ``_w2_rate``.  Every input must be finite, alpha >= 0 and the
    rest > 0, or a ValueError names one that is not.
    """
    require_nonnegative(alpha=alpha)
    require_positive(m=m, gamma=gamma, C=C, h0=h0, eps=eps, kappa_prime=kappa_prime, w2_init=w2_init)
    rate = _w2_rate(alpha, gamma, m)
    root8 = 2.0 * math.sqrt(2.0)
    h_star = min(h0, eps / (root8 * C))
    log_term = math.log(root8 * kappa_prime * w2_init / eps)
    k_star = max(0.0, (1.0 / rate) * max(1.0 / h0, root8 * C / eps) * log_term)
    return h_star, k_star


def discretization_constant_bound(b1: float, b2: float, alpha: float, m: float, gamma: float) -> float:
    """Upper bound (b1 alpha^3 + b2) / (m/gamma + m alpha) on the error constant.

    The denominator is ``_w2_rate``.  Every input must be finite, with m and
    gamma > 0 and alpha >= 0, or a ValueError names one that is not.
    """
    require_finite(b1=b1, b2=b2)
    require_nonnegative(alpha=alpha)
    require_positive(m=m, gamma=gamma)
    return (b1 * alpha**3 + b2) / _w2_rate(alpha, gamma, m)


def optimal_alpha(b1: float, b2: float, gamma: float) -> float:
    """Minimizer over alpha >= 0 of (b1 a^3 + b2) / (m/gamma + m a)^2.

    The strong-convexity scale m cancels from the argmin.  Stationarity
    reduces to the cubic b1 a^3 + (3 b1 / gamma) a^2 - 2 b2 = 0, which has
    exactly one positive root; the other two sum to -3/gamma minus it, so it
    is the largest real part of the three.  b1, b2 and gamma must be
    finite and > 0, or a ValueError names one that is not.
    """
    require_positive(b1=b1, b2=b2, gamma=gamma)
    return float(np.roots([b1, 3.0 * b1 / gamma, 0.0, -2.0 * b2]).real.max())


def step_thresholds(L: float, m: float, G: float, alpha: float, gamma: float) -> dict:
    """Evaluate the admissible-step formulas h0 = min{1/(4 k' L'), h1, h2, h3}.

    These are conservative; only their functional form is meaningful.
    Requires gamma^2 > L so the contraction rate is positive, and a finite
    G >= 0, besides theory_constants' rules.
    """
    require_nonnegative(G=G)
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


def _ou_blocks(gamma: float, t: float) -> tuple[np.ndarray, np.ndarray]:
    """2x2 T and Q of the exact OU flow dq = p dt, dp = -gamma p dt + sqrt(2 gamma) dW.

    Per coordinate, with x = gamma t: drift (1 - e^{-x})/gamma, decay e^{-x},
    and Q = int_0^t e^{As} diag(0, 2 gamma) e^{A^T s} ds has v_pp = 1 - e^{-2x},
    v_qp = (1 - e^{-x})^2/gamma, v_qq = (2x + 4e^{-x} - e^{-2x} - 3)/gamma^2.
    Written out here, not taken from the samplers, so the two check each other.
    """
    x = gamma * t
    if x >= 700.0:
        raise ValueError("gamma * t too large for stable exponentials")
    u, w = math.expm1(-x), math.expm1(-2.0 * x)  # e^{-x} - 1 and e^{-2x} - 1, no cancellation
    drift, closed = -u / gamma, 2.0 * x + 4.0 * u - w
    v_qp = u * u / gamma
    if x < 1e-4:
        # closed cancels to O(x^3), gamma**2 and u * u may underflow, and a
        # subnormal gamma has few digits: series in x, times powers of t
        drift = t * (1.0 - x / 2.0 + x * x / 6.0 - x**3 / 24.0)
        v_qq = x * t * t * (2.0 / 3.0 - 0.5 * x + (7.0 / 30.0) * x * x)
        v_qp = gamma * drift * drift
    elif 1e-150 < gamma < 1e150:
        v_qq = closed / gamma**2
    else:  # gamma**2 would leave the floats
        v_qq = closed / gamma / gamma
    T = np.array([[1.0, drift], [0.0, math.exp(-x)]])
    Q = np.array([[v_qq, v_qp], [v_qp, -w]])
    return T, Q


def _blocks(lam: np.ndarray, a, b, c, e) -> np.ndarray:
    """(d, 2, 2) stack of [[a, b], [c, e]], each entry a scalar or one value per eigenvalue."""
    out = np.empty((lam.size, 2, 2))
    out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1] = a, b, c, e
    return out


def _from_modes(U: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Dense matrix whose quadrant (i, j) is U diag(blocks[:, i, j]) U^T.

    A quadrant is built as b I + U diag(blocks[:, i, j] - b) U^T with b the
    midpoint of its entries, so its rounding scales with the spread of the
    entries over the modes, not with their size, and a quadrant equal on
    every mode is an exact multiple of I.
    """
    n, k = U.shape[0], blocks.shape[-1]
    mid = 0.5 * (blocks.min(axis=0) + blocks.max(axis=0))
    spread = (blocks - mid).transpose(1, 2, 0)[:, :, None, :]
    quadrants = (U * spread) @ U.T + mid[:, :, None, None] * np.eye(n)
    return quadrants.transpose(0, 2, 1, 3).reshape(k * n, k * n)


def step_affine_map(
    kind: str, H: np.ndarray, alpha: float, gamma: float, h: float
) -> AffineGaussianMap:
    """Exact affine-Gaussian representation of one kernel step on a quadratic.

    Every kernel's map is a polynomial in H, so it is written once per
    eigenvalue lambda of H (H -> lambda), as a 2x2 block, and the dense T and
    Q are assembled from the blocks through the eigenvectors; the blocks are
    returned in ``modes``.  For 'ula' the map acts on position space only
    (momentum is carried identically zero by that kernel) and its blocks are
    1x1; the remaining kinds act on the full (q, p) phase space.  The
    parameters follow the sampler's rules: H finite and symmetric, h > 0,
    alpha >= 0, and gamma > 0 for every kind but 'ula'.
    """
    if kind not in ("ula", "hfhr_em", "uld_klmc", "hfhr_strang"):
        raise ValueError(f"unknown kernel kind '{kind}'")
    H = _symmetric(H)
    n = H.shape[0]
    require_positive(h=h)
    (require_finite if kind == "ula" else require_positive)(gamma=gamma)
    require_nonnegative(alpha=alpha)
    lam, U = np.linalg.eigh(0.5 * (H + H.T))

    if kind == "ula":
        T, Q = (1.0 - h * lam)[:, None, None], np.full((n, 1, 1), 2.0 * h)
    elif kind == "hfhr_em":
        T = _blocks(lam, 1.0 - alpha * h * lam, h, -h * lam, 1.0 - gamma * h)
        Q = _blocks(lam, 2.0 * alpha * h, 0.0, 0.0, 2.0 * gamma * h)
    elif kind == "uld_klmc":
        Tou, Qou = _ou_blocks(gamma, h)
        x, c1 = gamma * h, Tou[0, 1]
        # (h - c1) / gamma cancels as x -> 0: below 1e-4, its series h^2 (12 - 4x + x^2) / 24
        c2 = h * h * (12.0 - 4.0 * x + x * x) / 24.0 if x < 1e-4 else (h - c1) / gamma
        T = _blocks(lam, 1.0 - c2 * lam, c1, -c1 * lam, Tou[1, 1])
        Q = np.tile(Qou, (n, 1, 1))
    else:  # hfhr_strang: OU half flow, then psi, then OU half flow
        Tphi, Qphi = _ou_blocks(gamma, 0.5 * h)
        Tpsi = _blocks(lam, 1.0 - alpha * h * lam, 0.0, -h * lam, 1.0)
        T = Tphi @ Tpsi @ Tphi
        inner = Tpsi @ Qphi @ Tpsi.transpose(0, 2, 1) + np.diag([2.0 * alpha * h, 0.0])
        Q = Tphi @ inner @ Tphi.T + Qphi
        Q = 0.5 * (Q + Q.transpose(0, 2, 1))
    dense_Q = _from_modes(U, Q)
    return AffineGaussianMap(
        T=_from_modes(U, T),
        c=np.zeros(n * T.shape[-1]),
        Q=0.5 * (dense_Q + dense_Q.T),
        modes=(U, T, Q),
    )


def _block_radii(blocks: np.ndarray) -> np.ndarray:
    """Largest eigenvalue modulus of each block of an (m, n, n) stack, n = 1 or 2.

    A 2x2 block is first divided by a power of two near its largest entry,
    which is exact, so that its squared trace and determinant cannot overflow.
    """
    if blocks.shape[-1] == 1:
        return np.abs(blocks[:, 0, 0])
    scale = np.ldexp(1.0, np.frexp(np.abs(blocks).max(axis=(1, 2)))[1])
    blocks = blocks / scale[:, None, None]
    tr = blocks[:, 0, 0] + blocks[:, 1, 1]
    det = blocks[:, 0, 0] * blocks[:, 1, 1] - blocks[:, 0, 1] * blocks[:, 1, 0]
    disc = tr * tr - 4.0 * det
    real = 0.5 * (np.abs(tr) + np.sqrt(np.maximum(disc, 0.0)))
    # a complex pair has |lambda|^2 = det
    return scale * np.where(disc <= 0.0, np.sqrt(np.maximum(det, 0.0)), real)


def spectral_radius(T: np.ndarray) -> float:
    """Largest eigenvalue modulus; 2x2 blocks are handled in closed form."""
    T = np.atleast_2d(np.asarray(T, dtype=float))
    n = T.shape[0]
    if T.shape != (n, n):
        raise ValueError("matrix must be square")
    if not np.isfinite(T).all():  # the closed form would return nan
        raise ValueError("matrix must be finite")
    if n <= 2:
        return float(_block_radii(T[None])[0])
    return float(np.max(np.abs(np.linalg.eigvals(T))))


def forward_euler_block(lam: float, alpha: float, gamma: float, h: float) -> np.ndarray:
    """Forward-Euler mean-process block [[1 - alpha lam h, h], [-lam h, 1 - gamma h]]
    for one Hessian eigenvalue lam.

    The one definition of the block: uld_optimal_discount,
    hfhr_demo2_parameters and the first table of ``hfhr spectral`` build
    theirs with it.
    """
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
    if not (0.0 < eps < 1.0 and 1.0 / eps < math.inf):  # 1 / eps is the second eigenvalue
        raise ValueError("eps must lie in (0, 1), with 1 / eps finite")
    h = math.sqrt(2.0 * eps / (1.0 + eps))
    gamma = math.sqrt(2.0 * (1.0 + eps)) / math.sqrt(eps)
    discount = math.sqrt((1.0 - eps) / (1.0 + eps))
    radius = max(
        spectral_radius(forward_euler_block(1.0, 0.0, gamma, h)),
        spectral_radius(forward_euler_block(1.0 / eps, 0.0, gamma, h)),
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
    common radical.  Both defining residuals are checked to 1e-10; where
    rounding breaks them, the parameters are a ValueError.
    """
    if not (0.0 < eps < 1.0 and 1.0 / eps < math.inf):  # 1 / eps is the second eigenvalue
        raise ValueError("eps must lie in (0, 1), with 1 / eps finite")
    require_positive(c=c)
    R = math.sqrt(
        4 * c * c * eps**4 + 8 * c * c * eps**3 + 4 * c * c * eps**2 + eps**2 - 2 * eps + 1
    )
    denom = 2.0 * c * eps * eps + 2.0 * c * eps
    if denom == 0.0:
        raise ValueError("c * eps must not underflow to 0")
    gamma = (R + eps + 3.0) / denom
    alpha = (-R + 3.0 * eps + 1.0) / denom
    h = c * eps
    if alpha <= 0 or gamma <= 0:
        raise ValueError("eps, c outside the admissible range (alpha or gamma <= 0)")
    discount = math.sqrt((1.0 - eps) * (1.0 - eps + R)) / (math.sqrt(2.0) * (1.0 + eps))

    A1 = forward_euler_block(1.0, alpha, gamma, h)
    A2 = forward_euler_block(1.0 / eps, alpha, gamma, h)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
        tr1 = A1[0, 0] + A1[1, 1]
        det_sum = np.linalg.det(A1) + np.linalg.det(A2)
    if not (abs(tr1) <= 1e-10 and abs(det_sum) <= 1e-10):
        raise ValueError("eps, c outside the range where the defining system holds to 1e-10")
    return AcceleratedDiscount(gamma=gamma, alpha=alpha, step=h, discount=discount)


def gaussian_continuous_propagation(
    H: np.ndarray,
    alpha: float,
    gamma: float,
    mean0: np.ndarray,
    cov0: np.ndarray,
    t: Union[float, Sequence[float]],
):
    """Exact law of the continuous dynamics on a quadratic potential.

    With A = [[-alpha H, I], [-H, -gamma I]] and D = diag(2 alpha I, 2 gamma I),
    the mean is e^{At} mean0 and the covariance solves dS/dt = A S + S A^T + D.
    The dynamics leave the target times N(0, I) invariant: S_inf =
    diag(H^{-1}, I) solves A S + S A^T + D = 0 for every alpha and gamma, so
    S(t) = S_inf + e^{At}(cov0 - S_inf)e^{A^T t}, one matrix exponential per
    time.  ``t`` may be a scalar or a nondecreasing sequence; a matching
    GaussianSummary (or list thereof) is returned.  alpha and gamma must be
    finite, alpha >= 0 and gamma > 0, H an n x n matrix that is finite,
    symmetric and positive definite, mean0 a finite 2n-vector, cov0 a
    finite 2n x 2n matrix, and every time finite, or a ValueError names the
    parameter.
    """
    require_nonnegative(alpha=alpha)
    require_positive(gamma=gamma)
    H = _symmetric(H)
    if np.linalg.eigvalsh(0.5 * (H + H.T)).min() <= 0:
        raise ValueError("H must be symmetric positive definite")
    n = H.shape[0]
    mean0, cov0 = np.asarray(mean0, dtype=float), np.asarray(cov0, dtype=float)
    for name, value, shape in (("mean0", mean0, (2 * n,)), ("cov0", cov0, (2 * n, 2 * n))):
        if value.shape != shape or not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, of shape {shape}")
    scalar = np.isscalar(t)
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(np.isfinite(times)):
        raise ValueError("t must be finite")
    if np.any(times < 0) or np.any(np.diff(times) < 0):
        raise ValueError("times must be nonnegative and nondecreasing")
    eye, zeros = np.eye(n), np.zeros((n, n))
    A = np.block([[-alpha * H, eye], [-H, -gamma * eye]])
    s_inf = np.block([[np.linalg.inv(H), zeros], [zeros, eye]])
    out = []
    for t_k in times:
        E = expm(A * t_k)
        cov = s_inf + E @ (cov0 - s_inf) @ E.T if t_k > 0 else cov0
        out.append(GaussianSummary(mean=E @ mean0, cov=0.5 * (cov + cov.T)))
    return out[0] if scalar else out


def discrete_stationary_covariance(step_map: AffineGaussianMap) -> GaussianSummary:
    """Unique fixed point of S = T S T^T + Q, with the mean solving (I - T) m = c.

    A map that carries ``modes`` is solved mode by mode: the radius comes
    from each block's trace and determinant, every block's Stein equation
    S_l = T_l S_l T_l^T + Q_l is one small Kronecker system of a batched
    solve, and S is assembled through the eigenvectors.  A map without modes
    gets a dense eigenvalue radius and a direct discrete Lyapunov solve.
    """
    modal = step_map.modes is not None
    radius = float(_block_radii(step_map.modes[1]).max()) if modal else spectral_radius(step_map.T)
    if not radius < 1.0:  # a nan radius is no stable map either
        raise ValueError(
            f"spectral radius {radius:.6f} >= 1: no stationary distribution"
        )
    if not modal:
        S = solve_discrete_lyapunov(step_map.T, step_map.Q)
        mean = np.linalg.solve(np.eye(step_map.dim) - step_map.T, step_map.c)
        return GaussianSummary(mean=mean, cov=0.5 * (S + S.T))
    U, T, Q = step_map.modes
    d, k = T.shape[0], T.shape[-1]
    stein = np.eye(k * k) - np.einsum("mik,mjl->mijkl", T, T).reshape(d, k * k, k * k)
    S = np.linalg.solve(stein, Q.reshape(d, k * k, 1)).reshape(d, k, k)
    c = (step_map.c.reshape(k, d) @ U).T[..., None]
    mean = U @ np.linalg.solve(np.eye(k) - T, c)[..., 0]
    return GaussianSummary(mean=mean.T.ravel(), cov=_from_modes(U, S))


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
    "forward_euler_block",
    "uld_optimal_discount",
    "hfhr_demo2_parameters",
    "gaussian_continuous_propagation",
    "discrete_stationary_covariance",
]
