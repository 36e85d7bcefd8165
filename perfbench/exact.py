"""Exact laws, rebuilt apart from the program, that the benchmark checks against.

Nothing here imports ``hfhr.samplers`` or ``hfhr.analysis``. Each kernel is
rebuilt from its update rule as written in the README; the
Ornstein-Uhlenbeck parts come from ``scipy.linalg.expm`` through Van Loan's
block exponential (Van Loan 1978, "Computing integrals involving the matrix
exponential").
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

KINDS = ("hfhr_strang", "uld_klmc", "ula", "hfhr_em")


def van_loan(A: np.ndarray, D: np.ndarray, t: float):
    """Return (e^{At}, int_0^t e^{As} D e^{A^T s} ds) from one block exponential."""
    n = A.shape[0]
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = -A
    M[:n, n:] = D
    M[n:, n:] = A.T
    E = expm(M * t)
    F = E[n:, n:].T
    Q = F @ E[:n, n:]
    return F, 0.5 * (Q + Q.T)


def _ou(gamma: float, t: float, n: int):
    """Exact flow of dq = p dt, dp = -gamma p dt + sqrt(2 gamma) dW over time t."""
    eye, zero = np.eye(n), np.zeros((n, n))
    A = np.block([[zero, eye], [zero, -gamma * eye]])
    D = np.block([[zero, zero], [zero, 2.0 * gamma * eye]])
    return van_loan(A, D, t)


def kernel_map(kind: str, H, alpha: float, gamma: float, h: float):
    """One step of ``kind`` on f(q) = q^T H q / 2 as x -> T x + N(0, Q), x = (q, p).

    ``ula`` carries the momentum unchanged, so its p-block is the identity.
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    n = H.shape[0]
    eye, zero = np.eye(n), np.zeros((n, n))
    if kind == "hfhr_strang":
        # OU half step, Euler-Maruyama position-dissipation step, OU half step
        Tphi, Qphi = _ou(gamma, 0.5 * h, n)
        Tpsi = np.block([[eye - alpha * h * H, zero], [-h * H, eye]])
        Qpsi = np.block([[2.0 * alpha * h * eye, zero], [zero, zero]])
        T = Tphi @ Tpsi @ Tphi
        Q = Tphi @ (Tpsi @ Qphi @ Tpsi.T + Qpsi) @ Tphi.T + Qphi
    elif kind == "uld_klmc":
        # underdamped Langevin over h with the force g = H q0 frozen: carry g
        # as a constant third block and integrate the augmented linear SDE
        A = np.block(
            [[zero, eye, zero], [zero, -gamma * eye, -eye], [zero, zero, zero]]
        )
        D = np.zeros((3 * n, 3 * n))
        D[n : 2 * n, n : 2 * n] = 2.0 * gamma * eye
        F, Qa = van_loan(A, D, h)
        T = F[: 2 * n, : 2 * n] + F[: 2 * n, 2 * n :] @ np.hstack([H, zero])
        Q = Qa[: 2 * n, : 2 * n]
    elif kind == "ula":
        T = np.block([[eye - h * H, zero], [zero, eye]])
        Q = np.block([[2.0 * h * eye, zero], [zero, zero]])
    elif kind == "hfhr_em":
        T = np.block([[eye - alpha * h * H, h * eye], [-h * H, (1.0 - gamma * h) * eye]])
        Q = np.block([[2.0 * alpha * h * eye, zero], [zero, 2.0 * gamma * h * eye]])
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return T, 0.5 * (Q + Q.T)


def continuous_law(H, alpha: float, gamma: float, mean0, cov0, t: float):
    """Mean and covariance at time t of the continuous accelerated dynamics."""
    H = np.atleast_2d(np.asarray(H, dtype=float))
    n = H.shape[0]
    eye, zero = np.eye(n), np.zeros((n, n))
    A = np.block([[-alpha * H, eye], [-H, -gamma * eye]])
    D = np.block([[2.0 * alpha * eye, zero], [zero, 2.0 * gamma * eye]])
    F, Q = van_loan(A, D, t)
    cov = F @ np.asarray(cov0, dtype=float) @ F.T + Q
    return F @ np.asarray(mean0, dtype=float), 0.5 * (cov + cov.T)


def position_law(kind, lam, alpha, gamma, h, q0, p0, steps):
    """Exact mean and variance of one coordinate's position after 0..steps steps.

    The coordinate has curvature ``lam`` and starts at the point (q0, p0).
    Returns two arrays of length steps + 1.
    """
    T, Q = kernel_map(kind, [[lam]], alpha, gamma, h)
    m = np.array([q0, p0], dtype=float)
    S = np.zeros((2, 2))
    means = np.empty(steps + 1)
    variances = np.empty(steps + 1)
    for k in range(steps + 1):
        means[k], variances[k] = m[0], S[0, 0]
        m = T @ m
        S = T @ S @ T.T + Q
    return means, np.maximum(variances, 0.0)


def w2_statistic_draws(mean_q, var_q, target_var, n: int, draws: int, rng):
    """Draws of the reported W2 statistic under the exact law of the chains.

    The program scores the empirical mean and unbiased covariance of ``n``
    i.i.d. chains against N(0, diag(target_var)). Under the exact law the
    coordinates are independent Gaussians with per-record means ``mean_q``
    and variances ``var_q`` (shape (records, d)), so the empirical mean is
    N(m, S/n) and (n - 1) times the empirical covariance is Wishart(S, n - 1),
    drawn here by Bartlett's decomposition. Returns shape (records, draws).
    """
    mean_q = np.atleast_2d(np.asarray(mean_q, dtype=float))
    var_q = np.atleast_2d(np.asarray(var_q, dtype=float))
    target_var = np.asarray(target_var, dtype=float)
    records, d = mean_q.shape
    sd = np.sqrt(var_q)
    if d == 1:
        m_hat = mean_q + sd * rng.standard_normal((records, draws)) / math.sqrt(n)
        s_hat = sd * np.sqrt(rng.chisquare(n - 1, (records, draws)) / (n - 1))
        return np.sqrt(m_hat**2 + (s_hat - math.sqrt(target_var[0])) ** 2)
    root_t = np.sqrt(target_var)
    below = np.tril_indices(d, -1)
    out = np.empty((records, draws))
    for r in range(records):
        for j in range(draws):
            L = np.zeros((d, d))
            L[np.diag_indices(d)] = np.sqrt(rng.chisquare(n - 1 - np.arange(d)))
            L[below] = rng.standard_normal(len(below[0]))
            cov = (sd[r][:, None] * (L @ L.T) * sd[r][None, :]) / (n - 1)
            m_hat = mean_q[r] + sd[r] * rng.standard_normal(d) / math.sqrt(n)
            cross = np.linalg.eigvalsh(root_t[:, None] * cov * root_t[None, :])
            gap = (
                float(m_hat @ m_hat)
                + float(np.trace(cov))
                + float(target_var.sum())
                - 2.0 * float(np.sqrt(np.clip(cross, 0.0, None)).sum())
            )
            out[r, j] = math.sqrt(max(gap, 0.0))
    return out


def strang_first_hit(grad, target, q0, chains, d, alpha, gamma, h, eps, cap, seed):
    """First step at which the splitting chain's mean comes within eps of target.

    Replays the ``hfhr_strang`` kernel from its definition on the noise
    stream ``(seed, 0)`` with its documented draw order (2d, d, 2d normals
    per step). Returns None when the chain diverges or misses within cap.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(0,))
    gen = np.random.Generator(np.random.PCG64(ss))
    F, Q = _ou(gamma, 0.5 * h, 1)
    M = np.linalg.cholesky(Q)
    q = np.full((chains, d), float(q0))
    p = np.zeros((chains, d))

    def half(q, p):
        z = gen.standard_normal((2, chains, d))
        return (
            q + F[0, 1] * p + M[0, 0] * z[0],
            F[1, 1] * p + M[1, 0] * z[0] + M[1, 1] * z[1],
        )

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, cap + 1):
            q, p = half(q, p)
            g = grad(q)
            eta = gen.standard_normal((chains, d))
            q, p = q - alpha * h * g + math.sqrt(2.0 * alpha * h) * eta, p - h * g
            q, p = half(q, p)
            if not np.all(np.isfinite(q)):
                return None
            if np.linalg.norm(q.mean(axis=0) - target) <= eps:
                return k
    return None
