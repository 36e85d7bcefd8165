"""One-step transition kernels and chain simulation.

Four kernels are provided:

``hfhr_strang``
    Symmetric splitting of the accelerated dynamics: an exact
    Ornstein-Uhlenbeck half step, one Euler-Maruyama step of the
    position-dissipation flow, and a second OU half step.  One gradient
    evaluation and 2d + d + 2d normal draws per step, in that order.
``uld_klmc``
    First-order KLMC: the underdamped Langevin update integrated exactly
    over one step with the gradient frozen at the incoming position.
``ula``
    Euler-Maruyama on overdamped Langevin; momentum is carried untouched.
``hfhr_em``
    Plain Euler-Maruyama on the accelerated dynamics (the forward-Euler
    mean process analyzed in the spectral module).

All kernels are pure functions of (state, rng) and broadcast over leading
axes of the state arrays, so a batch of chains steps as one call.
``KERNELS`` maps each kind to the factory of its step, ``make_stepper``
builds that step, and ``iterate_chain`` is the one loop that applies it and
stops a chain that leaves the finite floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .potentials import PotentialModel, finite_number
from .rng import RandomSource


class DivergenceError(RuntimeError):
    """Raised when a chain leaves the finite floats at step ``step``."""

    def __init__(self, step: int):
        super().__init__(f"non-finite state at step {step}")
        self.step = step


@dataclass(frozen=True)
class ChainState:
    """Position/momentum pair, shapes (..., d) each."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        if np.shape(self.q) != np.shape(self.p):
            raise ValueError("q and p must have identical shapes")


@dataclass(frozen=True)
class SamplerConfig:
    """Kernel kind and its parameters; every field rule of a sampler lives here.

    The numeric fields are stored as floats.
    """

    kind: str
    step: float
    gamma: float = 1.0
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {', '.join(KINDS)}")
        for name in ("step", "gamma", "alpha"):
            value = getattr(self, name)
            if not finite_number(value):
                raise ValueError(f"{name} must be a finite number")
            object.__setattr__(self, name, float(value))
        if self.step <= 0:
            raise ValueError("step must be > 0")
        if KERNELS[self.kind] is not _ula and self.gamma <= 0:
            raise ValueError("gamma must be > 0")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")


def phi_covariance(gamma: float, t: float) -> np.ndarray:
    """Per-coordinate 2x2 covariance of the exact OU flow over duration t.

    Returns [[v_qq, v_qp], [v_qp, v_pp]] with
        v_pp = 1 - e^{-2 gamma t},
        v_qp = (1 - e^{-gamma t})^2 / gamma,
        v_qq = (2 gamma t + 4 e^{-gamma t} - e^{-2 gamma t} - 3) / gamma^2.
    """
    if gamma <= 0 or t <= 0:
        raise ValueError("gamma and t must be > 0")
    x = gamma * t
    if x >= 700.0:
        raise ValueError("gamma * t too large for stable exponentials")
    u = math.expm1(-x)  # e^{-x} - 1, no cancellation
    w = math.expm1(-2.0 * x)
    v_pp = -w
    v_qp = u * u / gamma
    if x < 1e-4:
        # the closed form for v_qq cancels to O(x^3); use its expansion
        v_qq = (x**3) * (2.0 / 3.0 - 0.5 * x + (7.0 / 30.0) * x * x) / gamma**2
    else:
        v_qq = (2.0 * x + 4.0 * u - w) / gamma**2
    return np.array([[v_qq, v_qp], [v_qp, v_pp]])


@dataclass(frozen=True)
class PhiFlowKernel:
    """Exact OU substep: drift coefficients plus per-coordinate noise factor.

    ``chol`` is the lower-triangular 2x2 M with M M^T equal to
    phi_covariance(gamma, t) per coordinate.
    """

    gamma: float
    t: float
    drift: float  # (1 - e^{-gamma t}) / gamma
    decay: float  # e^{-gamma t}
    cov: np.ndarray
    chol: np.ndarray


def phi_kernel(gamma: float, t: float) -> PhiFlowKernel:
    cov = phi_covariance(gamma, t)
    m11 = math.sqrt(cov[0, 0])
    m21 = cov[0, 1] / m11
    m22 = math.sqrt(max(cov[1, 1] - m21 * m21, 0.0))
    chol = np.array([[m11, 0.0], [m21, m22]])
    return PhiFlowKernel(
        gamma=gamma,
        t=t,
        drift=-math.expm1(-gamma * t) / gamma,
        decay=math.exp(-gamma * t),
        cov=cov,
        chol=chol,
    )


def _ou(q, p, kernel: PhiFlowKernel, rng):
    z = rng.normals((2,) + np.shape(q))
    m = kernel.chol
    return q + kernel.drift * p + m[0, 0] * z[0], kernel.decay * p + m[1, 0] * z[0] + m[1, 1] * z[1]


def _psi(q, p, g, eta, alpha: float, h: float, noise_scale: float):
    return q - alpha * h * g + noise_scale * eta, p - h * g


def phi_half_step(state: ChainState, kernel: PhiFlowKernel, rng) -> ChainState:
    """Exact-in-distribution OU substep; draws 2 normals per coordinate.

    The noise pairs (q_i, p_i) per coordinate i through the 2x2 factor.
    """
    return ChainState(*_ou(state.q, state.p, kernel, rng))


def psi_tilde_step(
    state: ChainState, model: PotentialModel, alpha: float, h: float, rng
) -> ChainState:
    """One Euler-Maruyama step of the position-dissipation flow.

    The gradient is evaluated once, at the incoming position.  With
    alpha = 0 the position update is exactly the identity.
    """
    if h <= 0:
        raise ValueError("h must be > 0")
    g = model.grad(state.q)
    eta = rng.normals(np.shape(state.q))
    return ChainState(*_psi(state.q, state.p, g, eta, alpha, h, math.sqrt(2.0 * alpha * h)))


def _hfhr_strang(model: PotentialModel, config: SamplerConfig):
    kernel = phi_kernel(config.gamma, 0.5 * config.step)
    alpha, h = config.alpha, config.step
    noise_scale = math.sqrt(2.0 * alpha * h)

    def step(state, rng):
        q, p = _ou(state.q, state.p, kernel, rng)
        # g and eta stay referenced until the step returns: freed before the
        # second OU substep allocates, they leave the heap top free, and glibc
        # trims and re-faults it every step (about 3x the page faults per
        # step at 1000 x 100 chains)
        g = model.grad(q)
        eta = rng.normals(np.shape(q))
        q, p = _psi(q, p, g, eta, alpha, h, noise_scale)
        return ChainState(*_ou(q, p, kernel, rng))

    return step


def _uld_klmc(model: PotentialModel, config: SamplerConfig):
    """First-order KLMC: exact OU transition with the gradient frozen at q0."""
    h = config.step
    kernel = phi_kernel(config.gamma, h)
    c1 = kernel.drift
    c2 = (h - c1) / config.gamma
    m = kernel.chol

    def step(state, rng):
        g = model.grad(state.q)
        z = rng.normals((2,) + np.shape(state.q))
        q = state.q + c1 * state.p - c2 * g + m[0, 0] * z[0]
        p = kernel.decay * state.p - c1 * g + m[1, 0] * z[0] + m[1, 1] * z[1]
        return ChainState(q=q, p=p)

    return step


def _ula(model: PotentialModel, config: SamplerConfig):
    h = config.step
    noise_scale = math.sqrt(2.0 * h)

    def step(state, rng):
        g = model.grad(state.q)
        eta = rng.normals(np.shape(state.q))
        return ChainState(q=state.q - h * g + noise_scale * eta, p=state.p)

    return step


def _hfhr_em(model: PotentialModel, config: SamplerConfig):
    h, alpha, gamma = config.step, config.alpha, config.gamma
    q_scale = math.sqrt(2.0 * alpha * h)
    p_scale = math.sqrt(2.0 * gamma * h)

    def step(state, rng):
        g = model.grad(state.q)
        eta = rng.normals(np.shape(state.q))
        xi = rng.normals(np.shape(state.q))
        q = state.q + (state.p - alpha * g) * h + q_scale * eta
        p = state.p - (gamma * state.p + g) * h + p_scale * xi
        return ChainState(q=q, p=p)

    return step


# kind -> factory that precomputes the kernel's constants once and returns
# its (state, rng) -> state step; every step makes exactly one gradient call
KERNELS = {"hfhr_strang": _hfhr_strang, "uld_klmc": _uld_klmc, "ula": _ula, "hfhr_em": _hfhr_em}
KINDS = tuple(KERNELS)


def make_stepper(
    model: PotentialModel, config: SamplerConfig
) -> Callable[[ChainState, object], ChainState]:
    """Bind model and config into the kind's precomputed (state, rng) -> state step."""
    return KERNELS[config.kind](model, config)


def _single_step(factory):
    def step(state: ChainState, model: PotentialModel, config: SamplerConfig, rng) -> ChainState:
        if KERNELS[config.kind] is not factory:
            raise ValueError(f"kind '{config.kind}' is not the kind of this kernel")
        return factory(model, config)(state, rng)

    return step


hfhr_step = _single_step(_hfhr_strang)
uld_step = _single_step(_uld_klmc)
ula_step = _single_step(_ula)
em_hfhr_step = _single_step(_hfhr_em)


def iterate_chain(state: ChainState, stepper, steps: int, rng) -> Iterator[tuple[int, ChainState]]:
    """Apply ``stepper`` ``steps`` times, yielding (index, state) after each.

    Any non-finite coordinate raises a DivergenceError naming the step;
    stability-limit experiments probe blow-up on purpose.  Blow-up is
    detected here, so numpy's overflow warnings are silenced while the loop
    (the caller's body included) runs.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            state = stepper(state, rng)
            if not (np.all(np.isfinite(state.q)) and np.all(np.isfinite(state.p))):
                raise DivergenceError(k)
            yield k, state


def simulate_chain(
    init: ChainState,
    model: PotentialModel,
    config: SamplerConfig,
    steps: int,
    rng,
    observer: Optional[Callable[[int, ChainState], None]] = None,
) -> ChainState:
    """Apply the configured kernel ``steps`` times.

    The observer is invoked after each step with (index, state); a
    DivergenceError from ``iterate_chain`` propagates.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if np.shape(init.q)[-1] != model.dim:
        raise ValueError("state dimension does not match the potential")
    state = init
    for k, state in iterate_chain(init, make_stepper(model, config), steps, rng):
        if observer is not None:
            observer(k, state)
    return state


__all__ = [
    "KERNELS",
    "KINDS",
    "ChainState",
    "SamplerConfig",
    "PhiFlowKernel",
    "DivergenceError",
    "RandomSource",
    "phi_covariance",
    "phi_kernel",
    "phi_half_step",
    "psi_tilde_step",
    "hfhr_step",
    "uld_step",
    "ula_step",
    "em_hfhr_step",
    "make_stepper",
    "iterate_chain",
    "simulate_chain",
]
