"""One-step transition kernels and chain simulation.

Four kernels are provided:

``hfhr_strang``
    Symmetric splitting of the accelerated dynamics: an exact
    Ornstein-Uhlenbeck half step, one Euler-Maruyama step of the
    position-dissipation flow, and a second OU half step.  One gradient
    evaluation and 5 normals per coordinate per step: 2 for the first OU
    half step, 1 for the flow and 2 for the second half step.
``uld_klmc``
    First-order KLMC: the underdamped Langevin update integrated exactly
    over one step with the gradient frozen at the incoming position; 2
    normals per coordinate, the OU pair.
``ula``
    Euler-Maruyama on overdamped Langevin; momentum is carried untouched.
    1 normal per coordinate.
``hfhr_em``
    Plain Euler-Maruyama on the accelerated dynamics (the forward-Euler
    mean process analyzed in the spectral module); 2 normals per
    coordinate, position noise then momentum noise.

A step is ``step(state, rng, out=None)``, and broadcasts over leading axes
of the state arrays, so a batch of chains steps as one call.  It asks
``rng`` for its noise once, as one slab ``rng.normals((draws,) + shape)``
of its kind's ``draws`` normals per coordinate, and reads ``z[0]``,
``z[1]``, ... in the order listed above.  A ``RandomSource`` stream is
flat, so that slab holds the numbers of the separate draws in turn; a
caller that draws ahead may hand the step a prepared slab of that shape
instead, read-only if it likes: no step writes into its noise.

A step writes its result into ``out``, a ``ChainState`` of float64 arrays
of the state's shape, and returns it; with ``out=None`` it writes into two
new arrays and leaves the input as it was.  ``out`` may be the input state
itself, stepped in place: every kernel reads each input array before it
overwrites it.  Any other ``out`` must share no memory with the input.
Stepping in place needs a gradient that returns a new array, as every
built-in potential's does.  Besides the gradient and a new ``out``, a
step allocates one scratch array per call; it keeps no state between
calls, so one step may serve many chains at once.  ``KERNELS`` maps each kind to the factory of
its step and its ``draws``, ``make_stepper`` builds that step, and
``iterate_chain`` is the one loop that applies it and stops a chain that
leaves the finite floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional

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
        if KERNELS[self.kind].factory is not _ula and self.gamma <= 0:
            raise ValueError("gamma must be > 0")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        share = KERNELS[self.kind].ou_share  # phi_kernel's e^{-gamma t} over t = share * step
        if share and not share * self.step > 0:
            raise ValueError(f"step * {share:g} must be > 0 for {self.kind}'s exact OU flow")
        if share and not self.gamma * (share * self.step) < 700.0:
            raise ValueError(f"gamma * step must be < {700.0 / share:g} for {self.kind}'s exact OU flow")


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
        # the closed form for v_qq cancels to O(x^3), and gamma**2 and u * u
        # may underflow: their expansions, x^3 / gamma^2 as gamma t^3 and
        # x^2 / gamma as x t
        v_qq = gamma * t * t * t * (2.0 / 3.0 - 0.5 * x + (7.0 / 30.0) * x * x)
        v_qp = x * t * (1.0 - x + (7.0 / 12.0) * x * x)
    elif 1e-150 < gamma < 1e150:
        v_qq = (2.0 * x + 4.0 * u - w) / gamma**2
    else:  # gamma**2 leaves the floats; v_qq itself under- or overflows
        v_qq = (2.0 * x + 4.0 * u - w) / gamma / gamma
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
    x = gamma * t
    if x >= 1e-4:
        drift = -math.expm1(-x) / gamma
    else:  # as t (1 - e^{-x}) / x, exact to the digits a subnormal gamma lacks
        drift = t * (-math.expm1(-x) / x) if x > 0 else t
    m11 = math.sqrt(cov[0, 0])
    m21 = cov[0, 1] / m11 if m11 > 0 else 0.0  # v_qq underflowed: no q noise to pair with
    m22 = math.sqrt(max(cov[1, 1] - m21 * m21, 0.0))
    chol = np.array([[m11, 0.0], [m21, m22]])
    return PhiFlowKernel(
        gamma=gamma,
        t=t,
        drift=drift,
        decay=math.exp(-x),
        cov=cov,
        chol=chol,
    )


def _targets(state: ChainState, out: Optional[ChainState]) -> tuple:
    """The pair a step writes, ``out`` or two new arrays, and one new scratch array, all of the state's shape."""
    shape = np.shape(state.q)
    if out is None:
        out = ChainState(q=np.empty(shape), p=np.empty(shape))
    return out, np.empty(shape)


def _ou(q, p, kernel: PhiFlowKernel, z, out: ChainState, t) -> ChainState:
    """The OU substep on the normal pair ``z[0]``, ``z[1]`` of each coordinate, into ``out``:
    q + drift p + m00 z0 and decay p + m10 z0 + m11 z1."""
    m = kernel.chol
    out_q, out_p = out.q, out.p
    np.multiply(p, kernel.drift, out=t)
    np.add(q, t, out=out_q)
    np.multiply(z[0], m[0, 0], out=t)
    out_q += t
    np.multiply(p, kernel.decay, out=out_p)
    np.multiply(z[0], m[1, 0], out=t)
    out_p += t
    np.multiply(z[1], m[1, 1], out=t)
    out_p += t
    return out


def _psi(q, p, g, eta, alpha: float, h: float, noise_scale: float, out: ChainState, t) -> ChainState:
    """The flow's Euler step into ``out``: q - alpha h g + noise_scale eta and p - h g."""
    # p first: g is read whole before out.q is written, so the fused step
    # holds even for a gradient that returns a view of out.q
    out_q = out.q
    np.multiply(g, h, out=t)
    np.subtract(p, t, out=out.p)
    np.multiply(g, alpha * h, out=t)
    np.subtract(q, t, out=out_q)
    np.multiply(eta, noise_scale, out=t)
    out_q += t
    return out


def phi_half_step(state: ChainState, kernel: PhiFlowKernel, rng) -> ChainState:
    """Exact-in-distribution OU substep; draws 2 normals per coordinate.

    The noise pairs (q_i, p_i) per coordinate i through the 2x2 factor.
    """
    z = rng.normals((2,) + np.shape(state.q))
    return _ou(state.q, state.p, kernel, z, *_targets(state, None))


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
    return _psi(state.q, state.p, g, eta, alpha, h, math.sqrt(2.0 * alpha * h), *_targets(state, None))


def _hfhr_strang(model: PotentialModel, config: SamplerConfig):
    kernel = phi_kernel(config.gamma, 0.5 * config.step)
    alpha, h = config.alpha, config.step
    noise_scale = math.sqrt(2.0 * alpha * h)

    def step(state, rng, out=None):
        z = rng.normals((5,) + np.shape(state.q))
        out, t = _targets(state, out)
        _ou(state.q, state.p, kernel, z[0:2], out, t)
        g = model.grad(out.q)
        _psi(out.q, out.p, g, z[2], alpha, h, noise_scale, out, t)
        return _ou(out.q, out.p, kernel, z[3:5], out, t)

    return step


def _uld_klmc(model: PotentialModel, config: SamplerConfig):
    """First-order KLMC: exact OU transition with the gradient frozen at q0."""
    h = config.step
    kernel = phi_kernel(config.gamma, h)
    c1 = kernel.drift
    x = config.gamma * h
    # (h - c1) / gamma cancels as x -> 0; below 1e-4 its expansion h^2 (1/2 - x/6 + x^2/24)
    c2 = h * h * (0.5 - x / 6.0 + x * x / 24.0) if x < 1e-4 else (h - c1) / config.gamma
    m = kernel.chol

    def step(state, rng, out=None):
        g = model.grad(state.q)
        z = rng.normals((2,) + np.shape(state.q))
        out, t = _targets(state, out)
        q, p = out.q, out.p
        # q + c1 p - c2 g + m00 z0
        np.multiply(state.p, c1, out=t)
        np.add(state.q, t, out=q)
        np.multiply(g, c2, out=t)
        q -= t
        np.multiply(z[0], m[0, 0], out=t)
        q += t
        # decay p - c1 g + m10 z0 + m11 z1
        np.multiply(state.p, kernel.decay, out=p)
        np.multiply(g, c1, out=t)
        p -= t
        np.multiply(z[0], m[1, 0], out=t)
        p += t
        np.multiply(z[1], m[1, 1], out=t)
        p += t
        return out

    return step


def _ula(model: PotentialModel, config: SamplerConfig):
    h = config.step
    noise_scale = math.sqrt(2.0 * h)

    def step(state, rng, out=None):
        g = model.grad(state.q)
        z = rng.normals((1,) + np.shape(state.q))
        out, t = _targets(state, out)
        q = out.q
        np.multiply(g, h, out=t)
        np.subtract(state.q, t, out=q)
        np.multiply(z[0], noise_scale, out=t)
        q += t
        if out.p is not state.p:
            np.copyto(out.p, state.p)
        return out

    return step


def _hfhr_em(model: PotentialModel, config: SamplerConfig):
    h, alpha, gamma = config.step, config.alpha, config.gamma
    q_scale = math.sqrt(2.0 * alpha * h)
    p_scale = math.sqrt(2.0 * gamma * h)

    def step(state, rng, out=None):
        g = model.grad(state.q)
        z = rng.normals((2,) + np.shape(state.q))
        out, t = _targets(state, out)
        q, p = out.q, out.p
        # q + (p - alpha g) h + q_scale z0
        np.multiply(g, alpha, out=t)
        np.subtract(state.p, t, out=t)
        t *= h
        np.add(state.q, t, out=q)
        np.multiply(z[0], q_scale, out=t)
        q += t
        # p - (gamma p + g) h + p_scale z1
        np.multiply(state.p, gamma, out=t)
        t += g
        t *= h
        np.subtract(state.p, t, out=p)
        np.multiply(z[1], p_scale, out=t)
        p += t
        return out

    return step


class Kernel(NamedTuple):
    """A kind's step factory, the normals per coordinate its step draws, and
    the share of the step each of its exact OU flows spans (0 for none)."""

    factory: Callable
    draws: int
    ou_share: float = 0.0


# kind -> factory that precomputes the kernel's constants once and returns
# its (state, rng, out=None) -> state step, and its draws; every step makes
# exactly one gradient call and one rng.normals((draws,) + shape) call
KERNELS = {
    "hfhr_strang": Kernel(_hfhr_strang, 5, 0.5),
    "uld_klmc": Kernel(_uld_klmc, 2, 1.0),
    "ula": Kernel(_ula, 1),
    "hfhr_em": Kernel(_hfhr_em, 2),
}
KINDS = tuple(KERNELS)


def make_stepper(
    model: PotentialModel, config: SamplerConfig
) -> Callable[[ChainState, object], ChainState]:
    """Bind model and config into the kind's precomputed (state, rng, out=None) -> state step."""
    return KERNELS[config.kind].factory(model, config)


def iterate_chain(state: ChainState, stepper, steps: int, rng) -> Iterator[tuple[int, ChainState]]:
    """Apply ``stepper`` ``steps`` times, yielding (index, state) after each.

    Any non-finite coordinate raises a DivergenceError naming the step;
    stability-limit experiments probe blow-up on purpose.  Blow-up is
    detected here, so numpy's overflow warnings are silenced inside each
    stepper call, and only there: nothing is held across a yield, so chains
    may be interleaved and ended in any order.  A caller whose own
    arithmetic on the states may overflow sets its errstate around its loop.
    """
    for k in range(1, steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):
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

    The observer is invoked after each step with (index, state), with
    numpy's overflow warnings silenced as in the step; a DivergenceError
    from ``iterate_chain`` propagates.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if np.shape(init.q)[-1] != model.dim:
        raise ValueError("state dimension does not match the potential")
    state = init
    with np.errstate(over="ignore", invalid="ignore"):
        for k, state in iterate_chain(init, make_stepper(model, config), steps, rng):
            if observer is not None:
                observer(k, state)
    return state


__all__ = [
    "KERNELS",
    "KINDS",
    "Kernel",
    "ChainState",
    "SamplerConfig",
    "PhiFlowKernel",
    "DivergenceError",
    "RandomSource",
    "phi_covariance",
    "phi_kernel",
    "phi_half_step",
    "psi_tilde_step",
    "make_stepper",
    "iterate_chain",
    "simulate_chain",
]
