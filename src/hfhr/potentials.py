"""Built-in target potentials with their known analytic constants.

Every evaluation function accepts arrays of shape ``(..., dim)`` and
broadcasts over leading axes, so a single model can drive one chain or a
vectorized batch of chains.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from numbers import Real
from typing import Callable, Optional

import numpy as np


def finite_number(value) -> bool:
    """A finite real number; JSON true/false load as bool, which Python counts as an int."""
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True, eq=False)
class PotentialModel:
    """A target potential f together with whatever constants are known.

    ``smoothness`` is the gradient Lipschitz constant L, ``strong_convexity``
    the lower curvature bound m (0 encodes convex-only, None non-convex),
    ``poincare`` the spectral gap of the target measure exp(-f)/Z, and
    ``third_deriv_growth`` the linear-growth constant G of grad(laplacian f).

    ``quadratic_hessian`` is set only when f is exactly quadratic (then the
    target is the Gaussian N(0, H^-1)); ``target_mean`` is the exact mean of
    the target measure when it is known in closed or quadrature form.
    """

    name: str
    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    smoothness: Optional[float] = None
    strong_convexity: Optional[float] = None
    poincare: Optional[float] = None
    third_deriv_growth: Optional[float] = None
    quadratic_hessian: Optional[np.ndarray] = None
    target_mean: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if (
            self.smoothness is not None
            and self.strong_convexity is not None
            and self.strong_convexity > self.smoothness + 1e-12
        ):
            raise ValueError("strong_convexity must not exceed smoothness")


@dataclass(frozen=True)
class GradientCheckReport:
    passed: bool
    max_rel_error: float
    trials: int
    tol: float


def _quadratic(m: float, kappa: float, d: int) -> PotentialModel:
    # weights follow the shorthand: the last coordinate carries the stiff term
    w = np.full(d, m)
    w[-1] = m * kappa
    name = "quadratic_iso" if kappa == 1.0 else "quadratic_aniso"

    def f(q):
        q = np.asarray(q, dtype=float)
        return 0.5 * np.sum(w * q * q, axis=-1)

    def df(q):
        q = np.asarray(q, dtype=float)
        return w * q

    return PotentialModel(
        name=name,
        dim=d,
        eval=f,
        grad=df,
        smoothness=m * kappa,
        strong_convexity=m,
        poincare=m,
        third_deriv_growth=0.0,
        quadratic_hessian=np.diag(w),
        target_mean=np.zeros(d),
    )


def _quartic() -> PotentialModel:
    def f(q):
        q = np.asarray(q, dtype=float)
        return 0.25 * np.sum(q**4, axis=-1)

    def df(q):
        q = np.asarray(q, dtype=float)
        return q**3

    # grad(lap f) = 6 q, so |grad lap f| <= 6 sqrt(1 + q^2)
    return PotentialModel(
        name="quartic",
        dim=1,
        eval=f,
        grad=df,
        strong_convexity=0.0,
        third_deriv_growth=6.0,
        target_mean=np.zeros(1),
    )


def _perturbed() -> PotentialModel:
    def f(q):
        q = np.asarray(q, dtype=float)
        x = q[..., 0]
        return 0.5 * x * x + 0.1 * np.sin(10.0 * x)

    def df(q):
        q = np.asarray(q, dtype=float)
        x = q[..., 0]
        return (x + np.cos(10.0 * x))[..., None]

    # f'' = 1 - 10 sin(10x) in [-9, 11]; (f')'' = -100 cos(10x) bounded by 100
    return PotentialModel(
        name="perturbed",
        dim=1,
        eval=f,
        grad=df,
        smoothness=11.0,
        third_deriv_growth=100.0,
    )


def _bimodal() -> PotentialModel:
    def f(q):
        q = np.asarray(q, dtype=float)
        x = q[..., 0]
        return 5.0 * (x**4 - 2.0 * x * x)

    def df(q):
        q = np.asarray(q, dtype=float)
        x = q[..., 0]
        return (20.0 * x**3 - 20.0 * x)[..., None]

    return PotentialModel(
        name="bimodal",
        dim=1,
        eval=f,
        grad=df,
        third_deriv_growth=120.0,
        target_mean=np.zeros(1),  # symmetric double well
    )


def _rosenbrock2d() -> PotentialModel:
    # natural minimizer stays at (1, 1); non-convex, no global constants
    def f(q):
        q = np.asarray(q, dtype=float)
        x, y = q[..., 0], q[..., 1]
        return 0.5 * ((x - 1.0) ** 2 + 10.0 * (y - x * x) ** 2)

    def df(q):
        q = np.asarray(q, dtype=float)
        x, y = q[..., 0], q[..., 1]
        gx = (x - 1.0) - 20.0 * x * (y - x * x)
        gy = 10.0 * (y - x * x)
        return np.stack([gx, gy], axis=-1)

    return PotentialModel(name="rosenbrock2d", dim=2, eval=f, grad=df)


def _logcosh(u):
    u = np.asarray(u, dtype=float)
    return np.abs(u) + np.log1p(np.exp(-2.0 * np.abs(u))) - math.log(2.0)


def _coupled_logcosh(d: int, shift: float = 0.0) -> PotentialModel:
    """Strongly convex potential coupling all coordinates.

    f(q) = 0.5 ||q + q0||^2 + logcosh(<e, q + q0> - shift) - const, where
    e = 1/sqrt(d) and q0 translates the global minimizer to the origin.
    The Hessian is I + sech^2 * e e^T, so m = 1 and L = 2 for any shift.
    A nonzero shift breaks the q -> -q symmetry, which gives the target
    measure a nonzero mean (needed to observe mean bias at all).
    """
    e = np.full(d, 1.0 / math.sqrt(d))

    # component of the minimizer along e: the root of t + tanh(t - shift).
    # Newton, whose derivative 1 + sech^2 = 2 - tanh^2 lies in [1, 2], until
    # the iterate stops moving; the plain fixed-point map stalls where sech^2
    # is near 1, that is at small shifts
    t = 0.0
    for _ in range(100):
        th = math.tanh(t - shift)
        t_new = t - (t + th) / (2.0 - th * th)
        if t_new == t:
            break
        t = t_new
    q0 = t * e
    f0 = 0.5 * t * t + float(_logcosh(t - shift))

    def f(q):
        q = np.asarray(q, dtype=float)
        y = q + q0
        u = y @ e
        return 0.5 * np.sum(y * y, axis=-1) + _logcosh(u - shift) - f0

    def df(q):
        q = np.asarray(q, dtype=float)
        y = q + q0
        u = y @ e
        return y + np.tanh(u - shift)[..., None] * e

    # exact target mean by 1D quadrature: only the e-component is non-Gaussian.
    # The weight is analytic and decays like a Gaussian, so the trapezoid rule
    # on even nodes converges geometrically; 561 nodes reach round-off.
    v = np.linspace(-14.0, 14.0, 561)
    weight = np.exp(-0.5 * v * v - _logcosh(v - shift))
    mean = (np.trapezoid(v * weight, v) / np.trapezoid(weight, v) - t) * e

    return PotentialModel(
        name="coupled_logcosh",
        dim=d,
        eval=f,
        grad=df,
        smoothness=2.0,
        strong_convexity=1.0,
        poincare=1.0,
        third_deriv_growth=1.0,
        target_mean=mean,
    )


# name -> (factory, parameters in order with their defaults); None marks a
# required parameter
POTENTIALS = {
    "quadratic_iso": (functools.partial(_quadratic, kappa=1.0), {"m": 1.0, "d": 1}),
    "quadratic_aniso": (_quadratic, {"m": None, "kappa": None, "d": None}),
    "quartic": (_quartic, {}),
    "perturbed": (_perturbed, {}),
    "bimodal": (_bimodal, {}),
    "rosenbrock2d": (_rosenbrock2d, {}),
    "coupled_logcosh": (_coupled_logcosh, {"d": None, "shift": 0.0}),
}
POTENTIAL_PARAMS = {name: tuple(params) for name, (_, params) in POTENTIALS.items()}
VALID_POTENTIALS = tuple(POTENTIALS)

# parameter -> (type it is passed as, rules checked in order after
# finite_number); every potential that takes the parameter shares them
PARAM_RULES = {
    "m": (float, ((lambda v: v > 0, "must be > 0"),)),
    "kappa": (float, ((lambda v: v >= 1, "must be >= 1"),)),
    # numpy cannot even ask for an array longer than sys.maxsize
    "d": (int, ((lambda v: int(v) == v, "must be an integer"), (lambda v: v >= 1, "must be >= 1"),
                (lambda v: v <= sys.maxsize, "is too large"))),
    # past |shift| ~ 745 every quadrature weight of the target mean
    # underflows to 0 and the mean is 0/0; at 700 it is still finite
    "shift": (float, ((lambda v: abs(v) <= 700, "must be within [-700, 700]"),)),
}


def builtin_potential(name: str, **params) -> PotentialModel:
    """Construct one of the built-in target potentials.

    ``POTENTIALS`` lists each name's parameters and defaults and
    ``PARAM_RULES`` the rules of each parameter; a violation raises a
    ValueError whose message starts with the parameter's name, which callers
    may prefix with a path.
    """
    if name not in VALID_POTENTIALS:
        raise ValueError(
            f"unknown potential '{name}'; valid names: {', '.join(VALID_POTENTIALS)}"
        )
    factory, defaults = POTENTIALS[name]
    unexpected = sorted(set(params) - set(defaults))
    if unexpected:
        raise ValueError(f"unexpected parameters for '{name}': {', '.join(unexpected)}")
    args = {}
    for key, default in defaults.items():
        value = params.get(key, default)
        if value is None:
            raise ValueError(f"{key} is required by '{name}'")
        cast, rules = PARAM_RULES[key]
        for rule, message in ((finite_number, "must be a number"),) + rules:
            if not rule(value):
                raise ValueError(f"{key} {message}")
        args[key] = cast(value)
    return factory(**args)


def _central_differences(f: Callable, x: np.ndarray, h: float) -> np.ndarray:
    """(f(x + s e_i) - f(x - s e_i)) / (2 s) with s = h max(1, |x_i|), stacked
    on a last axis over the coordinates i.

    The one central-difference loop: gradient_check takes it of ``eval``,
    numerical_hessian of ``grad`` (column i of the Hessian).
    """
    columns = []
    for i in range(x.size):
        step = h * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += step
        xm[i] -= step
        columns.append((f(xp) - f(xm)) / (2.0 * step))
    return np.stack(columns, axis=-1)


def gradient_check(
    model: PotentialModel, trials: int, tol: float, seed: int = 0
) -> GradientCheckReport:
    """Compare analytic gradients with central finite differences of ``eval``.

    Uses step 1e-5 scaled by coordinate magnitude (``_central_differences``)
    at ``trials`` standard normal points; never raises, the report carries
    the verdict.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(model.dim)
        g = np.asarray(model.grad(x), dtype=float)
        fd = _central_differences(model.eval, x, 1e-5)
        err = np.linalg.norm(fd - g) / max(1.0, np.linalg.norm(g))
        worst = max(worst, float(err))
    return GradientCheckReport(
        passed=worst <= tol, max_rel_error=worst, trials=trials, tol=tol
    )


def numerical_hessian(model: PotentialModel, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Dense Hessian from central differences (``_central_differences``) of the analytic gradient."""
    H = _central_differences(model.grad, np.asarray(x, dtype=float), h)
    return 0.5 * (H + H.T)
