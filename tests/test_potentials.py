import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hfhr
from hfhr.potentials import (
    POTENTIALS,
    PotentialModel,
    builtin_potential,
    gradient_check,
    numerical_hessian,
)


def test_quadratic_aniso_constants():
    model = builtin_potential("quadratic_aniso", m=1.0, kappa=100.0, d=100)
    assert model.dim == 100
    assert model.smoothness == 100.0
    assert model.strong_convexity == 1.0
    # stiff coordinate is the last one
    x = np.zeros(100)
    x[-1] = 1.0
    assert model.eval(x) == pytest.approx(50.0)
    x2 = np.zeros(100)
    x2[0] = 1.0
    assert model.eval(x2) == pytest.approx(0.5)


def test_quadratic_iso_values():
    model = builtin_potential("quadratic_iso", m=1.0, d=1)
    assert model.eval(np.array([0.0])) == 0.0
    assert model.grad(np.array([0.0])) == 0.0
    assert model.eval(np.array([2.0])) == pytest.approx(2.0)


def test_coupled_logcosh_value_and_hessian_spectrum():
    model = builtin_potential("coupled_logcosh", d=10)
    assert model.eval(np.zeros(10)) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(0)
    for _ in range(3):
        H = numerical_hessian(model, rng.standard_normal(10))
        eigs = np.linalg.eigvalsh(H)
        assert eigs.min() >= 1.0 - 1e-4
        assert eigs.max() <= 2.0 + 1e-4


def test_coupled_logcosh_actually_couples():
    model = builtin_potential("coupled_logcosh", d=4)
    H = numerical_hessian(model, np.full(4, 0.3))
    off = H - np.diag(np.diag(H))
    assert np.max(np.abs(off)) > 1e-3


def test_coupled_logcosh_shift_keeps_minimum_at_origin():
    model = builtin_potential("coupled_logcosh", d=3, shift=1.0)
    assert np.linalg.norm(model.grad(np.zeros(3))) < 1e-12
    assert model.eval(np.zeros(3)) == pytest.approx(0.0, abs=1e-12)
    # shifted variant has a nonzero target mean, unshifted one has zero
    assert np.linalg.norm(model.target_mean) > 1e-3
    sym = builtin_potential("coupled_logcosh", d=3)
    assert np.linalg.norm(sym.target_mean) < 1e-9


@pytest.mark.parametrize("shift", [0.01, 0.1, 0.5, 1.0, 3.0, -2.5])
def test_coupled_logcosh_minimizer_sits_at_the_origin_for_any_shift(shift):
    # small shifts put sech^2 near 1, where a fixed-point solve stalls
    model = builtin_potential("coupled_logcosh", d=1, shift=shift)
    assert abs(model.grad(np.zeros(1))[0]) <= 1e-15


def test_unknown_name_and_bad_params():
    with pytest.raises(ValueError, match="unknown potential"):
        builtin_potential("nope")
    with pytest.raises(ValueError, match="kappa"):
        builtin_potential("quadratic_aniso", m=1.0, kappa=0.5, d=2)
    with pytest.raises(ValueError, match="m must be > 0"):
        builtin_potential("quadratic_aniso", m=-1.0, kappa=2.0, d=2)
    with pytest.raises(ValueError, match="d must be >= 1"):
        builtin_potential("coupled_logcosh", d=0)
    with pytest.raises(ValueError, match="unexpected parameters"):
        builtin_potential("quartic", d=3)


def test_gradient_check_passes_builtins():
    report = gradient_check(builtin_potential("quadratic_iso", m=1.0, d=1), 10, 1e-5)
    assert report.passed and report.max_rel_error < 1e-7
    report = gradient_check(builtin_potential("rosenbrock2d"), 100, 1e-4)
    assert report.passed


def test_gradient_check_catches_wrong_sign():
    base = builtin_potential("quadratic_iso", m=1.0, d=1)
    bad = PotentialModel(
        name="bad",
        dim=1,
        eval=base.eval,
        grad=lambda q: -base.grad(q),
        smoothness=1.0,
        strong_convexity=1.0,
    )
    report = gradient_check(bad, 10, 1e-4)
    assert not report.passed


@pytest.mark.parametrize(
    "name,params",
    [
        ("quadratic_iso", {"m": 1.0, "d": 3}),
        ("quadratic_aniso", {"m": 0.1, "kappa": 10.0, "d": 2}),
        ("quartic", {}),
        ("perturbed", {}),
        ("bimodal", {}),
        ("rosenbrock2d", {}),
        ("coupled_logcosh", {"d": 5}),
    ],
)
def test_gradients_match_finite_differences(name, params):
    model = builtin_potential(name, **params)
    report = gradient_check(model, 50, 1e-4, seed=1)
    assert report.passed, f"{name}: max rel err {report.max_rel_error}"


@pytest.mark.parametrize("name", sorted(POTENTIALS))
def test_gradient_is_a_new_array(name):
    # a group steps its state in place, which needs a gradient that shares
    # no memory with the positions it is handed
    required = {"m": 1.0, "kappa": 4.0, "d": 3}
    _, defaults = POTENTIALS[name]
    model = builtin_potential(name, **{k: required[k] if v is None else v for k, v in defaults.items()})
    q = np.random.default_rng(0).standard_normal((5, model.dim))
    assert not np.shares_memory(model.grad(q), q)


def _random_pairs(dim, n, seed, scale=2.0):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((n, dim)), scale * rng.standard_normal((n, dim))


@pytest.mark.parametrize(
    "name,params",
    [
        ("quadratic_iso", {"m": 2.0, "d": 4}),
        ("quadratic_aniso", {"m": 0.1, "kappa": 10.0, "d": 2}),
        ("coupled_logcosh", {"d": 6}),
        ("coupled_logcosh", {"d": 3, "shift": 1.0}),
    ],
)
def test_strong_convexity_monotonicity(name, params):
    model = builtin_potential(name, **params)
    m = model.strong_convexity
    xs, ys = _random_pairs(model.dim, 1000, seed=7)
    gap = np.einsum("ij,ij->i", model.grad(ys) - model.grad(xs), ys - xs)
    sq = np.sum((ys - xs) ** 2, axis=1)
    assert np.all(gap >= m * sq - 1e-9 * sq)


@pytest.mark.parametrize(
    "name,params",
    [
        ("quadratic_iso", {"m": 1.0, "d": 3}),
        ("quadratic_aniso", {"m": 10.0, "kappa": 10.0, "d": 2}),
        ("perturbed", {}),
        ("coupled_logcosh", {"d": 4}),
    ],
)
def test_lipschitz_gradient(name, params):
    model = builtin_potential(name, **params)
    L = model.smoothness
    xs, ys = _random_pairs(model.dim, 1000, seed=11)
    num = np.linalg.norm(model.grad(ys) - model.grad(xs), axis=1)
    den = np.linalg.norm(ys - xs, axis=1)
    assert np.all(num <= L * den * (1 + 1e-9))


def test_invariant_strong_convexity_le_smoothness():
    with pytest.raises(ValueError):
        PotentialModel(
            name="x",
            dim=1,
            eval=lambda q: q[..., 0],
            grad=lambda q: q,
            smoothness=1.0,
            strong_convexity=2.0,
        )


def test_vectorized_eval_and_grad():
    model = builtin_potential("coupled_logcosh", d=3)
    batch = np.random.default_rng(2).standard_normal((8, 3))
    vals = model.eval(batch)
    grads = model.grad(batch)
    assert vals.shape == (8,)
    assert grads.shape == (8, 3)
    for i in range(8):
        assert vals[i] == pytest.approx(float(model.eval(batch[i])))
        np.testing.assert_allclose(grads[i], model.grad(batch[i]), rtol=1e-12)


@pytest.mark.parametrize("shift", [0.0, 1.0, 3.0, -2.5])
def test_coupled_logcosh_mean_matches_adaptive_quadrature(shift):
    from scipy.integrate import quad
    from scipy.optimize import brentq

    d = 10
    # the minimizer's component along e solves t = -tanh(t - shift)
    t = brentq(lambda x: x + math.tanh(x - shift), -1.0, 1.0, xtol=1e-16)

    def weight(v):
        return math.exp(-0.5 * v * v - math.log(math.cosh(v - shift)))

    z, _ = quad(weight, -14.0, 14.0, limit=200)
    ev, _ = quad(lambda v: v * weight(v), -14.0, 14.0, limit=200)
    expected = (ev / z - t) * np.full(d, 1.0 / math.sqrt(d))
    mean = builtin_potential("coupled_logcosh", d=d, shift=shift).target_mean
    assert np.max(np.abs(mean - expected)) <= 1e-13


def test_import_loads_neither_optimize_nor_integrate():
    src = str(Path(hfhr.__file__).resolve().parent.parent)
    code = (
        "import sys, hfhr, hfhr.cli; hfhr.analysis.optimal_alpha(1.0, 1.0, 2.0); "
        "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.strip() == "[]"
