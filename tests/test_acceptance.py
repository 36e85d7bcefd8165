"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them
live, or ``-rA`` for the captured output).

Criterion 7's first clause (the 100-dimensional anisotropic Gaussian at
h=0.2, gamma=2*sqrt(L) with alpha=1) is implemented faithfully and is
expected to FAIL: that parameter combination is provably unstable for the
splitting kernel (the position Euler substep multiplies the stiff mode by
1 - alpha*L*h = -19 per step, one-step spectral radius ~20), so the chain
diverges instead of converging.  See the test body for the measured
numbers; every other criterion passes.
"""

import math

import numpy as np
import pytest

from hfhr.analysis import (
    GaussianSummary,
    discrete_stationary_covariance,
    gaussian_continuous_propagation,
    hfhr_demo2_parameters,
    rate_bound_w2,
    spectral_radius,
    step_affine_map,
    theory_constants,
    uld_optimal_discount,
)
from hfhr.harness import sweep_iteration_complexity
from hfhr.metrics import (
    chi2_gaussian_1d,
    empirical_moments,
    loglog_slope,
    w2_gaussian,
)
from hfhr.potentials import builtin_potential
from hfhr.rng import RandomSource
from hfhr.samplers import (
    ChainState,
    SamplerConfig,
    make_stepper,
    phi_covariance,
    phi_half_step,
    phi_kernel,
    psi_tilde_step,
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")


# --------------------------------------------------------------------------
# 1. nilpotent convergence of the forward-Euler mean map at alpha = gamma + 2
def test_criterion_1_nilpotent_convergence():
    model = builtin_potential("quadratic_iso", m=1.0, d=1)
    ok = True
    details = []
    rng = np.random.default_rng(2024)
    for gamma in (1.0, 2.0, 5.0):
        alpha, h = gamma + 2.0, 1.0 / (1.0 + gamma)
        amap = step_affine_map("hfhr_em", [[1.0]], alpha, gamma, h)
        a2 = np.max(np.abs(amap.T @ amap.T))
        ok &= a2 <= 1e-14
        details.append(f"gamma={gamma}: |A^2|={a2:.1e}")
        config = SamplerConfig(kind="hfhr_em", step=h, gamma=gamma, alpha=alpha)
        stepper = make_stepper(model, config)

        class _Zero:
            def normals(self, shape):
                return np.zeros(shape)

        for _ in range(10):
            state = ChainState(q=rng.standard_normal(1), p=rng.standard_normal(1))
            one = stepper(state, _Zero())
            two = stepper(one, _Zero())
            n1 = math.hypot(one.q[0], one.p[0])
            n2 = math.hypot(two.q[0], two.p[0])
            ok &= n2 < 1e-12 and n1 > 1e-12  # exactly two steps, not one
    _report("criterion 1 (nilpotent convergence)", ok, "; ".join(details))
    assert ok


# --------------------------------------------------------------------------
# 2. modulus formula for the 1D forward-Euler map on a 10x10x10 grid
def test_criterion_2_demo1_modulus_formula():
    gammas = np.linspace(2.0, 4.0, 10)
    deltas = np.linspace(-1.9, 1.9, 10)  # keeps |alpha - gamma| <= 2
    hs = np.linspace(0.02, 0.35, 10)
    checked, worst = 0, 0.0
    for gamma in gammas:
        for delta in deltas:
            alpha = gamma + delta
            for h in hs:
                radicand = 1.0 - (alpha + gamma) * h + (1.0 + alpha * gamma) * h * h
                if radicand <= 0.0:
                    continue
                amap = step_affine_map("hfhr_em", [[1.0]], alpha, gamma, h)
                err = abs(spectral_radius(amap.T) - math.sqrt(radicand))
                worst = max(worst, err)
                checked += 1
    ok = checked >= 800 and worst <= 1e-12
    _report(
        "criterion 2 (modulus formula)", ok, f"{checked} grid points, max err {worst:.2e}"
    )
    assert ok


# --------------------------------------------------------------------------
# 3. two-scale quadratic: accelerated construction beats the tuned baseline
def test_criterion_3_demo2_comparison():
    ok = True
    gaps = []
    for eps in (0.01, 0.05, 0.1, 0.2, 0.4):
        uld = uld_optimal_discount(eps)
        acc = hfhr_demo2_parameters(eps, 1.0)
        h = acc.step
        blocks_acc = [
            np.array([[1 - acc.alpha * lam * h, h], [-lam * h, 1 - acc.gamma * h]])
            for lam in (1.0, 1.0 / eps)
        ]
        rho_acc = max(spectral_radius(b) for b in blocks_acc)
        blocks_uld = [
            np.array([[1.0, uld.step], [-lam * uld.step, 1 - uld.gamma * uld.step]])
            for lam in (1.0, 1.0 / eps)
        ]
        rho_uld = max(spectral_radius(b) for b in blocks_uld)
        ok &= abs(rho_acc - acc.discount) <= 1e-10
        ok &= abs(rho_uld - uld.discount) <= 1e-10
        ok &= acc.discount < uld.discount
        gaps.append(f"eps={eps}: {acc.discount:.4f} < {uld.discount:.4f}")
    eps, c = 1e-3, 1.0
    acc = hfhr_demo2_parameters(eps, c)
    uld = uld_optimal_discount(eps)
    taylor_acc = 1.0 - 2.0 * eps + (c * c / 2.0 + 2.0) * eps**2
    taylor_uld = 1.0 - eps + 0.5 * eps**2
    ok &= abs(acc.discount - taylor_acc) <= 1e-6
    ok &= abs(uld.discount - taylor_uld) <= 1e-6
    _report("criterion 3 (two-scale discount comparison)", ok, "; ".join(gaps))
    assert ok


# --------------------------------------------------------------------------
# 4. continuous-dynamics W2 bound validity and measured decay rate
def test_criterion_4_w2_bound_validity():
    ok = True
    details = []
    ts = np.linspace(0.0, 5.0, 50)
    for d in (1, 5):
        target = GaussianSummary(np.zeros(2 * d), np.eye(2 * d))
        for alpha in (0.0, 0.5, 1.0):
            bound = rate_bound_w2(alpha, 2.0, 1.0, 1.0)
            sums = gaussian_continuous_propagation(
                np.eye(d), alpha, 2.0, np.ones(2 * d), np.eye(2 * d), ts
            )
            w = np.array([w2_gaussian(s, target) for s in sums])
            envelope = bound.prefactor * np.exp(-bound.rate * ts) * w[0]
            never_violated = bool(np.all(w <= envelope * (1.0 + 1e-9)))
            mask = ts >= 1.0
            fitted = -np.polyfit(ts[mask], np.log(w[mask]), 1)[0]
            ratio = fitted / bound.rate
            ok &= never_violated and 1.0 <= ratio <= 3.0
            if d == 1:
                details.append(f"alpha={alpha}: ratio={ratio:.3f}")
    _report("criterion 4 (W2 bound validity)", ok, "; ".join(details))
    assert ok


# --------------------------------------------------------------------------
# 5a. h-linearity of the stationary bias, sampling-free Lyapunov route
def test_criterion_5_h_linearity_lyapunov():
    hs = [2.0**k for k in range(-7, 1)]
    target = GaussianSummary([0.0], [[1.0]])
    errs = []
    for h in hs:
        amap = step_affine_map("hfhr_strang", [[1.0]], 1.0, 2.0, h)
        stat = discrete_stationary_covariance(amap)
        errs.append(w2_gaussian(stat.marginal([0]), target))
    slope, _, r2 = loglog_slope(hs, errs)
    ok = 0.85 <= slope <= 1.15
    _report(
        "criterion 5a (h-linearity, Lyapunov oracle)", ok, f"slope={slope:.3f}, r2={r2:.4f}"
    )
    assert ok


class _Antithetic:
    """Mirrors the second half of the chain batch; a pure variance-reduction
    device, every chain still runs the unmodified kernel."""

    def __init__(self, rng, half):
        self.rng = rng
        self.half = half

    def normals(self, shape):
        z = self.rng.normals(shape[:-2] + (self.half,) + shape[-1:])
        return np.concatenate([z, -z], axis=-2)


# 5b. the same law measured by simulation on the coupled potential
def test_criterion_5_h_linearity_monte_carlo():
    # the symmetric coupled potential has stationary mean exactly zero for
    # every h (the kernel commutes with the sign flip), so the mean-bias
    # study needs the shifted, asymmetric variant; see the notes ledger
    model = builtin_potential("coupled_logcosh", d=2, shift=1.0)
    target = model.target_mean
    chains, T = 10_000, 50.0
    hs = [2.0**k for k in range(-6, -2)]
    errs = []
    for i, h in enumerate(hs):
        config = SamplerConfig(kind="hfhr_strang", step=h, gamma=2.0, alpha=1.0)
        stepper = make_stepper(model, config)
        rng = _Antithetic(RandomSource(314, i), chains // 2)
        state = ChainState(q=np.zeros((chains, 2)), p=np.zeros((chains, 2)))
        steps = int(round(T / h))
        start = int(round(10.0 / h))
        acc = np.zeros(2)
        count = 0
        for k in range(1, steps + 1):
            state = stepper(state, rng)
            if k > start:
                acc += state.q.mean(axis=0)
                count += 1
        errs.append(float(np.linalg.norm(acc / count - target)))
    slope, _, r2 = loglog_slope(hs, errs)
    ok = 0.8 <= slope <= 1.2
    _report(
        "criterion 5b (h-linearity, Monte Carlo)",
        ok,
        f"slope={slope:.3f}, r2={r2:.4f}, biases={np.round(errs, 5).tolist()}",
    )
    assert ok


# --------------------------------------------------------------------------
# 6. sqrt(d) scaling of the stationary bias on isotropic quadratics
def test_criterion_6_sqrt_d_scaling():
    dims = [1, 2, 5, 10, 20, 50, 100]
    errs = []
    for d in dims:
        amap = step_affine_map("hfhr_strang", np.eye(d), 1.0, 2.0, 0.1)
        stat = discrete_stationary_covariance(amap)
        q_idx = np.arange(d)
        target = GaussianSummary(np.zeros(d), np.eye(d))
        errs.append(w2_gaussian(stat.marginal(q_idx), target))
    slope, _, r2 = loglog_slope(dims, errs)
    ok = 0.4 <= slope <= 0.6
    _report("criterion 6 (sqrt-d scaling)", ok, f"slope={slope:.3f}, r2={r2:.4f}")
    assert ok


# --------------------------------------------------------------------------
# 7 (first clause). f4 acceleration end-to-end -- EXPECTED RED, see module
# docstring: alpha=1 exceeds the splitting kernel's stability range at
# h=0.2, gamma=2 sqrt(L) (stiff-mode one-step radius ~20, blow-up within a
# few hundred steps), so the stated comparison cannot come out true.
def test_criterion_7_f4_acceleration():
    model = builtin_potential("quadratic_aniso", m=1.0, kappa=100.0, d=100)
    L = model.smoothness
    gamma, h, chains = 2.0 * math.sqrt(L), 0.2, 10_000
    target = GaussianSummary(np.zeros(100), np.linalg.inv(model.quadratic_hessian))

    stiff = step_affine_map("hfhr_strang", [[L]], 1.0, gamma, h)
    stiff_radius = spectral_radius(stiff.T)

    def first_hit(kind, alpha, cap=400):
        config = SamplerConfig(kind=kind, step=h, gamma=gamma, alpha=alpha)
        stepper = make_stepper(model, config)
        rng = RandomSource(11, 0)
        state = ChainState(q=np.ones((chains, 100)), p=np.zeros((chains, 100)))
        w0 = math.sqrt(100.0 + float(np.trace(target.cov)))
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, cap + 1):
                state = stepper(state, rng)
                if not np.all(np.isfinite(state.q)):
                    return None, k
                if k % 5 == 0:
                    w = w2_gaussian(empirical_moments(state.q), target)
                    if w <= 0.1 * w0:
                        return k, None
        return None, None

    uld_hit, _ = first_hit("uld_klmc", 0.0)
    hfhr_hit, blow_step = first_hit("hfhr_strang", 1.0)
    ok = hfhr_hit is not None and uld_hit is not None and hfhr_hit < uld_hit
    _report(
        "criterion 7a (f4 acceleration, alpha=1)",
        ok,
        f"uld hit step {uld_hit}; hfhr(alpha=1) "
        + (f"hit step {hfhr_hit}" if hfhr_hit else f"diverged at step {blow_step}")
        + f"; stiff-mode spectral radius {stiff_radius:.2f}",
    )
    assert ok, (
        "hfhr_strang(alpha=1, gamma=2 sqrt(L), h=0.2) on the 100D anisotropic "
        f"Gaussian is unstable: stiff-mode one-step spectral radius "
        f"{stiff_radius:.2f} >> 1 (position substep factor 1 - alpha*L*h = "
        f"{1 - 1.0 * L * h:.0f}), chain diverged at step {blow_step} while the "
        f"baseline reached the threshold at step {uld_hit}. The stated "
        "criterion is unattainable for any kernel in scope; a stable alpha "
        f"needs alpha < {_stable_alpha_bound(L, gamma, h):.4f} here, where the "
        "stiff mode's radius reaches 1."
    )


def _stable_alpha_bound(L, gamma, h):
    """The alpha in [0, 1] where hfhr_strang's stiff-mode radius reaches 1, by bisection."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if spectral_radius(step_affine_map("hfhr_strang", [[L]], mid, gamma, h).T) < 1.0:
            lo = mid
        else:
            hi = mid
    return lo


# 7 (second clause). iteration-complexity sweep: best alpha at most half
# the alpha=0 count.  The 1D unit quadratic saturates at one iteration for
# every alpha (including 0), which degenerates the ratio, so the sweep runs
# on the coupled 10D potential from the experiment protocol it mirrors.
def test_criterion_7_iteration_sweep():
    model = builtin_potential("coupled_logcosh", d=10, shift=1.0)
    table = sweep_iteration_complexity(
        model,
        alphas=[0, 0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50, 100],
        gammas=[0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50, 100],
        steps_grid=[5, 1, 0.5, 0.1, 0.05, 0.01, 0.005],
        eps=0.1,
        chains=10_000,
        seeds=(7, 8, 9),
        cap=500,
    )
    by_alpha = {row.alpha: row for row in table}
    base = by_alpha[0.0].iterations_mean
    best_row = min(table[1:], key=lambda r: r.iterations_mean)
    ok = math.isfinite(base) and best_row.iterations_mean <= 0.5 * base
    _report(
        "criterion 7b (iteration sweep)",
        ok,
        f"alpha=0 mean {base:.1f} iters; best alpha={best_row.alpha} "
        f"mean {best_row.iterations_mean:.1f} (gamma={best_row.best_gamma}, "
        f"h={best_row.best_step})",
    )
    assert ok


# --------------------------------------------------------------------------
# 8. kernel-level oracles
def test_criterion_8_kernel_oracles():
    ok = True
    # noise factor reproduces the covariance on the stated grid
    worst = 0.0
    for gamma in (0.1, 1.0, 10.0, 100.0):
        for t in (1e-4, 1e-3, 1e-2, 0.1, 1.0):
            k = phi_kernel(gamma, t)
            worst = max(worst, float(np.max(np.abs(k.chol @ k.chol.T - k.cov))))
    ok &= worst <= 1e-12

    # composition identity, bit-exact under a shared stream
    model = builtin_potential("quadratic_iso", m=1.0, d=3)
    config = SamplerConfig(kind="hfhr_strang", step=0.3, gamma=2.0, alpha=1.0)
    state = ChainState(q=np.array([0.5, -0.2, 1.0]), p=np.array([0.1, 0.0, -1.0]))
    direct = make_stepper(model, config)(state, RandomSource(5, 0))
    rng = RandomSource(5, 0)
    kern = phi_kernel(2.0, 0.15)
    manual = phi_half_step(
        psi_tilde_step(phi_half_step(state, kern, rng), model, 1.0, 0.3, rng), kern, rng
    )
    ok &= bool(np.array_equal(direct.q, manual.q) and np.array_equal(direct.p, manual.p))

    # one-step moment matching for all four kernels on the unit quadratic
    f1 = builtin_potential("quadratic_iso", m=1.0, d=1)
    n = 10**5
    x0 = np.array([1.0, -0.5])
    fails = []
    for kind, alpha in (("hfhr_strang", 1.0), ("uld_klmc", 0.0), ("ula", 0.0), ("hfhr_em", 0.5)):
        config = SamplerConfig(kind=kind, step=0.1, gamma=2.0, alpha=alpha)
        stepper = make_stepper(f1, config)
        out = stepper(
            ChainState(q=np.full((n, 1), x0[0]), p=np.full((n, 1), x0[1])),
            RandomSource(31, 0),
        )
        amap = step_affine_map(kind, [[1.0]], alpha, 2.0, 0.1)
        if kind == "ula":
            X = out.q
            mean_expect = np.atleast_1d(amap.T @ x0[:1] + amap.c)
        else:
            X = np.concatenate([out.q, out.p], axis=1)
            mean_expect = amap.T @ x0 + amap.c
        emp = empirical_moments(X)
        for i in range(amap.dim):
            se = math.sqrt(amap.Q[i, i] / n)
            if abs(emp.mean[i] - mean_expect[i]) >= 4.0 * se:
                fails.append((kind, "mean", i))
            for j in range(amap.dim):
                se_c = math.sqrt((amap.Q[i, i] * amap.Q[j, j] + amap.Q[i, j] ** 2) / n)
                if abs(emp.cov[i, j] - amap.Q[i, j]) >= 4.0 * se_c:
                    fails.append((kind, "cov", i, j))
    ok &= not fails
    _report(
        "criterion 8 (kernel oracles)",
        ok,
        f"max Cholesky residual {worst:.2e}; moment mismatches: {fails or 'none'}",
    )
    assert ok


# --------------------------------------------------------------------------
# 9. chi-squared decay rate of the simulated dynamics at a tiny step
def test_criterion_9_chi2_decay():
    model = builtin_potential("quadratic_iso", m=1.0, d=1)
    n, h, steps, record = 20_000, 1e-3, 4000, 50
    floor = 2.0 / n
    rates = {}
    for alpha in (0.1, 0.5, 1.0):
        config = SamplerConfig(kind="hfhr_strang", step=h, gamma=2.0, alpha=alpha)
        stepper = make_stepper(model, config)
        rng = RandomSource(42, 0)
        state = ChainState(q=1.0 + rng.normals((n, 1)), p=rng.normals((n, 1)))
        ts, chis = [], []
        for k in range(1, steps + 1):
            state = stepper(state, rng)
            if k % record == 0:
                m_hat = float(state.q.mean())
                s_hat = float(state.q.std(ddof=1))
                ts.append(k * h)
                chis.append(chi2_gaussian_1d(m_hat, s_hat, 0.0, 1.0))
        ts, chis = np.array(ts), np.array(chis)
        mask = chis > 200.0 * floor  # stay above the Monte Carlo floor
        rates[alpha] = -np.polyfit(ts[mask], np.log(chis[mask]), 1)[0]
    ok = all(rates[a] >= 2.0 * min(a, 2.0) * 0.8 for a in (0.5, 1.0))
    ok &= rates[1.0] > rates[0.1]
    _report(
        "criterion 9 (chi2 decay)",
        ok,
        ", ".join(f"alpha={a}: rate {r:.2f}" for a, r in sorted(rates.items())),
    )
    assert ok
