import math

import numpy as np
import pytest

from hfhr.analysis import (
    GaussianSummary,
    discrete_stationary_covariance,
    spectral_radius,
    step_affine_map,
)
from hfhr.potentials import builtin_potential
from hfhr.rng import RandomSource, ZeroNoise
from hfhr import samplers
from hfhr.samplers import (
    KERNELS,
    KINDS,
    ChainState,
    DivergenceError,
    SamplerConfig,
    iterate_chain,
    make_stepper,
    phi_covariance,
    phi_half_step,
    phi_kernel,
    psi_tilde_step,
    simulate_chain,
)

F1 = builtin_potential("quadratic_iso", m=1.0, d=1)


def ou_moment_oracle(gamma, t, dt=1e-5):
    """Euler integration of the second-moment ODE of the OU substep.

    Independent of the closed forms: propagates d/dt Sigma = A Sigma +
    Sigma A^T + D for A = [[0, 1], [0, -gamma]], D = diag(0, 2 gamma).
    """
    A = np.array([[0.0, 1.0], [0.0, -gamma]])
    D = np.array([[0.0, 0.0], [0.0, 2.0 * gamma]])
    S = np.zeros((2, 2))
    n = int(round(t / dt))
    for _ in range(n):
        S = S + dt * (A @ S + S @ A.T + D)
    return S


class TestPhiCovariance:
    def test_closed_form_values(self):
        cov = phi_covariance(2.0, 0.5)
        assert cov[1, 1] == pytest.approx(1.0 - math.exp(-2.0), abs=1e-12)
        assert cov[0, 1] == pytest.approx((1.0 - math.exp(-1.0)) ** 2 / 2.0, abs=1e-12)
        assert cov[1, 1] == pytest.approx(0.864665, abs=1e-6)
        assert cov[0, 1] == pytest.approx(0.199788, abs=5e-6)

    def test_against_moment_ode_oracle(self):
        for gamma, t in ((2.0, 0.5), (1.0, 0.25)):
            oracle = ou_moment_oracle(gamma, t)
            np.testing.assert_allclose(phi_covariance(gamma, t), oracle, atol=3e-4)

    def test_short_time_diffusion_limit(self):
        t = 1e-9
        cov = phi_covariance(1.0, t)
        assert cov[1, 1] / (2.0 * t) == pytest.approx(1.0, rel=1e-6)
        assert abs(cov).max() < 1e-8
        # leading order of the position variance is (2/3) gamma t^3
        assert cov[0, 0] == pytest.approx((2.0 / 3.0) * t**3, rel=1e-6)

    def test_taylor_branch_matches_closed_form_at_crossover(self):
        # just below the switch the Taylor series is active; the closed form
        # is still accurate there, so the two must agree tightly
        for gamma in (0.5, 3.0):
            t = 0.99e-4 / gamma
            x = gamma * t
            u, w = math.expm1(-x), math.expm1(-2.0 * x)
            closed = (2.0 * x + 4.0 * u - w) / gamma**2
            got = phi_covariance(gamma, t)
            assert got[0, 0] == pytest.approx(closed, rel=1e-6)
            assert got[0, 1] == pytest.approx(u * u / gamma, rel=1e-12)
            assert got[1, 1] == pytest.approx(-w, rel=1e-12)

    def test_cholesky_reproduces_covariance(self):
        for gamma in (0.1, 1.0, 10.0, 100.0):
            for t in (1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0):
                k = phi_kernel(gamma, t)
                resid = np.max(np.abs(k.chol @ k.chol.T - k.cov))
                assert resid <= 1e-12, (gamma, t, resid)

    def test_psd(self):
        for gamma in (0.1, 2.0, 50.0):
            for t in (1e-6, 1e-3, 1.0):
                eigs = np.linalg.eigvalsh(phi_covariance(gamma, t))
                assert eigs.min() >= -1e-18

    @pytest.mark.parametrize("gamma, t", [(1e-200, 0.1), (1e-320, 0.05), (1.0, 1e-110), (1e200, 1e-201), (1e-200, 1e199)])
    def test_a_gamma_squared_beyond_the_floats_gives_a_kernel(self, gamma, t):
        # gamma**2 underflows or overflows; v_qq is gamma t^3 (2/3 - x/2 + ...)
        # below x = gamma t = 1e-4, and under- or overflows only as itself
        x = gamma * t
        k = phi_kernel(gamma, t)
        if x < 1e-4:
            assert k.cov[0, 0] == pytest.approx(gamma * t**3 * (2.0 / 3.0 - 0.5 * x), rel=1e-9, abs=1e-320)
        assert k.cov[1, 1] == pytest.approx(-math.expm1(-2.0 * x), rel=1e-12)
        assert k.chol[1, 0] ** 2 + k.chol[1, 1] ** 2 == pytest.approx(k.cov[1, 1], rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            phi_covariance(0.0, 1.0)
        with pytest.raises(ValueError):
            phi_covariance(1.0, -1.0)
        with pytest.raises(ValueError):
            phi_covariance(1000.0, 1.0)


class TestPhiHalfStep:
    def test_origin_fixed_point_of_drift(self):
        k = phi_kernel(3.0, 0.2)
        out = phi_half_step(ChainState(q=np.zeros(2), p=np.zeros(2)), k, ZeroNoise())
        assert np.all(out.q == 0) and np.all(out.p == 0)

    def test_drift_values(self):
        k = phi_kernel(2.0, 0.5)
        out = phi_half_step(ChainState(q=np.ones(1), p=np.ones(1)), k, ZeroNoise())
        assert out.q[0] == pytest.approx(1.0 + (1.0 - math.exp(-1.0)) / 2.0, abs=1e-12)
        assert out.p[0] == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert out.q[0] == pytest.approx(1.316060, abs=1e-6)
        assert out.p[0] == pytest.approx(0.367879, abs=1e-6)

    def test_empirical_moments_match_closed_form(self):
        gamma, t, n = 2.0, 0.5, 10**5
        k = phi_kernel(gamma, t)
        rng = RandomSource(123, 0)
        state = ChainState(q=np.zeros(n), p=np.zeros(n))
        out = phi_half_step(state, k, rng)
        X = np.stack([out.q, out.p], axis=1)
        emp = X.T @ X / n
        # each covariance entry within 4 standard errors of the exact value
        for i in range(2):
            for j in range(2):
                se = math.sqrt((k.cov[i, i] * k.cov[j, j] + k.cov[i, j] ** 2) / n)
                assert abs(emp[i, j] - k.cov[i, j]) < 4.0 * se
        assert abs(out.q.mean()) < 4.0 * math.sqrt(k.cov[0, 0] / n)
        assert abs(out.p.mean()) < 4.0 * math.sqrt(k.cov[1, 1] / n)

    def test_chi_squared_goodness_at_1e5(self):
        # standardized draws must behave as iid N(0, 1): two-sided test at
        # the 0.1% level on the summed squares
        gamma, t, n = 1.5, 0.3, 10**5
        k = phi_kernel(gamma, t)
        rng = RandomSource(7, 0)
        out = phi_half_step(ChainState(q=np.zeros(n), p=np.zeros(n)), k, rng)
        X = np.stack([out.q, out.p], axis=1)
        Z = np.linalg.solve(k.chol, X.T)
        stat = float(np.sum(Z**2))
        dof = 2 * n
        # normal approximation of the chi2(dof) 0.05% / 99.95% quantiles
        z = 3.2905
        lo = dof + z * math.sqrt(2 * dof) * -1.0
        hi = dof + z * math.sqrt(2 * dof)
        assert lo < stat < hi
        assert abs(Z.mean()) < 4.0 / math.sqrt(dof)


class TestPsiTildeStep:
    def test_alpha_zero_is_identity_on_q(self):
        rng = RandomSource(5, 0)
        state = ChainState(q=np.array([1.3, -0.2]), p=np.array([0.1, 0.4]))
        model = builtin_potential("quadratic_iso", m=1.0, d=2)
        out = psi_tilde_step(state, model, 0.0, 0.1, rng)
        np.testing.assert_array_equal(out.q, state.q)
        np.testing.assert_allclose(out.p, state.p - 0.1 * state.q, rtol=1e-15)

    def test_drift_values(self):
        out = psi_tilde_step(
            ChainState(q=np.array([2.0]), p=np.array([0.0])), F1, 1.0, 0.1, ZeroNoise()
        )
        assert out.q[0] == pytest.approx(1.8, abs=1e-15)
        assert out.p[0] == pytest.approx(-0.2, abs=1e-15)

    def test_constant_potential_is_pure_diffusion(self):
        flat = builtin_potential("quadratic_iso", m=1.0, d=3)
        # zero-gradient stand-in with the same shape conventions
        from hfhr.potentials import PotentialModel

        const = PotentialModel(
            name="flat", dim=3, eval=lambda q: np.zeros(np.shape(q)[:-1]),
            grad=lambda q: np.zeros(np.shape(q)),
        )
        rng = RandomSource(9, 0)
        n = 200000
        state = ChainState(q=np.zeros((n, 3)), p=np.ones((n, 3)))
        out = psi_tilde_step(state, const, 0.5, 0.2, rng)
        np.testing.assert_array_equal(out.p, state.p)
        var = out.q.var()
        expected = 2.0 * 0.5 * 0.2
        assert var == pytest.approx(expected, rel=0.02)
        del flat


class TestHfhrStep:
    def test_composition_identity_bit_exact(self):
        config = SamplerConfig(kind="hfhr_strang", step=0.5, gamma=2.0, alpha=1.0)
        state = ChainState(q=np.array([0.3, -1.0]), p=np.array([0.2, 0.7]))
        model = builtin_potential("quadratic_iso", m=1.0, d=2)
        out = make_stepper(model, config)(state, RandomSource(42, 0))
        k = phi_kernel(2.0, 0.25)
        rng2 = RandomSource(42, 0)
        s = phi_half_step(state, k, rng2)
        s = psi_tilde_step(s, model, 1.0, 0.5, rng2)
        s = phi_half_step(s, k, rng2)
        np.testing.assert_array_equal(out.q, s.q)
        np.testing.assert_array_equal(out.p, s.p)

    def test_flat_alpha0_is_two_phi_drifts(self):
        from hfhr.potentials import PotentialModel

        const = PotentialModel(
            name="flat", dim=1, eval=lambda q: np.zeros(np.shape(q)[:-1]),
            grad=lambda q: np.zeros(np.shape(q)),
        )
        config = SamplerConfig(kind="hfhr_strang", step=0.4, gamma=3.0, alpha=0.0)
        state = ChainState(q=np.array([1.0]), p=np.array([2.0]))
        out = make_stepper(const, config)(state, ZeroNoise())
        k = phi_kernel(3.0, 0.2)
        expect = phi_half_step(phi_half_step(state, k, ZeroNoise()), k, ZeroNoise())
        np.testing.assert_allclose(out.q, expect.q, rtol=1e-15)
        np.testing.assert_allclose(out.p, expect.p, rtol=1e-15)
        # and the p-decay over the full step is e^{-gamma h}
        assert out.p[0] == pytest.approx(2.0 * math.exp(-3.0 * 0.4), rel=1e-12)

    def test_one_step_moments_match_affine_map(self):
        gamma, alpha, h, n = 2.0, 1.0, 0.1, 10**5
        config = SamplerConfig(kind="hfhr_strang", step=h, gamma=gamma, alpha=alpha)
        amap = step_affine_map("hfhr_strang", [[1.0]], alpha, gamma, h)
        rng = RandomSource(77, 0)
        x0 = np.array([1.0, -0.5])
        state = ChainState(q=np.full((n, 1), x0[0]), p=np.full((n, 1), x0[1]))
        out = make_stepper(F1, config)(state, rng)
        _assert_affine_gaussian_moments(out, amap, x0, n)


def _assert_affine_gaussian_moments(out, amap, x0, n):
    X = np.stack([out.q[:, 0], out.p[:, 0]], axis=1)
    mean_expect = amap.T @ x0 + amap.c
    emp_mean = X.mean(axis=0)
    C = np.cov(X, rowvar=False)
    for i in range(2):
        se = math.sqrt(amap.Q[i, i] / n)
        assert abs(emp_mean[i] - mean_expect[i]) < 4.0 * se, i
    for i in range(2):
        for j in range(2):
            se = math.sqrt((amap.Q[i, i] * amap.Q[j, j] + amap.Q[i, j] ** 2) / n)
            assert abs(C[i, j] - amap.Q[i, j]) < 4.0 * se, (i, j)


class TestUldStep:
    def test_zero_gradient_reduces_to_exact_ou(self):
        from hfhr.potentials import PotentialModel

        const = PotentialModel(
            name="flat", dim=1, eval=lambda q: np.zeros(np.shape(q)[:-1]),
            grad=lambda q: np.zeros(np.shape(q)),
        )
        config = SamplerConfig(kind="uld_klmc", step=0.3, gamma=2.0)
        n = 10**5
        rng = RandomSource(3, 0)
        out = make_stepper(const, config)(ChainState(q=np.zeros((n, 1)), p=np.zeros((n, 1))), rng)
        cov = phi_covariance(2.0, 0.3)
        X = np.stack([out.q[:, 0], out.p[:, 0]], axis=1)
        emp = X.T @ X / n
        for i in range(2):
            for j in range(2):
                se = math.sqrt((cov[i, i] * cov[j, j] + cov[i, j] ** 2) / n)
                assert abs(emp[i, j] - cov[i, j]) < 4.0 * se

    def test_zero_noise_deterministic_image(self):
        # frozen-gradient formulas evaluated independently
        gamma, h = 2.0, 0.1
        q0, p0, g = 1.0, 0.0, 1.0  # grad of f1 at q=1
        c1 = (1.0 - math.exp(-gamma * h)) / gamma
        c2 = (h - c1) / gamma
        expect_q = q0 + c1 * p0 - c2 * g
        expect_p = math.exp(-gamma * h) * p0 - c1 * g
        config = SamplerConfig(kind="uld_klmc", step=h, gamma=gamma)
        out = make_stepper(F1, config)(ChainState(q=np.array([q0]), p=np.array([p0])), ZeroNoise())
        assert out.q[0] == pytest.approx(expect_q, abs=1e-14)
        assert out.p[0] == pytest.approx(expect_p, abs=1e-14)

    @pytest.mark.parametrize("gamma", [1e-6, 1e-200, 1e-320])
    def test_zero_noise_image_at_small_gamma_is_the_frictionless_step(self, gamma):
        # (h - c1) / gamma cancels as gamma h -> 0 (to 0 below gamma h ~ 1e-16);
        # the limit is q + h p - h^2 / 2 g, p - h g
        h, q0, p0 = 0.1, 1.0, 0.5
        out = make_stepper(F1, SamplerConfig("uld_klmc", h, gamma))(ChainState(q=np.array([q0]), p=np.array([p0])), ZeroNoise())
        assert out.q[0] == pytest.approx(q0 + h * p0 - 0.5 * h * h * q0, rel=1e-6)
        assert out.p[0] == pytest.approx(p0 - h * q0, rel=1e-6)

    def test_stationary_covariance_first_order_in_h(self):
        target = np.eye(2)
        errs = []
        for h in (0.1, 0.05):
            amap = step_affine_map("uld_klmc", [[1.0]], 0.0, 2.0, h)
            st = discrete_stationary_covariance(amap)
            errs.append(np.max(np.abs(st.cov - target)))
        assert 1.5 < errs[0] / errs[1] < 2.5

    def test_moments_match_affine_map(self):
        gamma, h, n = 2.0, 0.2, 10**5
        config = SamplerConfig(kind="uld_klmc", step=h, gamma=gamma)
        amap = step_affine_map("uld_klmc", [[1.0]], 0.0, gamma, h)
        x0 = np.array([0.7, 0.3])
        out = make_stepper(F1, config)(
            ChainState(q=np.full((n, 1), x0[0]), p=np.full((n, 1), x0[1])),
            RandomSource(11, 0),
        )
        _assert_affine_gaussian_moments(out, amap, x0, n)


class TestUlaStep:
    def test_flat_random_walk(self):
        from hfhr.potentials import PotentialModel

        const = PotentialModel(
            name="flat", dim=1, eval=lambda q: np.zeros(np.shape(q)[:-1]),
            grad=lambda q: np.zeros(np.shape(q)),
        )
        config = SamplerConfig(kind="ula", step=0.25)
        n = 10**5
        out = make_stepper(const, config)(ChainState(q=np.zeros((n, 1)), p=np.zeros((n, 1))), RandomSource(1, 0))
        assert out.q.var() == pytest.approx(2.0 * 0.25, rel=0.02)

    def test_contraction_factor(self):
        config = SamplerConfig(kind="ula", step=0.5)
        out = make_stepper(F1, config)(ChainState(q=np.array([1.0]), p=np.array([0.0])), ZeroNoise())
        assert out.q[0] == pytest.approx(0.5, abs=1e-15)
        assert out.p[0] == 0.0

    def test_stationary_variance_fixed_point(self):
        h = 0.1
        amap = step_affine_map("ula", [[1.0]], 0.0, 0.0, h)
        st = discrete_stationary_covariance(amap)
        assert st.cov[0, 0] == pytest.approx(1.0 / (1.0 - h / 2.0), abs=1e-10)

    def test_moments_match_affine_map(self):
        h, n = 0.1, 10**5
        config = SamplerConfig(kind="ula", step=h)
        amap = step_affine_map("ula", [[1.0]], 0.0, 0.0, h)
        out = make_stepper(F1, config)(ChainState(q=np.full((n, 1), 2.0), p=np.zeros((n, 1))), RandomSource(13, 0))
        mean_expect = amap.T[0, 0] * 2.0
        se_m = math.sqrt(amap.Q[0, 0] / n)
        assert abs(out.q.mean() - mean_expect) < 4.0 * se_m
        se_v = amap.Q[0, 0] * math.sqrt(2.0 / n)
        assert abs(out.q.var(ddof=1) - amap.Q[0, 0]) < 4.0 * se_v


class TestEmHfhrStep:
    def test_mean_map_matches_displayed_matrix(self):
        alpha, gamma, h = 0.7, 1.3, 0.2
        A = np.array([[1 - alpha * h, h], [-h, 1 - gamma * h]])
        x0 = np.array([0.4, -1.1])
        config = SamplerConfig(kind="hfhr_em", step=h, gamma=gamma, alpha=alpha)
        out = make_stepper(F1, config)(ChainState(q=x0[:1], p=x0[1:]), ZeroNoise())
        np.testing.assert_allclose(np.array([out.q[0], out.p[0]]), A @ x0, atol=1e-15)

    def test_two_steps_annihilate_with_alpha_gamma_plus_two(self):
        gamma = 2.0
        alpha, h = gamma + 2.0, 1.0 / (1.0 + gamma)
        config = SamplerConfig(kind="hfhr_em", step=h, gamma=gamma, alpha=alpha)
        state = ChainState(q=np.array([0.83]), p=np.array([-2.4]))
        step = make_stepper(F1, config)
        for _ in range(2):
            state = step(state, ZeroNoise())
        assert abs(state.q[0]) < 1e-14 and abs(state.p[0]) < 1e-14

    def test_nilpotent_alpha0_gamma2_h1(self):
        config = SamplerConfig(kind="hfhr_em", step=1.0, gamma=2.0, alpha=0.0)
        state = ChainState(q=np.array([1.0]), p=np.array([0.0]))
        step = make_stepper(F1, config)
        state = step(state, ZeroNoise())
        assert (state.q[0], state.p[0]) == (1.0, -1.0)
        state = step(state, ZeroNoise())
        assert (state.q[0], state.p[0]) == (0.0, 0.0)

    def test_moments_match_affine_map(self):
        alpha, gamma, h, n = 0.5, 2.0, 0.1, 10**5
        config = SamplerConfig(kind="hfhr_em", step=h, gamma=gamma, alpha=alpha)
        amap = step_affine_map("hfhr_em", [[1.0]], alpha, gamma, h)
        x0 = np.array([1.0, 0.0])
        out = make_stepper(F1, config)(
            ChainState(q=np.full((n, 1), x0[0]), p=np.full((n, 1), x0[1])),
            RandomSource(17, 0),
        )
        _assert_affine_gaussian_moments(out, amap, x0, n)


class TestSimulateChain:
    def test_zero_steps_returns_init(self):
        init = ChainState(q=np.array([1.0]), p=np.array([2.0]))
        config = SamplerConfig(kind="ula", step=0.1)
        out = simulate_chain(init, F1, config, 0, RandomSource(0, 0))
        assert out is init

    def test_determinism(self):
        config = SamplerConfig(kind="hfhr_strang", step=0.1, gamma=2.0, alpha=1.0)
        init = ChainState(q=np.array([1.0]), p=np.array([0.0]))
        tr1, tr2 = [], []
        simulate_chain(init, F1, config, 50, RandomSource(99, 0), lambda k, s: tr1.append(s.q[0]))
        simulate_chain(init, F1, config, 50, RandomSource(99, 0), lambda k, s: tr2.append(s.q[0]))
        assert tr1 == tr2

    def test_divergence_error_names_step(self):
        # spectral radius of the strang map far above one: blow-up expected
        config = SamplerConfig(kind="hfhr_strang", step=4.0, gamma=2.0, alpha=1.0)
        amap = step_affine_map("hfhr_strang", [[1.0]], 1.0, 2.0, 4.0)
        assert spectral_radius(amap.T) > 1.0
        init = ChainState(q=np.array([1.0]), p=np.array([0.0]))
        with pytest.raises(DivergenceError, match="step"):
            simulate_chain(init, F1, config, 10000, RandomSource(0, 0))

    def test_observer_sees_every_step(self):
        seen = []
        config = SamplerConfig(kind="uld_klmc", step=0.1, gamma=2.0)
        init = ChainState(q=np.array([1.0]), p=np.array([0.0]))
        simulate_chain(init, F1, config, 7, RandomSource(1, 0), lambda k, s: seen.append(k))
        assert seen == list(range(1, 8))

    def test_gradient_evaluations_one_per_step(self):
        from hfhr.potentials import PotentialModel

        calls = {"n": 0}

        def grad(q):
            calls["n"] += 1
            return q

        model = PotentialModel(name="c", dim=1, eval=lambda q: 0.5 * q[..., 0] ** 2, grad=grad)
        for kind in ("hfhr_strang", "uld_klmc", "ula", "hfhr_em"):
            calls["n"] = 0
            config = SamplerConfig(kind=kind, step=0.05, gamma=2.0, alpha=0.5)
            init = ChainState(q=np.array([1.0]), p=np.array([0.0]))
            simulate_chain(init, model, config, 20, RandomSource(0, 0))
            assert calls["n"] == 20, kind


class TestStepOut:
    """``step(state, rng, out=...)`` writes the bytes of ``step(state, rng)``."""

    @pytest.mark.parametrize("shape", [(6, 3), (2, 6, 3)], ids=["n-d", "B-n-d"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_fresh_given_and_in_place_outputs_are_bit_identical(self, kind, shape):
        model = builtin_potential("quadratic_aniso", m=1.0, kappa=4.0, d=3)
        step = make_stepper(model, SamplerConfig(kind=kind, step=0.1, gamma=2.0, alpha=1.0))
        gen = np.random.default_rng(7)
        q, p = gen.standard_normal(shape), gen.standard_normal(shape)
        state = ChainState(q=q.copy(), p=p.copy())

        class ReadOnlySlab:
            def normals(self, wanted):
                z = RandomSource(5, 0).normals(wanted)
                z.flags.writeable = False
                return z

        fresh = step(state, RandomSource(5, 0))
        given = ChainState(q=np.empty(shape), p=np.empty(shape))
        assert step(state, RandomSource(5, 0), out=given) is given
        read_only = step(state, ReadOnlySlab())
        # the input is untouched whenever it is not ``out``
        assert state.q.tobytes() == q.tobytes() and state.p.tobytes() == p.tobytes()
        in_place = ChainState(q=q.copy(), p=p.copy())
        assert step(in_place, RandomSource(5, 0), out=in_place) is in_place
        for other in (given, read_only, in_place):
            assert other.q.tobytes() == fresh.q.tobytes() and other.p.tobytes() == fresh.p.tobytes()
        assert not (np.shares_memory(fresh.q, state.q) or np.shares_memory(fresh.p, state.p))


class TestRegistry:
    def test_kinds_come_from_the_registry(self):
        assert KINDS == tuple(KERNELS) == ("hfhr_strang", "uld_klmc", "ula", "hfhr_em")

    def test_each_step_draws_one_slab_of_its_kinds_draws(self):
        class Recording:
            def __init__(self):
                self.source, self.shapes = RandomSource(5, 0), []

            def normals(self, shape):
                self.shapes.append(tuple(shape))
                return self.source.normals(shape)

        assert {kind: kernel.draws for kind, kernel in KERNELS.items()} == {
            "hfhr_strang": 5, "uld_klmc": 2, "ula": 1, "hfhr_em": 2,
        }
        model = builtin_potential("quadratic_iso", m=1.0, d=2)
        state = ChainState(q=np.zeros((3, 2)), p=np.zeros((3, 2)))
        for kind in KINDS:
            rng = Recording()
            make_stepper(model, SamplerConfig(kind=kind, step=0.2, gamma=2.0, alpha=0.5))(state, rng)
            assert rng.shapes == [(KERNELS[kind].draws, 3, 2)], kind

    def test_built_step_precomputes_its_kernel(self, monkeypatch):
        calls = {"phi": 0, "states": 0}
        original_kernel, original_state = samplers.phi_kernel, samplers.ChainState

        def counting_kernel(*args):
            calls["phi"] += 1
            return original_kernel(*args)

        class CountingState(original_state):
            def __post_init__(self):
                calls["states"] += 1
                super().__post_init__()

        monkeypatch.setattr(samplers, "phi_kernel", counting_kernel)
        monkeypatch.setattr(samplers, "ChainState", CountingState)
        state = original_state(q=np.array([1.0]), p=np.array([0.0]))
        for kind in ("hfhr_strang", "uld_klmc"):
            calls.update(phi=0, states=0)
            step = make_stepper(F1, SamplerConfig(kind=kind, step=0.1, gamma=2.0, alpha=1.0))
            for _ in range(5):
                state = step(state, RandomSource(0, 0))
            assert calls == {"phi": 1, "states": 5}, kind


class TestIterateChain:
    def test_non_finite_momentum_is_divergence(self):
        def step(state, rng):
            return ChainState(q=state.q, p=state.p * 1e300 * 1e300)

        state = ChainState(q=np.array([1.0]), p=np.array([1.0]))
        with pytest.raises(DivergenceError) as info:
            for _ in iterate_chain(state, step, 10, None):
                pass
        assert info.value.step == 1

    def test_yields_each_step_and_stops_early(self):
        step = make_stepper(F1, SamplerConfig(kind="ula", step=0.1))
        init = ChainState(q=np.array([1.0]), p=np.array([0.0]))
        seen = []
        for k, state in iterate_chain(init, step, 100, RandomSource(0, 0)):
            seen.append(k)
            if k == 3:
                break
        assert seen == [1, 2, 3]
        assert list(iterate_chain(init, step, 0, RandomSource(0, 0))) == []

    @pytest.mark.parametrize("end", ["close", "exhaust"])
    def test_interleaved_chains_ended_in_start_order_keep_the_errstate(self, end):
        step = make_stepper(F1, SamplerConfig(kind="ula", step=0.1))
        init = ChainState(q=np.array([1.0]), p=np.array([0.0]))
        with np.errstate(over="warn", invalid="warn"):
            before = np.geterr()
            chains = [iterate_chain(init, step, 2, RandomSource(0, stream)) for stream in (0, 1)]
            for chain in chains:  # stepped in turn
                next(chain)
            for chain in chains:  # and ended in the order they started
                if end == "close":
                    chain.close()
                else:
                    assert [k for k, _ in chain] == [2]
            assert np.geterr() == before


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(12345, 3).normals(16)
        b = RandomSource(12345, 3).normals(16)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = RandomSource(12345, 0).normals(16)
        b = RandomSource(12345, 1).normals(16)
        assert not np.array_equal(a, b)

    def test_chain_cross_correlation_small(self):
        config = SamplerConfig(kind="hfhr_strang", step=0.1, gamma=2.0, alpha=1.0)
        init = ChainState(q=np.array([1.0]), p=np.array([0.0]))
        traj = []
        for stream in (0, 1):
            qs = []
            simulate_chain(init, F1, config, 10**4, RandomSource(4, stream), lambda k, s: qs.append(s.q[0]))
            traj.append(np.array(qs))
        corr = np.corrcoef(traj[0], traj[1])[0, 1]
        assert abs(corr) < 0.01


class TestSamplerConfigValidation:
    def test_invalid(self):
        with pytest.raises(ValueError):
            SamplerConfig(kind="nope", step=0.1)
        with pytest.raises(ValueError):
            SamplerConfig(kind="ula", step=-0.1)
        with pytest.raises(ValueError):
            SamplerConfig(kind="uld_klmc", step=0.1, gamma=0.0)
        with pytest.raises(ValueError):
            SamplerConfig(kind="hfhr_strang", step=0.1, gamma=1.0, alpha=-1.0)

    def test_non_numeric_and_non_finite_fields(self):
        for bad in ("0.1", None, math.nan, math.inf):
            with pytest.raises(ValueError, match="step must be a finite number"):
                SamplerConfig(kind="ula", step=bad)

    @pytest.mark.parametrize("kind, step, limit", [("uld_klmc", 350.0, 700), ("hfhr_strang", 700.0, 1400)])
    def test_the_exact_ou_flow_needs_gamma_times_its_time_below_700(self, kind, step, limit):
        # gamma = 2 puts gamma t at 700 exactly: t = step for uld_klmc, step / 2 for hfhr_strang
        with pytest.raises(ValueError, match=rf"^gamma \* step must be < {limit} for {kind}'s exact OU flow$"):
            SamplerConfig(kind=kind, step=step, gamma=2.0)
        make_stepper(builtin_potential("quadratic_iso", m=1.0, d=1), SamplerConfig(kind=kind, step=0.999 * step, gamma=2.0))
        for other in ("ula", "hfhr_em"):  # no exponential: a large gamma * step diverges instead
            SamplerConfig(kind=other, step=step, gamma=2.0)

    def test_fields_stored_as_floats(self):
        config = SamplerConfig(kind="hfhr_em", step=1, gamma=2, alpha=0)
        assert all(type(v) is float for v in (config.step, config.gamma, config.alpha))

    def test_ula_ignores_gamma_sign(self):
        assert SamplerConfig(kind="ula", step=0.1, gamma=0.0).gamma == 0.0

    def test_state_shape_mismatch(self):
        with pytest.raises(ValueError):
            ChainState(q=np.zeros(2), p=np.zeros(3))
