import dataclasses
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from hfhr.analysis import (
    AffineGaussianMap,
    GaussianSummary,
    discrete_stationary_covariance,
    discretization_constant_bound,
    gaussian_continuous_propagation,
    hfhr_demo2_parameters,
    iteration_complexity,
    optimal_alpha,
    rate_bound_chi2_convex,
    rate_bound_chi2_poincare,
    rate_bound_w2,
    spectral_radius,
    step_affine_map,
    step_thresholds,
    theory_constants,
    uld_optimal_discount,
    w2_bound_discrete,
)
from hfhr.metrics import w2_gaussian
from hfhr.rng import RandomSource
from hfhr.samplers import ChainState, SamplerConfig, make_stepper
from hfhr.potentials import builtin_potential


KINDS = ("hfhr_strang", "uld_klmc", "ula", "hfhr_em")


def _random_hessian(rng, spectrum):
    """Symmetric H with the given eigenvalues in a random orthonormal basis."""
    d = len(spectrum)
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    H = (basis * spectrum) @ basis.T
    return 0.5 * (H + H.T)


def _mp_stationary_cov(kind, H, alpha, gamma, h, digits=40):
    """Stationary covariance of one kernel step on H, from the dense map written
    in mpmath and its Stein equation solved as a Kronecker system."""
    import mpmath as mp

    with mp.workdps(digits):
        n = len(H)
        Hm = mp.matrix([[mp.mpf(float(x)) for x in row] for row in H])
        a, g, h = mp.mpf(alpha), mp.mpf(gamma), mp.mpf(h)
        eye, zero = mp.eye(n), mp.zeros(n, n)

        def block(qq, qp, pq, pp):
            out = mp.zeros(2 * n, 2 * n)
            for i, j in itertools.product(range(n), repeat=2):
                out[i, j], out[i, n + j] = qq[i, j], qp[i, j]
                out[n + i, j], out[n + i, n + j] = pq[i, j], pp[i, j]
            return out

        def ou(t):
            e, e2 = mp.exp(-g * t), mp.exp(-2 * g * t)
            v_qq = (2 * g * t + 4 * (e - 1) - (e2 - 1)) / g**2
            v_qp = (1 - e) ** 2 / g
            return block(eye, (1 - e) / g * eye, zero, e * eye), block(
                v_qq * eye, v_qp * eye, v_qp * eye, (1 - e2) * eye
            )

        if kind == "ula":
            T, Q = eye - h * Hm, 2 * h * eye
        elif kind == "hfhr_em":
            T = block(eye - a * h * Hm, h * eye, -h * Hm, (1 - g * h) * eye)
            Q = block(2 * a * h * eye, zero, zero, 2 * g * h * eye)
        elif kind == "uld_klmc":
            c1 = (1 - mp.exp(-g * h)) / g
            c2 = (h - c1) / g
            T, Q = block(eye - c2 * Hm, c1 * eye, -c1 * Hm, mp.exp(-g * h) * eye), ou(h)[1]
        else:
            Tphi, Qphi = ou(h / 2)
            Tpsi = block(eye - a * h * Hm, zero, -h * Hm, eye)
            T = Tphi * Tpsi * Tphi
            Q = Tphi * (Tpsi * Qphi * Tpsi.T + block(2 * a * h * eye, zero, zero, zero)) * Tphi.T + Qphi
        k = T.rows
        stein = mp.eye(k * k)
        for i, j, p, q in itertools.product(range(k), repeat=4):
            stein[i * k + j, p * k + q] -= T[i, p] * T[j, q]
        S = mp.lu_solve(stein, mp.matrix([Q[i, j] for i, j in itertools.product(range(k), repeat=2)]))
        return np.array([[float(S[i * k + j]) for j in range(k)] for i in range(k)])


class TestTheoryConstants:
    def test_lambda_prime_example(self):
        c = theory_constants(1.0, 1.0, 1.0, 2.0)
        assert c.lambda_prime == pytest.approx(1.5, abs=1e-15)

    def test_kappa_prime_alpha0_gamma2(self):
        c = theory_constants(1.0, 1.0, 0.0, 2.0)
        # sigma^2 = 3 +- sqrt(5): ratio is the squared golden ratio
        assert c.sigma_max**2 == pytest.approx(3.0 + math.sqrt(5.0), abs=1e-12)
        assert c.sigma_min**2 == pytest.approx(3.0 - math.sqrt(5.0), abs=1e-12)
        assert c.kappa_prime == pytest.approx(2.618, abs=1e-3)

    def test_kappa_prime_vs_singular_values_of_transform(self):
        # independent route: singular values of [[gamma, 1], [0, sqrt(1+a g)]]
        for alpha, gamma in ((0.0, 2.0), (1.0, 2.0), (0.5, 3.0), (2.0, 5.0)):
            P = np.array([[gamma, 1.0], [0.0, math.sqrt(1.0 + alpha * gamma)]])
            s = np.linalg.svd(P, compute_uv=False)
            c = theory_constants(1.0, 1.0, alpha, gamma)
            assert c.sigma_max == pytest.approx(s.max(), rel=1e-12)
            assert c.sigma_min == pytest.approx(s.min(), rel=1e-12)
            assert c.kappa_prime >= 1.0

    def test_lambda_prime_vanishes_as_gamma_grows(self):
        vals = [theory_constants(1.0, 1.0, 0.0, g).lambda_prime for g in (10.0, 100.0, 1000.0)]
        assert vals[0] > vals[1] > vals[2] > 0
        assert vals[2] == pytest.approx(1e-3, rel=1e-2)

    def test_no_contraction_flagged_not_fatal(self):
        c = theory_constants(4.0, 1.0, 0.0, 1.0)
        assert c.lambda_prime <= 0
        assert not c.contraction_available

    def test_invalid(self):
        with pytest.raises(ValueError):
            theory_constants(1.0, 2.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            theory_constants(1.0, 0.5, 0.0, 0.0)

    @pytest.mark.parametrize("gamma", [1e8, 1e10, 1e20, 1e70])
    def test_sigma_min_does_not_cancel_at_large_gamma(self, gamma):
        # sqrt(base - root / 2) gave 0 (a ZeroDivisionError in kappa') from
        # gamma = 1e10; sigma_max sigma_min = gamma sqrt(1 + alpha gamma)
        c = theory_constants(1.0, 1.0, 0.0, gamma)
        assert c.sigma_min == pytest.approx(1.0, rel=1e-12)
        assert c.kappa_prime == pytest.approx(gamma, rel=1e-12)

    @pytest.mark.parametrize(
        "params, name",
        [
            ({"alpha": 1.0, "gamma": 1e200}, "gamma"),  # gamma**4 raised OverflowError
            ({"alpha": 1e200, "gamma": 1.0}, "alpha"),
            ({"alpha": 1e150, "gamma": 1e60}, "alpha"),  # inf - inf: NaN constants
            ({"alpha": 1.0, "gamma": 1e-320}, "gamma"),  # m / gamma overflows
            ({"L": 1e308, "m": 1e308, "alpha": 10.0}, "L"),  # L' overflows
        ],
    )
    def test_a_parameter_taking_a_constant_beyond_the_floats_is_named(self, params, name):
        params = {"L": 1.0, "m": 1.0, "alpha": 1.0, "gamma": 2.0, **params}
        with pytest.raises(ValueError, match=f"^{name} = .* is out of range: a constant leaves the floats$"):
            theory_constants(**params)

    # a bool passed math.isfinite as 0 or 1; the package's other modules rejected it already
    @pytest.mark.parametrize("name", ["L", "m", "alpha", "gamma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, True])
    def test_a_non_finite_parameter_is_named(self, name, value):
        params = {"L": 4.0, "m": 1.0, "alpha": 1.0, "gamma": 2.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be a finite number$"):
            theory_constants(**params)

    # the message was "require gamma > 0 and alpha >= 0" for either
    @pytest.mark.parametrize("name, value, message", [
        ("gamma", 0.0, "gamma must be > 0"), ("gamma", -2.0, "gamma must be > 0"), ("alpha", -1.0, "alpha must be >= 0"),
    ])
    def test_a_parameter_out_of_range_is_named(self, name, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            theory_constants(**{"L": 4.0, "m": 1.0, "alpha": 1.0, "gamma": 2.0, name: value})


class TestRateBounds:
    def test_poincare_examples(self):
        assert rate_bound_chi2_poincare(1.0, 2.0, 1.0) == pytest.approx(2.0)
        assert rate_bound_chi2_poincare(5.0, 2.0, 1.0) == pytest.approx(4.0)
        assert rate_bound_chi2_poincare(0.1, 2.0, 1.0) == pytest.approx(0.2)
        with pytest.raises(ValueError):
            rate_bound_chi2_poincare(0.0, 2.0, 1.0)

    def test_convex_examples(self):
        assert rate_bound_chi2_convex(0.0, 2.0, 1.0).rate == pytest.approx(0.25)
        b = rate_bound_chi2_convex(1.0, 2.0, 1.0, smoothness=1.0)
        assert b.rate == pytest.approx(0.3125)
        assert b.alpha_ok  # alpha <= gamma/lambda - 2/gamma = 1, met with equality
        assert b.gamma_ok
        assert rate_bound_chi2_convex(1.0, 2.0, 0.0).rate == 0.0
        assert not rate_bound_chi2_convex(1.1, 2.0, 1.0).alpha_ok

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_parameter_is_named(self, value):
        for name in ("alpha", "gamma", "lambda_pi"):
            params = {"alpha": 1.0, "gamma": 2.0, "lambda_pi": 1.0, name: value}
            with pytest.raises(ValueError, match=f"^{name} must be a finite number$"):
                rate_bound_chi2_poincare(**params)
            with pytest.raises(ValueError, match=f"^{name} must be a finite number$"):
                rate_bound_chi2_convex(**params)

    # the message was "require gamma > 0, alpha >= 0, lambda_pi >= 0" for each
    @pytest.mark.parametrize("name, value, message", [
        ("gamma", 0.0, "gamma must be > 0"), ("alpha", -1.0, "alpha must be >= 0"),
        ("lambda_pi", -1.0, "lambda_pi must be >= 0"),
    ])
    def test_the_convex_bound_names_a_parameter_out_of_range(self, name, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            rate_bound_chi2_convex(**{"alpha": 1.0, "gamma": 2.0, "lambda_pi": 1.0, name: value})

    def test_w2_examples(self):
        for L in (1.0, 4.0, 25.0):
            m = 1.0
            bound = rate_bound_w2(0.0, 2.0 * math.sqrt(L), m, L)
            kappa = L / m
            assert bound.rate == pytest.approx(math.sqrt(m) / (2.0 * math.sqrt(kappa)), rel=1e-12)
        assert rate_bound_w2(1.0, 2.0, 1.0, 1.0).rate == pytest.approx(1.5)
        tiny = rate_bound_w2(0.5, 2.0, 1e-9, 1.0).rate
        assert tiny < 1e-8

    def test_w2_assumption_flags(self):
        b = rate_bound_w2(0.5, 2.0, 1.0, 1.0)
        assert b.gamma_ok  # 4 > 2
        assert b.alpha_ok  # 0.5 <= (4-2)/2 = 1
        assert not rate_bound_w2(2.0, 2.0, 1.0, 1.0).alpha_ok


class TestDiscreteBounds:
    def test_w2_bound_limits(self):
        # k -> infinity leaves only the discretization floor
        val = w2_bound_discrete(1.0, 2.0, 1.0, 1.0, h=0.01, k=10**7, w2_init=5.0, C=3.0)
        assert val == pytest.approx(math.sqrt(2.0) * 3.0 * 0.01, rel=1e-9)
        # h -> 0 at fixed kh = T leaves the decay term
        kp = theory_constants(1.0, 1.0, 1.0, 2.0).kappa_prime
        T = 2.0
        val = w2_bound_discrete(1.0, 2.0, 1.0, 1.0, h=1e-9, k=int(T / 1e-9), w2_init=5.0, C=3.0)
        assert val == pytest.approx(math.sqrt(2.0) * kp * math.exp(-1.5 * T) * 5.0, rel=1e-6)

    def test_alpha_strictly_tightens_bound(self):
        for k in (1, 10, 100):
            b0 = w2_bound_discrete(0.0, 2.0, 1.0, 1.0, h=0.01, k=k, w2_init=5.0, C=3.0)
            b1 = w2_bound_discrete(1.0, 2.0, 1.0, 1.0, h=0.01, k=k, w2_init=5.0, C=3.0)
            assert b1 < b0

    def test_iteration_complexity_high_accuracy_branch(self):
        alpha, gamma, m, C, h0, kp, w2 = 1.0, 2.0, 1.0, 3.0, 0.5, 2.0, 5.0
        eps = 1e-3
        assert eps < 2.0 * math.sqrt(2.0) * C * h0
        h_star, k_star = iteration_complexity(alpha, gamma, m, C, h0, eps, kp, w2)
        rate = m / gamma + m * alpha
        expect = (
            2.0 * math.sqrt(2.0) * C / rate / eps
            * math.log(2.0 * math.sqrt(2.0) * kp * w2 / eps)
        )
        assert k_star == pytest.approx(expect, rel=1e-12)
        assert h_star == pytest.approx(eps / (2.0 * math.sqrt(2.0) * C), rel=1e-12)

    def test_iteration_complexity_clamps_at_zero(self):
        _, k_star = iteration_complexity(1.0, 2.0, 1.0, 3.0, 0.5, 1e9, 2.0, 5.0)
        assert k_star == 0.0

    def test_optimal_alpha_positive_matches_golden_section(self):
        for b1, b2, gamma in itertools.product((1e-3, 1.0, 1e3), (1e-3, 1.0, 1e3), (0.1, 2.0, 50.0)):

            def objective(a):
                # in exact rationals: in floats the flat minimum stops golden
                # section at about sqrt(machine eps) of the argmin
                a = Fraction(a)
                return (Fraction(b1) * a**3 + Fraction(b2)) / ((1 / Fraction(gamma) + a) ** 2)

            # golden-section oracle on [0, hi]; the stationarity cubic is
            # positive at (2 b2 / b1)^(1/3), so the minimizer lies below it
            lo, hi = 0.0, max(10.0, 2.0 * (2.0 * b2 / b1) ** (1.0 / 3.0))
            phi = (math.sqrt(5.0) - 1.0) / 2.0
            for _ in range(200):
                x1 = hi - phi * (hi - lo)
                x2 = lo + phi * (hi - lo)
                if objective(x1) < objective(x2):
                    hi = x2
                else:
                    lo = x1
            oracle = 0.5 * (lo + hi)
            got = optimal_alpha(b1, b2, gamma)
            assert got > 0
            assert got == pytest.approx(oracle, rel=1e-13, abs=1e-8), (b1, b2, gamma)
            # and the root solves the stationarity cubic to rounding
            terms = (b1 * got**3, 3.0 * b1 * got * got / gamma, -2.0 * b2)
            assert abs(sum(terms)) <= 1e-13 * max(abs(v) for v in terms), (b1, b2, gamma)

    def test_constant_bound_formula(self):
        assert discretization_constant_bound(1.0, 1.0, 0.0, 1.0, 2.0) == pytest.approx(2.0)

    # at the parent, m = 0, gamma = 0 and C = 0 raised ZeroDivisionError, and
    # m < 0 or alpha < -1/gamma made k* a silent 0
    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("m", 0.0, "m must be > 0"),
            ("m", -1.0, "m must be > 0"),
            ("gamma", 0.0, "gamma must be > 0"),
            ("gamma", -2.0, "gamma must be > 0"),
            ("C", 0.0, "C must be > 0"),
            ("w2_init", 0.0, "w2_init must be > 0"),
            ("alpha", -1.0, "alpha must be >= 0"),
            ("m", math.nan, "m must be a finite number"),
            ("gamma", math.inf, "gamma must be a finite number"),
            ("alpha", math.inf, "alpha must be a finite number"),
            ("h0", math.inf, "h0 must be a finite number"),
        ],
    )
    def test_iteration_complexity_names_a_bad_parameter(self, name, value, message):
        params = {"alpha": 1.0, "gamma": 2.0, "m": 1.0, "C": 3.0, "h0": 0.5, "eps": 0.1, "kappa_prime": 2.0, "w2_init": 5.0}
        with pytest.raises(ValueError, match=f"^{message}$"):
            iteration_complexity(**{**params, name: value})

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("m", 0.0, "m must be > 0"),
            ("m", -1.0, "m must be > 0"),
            ("gamma", 0.0, "gamma must be > 0"),
            ("alpha", -1.0, "alpha must be >= 0"),
            ("b1", math.nan, "b1 must be a finite number"),
            ("gamma", math.inf, "gamma must be a finite number"),
        ],
    )
    def test_constant_bound_names_a_bad_parameter(self, name, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            discretization_constant_bound(**{"b1": 1.0, "b2": 1.0, "alpha": 0.0, "m": 1.0, "gamma": 2.0, name: value})

    @pytest.mark.parametrize("m", [0.0, -1.0])
    def test_discrete_w2_bound_needs_strong_convexity(self, m):
        # at m = 0 the parent returned a bound that did not decay in k
        with pytest.raises(ValueError, match="^m must be > 0$"):
            w2_bound_discrete(1.0, 2.0, m, 1.0, h=0.01, k=10, w2_init=5.0, C=3.0)

    # G = -5 used to give a negative h0 and a nan G to drop out of min, a
    # non-finite b1, b2 or gamma to raise numpy's LinAlgError, and a nan h,
    # k, w2_init or C to give a nan bound
    @pytest.mark.parametrize(
        "function, name, value, message",
        [
            (step_thresholds, "G", -5.0, "G must be >= 0"),
            (step_thresholds, "G", math.nan, "G must be a finite number"),
            (optimal_alpha, "b1", math.inf, "b1 must be a finite number"),
            (optimal_alpha, "b2", math.nan, "b2 must be a finite number"),
            (optimal_alpha, "gamma", -math.inf, "gamma must be a finite number"),
            (optimal_alpha, "b2", 0.0, "b2 must be > 0"),
            (w2_bound_discrete, "h", math.nan, "h must be a finite number"),
            (w2_bound_discrete, "h", 0.0, "h must be > 0"),
            (w2_bound_discrete, "k", math.nan, "k must be a finite number"),
            (w2_bound_discrete, "k", -1, "k must be >= 0"),
            (w2_bound_discrete, "w2_init", math.nan, "w2_init must be a finite number"),
            (w2_bound_discrete, "w2_init", -5.0, "w2_init must be >= 0"),
            (w2_bound_discrete, "C", math.nan, "C must be a finite number"),
            (w2_bound_discrete, "C", math.inf, "C must be a finite number"),
        ],
        ids=lambda v: getattr(v, "__name__", None),
    )
    def test_bounds_name_a_bad_parameter(self, function, name, value, message):
        params = {
            step_thresholds: {"L": 1.0, "m": 1.0, "G": 1.0, "alpha": 0.0, "gamma": 2.0},
            optimal_alpha: {"b1": 1.0, "b2": 1.0, "gamma": 2.0},
            w2_bound_discrete: {"alpha": 1.0, "gamma": 2.0, "m": 1.0, "L": 1.0, "h": 0.01, "k": 10, "w2_init": 5.0,
                                "C": 3.0},
        }[function]
        with pytest.raises(ValueError, match=f"^{message}$"):
            function(**{**params, name: value})

    def test_step_thresholds_shapes_and_monotonicity(self):
        t = step_thresholds(1.0, 1.0, 1.0, 0.0, 2.0)
        assert t["h0"] == pytest.approx(min(t["h1"], t["h2"], t["h3"], t["h0"]))
        assert all(v > 0 for v in t.values())
        # only h2 depends on the third-derivative growth constant, inversely
        t2 = step_thresholds(1.0, 1.0, 9.0, 0.0, 2.0)
        assert t2["h2"] < t["h2"]
        assert t2["h1"] == pytest.approx(t["h1"])
        assert t2["h3"] == pytest.approx(t["h3"])
        with pytest.raises(ValueError):
            step_thresholds(4.0, 1.0, 1.0, 0.0, 1.0)


class TestStepAffineMap:
    def test_em_matrix(self):
        alpha, gamma, h = 0.3, 1.7, 0.25
        amap = step_affine_map("hfhr_em", [[1.0]], alpha, gamma, h)
        np.testing.assert_allclose(
            amap.T, [[1 - alpha * h, h], [-h, 1 - gamma * h]], atol=1e-15
        )
        np.testing.assert_allclose(amap.Q, np.diag([2 * alpha * h, 2 * gamma * h]), atol=1e-15)

    def test_strang_flat_hessian_is_ou_semigroup(self):
        # with H = 0 and alpha = 0 the two half flows compose exactly into
        # the full-step OU map
        from hfhr.samplers import phi_covariance

        grid = itertools.product((0.1, 1.0, 2.0, 10.0, 100.0), (1e-6, 1e-4, 1e-2, 0.1, 1.0))
        for gamma, h in [(2.0, 0.4), *grid]:
            amap = step_affine_map("hfhr_strang", [[0.0]], 0.0, gamma, h)
            drift = (1.0 - math.exp(-gamma * h)) / gamma
            np.testing.assert_allclose(
                amap.T, [[1.0, drift], [0.0, math.exp(-gamma * h)]], atol=1e-14
            )
            cov = phi_covariance(gamma, h)
            np.testing.assert_allclose(
                amap.Q, cov, rtol=0, atol=min(1e-14, 1e-13 * np.abs(cov).max()), err_msg=f"{gamma=} {h=}"
            )

    def test_strang_flat_hessian_general_alpha(self):
        # psi contributes pure position noise 2 alpha h, carried through the
        # second half flow
        from hfhr.samplers import phi_covariance

        gamma, h, alpha = 2.0, 0.4, 0.7
        amap = step_affine_map("hfhr_strang", [[0.0]], alpha, gamma, h)
        cov_h = phi_covariance(gamma, h)
        drift = (1.0 - math.exp(-gamma * h / 2.0)) / gamma
        decay = math.exp(-gamma * h / 2.0)
        Tphi = np.array([[1.0, drift], [0.0, decay]])
        extra = Tphi @ np.diag([2 * alpha * h, 0.0]) @ Tphi.T
        np.testing.assert_allclose(amap.Q, cov_h + extra, atol=1e-14)

    def test_strang_one_step_moments_monte_carlo(self):
        gamma, alpha, h, n = 2.0, 1.0, 0.1, 10**6
        model = builtin_potential("quadratic_iso", m=1.0, d=1)
        config = SamplerConfig(kind="hfhr_strang", step=h, gamma=gamma, alpha=alpha)
        amap = step_affine_map("hfhr_strang", [[1.0]], alpha, gamma, h)
        x0 = np.array([1.0, 0.0])
        out = make_stepper(model, config)(
            ChainState(q=np.full((n, 1), x0[0]), p=np.full((n, 1), x0[1])),
            RandomSource(123, 0),
        )
        X = np.stack([out.q[:, 0], out.p[:, 0]], axis=1)
        mean_expect = amap.T @ x0
        emp_mean = X.mean(axis=0)
        C = np.cov(X, rowvar=False)
        for i in range(2):
            se = math.sqrt(amap.Q[i, i] / n)
            assert abs(emp_mean[i] - mean_expect[i]) < 4.0 * se
            for j in range(2):
                se_c = math.sqrt((amap.Q[i, i] * amap.Q[j, j] + amap.Q[i, j] ** 2) / n)
                assert abs(C[i, j] - amap.Q[i, j]) < 4.0 * se_c

    def test_needs_nothing_from_the_samplers(self, monkeypatch):
        # the oracle of the kernels shares none of their code: with the
        # sampler's OU pieces broken, every map comes out the same
        import hfhr.samplers

        H = np.array([[2.0, 0.3], [0.3, 1.0]])
        kinds = ("hfhr_strang", "uld_klmc", "ula", "hfhr_em")
        before = {kind: step_affine_map(kind, H, 0.7, 2.5, 0.1) for kind in kinds}

        def broken(*args, **kwargs):
            raise AssertionError("step_affine_map called into hfhr.samplers")

        monkeypatch.setattr(hfhr.samplers, "phi_covariance", broken)
        monkeypatch.setattr(hfhr.samplers, "phi_kernel", broken)
        for kind in kinds:
            after = step_affine_map(kind, H, 0.7, 2.5, 0.1)
            for name in ("T", "c", "Q"):
                np.testing.assert_array_equal(getattr(after, name), getattr(before[kind], name))

    def test_requires_symmetric_hessian(self):
        with pytest.raises(ValueError):
            step_affine_map("hfhr_em", [[1.0, 0.5], [0.0, 1.0]], 0.0, 1.0, 0.1)
        # the sampler's rules, each a ValueError that names its parameter
        nan, inf = math.nan, math.inf
        cases = [
            ("hfhr_em", [[1.0, nan], [nan, 1.0]], 0.0, 1.0, 0.1, "H must be finite"),
            ("ula", [[inf]], 0.0, 0.0, 0.1, "H must be finite"),
            ("uld_klmc", [[1.0]], 0.0, 0.0, 0.1, "gamma must be > 0"),
            ("hfhr_em", [[1.0]], 0.0, -1.0, 0.1, "gamma must be > 0"),
            ("hfhr_strang", [[1.0]], 0.0, 0.0, 0.1, "gamma must be > 0"),
            ("ula", [[1.0]], 0.0, 0.0, -0.1, "h must be > 0"),
            ("hfhr_em", [[1.0]], 0.0, 1.0, -0.1, "h must be > 0"),
            ("uld_klmc", [[1.0]], 0.0, 1.0, 0.0, "h must be > 0"),
            ("hfhr_strang", [[1.0]], 0.0, 1.0, nan, "h must be a finite number"),
            ("uld_klmc", [[1.0]], 0.0, inf, 0.1, "gamma must be a finite number"),
            ("hfhr_em", [[1.0]], nan, 1.0, 0.1, "alpha must be a finite number"),
            *[(kind, [[1.0]], -0.5, 1.0, 0.1, "alpha must be >= 0") for kind in KINDS],
            ("nope", [[1.0]], 0.0, 1.0, 0.1, "unknown kernel kind 'nope'"),
        ]
        for *args, match in cases:
            with pytest.raises(ValueError, match=match):
                step_affine_map(*args)

    @pytest.mark.parametrize("gamma", [1e-6, 1e-200, 1e-320])
    def test_small_gamma_reaches_the_frictionless_limit(self, gamma):
        # the series branch divided by gamma**2, 0.0 below gamma ~ 1e-162, and
        # (h - c1) / gamma cancelled to 0; the gamma -> 0 limits are
        # T = [[1 - h^2 / 2, h], [-h, 1]] and Q = [[2/3 g h^3, g h^2], [g h^2, 2 g h]]
        h = 0.1
        amap = step_affine_map("uld_klmc", [[1.0]], 0.0, gamma, h)
        np.testing.assert_allclose(amap.T, [[1.0 - h * h / 2.0, h], [-h, 1.0]], rtol=1e-6)
        limit = np.array([[2.0 / 3.0 * h**3, h * h], [h * h, 2.0 * h]]) * gamma
        np.testing.assert_allclose(amap.Q, limit, rtol=1e-5, atol=1e-321)
        strang = step_affine_map("hfhr_strang", [[1.0]], 0.5, gamma, h)
        assert np.isfinite(strang.T).all() and np.isfinite(strang.Q).all()

    def test_block_radius_matches_dense(self):
        # the largest 2x2 block radius is the radius of the whole map
        rng = np.random.default_rng(5)
        for d, kind in itertools.product((1, 3, 8), KINDS):
            amap = step_affine_map(kind, _random_hessian(rng, rng.uniform(0.5, 2.0, d)), 0.7, 2.5, 0.2)
            U, T_blocks, Q_blocks = amap.modes
            assert U.shape == (d, d) and T_blocks.shape == Q_blocks.shape
            per_mode = max(spectral_radius(block) for block in T_blocks)
            assert per_mode == pytest.approx(spectral_radius(amap.T), rel=1e-12, abs=0), (kind, d)


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(3)) == pytest.approx(1.0)

    def test_a_block_whose_trace_squared_overflows(self):
        # spectral's first table at --gamma 1e154: tr^2 overflowed with a RuntimeWarning
        g = 1e154
        T = np.array([[1.0, g / 2.0], [-g / 2.0, 1.0 - g * g / 2.0]])
        assert spectral_radius(T) == pytest.approx(g * g / 2.0, rel=1e-12)
        assert spectral_radius(1e300 * np.array([[0.0, 1.0], [-1.0, 0.0]])) == 1e300

    def test_demo1_modulus_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            gamma = rng.uniform(0.1, 4.0)
            alpha = gamma + rng.uniform(-2.0, 2.0)
            if alpha < 0:
                continue
            h = rng.uniform(0.01, 0.4)
            radicand = 1.0 - (alpha + gamma) * h + (1.0 + alpha * gamma) * h * h
            if radicand <= 0:
                continue
            amap = step_affine_map("hfhr_em", [[1.0]], alpha, gamma, h)
            assert spectral_radius(amap.T) == pytest.approx(math.sqrt(radicand), abs=1e-12)

    def test_optimal_alpha_gives_zero_radius(self):
        for gamma in (0.5, 1.0, 3.0):
            alpha = gamma + 2.0
            h = 1.0 / (1.0 + gamma)
            amap = step_affine_map("hfhr_em", [[1.0]], alpha, gamma, h)
            assert spectral_radius(amap.T) == pytest.approx(0.0, abs=1e-12)

    def test_matches_eigvals_on_bigger_matrices(self):
        rng = np.random.default_rng(1)
        for n in (3, 5, 8):
            T = rng.standard_normal((n, n))
            assert spectral_radius(T) == pytest.approx(
                np.max(np.abs(np.linalg.eigvals(T))), rel=1e-10
            )

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            spectral_radius(np.zeros((2, 3)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, n, bad):
        T = 0.5 * np.eye(n)
        T[0, 0] = bad
        with pytest.raises(ValueError, match="matrix must be finite"):
            spectral_radius(T)

    def test_stationary_covariance_rejects_a_map_holding_nan(self):
        amap = step_affine_map("uld_klmc", [[1.0]], 0.0, 2.0, 0.1)
        T = amap.T.copy()
        T[0, 0] = math.nan
        with pytest.raises(ValueError, match="matrix must be finite"):
            discrete_stationary_covariance(dataclasses.replace(amap, T=T, modes=None))


class TestDemo2:
    def test_uld_optimum_values(self):
        opt = uld_optimal_discount(0.25)
        assert opt.step == pytest.approx(math.sqrt(0.4), abs=1e-12)
        assert opt.gamma == pytest.approx(math.sqrt(2.5) / 0.5, abs=1e-12)
        opt = uld_optimal_discount(0.01)
        assert opt.discount == pytest.approx(0.990050, abs=1e-6)

    def test_uld_optimum_beats_local_grid(self):
        eps = 0.01
        opt = uld_optimal_discount(eps)

        def max_radius(h, gamma):
            A1 = np.array([[1.0, h], [-h, 1.0 - gamma * h]])
            A2 = np.array([[1.0, h], [-h / eps, 1.0 - gamma * h]])
            return max(spectral_radius(A1), spectral_radius(A2))

        best = opt.discount
        for dh in np.arange(-5e-3, 5.001e-3, 1e-3):
            for dg in np.arange(-5e-3, 5.001e-3, 1e-3):
                h, g = opt.step + dh, opt.gamma + dg
                if h <= 0 or g <= 0:
                    continue
                assert max_radius(h, g) >= best - 1e-9

    def test_degenerate_limit(self):
        assert uld_optimal_discount(1.0 - 1e-12).discount == pytest.approx(0.0, abs=1e-5)

    def test_accelerated_parameters_and_residuals(self):
        acc = hfhr_demo2_parameters(0.1, 1.0)
        assert acc.alpha > 0 and acc.gamma > 0
        h = acc.step
        A1 = np.array([[1 - acc.alpha * h, h], [-h, 1 - acc.gamma * h]])
        A2 = np.array([[1 - acc.alpha * h / 0.1, h], [-h / 0.1, 1 - acc.gamma * h]])
        assert abs(np.trace(A1)) < 1e-10
        assert abs(np.linalg.det(A1) + np.linalg.det(A2)) < 1e-10
        rho = max(spectral_radius(A1), spectral_radius(A2))
        assert rho == pytest.approx(acc.discount, abs=1e-10)

    def test_taylor_expansion(self):
        eps, c = 1e-3, 1.0
        acc = hfhr_demo2_parameters(eps, c)
        assert abs(acc.discount - (1.0 - 2.0 * eps + (c * c / 2.0 + 2.0) * eps**2)) < 1e-6

    def test_accelerated_beats_uld_optimum(self):
        for eps in (0.01, 0.05, 0.1, 0.2, 0.4):
            assert hfhr_demo2_parameters(eps, 1.0).discount < uld_optimal_discount(eps).discount

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            uld_optimal_discount(0.0)
        with pytest.raises(ValueError):
            hfhr_demo2_parameters(1.5, 1.0)
        with pytest.raises(ValueError):
            hfhr_demo2_parameters(0.1, -1.0)
        for c in (math.nan, math.inf):  # NaN passed c <= 0 and gave NaN parameters
            with pytest.raises(ValueError, match="^c must be a finite number$"):
                hfhr_demo2_parameters(0.1, c)

    @pytest.mark.parametrize(
        "eps, c, message",
        [
            (1e-200, 5e-324, "c \\* eps must not underflow to 0"),  # was a ZeroDivisionError
            (0.9, 5e-324, "defining system holds to 1e-10"),  # was an AssertionError
            (0.3, 5e-324, "defining system holds to 1e-10"),  # det overflowed with a RuntimeWarning
        ],
    )
    def test_parameters_beyond_the_floats_are_value_errors(self, eps, c, message):
        with pytest.raises(ValueError, match=message):
            hfhr_demo2_parameters(eps, c)


class TestGaussianPropagation:
    def test_t_zero_identity(self):
        s = gaussian_continuous_propagation([[1.0]], 1.0, 2.0, [1.0, 0.0], np.eye(2), 0.0)
        np.testing.assert_array_equal(s.mean, [1.0, 0.0])
        np.testing.assert_array_equal(s.cov, np.eye(2))

    def test_converges_to_product_target(self):
        d = 2
        s = gaussian_continuous_propagation(
            np.eye(d), 1.0, 2.0, np.ones(2 * d), 2.0 * np.eye(2 * d), 20.0
        )
        assert np.max(np.abs(s.cov - np.eye(2 * d))) < 1e-6
        assert np.max(np.abs(s.mean)) < 1e-6

    def test_critically_damped_mean(self):
        # alpha=0, gamma=2, H=1: repeated eigenvalue -1, q(t) = (1+t) e^{-t}
        for t in (0.5, 1.0, 2.0):
            s = gaussian_continuous_propagation([[1.0]], 0.0, 2.0, [1.0, 0.0], np.eye(2), t)
            assert s.mean[0] == pytest.approx((1.0 + t) * math.exp(-t), rel=1e-10)

    def test_covariance_against_exact_lyapunov_solution(self):
        # independent closed form: S(t) = S_inf + e^{At}(S0 - S_inf)e^{A^T t}
        H = np.array([[2.0, 0.3], [0.3, 1.0]])
        alpha, gamma, t = 0.7, 2.5, 1.3
        n = 2
        A = np.block([[-alpha * H, np.eye(n)], [-H, -gamma * np.eye(n)]])
        S_inf = np.block(
            [[np.linalg.inv(H), np.zeros((n, n))], [np.zeros((n, n)), np.eye(n)]]
        )
        S0 = 0.5 * np.eye(2 * n)
        E = expm(A * t)
        exact = S_inf + E @ (S0 - S_inf) @ E.T
        got = gaussian_continuous_propagation(H, alpha, gamma, np.zeros(2 * n), S0, t)
        np.testing.assert_allclose(got.cov, exact, atol=1e-9)

    @pytest.mark.parametrize("d", [1, 3, 6])
    @pytest.mark.parametrize("alpha, gamma", [(0.0, 0.5), (0.7, 2.5), (2.0, 1.0)])
    def test_matches_short_span_van_loan(self, d, alpha, gamma):
        # second method: iterate S <- F S F^T + Q over spans tau with
        # tau ||A||_1 <= 1, F and Q read off one block exponential (Van Loan
        # 1978), as the benchmark's exact laws do
        rng = np.random.default_rng([d, int(10 * alpha), int(10 * gamma)])
        G = rng.standard_normal((d, d))
        H = G @ G.T / d + 0.5 * np.eye(d)
        G = rng.standard_normal((2 * d, 2 * d))
        mean0, cov0 = rng.standard_normal(2 * d), G @ G.T / (2 * d)
        eye, zero = np.eye(d), np.zeros((d, d))
        A = np.block([[-alpha * H, eye], [-H, -gamma * eye]])
        D = np.block([[2.0 * alpha * eye, zero], [zero, 2.0 * gamma * eye]])
        ts = [0.1, 1.0, 5.0]
        got = gaussian_continuous_propagation(H, alpha, gamma, mean0, cov0, ts)
        for t, summary in zip(ts, got):
            spans = max(1, math.ceil(t * np.linalg.norm(A, 1)))
            E = expm(np.block([[-A, D], [np.zeros_like(A), A.T]]) * (t / spans))
            F = E[2 * d:, 2 * d:].T
            Q = F @ E[:2 * d, 2 * d:]
            mean, cov = mean0, cov0
            for _ in range(spans):
                mean, cov = F @ mean, F @ cov @ F.T + Q
            np.testing.assert_allclose(summary.mean, mean, rtol=0, atol=1e-12)
            np.testing.assert_allclose(summary.cov, 0.5 * (cov + cov.T), rtol=0, atol=1e-12)

    def test_path_variant_matches_single_calls(self):
        ts = [0.3, 0.7, 1.5]
        path = gaussian_continuous_propagation([[1.0]], 0.5, 2.0, [1.0, 1.0], np.eye(2), ts)
        for t_k, s in zip(ts, path):
            single = gaussian_continuous_propagation([[1.0]], 0.5, 2.0, [1.0, 1.0], np.eye(2), t_k)
            np.testing.assert_allclose(s.cov, single.cov, atol=1e-12)
            np.testing.assert_allclose(s.mean, single.mean, atol=1e-12)

    def test_rejects_non_spd(self):
        with pytest.raises(ValueError):
            gaussian_continuous_propagation([[-1.0]], 0.0, 2.0, [0.0, 0.0], np.eye(2), 1.0)

    # a nan time used to give a nan mean with cov0, a nan alpha a nan
    # summary, and alpha < 0 or gamma <= 0 to run; a nan in H gave an all-nan
    # summary, one in mean0 a nan mean, and a cov0 of the wrong shape numpy's
    # broadcast error
    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("t", math.nan, "t must be finite"),
            ("t", [0.0, 1.0, math.inf], "t must be finite"),
            ("alpha", math.nan, "alpha must be a finite number"),
            ("alpha", -0.5, "alpha must be >= 0"),
            ("gamma", math.inf, "gamma must be a finite number"),
            ("gamma", 0.0, "gamma must be > 0"),
            ("gamma", -2.0, "gamma must be > 0"),
            ("H", [[math.nan]], "H must be finite and symmetric"),
            ("H", [[math.inf]], "H must be finite and symmetric"),
            ("H", [[1.0, 0.5], [0.0, 1.0]], "H must be finite and symmetric"),
            ("mean0", [math.nan, 0.0], "mean0 must be finite, of shape (2,)"),
            ("mean0", [1.0, 0.0, 0.0], "mean0 must be finite, of shape (2,)"),
            ("cov0", [[1.0, 0.0], [0.0, math.inf]], "cov0 must be finite, of shape (2, 2)"),
            ("cov0", np.eye(3), "cov0 must be finite, of shape (2, 2)"),
        ],
    )
    def test_names_a_bad_parameter(self, name, value, message):
        params = {"H": [[1.0]], "alpha": 0.5, "gamma": 2.0, "mean0": [1.0, 0.0], "cov0": np.eye(2), "t": 1.0}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gaussian_continuous_propagation(**{**params, name: value})


class TestDiscreteStationaryCovariance:
    def test_zero_map_returns_q(self):
        Q = np.array([[2.0, 0.5], [0.5, 1.0]])
        s = discrete_stationary_covariance(
            AffineGaussianMap(T=np.zeros((2, 2)), c=np.zeros(2), Q=Q)
        )
        np.testing.assert_allclose(s.cov, Q, atol=1e-13)

    def test_ula_scalar_fixed_point(self):
        h = 0.1
        amap = step_affine_map("ula", [[1.0]], 0.0, 0.0, h)
        s = discrete_stationary_covariance(amap)
        assert s.cov[0, 0] == pytest.approx(1.0 / (1.0 - h / 2.0), abs=1e-10)

    def test_strang_bias_halves_with_h(self):
        errs = {}
        for h in (0.1, 0.05):
            amap = step_affine_map("hfhr_strang", [[1.0]], 1.0, 2.0, h)
            s = discrete_stationary_covariance(amap)
            errs[h] = np.linalg.norm(s.cov - np.eye(2))
        ratio = errs[0.1] / errs[0.05]
        assert 1.7 < ratio < 2.3

    def test_nonzero_shift_mean(self):
        amap = AffineGaussianMap(
            T=np.array([[0.5]]), c=np.array([1.0]), Q=np.array([[1.0]])
        )
        s = discrete_stationary_covariance(amap)
        assert s.mean[0] == pytest.approx(2.0)

    def test_rejects_unstable_map(self):
        amap = AffineGaussianMap(T=np.array([[1.0]]), c=np.zeros(1), Q=np.eye(1))
        with pytest.raises(ValueError, match="no stationary"):
            discrete_stationary_covariance(amap)
        # criterion 7a's stiff mode fails alike with and without its modes,
        # alone and next to a stable mode
        for H in ([[100.0]], np.diag([1.0, 100.0])):
            stiff = step_affine_map("hfhr_strang", H, 1.0, 20.0, 0.2)
            for amap in (stiff, AffineGaussianMap(T=stiff.T, c=stiff.c, Q=stiff.Q)):
                with pytest.raises(ValueError) as err:
                    discrete_stationary_covariance(amap)
                assert str(err.value) == "spectral radius 19.980785 >= 1: no stationary distribution"

    def test_modal_path_matches_the_dense_reference(self):
        # a hand-built copy without modes takes the eigvals + scipy path
        rng = np.random.default_rng(2)
        cases = [(_random_hessian(rng, rng.uniform(0.5, 2.0, d)), False) for d in (1, 3, 8)]
        # repeated eigenvalues, then a slow mode that puts the radius near 0.999
        cases += [(np.eye(4), False), (_random_hessian(rng, [0.01, 1.0, 2.0]), True)]
        for (H, critical), kind in itertools.product(cases, KINDS):
            amap = step_affine_map(kind, H, 0.5, 2.0, 0.1)
            reference = AffineGaussianMap(T=amap.T, c=amap.c, Q=amap.Q)
            radius = spectral_radius(amap.T)
            assert (0.998 < radius < 0.9996) == critical, (kind, radius)
            got, want = discrete_stationary_covariance(amap), discrete_stationary_covariance(reference)
            scale = np.abs(want.cov).max()
            rel = np.abs(got.cov - want.cov).max() / scale
            assert rel <= (1e-9 if critical else 1e-12), (kind, H.shape, radius, rel)
            np.testing.assert_array_equal(got.mean, want.mean)
            # a nonzero offset goes through the same modes
            c = rng.standard_normal(amap.dim)
            shifted = AffineGaussianMap(T=amap.T, c=c, Q=amap.Q, modes=amap.modes)
            got = discrete_stationary_covariance(shifted).mean
            want = discrete_stationary_covariance(AffineGaussianMap(T=amap.T, c=c, Q=amap.Q)).mean
            rel = np.abs(got - want).max() / np.abs(want).max()
            assert rel <= (1e-9 if critical else 1e-12), (kind, H.shape, radius, rel)

    def test_modal_error_no_larger_than_scipy_in_mpmath(self):
        # both paths against the stationary law of the kernel on H, in 40
        # digits. At d = 1 the two solve the same 2x2 system. At d = 2 the
        # modal path sees H through eigh and scipy through the dense map, so
        # they may trade the last ulps: the modal error may exceed scipy's
        # by at most eps times the conditioning 1 / (1 - radius^2).
        rng = np.random.default_rng(3)
        for trial, kind in itertools.product(range(8), KINDS):
            d = 1 + trial % 2
            H = _random_hessian(rng, rng.uniform(0.01, 3.0, d))
            alpha, gamma, h = rng.uniform(0.0, 1.0), rng.uniform(0.5, 3.0), rng.uniform(0.01, 0.5)
            amap = step_affine_map(kind, H, alpha, gamma, h)
            radius = spectral_radius(amap.T)
            if radius >= 1.0:
                continue
            exact = _mp_stationary_cov(kind, H, alpha, gamma, h)
            scale = np.abs(exact).max()
            modal = np.abs(discrete_stationary_covariance(amap).cov - exact).max() / scale
            dense = AffineGaussianMap(T=amap.T, c=amap.c, Q=amap.Q)
            scipy = np.abs(discrete_stationary_covariance(dense).cov - exact).max() / scale
            slack = 0.0 if d == 1 else np.finfo(float).eps / (1.0 - radius**2)
            assert modal <= scipy + slack, (kind, d, radius, modal, scipy)

    def test_step_maps_never_reach_scipy(self, monkeypatch):
        # a silent fallback to the dense path would pass every value test
        import hfhr.analysis as analysis

        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} called")

            return call

        monkeypatch.setattr(analysis, "solve_discrete_lyapunov", forbidden("solve_discrete_lyapunov"))
        monkeypatch.setattr(np.linalg, "eigvals", forbidden("eigvals"))
        rng = np.random.default_rng(4)
        H = _random_hessian(rng, rng.uniform(0.5, 2.0, 5))
        for kind in KINDS:
            discrete_stationary_covariance(step_affine_map(kind, H, 0.5, 2.0, 0.1))
        small = step_affine_map("ula", [[1.0]], 0.0, 0.0, 0.1)
        with pytest.raises(AssertionError, match="solve_discrete_lyapunov called"):
            discrete_stationary_covariance(AffineGaussianMap(T=small.T, c=small.c, Q=small.Q))
        big = step_affine_map("hfhr_em", H, 0.5, 2.0, 0.1)
        with pytest.raises(AssertionError, match="eigvals called"):
            discrete_stationary_covariance(AffineGaussianMap(T=big.T, c=big.c, Q=big.Q))

    def test_strang_consistency_order(self):
        # stationary covariance converges to the target with order >= 0.9
        hs = [0.2, 0.1, 0.05, 0.025]
        errors = []
        for h in hs:
            amap = step_affine_map("hfhr_strang", [[1.0]], 1.0, 2.0, h)
            s = discrete_stationary_covariance(amap)
            errors.append(w2_gaussian(s, GaussianSummary(np.zeros(2), np.eye(2))))
        from hfhr.metrics import loglog_slope

        slope, _, _ = loglog_slope(hs, errors)
        assert slope >= 0.9


def exact_contraction_rate(alpha, gamma, lam):
    """-max Re eig([[-alpha lam, 1], [-lam, -gamma]]) for each lam, elementwise.

    The eigenvalues are -s/2 +- sqrt(disc) with s = alpha lam + gamma and
    disc = ((gamma - alpha lam)/2)^2 - lam, the same as s^2/4 - lam (1 +
    alpha gamma).  A real pair decays at the smaller magnitude, taken as
    lam (1 + alpha gamma) / (s/2 + sqrt(disc)) so that nothing cancels; a
    complex pair decays at s/2.
    """
    s = alpha * lam + gamma
    disc = (0.5 * (gamma - alpha * lam)) ** 2 - lam
    real = lam * (1.0 + alpha * gamma) / (0.5 * s + np.sqrt(np.maximum(disc, 0.0)))
    return np.where(disc > 0.0, real, 0.5 * s)


class TestBoundValidityOnExactDynamics:
    def test_exact_contraction_rate_matches_the_block_eigenvalues(self):
        for alpha, gamma, lam in itertools.product((0.0, 0.01, 1.0, 30.0), (0.1, 2.0, 60.0), (0.1, 1.0, 100.0)):
            block = np.array([[-alpha * lam, 1.0], [-lam, -gamma]])
            want = -np.linalg.eigvals(block).real.max()
            assert exact_contraction_rate(alpha, gamma, np.array([lam]))[0] == pytest.approx(want, rel=1e-9, abs=1e-15)

    def test_w2_rate_never_exceeds_the_exact_contraction_rate(self):
        # wherever rate_bound_w2 reports its assumptions met, the paper's
        # rate m/gamma + m alpha is at most the slowest block's exact rate,
        # over the Hessian eigenvalues m, L and a geometric grid between them
        gammas = np.geomspace(0.1, 100.0, 40)
        alphas = np.concatenate(([0.0], np.geomspace(1e-3, 100.0, 40)))
        admissible, worst = 0, 0.0
        for m, L in ((1.0, 1.0), (1.0, 4.0), (1.0, 10.0), (0.1, 1.0), (1.0, 100.0)):
            lam = np.geomspace(m, L, 200)
            for gamma, alpha in itertools.product(gammas, alphas):
                bound = rate_bound_w2(float(alpha), float(gamma), m, L)
                if bound.gamma_ok and bound.alpha_ok:
                    exact = exact_contraction_rate(alpha, gamma, lam).min()
                    assert bound.rate <= exact * (1.0 + 1e-12), (m, L, gamma, alpha, bound.rate, exact)
                    admissible, worst = admissible + 1, max(worst, bound.rate / exact)
        assert admissible == 3688
        assert worst > 0.9999  # the bound is tight at large gamma: m/gamma against lam/gamma (1 + O(lam/gamma^2))

    def test_w2_contraction_bound_holds_on_grid(self):
        # exact Gaussian propagation never exceeds kappa' e^{-rate t} W2(0)
        target = GaussianSummary(np.zeros(2), np.eye(2))
        ts = np.linspace(0.0, 5.0, 26)
        for alpha in (0.0, 0.5, 1.0):
            bound = rate_bound_w2(alpha, 2.0, 1.0, 1.0)
            assert bound.gamma_ok and bound.alpha_ok
            sums = gaussian_continuous_propagation(
                [[1.0]], alpha, 2.0, [1.0, 1.0], np.eye(2), ts
            )
            w = np.array([w2_gaussian(s, target) for s in sums])
            envelope = bound.prefactor * np.exp(-bound.rate * ts) * w[0]
            assert np.all(w <= envelope * (1.0 + 1e-9))

    def test_measured_decay_rate_nondecreasing_in_alpha(self):
        target = GaussianSummary(np.zeros(2), np.eye(2))
        ts = np.linspace(1.0, 5.0, 81)
        rates = []
        for alpha in (0.0, 0.5, 1.0, 2.0):
            sums = gaussian_continuous_propagation(
                [[1.0]], alpha, 2.0, [1.0, 1.0], np.eye(2), ts
            )
            w = np.array([w2_gaussian(s, target) for s in sums])
            rates.append(-np.polyfit(ts, np.log(w), 1)[0])
        assert all(b >= a - 1e-6 for a, b in zip(rates, rates[1:]))
        # and the bound exponent itself is strictly increasing in alpha
        exps = [rate_bound_w2(a, 2.0, 1.0, 1.0).rate for a in (0.0, 0.5, 1.0, 2.0)]
        assert all(b > a for a, b in zip(exps, exps[1:]))
