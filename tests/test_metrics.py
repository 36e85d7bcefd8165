import math

import numpy as np
import pytest
from scipy.integrate import quad

from hfhr.analysis import GaussianSummary
from hfhr.metrics import (
    HistogramDensity,
    chi2_gaussian_1d,
    chi2_histogram,
    empirical_moments,
    loglog_slope,
    mean_error,
    w2_gaussian,
)


def random_gaussian(rng, d):
    A = rng.standard_normal((d, d))
    return GaussianSummary(mean=rng.standard_normal(d), cov=A @ A.T + 0.1 * np.eye(d))


class TestW2Gaussian:
    def test_identical_is_zero(self):
        # the trace term rounds at ~1e-15, so the root lands near 1e-7
        g = GaussianSummary([1.0, 2.0], [[2.0, 0.3], [0.3, 1.0]])
        assert w2_gaussian(g, g) == pytest.approx(0.0, abs=1e-7)

    def test_1d_closed_form(self):
        a = GaussianSummary([0.0], [[1.0]])
        b = GaussianSummary([1.0], [[4.0]])
        # sqrt((mu1-mu2)^2 + (s1-s2)^2)
        assert w2_gaussian(a, b) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_commuting_covariances(self):
        a = GaussianSummary([0.0, 0.0], np.diag([1.0, 4.0]))
        b = GaussianSummary([0.0, 0.0], np.diag([4.0, 1.0]))
        assert w2_gaussian(a, b) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = random_gaussian(rng, 3), random_gaussian(rng, 3)
            assert abs(w2_gaussian(a, b) - w2_gaussian(b, a)) <= 1e-10

    def test_triangle_inequality(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a, b, c = (random_gaussian(rng, 2) for _ in range(3))
            assert w2_gaussian(a, c) <= w2_gaussian(a, b) + w2_gaussian(b, c) + 1e-8

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(2)
        a = random_gaussian(rng, 2)
        b = random_gaussian(rng, 2)
        assert w2_gaussian(a, b) > 1e-3

    def test_monte_carlo_cross_check(self):
        # empirical coupling bound: W2^2 <= E||X - TX||^2 for the optimal
        # linear transport map in 1D equals the closed form
        a = GaussianSummary([0.5], [[2.0]])
        b = GaussianSummary([-0.5], [[0.5]])
        exact = math.sqrt((0.5 + 0.5) ** 2 + (math.sqrt(2.0) - math.sqrt(0.5)) ** 2)
        assert w2_gaussian(a, b) == pytest.approx(exact, rel=1e-12)

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError):
            w2_gaussian(
                GaussianSummary([0.0], [[-1.0]]), GaussianSummary([0.0], [[1.0]])
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            w2_gaussian(
                GaussianSummary([0.0], [[1.0]]),
                GaussianSummary([0.0, 0.0], np.eye(2)),
            )

    def test_round_off_residue_against_a_wide_reference(self):
        # a fixed start's sample variance is a -1.1e-16 residue; the cross
        # term scales it by the reference variance 1e7 to -1.1e-9
        a = GaussianSummary([0.75], [[-1.1e-16]])
        b = GaussianSummary([0.0], [[1e7]])
        assert w2_gaussian(a, b) == pytest.approx(math.sqrt(0.75**2 + 1e7), rel=1e-12)
        with pytest.raises(ValueError, match="positive semi-definite"):
            w2_gaussian(GaussianSummary([0.75], [[-1e-3]]), b)


class TestEmpiricalMoments:
    def test_two_point_antipodal(self):
        x = np.array([0.5, -1.0])
        s = empirical_moments(np.stack([x, -x]))
        np.testing.assert_allclose(s.mean, 0.0, atol=1e-15)
        np.testing.assert_allclose(s.cov, 2.0 * np.outer(x, x), atol=1e-15)

    def test_identical_points(self):
        s = empirical_moments(np.ones((5, 2)))
        np.testing.assert_allclose(s.cov, 0.0, atol=1e-15)

    def test_standard_normal_clt(self):
        n = 10**6
        X = np.random.default_rng(3).standard_normal((n, 2))
        s = empirical_moments(X)
        assert np.all(np.abs(s.mean) < 4.0 / math.sqrt(n))
        assert np.all(np.abs(s.cov - np.eye(2)) < 6.0 / math.sqrt(n))

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            empirical_moments(np.ones((1, 2)))


def std_normal_pdf(x):
    return np.exp(-0.5 * np.asarray(x) ** 2) / math.sqrt(2.0 * math.pi)


class TestChi2Histogram:
    def test_matching_distribution_small_statistic(self):
        n, bins = 10**5, 50
        samples = np.random.default_rng(4).standard_normal(n)
        val = chi2_histogram(samples, std_normal_pdf, -5.0, 5.0, bins)
        assert 0.0 <= val <= 3.0 * (bins - 1) / n

    def test_point_mass_dominated_by_single_bin(self):
        bins = 50
        samples = np.zeros(1000)
        val = chi2_histogram(samples, std_normal_pdf, -5.0, 5.0, bins)
        width = 10.0 / bins
        sub = (np.arange(32) + 0.5) / 32.0
        j = 25  # bin containing zero
        xs = -5.0 + (j + sub) * width
        q_j = float(np.mean(std_normal_pdf(xs)) * width)
        assert val == pytest.approx((1.0 - q_j) ** 2 / q_j + (1.0 - q_j), rel=0.02)

    def test_exact_match_is_zero(self):
        # synthesize samples whose bin masses equal the target masses exactly
        bins = 4
        lo, hi = 0.0, 4.0
        density = lambda x: np.full(np.shape(x), 0.25)
        samples = np.repeat([0.5, 1.5, 2.5, 3.5], 25)
        assert chi2_histogram(samples, density, lo, hi, bins) == pytest.approx(0.0, abs=1e-12)

    def test_outside_samples_go_to_boundary_bins(self):
        bins = 4
        density = lambda x: np.full(np.shape(x), 0.25)
        inside = np.repeat([0.5, 1.5, 2.5, 3.5], 25)
        shifted = inside.copy()
        shifted[shifted == 0.5] = -7.0   # clamps into first bin
        shifted[shifted == 3.5] = 9.0    # clamps into last bin
        v1 = chi2_histogram(inside, density, 0.0, 4.0, bins)
        v2 = chi2_histogram(shifted, density, 0.0, 4.0, bins)
        assert v2 == pytest.approx(v1, abs=1e-12)

    def test_zero_mass_nonempty_bin_raises(self):
        density = lambda x: np.where(np.asarray(x) < 1.0, 0.5, 0.0)
        with pytest.raises(ValueError, match="bin 1"):
            chi2_histogram(np.array([1.5] * 10), density, 0.0, 2.0, 2)

    def test_affine_invariance(self):
        rng = np.random.default_rng(5)
        samples = rng.standard_normal(20000)
        a, b = 2.0, 1.0
        v1 = chi2_histogram(samples, std_normal_pdf, -5.0, 5.0, 50)
        scaled_density = lambda y: std_normal_pdf((np.asarray(y) - b) / a) / a
        v2 = chi2_histogram(a * samples + b, scaled_density, a * -5.0 + b, a * 5.0 + b, 50)
        assert v2 == pytest.approx(v1, rel=1e-10)

    def test_histogram_density_invariants(self):
        h = HistogramDensity.from_samples(np.random.default_rng(6).standard_normal(1000), -4, 4, 10)
        assert h.masses.sum() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            HistogramDensity(lo=0, hi=1, bins=1, counts=np.array([1]))


class TestChi2Gaussian1d:
    def test_identical_zero(self):
        assert chi2_gaussian_1d(0.3, 1.2, 0.3, 1.2) == pytest.approx(0.0, abs=1e-12)

    def test_mean_shift_quadrature_cross_check(self):
        m1, s1, m2, s2 = 0.1, 1.0, 0.0, 1.0
        closed = chi2_gaussian_1d(m1, s1, m2, s2)

        def integrand(x):
            p = math.exp(-0.5 * ((x - m1) / s1) ** 2) / (s1 * math.sqrt(2 * math.pi))
            q = math.exp(-0.5 * ((x - m2) / s2) ** 2) / (s2 * math.sqrt(2 * math.pi))
            return (p / q - 1.0) ** 2 * q

        oracle, _ = quad(integrand, -12.0, 12.0, limit=200)
        assert closed == pytest.approx(oracle, abs=1e-8)
        assert closed == pytest.approx(math.exp(m1**2) - 1.0, rel=1e-10)

    def test_general_case_quadrature(self):
        m1, s1, m2, s2 = -0.4, 0.9, 0.2, 1.1

        def integrand(x):
            p = math.exp(-0.5 * ((x - m1) / s1) ** 2) / (s1 * math.sqrt(2 * math.pi))
            q = math.exp(-0.5 * ((x - m2) / s2) ** 2) / (s2 * math.sqrt(2 * math.pi))
            return (p / q - 1.0) ** 2 * q

        oracle, _ = quad(integrand, -15.0, 15.0, limit=400)
        assert chi2_gaussian_1d(m1, s1, m2, s2) == pytest.approx(oracle, abs=1e-8)

    def test_divergent_integral(self):
        # 2/s1^2 - 1/s2^2 <= 0 diverges
        assert chi2_gaussian_1d(0.0, 1.0, 0.0, 0.5) == math.inf
        assert chi2_gaussian_1d(0.0, 1.0, 0.0, 1.0 / math.sqrt(2.0)) == math.inf

    def test_rejects_bad_scales(self):
        with pytest.raises(ValueError):
            chi2_gaussian_1d(0.0, 0.0, 0.0, 1.0)


class TestMeanError:
    def test_examples(self):
        s = GaussianSummary([1.0, 0.0], np.eye(2))
        assert mean_error(s, [1.0, 0.0]) == 0.0
        assert mean_error(s, [0.0, 0.0]) == pytest.approx(1.0)

    def test_lower_bounds_w2(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a, b = random_gaussian(rng, 2), random_gaussian(rng, 2)
            assert mean_error(a, b.mean) <= w2_gaussian(a, b) + 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mean_error(GaussianSummary([0.0], [[1.0]]), [0.0, 1.0])


class TestLogLogSlope:
    def test_linear(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        slope, intercept, r2 = loglog_slope(xs, xs)
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_sqrt(self):
        xs = np.array([1.0, 4.0, 16.0, 64.0])
        slope, _, _ = loglog_slope(xs, np.sqrt(xs))
        assert slope == pytest.approx(0.5, abs=1e-12)

    def test_noisy_linear(self):
        rng = np.random.default_rng(8)
        xs = np.geomspace(1.0, 128.0, 8)
        ys = 3.0 * xs * (1.0 + 0.01 * rng.standard_normal(8))
        slope, _, r2 = loglog_slope(xs, ys)
        assert 0.95 <= slope <= 1.05
        assert r2 > 0.99

    def test_rejects_bad_data(self):
        with pytest.raises(ValueError):
            loglog_slope([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            loglog_slope([1.0, 2.0, -3.0], [1.0, 2.0, 3.0])
