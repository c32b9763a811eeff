import math

import numpy as np
import pytest

from rankevidence.rlct import (
    analytic_rlct,
    estimate_rlct_from_slope,
    fit_log_n_slope,
    log_n_slopes,
    predicted_bic_error_slope,
)


class TestAnalyticRlct:
    def test_zero_rank(self):
        assert analytic_rlct(0) == 0.0

    def test_rank_three(self):
        assert analytic_rlct(3) == 1.5

    def test_regular_case_matches_half_dimension(self):
        """At full rank the coefficient is the usual d/2."""
        for d in range(1, 9):
            assert analytic_rlct(d) == d / 2.0

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            analytic_rlct(-1)


class TestFitLogNSlope:
    def test_exact_line(self):
        ns = [50, 100, 200, 400, 800]
        pts = [(n, 3.0 - 2.0 * math.log(n)) for n in ns]
        np.testing.assert_allclose(fit_log_n_slope(pts), -2.0, rtol=1e-12)

    def test_two_points(self):
        slope = fit_log_n_slope([(10, 1.0), (100, 3.0)])
        np.testing.assert_allclose(slope, 2.0 / (math.log(100) - math.log(10)), rtol=1e-12)
        # a list mixing a size past 2**63 with a smaller one (float64 to numpy)
        top = 1.0 / (math.log(2**64 - 1) - math.log(5))
        np.testing.assert_allclose(fit_log_n_slope([(5, 0.0), (2**64 - 1, 1.0)]), top, rtol=1e-12)
        np.testing.assert_allclose(log_n_slopes([5, 2**64 - 1], np.array([0.0, 1.0])), top, rtol=1e-12)

    def test_residuals_orthogonal_to_regressors(self):
        """With the intercept the slope implies, the residuals are
        orthogonal to the constant and to log n: the OLS normal equations."""
        rng = np.random.default_rng(0)
        ns = [50, 75, 150, 400, 900, 2000]
        vals = rng.standard_normal(len(ns)) * 5
        slope = fit_log_n_slope(list(zip(ns, vals)))
        x = np.log(ns)
        resid = vals - (vals.mean() - slope * x.mean() + slope * x)
        assert abs(resid.sum()) < 1e-10
        assert abs(resid @ x) < 1e-10

    def test_affine_equivariance(self):
        """Scaling all values by c scales the slope by c."""
        rng = np.random.default_rng(1)
        ns = [10, 40, 90, 500]
        vals = rng.standard_normal(4)
        base = fit_log_n_slope(list(zip(ns, vals)))
        scaled = fit_log_n_slope(list(zip(ns, 3.0 * vals)))
        np.testing.assert_allclose(scaled, 3.0 * base, rtol=1e-12)

    def test_shift_changes_only_intercept(self):
        """Adding a constant to every value leaves the slope alone."""
        rng = np.random.default_rng(2)
        ns = [10, 40, 90, 500]
        vals = rng.standard_normal(4)
        base = fit_log_n_slope(list(zip(ns, vals)))
        shifted = fit_log_n_slope(list(zip(ns, vals + 7.0)))
        np.testing.assert_allclose(shifted, base, atol=1e-12)

    def test_slope_consistency_under_noise(self):
        """On v = a + b log n + N(0, 0.01) noise, the mean fitted slope over
        50 replications lands within 2 standard errors of b."""
        rng = np.random.default_rng(3)
        ns = [50 * 2**k for k in range(8)]
        a, b = 1.3, -0.7
        slopes = []
        for _ in range(50):
            vals = [a + b * math.log(n) + 0.1 * rng.standard_normal() for n in ns]
            slopes.append(fit_log_n_slope(list(zip(ns, vals))))
        slopes = np.array(slopes)
        sem = slopes.std(ddof=1) / math.sqrt(len(slopes))
        assert abs(slopes.mean() - b) < 2 * sem + 1e-12

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            fit_log_n_slope([(100, 1.0)])
        with pytest.raises(ValueError):
            fit_log_n_slope([(100, 1.0), (100, 2.0)])
        with pytest.raises(ValueError):
            fit_log_n_slope([(1, 1.0), (100, 2.0)])
        with pytest.raises(ValueError, match="distinct"):
            log_n_slopes([100, 100, 100], np.zeros((2, 3)))
        # sizes are integers, as for the scores' log n: a float size is rejected
        with pytest.raises(ValueError, match="integers"):
            log_n_slopes([50.0, 100.0], np.zeros(2))
        with pytest.raises(ValueError, match="integers"):
            fit_log_n_slope([(50, 1.0), (100.0, 2.0)])
        with pytest.raises(ValueError, match="integers"):
            fit_log_n_slope([(2**64 - 1, 1.0), (100.0, 2.0)])
        # two distinct sizes that share one float log: no slope, not NaN
        assert math.log(2**64 - 2) == math.log(2**64 - 1)
        with pytest.raises(ValueError, match="distinct"):
            fit_log_n_slope([(2**64 - 2, 0.0), (2**64 - 1, 1.0)])
        with pytest.raises(ValueError, match="distinct"):
            log_n_slopes([2**64 - 2, 2**64 - 1], np.zeros(2))


class TestLogNSlopes:
    @pytest.mark.parametrize("m", range(2, 16))
    def test_closed_form_matches_polyfit(self, m):
        """The broadcast slopes and fit_log_n_slope equal np.polyfit's
        degree-1 fit on random (k, m) stacks, sample sizes up to 2**32 - 1."""
        rng = np.random.default_rng(m)
        ns = np.sort(rng.choice(2**32 - 2, size=m, replace=False) + 2)
        ns[-1] = 2**32 - 1
        values = rng.standard_normal((7, m)) * rng.uniform(0.1, 1e3, size=(7, 1))
        coefs = np.array([np.polyfit(np.log(ns.astype(float)), v, 1) for v in values])
        np.testing.assert_allclose(log_n_slopes(ns, values), coefs[:, 0], rtol=1e-12, atol=1e-12)
        for v, slope in zip(values, coefs[:, 0]):
            np.testing.assert_allclose(fit_log_n_slope(zip(ns.tolist(), v)), slope, rtol=1e-12, atol=1e-12)

    def test_broadcasts_over_leading_axes(self):
        rng = np.random.default_rng(0)
        ns = [50, 100, 200, 400]
        values = rng.standard_normal((3, 5, 4))
        got = log_n_slopes(ns, values)
        assert got.shape == (3, 5)
        np.testing.assert_allclose(got[2, 4], log_n_slopes(ns, values[2, 4]), rtol=1e-14)


class TestEstimateRlct:
    def test_recovers_lambda_from_exact_line(self):
        ns = [50, 100, 200, 400]
        pts = [(n, 4.2 - 1.5 * math.log(n)) for n in ns]
        np.testing.assert_allclose(estimate_rlct_from_slope(pts), 1.5, rtol=1e-12)

    def test_recovers_lambda_without_intercept(self):
        ns = [50, 100, 200, 400]
        pts = [(n, -3.0 * math.log(n)) for n in ns]
        np.testing.assert_allclose(estimate_rlct_from_slope(pts), 3.0, rtol=1e-12)


class TestPredictedSlopes:
    def test_regular_model_has_zero_error_slope(self):
        assert predicted_bic_error_slope(6, 6) == 0.0
        # +0.0, not -0.0, which formats as "-0.00" in the summary
        assert math.copysign(1.0, predicted_bic_error_slope(6, 6)) == 1.0

    def test_d6_values(self):
        assert predicted_bic_error_slope(6, 1) == -2.5
        assert predicted_bic_error_slope(6, 4) == -1.0

    def test_invalid_rank_rejected(self):
        with pytest.raises(ValueError):
            predicted_bic_error_slope(4, 5)
