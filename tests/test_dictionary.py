import math

import numpy as np
import pytest
import scipy.stats

from rankevidence._linalg import spectral_rank
from rankevidence.dictionary import (
    DictionarySpec,
    DictionaryStatistics,
    comparison_batch,
    dict_log_likelihood,
    dictionary_comparison,
    gram_spectrum,
    make_dictionary_pair,
    marginal_covariance,
    ml_fit_term,
    sample_dictionary_data,
    sample_dictionary_statistics,
)
from rankevidence.rlct import fit_log_n_slope

LOG_2PI = math.log(2 * math.pi)


class TestMarginalCovariance:
    def test_zero_dictionary(self):
        spec = DictionarySpec(np.zeros((3, 2)), tau2=1.0, sigma2=2.0)
        np.testing.assert_allclose(marginal_covariance(spec), 2.0 * np.eye(3), rtol=1e-14)

    def test_unit_column(self):
        spec = DictionarySpec(np.array([[1.0], [0.0]]), tau2=1.0, sigma2=1.0)
        np.testing.assert_allclose(marginal_covariance(spec), np.diag([2.0, 1.0]), rtol=1e-14)

    def test_invariant_under_right_rotation(self):
        """D R R^T D^T = D D^T for orthogonal R."""
        rng = np.random.default_rng(0)
        D = rng.standard_normal((5, 3))
        R, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a = marginal_covariance(DictionarySpec(D, 1.0, 1.0))
        b = marginal_covariance(DictionarySpec(D @ R, 1.0, 1.0))
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestDictLogLikelihood:
    def test_zero_dictionary_zero_data(self):
        spec = DictionarySpec(np.zeros((4, 2)), tau2=1.0, sigma2=1.0)
        data = DictionaryStatistics(n=1, Y=np.zeros((1, 4)))
        np.testing.assert_allclose(
            dict_log_likelihood(spec, data), -2.0 * math.log(2 * math.pi), rtol=1e-13
        )

    def test_scalar_case(self):
        """p = d = 1 with D = 1 and unit variances: y ~ N(0, 2)."""
        spec = DictionarySpec(np.array([[1.0]]), tau2=1.0, sigma2=1.0)
        data = DictionaryStatistics(n=1, Y=np.zeros((1, 1)))
        np.testing.assert_allclose(
            dict_log_likelihood(spec, data), -0.5 * math.log(4 * math.pi), rtol=1e-13
        )

    def test_against_dense_inverse(self):
        """Naive dense det/inverse evaluation must agree."""
        rng = np.random.default_rng(4)
        D = rng.standard_normal((5, 3))
        spec = DictionarySpec(D, tau2=0.8, sigma2=1.3)
        Y = rng.standard_normal((3, 5))
        data = DictionaryStatistics(n=3, Y=Y)
        sigma_y = 0.8 * D @ D.T + 1.3 * np.eye(5)
        inv = np.linalg.inv(sigma_y)
        _, logdet = np.linalg.slogdet(sigma_y)
        expected = sum(
            -0.5 * (5 * LOG_2PI + logdet + y @ inv @ y) for y in Y
        )
        assert abs(dict_log_likelihood(spec, data) - expected) < 1e-9

    def test_invariant_under_right_rotation(self):
        rng = np.random.default_rng(5)
        D = rng.standard_normal((6, 4))
        R, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        spec_a = DictionarySpec(D, 1.0, 1.0)
        spec_b = DictionarySpec(D @ R, 1.0, 1.0)
        data = sample_dictionary_data(spec_a, 40, seed=9)
        a = dict_log_likelihood(spec_a, data)
        b = dict_log_likelihood(spec_b, data)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_dimension_mismatch_rejected(self):
        spec = DictionarySpec(np.zeros((4, 2)), 1.0, 1.0)
        with pytest.raises(ValueError):
            dict_log_likelihood(spec, DictionaryStatistics(n=2, Y=np.zeros((2, 5))))

    def test_matches_scipy_multivariate_normal(self):
        """scipy's row-by-row logpdf as the reference, on both members of
        pairs of three shapes, two variance settings and n = 1..5000.
        Measured worst relative residual: 4.0e-16 (1.8 eps); bound 16 eps."""
        worst = 0.0
        for seed in range(10):
            variances = {"tau2": 0.7, "sigma2": 1.4} if seed % 2 else {}
            for p, r, d_over in ((8, 3, 6), (4, 1, 3), (10, 5, 9)):
                for spec in make_dictionary_pair(p, r, d_over, seed, **variances):
                    for n in (1, 7, 200, 5000):
                        data = sample_dictionary_data(spec, n, seed)
                        expected = float(np.sum(scipy.stats.multivariate_normal.logpdf(
                            data.Y, mean=np.zeros(p), cov=marginal_covariance(spec))))
                        got = dict_log_likelihood(spec, data)
                        worst = max(worst, abs(got - expected) / abs(expected))
        assert worst <= 16 * np.finfo(float).eps


class TestSampleDictionaryData:
    def test_determinism(self):
        spec = DictionarySpec(np.eye(3), 1.0, 1.0)
        a = sample_dictionary_data(spec, 25, seed=2)
        b = sample_dictionary_data(spec, 25, seed=2)
        np.testing.assert_array_equal(a.Y, b.Y)

    def test_small_scales_give_small_output(self):
        spec = DictionarySpec(np.eye(3), tau2=1e-12, sigma2=1e-12)
        data = sample_dictionary_data(spec, 100, seed=3)
        assert np.max(np.abs(data.Y)) < 1e-4

    def test_empirical_covariance_matches_marginal(self):
        """100k samples: empirical second moment within 5% of the marginal."""
        rng = np.random.default_rng(6)
        D = rng.standard_normal((4, 2))
        spec = DictionarySpec(D, tau2=1.5, sigma2=0.7)
        data = sample_dictionary_data(spec, 100_000, seed=6)
        emp = data.Y.T @ data.Y / data.n
        target = marginal_covariance(spec)
        assert np.linalg.norm(emp - target) / np.linalg.norm(target) < 0.05


class TestSampleDictionaryStatistics:
    def test_dataset_and_its_statistics_agree(self):
        """The n data rows and the rows ``R`` of their QR factor, whose scatter
        ``R^T R`` is the data's, give the same likelihood and fit."""
        for seed, n in [(0, 5), (1, 50), (2, 800)]:
            pair = make_dictionary_pair(8, 3, 6, seed=seed)
            data = sample_dictionary_data(pair[0], n, seed)
            stats = DictionaryStatistics(n=n, Y=np.linalg.qr(data.Y, mode="r"))
            assert data.n == n and data.YY.shape == stats.YY.shape == (8, 8)
            for spec in pair:
                a, b = dict_log_likelihood(spec, data), dict_log_likelihood(spec, stats)
                assert abs(a - b) <= 1e-12 * abs(a)
                a, b = ml_fit_term(data, spec.d, 1.0), ml_fit_term(stats, spec.d, 1.0)
                assert abs(a - b) <= 1e-12 * abs(a)

    def test_determinism_bitwise(self):
        minimal, _ = make_dictionary_pair(8, 3, 6, seed=4)
        for n in (3, 500):
            a = sample_dictionary_statistics(minimal, n, seed=4)
            b = sample_dictionary_statistics(minimal, n, seed=4)
            np.testing.assert_array_equal(a.YY, b.YY)

    def test_small_n_scatter_has_rank_n(self):
        """n < p draws the data matrix itself; the scatter then has rank n."""
        minimal, _ = make_dictionary_pair(8, 3, 6, seed=5)
        for n in (1, 3, 7):
            stats = sample_dictionary_statistics(minimal, n, seed=5)
            assert stats.n == n
            np.testing.assert_array_equal(stats.YY, stats.YY.T)
            eigs = np.linalg.eigvalsh(stats.YY)
            assert int(np.sum(eigs > 1e-12 * eigs.max())) == n

    def test_law_of_large_numbers_at_1e9(self):
        rng = np.random.default_rng(11)
        spec = DictionarySpec(rng.standard_normal((5, 2)), tau2=1.5, sigma2=0.7)
        stats = sample_dictionary_statistics(spec, 10**9, seed=11)
        target = marginal_covariance(spec)
        np.testing.assert_allclose(stats.YY / stats.n, target, rtol=0,
                                   atol=1e-3 * np.abs(target).max())

    def test_bad_inputs(self):
        minimal, _ = make_dictionary_pair(8, 3, 6, seed=0)
        with pytest.raises(ValueError):
            sample_dictionary_statistics(minimal, 0, seed=0)
        for n in (0, -1):   # the statistics' check, and the stream index's
            with pytest.raises(ValueError):
                sample_dictionary_data(minimal, n, seed=0)
        with pytest.raises(ValueError):
            dict_log_likelihood(minimal, DictionaryStatistics(n=10, Y=np.eye(5)))
        with pytest.raises(ValueError):
            DictionaryStatistics(n=10, Y=np.ones(8))
        with pytest.raises(ValueError):
            DictionaryStatistics(n=-5, Y=np.ones((2, 8)))

    @pytest.mark.parametrize("n", [5, 50, 800])
    def test_same_law_as_direct_draws(self, n):
        """Two-sample KS over 400 seeds per side: the Wishart scatter and the
        scatter of directly drawn data give the same law of the exact log
        likelihood and of the ML fit.  n = 5 < p is the direct branch."""
        minimal, _ = make_dictionary_pair(8, 3, 6, seed=0)
        draws = {"wishart": [], "direct": []}
        for seed in range(400):
            for side, data in (("wishart", sample_dictionary_statistics(minimal, n, seed)),
                               ("direct", sample_dictionary_data(minimal, n, seed))):
                draws[side].append((dict_log_likelihood(minimal, data),
                                    ml_fit_term(data, 3, minimal.sigma2)))
        wishart, direct = np.array(draws["wishart"]), np.array(draws["direct"])
        for k in range(2):
            assert scipy.stats.ks_2samp(wishart[:, k], direct[:, k]).pvalue > 0.01


class TestMakeDictionaryPair:
    def test_projectors_agree(self):
        """Both members project onto the same column span."""
        for seed in range(5):
            minimal, over = make_dictionary_pair(8, 3, 6, seed=seed)
            P_min = minimal.D @ minimal.D.T                      # orthonormal columns
            U, s, _ = np.linalg.svd(over.D, full_matrices=False)
            keep = s > s.max() * max(over.D.shape) * np.finfo(float).eps
            Ur = U[:, keep]
            P_over = Ur @ Ur.T
            np.testing.assert_allclose(P_min, P_over, atol=1e-10)

    def test_same_marginal_law(self):
        minimal, over = make_dictionary_pair(8, 3, 6, seed=1)
        np.testing.assert_allclose(
            marginal_covariance(minimal), marginal_covariance(over), atol=1e-12
        )

    def test_span_dimensions(self):
        minimal, over = make_dictionary_pair(7, 2, 5, seed=3)
        assert minimal.r == over.r == 2
        assert minimal.d == 2 and over.d == 5

    def test_overcomplete_gram_rank(self):
        minimal, over = make_dictionary_pair(8, 3, 6, seed=4)
        eigs = np.linalg.eigvalsh(over.D.T @ over.D)
        tol = eigs.max() * 8 * np.finfo(float).eps
        assert int(np.sum(eigs > tol)) == 3

    def test_degenerate_requests_rejected(self):
        with pytest.raises(ValueError):
            make_dictionary_pair(8, 3, 3, seed=0)    # d_over == r
        with pytest.raises(ValueError):
            make_dictionary_pair(2, 3, 6, seed=0)    # r > p


class TestGramSpectrum:
    def test_orthonormal_columns(self):
        minimal, _ = make_dictionary_pair(8, 3, 6, seed=0)
        np.testing.assert_allclose(gram_spectrum(minimal), np.ones(3), atol=1e-12)

    def test_overcomplete_shape(self):
        """r large eigenvalues, d_over - r near zero."""
        _, over = make_dictionary_pair(8, 3, 6, seed=0)
        eigs = gram_spectrum(over)
        assert eigs.shape == (6,)
        assert np.all(np.diff(eigs) <= 1e-12)   # descending
        assert spectral_rank(eigs, max(over.p, over.d)) == 3
        assert np.max(np.abs(eigs[3:])) < 1e-12

    def test_zero_dictionary(self):
        spec = DictionarySpec(np.zeros((4, 3)), 1.0, 1.0)
        np.testing.assert_array_equal(gram_spectrum(spec), np.zeros(3))
        assert spectral_rank(gram_spectrum(spec), 4) == 0


class TestMlFitTerm:
    def test_all_eigenvalues_below_noise_clamp_to_isotropic(self):
        rng = np.random.default_rng(7)
        Y = 0.01 * rng.standard_normal((50, 4))
        data = DictionaryStatistics(n=50, Y=Y)
        fit = ml_fit_term(data, shape_d=2, sigma2=1.0)
        C = Y.T @ Y / 50
        expected = -0.5 * 50 * (4 * LOG_2PI + 4 * math.log(1.0) + np.trace(C) / 1.0)
        np.testing.assert_allclose(fit, expected, rtol=1e-12)

    def test_full_shape_unclamped_is_unconstrained_ml(self):
        """shape_d >= p with all sample eigenvalues above sigma2 gives the
        unconstrained Gaussian maximum."""
        rng = np.random.default_rng(8)
        Y = 5.0 * rng.standard_normal((200, 3))
        data = DictionaryStatistics(n=200, Y=Y)
        ell = np.linalg.eigvalsh(Y.T @ Y / 200)
        assert ell.min() > 1.0
        fit = ml_fit_term(data, shape_d=3, sigma2=1.0)
        expected = -0.5 * 200 * (3 * LOG_2PI + float(np.sum(np.log(ell) + 1.0)))
        np.testing.assert_allclose(fit, expected, rtol=1e-12)

    def test_fit_increases_with_shape(self):
        minimal, _ = make_dictionary_pair(8, 3, 6, seed=9)
        data = sample_dictionary_data(minimal, 300, seed=9)
        fits = [ml_fit_term(data, k, 1.0) for k in range(0, 9)]
        assert all(b >= a - 1e-9 for a, b in zip(fits, fits[1:]))

    def test_shape_gap_bounded_on_low_rank_data(self):
        """Extra columns beyond the data rank gain only O(1): the gap stays
        bounded over the grid and shows no log-n growth at the penalty rate."""
        points = []
        for n in [50, 100, 200, 400, 800, 1600, 3200, 6400, 12800]:
            gaps = []
            for seed in range(8):
                minimal, _ = make_dictionary_pair(8, 3, 6, seed=seed)
                data = sample_dictionary_data(minimal, n, seed=seed)
                gap = ml_fit_term(data, 6, 1.0) - ml_fit_term(data, 3, 1.0)
                assert gap >= -1e-9
                gaps.append(gap)
            assert max(gaps) < 15.0
            points.append((n, float(np.mean(gaps))))
        # far below the 1.5-per-log-n rate that separate penalties would add
        assert abs(fit_log_n_slope(points).slope) < 0.75

    def test_degenerate_data_rejected(self):
        with pytest.raises(ValueError):
            ml_fit_term(DictionaryStatistics(n=0, Y=np.zeros((0, 3))), 2, 1.0)


class TestDictionaryComparison:
    def test_rlct_scores_equal_under_common_fit(self):
        pair = make_dictionary_pair(8, 3, 6, seed=0)
        comp = dictionary_comparison(pair, 200, seed=0)
        assert comp.rlct_minimal == comp.rlct_overcomplete

    def test_bic_gap_is_penalty_difference(self):
        """With a common fit term the BIC gap at n=200 is 1.5 log 200, the
        7.95 separating the reference minimal and overcomplete scores."""
        pair = make_dictionary_pair(8, 3, 6, seed=0)
        comp = dictionary_comparison(pair, 200, seed=0)
        gap = comp.bic_minimal - comp.bic_overcomplete
        np.testing.assert_allclose(gap, 1.5 * math.log(200), rtol=1e-12)
        assert abs(gap - 7.95) < 5e-3

    def test_exact_gap_bounded_in_n(self):
        """log p(data | D) - log p(data | D') stays flat as n grows."""
        pair = make_dictionary_pair(8, 3, 6, seed=1)
        pts = []
        for n in [50, 200, 800, 3200, 12800]:
            comp = dictionary_comparison(pair, n, seed=1)
            pts.append((n, comp.exact_minimal - comp.exact_overcomplete))
        assert abs(fit_log_n_slope(pts).slope) < 0.1

    def test_ml_variant_scores_use_own_fit(self):
        pair = make_dictionary_pair(8, 3, 6, seed=2)
        comp = dictionary_comparison(pair, 400, seed=2)
        assert comp.bic_overcomplete_ml == pytest.approx(
            comp.fit_overcomplete - 3.0 * math.log(400), rel=1e-12
        )
        assert comp.fit_overcomplete >= comp.fit_minimal - 1e-9

    def test_exact_loglik_shared_by_construction(self):
        """The pair fixes one marginal law, so the two exact log likelihoods
        coincide."""
        pair = make_dictionary_pair(8, 3, 6, seed=3)
        comp = dictionary_comparison(pair, 200, seed=3)
        assert abs(comp.exact_minimal - comp.exact_overcomplete) < 1e-8

    def test_mismatched_pair_rejected(self):
        a, _ = make_dictionary_pair(8, 3, 6, seed=0)
        b, _ = make_dictionary_pair(8, 2, 6, seed=0)
        with pytest.raises(ValueError):
            dictionary_comparison((a, b), 100, seed=0)

    def test_one_stacked_svd_per_member(self, monkeypatch):
        """The span check of 20 pairs takes one SVD of each member's stack,
        2 calls, not one per spec."""
        pairs = [make_dictionary_pair(8, 3, 6, seed=seed) for seed in range(20)]
        shapes, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda M, **kwargs: shapes.append(np.shape(M)) or svd(M, **kwargs))
        comparison_batch(pairs, [50, 100], list(range(20)))
        assert shapes == [(20, 8, 3), (20, 8, 6)]

    def test_smaller_span_of_a_later_pair_rejected(self):
        """The third pair's overcomplete member has the shape of the others,
        (8, 6), but a span of 2, not 3: the stacked span check rejects it."""
        pairs = [make_dictionary_pair(8, 3, 6, seed=seed) for seed in range(3)]
        _, narrow = make_dictionary_pair(8, 2, 6, seed=2)
        assert narrow.D.shape == pairs[2][1].D.shape and narrow.r == 2
        pairs[2] = (pairs[2][0], narrow)
        with pytest.raises(ValueError, match="span"):
            comparison_batch(pairs, [50, 100], [0, 1, 2])
