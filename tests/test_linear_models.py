import numpy as np
import pytest
import scipy.stats

from rankevidence.evidence import GaussianLinearProblem, evidence_record
from rankevidence.linear_models import (
    DataGenConfig,
    RankRegressionSpec,
    make_rank_r_factor,
    make_spec,
    population_gram,
    sample_dataset,
    sample_statistics,
)


class TestMakeRankRFactor:
    def test_1x1_is_nonzero(self):
        B = make_rank_r_factor(1, 1, 1, seed=0)
        assert B.shape == (1, 1)
        assert B[0, 0] != 0.0

    def test_rank_is_exact(self):
        """SVD of the output must show exactly r values above the threshold."""
        B = make_rank_r_factor(6, 6, 3, seed=7)
        s = np.linalg.svd(B, compute_uv=False)
        tol = s.max() * 6 * np.finfo(float).eps
        assert int(np.sum(s > tol)) == 3

    @pytest.mark.parametrize("p,d,r", [(2, 3, 3), (3, 2, 3), (4, 4, 0), (4, 4, 5)])
    def test_bad_dimensions_rejected(self, p, d, r):
        with pytest.raises(ValueError):
            make_rank_r_factor(p, d, r, seed=0)

    def test_rank_exact_across_seeds(self):
        for seed in range(25):
            for r in (1, 3, 6):
                B = make_rank_r_factor(6, 6, r, seed=seed)
                s = np.linalg.svd(B, compute_uv=False)
                tol = s.max() * 6 * np.finfo(float).eps
                assert int(np.sum(s > tol)) == r


class TestSpec:
    def test_wrong_rank_matrix_rejected(self):
        B = np.zeros((4, 4))
        B[0, 0] = 1.0   # rank 1, claimed rank 2
        with pytest.raises(ValueError, match="rank"):
            RankRegressionSpec(
                p=4, d=4, r=2, B_star=B, theta_star=np.zeros(4), sigma2=1.0, tau2=1.0
            )

    def test_nonpositive_variances_rejected(self):
        B = make_rank_r_factor(3, 3, 2, seed=1)
        theta = np.zeros(3)
        with pytest.raises(ValueError):
            RankRegressionSpec(p=3, d=3, r=2, B_star=B, theta_star=theta, sigma2=0.0, tau2=1.0)
        with pytest.raises(ValueError):
            RankRegressionSpec(p=3, d=3, r=2, B_star=B, theta_star=theta, sigma2=1.0, tau2=-1.0)

    def test_theta_star_frozen_across_sample_sizes(self):
        spec = make_spec(6, 6, 3, seed=11)
        again = make_spec(6, 6, 3, seed=11)
        np.testing.assert_array_equal(spec.theta_star, again.theta_star)
        np.testing.assert_array_equal(spec.B_star, again.B_star)


class TestSampleDataset:
    def test_determinism_bitwise(self):
        spec = make_spec(4, 5, 2, seed=3)
        a = sample_dataset(spec, 50, DataGenConfig(seed=3))
        b = sample_dataset(spec, 50, DataGenConfig(seed=3))
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_different_n_streams_are_independent(self):
        spec = make_spec(4, 5, 2, seed=3)
        a = sample_dataset(spec, 50, DataGenConfig(seed=3))
        b = sample_dataset(spec, 60, DataGenConfig(seed=3))
        assert not np.array_equal(a.X, b.X[:50])

    def test_noiseless_limit(self):
        """With sigma2 -> 0 the responses collapse onto A theta_star."""
        spec = make_spec(4, 4, 2, sigma2=1e-12, seed=5)
        ds = sample_dataset(spec, 100, DataGenConfig(seed=5))
        assert np.max(np.abs(ds.y - ds.A @ spec.theta_star)) < 1e-5

    def test_effective_design_is_exact_product(self):
        spec = make_spec(5, 4, 2, seed=9)
        ds = sample_dataset(spec, 30, DataGenConfig(seed=9))
        np.testing.assert_array_equal(ds.A, ds.X @ spec.B_star)

    def test_empirical_gram_converges(self):
        """(1/n) A^T A approaches B^T B by the law of large numbers."""
        spec = make_spec(6, 6, 3, seed=2)
        ds = sample_dataset(spec, 100_000, DataGenConfig(seed=2))
        target = spec.B_star.T @ spec.B_star
        err = np.linalg.norm(ds.A.T @ ds.A / ds.n - target) / np.linalg.norm(target)
        assert err < 0.05

    def test_gram_error_decreases_with_n(self):
        """Median Frobenius error over 10 seeds shrinks monotonically in n."""
        medians = []
        for n in (100, 1000, 10_000, 100_000):
            errs = []
            for seed in range(10):
                spec = make_spec(6, 6, 3, seed=seed)
                ds = sample_dataset(spec, n, DataGenConfig(seed=seed))
                target = spec.B_star.T @ spec.B_star
                errs.append(np.linalg.norm(ds.A.T @ ds.A / n - target))
            medians.append(np.median(errs))
        assert all(b < a for a, b in zip(medians, medians[1:]))

    def test_bad_inputs(self):
        spec = make_spec(3, 3, 1, seed=0)
        with pytest.raises(ValueError):
            sample_dataset(spec, 0, DataGenConfig(seed=0))


class TestSampleStatistics:
    def test_determinism_bitwise(self):
        spec = make_spec(6, 6, 3, seed=3)
        for n in (4, 500):
            a = sample_statistics(spec, n, DataGenConfig(seed=3))
            b = sample_statistics(spec, n, DataGenConfig(seed=3))
            np.testing.assert_array_equal(a.S, b.S)
            np.testing.assert_array_equal(a.b, b.b)
            assert a.yy == b.yy

    def test_small_n_statistics_have_rank_n(self):
        """n <= p draws the data matrix itself; S then has rank min(n, r)."""
        spec = make_spec(6, 6, 6, seed=1)
        for n in (1, 3, 6):
            stats = sample_statistics(spec, n, DataGenConfig(seed=1))
            assert stats.n == n and stats.d == 6
            np.testing.assert_array_equal(stats.S, stats.S.T)
            eigs = np.linalg.eigvalsh(stats.S)
            assert int(np.sum(eigs > 1e-12 * eigs.max())) == n

    def test_law_of_large_numbers_at_1e9(self):
        """S/n, b/n and yy/n approach B^T B, B^T B theta and |B theta|^2 + sigma2."""
        spec = make_spec(6, 6, 3, sigma2=0.5, seed=2)
        stats = sample_statistics(spec, 10**9, DataGenConfig(seed=2))
        gram = population_gram(spec)
        mean = spec.B_star @ spec.theta_star
        np.testing.assert_allclose(stats.S / stats.n, gram, atol=1e-3 * np.abs(gram).max())
        np.testing.assert_allclose(
            stats.b / stats.n, gram @ spec.theta_star, rtol=0, atol=1e-3 * np.abs(mean).max()
        )
        assert abs(stats.yy / stats.n - (mean @ mean + 0.5)) < 1e-3 * (mean @ mean + 0.5)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            sample_statistics(make_spec(3, 3, 1, seed=0), 0, DataGenConfig(seed=0))

    @pytest.mark.parametrize("r,n", [(1, 5), (1, 10), (3, 200), (6, 200), (6, 2000)])
    def test_same_law_as_direct_draws(self, r, n):
        """Two-sample KS over 400 seeds per side: Wishart-drawn statistics and
        statistics of directly drawn data give the same law of log_lik_mle and
        of log_lik_mle - log_z_exact.  (1, 5) has n <= p, the direct branch."""
        spec = make_spec(6, 6, r, seed=0)
        wishart, direct = [], []
        for seed in range(400):
            gen = DataGenConfig(seed=seed)
            wishart.append(evidence_record(sample_statistics(spec, n, gen), lam=r / 2.0))
            ds = sample_dataset(spec, n, gen)
            prob = GaussianLinearProblem(A=ds.A, y=ds.y, sigma2=spec.sigma2, tau2=spec.tau2)
            direct.append(evidence_record(prob, lam=r / 2.0))
        for quantity in (lambda rec: rec.log_lik_mle,
                         lambda rec: rec.log_lik_mle - rec.log_z_exact):
            p = scipy.stats.ks_2samp([quantity(rec) for rec in wishart],
                                     [quantity(rec) for rec in direct]).pvalue
            assert p > 0.01


class TestPopulationGram:
    def test_orthonormal_columns_give_projector_spectrum(self):
        """Orthonormal B columns: eigenvalues are r ones and d - r zeros."""
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        B = np.zeros((6, 4))
        B[:, :2] = Q
        spec = RankRegressionSpec(
            p=6, d=4, r=2, B_star=B, theta_star=np.zeros(4), sigma2=1.0, tau2=1.0
        )
        eigs = np.sort(np.linalg.eigvalsh(population_gram(spec)))[::-1]
        np.testing.assert_allclose(eigs[:2], 1.0, atol=1e-12)
        np.testing.assert_allclose(eigs[2:], 0.0, atol=1e-12)

    def test_rank_matches_r(self):
        spec = make_spec(6, 6, 3, seed=4)
        eigs = np.linalg.eigvalsh(population_gram(spec))
        tol = eigs.max() * 6 * np.finfo(float).eps
        assert int(np.sum(eigs > tol)) == 3

    def test_symmetric_psd(self):
        spec = make_spec(5, 6, 2, seed=8)
        G = population_gram(spec)
        np.testing.assert_allclose(G, G.T, atol=1e-12)
        assert np.linalg.eigvalsh(G).min() > -1e-10
