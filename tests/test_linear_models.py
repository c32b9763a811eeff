from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

import rankevidence.linear_models as linear_models
from rankevidence._linalg import NumericalError, numerical_rank, spectral_rank
from rankevidence._rng import substream
from rankevidence.evidence import GaussianLinearProblem, evidence_record
from rankevidence.linear_models import (
    DataGenConfig,
    RankRegressionSpec,
    make_rank_r_factor,
    make_spec,
    population_gram,
    rank_r_factors,
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


def _two_call_factor(p, d, r, seed, attempt=0):
    """A factor drawn for one (rank, seed) alone, the reference for
    rank_r_factors: U (p x r), then V (d x r), from a fresh ("factor",
    attempt) stream, and U V^T."""
    rng = substream(seed, "factor", attempt)
    U = rng.standard_normal((p, r))
    V = rng.standard_normal((d, r))
    return U @ V.T


class TestRankRFactors:
    @pytest.mark.parametrize("p,d", [(6, 6), (8, 3), (50, 50)])
    def test_shared_draw_equals_two_call_construction(self, p, d):
        """Every rank's factors, read off one draw per seed, equal the
        two-call construction bit for bit, and so does make_rank_r_factor;
        the SVD returned with them is the SVD of the stack."""
        ranks = list(range(1, min(p, d) + 1))
        seeds = [0, 7, 2**64 - 1]
        for r, (B, U, s) in zip(ranks, rank_r_factors(p, d, ranks, seeds)):
            assert B.shape == (len(seeds), p, d)
            for seed, B_seed in zip(seeds, B):
                np.testing.assert_array_equal(B_seed, _two_call_factor(p, d, r, seed))
                np.testing.assert_array_equal(make_rank_r_factor(p, d, r, seed), B_seed)
            U_ref, s_ref, _ = np.linalg.svd(B, full_matrices=False)
            np.testing.assert_array_equal(U, U_ref)
            np.testing.assert_array_equal(s, s_ref)

    def test_failed_check_redraws_from_the_next_stream(self, monkeypatch):
        """A factor whose rank check fails at attempt 0 is redrawn alone,
        from its attempt-1 stream, and checked again, while the next rank
        still reads the seed's attempt-0 draw; a factor that fails 8 checks
        raises."""
        real = linear_models.spectral_rank
        calls = []

        def failing_once(s, size):
            ranks = real(s, size)
            if not calls:
                ranks[1] -= 1   # the rank-3 factor of seed 7
            calls.append(ranks.tolist())
            return ranks

        monkeypatch.setattr(linear_models, "spectral_rank", failing_once)
        (B, U, s), (B_2, _, _) = rank_r_factors(6, 5, [3, 2], [0, 7, 9])
        assert calls == [[3, 2, 3], [3, 3, 3], [2, 2, 2]]
        np.testing.assert_array_equal(B[1], _two_call_factor(6, 5, 3, 7, attempt=1))
        np.testing.assert_array_equal(B[0], _two_call_factor(6, 5, 3, 0))
        np.testing.assert_array_equal(B[2], _two_call_factor(6, 5, 3, 9))
        np.testing.assert_array_equal(s, np.linalg.svd(B, full_matrices=False)[1])
        np.testing.assert_array_equal(B_2[1], _two_call_factor(6, 5, 2, 7))

        monkeypatch.setattr(linear_models, "spectral_rank", lambda s, size: real(s, size) - 1)
        with pytest.raises(NumericalError, match="in 8 attempts"):
            make_rank_r_factor(6, 5, 3, seed=0)

    def test_rank_rule_counts_values_above_the_scaled_eps(self):
        """The rank rule shared by numerical_rank, the evidence batch, the
        Gram-spectrum checks and the factor check: a value counts when it
        exceeds max * size * eps, along the last axis of a stack."""
        eps = np.finfo(float).eps
        s = np.array([[2.0, 2.0 * 6 * eps * 1.01, 2.0 * 6 * eps * 0.99],
                      [1.0, 0.5, 0.0]])
        assert spectral_rank(s, 6).tolist() == [2, 2]
        assert spectral_rank(s, 7).tolist() == [1, 2]

    def test_rank_check_agrees_with_numerical_rank(self):
        """On the 120 factors of the default sweep (ranks 1-6, seeds 0-19),
        the check on the stack's singular values gives numerical_rank's
        answer, and that is the rank drawn."""
        ranks, seeds = [1, 2, 3, 4, 5, 6], list(range(20))
        for r, (B, _, s) in zip(ranks, rank_r_factors(6, 6, ranks, seeds)):
            assert spectral_rank(s, 6).tolist() == [numerical_rank(b) for b in B] == [r] * 20


class TestSpec:
    def test_dimensions_and_rank_read_off_the_factor(self):
        """A spec built by hand has the shape and rank of its factor, a zero
        factor rank 0; a factor that is not a nonempty matrix, or a
        theta_star of the wrong length, is rejected."""
        B = np.zeros((4, 3))
        B[0, 0] = 1.0
        spec = RankRegressionSpec(B_star=B, theta_star=np.zeros(3), sigma2=1.0, tau2=1.0)
        assert (spec.p, spec.d, spec.r) == (4, 3, 1)
        assert replace(spec, B_star=np.zeros((4, 3))).r == 0
        for bad in ({"B_star": np.zeros(3)}, {"B_star": np.zeros((0, 3))},
                    {"theta_star": np.zeros(4)}):
            with pytest.raises(ValueError):
                replace(spec, **bad)

    def test_rank_is_computed_once_and_only_when_read(self, monkeypatch):
        """make_spec checks its factor's rank with one SVD; the spec computes
        r on first read, with one more, and keeps it."""
        calls = []
        real_svd = np.linalg.svd

        def counting(M, *args, **kwargs):
            calls.append(M.shape)
            return real_svd(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        spec = make_spec(6, 5, 3, seed=2)
        assert calls == [(1, 6, 5)]
        assert spec.r == spec.r == 3
        assert calls == [(1, 6, 5), (6, 5)]

    def test_nonpositive_variances_rejected(self):
        B = make_rank_r_factor(3, 3, 2, seed=1)
        theta = np.zeros(3)
        with pytest.raises(ValueError):
            RankRegressionSpec(B_star=B, theta_star=theta, sigma2=0.0, tau2=1.0)
        with pytest.raises(ValueError):
            RankRegressionSpec(B_star=B, theta_star=theta, sigma2=1.0, tau2=-1.0)

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

    @pytest.mark.parametrize("seed,n,pinned", [
        (3, 4, (97.67484897674174, -106.02441518149965,
                -127.83722379414993, 215.58310922574842)),
        (3, 500, (17358.94631737504, -17229.10890550596,
                  -14395.580107013611, 64246.168355932874)),
        (0, 10**9, (5143703106.681373, -6194486662.581335,
                    -18446461337.27687, 171389490600.96088)),
    ])
    def test_draws_pinned(self, seed, n, pinned):
        """S[0, 0], S[2, 5], b[-1] and yy of fixed draws on both branches.  A
        change to the "wishart" stream or to the order of its draws moves
        them by O(1) relative; rtol 1e-13 leaves room only for the summation
        order of another BLAS."""
        stats = sample_statistics(make_spec(6, 6, 3, seed=seed), n, DataGenConfig(seed=seed))
        got = (stats.S[0, 0], stats.S[2, 5], stats.b[-1], stats.yy)
        np.testing.assert_allclose(got, pinned, rtol=1e-13, atol=0)

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
        spec = RankRegressionSpec(B_star=B, theta_star=np.zeros(4), sigma2=1.0, tau2=1.0)
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
