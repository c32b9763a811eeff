import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from rankevidence._linalg import NumericalError
from rankevidence.dictionary import (
    DictionarySpec,
    DictionaryStatistics,
    comparison_batch,
    make_dictionary_pair,
    ml_fit_term,
)
from rankevidence.evidence import (
    LOG_2PI,
    GaussianLinearProblem,
    SufficientStatistics,
    bic_score,
    evidence_record,
    exact_log_evidence,
    full_laplace_log_evidence,
    log_joint,
    log_n,
    mle_fit_term,
    posterior,
    rlct_score,
    root_evidence_batch,
    stack_statistics,
)
from rankevidence.linear_models import (
    DataGenConfig,
    make_spec,
    sample_dataset,
    sample_statistics,
)
from rankevidence.oracle import importance_log_weights

DEFAULT_GRID = [50 * 2**k for k in range(9)]


def _random_problem(rng, d, n, sigma2=None, tau2=None):
    sigma2 = sigma2 if sigma2 is not None else float(rng.uniform(0.3, 3.0))
    tau2 = tau2 if tau2 is not None else float(rng.uniform(0.3, 3.0))
    A = rng.standard_normal((n, d))
    theta = math.sqrt(tau2) * rng.standard_normal(d)
    y = A @ theta + math.sqrt(sigma2) * rng.standard_normal(n)
    return GaussianLinearProblem(A=A, y=y, sigma2=sigma2, tau2=tau2)


def _quad_reference_1d(prob):
    """Independent brute-force evidence for d = 1: raw scipy quadrature of
    the joint density, no shared code with the closed form.  The domain is
    centered on the spike from first principles (normal-equation scalar
    algebra) and the integrand is exp-shifted to dodge underflow."""
    a = prob.A[:, 0]
    precision = a @ a / prob.sigma2 + 1.0 / prob.tau2
    center = (a @ prob.y / prob.sigma2) / precision
    width = 1.0 / math.sqrt(precision)

    def log_joint(t):
        resid = prob.y - a * t
        return float(
            np.sum(scipy.stats.norm.logpdf(resid, scale=math.sqrt(prob.sigma2)))
        ) + float(scipy.stats.norm.logpdf(t, scale=math.sqrt(prob.tau2)))

    shift = log_joint(center)
    val, _ = scipy.integrate.quad(
        lambda t: math.exp(log_joint(t) - shift),
        center - 20 * width,
        center + 20 * width,
        epsabs=0.0,
        epsrel=1e-11,
        limit=200,
    )
    return shift + math.log(val)


class TestExactLogEvidence:
    def test_single_zero_observation(self):
        """A=0, y=0, unit variances: evidence is the N(0,1) density at 0."""
        prob = GaussianLinearProblem(A=np.zeros((1, 1)), y=np.zeros(1), sigma2=1.0, tau2=1.0)
        np.testing.assert_allclose(
            exact_log_evidence(prob), -0.5 * math.log(2 * math.pi), rtol=1e-14
        )

    def test_zero_design_reduces_to_noise_density(self):
        """With A = 0 the prior integrates out and only the noise density remains."""
        rng = np.random.default_rng(1)
        y = rng.standard_normal(7)
        prob = GaussianLinearProblem(A=np.zeros((7, 3)), y=y, sigma2=2.5, tau2=4.0)
        expected = float(np.sum(scipy.stats.norm.logpdf(y, scale=math.sqrt(2.5))))
        np.testing.assert_allclose(exact_log_evidence(prob), expected, rtol=1e-12)

    def test_d1_against_raw_quadrature(self):
        prob = GaussianLinearProblem(
            A=np.array([[1.0], [1.0]]), y=np.array([1.0, -1.0]), sigma2=1.0, tau2=1.0
        )
        assert abs(exact_log_evidence(prob) - _quad_reference_1d(prob)) < 1e-8

    def test_d1_random_against_raw_quadrature(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            prob = _random_problem(rng, d=1, n=int(rng.integers(2, 30)))
            assert abs(exact_log_evidence(prob) - _quad_reference_1d(prob)) < 1e-8

    def test_wide_problem_uses_small_side(self):
        """n < d goes through the n-dimensional form; both must agree."""
        rng = np.random.default_rng(4)
        A = rng.standard_normal((3, 8))
        y = rng.standard_normal(3)
        prob = GaussianLinearProblem(A=A, y=y, sigma2=1.3, tau2=0.7)
        # d-dimensional route, assembled here from the same formula
        alpha = prob.tau2 / prob.sigma2
        cap = np.eye(8) + alpha * A.T @ A
        sign, logdet = np.linalg.slogdet(cap)
        assert sign > 0
        aty = A.T @ y
        quad = y @ y - alpha * aty @ np.linalg.solve(cap, aty)
        expected = -0.5 * (3 * math.log(2 * math.pi) + 3 * math.log(1.3) + logdet + quad / 1.3)
        np.testing.assert_allclose(exact_log_evidence(prob), expected, rtol=1e-12)

    def test_gram_sufficiency(self):
        """Rotating (A, y) by an orthogonal matrix preserves the sufficient
        statistics (S, A^T y, y^T y) and hence the evidence."""
        rng = np.random.default_rng(5)
        for _ in range(10):
            prob = _random_problem(rng, d=4, n=20)
            Q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
            rotated = GaussianLinearProblem(
                A=Q @ prob.A, y=Q @ prob.y, sigma2=prob.sigma2, tau2=prob.tau2
            )
            np.testing.assert_allclose(
                exact_log_evidence(rotated), exact_log_evidence(prob), rtol=1e-9
            )

    def test_nan_design_surfaces_numerical_error(self):
        A = np.full((3, 2), np.nan)
        prob = GaussianLinearProblem(A=A, y=np.zeros(3), sigma2=1.0, tau2=1.0)
        with pytest.raises(NumericalError):
            exact_log_evidence(prob)


class TestMleFitTerm:
    def test_exact_fit(self):
        prob = GaussianLinearProblem(
            A=np.array([[1.0], [1.0]]), y=np.array([1.0, 1.0]), sigma2=1.0, tau2=1.0
        )
        theta, log_lik = mle_fit_term(prob)
        np.testing.assert_allclose(theta, [1.0], rtol=1e-12)
        np.testing.assert_allclose(log_lik, -math.log(2 * math.pi), rtol=1e-12)

    def test_minimum_norm_on_row_design(self):
        """Pseudoinverse of a single row picks the shortest solution."""
        prob = GaussianLinearProblem(
            A=np.array([[1.0, 1.0]]), y=np.array([2.0]), sigma2=1.0, tau2=1.0
        )
        theta, _ = mle_fit_term(prob)
        np.testing.assert_allclose(theta, [1.0, 1.0], rtol=1e-12)

    def test_fit_matches_projector_residual_in_singular_design(self):
        """Independent route: residual through the column-space projector."""
        spec = make_spec(6, 6, 3, seed=13)
        ds = sample_dataset(spec, 100, DataGenConfig(seed=13))
        prob = GaussianLinearProblem(A=ds.A, y=ds.y, sigma2=1.0, tau2=1.0)
        _, log_lik = mle_fit_term(prob)

        U, s, _ = np.linalg.svd(ds.A, full_matrices=False)
        keep = s > s.max() * max(ds.A.shape) * np.finfo(float).eps
        Ur = U[:, keep]
        resid = ds.y - Ur @ (Ur.T @ ds.y)
        expected = -0.5 * (100 * math.log(2 * math.pi) + float(resid @ resid))
        assert abs(log_lik - expected) < 1e-9

    def test_fit_invariant_to_null_space_shifts(self):
        """Adding any null-space vector to theta_hat leaves the fit term alone."""
        spec = make_spec(6, 6, 2, seed=17)
        ds = sample_dataset(spec, 80, DataGenConfig(seed=17))
        prob = GaussianLinearProblem(A=ds.A, y=ds.y, sigma2=1.4, tau2=1.0)
        theta, log_lik = mle_fit_term(prob)
        _, s, Vt = np.linalg.svd(ds.A)
        null_basis = Vt[2:]   # rank 2 design in 6 dims
        rng = np.random.default_rng(0)
        for _ in range(5):
            shift = null_basis.T @ rng.standard_normal(null_basis.shape[0])
            resid = prob.y - prob.A @ (theta + shift)
            other = -0.5 * (
                prob.n * (math.log(2 * math.pi) + math.log(prob.sigma2))
                + float(resid @ resid) / prob.sigma2
            )
            assert abs(other - log_lik) < 1e-9


class TestScores:
    def test_bic_arithmetic(self):
        np.testing.assert_allclose(bic_score(0.0, 2, 100), -math.log(100), rtol=1e-14)

    def test_zero_dimension_is_free(self):
        assert bic_score(-3.25, 0, 1000) == -3.25

    def test_reference_minimal_dictionary_scores_are_consistent(self):
        """The reference minimal and overcomplete scores -293.80 and -301.75 differ
        by exactly the (d' - d)/2 penalty gap at n = 200."""
        gap = bic_score(0.0, 3, 200) - bic_score(0.0, 6, 200)
        assert abs(gap - (-293.80 - (-301.75))) < 5e-3
        fit = -293.80 + 1.5 * math.log(200)
        assert abs(bic_score(fit, 3, 200) - (-293.80)) < 1e-9

    def test_rlct_score_matches_bic_in_regular_case(self):
        assert rlct_score(-10.0, 2.0, 400) == bic_score(-10.0, 4, 400)

    def test_rlct_score_zero_lambda(self):
        assert rlct_score(-7.5, 0.0, 50) == -7.5

    def test_rejects_bad_sample_sizes(self):
        with pytest.raises(ValueError):
            bic_score(0.0, 2, 1)
        with pytest.raises(ValueError):
            bic_score(0.0, 2, 7.389)   # real-valued n is not allowed
        with pytest.raises(ValueError):
            rlct_score(0.0, -0.5, 100)

    def test_arrays_of_sizes_score_like_one_size_at_a_time(self):
        """log_n, bic_score and rlct_score take an array of sample sizes (an
        empty one too), and each entry is the one-size call's value, bit for
        bit: math.log's, at every size up to 2**64 - 1."""
        n = np.array([[2, 50, 12_800], [3**20, 2**62 + 1, 10**18]])
        fit = np.linspace(-5000.0, 3.0, 6).reshape(2, 3)
        logs, bic, rlct = log_n(n), bic_score(fit, 5, n), rlct_score(fit, 1.5, n)
        assert logs.shape == bic.shape == rlct.shape == n.shape
        for i in np.ndindex(n.shape):
            k, f = int(n[i]), float(fit[i])
            assert logs[i] == log_n(k) == math.log(k)
            assert bic[i] == bic_score(f, 5, k)
            assert rlct[i] == rlct_score(f, 1.5, k)
        top = np.array([2**64 - 1], dtype=np.uint64)
        assert log_n(top)[0] == log_n(2**64 - 1) == math.log(2**64 - 1)
        assert log_n(np.array([], dtype=int)).shape == log_n([]).shape == (0,)
        # a list mixing sizes past 2**63 with smaller ones, float64 to numpy
        assert log_n([5, 2**64 - 1]).tolist() == [math.log(5), math.log(2**64 - 1)]

    @pytest.mark.parametrize("n", [
        True, 1, -3, 7.389, 100.0, 2**64, np.float64(200.0),
        np.array([True, True]), [100, True], [100, 1], [100, 7.5], [100, 2**64],
        np.array([50.0, 100.0]), [2**64 - 1, True], [2**64 - 1, 1], [2**64 - 1, 7.5],
        [2**64 - 1, 2**64],
    ], ids=repr)
    def test_sizes_outside_the_log_n_rule_are_rejected(self, n):
        """bool, non-integer, < 2 and >= 2**64 sizes, alone or in an array."""
        for score in (log_n, lambda n: bic_score(0.0, 2, n), lambda n: rlct_score(0.0, 1.0, n)):
            with pytest.raises(ValueError, match="sample sizes must be integers"):
                score(n)


class TestLogJoint:
    def test_matches_the_data_form_on_a_stack(self):
        """The statistics form broadcasts over a (..., d) stack of parameters
        and equals the sum of normal log densities of the residuals plus
        the prior's."""
        rng = np.random.default_rng(6)
        prob = _random_problem(rng, d=3, n=40)
        thetas = rng.standard_normal((4, 5, 3))
        got = log_joint(prob, thetas)
        assert got.shape == (4, 5)
        for idx in np.ndindex(4, 5):
            t = thetas[idx]
            want = np.sum(
                scipy.stats.norm.logpdf(prob.y - prob.A @ t, scale=math.sqrt(prob.sigma2))
            ) + np.sum(scipy.stats.norm.logpdf(t, scale=math.sqrt(prob.tau2)))
            assert abs(got[idx] - want) < 1e-12 * abs(want)

    def test_a_stack_gives_each_member_its_one_problem_value(self):
        """Every variance at which ``np.log`` and ``math.log`` round
        differently (538 of 200,000 in [0.3, 3] on a CPU with AVX-512; with
        none, eight others): each member of a stack, with its own points,
        gets the bits of its one-problem call, and its logs are
        ``math.log``'s (at theta = 0 the log joint is a sum of Python floats;
        with ``np.log`` 23 of the 538 values differ there)."""
        grid = np.linspace(0.3, 3.0, 200_000)
        split = grid[np.log(grid) != np.array([math.log(v) for v in grid.tolist()])].tolist()
        variances = split or grid[:8].tolist()
        rng = np.random.default_rng(13)
        probs = [_random_problem(rng, d=3, n=20, sigma2=s2, tau2=t2)
                 for s2, t2 in zip(variances, variances[::-1])]
        thetas = rng.standard_normal((len(probs), 7, 3))
        got = log_joint(stack_statistics(probs), thetas)
        assert got.shape == (len(probs), 7)
        for prob, theta, value in zip(probs, thetas, got):
            assert np.array_equal(value, log_joint(prob, theta))
        at_zero = log_joint(stack_statistics(probs), np.zeros((len(probs), 1, 3)))[:, 0]
        assert at_zero.tolist() == [
            -0.5 * (p.n * (LOG_2PI + math.log(p.sigma2)) + 3 * (LOG_2PI + math.log(p.tau2))
                    + p.yy / p.sigma2) for p in probs]


class TestPosterior:
    def test_zero_design(self):
        prob = GaussianLinearProblem(A=np.zeros((4, 3)), y=np.ones(4), sigma2=2.0, tau2=0.5)
        post = posterior(prob)
        np.testing.assert_allclose(post.precision, np.eye(3) / 0.5, rtol=1e-14)
        np.testing.assert_allclose(post.mean, 0.0, atol=1e-14)

    def test_scalar_case(self):
        y = np.array([0.4, 2.0])
        prob = GaussianLinearProblem(A=np.array([[1.0], [1.0]]), y=y, sigma2=1.0, tau2=1.0)
        post = posterior(prob)
        np.testing.assert_allclose(post.precision, [[3.0]], rtol=1e-14)
        np.testing.assert_allclose(post.mean, [y.sum() / 3.0], rtol=1e-14)

    def test_defining_equation(self):
        """Lambda mu = A^T y / sigma2 must hold for the returned pair."""
        rng = np.random.default_rng(7)
        for _ in range(10):
            prob = _random_problem(rng, d=5, n=12)
            post = posterior(prob)
            lhs = post.precision @ post.mean
            rhs = prob.A.T @ prob.y / prob.sigma2
            np.testing.assert_allclose(lhs, rhs, atol=1e-10 * max(1.0, np.abs(rhs).max()))


class TestFullLaplace:
    def test_equals_exact_on_random_problems(self):
        """The log posterior is quadratic, so Laplace at the MAP is exact."""
        rng = np.random.default_rng(11)
        for _ in range(30):
            d = int(rng.integers(1, 21))
            n = int(rng.integers(2, 1001))
            prob = _random_problem(rng, d=d, n=n)
            exact = exact_log_evidence(prob)
            lap = full_laplace_log_evidence(prob)
            assert abs(lap - exact) / abs(exact) < 1e-8

    def test_zero_design_case(self):
        rng = np.random.default_rng(12)
        y = rng.standard_normal(6)
        prob = GaussianLinearProblem(A=np.zeros((6, 2)), y=y, sigma2=1.7, tau2=0.9)
        np.testing.assert_allclose(
            full_laplace_log_evidence(prob), exact_log_evidence(prob), rtol=1e-12
        )


class TestEvidenceRecord:
    def test_identity_holds_to_machine_precision(self):
        """delta_bic - delta_rlct = (lambda - d/2) log n for every record."""
        rng = np.random.default_rng(21)
        for _ in range(20):
            d = int(rng.integers(1, 10))
            n = int(rng.integers(2, 2000))
            lam = float(rng.integers(0, d + 1)) / 2.0
            prob = _random_problem(rng, d=d, n=n)
            rec = evidence_record(prob, lam=lam)
            lhs = rec.delta_bic - rec.delta_rlct
            rhs = (lam - d / 2.0) * math.log(n)
            assert abs(lhs - rhs) < 1e-12

    def test_fields_are_consistent(self):
        rng = np.random.default_rng(22)
        prob = _random_problem(rng, d=4, n=300)
        rec = evidence_record(prob, lam=1.0)
        assert rec.n == 300
        np.testing.assert_allclose(rec.log_z_exact, exact_log_evidence(prob), rtol=1e-14)
        np.testing.assert_allclose(
            rec.delta_bic, rec.log_z_bic - rec.log_z_exact, atol=1e-10
        )
        np.testing.assert_allclose(
            rec.delta_rlct, rec.log_z_rlct - rec.log_z_exact, atol=1e-10
        )

    def test_input_validation(self):
        with pytest.raises(ValueError):
            GaussianLinearProblem(A=np.zeros((3, 2)), y=np.zeros(4), sigma2=1.0, tau2=1.0)
        with pytest.raises(ValueError):
            GaussianLinearProblem(A=np.zeros((3, 2)), y=np.zeros(3), sigma2=-1.0, tau2=1.0)
        with pytest.raises(ValueError):
            SufficientStatistics(n=3, A=np.eye(2), y=np.zeros(3), sigma2=1.0, tau2=1.0)
        with pytest.raises(ValueError):
            SufficientStatistics(n=3, A=np.zeros(3), y=np.zeros(3), sigma2=1.0, tau2=1.0)

    def test_sizes_past_the_log_n_rule_are_rejected(self):
        """n = 2**64 is a ValueError naming n, and so is a non-integer size in
        a batch."""
        stats = SufficientStatistics(n=2**64, A=np.eye(2), y=np.ones(2), sigma2=1.0, tau2=1.0)
        with pytest.raises(ValueError, match=str(2**64)):
            evidence_record(stats, lam=0.5)
        with pytest.raises(ValueError, match="sample sizes must be integers"):
            root_evidence_batch(np.array([100.0]), np.eye(2)[None], np.ones((1, 2)), 2, 1.0, 1.0, 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_raises(self, bad):
        """A non-finite design row raises np.linalg.LinAlgError, the error the
        study turns into failed cells (an inf makes the SVD return NaN values
        without raising)."""
        stats = sample_statistics(make_spec(6, 6, 2, seed=0), 100, DataGenConfig(seed=0))
        A = stats.A.copy()
        A[3, 2] = bad
        with pytest.raises(np.linalg.LinAlgError):
            evidence_record(replace(stats, A=A), lam=1.0)

    def test_every_penalised_column_is_a_score_of_its_term(self):
        """Each penalised column of both study batches is bic_score or
        rlct_score of its fit or centered term, bit for bit, on stacks.  The
        centered term is root_evidence_batch's delta_rlct at lambda = 0."""
        rng = np.random.default_rng(7)
        n = np.array([3, 9170, 10**9])
        A, y = rng.standard_normal((2, 3, 7, 4)), rng.standard_normal((2, 3, 7))
        centered = root_evidence_batch(n, A, y, 6, 0.8, 1.7, 0.0)["delta_rlct"]
        out = root_evidence_batch(n, A, y, 6, 0.8, 1.7, 1.5)
        fit = out["log_lik_mle"]
        expected = {
            "log_z_bic": bic_score(fit, 6, n), "log_z_rlct": rlct_score(fit, 1.5, n),
            "delta_bic": bic_score(centered, 6, n), "delta_rlct": rlct_score(centered, 1.5, n),
        }
        pairs = [make_dictionary_pair(8, 3, 6, seed=seed) for seed in (2, 3)]
        minimal, overcomplete = pairs[0]
        grid = [50, 400, 9170, 10**9]
        scores = comparison_batch(pairs, grid, [2, 3])
        fit_min, fit_over = scores["fit_minimal"], scores["fit_overcomplete"]
        dict_expected = {
            "bic_minimal": bic_score(fit_min, minimal.d, grid),
            "bic_overcomplete": bic_score(fit_min, overcomplete.d, grid),
            "rlct_minimal": rlct_score(fit_min, 1.5, grid),
            "rlct_overcomplete": rlct_score(fit_min, 1.5, grid),
            "bic_overcomplete_ml": bic_score(fit_over, overcomplete.d, grid),
            "rlct_overcomplete_ml": rlct_score(fit_over, 1.5, grid),
        }
        for got, want in ((out, expected), (scores, dict_expected)):
            for name, value in want.items():
                assert got[name].shape == value.shape and (got[name] == value).all(), name

    def test_a_stack_of_cells_scores_like_its_flattened_batch(self):
        """A (2, 3, q, k) stack with n of shape (3,) broadcast against it gives
        the bits of the (6, q, k) call with n tiled, a rank-deficient cell too."""
        rng = np.random.default_rng(8)
        n = np.array([2, 400, 2**40])
        A, y = rng.standard_normal((2, 3, 5, 4)), rng.standard_normal((2, 3, 5))
        A[1, 0, :, 3] = A[1, 0, :, 0]
        stacked = root_evidence_batch(n, A, y, 6, 0.8, 1.7, 1.5)
        flat = root_evidence_batch(np.tile(n, 2), A.reshape(6, 5, 4), y.reshape(6, 5), 6, 0.8, 1.7, 1.5)
        assert flat["rank"].tolist() == [4, 4, 4, 3, 4, 4]
        for name, value in flat.items():
            assert stacked[name].shape == (2, 3)
            assert stacked[name].ravel().tolist() == value.tolist(), name


def _exact_products(stats, mpmath):
    """The Gram matrix of ``[A y]``, which holds ``S = A^T A``, ``b = A^T y``
    and ``yy = y^T y`` of the statistics' float rows, exactly, as an mpmath
    matrix.  A square root's few rows multiply in mpmath.  Data rows go
    through Ozaki's splitting: each column is cut into k slices of at most 15
    bits on a grid of its own, fine enough that the last leaves nothing, so a
    product of two slices and a sum of up to 2**22 of them are exact in
    float64, and the float Gram matrix of all k slices holds exact terms."""
    M = np.column_stack([stats.A, stats.y])
    if len(M) <= M.shape[1]:
        rows = mpmath.matrix(M.tolist())
        return rows.T * rows
    assert len(M) <= 2**22
    top = np.frexp(np.abs(M).max(axis=0))[1]           # |M| < 2**top by column
    low = np.frexp(np.abs(M[M != 0]).min())[1]        # ulp(M) >= 2**(low - 53)
    k, w = -(-(int(top.max()) - int(low) + 53) // 15), M.shape[1]
    G = np.zeros((k * w, k * w))
    for lo in range(0, len(M), 4096):                  # chunks of rows that stay in cache
        rest, slices, unit = M[lo:lo + 4096], [], np.ldexp(1.0, top)
        for _ in range(k):
            unit = unit * 2.0**-15
            big = 1.5 * 2.0**52 * unit                 # (x + big) - big rounds x to a multiple of unit
            slices.append((rest + big) - big)
            rest = rest - slices[-1]
        H = np.concatenate(slices, axis=1)
        G += H.T @ H
    G = G.reshape(k, w, k, w)
    return mpmath.matrix([[mpmath.fsum(mpmath.mpf(v) for v in G[:, c, :, d].ravel().tolist())
                           for d in range(w)] for c in range(w)])


def _mpmath_reference(stats, rank):
    """(log_z_exact, log_lik_mle, their difference) at 50 digits from the
    exact products of the statistics' float rows: the fit is the
    pseudoinverse on the top ``rank`` eigen-directions of S, the evidence
    uses every eigenvalue."""
    mpmath = pytest.importorskip("mpmath")
    d = stats.d
    with mpmath.workdps(50):
        G = _exact_products(stats, mpmath)
        S = mpmath.matrix([[G[r, c] for c in range(d)] for r in range(d)])
        s_vals, Q = mpmath.eigsy(S)
        c = Q.T * mpmath.matrix([G[r, d] for r in range(d)])
        order = sorted(range(len(s_vals)), key=lambda i: s_vals[i], reverse=True)
        sigma2 = mpmath.mpf(stats.sigma2)
        alpha = mpmath.mpf(stats.tau2) / sigma2
        const = stats.n * mpmath.log(2 * mpmath.pi * sigma2)
        logdet = mpmath.fsum(mpmath.log1p(alpha * s) for s in s_vals)
        shrunk = mpmath.fsum(alpha * c[i] ** 2 / (1 + alpha * s_vals[i])
                             for i in range(len(s_vals)))
        fitted = mpmath.fsum(c[i] ** 2 / s_vals[i] for i in order[:rank])
        yy = G[d, d]
        log_z = -(const + logdet + (yy - shrunk) / sigma2) / 2
        fit = -(const + (yy - fitted) / sigma2) / 2
        return float(log_z), float(fit), float(fit - log_z)


@pytest.mark.parametrize("rank", [1, 3, 6])
@pytest.mark.parametrize("n,route", [
    (10**2, "data"), (10**4, "data"), (10**6, "data"), (10**9, "wishart"),
])
def test_precision_against_mpmath(rank, n, route):
    """log_lik_mle, log_z_exact and their difference agree with a 50-digit
    evaluation from the same float rows to 1e-12 nats per observation, for
    the data themselves and for a Wishart root."""
    spec = make_spec(6, 6, rank, seed=0)
    gen = DataGenConfig(seed=0)
    if route == "data":
        ds = sample_dataset(spec, n, gen)
        stats = GaussianLinearProblem(A=ds.A, y=ds.y, sigma2=spec.sigma2, tau2=spec.tau2)
    else:
        stats = sample_statistics(spec, n, gen)
    rec = evidence_record(stats, lam=rank / 2.0)
    ref_z, ref_fit, ref_centered = _mpmath_reference(stats, rank)
    tol = 1e-12 * n
    assert abs(rec.log_lik_mle - ref_fit) <= tol
    assert abs(rec.log_z_exact - ref_z) <= tol
    assert abs((rec.log_lik_mle - rec.log_z_exact) - ref_centered) <= tol


def test_kept_rank_equals_true_rank():
    """The rank rule on the rows keeps exactly min(n, r) directions in every
    cell: at d = p = 6 for Wishart roots from n = 7 to 1e9 and data up to
    12,800, and at d = p = 50 (ranks 10, 25, 40 and 50) for Wishart roots on
    the default grid, 1e6 and 1e9 and data on the default grid.  A threshold
    of 1e-12 times the top eigenvalue of S kept too few in 27 of those 1,600
    d = 50 cells, 13 of them on data.  The ranks of a seed share the data's
    design rows X and responses: the kept count reads only the design X B."""
    small = [7, 10, 20] + DEFAULT_GRID
    for p, ranks, grid, large in ((6, range(1, 7), small, [10**6, 10**7, 10**8, 10**9]),
                                  (50, [10, 25, 40, 50], DEFAULT_GRID, [10**6, 10**9])):
        for seed in range(20):
            specs = [make_spec(p, p, rank, seed=seed) for rank in ranks]
            gen = DataGenConfig(seed=seed)
            for n in grid + large:
                for rank, spec in zip(ranks, specs):
                    rec = evidence_record(sample_statistics(spec, n, gen), lam=rank / 2.0)
                    assert rec.rank == rank, (p, rank, seed, n)
            for n in grid:
                ds = sample_dataset(specs[-1], n, gen)
                for rank, spec in zip(ranks, specs):
                    prob = GaussianLinearProblem(A=ds.X @ spec.B_star, y=ds.y, sigma2=1.0, tau2=1.0)
                    assert evidence_record(prob, lam=rank / 2.0).rank == min(n, rank), (
                        p, rank, seed, n)


@pytest.mark.parametrize("p, ranks, tol_z", [(6, (1, 3, 6), 1e-12), (50, (10, 25, 50), 1e-10)])
def test_cholesky_references_score_the_study_roots(p, ranks, tol_z):
    """``exact_log_evidence`` and ``mle_fit_term`` take a cell's Wishart root
    rows like data: on ``sample_statistics`` cells at d = p, seeds 0-9 and n
    from 2 to 1e9 they agree with ``evidence_record`` to a relative ``tol_z``
    on log Z and 1e-13 on the fit.  On this grid the worst are 6.0e-14
    (p = 6) and 1.4e-11 (p = 50) on log Z, margins 16x and 7x, and 2.3e-14
    on the fit, margin 4x; the closed form's O(n) cancellation is the larger
    error."""
    worst_z = worst_fit = 0.0
    for rank in ranks:
        for seed in range(10):
            spec = make_spec(p, p, rank, seed=seed)
            for n in (2, 3, 5, 10, p + 1, 100, 10**3, 10**5, 10**7, 10**9):
                stats = sample_statistics(spec, n, DataGenConfig(seed=seed))
                rec = evidence_record(stats, lam=rank / 2.0)
                log_z, fit = exact_log_evidence(stats), mle_fit_term(stats)[1]
                worst_z = max(worst_z, abs(log_z - rec.log_z_exact) / abs(log_z))
                worst_fit = max(worst_fit, abs(fit - rec.log_lik_mle) / abs(fit))
    assert worst_z < tol_z and worst_fit < 1e-13, (worst_z, worst_fit)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_variances_and_scales_outside_zero_to_inf_are_rejected(bad):
    """Every variance and the proposal scale must lie in (0, inf): a NaN, an
    infinity, zero or a negative value is a ``ValueError``, not a NaN or
    infinite score."""
    stats = GaussianLinearProblem(A=np.eye(3), y=np.ones(3), sigma2=1.0, tau2=1.0)
    calls = [
        lambda: GaussianLinearProblem(A=np.eye(3), y=np.ones(3), sigma2=bad, tau2=1.0),
        lambda: SufficientStatistics(n=5, A=np.eye(3), y=np.ones(3), sigma2=1.0, tau2=bad),
        lambda: make_spec(3, 3, 2, sigma2=bad),
        lambda: make_spec(3, 3, 2, tau2=bad),
        lambda: DictionarySpec(np.eye(3), 1.0, bad),
        lambda: DictionarySpec(np.eye(3), bad, 1.0),
        lambda: ml_fit_term(DictionaryStatistics(n=3, Y=np.eye(3)), 2, bad),
        lambda: importance_log_weights(stats, 2000, seed=0, proposal_scale=bad),
    ]
    for i, call in enumerate(calls):
        with pytest.raises(ValueError):
            call()
            pytest.fail(f"call {i} accepted {bad}")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_lambda_outside_zero_to_inf_is_rejected(bad):
    """lambda must lie in [0, inf) for both scores that read it."""
    stats = GaussianLinearProblem(A=np.eye(3), y=np.ones(3), sigma2=1.0, tau2=1.0)
    with pytest.raises(ValueError, match="lambda"):
        rlct_score(0.0, bad, 100)
    with pytest.raises(ValueError, match="lambda"):
        evidence_record(stats, lam=bad)
