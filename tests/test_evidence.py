import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from rankevidence._linalg import NumericalError
from rankevidence.evidence import (
    GaussianLinearProblem,
    SufficientStatistics,
    bic_score,
    evidence_record,
    exact_log_evidence,
    full_laplace_log_evidence,
    mle_fit_term,
    posterior,
    rlct_score,
)
from rankevidence.linear_models import (
    DataGenConfig,
    make_spec,
    sample_dataset,
    sample_statistics,
)

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
        alpha = prob.alpha
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
            SufficientStatistics(n=3, S=np.eye(2), b=np.zeros(3), yy=1.0, sigma2=1.0, tau2=1.0)


def _mpmath_reference(stats, rank):
    """(log_z_exact, log_lik_mle, their difference) at 50 digits from the same
    float S, b and yy: the fit is the pseudoinverse on the top ``rank``
    eigen-directions of S, the evidence uses every eigenvalue."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        s_vals, Q = mpmath.eigsy(mpmath.matrix(stats.S.tolist()))
        c = Q.T * mpmath.matrix(stats.b.tolist())
        order = sorted(range(len(s_vals)), key=lambda i: s_vals[i], reverse=True)
        sigma2 = mpmath.mpf(stats.sigma2)
        alpha = mpmath.mpf(stats.tau2) / sigma2
        const = stats.n * mpmath.log(2 * mpmath.pi * sigma2)
        logdet = mpmath.fsum(mpmath.log1p(alpha * s) for s in s_vals)
        shrunk = mpmath.fsum(alpha * c[i] ** 2 / (1 + alpha * s_vals[i])
                             for i in range(len(s_vals)))
        fitted = mpmath.fsum(c[i] ** 2 / s_vals[i] for i in order[:rank])
        yy = mpmath.mpf(stats.yy)
        log_z = -(const + logdet + (yy - shrunk) / sigma2) / 2
        fit = -(const + (yy - fitted) / sigma2) / 2
        return float(log_z), float(fit), float(fit - log_z)


@pytest.mark.parametrize("rank", [1, 3, 6])
@pytest.mark.parametrize("n,route", [
    (10**2, "data"), (10**4, "data"), (10**6, "data"), (10**9, "wishart"),
])
def test_precision_against_mpmath(rank, n, route):
    """log_lik_mle, log_z_exact and their difference agree with a 50-digit
    evaluation from the same float statistics to 1e-12 nats per observation,
    for statistics formed from data and drawn from the Wishart law."""
    spec = make_spec(6, 6, rank, seed=0)
    gen = DataGenConfig(seed=0)
    if route == "data":
        ds = sample_dataset(spec, n, gen)
        prob = GaussianLinearProblem(A=ds.A, y=ds.y, sigma2=spec.sigma2, tau2=spec.tau2)
        rec, stats = evidence_record(prob, lam=rank / 2.0), prob.statistics()
    else:
        stats = sample_statistics(spec, n, gen)
        rec = evidence_record(stats, lam=rank / 2.0)
    ref_z, ref_fit, ref_centered = _mpmath_reference(stats, rank)
    tol = 1e-12 * n
    assert abs(rec.log_lik_mle - ref_fit) <= tol
    assert abs(rec.log_z_exact - ref_z) <= tol
    assert abs((rec.log_lik_mle - rec.log_z_exact) - ref_centered) <= tol


def test_kept_rank_equals_true_rank():
    """The rank decision on S keeps exactly r eigenvalues in every cell, for
    Wishart-drawn statistics from n = 7 to 1e9 and for A^T A up to 12,800."""
    small = [7, 10, 20] + DEFAULT_GRID
    for rank in range(1, 7):
        for seed in range(20):
            spec = make_spec(6, 6, rank, seed=seed)
            gen = DataGenConfig(seed=seed)
            for n in small + [10**6, 10**7, 10**8, 10**9]:
                rec = evidence_record(sample_statistics(spec, n, gen), lam=rank / 2.0)
                assert rec.rank == rank, (rank, seed, n)
            for n in small:
                ds = sample_dataset(spec, n, gen)
                prob = GaussianLinearProblem(A=ds.A, y=ds.y, sigma2=1.0, tau2=1.0)
                assert evidence_record(prob, lam=rank / 2.0).rank == rank, (rank, seed, n)
