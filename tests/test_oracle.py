import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.stats

import rankevidence
import rankevidence.oracle as oracle
from rankevidence._linalg import spd_cholesky
from rankevidence.evidence import (
    GaussianLinearProblem,
    SufficientStatistics,
    evidence_record,
    exact_log_evidence,
    log_joint,
    posterior,
)
from rankevidence.linear_models import DataGenConfig, make_spec, sample_statistics
from rankevidence.oracle import (
    OracleError,
    importance_log_evidence,
    importance_log_weights,
    quadrature_batch,
    quadrature_log_evidence,
    random_problem,
)


def _verify_problems() -> list:
    """The statistics of the 100 quadrature problems ``rankevidence verify`` draws."""
    rng = np.random.default_rng(2024)
    return [random_problem(rng, max_d=2, max_n=50) for _ in range(100)]


def _nested_quad_log_evidence(stats: SufficientStatistics) -> float:
    """The oracle as it was before the batched cubature, kept here as the
    slow reference: scipy's QUADPACK on the raw joint, one scalar integrand
    call per point, nested for d = 2 over the same whitened box."""
    post = posterior(stats)
    mu = post.mean
    radius = oracle.RADIUS
    log_peak = float(log_joint(stats, mu))
    yty, b, S = stats.yy, stats.b, stats.S
    const = -0.5 * (
        stats.n * (math.log(2.0 * math.pi) + math.log(stats.sigma2))
        + stats.d * (math.log(2.0 * math.pi) + math.log(stats.tau2))
    )
    inv_s2, inv_t2 = 1.0 / stats.sigma2, 1.0 / stats.tau2
    quad = dict(epsabs=0.0, epsrel=oracle.REL_TOL, limit=oracle.MAX_BOXES)
    with warnings.catch_warnings():
        warnings.simplefilter("error", scipy.integrate.IntegrationWarning)
        if stats.d == 1:
            b0, s00 = float(b[0]), float(S[0, 0])

            def log_f(t: float) -> float:
                rss = yty - 2.0 * b0 * t + s00 * t * t
                return const - 0.5 * (rss * inv_s2 + t * t * inv_t2)

            sd = 1.0 / math.sqrt(post.precision[0, 0])
            value, _ = scipy.integrate.quad(
                lambda t: math.exp(log_f(t) - log_peak),
                mu[0] - radius * sd, mu[0] + radius * sd, **quad,
            )
            return log_peak + math.log(value)
        L = spd_cholesky(post.precision)
        log_jacobian = -float(np.sum(np.log(np.diag(L))))
        T = scipy.linalg.solve_triangular(L, np.eye(2), lower=True, trans="T")
        t00, t01, t10, t11 = float(T[0, 0]), float(T[0, 1]), float(T[1, 0]), float(T[1, 1])
        m0, m1 = float(mu[0]), float(mu[1])
        b0, b1 = float(b[0]), float(b[1])
        s00, s01, s11 = float(S[0, 0]), float(S[0, 1]), float(S[1, 1])

        def integrand(u0: float, u1: float) -> float:
            th0 = m0 + t00 * u0 + t01 * u1
            th1 = m1 + t10 * u0 + t11 * u1
            rss = yty - 2.0 * (b0 * th0 + b1 * th1) + (
                s00 * th0 * th0 + 2.0 * s01 * th0 * th1 + s11 * th1 * th1
            )
            log_f = const - 0.5 * (rss * inv_s2 + (th0 * th0 + th1 * th1) * inv_t2)
            return math.exp(log_f - log_peak)

        def inner(u0: float) -> float:
            return scipy.integrate.quad(
                lambda u1: integrand(u0, u1), -radius, radius,
                **dict(quad, epsrel=oracle.REL_TOL * 0.1),
            )[0]

        value, _ = scipy.integrate.quad(inner, -radius, radius, **quad)
        return log_peak + log_jacobian + math.log(value)


class TestQuadrature:
    def test_zero_design_matches_analytic(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(5)
        prob = GaussianLinearProblem(A=np.zeros((5, 1)), y=y, sigma2=1.8, tau2=0.6)
        expected = float(np.sum(scipy.stats.norm.logpdf(y, scale=math.sqrt(1.8))))
        assert abs(quadrature_log_evidence(prob) - expected) < 1e-10

    def test_d1_reference_problem(self):
        prob = GaussianLinearProblem(
            A=np.array([[1.0], [1.0]]), y=np.array([1.0, -1.0]), sigma2=1.0, tau2=1.0
        )
        assert abs(quadrature_log_evidence(prob) - exact_log_evidence(prob)) < 1e-8

    def test_d2_random_problems(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            prob = random_problem(rng, max_d=2, max_n=20)
            assert abs(quadrature_log_evidence(prob) - exact_log_evidence(prob)) < 1e-6

    def test_d3_rejected(self):
        prob = GaussianLinearProblem(A=np.zeros((4, 3)), y=np.zeros(4), sigma2=1.0, tau2=1.0)
        with pytest.raises(ValueError):
            quadrature_log_evidence(prob)

    def test_matches_nested_quadpack_reference(self):
        """The batched cubature and the scalar nested QUADPACK reference
        agree on d = 1 and d = 2 problems."""
        rng = np.random.default_rng(8)
        dims = []
        for _ in range(10):
            prob = random_problem(rng, max_d=2, max_n=50)
            dims.append(prob.d)
            ref = _nested_quad_log_evidence(prob)
            assert abs(quadrature_log_evidence(prob) - ref) < 1e-9, prob.d
        assert set(dims) == {1, 2}

    def test_wrong_posterior_cannot_bias_the_value(self, monkeypatch):
        """The posterior only places the integration box, and the integrand is
        still the true joint.  Centred 3 posterior standard deviations off
        the mean in the posterior metric, the box still holds all but about
        1e-18 of the mass.  Centred 3 marginal standard deviations off in
        every coordinate, a strongly correlated posterior can leave the box,
        and the density on its faces must make the oracle refuse rather
        than return a value short of the mass outside."""
        def whitened(post):
            L = spd_cholesky(post.precision)
            step = np.full(post.mean.size, 3.0 / math.sqrt(post.mean.size))
            return scipy.linalg.solve_triangular(L, step, lower=True, trans="T")

        def marginal(post):
            return 3.0 * np.sqrt(np.diag(np.linalg.inv(post.precision)))

        rng = np.random.default_rng(11)
        problems = [random_problem(rng, max_d=2, max_n=50) for _ in range(20)]
        refused = {}
        for shift in (whitened, marginal):
            def shifted(stats, shift=shift):
                post = posterior(stats)
                return replace(post, mean=post.mean + shift(post))

            monkeypatch.setattr(oracle, "posterior", shifted)
            refused[shift] = 0
            for prob in problems:
                try:
                    value = quadrature_log_evidence(prob)
                except OracleError:
                    refused[shift] += 1
                    continue
                assert abs(value - exact_log_evidence(prob)) < 1e-9
        assert refused[marginal] >= 1

    def test_nonconvergence_is_an_error_not_a_silent_pass(self, monkeypatch):
        """A box of half-width 1e7 posterior standard deviations puts every
        node of the rule and of its first split at least 3e4 deviations from
        the mean, where the joint density underflows to 0; the oracle must
        refuse the zero mass rather than return log 0 or a doubtful value."""
        rng = np.random.default_rng(6)
        prob = random_problem(rng, max_d=1, max_n=40, min_n=20)
        monkeypatch.setattr(oracle, "RADIUS", 1e7)
        monkeypatch.setattr(oracle, "MAX_BOXES", 10)
        with pytest.raises(OracleError, match="non-positive mass"):
            quadrature_log_evidence(prob)

    def test_box_budget_exhaustion_is_an_error(self, monkeypatch):
        """At the default radius this problem needs one split: a budget of one
        box must raise, a budget of two converges to the closed form."""
        rng = np.random.default_rng(6)
        prob = random_problem(rng, max_d=1, max_n=40, min_n=20)
        monkeypatch.setattr(oracle, "MAX_BOXES", 1)
        with pytest.raises(OracleError, match="did not converge"):
            quadrature_log_evidence(prob)
        monkeypatch.setattr(oracle, "MAX_BOXES", 2)
        assert abs(quadrature_log_evidence(prob) - exact_log_evidence(prob)) < 1e-9


class TestQuadratureBatch:
    def test_batch_equals_one_problem_calls(self):
        """Integrating the verify problems of both d together gives each
        problem its own value.  Worst measured: 3.6e-15."""
        stats = _verify_problems()
        assert {s.d for s in stats} == {1, 2}
        for s, value in zip(stats, quadrature_batch(stats)):
            assert abs(value - quadrature_log_evidence(s)) <= 1e-13

    def test_chunk_size_does_not_move_the_values(self, monkeypatch):
        """One box per node chunk gives the values of the default chunks.
        Worst measured: 7.1e-15."""
        stats = _verify_problems()
        values = quadrature_batch(stats)
        monkeypatch.setattr(oracle, "_CHUNK_NODES", 1)
        np.testing.assert_allclose(quadrature_batch(stats), values, rtol=0.0, atol=1e-14)

    def test_refusal_names_the_problem(self, monkeypatch):
        """A box centred 30 posterior standard deviations off one problem's
        mean refuses that problem, by its index in the batch, and returns no
        value for the others."""
        stats = _verify_problems()[:10]
        bad = stats[3]

        def shifted(s):
            post = posterior(s)
            if s is not bad:
                return post
            step = np.full(s.d, 30.0 / math.sqrt(s.d))
            return replace(post, mean=post.mean + np.linalg.solve(post.chol.T, step))

        monkeypatch.setattr(oracle, "posterior", shifted)
        with pytest.raises(OracleError, match=r"^problem 3: the integration box"):
            quadrature_batch(stats)
        monkeypatch.setattr(oracle, "MAX_BOXES", 1)
        with pytest.raises(OracleError, match=r"^problem \d+: quadrature did not converge"):
            quadrature_batch(stats[:3])


class TestOraclesOnStudyCells:
    """The oracles read the Wishart-drawn statistics the studies draw
    (``sample_statistics``) and agree with the record the studies compute
    from them (``evidence_record``).

    Both bounds grow with n because the stats-form log joint rounds at about
    eps * yy / sigma2.  The grids stop where that rounding starts to decide
    the result: from n ~ 1e6-1e7 the cubature no longer converges and
    raises OracleError, and above n = 1e4 the conjugate-proposal weight
    variance leaves its 1e-18 bound (8.7e-18 at n = 1e5).
    """

    def test_quadrature_matches_record(self):
        """Worst measured: 6.6e-15 * n (n = 1e3)."""
        for r in (1, 2):
            for seed in range(10):
                spec = make_spec(2, 2, r, seed=seed)
                for n in (2, 3, 5, 10, 50, 10**3, 10**4, 10**5):
                    stats = sample_statistics(spec, n, DataGenConfig(seed=seed))
                    record = evidence_record(stats, lam=r / 2.0)
                    assert abs(quadrature_log_evidence(stats) - record.log_z_exact) < 1e-13 * n

    def test_importance_matches_record(self):
        """Worst measured: weight variance 1.1e-19, |estimate - record|
        1.4e-13 * n (n = 3)."""
        for r in (1, 3, 5):
            for seed in range(10):
                spec = make_spec(5, 5, r, seed=seed)
                for n in (2, 3, 5, 10, 50, 10**3, 10**4):
                    stats = sample_statistics(spec, n, DataGenConfig(seed=seed))
                    record = evidence_record(stats, lam=r / 2.0)
                    assert float(np.var(importance_log_weights(stats, 2000, seed=seed))) < 1e-18
                    est, _ = importance_log_evidence(stats, 2000, seed=seed)
                    assert abs(est - record.log_z_exact) < 1e-12 * n


class TestImportanceSampling:
    def test_conjugate_proposal_weights_are_degenerate(self):
        """The proposal equals the posterior, so log weights are constant:
        their variance is pure floating-point noise."""
        rng = np.random.default_rng(2)
        for i in range(5):
            prob = random_problem(rng, max_d=5, max_n=100, min_n=5)
            logw = importance_log_weights(prob, 2000, seed=i)
            assert float(np.var(logw)) < 1e-18

    def test_estimate_matches_exact_with_tiny_stderr(self):
        rng = np.random.default_rng(3)
        for i in range(5):
            prob = random_problem(rng, max_d=5, max_n=100, min_n=5)
            est, stderr = importance_log_evidence(prob, 2000, seed=i)
            assert stderr < 1e-10
            assert abs(est - exact_log_evidence(prob)) <= 3 * stderr + 1e-9

    def test_widened_proposal_still_consistent(self):
        rng = np.random.default_rng(4)
        for i in range(5):
            prob = random_problem(rng, max_d=4, max_n=60, min_n=5)
            est, stderr = importance_log_evidence(
                prob, 20_000, seed=i, proposal_scale=2.0
            )
            assert stderr > 0
            assert abs(est - exact_log_evidence(prob)) <= 4 * stderr

    def test_stderr_shrinks_at_monte_carlo_rate(self):
        """1e3 vs 1e5 samples: stderr should drop by roughly sqrt(100)."""
        rng = np.random.default_rng(5)
        prob = random_problem(rng, max_d=3, max_n=40, min_n=5)
        _, se_small = importance_log_evidence(prob, 1000, seed=7, proposal_scale=2.0)
        _, se_big = importance_log_evidence(prob, 100_000, seed=7, proposal_scale=2.0)
        ratio = se_small / se_big
        assert 4.0 < ratio < 25.0

    def test_input_validation(self):
        prob = GaussianLinearProblem(A=np.zeros((4, 6)), y=np.zeros(4), sigma2=1.0, tau2=1.0)
        with pytest.raises(ValueError):
            importance_log_evidence(prob, 2000, seed=0)     # d > 5
        small = GaussianLinearProblem(A=np.zeros((4, 2)), y=np.zeros(4), sigma2=1.0, tau2=1.0)
        with pytest.raises(ValueError):
            importance_log_evidence(small, 100, seed=0)     # too few samples


def test_package_import_leaves_scipy_integrate_unloaded():
    """The quadrature oracle integrates with its own numpy cubature, so
    neither importing the package and its CLI nor running the whole verify
    sweep in a fresh interpreter loads scipy.integrate."""
    src = str(Path(rankevidence.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, rankevidence, rankevidence.cli; "
            "rankevidence.cli.run_verification(); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
