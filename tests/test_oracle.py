import math
import os
import subprocess
import sys
import tracemalloc
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
from rankevidence import cli
from rankevidence._linalg import spd_cholesky
from rankevidence._rng import wishart_root
from rankevidence.evidence import (
    GaussianLinearProblem,
    SufficientStatistics,
    evidence_record,
    exact_log_evidence,
    full_laplace_log_evidence,
    log_joint,
    per_dimension,
    posterior,
    root_evidence_batch,
    stack_statistics,
)
from rankevidence.linear_models import DataGenConfig, make_spec, sample_statistics
from rankevidence.oracle import (
    OracleError,
    importance_estimate,
    importance_log_evidence,
    importance_log_weights,
    quadrature_batch,
    quadrature_log_evidence,
    random_problem,
)


def _all_verify_problems() -> tuple[list, list, list]:
    """The quadrature, MAP-Laplace and importance problems of
    ``rankevidence verify``, drawn in its order, each on a Wishart root."""
    rng = np.random.default_rng(2024)
    return ([random_problem(rng, max_d=2, max_n=50) for _ in range(100)],
            [random_problem(rng, max_d=20, max_n=1000, min_n=5) for _ in range(200)],
            [random_problem(rng, max_d=5, max_n=200, min_n=5) for _ in range(20)])


def _verify_problems() -> list:
    """The statistics of the 100 quadrature problems ``rankevidence verify`` draws."""
    return _all_verify_problems()[0]


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
            d = post.mean.shape[-1]
            step = np.full(d, 3.0 / math.sqrt(d))
            return np.stack([scipy.linalg.solve_triangular(spd_cholesky(P), step, lower=True,
                                                           trans="T") for P in post.precision])

        def marginal(post):
            return 3.0 * np.sqrt(np.diagonal(np.linalg.inv(post.precision), axis1=-2, axis2=-1))

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


def _einsum_nodes(mean, T, centres, half, points) -> np.ndarray:
    """The cubature's nodes ``theta = mean + T u`` as it built them before
    its plane-by-plane sums, kept here as the reference for
    ``oracle._nodes``: one einsum over (d, boxes, nodes) views."""
    u = centres.T[:, :, None] + half * points.T[:, None, :]
    return (mean.T[:, :, None] + np.einsum("bij,jbk->ibk", T, u)).transpose(1, 2, 0)


class TestQuadratureBatch:
    def test_batch_equals_one_problem_calls(self):
        """Integrating the verify problems of both d together gives each
        problem its own value.  Worst measured: 0.0."""
        stats = _verify_problems()
        assert {s.d for s in stats} == {1, 2}
        for s, value in zip(stats, quadrature_batch(stats)):
            assert abs(value - quadrature_log_evidence(s)) <= 1e-13

    def test_chunk_size_does_not_move_the_values(self, monkeypatch):
        """One box per node chunk gives the values of the default chunks.
        Worst measured: 8.9e-16."""
        stats = _verify_problems()
        values = quadrature_batch(stats)
        monkeypatch.setattr(oracle, "_CHUNK_NODES", 1)
        np.testing.assert_allclose(quadrature_batch(stats), values, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("chunk", [oracle._CHUNK_NODES, 1000])
    def test_nodes_equal_the_einsum_reference(self, monkeypatch, chunk):
        """On verify's 100 problems, at the default node chunk and at one
        that splits the rounds differently, the plane-by-plane nodes give
        the values of the einsum nodes bit for bit."""
        stats = _verify_problems()
        monkeypatch.setattr(oracle, "_CHUNK_NODES", chunk)
        values = quadrature_batch(stats)
        monkeypatch.setattr(oracle, "_nodes", _einsum_nodes)
        assert np.array_equal(quadrature_batch(stats), values)

    def test_refusal_names_the_problem(self, monkeypatch):
        """A box centred 30 posterior standard deviations off one problem's
        mean refuses that problem, by its index in the batch, and returns no
        value for the others."""
        stats = _verify_problems()[:10]
        bad = stats[3]

        def shifted(s):
            post = posterior(s)
            d = post.mean.shape[-1]
            hit = (s.yy == bad.yy) & (s.n == bad.n) & (d == bad.d)   # the stack's member `bad`
            step = np.full(d, 30.0 / math.sqrt(d))[:, None]
            shift = np.linalg.solve(post.chol.swapaxes(-1, -2), step)[..., 0]
            return replace(post, mean=post.mean + hit[:, None] * shift)

        monkeypatch.setattr(oracle, "posterior", shifted)
        with pytest.raises(OracleError, match=r"^problem 3: the integration box"):
            quadrature_batch(stats)
        monkeypatch.setattr(oracle, "MAX_BOXES", 1)
        with pytest.raises(OracleError, match=r"^problem \d+: quadrature did not converge"):
            quadrature_batch(stats[:3])


def _per_problem_verification() -> list[tuple[str, float, float, bool]]:
    """``cli.run_verification`` as it was before it stacked the problems of
    one d, kept here as the reference: every reference is called once per
    problem."""
    seed = 2024
    rng = np.random.default_rng(seed)
    problems = [random_problem(rng, max_d=2, max_n=50) for _ in range(100)]
    quad_worst = 0.0
    for prob, quad in zip(problems, quadrature_batch(problems).tolist()):
        quad_worst = max(
            quad_worst,
            abs(exact_log_evidence(prob) - quad),
            abs(evidence_record(prob, lam=0.0).log_z_exact - quad),
        )
    lap_worst = 0.0
    for _ in range(200):
        prob = random_problem(rng, max_d=20, max_n=1000, min_n=5)
        exact = exact_log_evidence(prob)
        lap_worst = max(lap_worst, abs(full_laplace_log_evidence(prob) - exact) / abs(exact))
    weight_var_worst = 0.0
    is_dev_worst = 0.0
    for i in range(20):
        prob = random_problem(rng, max_d=5, max_n=200, min_n=5)
        logw = importance_log_weights(prob, 2000, seed=seed + i)
        weight_var_worst = max(weight_var_worst, float(np.var(logw)))
        est, stderr = importance_estimate(logw)
        is_dev_worst = max(
            is_dev_worst, abs(est - exact_log_evidence(prob)) - 3.0 * stderr
        )
    return [
        ("quadrature vs closed form and evidence record (100 problems, d<=2, n<=50)",
         quad_worst, 1e-6, quad_worst < 1e-6),
        ("MAP-Laplace vs closed form, relative (200 problems, d<=20)", lap_worst, 1e-8,
         lap_worst < 1e-8),
        ("importance log-weight variance, conjugate proposal (20 problems)",
         weight_var_worst, 1e-18, weight_var_worst < 1e-18),
        ("importance |estimate - exact| beyond 3*stderr (20 problems)",
         max(is_dev_worst, 0.0), 1e-9, is_dev_worst < 1e-9),
    ]


class TestVerifyByDimension:
    """``run_verification`` calls each reference once per dimension d, on the
    stack of that d's problems; the per-problem loop is the reference."""

    def test_equals_the_per_problem_loop(self):
        checks = cli.run_verification()
        assert checks == _per_problem_verification()
        for name, worst, tol, passed in checks:
            assert (type(name), type(worst), type(tol), type(passed)) == (str, float, float, bool)

    def test_stacks_give_each_member_its_one_problem_value(self):
        """Over verify's 320 problems, the stacked posterior, closed form and
        importance weights equal the one-problem calls bit for bit.  The
        stacked MAP-Laplace may differ by the rounding of its quadratic form:
        worst measured 4.0 eps relative, in 6 of 320 problems."""
        problems, laplace, importance = _all_verify_problems()
        every = problems + laplace + importance
        for d in range(1, 21):
            group = [p for p in every if p.d == d]
            post = posterior(stack_statistics(group))
            for j, one in enumerate(map(posterior, group)):
                for field in ("precision", "mean", "chol"):
                    assert np.array_equal(getattr(post, field)[j], getattr(one, field))
        exact = per_dimension(lambda stack, _: exact_log_evidence(stack), every)
        lap = per_dimension(lambda stack, _: full_laplace_log_evidence(stack), every)
        one_lap = np.array([full_laplace_log_evidence(p) for p in every])
        assert np.array_equal(exact, [exact_log_evidence(p) for p in every])
        assert np.all(np.abs(lap - one_lap) <= 8 * np.finfo(float).eps * np.abs(one_lap))
        logw = per_dimension(lambda stack, index: importance_log_weights(
            stack, 2000, seed=2024 + np.array(index)), importance, 2000)
        one_logw = [importance_log_weights(p, 2000, seed=2024 + i) for i, p in enumerate(importance)]
        assert np.array_equal(logw, one_logw)

    def test_the_wide_problem_joins_the_stack_of_its_d(self, monkeypatch):
        """Every verify problem has d + 1 rows, and no MAP-Laplace problem
        of the draw has fewer observations than parameters, so the test adds
        one of verify's law: the root of n = 5 observations at d = 18, whose
        5 rows of normals above 14 zero rows are the direct branch of
        wishart_root.  The grouping makes one call per distinct d, 20 over
        the 201 problems, and that problem joins the d = 18 stack of 7; no
        call of a pass receives a lone problem.  Its stacked closed form is
        its one-problem value, bit for bit."""
        _, laplace, _ = _all_verify_problems()
        assert all(p.d < p.n and len(p.y) == p.d + 1 for p in laplace)
        Z = wishart_root(np.random.default_rng(18), 5, 19)
        laplace.append(SufficientStatistics(n=5, A=Z[:, :18], y=Z[:, 18], sigma2=1.3, tau2=0.7))
        wide = [i for i, p in enumerate(laplace) if p.d > p.n]
        assert [(laplace[i].d, laplace[i].n) for i in wide] == [(18, 5)]
        calls = []
        per_dimension(lambda stack, index: calls.append((index, stack)) or 0.0, laplace)
        assert sorted(stack.b.shape[-1] for _, stack in calls) == list(range(1, 21))
        index, stack = next((index, stack) for index, stack in calls if wide[0] in index)
        assert len(index) == 7 and stack.b.shape == (7, 18)
        assert np.array_equal(exact_log_evidence(stack), [exact_log_evidence(laplace[i]) for i in index])

        stacks = []

        def recorded(score, problems, *shape):
            return per_dimension(lambda stack, index: stacks.append(stack) or score(stack, index),
                                 problems, *shape)

        monkeypatch.setattr(cli, "per_dimension", recorded)
        monkeypatch.setattr(oracle, "per_dimension", recorded)
        cli.run_verification()
        # quadrature, closed form, evidence record, MAP-Laplace, importance
        assert len(stacks) == 2 + 20 + 2 + 20 + 3
        assert not any(isinstance(stack, SufficientStatistics) for stack in stacks)

    def test_a_pass_holds_roots_not_rows(self):
        """A pass holds its 320 problems as Wishart roots of d + 1 rows, at
        most 21, not as their up to 1,000 rows of data: the traced peak is
        2.31 MiB, most of it the importance stacks of 6 and 7 members."""
        problems = [p for group in _all_verify_problems() for p in group]
        assert all(len(p.y) == p.d + 1 for p in problems)
        assert max(len(p.y) for p in problems) == 21
        tracemalloc.start()
        try:
            cli.run_verification()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20, peak

    def test_the_record_check_is_one_call_per_d(self, monkeypatch):
        """The evidence records of the 100 quadrature problems come from one
        root_evidence_batch call per d on their stacked (d + 1)-row roots,
        and each member's value is its one-problem evidence_record, bit for
        bit."""
        calls = []

        def recorded(*args):
            calls.append((args, root_evidence_batch(*args)))
            return calls[-1][1]

        monkeypatch.setattr(cli, "root_evidence_batch", recorded)
        cli.run_verification()
        assert [args[1].shape[1:] for args, _ in calls] == [(2, 1), (3, 2)]
        problems = _verify_problems()
        one = [evidence_record(p, lam=0.0).log_z_exact for d in (1, 2) for p in problems if p.d == d]
        assert np.array_equal(np.concatenate([out["log_z_exact"] for _, out in calls]), one)
        assert not hasattr(cli, "evidence_record")

    def test_one_factorization_per_dimension(self, monkeypatch):
        """A verify pass makes at most 50 Cholesky and 110 solve calls
        (measured: 45 and 95; one per problem made 640 and 1,302).  No stacked solve passes a right-hand side with one axis
        fewer than its matrices: numpy before 2.0 reads that as a stack of
        vectors, from 2.0 on as one matrix."""
        calls = {"cholesky": 0, "solve": 0}
        ambiguous = []
        for name in calls:
            def counted(*args, name=name, original=getattr(np.linalg, name), **kwargs):
                calls[name] += 1
                if name == "solve" and args[0].ndim > 2 and args[1].ndim == args[0].ndim - 1:
                    ambiguous.append((args[0].shape, args[1].shape))
                return original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        assert all(passed for *_, passed in cli.run_verification())
        assert calls["cholesky"] <= 50 and calls["solve"] <= 110, calls
        assert ambiguous == []


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


class _Pinned:
    """The generator of one :func:`random_problem` call with its scalars
    pinned: ``integers`` gives d, then n; ``uniform`` gives sigma2, tau2,
    then the scale c; the first draw of d normals, theta's, gives ``z``, so
    theta is sqrt(tau2) z.  The draws of the root come from ``rng``."""

    def __init__(self, rng, d, n, sigma2, tau2, c, z):
        self.rng, self.d, self.z = rng, d, z
        self.scalars = iter([d, n, sigma2, tau2, c])
        self.chisquare = rng.chisquare

    def integers(self, *_):
        return next(self.scalars)

    uniform = integers

    def standard_normal(self, size):
        if size == self.d and self.z is not None:
            z, self.z = self.z, None
            return z
        return self.rng.standard_normal(size)


def _rows_problem(rng, d, n, sigma2, tau2, c, theta) -> SufficientStatistics:
    """A verify problem on n rows of data, the law ``random_problem``'s
    Wishart roots must have: ``A = c X`` and ``y = A theta + sigma e`` of
    normals ``X`` (n, d) and ``e`` (n,)."""
    A = c * rng.standard_normal((n, d))
    return GaussianLinearProblem(A, A @ theta + math.sqrt(sigma2) * rng.standard_normal(n),
                                 sigma2, tau2)


class TestRootProblems:
    """verify's problems on Wishart roots (``random_problem``) against the
    same problems on rows of data (``_rows_problem``)."""

    @pytest.mark.parametrize("d,n", [(3, 40), (6, 4), (6, 7), (20, 1000),
                                     (2, 2), (1, 50), (5, 200)])
    def test_same_law_as_rows(self, d, n):
        """Two-sample KS over 400 problems per side at fixed (d, n, sigma2,
        tau2, c, theta): roots and rows give the same law of the closed form
        and of the MAP-Laplace relative error.  (6, 4) and (2, 2), a
        quadrature size, have n < d + 1, the direct branch of wishart_root;
        (6, 7) is the first Bartlett size; (1, 50) and (5, 200) are
        quadrature and importance sizes.  Worst measured p-value: 0.16,
        at (1, 50)."""
        z = np.random.default_rng(d).standard_normal(d)
        rng = np.random.default_rng(32)
        roots = [random_problem(_Pinned(rng, d, n, 1.7, 0.8, 1.3, z), 20, 1000)
                 for _ in range(400)]
        assert {(p.d, p.n, len(p.y)) for p in roots} == {(d, n, d + 1)}
        rng = np.random.default_rng(31)
        rows = [_rows_problem(rng, d, n, 1.7, 0.8, 1.3, math.sqrt(0.8) * z) for _ in range(400)]
        values = []
        for problems in (roots, rows):
            exact = np.array([exact_log_evidence(p) for p in problems])
            laplace = np.array([full_laplace_log_evidence(p) for p in problems])
            values.append((exact, np.abs(laplace - exact) / np.abs(exact)))
        for quantity in range(2):
            assert scipy.stats.ks_2samp(values[0][quantity], values[1][quantity]).pvalue > 0.01


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
