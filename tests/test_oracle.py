import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import rankevidence
from rankevidence.evidence import GaussianLinearProblem, exact_log_evidence
from rankevidence.oracle import (
    QuadratureSettings,
    importance_log_evidence,
    importance_log_weights,
    quadrature_log_evidence,
    random_problem,
)


class TestQuadratureSettings:
    def test_defaults_valid(self):
        s = QuadratureSettings()
        assert s.rel_tol == 1e-9 and s.integration_radius == 12.0

    def test_narrow_radius_rejected(self):
        with pytest.raises(ValueError):
            QuadratureSettings(integration_radius=4.0)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            QuadratureSettings(rel_tol=0.0)


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

    def test_nonconvergence_is_an_error_not_a_silent_pass(self):
        """On a hopeless domain/budget combination the oracle must refuse
        rather than return a doubtful value."""
        from rankevidence.oracle import OracleError

        rng = np.random.default_rng(6)
        prob = random_problem(rng, max_d=1, max_n=40, min_n=20)
        hopeless = QuadratureSettings(integration_radius=1e7, max_subdivisions=10)
        with pytest.raises(OracleError):
            quadrature_log_evidence(prob, hopeless)


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
            est, stderr = importance_log_evidence(prob, 20_000, seed=i, proposal_scale=2.0)
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
    """Only quadrature_log_evidence integrates, so it imports scipy.integrate
    itself: importing the package and its CLI in a fresh interpreter must
    not load it."""
    src = str(Path(rankevidence.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, rankevidence, rankevidence.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
