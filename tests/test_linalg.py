"""The numpy Cholesky helpers against scipy.linalg as an independent reference.

Residuals measured on the matrices of ``_spd_matrices`` (d = 1..8,
condition numbers 1..1e10, scales 1e-3..1e3, 20 draws each):

- ``L L^T`` vs ``M``: at most 1.0 eps * max |M|.
- ``chol_solve`` vs ``scipy.linalg.cho_solve``: max |diff| / max |x| is at
  most 1.9 * cond(M) * eps for a vector right-hand side (1.2 to 1.9 at each
  d) and 0.034 * cond(M) * eps for a 3-column one; the backward error
  |M x - b| / (|M| |x|) is at most 2.1 eps.
- The oracles' whitening ``np.linalg.solve(L.T, .)`` vs
  ``scipy.linalg.solve_triangular(L, ., lower=True, trans="T")``: bitwise
  equal.

The bounds are 8 eps for the factor and the backward error, 8 * cond * eps
for the solve differences.
"""

import numpy as np
import pytest
import scipy.linalg

from rankevidence._linalg import NumericalError, chol_solve, spd_cholesky

EPS = np.finfo(float).eps


def _spd_matrices():
    """(M, its condition number) for d = 1..8 and cond = 1..1e10."""
    rng = np.random.default_rng(20)
    for d in range(1, 9):
        for log_cond in (0, 2, 4, 6, 8, 10):
            for _ in range(20):
                Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
                lam = np.logspace(0, -log_cond, d) * 10 ** rng.uniform(-3, 3)
                M = (Q * lam) @ Q.T
                M = 0.5 * (M + M.T)
                yield M, np.linalg.cond(M), rng


class TestSpdCholesky:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_raises(self, bad):
        """np.linalg.cholesky alone returns a NaN or inf factor here."""
        M = np.eye(3)
        M[1, 1] = bad
        with pytest.raises(NumericalError, match="in probe-context"):
            spd_cholesky(M, context="probe-context")

    def test_not_positive_definite_raises(self):
        M = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NumericalError, match="in probe-context"):
            spd_cholesky(M, context="probe-context")

    def test_factor_reproduces_matrix(self):
        for M, _, _ in _spd_matrices():
            L = spd_cholesky(M)
            assert np.array_equal(L, np.tril(L))
            np.testing.assert_allclose(L @ L.T, M, rtol=0, atol=8 * EPS * np.abs(M).max())


class TestSolvesAgainstScipy:
    def test_chol_solve_matches_cho_solve(self):
        for M, cond, rng in _spd_matrices():
            L = spd_cholesky(M)
            for B in (rng.standard_normal((M.shape[0], 3)), rng.standard_normal(M.shape[0])):
                x = chol_solve(L, B)
                assert x.shape == B.shape
                ref = scipy.linalg.cho_solve((L, True), B)
                assert np.abs(x - ref).max() <= 8 * cond * EPS * np.abs(ref).max()
                backward = np.abs(M @ x - B).max() / (np.abs(M).max() * np.abs(x).max())
                assert backward <= 8 * EPS

    def test_whitening_matches_solve_triangular(self):
        """The expression the quadrature and importance oracles use to map
        whitened coordinates to parameters."""
        for M, _, rng in _spd_matrices():
            L = spd_cholesky(M)
            Z = rng.standard_normal((M.shape[0], 50))
            ref = scipy.linalg.solve_triangular(L, Z, lower=True, trans="T")
            tol = 8 * np.linalg.cond(L) * EPS * np.abs(ref).max()
            assert np.abs(np.linalg.solve(L.T, Z) - ref).max() <= tol
            eye = np.eye(M.shape[0])
            ref = scipy.linalg.solve_triangular(L, eye, lower=True, trans="T")
            tol = 8 * np.linalg.cond(L) * EPS * np.abs(ref).max()
            assert np.abs(np.linalg.solve(L.T, eye) - ref).max() <= tol
