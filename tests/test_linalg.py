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

from rankevidence._linalg import NumericalError, chol_logdet, chol_solve, spd_cholesky

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


class TestStacks:
    def test_a_stack_gives_the_bits_of_one_matrix_at_a_time(self):
        """Each helper on a (2, 3, p, p) stack equals its one-matrix calls
        bit for bit; one matrix keeps a Python float log-determinant."""
        rng = np.random.default_rng(21)
        matrices = [M for M, _, _ in _spd_matrices() if M.shape == (4, 4)][:6]
        M = np.reshape(matrices, (2, 3, 4, 4))
        B = rng.standard_normal((2, 3, 4, 5))
        L = spd_cholesky(M)
        X, logdet = chol_solve(L, B), chol_logdet(L)
        assert X.shape == B.shape and logdet.shape == (2, 3)
        for i, j in np.ndindex(2, 3):
            L_ij = spd_cholesky(M[i, j])
            assert np.array_equal(L[i, j], L_ij)
            assert np.array_equal(X[i, j], chol_solve(L_ij, B[i, j]))
            assert type(chol_logdet(L_ij)) is float and logdet[i, j] == chol_logdet(L_ij)
        # one factor broadcasts against a stack of right-hand sides
        assert np.array_equal(chol_solve(L[0, 0], B[1]),
                              np.stack([chol_solve(L[0, 0], b) for b in B[1]]))

    @pytest.mark.parametrize("bad", [np.nan, -1.0])
    def test_one_bad_member_fails_the_stack_with_its_shape(self, bad):
        """A stack with one member not finite or not positive definite
        raises NumericalError naming that member and the stack's shape, on
        one stacked axis or two; a later bad member is not named."""
        M = np.stack([np.eye(3)] * 6)
        M[2, 1, 1] = M[4, 0, 0] = bad
        with pytest.raises(NumericalError, match=r"in probe-context \(member 2 of shape=\(6, 3, 3\), "):
            spd_cholesky(M, context="probe-context")
        with pytest.raises(NumericalError, match=r"^[^(]*\(member 0, 2 of shape=\(2, 3, 3, 3\), "):
            spd_cholesky(M.reshape(2, 3, 3, 3))
