"""Dense linear-algebra helpers shared across the package, in plain numpy.

Positive-definite systems are always handled through a Cholesky factor
(``np.linalg.cholesky``), never an explicit inverse; its two triangular solves
go through ``np.linalg.solve``.  Rank decisions use the scale-invariant
threshold ``sigma_max * max(rows, cols) * machine_eps`` on singular values
(:func:`spectral_rank`).
"""

from __future__ import annotations

import numpy as np


class NumericalError(RuntimeError):
    """A matrix factorization failed; the message carries diagnostics."""


def symmetrize(M: np.ndarray) -> np.ndarray:
    """Return the symmetric part (M + M^T) / 2 of each matrix in a stack."""
    return 0.5 * (M + M.swapaxes(-1, -2))


def spd_cholesky(M: np.ndarray, *, context: str = "") -> np.ndarray:
    """Lower Cholesky factor of each symmetric positive-definite matrix of a stack.

    The input is symmetrized first to absorb asymmetry from accumulated
    rounding.  No jitter is added: failure is surfaced as
    :class:`NumericalError` naming a stack's first failing member, with shape
    and diagonal diagnostics, rather than silently repaired.
    """
    M = symmetrize(np.asarray(M, dtype=float))
    try:
        # np.linalg.cholesky passes NaN and inf through to the factor.
        if not np.isfinite(M).all():
            raise ValueError("array must not contain infs or NaNs")
        return np.linalg.cholesky(M)
    except (np.linalg.LinAlgError, ValueError) as exc:
        where, member = f" in {context}" if context else "", ""
        for index in np.ndindex(M.shape[:-2]) if M.ndim > 2 else ():
            try:
                spd_cholesky(M[index])
            except NumericalError:
                member = f"member {', '.join(map(str, index))} of "
                break
        diag = np.diagonal(M, axis1=-2, axis2=-1)
        diag = diag[np.isfinite(diag)]   # the range of the finite entries: one NaN hides none
        detail = f"{member}shape={M.shape}, finite={bool(np.isfinite(M).all())}" + (
            f", diag=[{diag.min():.6g}, {diag.max():.6g}]" if diag.size else "")
        raise NumericalError(
            f"Cholesky factorization failed{where} ({detail}): {exc}"
        ) from exc


def chol_logdet(L: np.ndarray):
    """log det of each matrix whose lower Cholesky factor is ``L``; a float for one."""
    logdet = 2.0 * np.sum(np.log(np.diagonal(L, axis1=-2, axis2=-1)), axis=-1)
    return float(logdet) if logdet.ndim == 0 else logdet


def chol_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``M x = b`` given the lower Cholesky factor ``L`` of ``M``, stacks broadcast."""
    return np.linalg.solve(L.swapaxes(-1, -2), np.linalg.solve(L, b))


def numerical_rank(M: np.ndarray) -> int:
    """Numerical rank of a matrix via its singular value spectrum."""
    M = np.asarray(M, dtype=float)
    return int(spectral_rank(np.linalg.svd(M, compute_uv=False), max(M.shape))) if M.size else 0


def spectral_rank(values: np.ndarray, size: int) -> np.ndarray:
    """The count of ``values`` (..., k) above ``max(values) * size * eps``:
    the rank of matrices with these singular values, ``size = max(rows, cols)``."""
    tol = values.max(axis=-1, keepdims=True) * size * np.finfo(float).eps
    return np.count_nonzero(values > tol, axis=-1)
