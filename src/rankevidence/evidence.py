"""Exact and approximate log evidences for Gaussian linear regression.

For ``y | theta ~ N(A theta, sigma2 I_n)`` with prior
``theta ~ N(0, tau2 I_d)`` the marginal likelihood has the closed form

    log Z = -1/2 ( n log 2pi + n log sigma2 + log det(I_d + alpha S)
                   + (y^T y - alpha y^T A (I_d + alpha S)^{-1} A^T y) / sigma2 )

with ``S = A^T A`` and ``alpha = tau2 / sigma2``.  This module computes that
value, the maximum-likelihood fit term, the BIC-style score
``fit - (d/2) log n``, the corrected score ``fit - lambda log n`` for a given
effective dimension ``lambda``, and a full MAP-Laplace evaluation that must
agree with the closed form to floating-point accuracy (the log posterior is
exactly quadratic), which serves as a built-in exactness check.

Every one of these quantities depends on the data only through the
sufficient statistics ``(n, S, A^T y, y^T y)``, so a cell costs the same at
every ``n``.  One formula, :func:`_scores`, has two front ends:
:func:`evidence_batch` (one cell: :func:`evidence_record`) reads a caller's
statistics through an ``eigh`` of ``S`` and a rank threshold, and
:func:`root_evidence_batch` the studies' square roots of known rank through
an SVD.  :func:`log_joint`, :func:`posterior` and
:func:`full_laplace_log_evidence` read the statistics too; only the
references :func:`exact_log_evidence` and :func:`mle_fit_term` work on
``(A, y)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import chol_logdet, chol_solve, spd_cholesky

LOG_2PI = math.log(2.0 * math.pi)

# Eigenvalues of S at or below GRAM_RANK_RTOL * (largest eigenvalue) count as
# zero in the fit term of a caller's statistics; the studies decide no rank.
# Measured on d = p = 6 rank-r cells (ranks 1-6, seeds 0-99, 22 sample sizes
# from 7 to 1e9): with S drawn from the Wishart law (13,200 cells) null
# eigenvalues reach 2.5 eps * top and the r-th eigenvalue never falls below
# 2.0e-9 * top; with S formed as A^T A (the 9,000 cells with n <= 1e5) the
# figures are 2.7 eps * top and 5.9e-10 * top.  1e-12 sits near the geometric
# middle of that gap, about 1700x above the null eigenvalues and 590x below
# the r-th; the usual top * d * eps rule would leave 2.3x on the null side.
# At d = p = 50 the gap can close: a near-singular rank-50 factor's S keeps 49.
GRAM_RANK_RTOL = 1e-12


@dataclass(frozen=True)
class GaussianLinearProblem:
    """Effective design, responses, and the two variances of one problem."""

    A: np.ndarray      # (n, d) effective design
    y: np.ndarray      # (n,) responses
    sigma2: float      # noise variance
    tau2: float        # prior variance

    def __post_init__(self) -> None:
        if self.A.ndim != 2:
            raise ValueError(f"A must be 2-D, got shape {self.A.shape}")
        if self.y.shape != (self.A.shape[0],):
            raise ValueError(
                f"y shape {self.y.shape} does not match A rows {self.A.shape[0]}"
            )
        if self.sigma2 <= 0 or self.tau2 <= 0:
            raise ValueError("sigma2 and tau2 must be positive")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def d(self) -> int:
        return self.A.shape[1]

    @property
    def alpha(self) -> float:
        """Prior-to-noise variance ratio tau2 / sigma2."""
        return self.tau2 / self.sigma2

    def statistics(self) -> "SufficientStatistics":
        """The sufficient statistics ``(n, A^T A, A^T y, y^T y)`` of this problem."""
        A, y = self.A, self.y
        return SufficientStatistics(
            n=self.n, S=A.T @ A, b=A.T @ y, yy=float(y @ y),
            sigma2=self.sigma2, tau2=self.tau2,
        )


@dataclass(frozen=True)
class SufficientStatistics:
    """What the evidence and the fit depend on: ``n``, ``S = A^T A``,
    ``b = A^T y`` and ``yy = y^T y``, with the two variances."""

    n: int
    S: np.ndarray      # (d, d) symmetric positive semidefinite
    b: np.ndarray      # (d,)
    yy: float
    sigma2: float      # noise variance
    tau2: float        # prior variance

    def __post_init__(self) -> None:
        if self.b.ndim != 1 or self.d < 1 or self.S.shape != (self.d, self.d):
            raise ValueError(
                f"S shape {self.S.shape} and b shape {self.b.shape} do not match"
            )
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.sigma2 <= 0 or self.tau2 <= 0:
            raise ValueError("sigma2 and tau2 must be positive")

    @property
    def d(self) -> int:
        return self.b.shape[0]


@dataclass(frozen=True)
class PosteriorGaussian:
    """Gaussian posterior over theta: precision matrix and mean vector."""

    precision: np.ndarray   # (d, d), symmetric positive definite
    mean: np.ndarray        # (d,)
    chol: np.ndarray        # (d, d), lower Cholesky factor of precision


@dataclass(frozen=True)
class EvidenceRecord:
    """Exact and approximate log evidences at one sample size.

    ``delta_bic`` and ``delta_rlct`` are the approximation-minus-exact errors.
    Both are computed from the shared centered term ``log_lik_mle -
    log_z_exact`` so that ``delta_bic - delta_rlct = (lambda - d/2) log n``
    holds to machine precision.  ``rank`` is the number of eigenvalues of
    ``S`` the fit term kept (see :data:`GRAM_RANK_RTOL`).
    """

    n: int
    log_z_exact: float
    log_lik_mle: float
    log_z_bic: float
    log_z_rlct: float
    delta_bic: float
    delta_rlct: float
    rank: int


def exact_log_evidence(prob: GaussianLinearProblem) -> float:
    """Closed-form log marginal likelihood.

    Works through a Cholesky factorization of the capacitance matrix in
    whichever of the d- or n-dimensional forms is smaller; the two agree by
    the determinant identity det(I_d + alpha A^T A) = det(I_n + alpha A A^T)
    and the matching Woodbury identity for the quadratic form.
    """
    A, y = prob.A, prob.y
    n, d = prob.n, prob.d
    alpha = prob.alpha
    if d <= n:
        cap = np.eye(d) + alpha * (A.T @ A)
        L = spd_cholesky(cap, context="exact_log_evidence")
        aty = A.T @ y
        quad = float(y @ y) - alpha * float(aty @ chol_solve(L, aty))
    else:
        cap = np.eye(n) + alpha * (A @ A.T)
        L = spd_cholesky(cap, context="exact_log_evidence")
        quad = float(y @ chol_solve(L, y))
    logdet = chol_logdet(L)
    return -0.5 * (n * LOG_2PI + n * math.log(prob.sigma2) + logdet + quad / prob.sigma2)


def mle_fit_term(prob: GaussianLinearProblem) -> tuple[np.ndarray, float]:
    """Minimum-norm least-squares estimate and its log likelihood.

    ``theta_hat`` is the pseudoinverse solution (SVD with the standard rank
    threshold), which is the canonical representative when A is
    rank-deficient.  The returned log likelihood depends only on the fitted
    values, so it is invariant to which least-squares solution is picked.
    """
    theta_hat = np.linalg.lstsq(prob.A, prob.y, rcond=None)[0]
    resid = prob.y - prob.A @ theta_hat
    log_lik = -0.5 * (
        prob.n * (LOG_2PI + math.log(prob.sigma2)) + float(resid @ resid) / prob.sigma2
    )
    return theta_hat, log_lik


def bic_score(log_lik_mle: float, d: int, n: int) -> float:
    """BIC-style score: maximized log likelihood minus (d/2) log n.

    Prior and 2pi constants are deliberately dropped; see
    :func:`full_laplace_log_evidence` for the complete expansion.
    """
    _check_sample_size(n)
    if d < 0:
        raise ValueError(f"parameter count must be nonnegative, got {d}")
    return log_lik_mle - 0.5 * d * math.log(n)


def rlct_score(log_lik_mle: float, lam: float, n: int) -> float:
    """Effective-dimension-corrected score: fit term minus lambda * log n.

    With ``lam = d/2`` this reduces to :func:`bic_score`; for rank-r designs
    the correct coefficient is ``lam = r/2``.
    """
    _check_sample_size(n)
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    return log_lik_mle - lam * math.log(n)


def log_joint(stats: SufficientStatistics, theta: np.ndarray) -> np.ndarray:
    """``log p(y | theta) + log prior(theta)`` for parameters stacked along
    the last axis of ``theta`` (shape ``(..., d)``, result ``(...)``), from the
    statistics alone: the residual sum of squares is
    ``yy - 2 theta^T b + theta^T S theta``.  The statistics may be a stack
    whose fields broadcast against ``theta``: the scalars against ``(...)``,
    ``S`` against ``(..., d, d)`` and ``b`` against ``(..., 1, d)``."""
    b = np.asarray(stats.b)
    rss = stats.yy - 2.0 * (theta @ b.reshape(b.shape[:-2] + (-1, 1)))[..., 0] + np.einsum(
        "...i,...ij,...j->...", theta, stats.S, theta
    )
    # math.log for one problem: np.log rounds some values differently.
    log = np.log if isinstance(stats.sigma2, np.ndarray) else math.log
    return -0.5 * (
        stats.n * (LOG_2PI + log(stats.sigma2))
        + theta.shape[-1] * (LOG_2PI + log(stats.tau2))
        + rss / stats.sigma2
        + np.einsum("...i,...i->...", theta, theta) / stats.tau2
    )


def posterior(stats: SufficientStatistics) -> PosteriorGaussian:
    """Posterior precision and mean, via an SPD factorization."""
    precision = stats.S / stats.sigma2 + np.eye(stats.d) / stats.tau2
    L = spd_cholesky(precision, context="posterior")
    mean = chol_solve(L, stats.b / stats.sigma2)
    return PosteriorGaussian(precision=precision, mean=mean, chol=L)


def full_laplace_log_evidence(stats: SufficientStatistics) -> float:
    """Laplace approximation expanded around the MAP point, with all terms.

    Returns ``log p(y | mu) + log prior(mu) + (d/2) log 2pi
    - 1/2 log det(precision)``.  Because the log posterior is exactly
    quadratic here, this equals :func:`exact_log_evidence` up to rounding.
    """
    post = posterior(stats)
    return float(log_joint(stats, post.mean)) + 0.5 * stats.d * LOG_2PI - 0.5 * chol_logdet(post.chol)


def evidence_record(
    data: GaussianLinearProblem | SufficientStatistics, lam: float
) -> EvidenceRecord:
    """Assemble the exact value and both approximations at this sample size:
    the one-cell case of :func:`evidence_batch`, after reducing a problem to
    its statistics."""
    stats = data.statistics() if isinstance(data, GaussianLinearProblem) else data
    _check_sample_size(stats.n)
    out = evidence_batch(
        np.array([stats.n]), stats.S[None], stats.b[None], np.array([stats.yy]),
        stats.sigma2, stats.tau2, lam,
    )
    return EvidenceRecord(n=stats.n, **{key: value[0].item() for key, value in out.items()})


def evidence_batch(
    n: np.ndarray, S: np.ndarray, b: np.ndarray, yy: np.ndarray,
    sigma2: float, tau2: float, lam: float,
) -> dict[str, np.ndarray]:
    """Every :class:`EvidenceRecord` field but ``n`` for a stack of a
    caller's statistics ``n`` (m,), ``S`` (m, d, d), ``b`` (m, d) and ``yy``
    (m,).  With ``S = V diag(s) V^T`` (one batched ``eigh``) and
    ``c = V^T b``, :func:`_scores` reads the kept directions (see
    :data:`GRAM_RANK_RTOL`) as ``s`` and ``g^2 = c^2 / s``, and
    ``RSS = yy - sum g^2``.  A cell whose ``S`` is not finite gets NaN
    scores (``eigh`` would raise on a NaN for the whole stack)."""
    finite = np.isfinite(S).all(axis=(-2, -1))
    s, V = np.linalg.eigh(np.where(finite[:, None, None], S, 0.0))
    s = np.where(finite[:, None], s, np.nan)
    c = (V.swapaxes(-1, -2) @ b[..., None])[..., 0]
    kept = s > GRAM_RANK_RTOL * s[..., -1:]
    g2 = np.where(kept, c**2, 0.0) / np.where(kept, s, 1.0)
    # a null eigenvalue is rounding noise that would add alpha * eps * top; NaN stays NaN
    s = np.where(kept | np.isnan(s), s, 0.0)
    out = _scores(n, s, g2, yy - np.sum(g2, axis=-1), S.shape[-1], sigma2, tau2, lam)
    return {**out, "rank": np.count_nonzero(kept, axis=-1)}


def root_evidence_batch(
    n: np.ndarray, A: np.ndarray, y: np.ndarray, d: int,
    sigma2: float, tau2: float, lam: float,
) -> dict[str, np.ndarray]:
    """The six scores of cells given by rows ``A`` (m, q, r) and ``y`` (m, q)
    whose products are the statistics of ``n`` observations, in r < q
    identifiable coordinates of a d-parameter model.  Such rows have rank
    ``min(n, r)``: of one batched thin SVD ``A = U diag(sv) W^T``,
    :func:`_scores` reads that many leading directions, ``s = sv^2`` and
    ``g = U^T y``, and ``RSS = |y - U g|^2``, a sum of squares."""
    U, sv, _ = np.linalg.svd(A, full_matrices=False)
    kept = np.arange(A.shape[-1]) < np.minimum(n, A.shape[-1])[:, None]
    g = np.where(kept, (U.swapaxes(-1, -2) @ y[..., None])[..., 0], 0.0)
    rss = np.sum((y - (U @ g[..., None])[..., 0]) ** 2, axis=-1)
    return _scores(n, np.where(kept, sv**2, 0.0), g**2, rss, d, sigma2, tau2, lam)


def _scores(
    n: np.ndarray, s: np.ndarray, g2: np.ndarray, rss: np.ndarray, d: int,
    sigma2: float, tau2: float, lam: float,
) -> dict[str, np.ndarray]:
    """The six scores from each cell's squared singular values ``s`` (m, k)
    of the design, squared projections ``g2`` (m, k) of the responses on its
    left singular vectors (both zero off the kept directions) and residual
    sum of squares ``rss`` (m,).  The centered term ``log_lik_mle -
    log_z_exact = 1/2 sum log1p(alpha s) + sum g2 / (1 + alpha s) / (2 sigma2)``
    sums at most k terms, nonnegative in exact arithmetic: no O(n) cancels."""
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    if np.any(n < 2):
        raise ValueError(f"sample sizes must be >= 2 for log-n scores, got {n}")
    alpha = tau2 / sigma2
    centered = 0.5 * np.sum(np.log1p(alpha * s), axis=-1) + np.sum(
        g2 / (1.0 + alpha * s), axis=-1
    ) / (2.0 * sigma2)
    fit = -0.5 * (n * (LOG_2PI + math.log(sigma2)) + rss / sigma2)
    # math.log, not np.log: the two round differently for some n
    log_n = np.array([math.log(k) for k in n.tolist()])
    return {
        "log_z_exact": fit - centered,
        "log_lik_mle": fit,
        "log_z_bic": fit - 0.5 * d * log_n,
        "log_z_rlct": fit - lam * log_n,
        "delta_bic": centered - 0.5 * d * log_n,
        "delta_rlct": centered - lam * log_n,
    }


def _check_sample_size(n: int) -> None:
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"sample size must be an integer, got {type(n).__name__}")
    if n < 2:
        raise ValueError(f"sample size must be >= 2 for log-n scores, got {n}")
