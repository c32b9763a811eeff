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
sufficient statistics ``(n, S, A^T y, y^T y)``.  :func:`evidence_record`
works from those alone, through one eigendecomposition of ``S``, so a cell
costs the same at every ``n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import chol_logdet, chol_solve, spd_cholesky

LOG_2PI = math.log(2.0 * math.pi)

# Eigenvalues of S at or below GRAM_RANK_RTOL * (largest eigenvalue) count as
# zero in the fit term.  Measured on d = p = 6 rank-r cells (ranks 1-6, seeds
# 0-99, 22 sample sizes from 7 to 1e9): with S drawn from the Wishart law
# (13,200 cells) null eigenvalues reach 2.5 eps * top and the r-th eigenvalue
# never falls below 2.0e-9 * top; with S formed as A^T A (the 9,000 cells with
# n <= 1e5) the figures are 2.7 eps * top and 5.9e-10 * top.  1e-12 sits near
# the geometric middle of that gap, about 1700x above the null eigenvalues
# and 590x below the r-th; the usual top * d * eps rule would leave 2.3x on
# the null side.
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


def posterior(prob: GaussianLinearProblem) -> PosteriorGaussian:
    """Posterior precision and mean, via an SPD factorization."""
    A, y = prob.A, prob.y
    precision = (A.T @ A) / prob.sigma2 + np.eye(prob.d) / prob.tau2
    L = spd_cholesky(precision, context="posterior")
    mean = chol_solve(L, A.T @ y / prob.sigma2)
    return PosteriorGaussian(precision=precision, mean=mean)


def full_laplace_log_evidence(prob: GaussianLinearProblem) -> float:
    """Laplace approximation expanded around the MAP point, with all terms.

    Returns ``log p(y | mu) + log prior(mu) + (d/2) log 2pi
    - 1/2 log det(precision)``.  Because the log posterior is exactly
    quadratic here, this equals :func:`exact_log_evidence` up to rounding.
    """
    post = posterior(prob)
    mu = post.mean
    resid = prob.y - prob.A @ mu
    log_lik = -0.5 * (
        prob.n * (LOG_2PI + math.log(prob.sigma2)) + float(resid @ resid) / prob.sigma2
    )
    log_prior = -0.5 * (
        prob.d * (LOG_2PI + math.log(prob.tau2)) + float(mu @ mu) / prob.tau2
    )
    L = spd_cholesky(post.precision, context="full_laplace_log_evidence")
    return log_lik + log_prior + 0.5 * prob.d * LOG_2PI - 0.5 * chol_logdet(L)


def evidence_record(
    data: GaussianLinearProblem | SufficientStatistics, lam: float
) -> EvidenceRecord:
    """Assemble the exact value and both approximations at this sample size.

    With ``S = V diag(s) V^T``, ``c = V^T b`` and ``alpha = tau2 / sigma2``,
    the centered term is a sum of d terms, nonnegative in exact arithmetic,

        log_lik_mle - log_z_exact = 1/2 sum_i log1p(alpha s_i)
                                    + 1/(2 sigma2) sum_kept c_i^2 / (s_i (1 + alpha s_i))

    so no O(n) terms cancel in it.  The fit term uses the pseudoinverse on
    the kept eigen-directions, and the evidence is the fit minus the
    centered term.  A problem is reduced to its statistics first.
    """
    stats = data.statistics() if isinstance(data, GaussianLinearProblem) else data
    n, d, sigma2 = stats.n, stats.d, stats.sigma2
    alpha = stats.tau2 / sigma2
    s, V = np.linalg.eigh(stats.S)
    c = V.T @ stats.b
    kept = s > GRAM_RANK_RTOL * s[-1]
    ck2, sk = c[kept] ** 2, s[kept]
    centered = 0.5 * float(np.sum(np.log1p(alpha * s))) + float(
        np.sum(ck2 / (sk * (1.0 + alpha * sk)))
    ) / (2.0 * sigma2)
    fit = -0.5 * (
        n * (LOG_2PI + math.log(sigma2)) + (stats.yy - float(np.sum(ck2 / sk))) / sigma2
    )
    log_n = math.log(n)
    return EvidenceRecord(
        n=n,
        log_z_exact=fit - centered,
        log_lik_mle=fit,
        log_z_bic=bic_score(fit, d, n),
        log_z_rlct=rlct_score(fit, lam, n),
        delta_bic=centered - 0.5 * d * log_n,
        delta_rlct=centered - lam * log_n,
        rank=int(np.count_nonzero(kept)),
    )


def _check_sample_size(n: int) -> None:
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"sample size must be an integer, got {type(n).__name__}")
    if n < 2:
        raise ValueError(f"sample size must be >= 2 for log-n scores, got {n}")
