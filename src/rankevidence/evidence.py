"""Exact and approximate log evidences for Gaussian linear regression.

For ``y | theta ~ N(A theta, sigma2 I_n)`` with prior
``theta ~ N(0, tau2 I_d)`` the marginal likelihood has the closed form

    log Z = -1/2 ( n log 2pi + n log sigma2 + log det(I_d + alpha S)
                   + (y^T y - alpha y^T A (I_d + alpha S)^{-1} A^T y) / sigma2 )

with ``S = A^T A`` and ``alpha = tau2 / sigma2``.  This module computes that
value, the maximum-likelihood fit term, the BIC-style score
``fit - (d/2) log n``, the corrected score ``fit - lambda log n`` for a given
effective dimension ``lambda`` (both with one log-n rule, :func:`log_n`),
and a full MAP-Laplace evaluation that must agree with the closed form to
floating-point accuracy (the log posterior is exactly quadratic), which
serves as a built-in exactness check.

Every one of these quantities depends on the data only through ``n`` and
the products ``S = A^T A``, ``A^T y`` and ``y^T y``, so the one data type,
:class:`SufficientStatistics`, keeps rows ``(A, y)`` whose products they
are: the data themselves (:func:`GaussianLinearProblem`), or a square root
of a few rows, with which a cell costs the same at every ``n``.  One
function, :func:`root_evidence_batch` (one cell: :func:`evidence_record`),
scores rows through a thin SVD and keeps the directions above the package's
one rank rule, :func:`~rankevidence._linalg.spectral_rank`.
:func:`log_joint`, :func:`posterior`, :func:`full_laplace_log_evidence` and
:func:`exact_log_evidence` read the products, or a stack's of one d
(:func:`stack_statistics`, :func:`per_dimension`); :func:`mle_fit_term` reads the rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ._linalg import chol_logdet, chol_solve, spd_cholesky, spectral_rank

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class SufficientStatistics:
    """What the evidence and the fit depend on: ``n`` and rows ``A`` and
    ``y`` whose products ``S = A^T A``, ``b = A^T y`` and ``yy = y^T y`` are
    those of the n observations, with the two variances.  The rows are the
    data themselves or any equivalent set, such as a square root."""

    n: int
    A: np.ndarray      # (q, d) design rows
    y: np.ndarray      # (q,) responses
    sigma2: float      # noise variance
    tau2: float        # prior variance

    def __post_init__(self) -> None:
        if self.A.ndim != 2 or self.d < 1 or self.y.shape != self.A.shape[:1]:
            raise ValueError(
                f"A shape {self.A.shape} and y shape {self.y.shape} do not match"
            )
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        check_positive(sigma2=self.sigma2, tau2=self.tau2)

    @property
    def d(self) -> int:
        return self.A.shape[1]

    @functools.cached_property
    def S(self) -> np.ndarray:
        """``A^T A``, (d, d) symmetric positive semidefinite."""
        return self.A.T @ self.A

    @functools.cached_property
    def b(self) -> np.ndarray:
        """``A^T y``, (d,)."""
        return self.A.T @ self.y

    @functools.cached_property
    def yy(self) -> float:
        """``y^T y``."""
        return float(self.y @ self.y)


def GaussianLinearProblem(
    A: np.ndarray, y: np.ndarray, sigma2: float, tau2: float
) -> SufficientStatistics:
    """The statistics of n observations given as the data themselves: the
    design ``A`` (n, d) and responses ``y`` (n,) are the rows, ``n = len(A)``."""
    return SufficientStatistics(n=len(A), A=A, y=y, sigma2=sigma2, tau2=tau2)


def check_positive(**values: float) -> None:
    """Raise ``ValueError`` unless each named value lies in (0, inf): NaN fails."""
    if not all(0.0 < v < math.inf for v in values.values()):
        raise ValueError(f"{' and '.join(values)} must be positive and finite, got {values}")


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
    holds to machine precision.  ``rank`` is the number of singular
    directions of the rows that both terms kept (see
    :func:`root_evidence_batch`).
    """

    n: int
    log_z_exact: float
    log_lik_mle: float
    log_z_bic: float
    log_z_rlct: float
    delta_bic: float
    delta_rlct: float
    rank: int


def exact_log_evidence(stats: SufficientStatistics) -> float:
    """Closed-form log marginal likelihood from S, b and yy, or a stack's,
    through a Cholesky factorization of the capacitance matrix ``I_d + alpha S``.
    ``n`` enters only the constants, so a square root of the data gives the
    data's value.  For q << d rows, :func:`evidence_record` costs O(q^2 d)."""
    alpha = np.asarray(stats.tau2 / stats.sigma2)[..., None, None]
    L = spd_cholesky(np.eye(stats.S.shape[-1]) + alpha * stats.S, context="exact_log_evidence")
    v = stats.b[..., None]
    quad = stats.yy - alpha[..., 0, 0] * (v.swapaxes(-1, -2) @ chol_solve(L, v))[..., 0, 0]
    n, sigma2 = stats.n, stats.sigma2
    value = -0.5 * (n * LOG_2PI + n * _math_log(sigma2) + chol_logdet(L) + quad / sigma2)
    return float(value) if np.ndim(value) == 0 else value


def mle_fit_term(stats: SufficientStatistics) -> tuple[np.ndarray, float]:
    """Minimum-norm least-squares estimate and its log likelihood.

    ``theta_hat`` is the pseudoinverse solution (SVD with the standard rank
    threshold), which is the canonical representative when A is
    rank-deficient.  The returned log likelihood depends only on the fitted
    values, so it is invariant to which least-squares solution is picked,
    and a square root of the data has the data's residual sum of squares.
    """
    theta_hat = np.linalg.lstsq(stats.A, stats.y, rcond=None)[0]
    resid = stats.y - stats.A @ theta_hat
    log_lik = -0.5 * (
        stats.n * (LOG_2PI + math.log(stats.sigma2)) + float(resid @ resid) / stats.sigma2
    )
    return theta_hat, log_lik


def log_n(n):
    """``math.log`` of each integer sample size in [2, 2**64): a float for
    one size, an array of the same shape for an array (empty included).  The
    one log-n rule of every score; ``np.log`` rounds some values differently."""
    sizes = np.asarray(n)
    if sizes.dtype.kind not in "iu":   # float64 for a list mixing sizes past 2**63 with smaller ones
        sizes = np.asarray(n, dtype=object)
    values = sizes.ravel().tolist()
    if not all(isinstance(k, (int, np.integer)) and not isinstance(k, bool) and 1 < k < 2**64
               for k in values):
        raise ValueError(f"sample sizes must be integers in [2, 2**64) for log-n scores, got {n}")
    logs = list(map(math.log, values))
    return logs[0] if sizes.ndim == 0 else np.array(logs).reshape(sizes.shape)


_math_log = np.vectorize(math.log, otypes=[float])   # np.log rounds some values differently


def bic_score(log_lik_mle, d: int, n):
    """BIC-style score: maximized log likelihood minus (d/2) log n, for one
    sample size or an array of them (:func:`log_n`).

    Prior and 2pi constants are deliberately dropped; see
    :func:`full_laplace_log_evidence` for the complete expansion.
    """
    if d < 0:
        raise ValueError(f"parameter count must be nonnegative, got {d}")
    return log_lik_mle - 0.5 * d * log_n(n)


def rlct_score(log_lik_mle, lam: float, n):
    """Effective-dimension-corrected score: fit term minus lambda * log n,
    for one sample size or an array of them (:func:`log_n`).

    With ``lam = d/2`` this reduces to :func:`bic_score`; for rank-r designs
    the correct coefficient is ``lam = r/2``.
    """
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lambda must be nonnegative and finite, got {lam}")
    return log_lik_mle - lam * log_n(n)


def log_joint(stats: SufficientStatistics, theta: np.ndarray) -> np.ndarray:
    """``log p(y | theta) + log prior(theta)`` from the statistics alone: the
    residual sum of squares is ``yy - 2 theta^T b + theta^T S theta``.  For
    statistics stacked on axes ``stack`` (:func:`stack_statistics`; ``()``
    for one problem), ``theta`` is ``(*stack, ..., d)``, each member's points
    after its index, and the result is ``(*stack, ...)``."""
    stack, d = np.shape(stats.sigma2), theta.shape[-1]
    points = theta.reshape(stack + (-1, d))
    n, yy, sigma2, tau2 = (np.reshape(getattr(stats, f), stack + (1,)) for f in STACKED_FIELDS[:4])
    rss = yy - 2.0 * (points @ stats.b[..., None])[..., 0] + np.einsum(
        "...i,...ij,...j->...", points, stats.S[..., None, :, :], points
    )
    value = -0.5 * (
        n * (LOG_2PI + _math_log(sigma2))
        + d * (LOG_2PI + _math_log(tau2))
        + rss / sigma2
        + np.einsum("...i,...i->...", points, points) / tau2
    )
    return value.reshape(theta.shape[:-1])


STACKED_FIELDS = ("n", "yy", "sigma2", "tau2", "b", "S")   # what a stack holds of a problem


def stack_statistics(group: list[SufficientStatistics]) -> SimpleNamespace:
    """The products of k problems of one d on a leading axis: ``n``, ``yy``,
    ``sigma2`` and ``tau2`` (k,), ``b`` (k, d) and ``S`` (k, d, d)."""
    return SimpleNamespace(**{f: np.array([getattr(s, f) for s in group]) for f in STACKED_FIELDS})


def per_dimension(score, problems: list, *shape) -> np.ndarray:
    """``score(stack, indices)`` of each problem, ``(len(problems), *shape)``:
    one call per d, on the stack of that d's problems (:func:`stack_statistics`)."""
    dims = [len(p.b) for p in problems]
    out = np.empty((len(problems), *shape))
    for d in sorted(set(dims)):   # not np.unique: it loads numpy.ma, 1.5 MiB
        index = [i for i, k in enumerate(dims) if k == d]
        out[index] = score(stack_statistics([problems[i] for i in index]), index)
    return out


def posterior(stats: SufficientStatistics) -> PosteriorGaussian:
    """Posterior precision and mean, via an SPD factorization; a stack's too."""
    sigma2, tau2 = (np.asarray(v)[..., None, None] for v in (stats.sigma2, stats.tau2))
    precision = stats.S / sigma2 + np.eye(stats.S.shape[-1]) / tau2
    L = spd_cholesky(precision, context="posterior")
    mean = chol_solve(L, stats.b[..., None] / sigma2)[..., 0]
    return PosteriorGaussian(precision=precision, mean=mean, chol=L)


def full_laplace_log_evidence(stats: SufficientStatistics) -> float:
    """Laplace approximation expanded around the MAP point, with all terms; a stack's too.

    Returns ``log p(y | mu) + log prior(mu) + (d/2) log 2pi
    - 1/2 log det(precision)``.  Because the log posterior is exactly
    quadratic here, this equals :func:`exact_log_evidence` up to rounding.
    """
    post = posterior(stats)
    value = (log_joint(stats, post.mean) + 0.5 * post.mean.shape[-1] * LOG_2PI
             - 0.5 * chol_logdet(post.chol))
    return float(value) if np.ndim(value) == 0 else value


def evidence_record(stats: SufficientStatistics, lam: float) -> EvidenceRecord:
    """Assemble the exact value and both approximations at this sample size:
    :func:`root_evidence_batch` of the statistics' rows (q, k), no stack axes."""
    out = root_evidence_batch(stats.n, stats.A, stats.y, stats.d, stats.sigma2, stats.tau2, lam)
    return EvidenceRecord(n=stats.n, **{key: value.item() for key, value in out.items()})


def root_evidence_batch(
    n: int | np.ndarray, A: np.ndarray, y: np.ndarray, d: int,
    sigma2: float | np.ndarray, tau2: float | np.ndarray, lam: float,
) -> dict[str, np.ndarray]:
    """Every :class:`EvidenceRecord` field but ``n`` for cells given by rows
    ``A`` (..., q, k) and ``y`` (..., q) whose products are the statistics of
    ``n`` observations with variances ``sigma2`` and ``tau2`` (each broadcast
    against the leading axes), in k coordinates of a d-parameter model.  Of
    one batched thin SVD ``A = U diag(sv) W^T`` each cell keeps its
    ``"rank"`` leading directions, the count of ``sv`` above the rank rule
    for ``max(q, k)`` rows (:func:`~rankevidence._linalg.spectral_rank`), as
    ``s = sv^2`` and ``g = U^T y``; ``RSS = |y - U g|^2`` is a sum of squares.  The centered
    term ``log_lik_mle - log_z_exact = 1/2 sum log1p(alpha s) + sum g^2 /
    (1 + alpha s) / (2 sigma2)`` sums at most k terms, nonnegative in exact
    arithmetic: no O(n) cancels.  The scores are :func:`bic_score` and
    :func:`rlct_score` of the fit and centered terms.  Non-finite rows raise
    ``np.linalg.LinAlgError``."""
    U, sv, _ = np.linalg.svd(A, full_matrices=False)
    if not np.isfinite(sv).all():   # an inf row gives NaN values without raising
        raise np.linalg.LinAlgError("SVD of non-finite rows")
    rank = spectral_rank(sv, max(A.shape[-2:]))
    kept = np.arange(sv.shape[-1]) < rank[..., None]
    g = np.where(kept, (U.swapaxes(-1, -2) @ y[..., None])[..., 0], 0.0)
    rss = np.sum((y - (U @ g[..., None])[..., 0]) ** 2, axis=-1)
    s = np.where(kept, sv**2, 0.0)
    alpha = np.asarray(tau2 / sigma2)[..., None]
    centered = 0.5 * np.sum(np.log1p(alpha * s), axis=-1) + np.sum(
        g**2 / (1.0 + alpha * s), axis=-1
    ) / (2.0 * sigma2)
    fit = -0.5 * (n * (LOG_2PI + _math_log(sigma2)) + rss / sigma2)
    return {
        "log_z_exact": fit - centered,
        "log_lik_mle": fit,
        "log_z_bic": bic_score(fit, d, n),
        "log_z_rlct": rlct_score(fit, lam, n),
        "delta_bic": bic_score(centered, d, n),
        "delta_rlct": rlct_score(centered, lam, n),
        "rank": rank,
    }

