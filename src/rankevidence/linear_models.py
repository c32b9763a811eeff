"""Rank-constrained linear-Gaussian regression models and synthetic data.

The generative model is ``y_i = x_i^T B theta + eps_i`` with a ground-truth
factor ``B`` of exact rank ``r``, Gaussian covariates, Gaussian noise of known
variance ``sigma2``, and an isotropic Gaussian prior of variance ``tau2`` on
``theta``.  When ``r < d`` the effective design ``A = X B`` is rank-deficient
and ``d - r`` parameter directions do not affect the likelihood.

:func:`sample_dataset` draws the data themselves.  :func:`sample_statistics`
draws only the sufficient statistics ``(A^T A, A^T y, y^T y)``, exactly, from
their Wishart law, at a cost that does not depend on ``n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import NumericalError, numerical_rank, symmetrize
from ._rng import substream
from .evidence import SufficientStatistics

_MAX_FACTOR_ATTEMPTS = 8


@dataclass(frozen=True)
class RankRegressionSpec:
    """Ground truth for one rank-r regression model."""

    p: int                   # covariate dimension
    d: int                   # parameter dimension
    r: int                   # intrinsic rank, 0 < r <= min(p, d)
    B_star: np.ndarray       # (p, d) factor of exact numerical rank r
    theta_star: np.ndarray   # (d,) true parameter
    sigma2: float            # noise variance
    tau2: float              # prior variance

    def __post_init__(self) -> None:
        if self.p < 1 or self.d < 1:
            raise ValueError(f"dimensions must be positive, got p={self.p}, d={self.d}")
        if not 0 < self.r <= min(self.p, self.d):
            raise ValueError(f"rank r={self.r} outside (0, min(p, d)={min(self.p, self.d)}]")
        if self.B_star.shape != (self.p, self.d):
            raise ValueError(f"B_star shape {self.B_star.shape} != ({self.p}, {self.d})")
        if self.theta_star.shape != (self.d,):
            raise ValueError(f"theta_star shape {self.theta_star.shape} != ({self.d},)")
        if self.sigma2 <= 0 or self.tau2 <= 0:
            raise ValueError("sigma2 and tau2 must be positive")
        got = numerical_rank(self.B_star)
        if got != self.r:
            raise ValueError(f"B_star has numerical rank {got}, expected {self.r}")


@dataclass(frozen=True)
class RegressionDataset:
    """One sampled dataset: design X, effective design A = X B, responses y."""

    n: int
    X: np.ndarray   # (n, p)
    A: np.ndarray   # (n, d), equals X @ B_star of the generating spec
    y: np.ndarray   # (n,)

    def __post_init__(self) -> None:
        if not (self.X.shape[0] == self.A.shape[0] == self.y.shape[0] == self.n):
            raise ValueError(
                f"inconsistent row counts: n={self.n}, X={self.X.shape}, "
                f"A={self.A.shape}, y={self.y.shape}"
            )


@dataclass(frozen=True)
class DataGenConfig:
    """Which deterministic stream a dataset is drawn from."""

    seed: int = 0


def make_rank_r_factor(p: int, d: int, r: int, seed: int) -> np.ndarray:
    """Draw a p x d matrix of exact rank r as U V^T with Gaussian factors.

    U (p x r) and V (d x r) have i.i.d. standard normal entries from the
    seeded "factor" stream.  The product has rank r almost surely; the rank is
    asserted and on the (measure-zero) failure the draw is retried from a
    perturbed stream index.
    """
    if p < 1 or d < 1:
        raise ValueError(f"dimensions must be positive, got p={p}, d={d}")
    if not 0 < r <= min(p, d):
        raise ValueError(f"rank r={r} outside (0, min(p, d)={min(p, d)}]")
    for attempt in range(_MAX_FACTOR_ATTEMPTS):
        rng = substream(seed, "factor", attempt)
        U = rng.standard_normal((p, r))
        V = rng.standard_normal((d, r))
        B = U @ V.T
        if numerical_rank(B) == r:
            return B
    raise NumericalError(
        f"could not draw a rank-{r} factor of shape ({p}, {d}) "
        f"in {_MAX_FACTOR_ATTEMPTS} attempts"
    )


def make_spec(
    p: int,
    d: int,
    r: int,
    sigma2: float = 1.0,
    tau2: float = 1.0,
    seed: int = 0,
) -> RankRegressionSpec:
    """Build a full spec: rank-r factor plus theta_star ~ N(0, tau2 I_d).

    theta_star is drawn once here and frozen in the spec, so varying the
    sample size never redraws the ground truth.
    """
    B = make_rank_r_factor(p, d, r, seed)
    theta = math.sqrt(tau2) * substream(seed, "theta").standard_normal(d)
    return RankRegressionSpec(
        p=p, d=d, r=r, B_star=B, theta_star=theta, sigma2=sigma2, tau2=tau2
    )


def sample_dataset(
    spec: RankRegressionSpec, n: int, cfg: DataGenConfig
) -> RegressionDataset:
    """Sample n observations: X ~ N(0, I) rows, y = X B theta + noise.

    Draws come from the stream keyed by ``(cfg.seed, "dataset", n)``, so
    datasets at different n are independent (not prefixes of one another) and
    the result is bit-identical for fixed ``(spec, n, cfg.seed)``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = substream(cfg.seed, "dataset", n)
    X = rng.standard_normal((n, spec.p))
    eps = math.sqrt(spec.sigma2) * rng.standard_normal(n)
    A = X @ spec.B_star
    y = A @ spec.theta_star + eps
    return RegressionDataset(n=n, X=X, A=A, y=y)


def sample_statistics(
    spec: RankRegressionSpec, n: int, cfg: DataGenConfig
) -> SufficientStatistics:
    """Draw the sufficient statistics of an n-observation dataset directly.

    With ``Z = [X, eps / sigma]`` (n x (p+1), i.i.d. standard normal),
    ``W = Z^T Z ~ Wishart_{p+1}(n, I)``, and ``A^T A``, ``A^T y`` and ``y^T y``
    are fixed linear functions of ``W``.  For ``n > p`` the draw is the
    Bartlett factorization ``W = T T^T`` (chi-square diagonal with n, n-1,
    ... degrees of freedom, standard normals below it), O(p^3) whatever
    ``n`` is; for ``n <= p``, where that factorization does not apply, ``Z``
    is drawn itself.  Draws come from the ``(cfg.seed, "wishart", n)``
    stream, so the statistics have the law of :func:`sample_dataset`'s but
    are not the same draw.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    q = spec.p + 1
    rng = substream(cfg.seed, "wishart", n)
    if n >= q:
        T = np.diag(np.sqrt(rng.chisquare(n - np.arange(q))))
        # a boolean mask fills in row-major order, the order of np.tril_indices(q, -1)
        T[np.tri(q, k=-1, dtype=bool)] = rng.standard_normal(q * (q - 1) // 2)
        W = T @ T.T
    else:
        Z = rng.standard_normal((n, q))
        W = Z.T @ Z
    sigma = math.sqrt(spec.sigma2)
    G = W[:-1, :-1]
    h = sigma * W[:-1, -1]
    B, mean = spec.B_star, spec.B_star @ spec.theta_star
    G_mean = G @ mean
    return SufficientStatistics(
        n=n,
        S=symmetrize(B.T @ G @ B),
        b=B.T @ (G_mean + h),
        yy=float(mean @ G_mean + 2.0 * (mean @ h) + spec.sigma2 * W[-1, -1]),
        sigma2=spec.sigma2,
        tau2=spec.tau2,
    )


def population_gram(spec: RankRegressionSpec) -> np.ndarray:
    """Limit of (1/n) A^T A: B^T Sigma_x B, here B^T B since Sigma_x = I.

    Symmetric positive semidefinite with exactly r nonzero eigenvalues.
    """
    return spec.B_star.T @ spec.B_star
