"""Rank-constrained linear-Gaussian regression models and synthetic data.

The generative model is ``y_i = x_i^T B theta + eps_i`` with a ground-truth
factor ``B`` of exact rank ``r``, Gaussian covariates, Gaussian noise of known
variance ``sigma2``, and an isotropic Gaussian prior of variance ``tau2`` on
``theta``.  When ``r < d`` the effective design ``A = X B`` is rank-deficient
and ``d - r`` parameter directions do not affect the likelihood.

:func:`sample_dataset` draws the data themselves.  :func:`sample_statistics`
draws only the sufficient statistics ``(A^T A, A^T y, y^T y)``, exactly, from
their Wishart law, at a cost that does not depend on ``n``;
:func:`sample_wishart` and :func:`statistics_from_factors` do the same for a
whole sample-size grid and a stack of models.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._linalg import NumericalError, numerical_rank, symmetrize
from ._rng import substream, wishart_factor
from .evidence import SufficientStatistics

_MAX_FACTOR_ATTEMPTS = 8


@dataclass(frozen=True)
class RankRegressionSpec:
    """Ground truth for one regression model.  The covariate and parameter
    dimensions ``p`` and ``d`` and the rank ``r`` are read off ``B_star``."""

    B_star: np.ndarray       # (p, d) factor
    theta_star: np.ndarray   # (d,) true parameter
    sigma2: float            # noise variance
    tau2: float              # prior variance

    def __post_init__(self) -> None:
        if self.B_star.ndim != 2 or not self.B_star.size:
            raise ValueError(f"B_star must be a nonempty matrix, got shape {self.B_star.shape}")
        if self.theta_star.shape != (self.d,):
            raise ValueError(f"theta_star shape {self.theta_star.shape} != ({self.d},)")
        if self.sigma2 <= 0 or self.tau2 <= 0:
            raise ValueError("sigma2 and tau2 must be positive")

    @property
    def p(self) -> int:
        return self.B_star.shape[0]

    @property
    def d(self) -> int:
        return self.B_star.shape[1]

    @functools.cached_property
    def r(self) -> int:
        """The numerical rank of ``B_star``, computed on first read."""
        return numerical_rank(self.B_star)


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
    return RankRegressionSpec(
        B_star=make_rank_r_factor(p, d, r, seed),
        theta_star=draw_theta(d, tau2, seed), sigma2=sigma2, tau2=tau2,
    )


def draw_theta(d: int, tau2: float, seed: int) -> np.ndarray:
    """``theta_star ~ N(0, tau2 I_d)`` from the seeded "theta" stream, the
    same draw whatever the rank."""
    return math.sqrt(tau2) * substream(seed, "theta").standard_normal(d)


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
    """Draw the sufficient statistics of an n-observation dataset directly:
    the one-point case of :func:`sample_wishart` and
    :func:`statistics_from_factors`.  They have the law of
    :func:`sample_dataset`'s statistics but are not the same draw."""
    W = sample_wishart(cfg.seed, [n], spec.p + 1)
    S, b, yy = statistics_from_factors(spec.B_star, spec.theta_star, spec.sigma2, W)
    return SufficientStatistics(
        n=n, S=S[0], b=b[0], yy=yy[0].item(), sigma2=spec.sigma2, tau2=spec.tau2
    )


def sample_wishart(seed: int, n_grid: list[int], q: int) -> np.ndarray:
    """Draw ``W = Z^T Z ~ Wishart_q(n, I)`` for each n of ``n_grid``, stacked
    as a (len(n_grid), q, q) array.

    ``W = T T^T`` with ``T`` from :func:`~rankevidence._rng.wishart_factor`:
    the Bartlett factor for ``n >= q``, O(q^3) whatever ``n`` is, and ``Z``
    itself for ``n < q``.  Each draw comes from the ``(seed, "wishart", n)``
    stream, which does not depend on the model, so one draw serves every
    rank.
    """
    if any(n < 1 for n in n_grid):
        raise ValueError(f"sample sizes must be >= 1, got {n_grid}")
    factors = (wishart_factor(substream(seed, "wishart", n), n, q) for n in n_grid)
    return np.stack([T @ T.T for T in factors])


def statistics_from_factors(
    B: np.ndarray, theta: np.ndarray, sigma2: float, W: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(A^T A, A^T y, y^T y)``, shapes (..., d, d), (..., d) and (...),
    of the model ``(B, theta, sigma2)`` for each ``W``, broadcast over the
    leading axes of ``B`` (..., p, d), ``theta`` (..., d) and ``W``
    (..., p+1, p+1).  With ``Z = [X, eps / sigma]`` (n x (p+1), i.i.d.
    standard normal) and ``W = Z^T Z``, they are linear functions of ``W``.
    """
    sigma = math.sqrt(sigma2)
    G = W[..., :-1, :-1]
    # a multiply, not a strided view: BLAS rounds a strided dot product
    # differently, and the persisted records keep their bits
    h = sigma * W[..., :-1, -1]
    Bt = B.swapaxes(-1, -2)
    mean = (B @ theta[..., None])[..., 0]
    G_mean = (G @ mean[..., None])[..., 0]
    return (
        symmetrize(Bt @ G @ B),
        (Bt @ (G_mean + h)[..., None])[..., 0],
        (mean[..., None, :] @ G_mean[..., None])[..., 0, 0]
        + 2.0 * (mean[..., None, :] @ h[..., None])[..., 0, 0]
        + sigma2 * W[..., -1, -1],
    )


def population_gram(spec: RankRegressionSpec) -> np.ndarray:
    """Limit of (1/n) A^T A: B^T Sigma_x B, here B^T B since Sigma_x = I.

    Symmetric positive semidefinite with exactly r nonzero eigenvalues.
    """
    return spec.B_star.T @ spec.B_star
