"""Rank-constrained linear-Gaussian regression models and synthetic data.

The generative model is ``y_i = x_i^T B theta + eps_i`` with a ground-truth
factor ``B`` of exact rank ``r``, Gaussian covariates, Gaussian noise of known
variance ``sigma2``, and an isotropic Gaussian prior of variance ``tau2`` on
``theta``.  When ``r < d`` the effective design ``A = X B`` is rank-deficient
and ``d - r`` parameter directions do not affect the likelihood.

:func:`sample_dataset` draws the data themselves.  :func:`sample_statistics`
draws only the sufficient statistics ``(A^T A, A^T y, y^T y)``, exactly, at a
cost that does not depend on ``n``: with ``Z = [X, eps / sigma]``, ``Z^T Z``
is Wishart, and the rows ``T^T`` of its factor
(:func:`~rankevidence._rng.wishart_roots`) are an equivalent dataset of
``min(n, p + 1)`` rows (:func:`wishart_rows`), which the statistics keep and
the studies score on the factors of :func:`rank_r_factors`.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ._linalg import NumericalError, numerical_rank, spectral_rank
from ._rng import substream, wishart_roots
from .evidence import SufficientStatistics, check_positive

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
        check_positive(sigma2=self.sigma2, tau2=self.tau2)

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
    """A p x d matrix of exact rank r: :func:`rank_r_factors` of one seed."""
    return next(rank_r_factors(p, d, [r], [seed]))[0][0]


def rank_r_factors(p: int, d: int, ranks: list[int],
                   seeds: list[int]) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """For each r of ``ranks`` in turn, the seeds' p x d factors ``B = U V^T``
    of rank r, stacked (len(seeds), p, d), and their thin SVD ``(U_B, s_B)``.

    U (p x r), then V (d x r), are normal draws from the seed's ``("factor",
    attempt)`` stream.  Each seed draws (p + d) max(ranks) normals once, at
    attempt 0, for every rank: a normal draw is a prefix of any longer one.
    The singular values check each factor's rank; one that fails (measure
    zero) is redrawn alone from its next attempt's stream.
    """
    if p < 1 or d < 1 or not all(0 < r <= min(p, d) for r in ranks):
        raise ValueError(f"need positive p={p}, d={d} and ranks {ranks} in (0, min(p, d)]")
    z = np.stack([substream(seed, "factor").standard_normal((p + d) * max(ranks))
                  for seed in seeds])
    for r in ranks:
        draws = z[:, :(p + d) * r]
        for attempt in range(1, _MAX_FACTOR_ATTEMPTS + 1):
            U_r, V_r = draws[:, :p * r].reshape(-1, p, r), draws[:, p * r:].reshape(-1, d, r)
            B = U_r @ V_r.swapaxes(1, 2)
            U, s, _ = np.linalg.svd(B, full_matrices=False)
            failed = np.flatnonzero(spectral_rank(s, max(p, d)) != r)
            if not failed.size:
                break
            if attempt == _MAX_FACTOR_ATTEMPTS:
                raise NumericalError(f"no rank-{r} factor of shape ({p}, {d}) in {attempt} attempts")
            draws = draws.copy()   # the other ranks keep reading the attempt-0 draw
            draws[failed] = [substream(seeds[i], "factor", attempt).standard_normal((p + d) * r)
                             for i in failed]
        yield B, U, s


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
    """Draw the sufficient statistics of an n-observation dataset directly,
    on the p + 1 :func:`wishart_rows` of the ``(cfg.seed, "wishart", n)``
    factor.  They have the law of :func:`sample_dataset`'s statistics but are
    not the same draw."""
    Z = wishart_roots([cfg.seed], "wishart", [n], spec.p + 1)[0, 0]
    X, y = wishart_rows(spec.B_star, spec.theta_star, spec.sigma2, Z)
    return SufficientStatistics(n=n, A=X @ spec.B_star, y=y, sigma2=spec.sigma2, tau2=spec.tau2)


def wishart_rows(
    B: np.ndarray, theta: np.ndarray, sigma2: float, Z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``X = Z[..., :-1]`` and ``y = X B theta + sigma Z[..., -1]``,
    broadcast over the leading axes of ``B`` (..., p, d), ``theta`` (..., d)
    and ``Z`` (..., m, p+1).  For ``Z = T^T`` of a Wishart factor of n
    observations, padded or not with zero rows, ``(X, y)`` has the statistics
    of n observations of the model ``(B, theta, sigma2)``."""
    X = Z[..., :-1]
    return X, (X @ (B @ theta[..., None]))[..., 0] + math.sqrt(sigma2) * Z[..., -1]


def population_gram(spec: RankRegressionSpec) -> np.ndarray:
    """Limit of (1/n) A^T A: B^T Sigma_x B, here B^T B since Sigma_x = I.

    Symmetric positive semidefinite with exactly r nonzero eigenvalues.
    """
    return spec.B_star.T @ spec.B_star
