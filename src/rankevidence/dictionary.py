"""Linear subspace (dictionary) models with Gaussian latents.

Observations are ``y_i = D z_i + eps_i`` with ``z_i ~ N(0, tau2 I_d)`` and
isotropic noise, so marginally ``y_i ~ N(0, tau2 D D^T + sigma2 I_p)``.  A
"minimal" dictionary uses r = dim span(D) columns; an "overcomplete" one uses
more columns for the same span.  The marginal law depends on D only through
D D^T, which is what makes column count a representation choice rather than a
statistical one — and what BIC's per-column penalty gets wrong.

Both the exact likelihood and the ML fit depend on the data only through
``n`` and the scatter ``Y^T Y ~ Wishart_p(n, Sigma_y)``, so the one data
type, :class:`DictionaryStatistics`, keeps rows whose scatter it is: the n
observations themselves, or the p rows ``(L T)^T`` of a square root,
``L L^T = Sigma_y``, drawn exactly at a cost that does not depend on n.
A study's cells run as arrays, one :func:`comparison_batch` per (pair, seed);
the one-cell functions are calls of the same array code.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._linalg import (
    chol_logdet,
    chol_solve,
    numerical_rank,
    spd_cholesky,
    symmetrize,
)
from ._rng import substream, wishart_roots
from .evidence import LOG_2PI, bic_score, check_positive, rlct_score
from .rlct import analytic_rlct


@dataclass(frozen=True)
class DictionarySpec:
    """A dictionary with its latent and noise scales.  The observation
    dimension ``p``, the column count ``d`` and the span dimension ``r`` are
    read off ``D``."""

    D: np.ndarray       # (p, d) dictionary
    tau2: float         # latent prior variance
    sigma2: float       # noise variance

    def __post_init__(self) -> None:
        if self.D.ndim != 2 or not self.D.size:
            raise ValueError(f"D must be a nonempty matrix, got shape {self.D.shape}")
        check_positive(sigma2=self.sigma2, tau2=self.tau2)

    @property
    def p(self) -> int:
        return self.D.shape[0]

    @property
    def d(self) -> int:
        return self.D.shape[1]

    @functools.cached_property
    def r(self) -> int:
        """The numerical rank of ``D``, computed on first read."""
        return numerical_rank(self.D)


@dataclass(frozen=True)
class DictionaryStatistics:
    """What the likelihood and the fit depend on: ``n`` and rows ``Y`` whose
    scatter ``Y^T Y`` is that of the n observation vectors.  The rows are the
    observations themselves or any equivalent set, such as a square root."""

    n: int
    Y: np.ndarray   # (q, p) observation rows

    def __post_init__(self) -> None:
        if self.Y.ndim != 2:
            raise ValueError(f"rows must be 2-D, got shape {self.Y.shape}")
        if self.n < 1:
            raise ValueError(f"need at least one observation, got n={self.n}")

    @functools.cached_property
    def YY(self) -> np.ndarray:
        """The scatter ``Y^T Y``, (p, p), symmetric."""
        return symmetrize(self.Y.T @ self.Y)


def marginal_covariance(spec: DictionarySpec) -> np.ndarray:
    """Marginal observation covariance tau2 D D^T + sigma2 I_p."""
    return spec.tau2 * (spec.D @ spec.D.T) + spec.sigma2 * np.eye(spec.p)


def dict_log_likelihood(spec: DictionarySpec, stats: DictionaryStatistics) -> float:
    """Exact Gaussian log likelihood of the data under the marginal law.

    The quadratic form ``tr(Sigma_y^{-1} Y^T Y)`` goes through an SPD
    factorization of the marginal covariance, never an explicit inverse.
    """
    if stats.Y.shape[1] != spec.p:
        raise ValueError(
            f"data dimension {stats.Y.shape[1]} != observation dimension {spec.p}"
        )
    L = spd_cholesky(marginal_covariance(spec), context="dict_log_likelihood")
    return float(_log_likelihoods(L, stats.n, stats.YY))


def _log_likelihoods(L: np.ndarray, n, YY: np.ndarray) -> np.ndarray:
    """:func:`dict_log_likelihood` of scatters ``YY`` (..., p, p), ``L`` = chol(Sigma_y)."""
    quad = np.trace(chol_solve(L, YY), axis1=-2, axis2=-1)
    return -0.5 * (n * (L.shape[0] * LOG_2PI + chol_logdet(L)) + quad)


def sample_dictionary_data(spec: DictionarySpec, n: int, seed: int) -> DictionaryStatistics:
    """Draw n observations y_i = D z_i + eps_i, deterministic per seed, as rows."""
    rng = substream(seed, "dict-data", n)
    Z = math.sqrt(spec.tau2) * rng.standard_normal((n, spec.d))
    E = math.sqrt(spec.sigma2) * rng.standard_normal((n, spec.p))
    return DictionaryStatistics(n=n, Y=Z @ spec.D.T + E)


def sample_dictionary_statistics(
    spec: DictionarySpec, n: int, seed: int
) -> DictionaryStatistics:
    """Draw the scatter of n observations directly, as the p rows ``(L T)^T``
    of its square root: the one-point case of :func:`comparison_batch`'s
    draw, with the law of :func:`sample_dictionary_data`'s scatter but not
    the same draw."""
    L = spd_cholesky(marginal_covariance(spec), context="sample_dictionary_statistics")
    LT = L @ wishart_roots(seed, "dict-wishart", [n], spec.p)[0].T
    return DictionaryStatistics(n=n, Y=LT.T)


def make_dictionary_pair(
    p: int,
    r: int,
    d_over: int,
    seed: int,
    tau2: float = 1.0,
    sigma2: float = 1.0,
) -> tuple[DictionarySpec, DictionarySpec]:
    """A minimal and an overcomplete dictionary sharing span and marginal law.

    The minimal dictionary has r orthonormalized Gaussian columns.  The
    overcomplete one is ``D' = D M`` where M (r x d_over) is a Gaussian draw
    with orthonormalized rows, so M M^T = I_r.  That makes D' D'^T = D D^T:
    the two specs put exactly the same distribution on the observations, and
    differ only in how many coordinates parameterize it.  (A generic
    full-row-rank M would preserve the span but change the marginal
    covariance, and the two fixed-parameter evidences would then drift apart
    linearly in n instead of staying O(1).)
    """
    if not 0 < r <= p:
        raise ValueError(f"need 0 < r <= p, got r={r}, p={p}")
    if d_over <= r:
        raise ValueError(f"overcomplete column count must exceed r={r}, got {d_over}")
    basis_rng = substream(seed, "dict-basis")
    D_min, _ = np.linalg.qr(basis_rng.standard_normal((p, r)))
    mix_rng = substream(seed, "dict-mix")
    Q, _ = np.linalg.qr(mix_rng.standard_normal((d_over, r)))
    M = Q.T   # (r, d_over), rows orthonormal
    D_over = D_min @ M
    return DictionarySpec(D_min, tau2, sigma2), DictionarySpec(D_over, tau2, sigma2)


def gram_spectrum(spec: DictionarySpec) -> np.ndarray:
    """Eigenvalues of D^T D in descending order.

    Exactly r of them sit above the numerical-rank threshold; an overcomplete
    dictionary shows the remaining d - r as a block of near-zero values.
    """
    eigs = np.linalg.eigvalsh(spec.D.T @ spec.D)
    return eigs[::-1].copy()


def ml_fit_term(stats: DictionaryStatistics, shape_d: int, sigma2: float) -> float:
    """Maximized log likelihood over all dictionaries with shape_d columns.

    With known noise variance the optimum has a closed form: eigendecompose
    the sample second moment C = (1/n) Y^T Y, place signal variance
    ``max(ell_j - sigma2, 0)`` on the top min(shape_d, p) sample eigenvectors,
    and evaluate the Gaussian log likelihood under the resulting covariance.
    Directions whose sample eigenvalue falls below sigma2 clamp to pure noise,
    which is why extra columns beyond the data rank buy only an O(1) gain.
    The latent scale tau2 does not move the optimum: the dictionary absorbs it.
    """
    if shape_d < 0:
        raise ValueError(f"column count must be nonnegative, got {shape_d}")
    check_positive(sigma2=sigma2)
    return float(_ml_fits(stats.n, _sample_eigenvalues(stats.n, stats.YY), shape_d, sigma2))


def _sample_eigenvalues(n, YY: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of each ``YY / n`` of a (..., p, p) stack; NaN
    for a scatter that is not finite, on which ``eigvalsh`` would raise."""
    finite = np.isfinite(YY).all(axis=(-2, -1))
    C = np.where(finite[..., None, None], YY, 0.0) / np.asarray(n)[..., None, None]
    return np.where(finite[..., None], np.linalg.eigvalsh(C)[..., ::-1], np.nan)


def _ml_fits(n, ell: np.ndarray, shape_d: int, sigma2: float) -> np.ndarray:
    """:func:`ml_fit_term` from the descending sample eigenvalues ``ell``."""
    p = ell.shape[-1]
    model_var = np.where(np.arange(p) < min(shape_d, p), np.maximum(ell, sigma2), sigma2)
    return -0.5 * n * (p * LOG_2PI + np.sum(np.log(model_var) + ell / model_var, axis=-1))


@dataclass(frozen=True)
class DictionaryComparison:
    """Scores for a minimal/overcomplete pair on one shared dataset.

    ``fit_*`` are maximized log likelihoods over each shape.  The headline
    ``bic_*`` and ``rlct_*`` scores apply the per-shape (columns/2) log n and
    shared (r/2) log n penalties to a common fit term — the minimal-shape ML
    fit, which the overcomplete shape matches up to a bounded clamping gain —
    so the score gaps isolate the penalty difference.  The ``*_ml`` scores
    use the overcomplete shape's own ML fit instead.
    """

    n: int
    seed: int
    exact_minimal: float
    exact_overcomplete: float
    fit_minimal: float
    fit_overcomplete: float
    bic_minimal: float
    bic_overcomplete: float
    rlct_minimal: float
    rlct_overcomplete: float
    bic_overcomplete_ml: float
    rlct_overcomplete_ml: float


def comparison_batch(
    pair: tuple[DictionarySpec, DictionarySpec], n_grid: list[int], seed: int
) -> dict[str, np.ndarray]:
    """The ten score fields of :class:`DictionaryComparison`, in field order,
    as arrays over ``n_grid``: one seed's scatters, formed from the minimal
    spec by two batched matmuls, scored with one Cholesky factor per member
    and one ``eigvalsh`` stack; the penalised scores are :func:`bic_score`
    and :func:`rlct_score` of the fits.  A non-finite scatter gets NaN scores."""
    minimal, overcomplete = pair
    if minimal.r != overcomplete.r:
        raise ValueError(
            f"pair members disagree on span dimension: {minimal.r} vs {overcomplete.r}"
        )
    n = np.array(n_grid)
    L_min, L_over = (spd_cholesky(marginal_covariance(s), context="comparison_batch") for s in pair)
    LT = L_min @ wishart_roots(seed, "dict-wishart", n_grid, minimal.p).swapaxes(-1, -2)
    YY = symmetrize(LT @ LT.swapaxes(-1, -2))
    ell = _sample_eigenvalues(n, YY)
    fit_min = _ml_fits(n, ell, minimal.d, minimal.sigma2)
    fit_over = _ml_fits(n, ell, overcomplete.d, overcomplete.sigma2)
    lam = analytic_rlct(minimal.r)
    return {
        "exact_minimal": _log_likelihoods(L_min, n, YY),
        "exact_overcomplete": _log_likelihoods(L_over, n, YY),
        "fit_minimal": fit_min,
        "fit_overcomplete": fit_over,
        "bic_minimal": bic_score(fit_min, minimal.d, n),
        "bic_overcomplete": bic_score(fit_min, overcomplete.d, n),
        "rlct_minimal": rlct_score(fit_min, lam, n),
        "rlct_overcomplete": rlct_score(fit_min, lam, n),
        "bic_overcomplete_ml": bic_score(fit_over, overcomplete.d, n),
        "rlct_overcomplete_ml": rlct_score(fit_over, lam, n),
    }


def dictionary_comparison(
    pair: tuple[DictionarySpec, DictionarySpec], n: int, seed: int
) -> DictionaryComparison:
    """Evaluate both members of a pair on one dataset's statistics, drawn from
    the minimal spec: the one-cell case of :func:`comparison_batch`."""
    scores = comparison_batch(pair, [n], seed)
    return DictionaryComparison(n, seed, *(float(v[0]) for v in scores.values()))
