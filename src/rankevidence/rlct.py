"""Effective-dimension coefficients and log-n slope fitting.

For rank-r linear-Gaussian regression the log evidence carries a
``-lambda log n`` term with ``lambda = r/2`` (each of the r curved directions
contributes 1/2; the remaining d - r flat directions contribute O(1)).  The
routines here provide that analytic value, ordinary least squares of score
sequences against ``evidence.log_n``, and the empirical slope estimator of lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .evidence import log_n


@dataclass(frozen=True)
class SlopeFit:
    """OLS fit of a value sequence against log n."""

    slope: float
    intercept: float
    stderr_slope: float


def analytic_rlct(r: int) -> float:
    """lambda = r/2 for a rank-r design.

    At ``r = d`` (regular model) this is the usual d/2 of BIC.
    """
    if r < 0:
        raise ValueError(f"rank must be nonnegative, got {r}")
    return r / 2.0


def log_n_slopes(ns: list[int] | np.ndarray, values: np.ndarray) -> np.ndarray:
    """OLS slopes of ``values`` against ``log_n(ns)`` along the last axis.

    The centred closed form ``sum(x~ v~) / sum(x~^2)``, broadcast over the
    leading axes of ``values``.  Requires integer sample sizes in
    [2, 2**64) with at least two distinct logs.
    """
    x = log_n(ns)
    if len(set(x.tolist())) < 2:   # logs: two sizes near 2**64 share one; np.unique loads numpy.ma
        raise ValueError("need sample sizes with at least 2 distinct logs to fit a slope")
    xc = x - x.mean()
    vc = values - np.mean(values, axis=-1, keepdims=True)
    return np.sum(xc * vc, axis=-1) / np.sum(xc * xc)


def fit_log_n_slope(points: Iterable[tuple[int, float]]) -> SlopeFit:
    """Ordinary least squares of value against log n, by :func:`log_n_slopes`.

    Requires integer sample sizes in [2, 2**64) with two distinct logs.
    The slope standard error uses the classical homoskedastic formula; with
    exactly two points (zero residual degrees of freedom) it is reported as 0.
    """
    pts = list(points)
    ns = [p[0] for p in pts]   # not an array: numpy makes sizes past 2**63 among smaller ones float
    vals = np.array([p[1] for p in pts], dtype=float)
    slope = float(log_n_slopes(ns, vals))
    x = log_n(ns)
    intercept = float(vals.mean() - slope * x.mean())

    resid = vals - (intercept + slope * x)
    rss = float(resid @ resid)
    k = len(pts)
    sxx = float(np.sum((x - x.mean()) ** 2))
    dof = k - 2
    stderr = math.sqrt(rss / dof / sxx) if dof > 0 else 0.0
    return SlopeFit(slope=slope, intercept=intercept, stderr_slope=stderr)


def estimate_rlct_from_slope(evidence_points: Iterable[tuple[int, float]]) -> float:
    """Empirical lambda from the slope of centered evidence against log n.

    ``evidence_points`` are ``(n, log_z_exact - log_lik_mle)`` pairs: centering
    by the fit term removes the O(n) data-fit component, leaving
    ``-lambda log n + O(1)``, so the estimator is the negated OLS slope.
    """
    return -fit_log_n_slope(evidence_points).slope


def predicted_bic_error_slope(d: int, r: int) -> float:
    """Predicted slope of (BIC score - exact log evidence) against log n.

    BIC penalizes by (d/2) log n where only (r/2) log n is warranted, so the
    measured error drifts down at rate -(d - r)/2.
    """
    if d < 0:
        raise ValueError(f"dimension must be nonnegative, got {d}")
    if not 0 <= r <= d:
        raise ValueError(f"rank must satisfy 0 <= r <= d, got r={r}, d={d}")
    return 0.5 * (r - d)   # not -0.5 * (d - r): that is -0.0 at r = d
