"""Brute-force verification of the closed-form evidence.

Two independent routes: adaptive cubature of the joint density for d <= 2,
and self-normalized importance sampling for d <= 5.  All integrand work runs
in log space with max subtraction, since the n log sigma2 terms reach
magnitudes where naive exponentiation underflows.  The cubature domain is a
box centered at the posterior mean with a radius measured in posterior
standard deviations — the posterior, not the prior, is where the mass
concentrates — and the integrand is the raw joint density at every node, so
the posterior only places the box.  The cubature is plain numpy: a batched
tensor-product Gauss-Legendre rule, refined box by box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._linalg import chol_logdet, spd_cholesky
from ._rng import substream
from .evidence import LOG_2PI, GaussianLinearProblem, posterior


# 20-point Gauss-Legendre rule on [-1, 1], exact for polynomials of degree 39.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


class OracleError(RuntimeError):
    """The verification integral did not converge; the check is inconclusive."""


@dataclass(frozen=True)
class QuadratureSettings:
    rel_tol: float = 1e-9
    max_subdivisions: int = 200        # boxes in the cubature partition
    integration_radius: float = 12.0   # in posterior standard deviations

    def __post_init__(self) -> None:
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.max_subdivisions < 10:
            raise ValueError("max_subdivisions must be at least 10")
        if self.integration_radius < 8.0:
            raise ValueError(
                "integration_radius below 8 posterior standard deviations "
                "lets tail truncation exceed the target accuracy"
            )


def log_joint(prob: GaussianLinearProblem, theta: np.ndarray) -> float:
    """log p(y | theta) + log prior(theta) at a single parameter point."""
    resid = prob.y - prob.A @ theta
    log_lik = -0.5 * (
        prob.n * (LOG_2PI + math.log(prob.sigma2)) + float(resid @ resid) / prob.sigma2
    )
    log_prior = -0.5 * (
        prob.d * (LOG_2PI + math.log(prob.tau2)) + float(theta @ theta) / prob.tau2
    )
    return log_lik + log_prior


def quadrature_log_evidence(
    prob: GaussianLinearProblem, settings: QuadratureSettings | None = None
) -> float:
    """log of the evidence integral by adaptive cubature (d <= 2).

    The domain is the box ``[-R, R]^d`` in coordinates whitened by the
    posterior covariance factor, ``R = settings.integration_radius``.  Each
    round applies a tensor-product 20-point Gauss-Legendre rule to every open
    box and to its ``2^d`` halves in one array evaluation; a box whose two
    values differ by at most ``rel_tol * |estimate| * vol_box / vol_total``
    is accepted at the finer value, the others are split.  Whitening only
    reshapes the domain — the integrand is still the true joint density at
    every node — so a posterior a few standard deviations off cannot bias the
    value beyond the mass it pushes out of the box, only slow convergence.
    Non-convergence within ``settings.max_subdivisions`` boxes raises
    :class:`OracleError` rather than returning a doubtful number.
    """
    settings = settings or QuadratureSettings()
    d = prob.d
    if d > 2:
        raise ValueError(f"quadrature oracle supports d <= 2, got d={d}")
    post = posterior(prob)
    mu = post.mean
    radius = settings.integration_radius
    log_peak = log_joint(prob, mu)
    L = spd_cholesky(post.precision, context="quadrature domain")
    # theta = mu + L^{-T} u maps the unit ball of the posterior metric to the
    # u coordinates; |det L^{-T}| = 1/prod(diag L).
    log_jacobian = -float(np.sum(np.log(np.diag(L))))
    T = scipy.linalg.solve_triangular(L, np.eye(d), lower=True, trans="T")

    # The log joint, expanded in its sufficient statistics.
    yty = float(prob.y @ prob.y)
    b = prob.A.T @ prob.y
    S = prob.A.T @ prob.A
    const = -0.5 * (
        prob.n * (LOG_2PI + math.log(prob.sigma2))
        + d * (LOG_2PI + math.log(prob.tau2))
    )

    # The tensor rule on [-1, 1]^d, and the centres of a box's 2^d halves in
    # units of its half-width.
    nodes, halves = _tensor_grid(_GL_NODES, d), _tensor_grid([-0.5, 0.5], d)
    weights = np.prod(_tensor_grid(_GL_WEIGHTS, d), axis=1)

    def rule(centres: np.ndarray, half: float) -> np.ndarray:
        """The rule on each box of half-width ``half`` about ``centres`` (m, d)."""
        theta = mu + (centres[:, None, :] + half * nodes) @ T.T
        rss = yty - 2.0 * (theta @ b) + np.einsum("...i,ij,...j->...", theta, S, theta)
        log_f = const - 0.5 * (
            rss / prob.sigma2 + np.einsum("...i,...i->...", theta, theta) / prob.tau2
        )
        return np.exp(log_f - log_peak) @ weights * half**d

    centres, half = np.zeros((1, d)), radius
    coarse = rule(centres, half)
    value = abserr = 0.0            # accepted mass and its error estimate
    n_boxes = 1
    while coarse.size:
        centres = (centres[:, None, :] + half * halves).reshape(-1, d)
        half /= 2.0
        fine = rule(centres, half).reshape(-1, 2**d)
        err = np.abs(fine.sum(axis=1) - coarse)
        estimate = value + float(fine.sum())
        done = err <= settings.rel_tol * abs(estimate) * (2.0 * half / radius) ** d
        value += float(fine[done].sum())
        abserr += float(err[done].sum())
        n_boxes += (2**d - 1) * int(np.count_nonzero(~done))
        if n_boxes > settings.max_subdivisions:
            raise OracleError(
                f"quadrature did not converge within {settings.max_subdivisions} boxes"
            )
        centres = centres.reshape(-1, 2**d, d)[~done].reshape(-1, d)
        coarse = fine[~done].ravel()

    if not value > 0.0 or not np.isfinite(value):
        raise OracleError(f"quadrature returned a non-positive mass {value}")
    if abserr > 10.0 * settings.rel_tol * value:
        raise OracleError(
            f"quadrature error estimate {abserr:.3e} exceeds budget "
            f"for mass {value:.6e}"
        )
    return log_peak + log_jacobian + math.log(value)


def _tensor_grid(points, d: int) -> np.ndarray:
    """Every d-tuple of ``points``, one per row: a (len(points)^d, d) array."""
    return np.stack(np.meshgrid(*[points] * d, indexing="ij"), axis=-1).reshape(-1, d)


def importance_log_weights(
    prob: GaussianLinearProblem,
    n_samples: int,
    seed: int,
    proposal_scale: float = 1.0,
) -> np.ndarray:
    """Log importance weights under the exact-posterior proposal.

    The proposal is N(mu, proposal_scale^2 * precision^{-1}).  At scale 1 the
    proposal equals the posterior, so the weights are constant up to floating
    point — a sharp correctness check on the whole pipeline.
    """
    if prob.d > 5:
        raise ValueError(f"importance oracle supports d <= 5, got d={prob.d}")
    if n_samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {n_samples}")
    if proposal_scale <= 0:
        raise ValueError("proposal_scale must be positive")
    post = posterior(prob)
    mu = post.mean
    L = spd_cholesky(post.precision, context="importance proposal")
    z = substream(seed, "importance").standard_normal((n_samples, prob.d))
    # x = mu + scale * L^{-T} z has covariance scale^2 * precision^{-1}.
    offsets = scipy.linalg.solve_triangular(L, z.T, lower=True, trans="T").T
    thetas = mu + proposal_scale * offsets

    resid = prob.y[None, :] - thetas @ prob.A.T
    log_lik = -0.5 * (
        prob.n * (LOG_2PI + math.log(prob.sigma2))
        + np.sum(resid * resid, axis=1) / prob.sigma2
    )
    log_prior = -0.5 * (
        prob.d * (LOG_2PI + math.log(prob.tau2))
        + np.sum(thetas * thetas, axis=1) / prob.tau2
    )
    log_proposal = (
        -0.5 * prob.d * LOG_2PI
        - prob.d * math.log(proposal_scale)
        + 0.5 * chol_logdet(L)
        - 0.5 * np.sum(z * z, axis=1)
    )
    return log_lik + log_prior - log_proposal


def importance_log_evidence(
    prob: GaussianLinearProblem,
    n_samples: int,
    seed: int,
    proposal_scale: float = 1.0,
) -> tuple[float, float]:
    """Self-normalized importance estimate of the log evidence and its stderr."""
    logw = importance_log_weights(prob, n_samples, seed, proposal_scale)
    peak = float(logw.max())
    w = np.exp(logw - peak)
    mean_w = float(w.mean())
    estimate = peak + math.log(mean_w)
    stderr = float(w.std(ddof=1)) / (mean_w * math.sqrt(n_samples))
    return estimate, stderr


def random_problem(
    rng: np.random.Generator, max_d: int, max_n: int, min_n: int = 2
) -> GaussianLinearProblem:
    """Draw a random well-scaled problem for verification sweeps."""
    d = int(rng.integers(1, max_d + 1))
    n = int(rng.integers(max(min_n, 2), max_n + 1))
    sigma2 = float(rng.uniform(0.3, 3.0))
    tau2 = float(rng.uniform(0.3, 3.0))
    A = rng.uniform(0.5, 2.0) * rng.standard_normal((n, d))
    theta = math.sqrt(tau2) * rng.standard_normal(d)
    y = A @ theta + math.sqrt(sigma2) * rng.standard_normal(n)
    return GaussianLinearProblem(A=A, y=y, sigma2=sigma2, tau2=tau2)
