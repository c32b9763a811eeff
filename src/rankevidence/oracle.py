"""Brute-force verification of the closed-form evidence.

Two independent routes: adaptive cubature of the joint density for d <= 2,
and self-normalized importance sampling for d <= 5.  Both read only
:class:`~rankevidence.evidence.SufficientStatistics`, the input of the
studies' evidence record, and integrate the one Gaussian
:func:`~rankevidence.evidence.log_joint` in log space with max subtraction,
since the n log sigma2 terms reach magnitudes where naive exponentiation
underflows.  The cubature domain is a box centered at the posterior mean
with a radius measured in posterior standard deviations; the integrand is
the raw joint density at every node, so the posterior only places the box.
The cubature is plain numpy: a batched tensor-product Gauss-Legendre rule,
refined box by box.
"""

from __future__ import annotations

import math

import numpy as np

from ._linalg import chol_logdet, spd_cholesky
from ._rng import substream
from .evidence import LOG_2PI, GaussianLinearProblem, SufficientStatistics, log_joint, posterior


# 20-point Gauss-Legendre rule on [-1, 1], exact for polynomials of degree 39.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)

REL_TOL = 1e-9      # relative accuracy of the cubature
MAX_BOXES = 200     # boxes in the cubature partition before it gives up
RADIUS = 12.0       # box half-width, in posterior standard deviations


class OracleError(RuntimeError):
    """The verification integral cannot be trusted; the check is inconclusive."""


def quadrature_log_evidence(stats: SufficientStatistics) -> float:
    """log of the evidence integral by adaptive cubature (d <= 2).

    The domain is the box ``[-RADIUS, RADIUS]^d`` in coordinates whitened by
    the posterior covariance factor.  Each round applies a tensor-product
    20-point Gauss-Legendre rule to every open box and to its ``2^d`` halves
    in one array evaluation; a box whose two values differ by at most
    ``REL_TOL * |estimate| * vol_box / vol_total`` is accepted at the finer
    value, the others are split.  The integrand is the true joint density at
    every node, so a misplaced box cannot bias the value inside it; the mass
    it leaves outside shows as a joint density on its faces above ``REL_TOL``
    times the centre value, which raises :class:`OracleError` rather than
    returning a doubtful number, as does non-convergence within
    ``MAX_BOXES`` boxes.
    """
    d = stats.d
    if d > 2:
        raise ValueError(f"quadrature oracle supports d <= 2, got d={d}")
    post = posterior(stats)
    mu = post.mean
    log_peak = float(log_joint(stats, mu))
    L = spd_cholesky(post.precision, context="quadrature domain")
    # theta = mu + L^{-T} u maps the unit ball of the posterior metric to the
    # u coordinates; |det L^{-T}| = 1/prod(diag L).
    log_jacobian = -float(np.sum(np.log(np.diag(L))))
    T = np.linalg.solve(L.T, np.eye(d))

    # The rule's nodes on the box faces, with the corners.
    ring = _tensor_grid(np.concatenate([[-1.0], _GL_NODES, [1.0]]), d)
    faces = RADIUS * ring[np.abs(ring).max(axis=1) == 1.0]
    log_edge = float(np.max(log_joint(stats, mu + faces @ T.T)))
    if log_edge > log_peak + math.log(REL_TOL):
        raise OracleError(
            f"the integration box does not hold the mass: the joint density on "
            f"its faces reaches {math.exp(log_edge - log_peak):.3e} of its centre value"
        )

    # The tensor rule on [-1, 1]^d, and the centres of a box's 2^d halves in
    # units of its half-width.
    nodes, halves = _tensor_grid(_GL_NODES, d), _tensor_grid([-0.5, 0.5], d)
    weights = np.prod(_tensor_grid(_GL_WEIGHTS, d), axis=1)

    def rule(centres: np.ndarray, half: float) -> np.ndarray:
        """The rule on each box of half-width ``half`` about ``centres`` (m, d)."""
        theta = mu + (centres[:, None, :] + half * nodes) @ T.T
        return np.exp(log_joint(stats, theta) - log_peak) @ weights * half**d

    centres, half = np.zeros((1, d)), RADIUS
    coarse = rule(centres, half)
    value = abserr = 0.0            # accepted mass and its error estimate
    n_boxes = 1
    while coarse.size:
        centres = (centres[:, None, :] + half * halves).reshape(-1, d)
        half /= 2.0
        fine = rule(centres, half).reshape(-1, 2**d)
        err = np.abs(fine.sum(axis=1) - coarse)
        estimate = value + float(fine.sum())
        done = err <= REL_TOL * abs(estimate) * (2.0 * half / RADIUS) ** d
        value += float(fine[done].sum())
        abserr += float(err[done].sum())
        n_boxes += (2**d - 1) * int(np.count_nonzero(~done))
        if n_boxes > MAX_BOXES:
            raise OracleError(f"quadrature did not converge within {MAX_BOXES} boxes")
        centres = centres.reshape(-1, 2**d, d)[~done].reshape(-1, d)
        coarse = fine[~done].ravel()

    if not value > 0.0 or not np.isfinite(value):
        raise OracleError(f"quadrature returned a non-positive mass {value}")
    if abserr > 10.0 * REL_TOL * value:
        raise OracleError(
            f"quadrature error estimate {abserr:.3e} exceeds budget "
            f"for mass {value:.6e}"
        )
    return log_peak + log_jacobian + math.log(value)


def _tensor_grid(points, d: int) -> np.ndarray:
    """Every d-tuple of ``points``, one per row: a (len(points)^d, d) array."""
    return np.stack(np.meshgrid(*[points] * d, indexing="ij"), axis=-1).reshape(-1, d)


def importance_log_weights(
    stats: SufficientStatistics,
    n_samples: int,
    seed: int,
    proposal_scale: float = 1.0,
) -> np.ndarray:
    """Log importance weights under the exact-posterior proposal.

    The proposal is N(mu, proposal_scale^2 * precision^{-1}).  At scale 1 the
    proposal equals the posterior, so the weights are constant up to floating
    point — a sharp correctness check on the whole pipeline.
    """
    d = stats.d
    if d > 5:
        raise ValueError(f"importance oracle supports d <= 5, got d={d}")
    if n_samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {n_samples}")
    if proposal_scale <= 0:
        raise ValueError("proposal_scale must be positive")
    post = posterior(stats)
    L = spd_cholesky(post.precision, context="importance proposal")
    z = substream(seed, "importance").standard_normal((n_samples, d))
    # x = mu + scale * L^{-T} z has covariance scale^2 * precision^{-1}.
    offsets = np.linalg.solve(L.T, z.T).T
    thetas = post.mean + proposal_scale * offsets
    log_proposal = (
        -0.5 * d * LOG_2PI
        - d * math.log(proposal_scale)
        + 0.5 * chol_logdet(L)
        - 0.5 * np.sum(z * z, axis=1)
    )
    return log_joint(stats, thetas) - log_proposal


def importance_log_evidence(
    stats: SufficientStatistics,
    n_samples: int,
    seed: int,
    proposal_scale: float = 1.0,
) -> tuple[float, float]:
    """Self-normalized importance estimate of the log evidence and its stderr."""
    logw = importance_log_weights(stats, n_samples, seed, proposal_scale)
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
