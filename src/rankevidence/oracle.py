"""Brute-force verification of the closed-form evidence.

Two independent routes: adaptive cubature of the joint density for d <= 2,
and self-normalized importance sampling for d <= 5.  Both read only the
model's one data type, :class:`~rankevidence.evidence.SufficientStatistics`
(the data or a square root), or a stack of it of one d, as the closed forms
do, and integrate the one Gaussian :func:`~rankevidence.evidence.log_joint`
in log space with max subtraction, since the n log sigma2 terms reach
magnitudes where naive exponentiation underflows.  The cubature domain is a
box centered at the posterior mean with a radius measured in posterior
standard deviations; the integrand is the raw joint density at every node,
so the posterior only places the box.  The cubature is plain numpy: each
round of box refinement evaluates the open boxes of every problem of one d
together, each tagged with its problem, in chunks of a fixed node count, so
the working set stays bounded.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from ._linalg import chol_logdet
from ._rng import substream
from .evidence import (LOG_2PI, GaussianLinearProblem, SufficientStatistics, check_positive,
                       log_joint, posterior, stack_statistics)


# 20-point Gauss-Legendre rule on [-1, 1], exact for polynomials of degree 39.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)

REL_TOL = 1e-9      # relative accuracy of the cubature
MAX_BOXES = 200     # boxes in the cubature partition before it gives up
RADIUS = 12.0       # box half-width, in posterior standard deviations
_CHUNK_NODES = 8192  # nodes per array evaluation: bounds the working set


class OracleError(RuntimeError):
    """The verification integral cannot be trusted; the check is inconclusive."""


def quadrature_log_evidence(stats: SufficientStatistics) -> float:
    """log of the evidence integral by adaptive cubature (d <= 2): the
    one-problem call of :func:`quadrature_batch`."""
    return float(quadrature_batch([stats])[0])


def quadrature_batch(stats: list[SufficientStatistics]) -> np.ndarray:
    """log of the evidence integral of each problem by adaptive cubature.

    A problem's domain is the box ``[-RADIUS, RADIUS]^d`` in coordinates
    whitened by its posterior covariance factor.  For the problems of one
    d <= 2, each round applies a tensor-product 20-point Gauss-Legendre rule
    to the ``2^d`` halves of every open box in one array evaluation; a box
    whose two values differ by at most ``REL_TOL * |estimate| * vol_box /
    vol_total`` of its problem is accepted at the finer value, the others are
    split.  The integrand is the true joint density at every node, so a
    misplaced box cannot bias the value inside it; the mass it leaves outside
    shows as a joint density on its faces above ``REL_TOL`` times the centre
    value.  That, more than ``MAX_BOXES`` boxes, a non-positive mass or an
    error over budget raises :class:`OracleError` naming the problem.
    """
    dims = np.array([s.d for s in stats], dtype=int)
    if np.any(dims > 2):
        raise ValueError(f"quadrature oracle supports d <= 2, got d={dims.max()}")
    out = np.empty(len(stats))
    for d in sorted(set(dims.tolist())):   # not np.unique: it loads numpy.ma, 1.5 MiB
        index = np.flatnonzero(dims == d)
        out[index] = _cubature(stack_statistics([stats[i] for i in index]), d, index)
    return out


def _cubature(stats, d: int, index: np.ndarray) -> np.ndarray:
    post = posterior(stats)
    # theta = mu + L^{-T} u maps the unit ball of the posterior metric to the
    # u coordinates; |det L^{-T}| = 1/prod(diag L).
    T = np.linalg.solve(post.chol.swapaxes(-1, -2), np.broadcast_to(np.eye(d), post.chol.shape))
    log_jacobian = -0.5 * chol_logdet(post.chol)
    log_peak = log_joint(stats, post.mean)

    def evaluate(owner, centres, half, points, reduce):
        """``reduce`` of each box's log joint over its problem's peak, by chunks."""
        step, parts = max(1, _CHUNK_NODES // len(points)), []
        for lo in range(0, len(owner), step):
            who, c = owner[lo:lo + step], centres[lo:lo + step]
            # Coordinate planes (d, boxes, nodes) keep numpy's inner loops long.
            u = c.T[:, :, None] + half * points.T[:, None, :]
            theta = post.mean.T[:, who, None] + np.einsum("bij,jbk->ibk", T[who], u)
            boxes = SimpleNamespace(**{f: x[who] for f, x in vars(stats).items()})
            parts.append(reduce(log_joint(boxes, theta.transpose(1, 2, 0)) - log_peak[who, None]))
        return np.concatenate(parts)

    def refuse(bad, message):
        if np.any(bad):
            i = int(np.argmax(bad))
            raise OracleError(f"problem {index[i]}: {message(i)}")

    def per_problem(owner, values=None):
        return np.bincount(owner, values, minlength=len(index))

    # The rule's nodes on the box faces, with the corners.
    ring = _tensor_grid(np.concatenate([[-1.0], _GL_NODES, [1.0]]), d)
    faces = RADIUS * ring[np.abs(ring).max(axis=1) == 1.0]
    owner, centres, half = np.arange(len(index)), np.zeros((len(index), d)), RADIUS
    log_edge = evaluate(owner, centres, 1.0, faces, lambda x: x.max(axis=1))
    refuse(log_edge > math.log(REL_TOL), lambda i: (
        f"the integration box does not hold the mass: the joint density on "
        f"its faces reaches {math.exp(log_edge[i]):.3e} of its centre value"))

    # The tensor rule on [-1, 1]^d, and the centres of a box's 2^d halves in
    # units of its half-width.  All open boxes of a round have one width.
    nodes, halves = _tensor_grid(_GL_NODES, d), _tensor_grid([-0.5, 0.5], d)
    weights = np.prod(_tensor_grid(_GL_WEIGHTS, d), axis=1)

    def rule(owner, centres, half):
        return evaluate(owner, centres, half, nodes, lambda x: np.exp(x) @ weights) * half**d

    coarse = rule(owner, centres, half)
    value, abserr = np.zeros(len(index)), np.zeros(len(index))   # accepted mass, its error
    n_boxes = np.ones(len(index), dtype=int)
    while coarse.size:
        centres = (centres[:, None, :] + half * halves).reshape(-1, d)
        half /= 2.0
        split = np.repeat(owner, 2**d)
        fine = rule(split, centres, half).reshape(-1, 2**d)
        err = np.abs(fine.sum(axis=1) - coarse)
        estimate = value + per_problem(owner, fine.sum(axis=1))
        done = err <= REL_TOL * np.abs(estimate[owner]) * (2.0 * half / RADIUS) ** d
        value += per_problem(owner[done], fine[done].sum(axis=1))
        abserr += per_problem(owner[done], err[done])
        n_boxes += (2**d - 1) * per_problem(owner[~done])
        refuse(n_boxes > MAX_BOXES, lambda i: f"quadrature did not converge within {MAX_BOXES} boxes")
        centres = centres.reshape(-1, 2**d, d)[~done].reshape(-1, d)
        owner, coarse = split.reshape(-1, 2**d)[~done].ravel(), fine[~done].ravel()

    refuse(~((value > 0.0) & np.isfinite(value)),
           lambda i: f"quadrature returned a non-positive mass {value[i]}")
    refuse(abserr > 10.0 * REL_TOL * value, lambda i: (
        f"quadrature error estimate {abserr[i]:.3e} exceeds budget for mass {value[i]:.6e}"))
    return log_peak + log_jacobian + np.log(value)


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
    point — a sharp correctness check on the whole pipeline.  A stack of
    statistics takes one seed or one per member: weights ``(*stack, n_samples)``.
    """
    d = stats.b.shape[-1]
    if d > 5:
        raise ValueError(f"importance oracle supports d <= 5, got d={d}")
    if n_samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {n_samples}")
    check_positive(proposal_scale=proposal_scale)
    post = posterior(stats)
    seeds = np.broadcast_to(np.asarray(seed, dtype=object), np.shape(stats.sigma2))   # Python ints
    z = np.empty(seeds.shape + (n_samples, d))
    for index, member_seed in np.ndenumerate(seeds):
        substream(member_seed, "importance").standard_normal(out=z[index])
    log_proposal = (
        -0.5 * d * LOG_2PI
        - d * math.log(proposal_scale)
        + 0.5 * np.asarray(chol_logdet(post.chol))[..., None]
        - 0.5 * np.sum(z * z, axis=-1)
    )
    # x = mu + scale * L^{-T} z has covariance scale^2 * precision^{-1}.
    thetas = np.linalg.solve(post.chol.swapaxes(-1, -2), z.swapaxes(-1, -2)).swapaxes(-1, -2)
    thetas *= proposal_scale   # in place: a stack's samples are the largest arrays of a pass
    thetas += post.mean[..., None, :]
    return log_joint(stats, thetas) - log_proposal


def importance_log_evidence(
    stats: SufficientStatistics,
    n_samples: int,
    seed: int,
    proposal_scale: float = 1.0,
) -> tuple[float, float]:
    """Self-normalized importance estimate of the log evidence and its stderr."""
    return importance_estimate(importance_log_weights(stats, n_samples, seed, proposal_scale))


def importance_estimate(logw: np.ndarray) -> tuple[float, float]:
    """The estimate and stderr of :func:`importance_log_evidence` from its log weights."""
    peak = float(logw.max())
    w = np.exp(logw - peak)
    mean_w = float(w.mean())
    estimate = peak + math.log(mean_w)
    stderr = float(w.std(ddof=1)) / (mean_w * math.sqrt(logw.size))
    return estimate, stderr


def random_problem(
    rng: np.random.Generator, max_d: int, max_n: int, min_n: int = 2
) -> SufficientStatistics:
    """Draw a random well-scaled problem for verification sweeps: the
    statistics of its data (:func:`~rankevidence.evidence.GaussianLinearProblem`)."""
    d = int(rng.integers(1, max_d + 1))
    n = int(rng.integers(max(min_n, 2), max_n + 1))
    sigma2 = float(rng.uniform(0.3, 3.0))
    tau2 = float(rng.uniform(0.3, 3.0))
    A = rng.uniform(0.5, 2.0) * rng.standard_normal((n, d))
    theta = math.sqrt(tau2) * rng.standard_normal(d)
    y = A @ theta + math.sqrt(sigma2) * rng.standard_normal(n)
    return GaussianLinearProblem(A=A, y=y, sigma2=sigma2, tau2=tau2)
