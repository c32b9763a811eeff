"""Brute-force verification of the closed-form evidence.

Two independent routes: adaptive quadrature of the joint density for d <= 2,
and self-normalized importance sampling for d <= 5.  All integrand work runs
in log space with max subtraction, since the n log sigma2 terms reach
magnitudes where naive exponentiation underflows.  The quadrature domain is
centered at the posterior mean with a radius measured in posterior standard
deviations — the posterior, not the prior, is where the mass concentrates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._linalg import chol_logdet, spd_cholesky
from ._rng import substream
from .evidence import LOG_2PI, GaussianLinearProblem, posterior


class OracleError(RuntimeError):
    """The verification integral did not converge; the check is inconclusive."""


@dataclass(frozen=True)
class QuadratureSettings:
    rel_tol: float = 1e-9
    max_subdivisions: int = 200
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
    """log of the evidence integral by adaptive quadrature (d <= 2).

    d = 1 integrates the joint directly; d = 2 uses nested adaptive
    quadrature over coordinates whitened by the posterior covariance factor.
    Whitening only reshapes the domain — the integrand is still the true
    joint density — so a wrong posterior cannot bias the value, only slow
    convergence.  Non-convergence raises :class:`OracleError` rather than
    returning a doubtful number.
    """
    # Imported here, not at module level: only this oracle integrates, and
    # scipy.integrate would otherwise add about 0.3 s to every package import.
    import scipy.integrate

    settings = settings or QuadratureSettings()
    if prob.d > 2:
        raise ValueError(f"quadrature oracle supports d <= 2, got d={prob.d}")
    post = posterior(prob)
    mu = post.mean
    radius = settings.integration_radius
    log_peak = log_joint(prob, mu)

    # The adaptive integrator calls the integrand one scalar point at a time,
    # so the log joint is expanded in its sufficient statistics and evaluated
    # in plain floats; array arithmetic per call would dominate the runtime.
    yty = float(prob.y @ prob.y)
    b = prob.A.T @ prob.y
    S = prob.A.T @ prob.A
    const = -0.5 * (
        prob.n * (LOG_2PI + math.log(prob.sigma2))
        + prob.d * (LOG_2PI + math.log(prob.tau2))
    )
    inv_s2 = 1.0 / prob.sigma2
    inv_t2 = 1.0 / prob.tau2

    with warnings.catch_warnings():
        warnings.simplefilter("error", scipy.integrate.IntegrationWarning)
        try:
            if prob.d == 1:
                b0, s00 = float(b[0]), float(S[0, 0])

                def log_f(t: float) -> float:
                    rss = yty - 2.0 * b0 * t + s00 * t * t
                    return const - 0.5 * (rss * inv_s2 + t * t * inv_t2)

                sd = 1.0 / math.sqrt(post.precision[0, 0])
                value, abserr = scipy.integrate.quad(
                    lambda t: math.exp(log_f(t) - log_peak),
                    mu[0] - radius * sd,
                    mu[0] + radius * sd,
                    epsabs=0.0,
                    epsrel=settings.rel_tol,
                    limit=settings.max_subdivisions,
                )
                log_jacobian = 0.0
            else:
                L = spd_cholesky(post.precision, context="quadrature domain")
                # theta = mu + L^{-T} u maps the unit ball of the posterior
                # metric to the u coordinates; |det L^{-T}| = 1/prod(diag L).
                log_jacobian = -float(np.sum(np.log(np.diag(L))))
                T = scipy.linalg.solve_triangular(L, np.eye(2), lower=True, trans="T")
                t00, t01, t10, t11 = float(T[0, 0]), float(T[0, 1]), float(T[1, 0]), float(T[1, 1])
                m0, m1 = float(mu[0]), float(mu[1])
                b0, b1 = float(b[0]), float(b[1])
                s00, s01, s11 = float(S[0, 0]), float(S[0, 1]), float(S[1, 1])

                def integrand(u0: float, u1: float) -> float:
                    th0 = m0 + t00 * u0 + t01 * u1
                    th1 = m1 + t10 * u0 + t11 * u1
                    rss = yty - 2.0 * (b0 * th0 + b1 * th1) + (
                        s00 * th0 * th0 + 2.0 * s01 * th0 * th1 + s11 * th1 * th1
                    )
                    log_f = const - 0.5 * (
                        rss * inv_s2 + (th0 * th0 + th1 * th1) * inv_t2
                    )
                    return math.exp(log_f - log_peak)

                def inner(u0: float) -> float:
                    val, _ = scipy.integrate.quad(
                        lambda u1: integrand(u0, u1),
                        -radius,
                        radius,
                        epsabs=0.0,
                        epsrel=settings.rel_tol * 0.1,
                        limit=settings.max_subdivisions,
                    )
                    return val

                value, abserr = scipy.integrate.quad(
                    inner,
                    -radius,
                    radius,
                    epsabs=0.0,
                    epsrel=settings.rel_tol,
                    limit=settings.max_subdivisions,
                )
        except scipy.integrate.IntegrationWarning as exc:
            raise OracleError(f"quadrature did not converge: {exc}") from exc

    if not value > 0.0 or not np.isfinite(value):
        raise OracleError(f"quadrature returned a non-positive mass {value}")
    if abserr > 10.0 * settings.rel_tol * value:
        raise OracleError(
            f"quadrature error estimate {abserr:.3e} exceeds budget "
            f"for mass {value:.6e}"
        )
    return log_peak + log_jacobian + math.log(value)


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
