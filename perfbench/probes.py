"""Probe problems that check single layers against references made apart
from the program.

Evidence probes compare ``exact_log_evidence`` and ``evidence_record`` with a
50-digit mpmath evaluation from the same float sufficient statistics
(``S = A^T A``, ``b = A^T y``, ``y^T y``), so the reference shares the
program's inputs but none of its arithmetic.  Dictionary probes compare
``dict_log_likelihood`` with ``scipy.stats.multivariate_normal``.

The probe set is fixed, not drawn from the workload seed, so
``evidence.centered_err_max`` is a precision figure that repeats exactly and
moves only when the evidence code does.

mpmath and scipy.stats are imported inside the probe functions, which run
after the timed passes, so they do not count in the workload's peak memory.
"""

from __future__ import annotations

import math

import numpy as np

# (rank, n) over d = p = 6, spec and data seed 0; n spans 1e2 to 1e6.
EVIDENCE_PROBES = [(r, n) for r in (1, 3, 6) for n in (100, 1_000, 10_000, 100_000, 1_000_000)]
PROBE_DIM = 6

# Absolute error allowed per observation on log_z_exact, log_lik_mle and
# their difference.  The present two-pass form (lstsq residual minus Cholesky
# evidence) loses digits in proportion to n, up to 8e-12 per observation on
# these probes; a cancellation-free evaluation is far inside this bound.
TOL_PER_N = 1e-10

# (n, seed) for the dictionary probes, on both members of the default pair.
DICT_PROBES = [(50, 0), (500, 1), (5_000, 2)]
DICT_RELATIVE_TOL = 1e-12


def reference_evidence(A: np.ndarray, y: np.ndarray, sigma2: float, tau2: float,
                       rank: int) -> tuple[float, float, float]:
    """(log_z_exact, log_lik_mle, log_lik_mle - log_z_exact) at 50 digits.

    The maximised likelihood uses the pseudo-inverse on the top ``rank``
    eigen-directions of ``S``; the evidence uses every eigenvalue.
    """
    import mpmath

    S = A.T @ A
    b = A.T @ y
    yy = float(y @ y)
    n = A.shape[0]
    with mpmath.workdps(50):
        s_vals, Q = mpmath.eigsy(mpmath.matrix(S.tolist()))
        c = Q.T * mpmath.matrix(b.tolist())
        order = sorted(range(len(s_vals)), key=lambda i: s_vals[i], reverse=True)
        alpha = mpmath.mpf(tau2) / mpmath.mpf(sigma2)
        const = n * mpmath.log(2 * mpmath.pi * mpmath.mpf(sigma2))
        logdet = mpmath.fsum(mpmath.log1p(alpha * s) for s in s_vals)
        shrunk = mpmath.fsum(alpha * c[i] ** 2 / (1 + alpha * s_vals[i])
                             for i in range(len(s_vals)))
        fitted = mpmath.fsum(c[i] ** 2 / s_vals[i] for i in order[:rank])
        log_z = -(const + logdet + (yy - shrunk) / sigma2) / 2
        fit = -(const + (yy - fitted) / sigma2) / 2
        return float(log_z), float(fit), float(fit - log_z)


def evidence_probe_errors(rk) -> list[dict]:
    """Run every evidence probe; one dict of errors and tolerances per probe.

    ``rk`` is the imported ``rankevidence`` package.
    """
    out = []
    for rank, n in EVIDENCE_PROBES:
        spec = rk.make_spec(PROBE_DIM, PROBE_DIM, rank, seed=0)
        data = rk.sample_dataset(spec, n, rk.DataGenConfig(seed=0))
        prob = rk.GaussianLinearProblem(A=data.A, y=data.y, sigma2=spec.sigma2,
                                        tau2=spec.tau2)
        ref_z, ref_fit, ref_centered = reference_evidence(
            data.A, data.y, spec.sigma2, spec.tau2, rank)
        rec = rk.evidence_record(prob, lam=rank / 2.0)
        log_z = rk.exact_log_evidence(prob)
        out.append({
            "rank": rank,
            "n": n,
            "centered_err": abs((rec.log_lik_mle - rec.log_z_exact) - ref_centered),
            "log_z_err": abs(log_z - ref_z),
            "record_log_z_err": abs(rec.log_z_exact - ref_z),
            "fit_err": abs(rec.log_lik_mle - ref_fit),
        })
    return out


def evidence_probe_failures(errors: list[dict]) -> list[str]:
    fails = []
    for e in errors:
        tol = TOL_PER_N * e["n"]
        for key in ("centered_err", "log_z_err", "record_log_z_err", "fit_err"):
            if not e[key] <= tol:
                fails.append(f"evidence probe r={e['rank']} n={e['n']}: "
                             f"{key} {e[key]:.3e} > {tol:.1e}")
    return fails


def dict_probe_failures(rk) -> list[str]:
    """dict_log_likelihood vs an independent Gaussian log-density."""
    import scipy.stats

    fails = []
    for n, seed in DICT_PROBES:
        pair = rk.make_dictionary_pair(8, 3, 6, seed)
        data = rk.sample_dictionary_data(pair[0], n, seed)
        for spec in pair:
            cov = spec.tau2 * (spec.D @ spec.D.T) + spec.sigma2 * np.eye(spec.p)
            ref = math.fsum(scipy.stats.multivariate_normal(
                mean=np.zeros(spec.p), cov=cov).logpdf(data.Y))
            got = rk.dict_log_likelihood(spec, data)
            rel = abs(got - ref) / abs(ref)
            if not rel <= DICT_RELATIVE_TOL:
                fails.append(f"dictionary probe d={spec.d} n={n}: relative error "
                             f"{rel:.3e} > {DICT_RELATIVE_TOL:.0e}")
    return fails
