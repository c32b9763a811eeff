"""Correctness checks on the outputs of the benchmark's passes.

Each check returns a list of failure messages; an empty list is a pass.  None
compares with a stored copy of earlier output: each tests an identity or an
inequality the method must satisfy, or compares with a value computed apart
from the code under test.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

IDENTITY_TOL = 1e-12


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_grid(rows: list[dict], expected: set[tuple], n_failed: int) -> list[str]:
    """The rows hold distinct expected (rank, seed, n) cells, and together
    with the ``n_failed`` cells the program reported failed, all of them."""
    got = [(int(r["rank"]), int(r["seed"]), int(r["n"])) for r in rows]
    unique = set(got)
    if len(got) == len(unique) and unique <= expected and len(got) + n_failed == len(expected):
        return []
    return [f"{len(got)} rows ({len(got) - len(unique)} duplicated, "
            f"{len(unique - expected)} unexpected) and {n_failed} failed cells "
            f"for {len(expected)} expected cells"]


def check_records(rows: list[dict]) -> list[str]:
    """Per-record identities of the regression studies.

    ``delta_bic - delta_rlct = (lambda - d/2) log n`` with ``lambda = r/2``,
    and ``log_z_bic = log_lik_mle - (d/2) log n``, both to 1e-12 (the second
    relative to the size of the fit term, which grows with n); and the
    evidence cannot exceed the maximised likelihood.
    """
    fails = []
    for row in rows:
        rank, d, n = int(row["rank"]), int(row["d"]), int(row["n"])
        log_n = math.log(n)
        fit = float(row["log_lik_mle"])
        where = f"record rank={rank} seed={row['seed']} n={n}"
        gap = float(row["delta_bic"]) - float(row["delta_rlct"])
        if not abs(gap - (rank / 2 - d / 2) * log_n) <= IDENTITY_TOL:
            fails.append(f"{where}: delta_bic - delta_rlct = {gap!r}")
        bic = float(row["log_z_bic"])
        if not abs(bic - (fit - d / 2 * log_n)) <= IDENTITY_TOL * max(1.0, abs(fit)):
            fails.append(f"{where}: log_z_bic = {bic!r} for log_lik_mle = {fit!r}")
        if not float(row["log_z_exact"]) < fit:
            fails.append(f"{where}: log_z_exact {row['log_z_exact']} >= log_lik_mle {fit!r}")
    return fails


def predicted_lambda(spectra: list[np.ndarray], n_grid: list[int], alpha: float) -> float:
    """Fitted log-n slope of the seed-averaged ``1/2 sum log(1 + n alpha mu)``.

    ``spectra`` holds, per seed, the nonzero eigenvalues ``mu`` of the
    population Gram matrix.  This is the finite-n effective dimension the
    slope estimator should return; it never touches the evidence code.
    """
    curve = np.mean([[0.5 * np.sum(np.log1p(n * alpha * mu)) for n in n_grid]
                     for mu in spectra], axis=0)
    return float(np.polyfit(np.log(n_grid), curve, 1)[0])


def check_lambda(slope_rows: list[dict], predictions: dict[int, float],
                 tol: float) -> list[str]:
    """Each rank's ``lambda_hat`` is within ``tol`` of its finite-n prediction."""
    fails = []
    seen = set()
    for row in slope_rows:
        rank = int(row["rank"])
        seen.add(rank)
        if rank not in predictions:
            continue
        lam = float(row["lambda_hat"])
        if not abs(lam - predictions[rank]) <= tol:
            fails.append(f"rank {rank}: lambda_hat {lam:.4f} vs finite-n prediction "
                         f"{predictions[rank]:.4f} (tol {tol})")
    if seen != set(predictions):
        fails.append(f"slopes for ranks {sorted(seen)}, expected {sorted(predictions)}")
    return fails


def check_dict_rows(rows: list[dict]) -> list[str]:
    """Dictionary-study invariants on every row.

    The two dictionaries put the same law on the data, so their exact log
    likelihoods agree to 1e-12 relative; the fits are nested maximisations,
    so ``fit_overcomplete >= fit_minimal >= exact_minimal`` up to 1e-12
    relative rounding.
    """
    fails = []
    for row in rows:
        where = f"dict row seed={row['seed']} n={row['n']}"
        ex_min, ex_over = float(row["exact_minimal"]), float(row["exact_overcomplete"])
        fit_min, fit_over = float(row["fit_minimal"]), float(row["fit_overcomplete"])
        slack = IDENTITY_TOL * max(1.0, abs(ex_min))
        if not abs(ex_min - ex_over) <= slack:
            fails.append(f"{where}: exact_minimal {ex_min!r} != exact_overcomplete {ex_over!r}")
        if not (fit_over >= fit_min - slack and fit_min >= ex_min - slack):
            fails.append(f"{where}: fits not nested: overcomplete {fit_over!r}, "
                         f"minimal {fit_min!r}, exact {ex_min!r}")
    return fails


def check_verification(results: list[tuple]) -> list[str]:
    """Every oracle check of ``cli.run_verification`` passed."""
    fails = [f"verify: {name}: {worst:.3e} (tol {tol:.0e})"
             for name, worst, tol, ok in results if not ok]
    if len(results) != 4:
        fails.append(f"verify returned {len(results)} checks, expected 4")
    return fails


def check_identical(first: bytes, later: bytes, what: str) -> list[str]:
    return [] if later == first else [f"{what} differs from the first pass"]
