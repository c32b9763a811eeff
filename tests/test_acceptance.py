"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (visible with ``pytest -s`` or in captured output).

The two studies run once per session at their default configurations
(d = 6, ranks 1..6, n = 50 * 2^k for k = 0..8, seeds 0..19) and are shared
across criteria; the regular-vs-singular contrast reads ranks 6 and 4 of
the rank sweep.
"""

import math
import time

import numpy as np
import pytest
from conftest import ACCEPTANCE_LINES

from rankevidence._linalg import spectral_rank
from rankevidence.dictionary import gram_spectrum, make_dictionary_pair
from rankevidence.evidence import (
    bic_score,
    evidence_record,
    exact_log_evidence,
    full_laplace_log_evidence,
)
from rankevidence.experiments import (
    ExperimentConfig,
    read_cell_table,
    run_study,
    write_study_outputs,
)
from rankevidence.oracle import quadrature_log_evidence, random_problem


def _report(criterion: str, ok: bool, detail: str) -> None:
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def rank_sweep_result():
    return run_study(ExperimentConfig.default_for("rank_sweep"))


@pytest.fixture(scope="module")
def dict_result():
    return run_study(ExperimentConfig.default_for("dict_compare"))


def test_criterion_1_closed_form_vs_quadrature():
    """100 random problems with d <= 2, n <= 50: adaptive quadrature agrees
    to 1e-6 with both the Cholesky closed form and the eigendecomposition
    record the studies compute, in under 30 s."""
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        prob = random_problem(rng, max_d=2, max_n=50)
        quad = quadrature_log_evidence(prob)
        worst = max(
            worst,
            abs(exact_log_evidence(prob) - quad),
            abs(evidence_record(prob, lam=0.0).log_z_exact - quad),
        )
    elapsed = time.monotonic() - start
    _report(
        "criterion 1 (closed form and evidence record vs quadrature)",
        worst < 1e-6 and elapsed < 30.0,
        f"max |diff| = {worst:.3e} (tol 1e-6), {elapsed:.1f} s",
    )


def test_criterion_2_laplace_exactness():
    """200 random problems (d <= 20, n <= 1000): full MAP-Laplace equals the
    closed form to 1e-8 relative, in under 10 s."""
    rng = np.random.default_rng(202)
    start = time.monotonic()
    worst = 0.0
    for _ in range(200):
        prob = random_problem(rng, max_d=20, max_n=1000, min_n=2)
        exact = exact_log_evidence(prob)
        worst = max(worst, abs(full_laplace_log_evidence(prob) - exact) / abs(exact))
    elapsed = time.monotonic() - start
    _report(
        "criterion 2 (Gaussian Laplace exactness)",
        worst < 1e-8 and elapsed < 10.0,
        f"max rel err = {worst:.3e} (tol 1e-8), {elapsed:.1f} s",
    )


def test_criterion_3_rank_sweep_slopes(rank_sweep_result):
    """Seed-averaged error slopes: delta_bic within 0.15 of -(6 - r)/2 and
    delta_rlct within 0.15 of 0, for every rank."""
    ok = True
    details = []
    for s in rank_sweep_result.rank_summaries:
        target = -(6 - s.rank) / 2.0
        err_bic = abs(s.slope_delta_bic - target)
        err_rlct = abs(s.slope_delta_rlct)
        ok = ok and err_bic <= 0.15 and err_rlct <= 0.15
        details.append(f"r={s.rank}: dBIC {s.slope_delta_bic:+.3f} "
                       f"(target {target:+.2f}), dRLCT {s.slope_delta_rlct:+.3f}")
    _report("criterion 3 (rank sweep slopes, tol 0.15)", ok, "; ".join(details))


def test_criterion_4_regular_vs_singular(rank_sweep_result):
    """Singular rank r = 4 (d - r = 2): dBIC slope in [-1.15, -0.85], dRLCT
    slope in [-0.15, 0.15]; regular rank r = d = 6: both slopes in
    [-0.30, 0.30]."""
    by_rank = {s.rank: s for s in rank_sweep_result.rank_summaries}
    singular, regular = by_rank[4], by_rank[6]
    sb = singular.slope_delta_bic
    sr = singular.slope_delta_rlct
    rb = regular.slope_delta_bic
    rr = regular.slope_delta_rlct
    ok = (
        -1.15 <= sb <= -0.85
        and -0.15 <= sr <= 0.15
        and -0.30 <= rb <= 0.30
        and -0.30 <= rr <= 0.30
    )
    _report(
        "criterion 4 (regular vs singular contrast)",
        ok,
        f"singular: dBIC {sb:+.3f}, dRLCT {sr:+.3f}; regular: dBIC {rb:+.3f}, dRLCT {rr:+.3f}",
    )


def test_criterion_5_lambda_estimator(rank_sweep_result):
    """Evidence-slope estimates land within 0.15 of r/2 for every rank."""
    ok = True
    details = []
    for s in rank_sweep_result.rank_summaries:
        err = abs(s.lambda_hat - s.rank / 2.0)
        ok = ok and err <= 0.15
        details.append(f"r={s.rank}: {s.lambda_hat:.3f} (target {s.rank / 2.0})")
    _report("criterion 5 (lambda estimator, tol 0.15)", ok, "; ".join(details))


def test_criterion_6_dictionary_invariance(dict_result):
    """Exact-evidence gap slope within 0.10 of 0; common-fit BIC gap slope
    within 0.15 of +1.5; and the equal-fit gap at n = 200 is exactly
    1.5 log 200, reproducing the reference 7.95 difference."""
    gaps = dict_result.dict_gap_slopes
    exact_slope = gaps["exact_gap"]
    bic_slope = gaps["bic_gap"]
    table = dict_result.dict_table
    table_gap = table["bic_minimal"] - table["bic_overcomplete"]
    identity = 1.5 * math.log(200)
    reference_diff = -293.80 - (-301.75)
    arithmetic_ok = (
        dict_result.dict_table_n == 200
        and abs(table_gap - identity) < 1e-9
        and abs(bic_score(0.0, 3, 200) - bic_score(0.0, 6, 200) - identity) < 1e-12
        and abs(identity - reference_diff) < 5e-3
    )
    ok = abs(exact_slope) <= 0.10 and abs(bic_slope - 1.5) <= 0.15 and arithmetic_ok
    _report(
        "criterion 6 (dictionary invariance)",
        ok,
        f"exact gap slope {exact_slope:+.4f} (tol 0.10), BIC gap slope {bic_slope:+.4f} "
        f"(target +1.5), n=200 gap {table_gap:.4f} vs 1.5*log200 = {identity:.4f} "
        f"vs reference {reference_diff:.2f}",
    )


def test_criterion_7_spectrum_shape():
    """50 random pairs: both members show exactly r above-threshold Gram
    eigenvalues."""
    rng = np.random.default_rng(707)
    ok = True
    checked = 0
    for seed in range(50):
        p = int(rng.integers(4, 12))
        r = int(rng.integers(1, p))
        d_over = int(rng.integers(r + 1, r + 8))
        minimal, over = make_dictionary_pair(p, r, d_over, seed=seed)
        for spec in (minimal, over):
            got = spectral_rank(gram_spectrum(spec), max(spec.p, spec.d))
            ok = ok and got == r
            checked += 1
    _report(
        "criterion 7 (Gram spectrum shape)",
        ok,
        f"{checked} spectra over 50 pairs, all with exactly r above threshold" if ok
        else "rank mismatch found",
    )


def test_criterion_8_determinism(tmp_path):
    """Two runs with identical configs write byte-identical raw CSVs."""
    cfg = ExperimentConfig(
        study="rank_sweep", ranks=[1, 3], seeds=[0, 1, 2], n_grid=[50, 100, 200, 400]
    )
    for sub in ("first", "second"):
        write_study_outputs(run_study(cfg), tmp_path / sub)
    pairs = [
        ((tmp_path / "first" / name).read_bytes(), (tmp_path / "second" / name).read_bytes())
        for name in ("evidence_records.csv", "slopes.csv")
    ]
    dcfg = ExperimentConfig(
        study="dict_compare", p=8, d=6, ranks=[3], seeds=[0, 1], n_grid=[100, 200]
    )
    for sub in ("dfirst", "dsecond"):
        write_study_outputs(run_study(dcfg), tmp_path / sub)
    pairs.append((
        (tmp_path / "dfirst" / "dict_records.csv").read_bytes(),
        (tmp_path / "dsecond" / "dict_records.csv").read_bytes(),
    ))
    ok = all(a == b for a, b in pairs)
    _report("criterion 8 (byte-identical reruns)", ok, f"{len(pairs)} file pairs compared")


def test_criterion_9_record_identity(rank_sweep_result, tmp_path):
    """Every persisted record satisfies
    delta_bic - delta_rlct = (lambda - d/2) log n to 1e-12."""
    write_study_outputs(rank_sweep_result, tmp_path)
    cells = read_cell_table(tmp_path / "evidence_records.csv")
    worst = 0.0
    for rank, n, delta_bic, delta_rlct in zip(
        cells.rank.tolist(), cells.n.tolist(),
        cells.score("delta_bic").tolist(), cells.score("delta_rlct").tolist(),
    ):
        lam = rank / 2.0
        gap = (lam - cells.d / 2.0) * math.log(n)
        worst = max(worst, abs((delta_bic - delta_rlct) - gap))
    _report(
        "criterion 9 (record identity, tol 1e-12)",
        worst < 1e-12 and len(cells) == 6 * 20 * 9,
        f"{len(cells)} persisted records, max deviation {worst:.3e}",
    )
