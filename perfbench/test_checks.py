"""Each benchmark check passes on real program output and reports a failure
when given one deliberately corrupted record or result.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import dataclasses
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import rankevidence as rk  # noqa: E402
import rankevidence.cli  # noqa: E402,F401  (the tracer wraps cli functions too)
from rankevidence.experiments import ExperimentConfig, run_study, write_study_outputs  # noqa: E402

import checks  # noqa: E402
import probes  # noqa: E402
import tracing  # noqa: E402

RANKS, SEEDS, N_GRID = [1, 2], [0, 1], [50, 100, 200]


def _study_csv(tmp_path: Path, study: str, **fields) -> Path:
    cfg = ExperimentConfig.default_for(study)
    for key, value in fields.items():
        setattr(cfg, key, value)
    write_study_outputs(run_study(cfg), tmp_path)
    return tmp_path


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    out = _study_csv(tmp_path_factory.mktemp("sweep"), "rank_sweep",
                     ranks=RANKS, seeds=SEEDS, n_grid=N_GRID)
    return (checks.parse_csv((out / "evidence_records.csv").read_text()),
            checks.parse_csv((out / "slopes.csv").read_text()))


@pytest.fixture(scope="module")
def dict_rows(tmp_path_factory):
    out = _study_csv(tmp_path_factory.mktemp("dict"), "dict_compare",
                     seeds=SEEDS, n_grid=N_GRID)
    return checks.parse_csv((out / "dict_records.csv").read_text())


def _corrupt(rows: list[dict], key: str, delta: float) -> list[dict]:
    bad = [dict(r) for r in rows]
    bad[len(bad) // 2][key] = repr(float(bad[len(bad) // 2][key]) + delta)
    return bad


def test_records_pass_on_program_output(sweep):
    records, _ = sweep
    assert checks.check_records(records) == []
    expected = {(r, s, n) for r in RANKS for s in SEEDS for n in N_GRID}
    assert checks.check_grid(records, expected, 0) == []
    assert checks.check_grid(records[1:], expected, 1) == []


@pytest.mark.parametrize("key,delta", [
    ("delta_bic", 1e-9),        # breaks delta_bic - delta_rlct = (lambda - d/2) log n
    ("log_z_bic", 1e-6),        # breaks log_z_bic = log_lik_mle - (d/2) log n
    ("log_z_exact", 1e6),       # evidence above the maximised likelihood
])
def test_records_catch_one_corrupted_record(sweep, key, delta):
    records, _ = sweep
    assert len(checks.check_records(_corrupt(records, key, delta))) == 1


def test_grid_catches_missing_and_duplicated_cells(sweep):
    records, _ = sweep
    expected = {(r, s, n) for r in RANKS for s in SEEDS for n in N_GRID}
    assert checks.check_grid(records[1:], expected, 0)
    assert checks.check_grid(records + records[:1], expected, 0)
    assert checks.check_grid(records[1:] + records[:1], expected, 1)
    assert checks.check_grid(records, expected - {(1, 0, 50)}, 0)


def test_identical_catches_one_changed_byte():
    blob = b"study,rank\nrank_sweep,1\n"
    assert checks.check_identical(blob, blob, "x") == []
    assert checks.check_identical(blob, blob.replace(b"1", b"2"), "x")


def _predictions(ranks, seeds, n_grid):
    return {
        r: checks.predicted_lambda(
            [np.linalg.eigvalsh(rk.population_gram(rk.make_spec(6, 6, r, seed=s)))[::-1][:r]
             for s in seeds], n_grid, 1.0)
        for r in ranks
    }


def test_lambda_prediction_matches_and_catches_a_shift(sweep):
    _, slopes = sweep
    pred = _predictions(RANKS, SEEDS, N_GRID)
    assert checks.check_lambda(slopes, pred, 0.2) == []
    assert len(checks.check_lambda(_corrupt(slopes, "lambda_hat", 0.3), pred, 0.2)) == 1
    assert checks.check_lambda(slopes[:1], pred, 0.2)


def test_predicted_lambda_tends_to_half_the_rank():
    mu = [np.array([1.0, 0.5, 2.0])]
    grid = [10**k for k in range(6, 12)]
    assert checks.predicted_lambda(mu, grid, 1.0) == pytest.approx(1.5, abs=1e-5)


def test_dict_rows_pass_and_catch_corruption(dict_rows):
    assert checks.check_dict_rows(dict_rows) == []
    assert len(checks.check_dict_rows(_corrupt(dict_rows, "exact_overcomplete", 1e-6))) == 1
    assert len(checks.check_dict_rows(_corrupt(dict_rows, "fit_overcomplete", -1e3))) == 1
    assert len(checks.check_dict_rows(_corrupt(dict_rows, "fit_minimal", -1e6))) == 1


def test_verification_catches_one_failed_check():
    good = [("a", 1e-9, 1e-6, True)] * 4
    assert checks.check_verification(good) == []
    assert len(checks.check_verification(good[:3] + [("d", 1.0, 1e-6, False)])) == 1


def _shifted(name: str, field: str | None, delta: float):
    """The package namespace with one function's result shifted by ``delta``."""
    original = getattr(rk, name)

    def shifted(*args, **kwargs):
        value = original(*args, **kwargs)
        if field is None:
            return value + delta
        return dataclasses.replace(value, **{field: getattr(value, field) + delta})

    return types.SimpleNamespace(**{**vars(rk), name: shifted})


@pytest.fixture
def small_probes(monkeypatch):
    monkeypatch.setattr(probes, "EVIDENCE_PROBES", [(1, 100), (3, 1_000)])


def test_evidence_probes_pass_and_catch_corruption(small_probes):
    assert probes.evidence_probe_failures(probes.evidence_probe_errors(rk)) == []
    fit = _shifted("evidence_record", "log_lik_mle", 1e-5)
    assert len(probes.evidence_probe_failures(probes.evidence_probe_errors(fit))) == 4
    log_z = _shifted("exact_log_evidence", None, 1e-5)
    assert len(probes.evidence_probe_failures(probes.evidence_probe_errors(log_z))) == 2


def test_dict_probes_pass_and_catch_corruption():
    assert probes.dict_probe_failures(rk) == []
    bad = _shifted("dict_log_likelihood", None, 1e-6)
    assert len(probes.dict_probe_failures(bad)) == 2 * len(probes.DICT_PROBES)


def test_tracer_spans_and_restores():
    tracer = tracing.Tracer()
    original = rk.experiments.sample_dataset
    tracer.install()
    try:
        tracer.run("pass", rk.evidence.exact_log_evidence,
                   rk.GaussianLinearProblem(A=np.eye(3), y=np.ones(3), sigma2=1.0, tau2=1.0))
        assert rk.experiments.sample_dataset is not original
    finally:
        tracer.uninstall()
    assert rk.experiments.sample_dataset is original
    metrics = tracing.layer_metrics(tracer)
    assert metrics["evidence.calls"] == 1
    assert metrics["evidence.exact_s"] > 0
    assert [s.name for s in tracer.spans] == ["pass", "exact_log_evidence"]
