import math

import pytest

import rankevidence.experiments as experiments
from rankevidence.experiments import (
    ConfigError,
    ExperimentConfig,
    aggregate_rank_summaries,
    read_records_csv,
    run_study,
    summarize,
    write_study_outputs,
)


def tiny_config(**kwargs) -> ExperimentConfig:
    base = dict(
        study="rank_sweep",
        ranks=[1, 2],
        seeds=[0, 1],
        n_grid=[50, 100, 200],
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


class TestConfig:
    def test_defaults_valid(self):
        for study in experiments.STUDIES:
            ExperimentConfig.default_for(study).validate()

    def test_default_grid_is_geometric(self):
        cfg = ExperimentConfig()
        assert cfg.n_grid == [50, 100, 200, 400, 800, 1600, 3200, 6400, 12800]
        assert cfg.seeds == list(range(20))

    @pytest.mark.parametrize(
        "patch",
        [
            {"study": "nope"},
            {"ranks": []},
            {"ranks": [7]},                 # exceeds min(p, d)
            {"n_grid": [100]},              # single point
            {"n_grid": [100, 50]},          # not increasing
            {"n_grid": [1, 50]},            # below 2
            {"seeds": []},
            {"seeds": [-1, 0]},
            {"sigma2": 0.0},
            {"ranks": [2, 2]},
            {"seeds": [0, 0]},
            {"sigma2": float("nan")},
            {"tau2": float("inf")},
            {"sigma2": -float("inf")},
            {"tau2": True},
            {"n_grid": [50, 2**32]},        # beyond the per-size stream index
            {"seeds": [2**64]},
        ],
    )
    def test_invalid_configs_rejected(self, patch):
        cfg = tiny_config()
        for key, value in patch.items():
            setattr(cfg, key, value)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_regular_vs_singular_needs_regular_rank(self):
        cfg = tiny_config(study="regular_vs_singular", ranks=[2, 4])
        with pytest.raises(ConfigError):
            cfg.validate()
        tiny_config(study="regular_vs_singular", ranks=[4, 6]).validate()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"study": "rank_sweep", "widgets": 3})

    def test_from_dict_rejects_non_integers_for_int_fields(self):
        for bad in ({"d": 4.7}, {"ranks": [1.9, 2]}, {"seeds": [0, True]}):
            with pytest.raises(ConfigError, match="expected an integer"):
                ExperimentConfig.from_dict(bad)
        cfg = ExperimentConfig.from_dict({"d": "4", "ranks": [1, 2.0], "seeds": ["0"]})
        assert (cfg.d, cfg.ranks, cfg.seeds) == (4, [1, 2], [0])

    def test_from_dict_rejects_unusable_floats(self):
        for bad in ({"sigma2": "nan"}, {"sigma2": float("nan")},
                    {"tau2": float("-inf")}, {"tau2": True}):
            with pytest.raises(ConfigError, match="expected a (finite )?number"):
                ExperimentConfig.from_dict(bad)
        cfg = ExperimentConfig.from_dict({"sigma2": "0.5", "tau2": 2})
        assert (cfg.sigma2, cfg.tau2) == (0.5, 2.0)

    def test_from_dict_roundtrip(self):
        cfg = tiny_config(sigma2=0.5)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_hash_ignores_output_dir(self):
        a = tiny_config(output_dir="x")
        b = tiny_config(output_dir="y")
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != tiny_config(sigma2=2.0).config_hash()


class TestRankSweep:
    def test_cell_coverage(self):
        cfg = tiny_config()
        res = run_study(cfg)
        keys = {(r.rank, r.seed, r.n) for r in res.records}
        assert len(res.records) == len(keys) == 2 * 2 * 3
        assert not res.failures

    def test_single_seed_two_points_is_legal(self):
        cfg = tiny_config(ranks=[2], seeds=[0], n_grid=[50, 100])
        res = run_study(cfg)
        s = res.rank_summaries[0]
        assert s.n_points == 2 and s.n_seeds == 1
        assert s.fit_delta_bic.stderr_slope == 0.0

    def test_record_identity_in_all_cells(self):
        cfg = tiny_config()
        res = run_study(cfg)
        for rec in res.records:
            gap = (rec.rank / 2.0 - cfg.d / 2.0) * math.log(rec.n)
            assert abs((rec.delta_bic - rec.delta_rlct) - gap) < 1e-12

    def test_run_study_dispatch(self):
        res = run_study(tiny_config(ranks=[1], seeds=[0], n_grid=[50, 100]))
        assert res.study == "rank_sweep"

    def test_injected_nan_cell_is_isolated(self, monkeypatch):
        """One poisoned cell must not abort the sweep; it is surfaced in the
        failure list and the summary."""
        real = experiments.evidence_record

        def poisoned(prob, lam):
            rec = real(prob, lam)
            if prob.n == 100 and lam == 0.5:
                object.__setattr__(rec, "log_z_exact", float("nan"))
            return rec

        monkeypatch.setattr(experiments, "evidence_record", poisoned)
        cfg = tiny_config(ranks=[1, 2], seeds=[0], n_grid=[50, 100, 200])
        res = run_study(cfg)
        assert len(res.failures) == 1
        fail = res.failures[0]
        assert (fail.rank, fail.seed, fail.n) == (1, 0, 100)
        text = summarize(res)
        assert "failed cells: 1" in text
        assert "rank=1 seed=0 n=100" in text

    def test_clean_run_has_no_failure_section(self):
        text = summarize(run_study(tiny_config()))
        assert "failed cells" not in text

    def test_summary_row_count_matches_ranks(self):
        cfg = tiny_config(ranks=[1, 2])
        text = summarize(run_study(cfg))
        rows = [ln for ln in text.splitlines() if ln.strip().startswith(("1 ", "2 "))]
        assert len(rows) == 2


    def test_large_n_grid_recovers_lambda(self):
        """At n = 1e6..1e9 the finite-n bias is gone: every rank's lambda_hat
        is r/2 to 1e-3, and no cell fails."""
        res = run_study(ExperimentConfig(n_grid=[10**6, 10**7, 10**8, 10**9]))
        assert not res.failures
        for s in res.rank_summaries:
            assert abs(s.lambda_hat - s.rank / 2.0) < 1e-3, (s.rank, s.lambda_hat)


class TestRegularVsSingular:
    def test_small_run_produces_both_summaries(self):
        cfg = ExperimentConfig(
            study="regular_vs_singular", ranks=[4, 6], seeds=[0, 1], n_grid=[50, 100, 200]
        )
        res = run_study(cfg)
        assert sorted(s.rank for s in res.rank_summaries) == [4, 6]


class TestDictCompare:
    def test_small_run(self):
        cfg = ExperimentConfig(
            study="dict_compare", p=8, d=6, ranks=[3], seeds=[0, 1], n_grid=[50, 100, 200]
        )
        res = run_study(cfg)
        assert len(res.dict_rows) == 2 * 3
        assert res.dict_table_n == 200
        assert set(res.dict_table) == set(experiments.DICT_TABLE_QUANTITIES)
        assert set(res.dict_gap_slopes) == {"exact_gap", "bic_gap", "bic_gap_ml", "fit_gap"}
        eig_min, eig_over = res.spectra
        assert eig_min.shape == (3,) and eig_over.shape == (6,)


class TestPersistence:
    def test_outputs_and_roundtrip(self, tmp_path):
        cfg = tiny_config(output_dir=str(tmp_path))
        res = run_study(cfg)
        paths = write_study_outputs(res, tmp_path)
        names = {p.name for p in paths}
        assert {
            "evidence_records.csv", "slopes.csv", "per_seed_slopes.csv",
            "summary.txt", "run_meta.json",
        } <= names
        seed_lines = (tmp_path / "per_seed_slopes.csv").read_text().splitlines()
        assert seed_lines[0] == ",".join(experiments.PER_SEED_SLOPE_COLUMNS)
        assert len(seed_lines) == 1 + 2 * 2   # ranks x seeds

        header = (tmp_path / "evidence_records.csv").read_text().splitlines()[0]
        assert header == ",".join(experiments.RECORD_COLUMNS)
        header = (tmp_path / "slopes.csv").read_text().splitlines()[0]
        assert header == ",".join(experiments.SLOPE_COLUMNS)

        back = read_records_csv(tmp_path / "evidence_records.csv")
        assert back == res.records   # repr round-trip is exact

    def test_aggregation_reproducible_from_persisted_records(self, tmp_path):
        cfg = tiny_config()
        res = run_study(cfg)
        write_study_outputs(res, tmp_path)
        back = read_records_csv(tmp_path / "evidence_records.csv")
        again = aggregate_rank_summaries(back, cfg.ranks)
        for a, b in zip(sorted(res.rank_summaries, key=lambda s: s.rank), again):
            assert abs(a.fit_delta_bic.slope - b.fit_delta_bic.slope) < 1e-10
            assert abs(a.fit_delta_rlct.slope - b.fit_delta_rlct.slope) < 1e-10
            assert abs(a.lambda_hat - b.lambda_hat) < 1e-10

    def test_identical_configs_give_identical_bytes(self, tmp_path):
        cfg = tiny_config()
        for sub in ("a", "b"):
            write_study_outputs(run_study(cfg), tmp_path / sub)
        a = (tmp_path / "a" / "evidence_records.csv").read_bytes()
        b = (tmp_path / "b" / "evidence_records.csv").read_bytes()
        assert a == b
        a = (tmp_path / "a" / "slopes.csv").read_bytes()
        b = (tmp_path / "b" / "slopes.csv").read_bytes()
        assert a == b

    def test_dict_outputs(self, tmp_path):
        cfg = ExperimentConfig(
            study="dict_compare", p=8, d=6, ranks=[3], seeds=[0], n_grid=[100, 200]
        )
        res = run_study(cfg)
        write_study_outputs(res, tmp_path)
        lines = (tmp_path / "dict_compare.csv").read_text().splitlines()
        assert lines[0] == "quantity,value"
        quantities = [ln.split(",")[0] for ln in lines[1:]]
        assert quantities == experiments.DICT_TABLE_QUANTITIES
