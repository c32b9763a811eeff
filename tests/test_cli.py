import json
import os
import stat

import pytest

from rankevidence.cli import (
    OUTPUT_DIR_ENV,
    _parse_int_list,
    emit_plot_data,
    main,
    parse_overrides,
)
from rankevidence.experiments import ConfigError, ExperimentConfig, run_study


class TestOverrideGrammar:
    def test_plain_range(self):
        assert _parse_int_list("0..4") == [0, 1, 2, 3, 4]

    def test_geometric_range(self):
        assert _parse_int_list("50..800x2") == [50, 100, 200, 400, 800]
        assert _parse_int_list("50..1000x2") == [50, 100, 200, 400, 800]

    def test_plus_list_and_scalar(self):
        assert _parse_int_list("4+6") == [4, 6]
        assert _parse_int_list("3") == [3]

    def test_parse_overrides(self):
        out = parse_overrides(["seeds=0..2,n_grid=50..200x2", "d=4", "sigma2=0.5"])
        assert out == {
            "seeds": [0, 1, 2],
            "n_grid": [50, 100, 200],
            "d": 4,
            "sigma2": 0.5,
        }

    def test_unknown_field_rejected(self):
        for item in ("widgets=3", "study=dict_compare", "output_dir=zz"):
            with pytest.raises(ConfigError, match="^unknown override field"):
                parse_overrides([item])

    def test_malformed_pairs_rejected(self):
        with pytest.raises(ConfigError):
            parse_overrides(["seeds"])
        with pytest.raises(ConfigError):
            parse_overrides(["d=abc"])


class TestMain:
    def test_rank_sweep_smoke(self, tmp_path, capsys):
        code = main([
            "rank-sweep",
            "--overrides", "seeds=0..1,n_grid=50..200x2,ranks=1+2",
            "--output-dir", str(tmp_path),
        ])
        assert code == 0
        for name in ("evidence_records.csv", "slopes.csv", "effective_config.json",
                     "fig1_rank_sweep.tsv", "run_meta.json", "summary.txt"):
            assert (tmp_path / name).exists(), name
        out = capsys.readouterr().out
        assert "rank_sweep" in out

    def test_effective_config_roundtrips(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main([
            "rank-sweep",
            "--overrides", "seeds=0..1,n_grid=50..200x2,ranks=1+2,sigma2=0.5",
            "--output-dir", str(out_a),
        ]) == 0
        assert main([
            "rank-sweep",
            "--config", str(out_a / "effective_config.json"),
            "--output-dir", str(out_b),
        ]) == 0
        a = (out_a / "evidence_records.csv").read_bytes()
        b = (out_b / "evidence_records.csv").read_bytes()
        assert a == b

    def test_override_beats_config_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seeds": [0], "n_grid": [50, 100], "sigma2": 2.0}))
        out = tmp_path / "run"
        assert main([
            "rank-sweep", "--config", str(cfg_path),
            "--overrides", "sigma2=0.25,ranks=1",
            "--output-dir", str(out),
        ]) == 0
        effective = json.loads((out / "effective_config.json").read_text())
        assert effective["sigma2"] == 0.25       # override wins
        assert effective["seeds"] == [0]         # file beats default
        assert effective["ranks"] == [1]

    def test_output_dir_env_honored(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(target))
        assert main(["rank-sweep", "--overrides", "seeds=0,n_grid=50..100x2,ranks=1"]) == 0
        assert (target / "evidence_records.csv").exists()

    def test_dict_compare_smoke(self, tmp_path):
        assert main([
            "dict-compare",
            "--overrides", "seeds=0..1,n_grid=100..400x2",
            "--output-dir", str(tmp_path), "--plot",
        ]) == 0
        for name in ("dict_records.csv", "dict_compare.csv",
                     "fig4_dict_evidence_gap.tsv", "fig5_eigenspectra.tsv",
                     "fig5_eigenspectra.svg"):
            assert (tmp_path / name).exists(), name
        svg = (tmp_path / "fig5_eigenspectra.svg").read_text()
        assert svg.startswith("<svg") and "eigenvalue" in svg

    def test_estimate_rlct_prints_lambda(self, tmp_path, capsys):
        assert main([
            "estimate-rlct",
            "--overrides", "seeds=0..2,n_grid=50..800x2,ranks=2",
            "--output-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "lambda_hat" in out
        assert (tmp_path / "lambda_vs_rank.tsv").exists()

    def test_evidence_subcommand(self, capsys):
        assert main(["evidence", "--overrides", "ranks=3,seeds=5,n_grid=50..200x2"]) == 0
        out = capsys.readouterr().out
        assert "log_z_exact" in out
        assert out.count("\n") >= 4

    def test_verify_subcommand(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4 and "FAIL" not in out

    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["bogus"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["rank-sweep", "--frobnicate"]) == 1

    def test_config_error_exits_1(self, capsys):
        assert main(["rank-sweep", "--overrides", "ranks=9"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_duplicate_ranks_and_seeds_exit_1(self, tmp_path, capsys):
        assert main([
            "rank-sweep", "--overrides", "seeds=0+0,ranks=2+2,n_grid=50+100",
            "--output-dir", str(tmp_path),
        ]) == 1
        assert "must not repeat" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "overrides,config,message",
        [
            ("sigma2=nan,ranks=1,seeds=0,n_grid=50+100", None, "expected a finite number"),
            ("ranks=1,seeds=0,n_grid=50+5000000000", None, "below 2**32"),
            ("ranks=1,seeds=0,n_grid=50+100", {"tau2": True}, "expected a number"),
        ],
    )
    def test_unusable_config_values_exit_1(self, tmp_path, capsys, overrides, config, message):
        out = tmp_path / "out"
        argv = ["rank-sweep", "--overrides", overrides, "--output-dir", str(out)]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "cfg.json")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and message in err
        assert not out.exists()

    def test_missing_config_file_exits_1(self, capsys):
        assert main(["rank-sweep", "--config", "/nonexistent/cfg.json"]) == 1

    def test_unwritable_output_dir_exits_1(self, tmp_path, capsys):
        rodir = tmp_path / "ro"
        rodir.mkdir()
        rodir.chmod(stat.S_IRUSR | stat.S_IXUSR)
        if os.access(rodir, os.W_OK):
            pytest.skip("running with privileges that ignore directory modes")
        try:
            code = main([
                "rank-sweep",
                "--overrides", "seeds=0,n_grid=50..100x2,ranks=1",
                "--output-dir", str(rodir / "sub"),
            ])
            assert code == 1
        finally:
            rodir.chmod(stat.S_IRWXU)


_PLOT_TSV_HEADERS = {
    "fig1_rank_sweep": ["rank", "slope_bic", "slope_rlct", "stderr_bic", "stderr_rlct"],
    "lambda_vs_rank": ["rank", "lambda_hat", "lambda_analytic"],
    "fig2_regular_error": ["n", "log_n", "delta_bic_mean", "delta_rlct_mean"],
    "fig3_singular_error": ["n", "log_n", "delta_bic_mean", "delta_rlct_mean"],
    "fig4_dict_evidence_gap": ["n", "log_n", "exact_gap_mean", "bic_gap_mean"],
    "fig5_eigenspectra": ["index", "eig_minimal", "eig_overcomplete"],
}


class TestEmitPlotData:
    @pytest.mark.parametrize(
        "command, overrides, stems",
        [
            ("rank-sweep", "ranks=1+2", ["fig1_rank_sweep"]),
            ("estimate-rlct", "ranks=1+2", ["fig1_rank_sweep", "lambda_vs_rank"]),
            ("regular-vs-singular", "ranks=4+6",
             ["fig2_regular_error", "fig3_singular_error"]),
            ("dict-compare", "ranks=3", ["fig4_dict_evidence_gap", "fig5_eigenspectra"]),
        ],
    )
    def test_plot_files_per_study(self, tmp_path, command, overrides, stems):
        """Every study writes exactly its figure TSVs, each with its pinned
        header and, under --plot, an SVG beside it."""
        assert main([
            command, "--overrides", f"{overrides},seeds=0,n_grid=100+200",
            "--output-dir", str(tmp_path), "--plot",
        ]) == 0
        assert sorted(p.stem for p in tmp_path.glob("*.tsv")) == sorted(stems)
        for stem in stems:
            header = (tmp_path / f"{stem}.tsv").read_text().splitlines()[0]
            assert header.split("\t") == _PLOT_TSV_HEADERS[stem], stem
            assert (tmp_path / f"{stem}.svg").read_text().startswith("<svg"), stem

    def test_empty_result_errors_before_writing(self, tmp_path):
        cfg = ExperimentConfig(study="rank_sweep", ranks=[1], seeds=[0], n_grid=[50, 100])
        res = run_study(cfg)
        res.records = []
        with pytest.raises(ValueError):
            emit_plot_data(res, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_rank_sweep_tsv_schema(self, tmp_path):
        cfg = ExperimentConfig(study="rank_sweep", ranks=[1, 2], seeds=[0], n_grid=[50, 100])
        res = run_study(cfg)
        emit_plot_data(res, tmp_path)
        lines = (tmp_path / "fig1_rank_sweep.tsv").read_text().splitlines()
        assert lines[0].split("\t") == [
            "rank", "slope_bic", "slope_rlct", "stderr_bic", "stderr_rlct"
        ]
        assert len(lines) == 3

    def test_regular_vs_singular_curves(self, tmp_path):
        cfg = ExperimentConfig(
            study="regular_vs_singular", ranks=[4, 6], seeds=[0], n_grid=[50, 100, 200]
        )
        res = run_study(cfg)
        emit_plot_data(res, tmp_path, plot=True)
        for name in ("fig2_regular_error.tsv", "fig3_singular_error.tsv",
                     "fig2_regular_error.svg", "fig3_singular_error.svg"):
            assert (tmp_path / name).exists(), name
        lines = (tmp_path / "fig3_singular_error.tsv").read_text().splitlines()
        assert lines[0].split("\t") == ["n", "log_n", "delta_bic_mean", "delta_rlct_mean"]
        assert len(lines) == 4

    def test_eigenspectra_tsv(self, tmp_path):
        cfg = ExperimentConfig(
            study="dict_compare", p=8, d=6, ranks=[3], seeds=[0], n_grid=[100, 200]
        )
        res = run_study(cfg)
        emit_plot_data(res, tmp_path)
        lines = (tmp_path / "fig5_eigenspectra.tsv").read_text().splitlines()
        assert lines[0].split("\t") == ["index", "eig_minimal", "eig_overcomplete"]
        assert len(lines) == 7       # header + max(3, 6) eigenvalues
        first = lines[1].split("\t")
        assert float(first[1]) == pytest.approx(1.0, abs=1e-9)
