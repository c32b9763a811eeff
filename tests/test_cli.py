import json
import os
import stat
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import rankevidence
import rankevidence.experiments as experiments
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
        cfg = ExperimentConfig.from_dict(
            parse_overrides(["seeds=0..2,n_grid=50..200x2", "d=4,ranks=1+4", "sigma2=0.5"])
        )
        assert (cfg.seeds, cfg.n_grid, cfg.d, cfg.ranks, cfg.sigma2) == (
            [0, 1, 2], [50, 100, 200], 4, [1, 4], 0.5,
        )

    def test_unknown_field_rejected(self):
        for item in ("widgets=3", "study=dict_compare", "output_dir=zz"):
            with pytest.raises(ConfigError, match="^unknown override field"):
                parse_overrides([item])

    def test_malformed_pairs_rejected(self):
        with pytest.raises(ConfigError):
            parse_overrides(["seeds"])
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(parse_overrides(["d=abc"]))


class TestMain:
    def test_rank_sweep_smoke(self, tmp_path, capsys):
        code = main([
            "rank-sweep",
            "--overrides", "seeds=0..1,n_grid=50..200x2,ranks=1+2",
            "--output-dir", str(tmp_path),
        ])
        assert code == 0
        for name in ("evidence_records.csv", "slopes.csv", "effective_config.json",
                     "fig1_rank_sweep.tsv", "lambda_vs_rank.tsv", "run_meta.json",
                     "summary.txt"):
            assert (tmp_path / name).exists(), name
        out = capsys.readouterr().out
        assert "rank_sweep" in out and "lambda_hat" in out

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

    def test_saved_config_of_the_retired_estimate_rlct_study_runs(self, tmp_path):
        """The subcommand sets the study, so an effective_config.json that
        names estimate_rlct still runs through --config; the library no
        longer knows that study."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"study": "estimate_rlct", "ranks": [1], "seeds": [0], "n_grid": [50, 100]}))
        out = tmp_path / "run"
        assert main(["rank-sweep", "--config", str(cfg_path), "--output-dir", str(out)]) == 0
        assert json.loads((out / "effective_config.json").read_text())["study"] == "rank_sweep"
        assert (out / "lambda_vs_rank.tsv").exists()
        with pytest.raises(ConfigError, match="unknown study"):
            ExperimentConfig(study="estimate_rlct").validate()

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
        """The environment variable sets the output directory when the flag
        is absent; with both set, the flag wins and the environment's
        directory is not made."""
        target = tmp_path / "from_env"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(target))
        args = ["rank-sweep", "--overrides", "seeds=0,n_grid=50..100x2,ranks=1"]
        assert main(args) == 0
        assert (target / "evidence_records.csv").exists()
        other_env, flag = tmp_path / "other_env", tmp_path / "from_flag"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(other_env))
        assert main([*args, "--output-dir", str(flag)]) == 0
        assert (flag / "evidence_records.csv").exists()
        assert not other_env.exists()

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

    def test_dict_compare_survives_a_failed_table_cell(self, tmp_path, monkeypatch):
        """The comparison table's cell (first seed, n = 200) fails: the run
        still exits 0 and writes every other row, no table file, the gap
        slopes and a summary line saying why the table is missing."""
        args = ["dict-compare", "--overrides", "seeds=0..1,n_grid=50..200x2", "--output-dir"]
        assert main([*args, str(tmp_path / "clean")]) == 0
        real = experiments.comparison_batch

        def poisoned(pairs, n_grid, seeds):
            out = real(pairs, n_grid, seeds)
            out["exact_minimal"][0, n_grid.index(200)] = float("nan")
            return out

        monkeypatch.setattr(experiments, "comparison_batch", poisoned)
        out = tmp_path / "poisoned"
        assert main([*args, str(out)]) == 0
        clean_rows = (tmp_path / "clean" / "dict_records.csv").read_text().splitlines()
        rows = (out / "dict_records.csv").read_text().splitlines()
        failed = "dict_compare,3,6,8,0,200,"   # study, rank, d, p, seed, n
        assert rows == [row for row in clean_rows if not row.startswith(failed)]
        assert len(rows) == 1 + 5
        assert not (out / "dict_compare.csv").exists()
        summary = (out / "summary.txt").read_text()
        assert "comparison at n=200 (first seed): cell failed, no table" in summary
        assert "gap slopes vs log n: " in summary
        assert "failed cells: 1" in summary and "rank=3 seed=0 n=200" in summary

    def test_verify_subcommand(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4 and "FAIL" not in out

    def test_unknown_subcommand_exits_1(self, capsys):
        # retired: regular-vs-singular and evidence are runs of rank-sweep
        for command in ("bogus", "regular-vs-singular", "evidence"):
            assert main([command]) == 1
            assert "invalid choice" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "overrides,config",
        [
            (["ranks=1,ranks=2"], None),
            (["ranks=1", "seeds=0,ranks=2"], None),
            ([], '{"seeds": [0], "seeds": [1, 2]}'),
        ],
        ids=["one-chunk", "across-chunks", "config-file"],
    )
    def test_repeated_key_exits_1(self, tmp_path, capsys, overrides, config):
        """A key given twice is a config error that writes nothing, rather
        than a silent last-value-wins."""
        out = tmp_path / "out"
        argv = ["rank-sweep", "--output-dir", str(out)]
        for chunk in overrides:
            argv += ["--overrides", chunk]
        if config is not None:
            (tmp_path / "cfg.json").write_text(config)
            argv += ["--config", str(tmp_path / "cfg.json")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error") and "given twice" in captured.err
        assert not out.exists()

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        """A config file that is missing, not JSON, not UTF-8 or a JSON list
        is a config error naming the file, and no output directory is made."""
        bad_json, a_list = tmp_path / "bad.json", tmp_path / "list.json"
        bad_json.write_text("{not json")
        a_list.write_text("[1, 2]")
        not_utf8 = tmp_path / "latin1.json"
        not_utf8.write_bytes(b'{"\xff": 1}')
        out = tmp_path / "out"
        for path in (tmp_path / "missing" / "cfg.json", bad_json, not_utf8, a_list):
            assert main(["rank-sweep", "--config", str(path), "--output-dir", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error") and str(path) in err, err
            assert not out.exists()

    @pytest.mark.parametrize("command,overrides,records,failed,message", [
        ("rank-sweep", ",ranks=1+2", "evidence_records.csv", 36,
         "non-finite value in evidence record"),
        ("dict-compare", "", "dict_records.csv", 18, "Cholesky factorization failed"),
    ])
    def test_aggregation_abort_exits_2_and_keeps_records(
        self, tmp_path, capsys, command, overrides, records, failed, message
    ):
        """With sigma2 = 1e-10 and tau2 = 1e300 every cell fails, so the
        aggregation aborts: exit 2 with the numerical failure line, and the
        record CSV (its header alone), summary.txt with a line per failed
        cell and run_meta.json are still written; no slope, table or figure."""
        out = tmp_path / "out"
        assert main([
            command, "--overrides", f"sigma2=1e-10,tau2=1e300,seeds=0..1{overrides}",
            "--output-dir", str(out), "--plot",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: rank ")
        assert sorted(path.name for path in out.iterdir()) == sorted(
            [records, "summary.txt", "run_meta.json"])
        assert (out / records).read_text().count("\n") == 1
        summary = (out / "summary.txt").read_text()
        assert f"failed cells: {failed}\n" in summary
        assert summary.count(message) == failed
        assert json.loads((out / "run_meta.json").read_text())["n_failures"] == failed

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
            ("rank-sweep", "ranks=1+2", ["fig1_rank_sweep", "lambda_vs_rank"]),
            ("rank-sweep", "ranks=2", ["fig1_rank_sweep", "lambda_vs_rank"]),
            ("rank-sweep", "ranks=4+6", ["fig1_rank_sweep", "lambda_vs_rank",
                                         "fig2_regular_error", "fig3_singular_error"]),
            ("dict-compare", "ranks=3", ["fig4_dict_evidence_gap", "fig5_eigenspectra"]),
        ],
    )
    def test_plot_files_per_study(self, tmp_path, command, overrides, stems):
        """Every study writes exactly its figure TSVs, each with its pinned
        header and, under --plot, an SVG beside it; rank-sweep adds the
        regular and singular error curves only when its ranks reach d = 6
        from below."""
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
        cells = res.cells
        res.cells = replace(cells, rank=cells.rank[:0], seed=cells.seed[:0], n=cells.n[:0],
                            scores=cells.scores[:0])
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
            study="rank_sweep", ranks=[4, 6], seeds=[0], n_grid=[50, 100, 200]
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


_NO_SCIPY_SCRIPT = """
import json, sys
sys.modules["scipy"] = None          # any scipy import now raises ImportError
from rankevidence import cli
out = sys.argv[1]
runs = {
    "rank-sweep": ["rank-sweep", "--plot", "--overrides", "seeds=0..1,n_grid=50..200x2,ranks=1+2"],
    "contrast": ["rank-sweep", "--plot", "--overrides", "ranks=4+6,seeds=0,n_grid=100+200"],
    "dict-compare": ["dict-compare", "--plot", "--overrides", "seeds=0,n_grid=100..400x2"],
}
codes = [cli.main([*run, "--output-dir", f"{out}/{name}"]) for name, run in runs.items()]
checks = [passed for *_, passed in cli.run_verification()]
loaded = sorted(m for m in sys.modules if m == "numpy.ma"
                or m.startswith(("scipy", "xml.sax", "urllib.request", "numpy.ma.")))
print(json.dumps({"codes": codes, "checks": checks, "loaded": loaded}))
"""


def test_runs_without_scipy(tmp_path):
    """The runtime is numpy only: every subcommand and the verify sweep run
    in an interpreter where importing scipy fails, and none of xml.sax,
    urllib.request and numpy.ma gets loaded on the way."""
    src = str(Path(rankevidence.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0] * 3
    assert result["checks"] == [True] * 4
    assert result["loaded"] == ["scipy"]      # the None placeholder itself
    for svg in ("rank-sweep/fig1_rank_sweep.svg", "rank-sweep/lambda_vs_rank.svg",
                "contrast/fig2_regular_error.svg", "contrast/fig3_singular_error.svg",
                "dict-compare/fig5_eigenspectra.svg"):
        assert (tmp_path / svg).read_text().startswith("<svg"), svg


_UTF8_SCRIPT = """
import json, sys
from rankevidence import cli
from rankevidence.experiments import read_cell_table
config, out = sys.argv[1:]
codes = [cli.main([command, "--config", config, "--plot", "--output-dir", f"{out}/{command}"])
         for command in ("rank-sweep", "dict-compare")]
codes.append(cli.main(["verify"]))
rows = [len(read_cell_table(f"{out}/{path}")) for path in
        ("rank-sweep/evidence_records.csv", "dict-compare/dict_records.csv")]
print(json.dumps({"codes": codes, "rows": rows}))
"""


def test_text_files_name_utf8(tmp_path):
    """Every text file the package opens names its encoding: both study
    subcommands with a config file and --plot, verify and read_cell_table
    run with a locale-default encoding turned into an error."""
    src = str(Path(rankevidence.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seeds": [0], "n_grid": [50, 100], "ranks": [3]}),
                      encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-c", _UTF8_SCRIPT, str(config), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"codes": [0, 0, 0], "rows": [2, 2]}
