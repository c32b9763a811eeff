"""Command-line front end for the studies and verification suite.

Subcommands mirror the studies (``rank-sweep``, which also draws the
regular-vs-singular curves and one rank's evidence curve, and
``dict-compare``) plus ``verify`` for the brute-force oracle checks.
Effective configuration is resolved as: built-in defaults, then the
``--config`` JSON file, then ``--overrides``, where a key given twice is an
error; the output directory honors ``--output-dir``, else the
RANKEVIDENCE_OUTPUT_DIR environment variable, else the config value.  Every
run writes ``effective_config.json`` next to its outputs so the run can be
reproduced by pointing ``--config`` at it.

Exit codes: 0 success, 1 usage, configuration or I/O error, 2 numerical
failure that aborted a study (its records and ``summary.txt`` are written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path
from typing import Callable

import numpy as np

from ._linalg import NumericalError
from .evidence import (exact_log_evidence, full_laplace_log_evidence, log_n, per_dimension,
                       root_evidence_batch)
from .experiments import (
    FIELD_TYPES,
    STUDIES,
    ConfigError,
    ExperimentConfig,
    StudyResult,
    run_study,
    summarize,
    table_text,
    write_atomic,
    write_study_outputs,
)
from .oracle import (
    OracleError,
    importance_estimate,
    importance_log_weights,
    quadrature_batch,
    random_problem,
)
from .rlct import analytic_rlct
from .svgplot import line_chart

OUTPUT_DIR_ENV = "RANKEVIDENCE_OUTPUT_DIR"

_STUDY_BY_COMMAND = {study.replace("_", "-"): study for study in STUDIES}

# the subcommand fixes the study, and --output-dir / the environment the output dir
_OVERRIDABLE = sorted(set(FIELD_TYPES) - {"study", "output_dir"})


def _parse_int_list(text: str) -> list[int]:
    """Value grammar for list fields: ``a..b`` (inclusive, step 1),
    ``a..bxK`` (geometric, factor K), ``v1+v2+...``, or a single integer."""
    if ".." in text:
        lo_text, rest = text.split("..", 1)
        if "x" in rest:
            hi_text, factor_text = rest.split("x", 1)
            lo, hi, factor = int(lo_text), int(hi_text), int(factor_text)
            if factor < 2 or lo < 1 or hi < lo:
                raise ValueError(f"bad geometric range {text!r}")
            values = []
            v = lo
            while v <= hi:
                values.append(v)
                v *= factor
            return values
        lo, hi = int(lo_text), int(rest)
        if hi < lo:
            raise ValueError(f"bad range {text!r}")
        return list(range(lo, hi + 1))
    if "+" in text:
        return [int(v) for v in text.split("+")]
    return [int(text)]


def parse_overrides(chunks: list[str]) -> dict:
    """Parse ``--overrides`` strings (comma-separated key=value pairs)."""
    pairs = []
    for chunk in chunks:
        for item in chunk.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ConfigError(f"override {item!r} is not of the form key=value")
            key, value = item.split("=", 1)
            key = key.strip()
            if key not in _OVERRIDABLE:
                raise ConfigError(
                    f"unknown override field {key!r}; valid fields: {_OVERRIDABLE}"
                )
            try:   # a scalar stays a string: validate() coerces it with every field
                parsed = _parse_int_list(value) if FIELD_TYPES[key] == list[int] else value
            except ValueError as exc:
                raise ConfigError(f"bad override value for {key!r}: {value!r} ({exc})")
            pairs.append((key, parsed))
    return _unique_keys(pairs)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The pairs as a dict; a key given twice is an error, where ``dict`` and
    ``json`` would let its last value win."""
    keys = [key for key, _ in pairs]
    if repeated := sorted({key for key in keys if keys.count(key) > 1}):
        raise ConfigError(f"keys given twice: {repeated}")
    return dict(pairs)


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except ValueError as exc:   # not UTF-8, not JSON, or a key given twice
        raise ConfigError(f"cannot use config file {path}: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def build_config(study: str, args: argparse.Namespace) -> ExperimentConfig:
    """The study's defaults, then config file, then overrides, then the
    output-dir flag/env."""
    merged = _load_config_file(args.config) if args.config else {}
    merged.update(parse_overrides(args.overrides))
    merged["study"] = study
    if output_dir := args.output_dir or os.environ.get(OUTPUT_DIR_ENV):
        merged["output_dir"] = output_dir
    return ExperimentConfig.from_dict(merged)


# ---------------------------------------------------------------------------
# Plot-data emission
# ---------------------------------------------------------------------------

def _log_n_rows(curve: dict[str, list], *names: str) -> list[list]:
    """Rows of n, :func:`log_n` and each named seed-mean column of a kept curve."""
    logs = log_n(np.array(curve["n"])).tolist()
    return [list(row) for row in zip(curve["n"], logs, *(curve[k] for k in names))]


def _spectra_rows(result: StudyResult) -> list[list]:
    """Index and both Gram spectra, blank past the end of the shorter one."""
    spectra = zip_longest(*(eig.tolist() for eig in result.spectra), fillvalue="")
    return [[i, *eigs] for i, eigs in enumerate(spectra)]


@dataclass(frozen=True)
class _Figure:
    """One figure: the study that emits it, its TSV, and the chart drawn
    from the TSV rows (``x`` against each ``(column, legend)`` of ``ys``);
    ``when`` says which of the study's configs get it."""

    study: str
    stem: str
    columns: tuple[str, ...]
    rows: Callable[[StudyResult], list[list]]
    x: str
    ys: tuple[tuple[str, str], ...]
    title: str          # formatted with d and the regular and singular ranks
    xlabel: str
    ylabel: str
    when: Callable[[ExperimentConfig], bool] = lambda cfg: True


_ERROR_CURVE_COLUMNS = ("n", "log_n", "delta_bic_mean", "delta_rlct_mean")
_ERROR_CURVE_SERIES = (("delta_bic_mean", "BIC error"), ("delta_rlct_mean", "corrected error"))
_ERROR_CURVE_YLABEL = "approximate - exact log evidence"


def _has_contrast(cfg: ExperimentConfig) -> bool:
    """The largest rank is the regular rank d and the smallest is below it."""
    return max(cfg.ranks) == cfg.d > min(cfg.ranks)


_FIGURES = (
    _Figure(
        "rank_sweep", "fig1_rank_sweep",
        ("rank", "slope_bic", "slope_rlct", "se_lambda"),
        lambda res: [[s.rank, s.slope_delta_bic, s.slope_delta_rlct, s.se_lambda]
                     for s in res.rank_summaries],
        "rank", (("slope_bic", "BIC error slope"), ("slope_rlct", "corrected error slope")),
        "Approximation error slopes vs intrinsic rank", "intrinsic rank r", "slope vs log n",
    ),
    _Figure(
        "rank_sweep", "lambda_vs_rank",
        ("rank", "lambda_hat", "se_lambda", "lambda_analytic"),
        lambda res: [[s.rank, s.lambda_hat, s.se_lambda, analytic_rlct(s.rank)]
                     for s in res.rank_summaries],
        "rank", (("lambda_hat", "slope estimate"), ("lambda_analytic", "analytic r/2")),
        "Effective dimension from evidence slopes", "intrinsic rank r", "lambda",
    ),
    _Figure(
        "rank_sweep", "fig2_regular_error", _ERROR_CURVE_COLUMNS,
        # the summaries run in increasing rank
        lambda res: _log_n_rows(res.rank_summaries[-1].curve, "delta_bic", "delta_rlct"),
        "log_n", _ERROR_CURVE_SERIES,
        "Approximation error vs log n (d={d}, r={regular})", "log n", _ERROR_CURVE_YLABEL,
        _has_contrast,
    ),
    _Figure(
        "rank_sweep", "fig3_singular_error", _ERROR_CURVE_COLUMNS,
        lambda res: _log_n_rows(res.rank_summaries[0].curve, "delta_bic", "delta_rlct"),
        "log_n", _ERROR_CURVE_SERIES,
        "Approximation error vs log n (d={d}, r={singular})", "log n", _ERROR_CURVE_YLABEL,
        _has_contrast,
    ),
    _Figure(
        "dict_compare", "fig4_dict_evidence_gap",
        ("n", "log_n", "exact_gap_mean", "bic_gap_mean"),
        lambda res: _log_n_rows(res.dict_gap_curve, "exact_gap", "bic_gap"),
        "log_n", (("exact_gap_mean", "exact gap"), ("bic_gap_mean", "BIC gap")),
        "Minimal minus overcomplete scores vs log n", "log n", "score gap",
    ),
    _Figure(
        "dict_compare", "fig5_eigenspectra",
        ("index", "eig_minimal", "eig_overcomplete"),
        _spectra_rows,
        "index", (("eig_minimal", "minimal"), ("eig_overcomplete", "overcomplete")),
        "Gram matrix eigenvalue spectra", "eigenvalue index", "eigenvalue",
    ),
)


def _chart(fig: _Figure, rows: list[list], cfg: ExperimentConfig) -> str:
    x = fig.columns.index(fig.x)
    series = []
    for column, legend in fig.ys:
        y = fig.columns.index(column)
        kept = [row for row in rows if row[y] != ""]
        series.append((legend, [row[x] for row in kept], [row[y] for row in kept]))
    title = fig.title.format(d=cfg.d, regular=max(cfg.ranks), singular=min(cfg.ranks))
    return line_chart(series, title=title, xlabel=fig.xlabel, ylabel=fig.ylabel)


def emit_plot_data(result: StudyResult, out_dir: str | Path, plot: bool = False) -> list[Path]:
    """Write one TSV per figure; with ``plot`` also a rendered SVG for each.

    Raises ValueError on an empty result before touching the filesystem.
    Each file is replaced atomically, but a failure part-way leaves the
    files already written.
    """
    cfg = result.config
    figures = [fig for fig in _FIGURES if fig.study == cfg.study and fig.when(cfg)]
    if not figures:
        raise ValueError(f"no plot data defined for study {cfg.study!r}")
    if not len(result.cells):
        raise ValueError("cannot emit plot data for an empty study result")
    texts: dict[str, str] = {}
    charts: dict[str, str] = {}
    for fig in figures:
        rows = fig.rows(result)
        texts[f"{fig.stem}.tsv"] = table_text(list(fig.columns), zip(*rows), delimiter="\t")
        if plot:
            charts[f"{fig.stem}.svg"] = _chart(fig, rows, cfg)
    out = Path(out_dir)
    files = {**texts, **charts}
    for name, text in files.items():
        write_atomic(out / name, text)
    return [out / name for name in files]


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _run_study_command(command: str, args: argparse.Namespace) -> int:
    cfg = build_config(_STUDY_BY_COMMAND[command], args)
    out = Path(cfg.output_dir)
    try:
        result = run_study(cfg)
    except NumericalError as exc:   # an aborted aggregation still leaves records and failures
        if getattr(exc, "result", None) is not None:
            write_study_outputs(exc.result, out)
        raise
    write_study_outputs(result, out)
    emit_plot_data(result, out, plot=args.plot)
    write_atomic(out / "effective_config.json", json.dumps(cfg.to_dict(), indent=2) + "\n")
    sys.stdout.write(summarize(result))
    sys.stdout.write(f"outputs written to {out}\n")
    return 0


def run_verification() -> list[tuple[str, float, float, bool]]:
    """Deterministic oracle sweep: (name, worst value, tolerance, passed).

    Every problem is one :func:`~rankevidence.oracle.random_problem`, a
    Wishart root of d + 1 rows.  The quadrature is checked against both
    closed forms: the Cholesky one on the products and the evidence record
    of the same rows, scored like the study cells.  Each reference takes one
    call per d, on the stack of its problems
    (:func:`~rankevidence.evidence.per_dimension`)."""
    seed = 2024   # fixed: other seeds' problem mixes differ in run time by up to 36 %
    rng = np.random.default_rng(seed)
    problems = [random_problem(rng, max_d=2, max_n=50) for _ in range(100)]
    laplace = [random_problem(rng, max_d=20, max_n=1000, min_n=5) for _ in range(200)]
    importance = [random_problem(rng, max_d=5, max_n=200, min_n=5) for _ in range(20)]
    exact = per_dimension(lambda s, _: exact_log_evidence(s), problems + laplace + importance)
    quad_exact, lap_exact, is_exact = np.split(exact, [len(problems), len(problems) + len(laplace)])
    quad = quadrature_batch(problems)
    record = per_dimension(lambda s, index: root_evidence_batch(
        s.n, np.array([problems[i].A for i in index]), np.array([problems[i].y for i in index]),
        s.b.shape[-1], s.sigma2, s.tau2, 0.0)["log_z_exact"], problems)
    quad_worst = float(np.max([np.abs(quad_exact - quad), np.abs(record - quad)]))
    lap = per_dimension(lambda s, _: full_laplace_log_evidence(s), laplace)
    lap_worst = float(np.max(np.abs(lap - lap_exact) / np.abs(lap_exact)))
    weight_var, estimate, stderr = per_dimension(lambda s, index: [
        (np.var(w), *importance_estimate(w))
        for w in importance_log_weights(s, 2000, seed=seed + np.array(index))], importance, 3).T
    weight_var_worst = float(np.max(weight_var))
    is_dev_worst = float(np.max(np.abs(estimate - is_exact) - 3.0 * stderr))
    return [
        ("quadrature vs closed form and evidence record (100 problems, d<=2, n<=50)",
         quad_worst, 1e-6, quad_worst < 1e-6),
        ("MAP-Laplace vs closed form, relative (200 problems, d<=20)", lap_worst, 1e-8,
         lap_worst < 1e-8),
        ("importance log-weight variance, conjugate proposal (20 problems)",
         weight_var_worst, 1e-18, weight_var_worst < 1e-18),
        ("importance |estimate - exact| beyond 3*stderr (20 problems)",
         max(is_dev_worst, 0.0), 1e-9, is_dev_worst < 1e-9),
    ]


def _run_verify_command() -> int:
    checks = run_verification()
    for name, worst, tol, ok in checks:
        status = "PASS" if ok else "FAIL"
        sys.stdout.write(f"{status}  {name}: max discrepancy {worst:.3e} (tol {tol:.0e})\n")
    return 0 if all(ok for *_, ok in checks) else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankevidence",
        description="Exact vs approximate evidence studies for rank-deficient "
        "linear-Gaussian models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file mirroring ExperimentConfig")
        p.add_argument(
            "--overrides",
            action="append",
            default=[],
            metavar="K=V[,K=V...]",
            help="config overrides; list values accept a..b, a..bxK, or v1+v2",
        )
        p.add_argument("--output-dir", help=f"output directory (else ${OUTPUT_DIR_ENV})")

    for command, study in _STUDY_BY_COMMAND.items():
        sp = sub.add_parser(command, help=f"run the {study} study")
        add_common(sp)
        sp.add_argument("--plot", action="store_true", help="also render SVG charts")
    sub.add_parser("verify", help="run the brute-force oracle verification suite")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            return _run_verify_command()
        return _run_study_command(args.command, args)
    except SystemExit as exc:  # argparse: 2 on a usage error, 0 on --help
        return 1 if exc.code else 0
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 1
    except (NumericalError, OracleError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
