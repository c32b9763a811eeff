"""Study orchestration: seed ensembles over sample-size grids, aggregation,
and CSV persistence.

Four studies are built in.  ``rank_sweep`` varies the intrinsic rank at
fixed ambient dimension and fits the log-n slopes of the BIC and corrected
approximation errors.  ``regular_vs_singular`` contrasts a full-rank with a
rank-deficient configuration.  ``dict_compare`` scores a minimal and an
overcomplete dictionary for the same subspace on shared data.
``estimate_rlct`` reuses the sweep cells and reports the slope-based
effective-dimension estimates.  :func:`run_study` runs any of them.

Raw per-cell records are persisted before any aggregation, floats are written
as shortest round-trip decimals, and timestamps live in a sidecar file, so
identical configs produce byte-identical raw CSVs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import tempfile
import time
import typing
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from ._linalg import NumericalError
from ._rng import SEED_LIMIT, STREAM_INDEX_LIMIT
from .dictionary import (
    DictionaryComparison,
    comparison_batch,
    gram_spectrum,
    make_dictionary_pair,
)
from .evidence import evidence_batch
# sample_dataset is not called here; it stays bound in this module because
# perfbench/test_checks.py checks the tracer's rebinding on this very global.
from .linear_models import (  # noqa: F401
    make_spec,
    sample_dataset,
    sample_wishart,
    statistics_from_wishart,
)
from .rlct import (
    SlopeFit,
    analytic_rlct,
    estimate_rlct_from_slope,
    fit_log_n_slope,
    log_n_slopes,
    predicted_bic_error_slope,
)

STUDIES = ("rank_sweep", "regular_vs_singular", "dict_compare", "estimate_rlct")

# the EvidenceRecord fields a RecordRow carries
_SCORE_COLUMNS = [
    "log_z_exact", "log_lik_mle", "log_z_bic", "log_z_rlct", "delta_bic", "delta_rlct",
]

# where delta_bic and delta_rlct sit among them
_DELTA_COLUMNS = [_SCORE_COLUMNS.index("delta_bic"), _SCORE_COLUMNS.index("delta_rlct")]

RECORD_COLUMNS = ["study", "rank", "d", "p", "seed", "n", *_SCORE_COLUMNS]

SLOPE_COLUMNS = [
    "rank", "slope_delta_bic", "stderr_bic", "slope_delta_rlct", "stderr_rlct",
    "lambda_hat", "lambda_analytic", "n_seeds", "n_points",
]

PER_SEED_SLOPE_COLUMNS = ["rank", "seed", "slope_delta_bic", "slope_delta_rlct"]

DICT_TABLE_QUANTITIES = [
    "exact_minimal", "exact_overcomplete",
    "bic_minimal", "bic_overcomplete",
    "rlct_minimal", "rlct_overcomplete",
]

# the first four come from the config, the rest are DictionaryComparison fields
DICT_RECORD_COLUMNS = [
    "study", "rank", "d", "p", "seed", "n",
    "exact_minimal", "exact_overcomplete", "fit_minimal", "fit_overcomplete",
    "bic_minimal", "bic_overcomplete", "rlct_minimal", "rlct_overcomplete",
    "bic_overcomplete_ml", "rlct_overcomplete_ml",
]


class ConfigError(ValueError):
    """The experiment configuration is invalid."""


def _default_n_grid() -> list[int]:
    return [50 * 2**k for k in range(9)]


@dataclass
class ExperimentConfig:
    """Everything a study run depends on; all fields are overridable."""

    study: str = "rank_sweep"
    d: int = 6
    p: int = 6
    ranks: list[int] = field(default_factory=lambda: [1, 2, 3, 4, 5, 6])
    sigma2: float = 1.0
    tau2: float = 1.0
    n_grid: list[int] = field(default_factory=_default_n_grid)
    seeds: list[int] = field(default_factory=lambda: list(range(20)))
    output_dir: str = "results"

    def validate(self) -> None:
        if self.study not in STUDIES:
            raise ConfigError(f"unknown study {self.study!r}; choose from {STUDIES}")
        if self.d < 1 or self.p < 1:
            raise ConfigError(f"dimensions must be positive, got d={self.d}, p={self.p}")
        for name in ("sigma2", "tau2"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value) or value <= 0):
                raise ConfigError(f"{name} must be a finite positive number, got {value!r}")
        if not self.ranks:
            raise ConfigError("need at least one rank")
        if len(set(self.ranks)) != len(self.ranks):
            raise ConfigError(f"ranks must not repeat, got {self.ranks}")
        bound = min(self.p, self.d)
        for r in self.ranks:
            if not 0 < r <= bound:
                raise ConfigError(f"rank {r} outside (0, min(p, d)={bound}]")
        if len(self.n_grid) < 2:
            raise ConfigError("n_grid needs at least 2 points for slope fitting")
        if any(n < 2 for n in self.n_grid):
            raise ConfigError("all grid sample sizes must be >= 2")
        if any(n >= STREAM_INDEX_LIMIT for n in self.n_grid):
            raise ConfigError(
                f"grid sample sizes must be below 2**32 (one random stream per size), "
                f"got {max(self.n_grid)}"
            )
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ConfigError("n_grid must be strictly increasing")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if any(not 0 <= s < SEED_LIMIT for s in self.seeds):
            raise ConfigError("seeds must lie in [0, 2**64)")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must not repeat, got {self.seeds}")
        if self.study == "regular_vs_singular":
            if len(self.ranks) != 2 or self.d not in self.ranks:
                raise ConfigError(
                    "regular_vs_singular needs exactly two ranks, one equal to d"
                )
        if self.study == "dict_compare":
            if len(self.ranks) != 1:
                raise ConfigError("dict_compare uses a single span dimension in ranks")
            if self.d <= self.ranks[0]:
                raise ConfigError(
                    "dict_compare needs overcomplete column count d greater "
                    f"than the span dimension {self.ranks[0]}"
                )

    @classmethod
    def default_for(cls, study: str) -> "ExperimentConfig":
        """Study-appropriate defaults (dictionary runs observe in 8 dimensions)."""
        if study == "regular_vs_singular":
            return cls(study=study, ranks=[4, 6])
        if study == "dict_compare":
            return cls(study=study, p=8, d=6, ranks=[3])
        if study in ("rank_sweep", "estimate_rlct"):
            return cls(study=study)
        raise ConfigError(f"unknown study {study!r}; choose from {STUDIES}")

    @classmethod
    def from_dict(cls, mapping: dict) -> "ExperimentConfig":
        """Study defaults overlaid with ``mapping``, each value coerced to
        its field's type."""
        unknown = set(mapping) - set(FIELD_TYPES)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values = {key: _coerce_field(key, value) for key, value in mapping.items()}
        base = values.get("study")
        return replace(cls.default_for(base) if base else cls(), **values)

    def to_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        """Hash of the computation identity (output location excluded)."""
        payload = {k: v for k, v in self.to_dict().items() if k != "output_dir"}
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


# field name -> type (int, float, str or list[int]); the one table of field types
FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def _as_int(value) -> int:
    """An int, integral float or integer string as int; bools and fractions rejected."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("expected an integer")
    return int(value)


def _as_float(value) -> float:
    """A number or numeric string as a finite float; bools, nan and inf rejected."""
    if isinstance(value, bool):
        raise ValueError("expected a number")
    out = float(value)
    if not math.isfinite(out):
        raise ValueError("expected a finite number")
    return out


def _coerce_field(key: str, value):
    kind = FIELD_TYPES[key]
    try:
        if kind == list[int]:
            if not isinstance(value, (list, tuple)):
                raise TypeError("expected a list")
            return [_as_int(v) for v in value]
        if kind is float:
            return _as_float(value)
        return _as_int(value) if kind is int else kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for config field {key!r}: {value!r} ({exc})")


@dataclass(frozen=True)
class RecordRow:
    """One persisted (rank, seed, n) evidence cell."""

    study: str
    rank: int
    d: int
    p: int
    seed: int
    n: int
    log_z_exact: float
    log_lik_mle: float
    log_z_bic: float
    log_z_rlct: float
    delta_bic: float
    delta_rlct: float


@dataclass(frozen=True)
class CellFailure:
    rank: int
    seed: int
    n: int
    message: str


@dataclass(frozen=True)
class RankSummary:
    """Aggregated slopes and effective-dimension estimate for one rank."""

    rank: int
    fit_delta_bic: SlopeFit
    fit_delta_rlct: SlopeFit
    lambda_hat: float
    lambda_analytic: float
    n_seeds: int
    n_points: int


@dataclass
class StudyResult:
    study: str
    config: ExperimentConfig
    records: list[RecordRow] = field(default_factory=list)
    failures: list[CellFailure] = field(default_factory=list)
    rank_summaries: list[RankSummary] = field(default_factory=list)
    # rank -> [(seed, slope_delta_bic, slope_delta_rlct)] for dispersion plots
    per_seed_slopes: dict[int, list[tuple[int, float, float]]] = field(default_factory=dict)
    # dictionary-study payload (None for regression studies)
    dict_rows: list[DictionaryComparison] | None = None
    dict_table: dict[str, float] | None = None
    dict_table_n: int | None = None
    dict_gap_slopes: dict[str, SlopeFit] | None = None
    spectra: tuple[np.ndarray, np.ndarray] | None = None
    metadata: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Regression studies
# ---------------------------------------------------------------------------

def _regression_cells(cfg: ExperimentConfig) -> tuple[list[RecordRow], list[CellFailure], dict]:
    """Records and failures of every (rank, seed, n) cell, and per rank the
    log-n slopes of ``delta_bic`` and ``delta_rlct`` of each seed none of
    whose cells failed.

    Each seed's Wishart draws are made once and shared by every rank; each
    rank's cells go through one :func:`evidence_batch`.
    """
    records: list[RecordRow] = []
    failures: list[CellFailure] = []
    per_seed: dict[int, list[tuple[int, float, float]]] = {}
    draws = [sample_wishart(seed, cfg.n_grid, cfg.p + 1) for seed in cfg.seeds]
    cells = [(seed, n) for seed in cfg.seeds for n in cfg.n_grid]
    ns = np.array([n for _, n in cells])
    for rank in cfg.ranks:
        specs = [make_spec(cfg.p, cfg.d, rank, cfg.sigma2, cfg.tau2, seed=s) for s in cfg.seeds]
        S, b, yy = (np.concatenate(parts) for parts in zip(
            *(statistics_from_wishart(spec, W) for spec, W in zip(specs, draws))
        ))
        table = np.full((len(cells), len(_SCORE_COLUMNS)), np.nan)
        message = "non-finite value in evidence record"
        try:
            out = evidence_batch(ns, S, b, yy, cfg.sigma2, cfg.tau2, analytic_rlct(rank))
            table[:] = np.column_stack([out[key] for key in _SCORE_COLUMNS])
        except np.linalg.LinAlgError as exc:
            message = str(exc)
        finite = np.isfinite(table).all(axis=1)
        for (seed, n), scores, ok in zip(cells, table.tolist(), finite.tolist()):
            if ok:
                records.append(RecordRow(cfg.study, rank, cfg.d, cfg.p, seed, n, *scores))
            else:
                failures.append(CellFailure(rank=rank, seed=seed, n=n, message=message))
        shape = (len(cfg.seeds), len(cfg.n_grid))
        complete = finite.reshape(shape).all(axis=1)
        deltas = table[:, _DELTA_COLUMNS].T.reshape(2, *shape)[:, complete]
        slopes = log_n_slopes(cfg.n_grid, deltas).T.tolist()
        seeds = [seed for seed, ok in zip(cfg.seeds, complete) if ok]
        per_seed[rank] = [(seed, sb, sr) for seed, (sb, sr) in zip(seeds, slopes)]
    return records, failures, per_seed


def mean_by_n(rows, *extractors) -> tuple[list[int], list[list[float]]]:
    """The sample sizes present in ``rows`` in increasing order, and for each
    extractor the mean of its values over the rows at each of those sizes."""
    by_n: dict[int, list] = {}
    for row in rows:
        by_n.setdefault(row.n, []).append(row)
    ns = sorted(by_n)
    return ns, [[float(np.mean([f(row) for row in by_n[n]])) for n in ns] for f in extractors]


def aggregate_rank_summaries(
    records: list[RecordRow], ranks: list[int]
) -> list[RankSummary]:
    """Seed-average the error terms per n, then fit log-n slopes per rank.

    Averaging before slope fitting is the aggregation the studies report;
    per-seed slopes are tracked separately for dispersion diagnostics.
    """
    summaries = []
    for rank in ranks:
        rows = [rec for rec in records if rec.rank == rank]
        if not rows:
            raise NumericalError(f"no surviving cells for rank {rank}")
        ns, (dbic, drlct, centered) = mean_by_n(
            rows,
            lambda r: r.delta_bic,
            lambda r: r.delta_rlct,
            lambda r: r.log_z_exact - r.log_lik_mle,
        )
        if len(ns) < 2:
            raise NumericalError(
                f"rank {rank} has fewer than 2 usable grid points after failures"
            )
        summaries.append(RankSummary(
            rank=rank,
            fit_delta_bic=fit_log_n_slope(zip(ns, dbic)),
            fit_delta_rlct=fit_log_n_slope(zip(ns, drlct)),
            lambda_hat=estimate_rlct_from_slope(zip(ns, centered)),
            lambda_analytic=analytic_rlct(rank),
            n_seeds=len({r.seed for r in rows}),
            n_points=len(ns),
        ))
    return summaries


def _regression_study(cfg: ExperimentConfig) -> StudyResult:
    """Evidence records and error slopes for every configured rank."""
    records, failures, per_seed = _regression_cells(cfg)
    return StudyResult(
        study=cfg.study,
        config=cfg,
        records=records,
        failures=failures,
        rank_summaries=aggregate_rank_summaries(records, cfg.ranks),
        per_seed_slopes=per_seed,
    )


# ---------------------------------------------------------------------------
# Dictionary study
# ---------------------------------------------------------------------------

_DICT_TABLE_TARGET_N = 200


def _dict_study(cfg: ExperimentConfig) -> StudyResult:
    """Minimal vs overcomplete dictionary scores over seeds and sample sizes,
    one :func:`comparison_batch` per seed; an error it raises fails the seed."""
    r = cfg.ranks[0]
    rows: list[DictionaryComparison] = []
    failures: list[CellFailure] = []
    spectra = None
    for seed in cfg.seeds:
        pair = make_dictionary_pair(cfg.p, r, cfg.d, seed, tau2=cfg.tau2, sigma2=cfg.sigma2)
        if spectra is None:
            spectra = (gram_spectrum(pair[0]), gram_spectrum(pair[1]))
        try:
            table = np.column_stack(list(comparison_batch(pair, cfg.n_grid, seed).values()))
        except (NumericalError, np.linalg.LinAlgError) as exc:
            failures += [CellFailure(rank=r, seed=seed, n=n, message=str(exc)) for n in cfg.n_grid]
            continue
        finite = np.isfinite(table[:, :4]).all(axis=1)   # the exact and fit columns
        for n, scores, ok in zip(cfg.n_grid, table.tolist(), finite):
            if ok:
                rows.append(DictionaryComparison(n, seed, *scores))
            else:
                failures.append(CellFailure(
                    r, seed, n, "non-finite value in dictionary comparison"))

    table_n = min(cfg.n_grid, key=lambda n: abs(n - _DICT_TABLE_TARGET_N))
    # None when the table's cell (first seed, table_n) failed
    first = next((row for row in rows if (row.seed, row.n) == (cfg.seeds[0], table_n)), None)
    return StudyResult(
        study=cfg.study,
        config=cfg,
        failures=failures,
        dict_rows=rows,
        dict_table=first and {key: getattr(first, key) for key in DICT_TABLE_QUANTITIES},
        dict_table_n=table_n,
        dict_gap_slopes=_dict_gap_slopes(rows),
        spectra=spectra,
    )


def _dict_gap_slopes(rows: list[DictionaryComparison]) -> dict[str, SlopeFit]:
    """Log-n slopes of the seed-averaged minimal-minus-overcomplete gaps.

    ``bic_gap`` uses the common-fit scores (the non-invariance diagnostic:
    the gap is purely the penalty difference); ``bic_gap_ml`` lets each shape
    use its own ML fit; ``fit_gap`` tracks how far apart those fits are.
    """
    gaps = {
        "exact_gap": lambda c: c.exact_minimal - c.exact_overcomplete,
        "bic_gap": lambda c: c.bic_minimal - c.bic_overcomplete,
        "bic_gap_ml": lambda c: c.bic_minimal - c.bic_overcomplete_ml,
        "fit_gap": lambda c: c.fit_minimal - c.fit_overcomplete,
    }
    ns, means = mean_by_n(rows, *gaps.values())
    if len(ns) < 2:
        raise NumericalError("dictionary study has fewer than 2 usable grid points")
    return {name: fit_log_n_slope(zip(ns, mean)) for name, mean in zip(gaps, means)}


# ---------------------------------------------------------------------------
# Summaries and persistence
# ---------------------------------------------------------------------------

def _metadata(cfg: ExperimentConfig, started: float, n_records: int, n_failures: int) -> dict:
    from . import __version__

    return {
        "study": cfg.study,
        "config_hash": cfg.config_hash(),
        "code_version": __version__,
        "started_at": started,
        "finished_at": time.time(),
        "n_records": n_records,
        "n_failures": n_failures,
    }


def summarize(result: StudyResult) -> str:
    """Deterministic text summary with measured and predicted slopes."""
    cfg = result.config
    lines = [
        f"study: {result.study}",
        f"config: d={cfg.d} p={cfg.p} sigma2={cfg.sigma2!r} tau2={cfg.tau2!r} "
        f"n_grid={cfg.n_grid[0]}..{cfg.n_grid[-1]} ({len(cfg.n_grid)} points) "
        f"seeds={len(cfg.seeds)} hash={cfg.config_hash()}",
    ]
    if result.rank_summaries:
        lines.append(
            f"{'rank':>4}  {'slope_dBIC':>10}  {'pred':>6}  {'slope_dRLCT':>11}  "
            f"{'pred':>5}  {'lambda_hat':>10}  {'lambda':>6}"
        )
        for s in sorted(result.rank_summaries, key=lambda s: s.rank):
            pred = predicted_bic_error_slope(cfg.d, s.rank)
            lines.append(
                f"{s.rank:>4}  {s.fit_delta_bic.slope:>10.4f}  {pred:>6.2f}  "
                f"{s.fit_delta_rlct.slope:>11.4f}  {0.0:>5.2f}  "
                f"{s.lambda_hat:>10.4f}  {s.lambda_analytic:>6.2f}"
            )
    if result.dict_table is not None:
        lines.append(f"comparison at n={result.dict_table_n} (first seed):")
        for key in DICT_TABLE_QUANTITIES:
            lines.append(f"  {key:<22} {result.dict_table[key]:.2f}")
    elif result.dict_rows is not None:
        lines.append(f"comparison at n={result.dict_table_n} (first seed): cell failed, no table")
    if result.dict_gap_slopes is not None:
        gaps = result.dict_gap_slopes
        over_minus_min = (cfg.d - cfg.ranks[0]) / 2.0
        lines.append(
            "gap slopes vs log n: "
            f"exact={gaps['exact_gap'].slope:.4f} (pred 0.00), "
            f"bic={gaps['bic_gap'].slope:.4f} (pred {over_minus_min:+.2f}), "
            f"bic_ml={gaps['bic_gap_ml'].slope:.4f}, "
            f"fit={gaps['fit_gap'].slope:.4f} (pred 0.00)"
        )
    if result.failures:
        lines.append(f"failed cells: {len(result.failures)}")
        for f in sorted(result.failures, key=lambda f: (f.rank, f.seed, f.n)):
            lines.append(f"  rank={f.rank} seed={f.seed} n={f.n}: {f.message}")
    return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats, plain text otherwise."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_atomic(path: Path, text: str) -> None:
    """Write via a temp file and rename, so interrupted runs leave no partials."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(columns: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def records_csv_text(records: list[RecordRow]) -> str:
    rows = [[getattr(rec, key) for key in RECORD_COLUMNS] for rec in records]
    return _csv_text(RECORD_COLUMNS, rows)


def slopes_csv_text(summaries: list[RankSummary]) -> str:
    rows = [
        [s.rank, s.fit_delta_bic.slope, s.fit_delta_bic.stderr_slope,
         s.fit_delta_rlct.slope, s.fit_delta_rlct.stderr_slope,
         s.lambda_hat, s.lambda_analytic, s.n_seeds, s.n_points]
        for s in sorted(summaries, key=lambda s: s.rank)
    ]
    return _csv_text(SLOPE_COLUMNS, rows)


def per_seed_slopes_csv_text(per_seed: dict[int, list[tuple[int, float, float]]]) -> str:
    rows = [
        [rank, seed, slope_bic, slope_rlct]
        for rank in sorted(per_seed)
        for seed, slope_bic, slope_rlct in per_seed[rank]
    ]
    return _csv_text(PER_SEED_SLOPE_COLUMNS, rows)


def dict_records_csv_text(result: StudyResult) -> str:
    cfg = result.config
    rows = [
        [cfg.study, cfg.ranks[0], cfg.d, cfg.p]
        + [getattr(c, key) for key in DICT_RECORD_COLUMNS[4:]]
        for c in result.dict_rows or []
    ]
    return _csv_text(DICT_RECORD_COLUMNS, rows)


def dict_table_csv_text(table: dict[str, float]) -> str:
    rows = [[key, table[key]] for key in DICT_TABLE_QUANTITIES]
    return _csv_text(["quantity", "value"], rows)


def read_records_csv(path: Path) -> list[RecordRow]:
    """Load persisted evidence records for offline re-analysis."""
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        out = []
        for row in reader:
            out.append(RecordRow(
                study=row["study"], rank=int(row["rank"]), d=int(row["d"]),
                p=int(row["p"]), seed=int(row["seed"]), n=int(row["n"]),
                log_z_exact=float(row["log_z_exact"]),
                log_lik_mle=float(row["log_lik_mle"]),
                log_z_bic=float(row["log_z_bic"]),
                log_z_rlct=float(row["log_z_rlct"]),
                delta_bic=float(row["delta_bic"]),
                delta_rlct=float(row["delta_rlct"]),
            ))
    return out


def write_study_outputs(result: StudyResult, out_dir: str | Path) -> list[Path]:
    """Persist raw records, the slope/table summary CSV, the text summary,
    and the timestamp sidecar.  Returns the written paths."""
    if result.dict_rows is not None:
        files = {"dict_records.csv": dict_records_csv_text(result)}
        if result.dict_table is not None:
            files["dict_compare.csv"] = dict_table_csv_text(result.dict_table)
    else:
        files = {
            "evidence_records.csv": records_csv_text(result.records),
            "slopes.csv": slopes_csv_text(result.rank_summaries),
            "per_seed_slopes.csv": per_seed_slopes_csv_text(result.per_seed_slopes),
        }
    files["summary.txt"] = summarize(result)
    files["run_meta.json"] = json.dumps(result.metadata, indent=2) + "\n"
    out = Path(out_dir)
    for name, text in files.items():
        write_atomic(out / name, text)
    return [out / name for name in files]


def run_study(cfg: ExperimentConfig) -> StudyResult:
    """Validate ``cfg`` and run its study: the dictionary comparison for
    ``dict_compare``, the per-rank regression cells and slopes otherwise."""
    cfg.validate()
    started = time.time()
    if cfg.study == "dict_compare":
        result = _dict_study(cfg)
        n_rows = len(result.dict_rows)
    else:
        result = _regression_study(cfg)
        n_rows = len(result.records)
    result.metadata = _metadata(cfg, started, n_rows, len(result.failures))
    return result
