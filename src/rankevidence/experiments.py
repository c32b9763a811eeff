"""Study orchestration: seed ensembles over sample-size grids, aggregation,
and CSV persistence.

Two studies are built in.  ``rank_sweep`` varies the intrinsic rank at
fixed ambient dimension, fits the log-n slopes of the BIC and corrected
approximation errors and reports the slope-based effective-dimension
estimates; the regular-vs-singular contrast is two of its ranks, d and one
below it.  ``dict_compare`` scores a minimal and an overcomplete dictionary
for the same subspace on shared data.  :func:`run_study` runs either.

A study keeps its cells in one columnar :class:`CellTable`, filled once from
the batch and read by the record CSV and the aggregation, which groups each
(study, rank) once (:func:`seed_grid`) and keeps the curves the figures
draw; :func:`read_cell_table` reads either record CSV back.  An aborted
aggregation still leaves the raw records to persist, floats are joined in as
shortest round-trip decimals (:func:`table_text`), and timestamps live in a
sidecar file, so identical configs produce byte-identical raw CSVs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
import typing
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from ._linalg import NumericalError
from ._rng import SEED_LIMIT, STREAM_INDEX_LIMIT, wishart_roots
from .dictionary import (
    DictionaryComparison,
    comparison_batch,
    gram_spectrum,
    make_dictionary_pair,
)
from .evidence import EvidenceRecord, root_evidence_batch
# sample_dataset is not called here; it stays bound in this module because
# perfbench/test_checks.py checks the tracer's rebinding on this very global.
from .linear_models import (  # noqa: F401
    draw_theta,
    rank_r_factors,
    sample_dataset,
    wishart_rows,
)
from .rlct import (
    SlopeFit,
    analytic_rlct,
    fit_log_n_slope,
    log_n_slopes,
    predicted_bic_error_slope,
)

STUDIES = ("rank_sweep", "dict_compare")

# the columns that identify a cell in both record files
KEY_COLUMNS = ["study", "rank", "d", "p", "seed", "n"]

# each record file's score columns: the fields of its model's one-cell record
# that are not key columns (so not EvidenceRecord's kept rank)
_SCORE_COLUMNS, _DICT_SCORE_COLUMNS = (
    [f.name for f in fields(record) if f.name not in KEY_COLUMNS]
    for record in (EvidenceRecord, DictionaryComparison)
)

RECORD_COLUMNS = [*KEY_COLUMNS, *_SCORE_COLUMNS]

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

DICT_RECORD_COLUMNS = [*KEY_COLUMNS, *_DICT_SCORE_COLUMNS]


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
        """Coerce every field to its type in place (:func:`_coerce_field`),
        then check the ranges; every config a study runs passes here."""
        for key in FIELD_TYPES:
            setattr(self, key, _coerce_field(key, getattr(self, key)))
        if self.study not in STUDIES:
            raise ConfigError(f"unknown study {self.study!r}; choose from {STUDIES}")
        if self.d < 1 or self.p < 1:
            raise ConfigError(f"dimensions must be positive, got d={self.d}, p={self.p}")
        for name in ("sigma2", "tau2"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)!r}")
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
        """Study defaults (dictionary runs observe in 8 dimensions); validate() checks the name."""
        if study == "dict_compare":
            return cls(study=study, p=8, d=6, ranks=[3])
        return cls(study=study)

    @classmethod
    def from_dict(cls, mapping: dict) -> "ExperimentConfig":
        """Study defaults overlaid with ``mapping``, validated."""
        unknown = set(mapping) - set(FIELD_TYPES)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = replace(cls.default_for(mapping.get("study", cls.study)), **mapping)
        cfg.validate()
        return cfg

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
    if isinstance(value, (bool, np.bool_)) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("expected an integer")
    return int(value)


def _as_float(value) -> float:
    """A number or numeric string as a finite float; bools, nan and inf rejected."""
    if isinstance(value, (bool, np.bool_)):
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
        if kind is str and not isinstance(value, (str, os.PathLike)):
            raise TypeError("expected a string or path")
        return {int: _as_int, float: _as_float, str: os.fspath}[kind](value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for config field {key!r}: {value!r} ({exc})")


@dataclass(frozen=True, eq=False)
class CellTable:
    """A study's surviving cells as columns, in record-file order: int
    arrays ``rank``, ``seed`` and ``n``, and a float array ``scores`` with one
    row per cell and one column per name of ``score_columns``.  ``study``,
    ``d`` and ``p`` are shared by every cell; a failed cell has no row."""

    study: str
    d: int
    p: int
    rank: np.ndarray
    seed: np.ndarray
    n: np.ndarray
    score_columns: list[str]
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.n)

    def score(self, name: str) -> np.ndarray:
        return self.scores[:, self.score_columns.index(name)]


def _cell_table(cfg: ExperimentConfig, ranks: list[int], scores: np.ndarray,
                columns: list[str], messages: list) -> tuple[CellTable, list[CellFailure]]:
    """The finite cells of ``scores`` (rank, seed, n, score) over ``ranks``,
    ``cfg.seeds`` and ``cfg.n_grid``, and a failure for each other cell with
    the message of its (rank, seed) batch; a failed cell's scores are NaN."""
    finite = np.isfinite(scores).all(axis=-1)
    failures = [
        CellFailure(rank, seed, n, message)
        for rank, rank_ok, rank_messages in zip(ranks, finite.tolist(), messages)
        for seed, seed_ok, message in zip(cfg.seeds, rank_ok, rank_messages)
        for n, ok in zip(cfg.n_grid, seed_ok) if not ok
    ]
    ok = finite.ravel()
    n_seeds, n_sizes = len(cfg.seeds), len(cfg.n_grid)
    return CellTable(
        cfg.study, cfg.d, cfg.p,
        rank=np.repeat(np.array(ranks, dtype=int), n_seeds * n_sizes)[ok],
        seed=np.tile(np.repeat(np.array(cfg.seeds, dtype=np.uint64), n_sizes), len(ranks))[ok],
        n=np.tile(np.array(cfg.n_grid, dtype=int), len(ranks) * n_seeds)[ok],
        score_columns=columns,
        scores=scores.reshape(ok.size, -1)[ok],
    ), failures


def seed_grid(table: CellTable, columns: dict[str, np.ndarray], rank: int) -> tuple[dict, ...]:
    """The group step of one rank: its curve (the sizes at which it has a
    cell, increasing, as ``n``, and the seed mean of each of ``columns``,
    one value per cell); its seeds, by first appearance; the columns laid
    out (columns, sizes, seeds), zero where a cell is missing; and the mask
    of present cells.  A mean sums the contiguous seed axis (``np.mean``'s
    bits on a complete grid) and divides by the count.  A rank with cells at
    fewer than 2 sizes has no slope: :class:`NumericalError`."""
    rows = table.rank == rank
    n, seed = table.n[rows], table.seed[rows]
    ns = sorted(set(n.tolist()))   # not np.unique: it loads numpy.ma
    n_at = np.searchsorted(ns, n)
    seeds = np.array(list(dict.fromkeys(seed.tolist())), dtype=seed.dtype)
    order = np.argsort(seeds)
    seed_at = order[np.searchsorted(seeds, seed, sorter=order)]
    present = np.zeros((len(ns), len(seeds)), dtype=bool)
    present[n_at, seed_at] = True
    if np.count_nonzero(present) != len(n_at):
        raise ValueError(f"rank {rank} has a (seed, n) cell more than once")
    if len(ns) < 2:
        raise NumericalError(f"rank {rank} has surviving cells at fewer than 2 sizes")
    grid = np.zeros((len(columns), *present.shape))
    grid[:, n_at, seed_at] = [column[rows] for column in columns.values()]
    means = grid.sum(axis=-1) / present.sum(axis=-1)
    return {"n": ns, **dict(zip(columns, means.tolist()))}, seeds, grid, present


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
    n_seeds: int
    # the fitted seed-mean curves: columns n, delta_bic and delta_rlct
    curve: dict[str, list]


@dataclass
class StudyResult:
    config: ExperimentConfig
    cells: CellTable
    failures: list[CellFailure] = field(default_factory=list)
    rank_summaries: list[RankSummary] = field(default_factory=list)
    # (rank, seed, slope_delta_bic, slope_delta_rlct) rows for dispersion plots
    per_seed_slopes: list[tuple[int, int, float, float]] = field(default_factory=list)
    # dictionary-study payload (None for regression studies)
    dict_table: dict[str, float] | None = None
    dict_table_n: int | None = None
    dict_gap_slopes: dict[str, SlopeFit] | None = None
    dict_gap_curve: dict[str, list] | None = None
    spectra: tuple[np.ndarray, np.ndarray] | None = None
    metadata: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Regression studies
# ---------------------------------------------------------------------------

def _regression_study(cfg: ExperimentConfig) -> StudyResult:
    """Every (rank, seed, n) cell and its failures.  Each seed's Wishart
    roots ``Z`` (:func:`wishart_roots`), ``theta_star`` and factor draw
    (:func:`rank_r_factors`) serve every rank; a rank scores its cells in
    the r identifiable coordinates of its factors' SVD, which also checked
    their rank, with one :func:`root_evidence_batch` of its (seed, n) stack."""
    scores = np.full((len(cfg.ranks), len(cfg.seeds), len(cfg.n_grid), len(_SCORE_COLUMNS)), np.nan)
    messages = []
    q = cfg.p + 1
    Z = np.stack([wishart_roots(seed, "wishart", cfg.n_grid, q) for seed in cfg.seeds])
    theta = np.stack([draw_theta(cfg.d, cfg.tau2, seed) for seed in cfg.seeds])[:, None]
    n = np.array(cfg.n_grid)
    factors = rank_r_factors(cfg.p, cfg.d, cfg.ranks, cfg.seeds)
    for rank, table, (B, U, s) in zip(cfg.ranks, scores, factors):
        X, y = wishart_rows(B[:, None], theta, cfg.sigma2, Z)
        # the design in the coordinates Q_r^T theta of B = (U_r diag(s_r)) Q_r^T
        A = X @ (U[..., :rank] * s[..., None, :rank])[:, None]
        message = "non-finite value in evidence record"
        try:
            out = root_evidence_batch(n, A, y, cfg.d, cfg.sigma2, cfg.tau2, analytic_rlct(rank))
            table[:] = np.stack([out[key] for key in _SCORE_COLUMNS], axis=-1)
        except np.linalg.LinAlgError as exc:
            message = str(exc)
        messages.append([message] * len(cfg.seeds))
    cells, failures = _cell_table(cfg, cfg.ranks, scores, _SCORE_COLUMNS, messages)
    return StudyResult(cfg, cells, failures)


def aggregate_rank_summaries(table: CellTable, ranks: list[int]) -> tuple[list[RankSummary], list]:
    """The summary of each rank, in increasing rank, and the per-seed slope
    rows ``(rank, seed, slope_delta_bic, slope_delta_rlct)``, from one
    :func:`seed_grid` step per rank.

    A summary fits the log-n slopes of the seed-mean error curves, which it
    keeps.  ``lambda_hat``, the slope of the centered term, is read as
    ``lambda + slope(delta_rlct)``: ``delta_rlct`` is that term minus
    ``lambda log n``, while ``log_z_exact - log_lik_mle`` subtracts O(n)
    numbers.  A seed gets per-seed slopes when it has a cell at every size
    of its rank's curve.
    """
    columns = {name: table.score(name) for name in ("delta_bic", "delta_rlct")}
    summaries, per_seed = [], []
    for rank in sorted(ranks):
        curve, seeds, grid, present = seed_grid(table, columns, rank)
        ns = curve["n"]
        fit_delta_rlct = fit_log_n_slope(zip(ns, curve["delta_rlct"]))
        summaries.append(RankSummary(
            rank=rank,
            fit_delta_bic=fit_log_n_slope(zip(ns, curve["delta_bic"])),
            fit_delta_rlct=fit_delta_rlct,
            lambda_hat=analytic_rlct(rank) + fit_delta_rlct.slope,
            n_seeds=len(seeds),
            curve=curve,
        ))
        complete = present.all(axis=0)
        # a contiguous copy: log_n_slopes rounds a strided reduction differently
        slopes = log_n_slopes(ns, np.ascontiguousarray(grid[:, :, complete].swapaxes(1, 2)))
        per_seed += zip([rank] * len(slopes[0]), seeds[complete].tolist(), *slopes.tolist())
    return summaries, per_seed


# ---------------------------------------------------------------------------
# Dictionary study
# ---------------------------------------------------------------------------

_DICT_TABLE_TARGET_N = 200


def _dict_study(cfg: ExperimentConfig) -> StudyResult:
    """Minimal vs overcomplete dictionary scores over seeds and sample sizes,
    one :func:`comparison_batch` per seed (an error it raises fails the
    seed), and the Gram spectra of the first seed's pair."""
    r = cfg.ranks[0]
    scores = np.full((len(cfg.seeds), len(cfg.n_grid), len(_DICT_SCORE_COLUMNS)), np.nan)
    messages = []
    spectra = None
    for seed, table in zip(cfg.seeds, scores):
        pair = make_dictionary_pair(cfg.p, r, cfg.d, seed, tau2=cfg.tau2, sigma2=cfg.sigma2)
        if spectra is None:
            spectra = (gram_spectrum(pair[0]), gram_spectrum(pair[1]))
        try:
            out = comparison_batch(pair, cfg.n_grid, seed)
            table[:] = np.column_stack([out[key] for key in _DICT_SCORE_COLUMNS])
            messages.append("non-finite value in dictionary comparison")
        except (NumericalError, np.linalg.LinAlgError) as exc:
            messages.append(str(exc))
    cells, failures = _cell_table(cfg, [r], scores[None], _DICT_SCORE_COLUMNS, [messages])
    return StudyResult(cfg, cells, failures, spectra=spectra)


def aggregate_dict_comparison(table: CellTable, cfg: ExperimentConfig) -> tuple:
    """The comparison table's n (the grid size nearest 200) and row (the
    first seed's cell there, None when it failed); the log-n slopes of the
    seed-averaged minimal-minus-overcomplete gaps; and their curve, columns
    ``n`` and each gap's seed mean, from one :func:`seed_grid` step.

    ``bic_gap`` uses the common-fit scores (the non-invariance diagnostic:
    the gap is purely the penalty difference); ``bic_gap_ml`` lets each shape
    use its own ML fit; ``fit_gap`` tracks how far apart those fits are.
    """
    col = table.score
    gaps = {
        "exact_gap": col("exact_minimal") - col("exact_overcomplete"),
        "bic_gap": col("bic_minimal") - col("bic_overcomplete"),
        "bic_gap_ml": col("bic_minimal") - col("bic_overcomplete_ml"),
        "fit_gap": col("fit_minimal") - col("fit_overcomplete"),
    }
    curve = seed_grid(table, gaps, cfg.ranks[0])[0]
    slopes = {name: fit_log_n_slope(zip(curve["n"], curve[name])) for name in gaps}
    table_n = min(cfg.n_grid, key=lambda n: abs(n - _DICT_TABLE_TARGET_N))
    at = (table.seed == cfg.seeds[0]) & (table.n == table_n)   # no row when that cell failed
    row = {key: col(key)[at].item() for key in DICT_TABLE_QUANTITIES} if at.any() else None
    return table_n, row, slopes, curve


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
        f"study: {cfg.study}",
        f"config: d={cfg.d} p={cfg.p} sigma2={cfg.sigma2!r} tau2={cfg.tau2!r} "
        f"n_grid={cfg.n_grid[0]}..{cfg.n_grid[-1]} ({len(cfg.n_grid)} points) "
        f"seeds={len(cfg.seeds)} hash={cfg.config_hash()}",
    ]
    if result.rank_summaries:
        lines.append(
            f"{'rank':>4}  {'slope_dBIC':>10}  {'pred':>6}  {'slope_dRLCT':>11}  "
            f"{'pred':>5}  {'lambda_hat':>10}  {'lambda':>6}"
        )
        for s in result.rank_summaries:
            pred = predicted_bic_error_slope(cfg.d, s.rank)
            lines.append(
                f"{s.rank:>4}  {s.fit_delta_bic.slope:>10.4f}  {pred:>6.2f}  "
                f"{s.fit_delta_rlct.slope:>11.4f}  {0.0:>5.2f}  "
                f"{s.lambda_hat:>10.4f}  {analytic_rlct(s.rank):>6.2f}"
            )
    if result.dict_table is not None:
        lines.append(f"comparison at n={result.dict_table_n} (first seed):")
        for key in DICT_TABLE_QUANTITIES:
            lines.append(f"  {key:<22} {result.dict_table[key]:.2f}")
    elif result.dict_table_n is not None:
        lines.append(f"comparison at n={result.dict_table_n} (first seed): cell failed, no table")
    if result.dict_gap_slopes is not None:
        gaps = result.dict_gap_slopes
        over_minus_min = -predicted_bic_error_slope(cfg.d, cfg.ranks[0])
        lines.append(
            "gap slopes vs log n: "
            f"exact={gaps['exact_gap'].slope:.4f} (pred 0.00), "
            f"bic={gaps['bic_gap'].slope:.4f} (pred {over_minus_min:+.2f}), "
            f"bic_ml={gaps['bic_gap_ml'].slope:.4f}, "
            f"fit={gaps['fit_gap'].slope:.4f} (pred 0.00)"
        )
    return "\n".join(lines + failure_lines(result.failures)) + "\n"


def failure_lines(failures: list[CellFailure]) -> list[str]:
    """``failed cells: k`` and a line per failed cell by (rank, seed, n), if any."""
    failures = sorted(failures, key=lambda f: (f.rank, f.seed, f.n))
    head = [f"failed cells: {len(failures)}"] if failures else []
    return head + [f"  rank={f.rank} seed={f.seed} n={f.n}: {f.message}" for f in failures]


def write_atomic(path: Path, text: str) -> None:
    """Write via a temp file and rename, so interrupted runs leave no
    partials.  The file gets the mode ``open`` gives, 0666 less the umask."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def table_text(header: list[str], columns, delimiter: str = ",") -> str:
    """CSV text of ``columns``, each formatted whole and lazily: ``repr``
    (shortest round trip) over a float array's ``.tolist()``, else ``str``
    per value.  Every field is a number or a fixed name, so none is quoted."""
    texts = (map(repr if c.dtype.kind == "f" else str, c.tolist()) if isinstance(c, np.ndarray)
             else map(str, c) for c in columns)
    rows = map(delimiter.join, zip(*texts))
    return "\n".join([delimiter.join(header), *rows]) + "\n"


def cell_table_csv_text(table: CellTable) -> str:
    """The record CSV of a cell table: the key columns, then the scores."""
    shared = [[value] * len(table) for value in (table.study, table.d, table.p)]
    return table_text(
        [*KEY_COLUMNS, *table.score_columns],
        [shared[0], table.rank, shared[1], shared[2], table.seed, table.n, *table.scores.T],
    )


def slopes_csv_text(summaries: list[RankSummary]) -> str:
    rows = [
        [s.rank, s.fit_delta_bic.slope, s.fit_delta_bic.stderr_slope,
         s.fit_delta_rlct.slope, s.fit_delta_rlct.stderr_slope,
         s.lambda_hat, analytic_rlct(s.rank), s.n_seeds, len(s.curve["n"])]
        for s in summaries
    ]
    return table_text(SLOPE_COLUMNS, zip(*rows))


def read_cell_table(path: str | Path) -> CellTable:
    """Load a record CSV (``evidence_records.csv`` or ``dict_records.csv``)
    for offline re-analysis; its header names the score columns."""
    with open(path, newline="", encoding="utf-8") as handle:
        header, *rows = [*csv.reader(handle)] or [[]]   # an empty file has an empty header
    if header[:len(KEY_COLUMNS)] != KEY_COLUMNS:
        raise ValueError(f"{path}: header must start with {KEY_COLUMNS}, got {header}")
    if not rows or any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path}: need at least one row, each of {len(header)} fields")
    study, rank, d, p, seed, n, *scores = zip(*rows)
    if len(set(zip(study, d, p))) != 1:
        raise ValueError(f"{path}: every row must share one study, d and p")
    try:
        rank, seed, n, (d, p) = ([int(v) for v in col] for col in (rank, seed, n, (d[0], p[0])))
        scores = np.array([[float(v) for v in column] for column in scores]).T
    except ValueError as exc:   # a field that is not a number
        raise ValueError(f"{path}: {exc}") from None
    if not np.isfinite(scores).all():   # a cell with a non-finite score failed: it has no row
        raise ValueError(f"{path}: scores must be finite")
    if not all(0 <= s < SEED_LIMIT for s in seed):
        raise ValueError(f"{path}: seeds must lie in [0, 2**64)")
    return CellTable(
        study[0], d, p, np.array(rank), np.array(seed, dtype=np.uint64), np.array(n),
        score_columns=header[len(KEY_COLUMNS):], scores=scores,
    )


def write_study_outputs(result: StudyResult, out_dir: str | Path) -> list[Path]:
    """Persist raw records, the slope/table summary CSV, the text summary,
    and the timestamp sidecar.  Returns the written paths; an aborted
    aggregation's result has no slope or table CSV."""
    if result.config.study == "dict_compare":
        files = {"dict_records.csv": cell_table_csv_text(result.cells)}
        if result.dict_table is not None:
            files["dict_compare.csv"] = table_text(["quantity", "value"], [
                DICT_TABLE_QUANTITIES, [result.dict_table[k] for k in DICT_TABLE_QUANTITIES]])
    else:
        files = {"evidence_records.csv": cell_table_csv_text(result.cells)}
        if result.rank_summaries:
            files["slopes.csv"] = slopes_csv_text(result.rank_summaries)
            files["per_seed_slopes.csv"] = table_text(
                PER_SEED_SLOPE_COLUMNS, zip(*result.per_seed_slopes))
    files["summary.txt"] = summarize(result)
    files["run_meta.json"] = json.dumps(result.metadata, indent=2) + "\n"
    out = Path(out_dir)
    for name, text in files.items():
        write_atomic(out / name, text)
    return [out / name for name in files]


def run_study(cfg: ExperimentConfig) -> StudyResult:
    """Validate ``cfg`` and run its study: the dictionary comparison for
    ``dict_compare``, the per-rank regression cells and slopes otherwise.
    A :class:`NumericalError` aborting the aggregation carries the cells
    and failures as its ``result``."""
    cfg.validate()
    started = time.time()
    result = (_dict_study if cfg.study == "dict_compare" else _regression_study)(cfg)
    try:
        if cfg.study == "dict_compare":
            (result.dict_table_n, result.dict_table, result.dict_gap_slopes,
             result.dict_gap_curve) = aggregate_dict_comparison(result.cells, cfg)
        else:
            result.rank_summaries, result.per_seed_slopes = aggregate_rank_summaries(
                result.cells, cfg.ranks)
    except NumericalError as exc:
        exc.result = result
        raise
    finally:
        result.metadata = _metadata(cfg, started, len(result.cells), len(result.failures))
    return result
