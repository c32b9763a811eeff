import csv
import io
import math
import os
import stat
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rankevidence._rng as _rng
import rankevidence.cli as cli
import rankevidence.dictionary as dictionary
import rankevidence.experiments as experiments
import rankevidence.linear_models as linear_models
from rankevidence._linalg import NumericalError
from rankevidence._rng import substream, wishart_roots
from rankevidence.evidence import LOG_2PI
from rankevidence.dictionary import make_dictionary_pair, marginal_covariance
from rankevidence.linear_models import make_spec
from rankevidence.rlct import analytic_rlct, fit_log_n_slope, log_n_slopes
from rankevidence.experiments import (
    ConfigError,
    PER_SEED_SLOPE_COLUMNS,
    ExperimentConfig,
    RankSummary,
    aggregate_dict_comparison,
    aggregate_rank_summaries,
    cell_table_csv_text,
    read_cell_table,
    run_study,
    slopes_csv_text,
    summarize,
    table_text,
    write_study_outputs,
)


def wishart_factor(rng, n, q):
    """A factor ``T`` with ``T T^T ~ Wishart_q(n, I)`` from ``rng``, one cell
    at a time: the Bartlett factor for n >= q (chi-square diagonal, then the
    strict lower triangle in row-major order), else ``Z^T`` for an n x q
    normal draw ``Z``.  The reference for :func:`wishart_roots`."""
    if n >= q:
        T = np.diag(np.sqrt(rng.chisquare(n - np.arange(q))))
        T[np.tri(q, k=-1, dtype=bool)] = rng.standard_normal(q * (q - 1) // 2)
        return T
    return rng.standard_normal((n, q)).T


@pytest.mark.parametrize("tag", ["wishart", "dict-wishart"])
def test_wishart_roots_match_per_cell_factors(tag):
    """Each slot of the root stack holds the rows T^T of the cell's own
    :func:`wishart_factor`, bit for bit, above zero rows up to q: for n < q,
    n = q and n > q.  A size below 1 is rejected."""
    q, grid = 7, [1, 2, 6, 7, 8, 50, 12800, 10**9]
    for seed in (0, 5, 2**64 - 1):
        Z = wishart_roots(seed, tag, grid, q)
        assert Z.shape == (len(grid), q, q)
        for Z_n, n in zip(Z, grid):
            T = wishart_factor(substream(seed, tag, n), n, q)
            expected = np.zeros((q, q))
            expected[:T.shape[1]] = T.T
            np.testing.assert_array_equal(Z_n, expected)
    with pytest.raises(ValueError):
        wishart_roots(0, tag, [5, 0], q)


def _per_cell_scores(spec, n, seed, lam) -> list[float]:
    """The six scores of one cell, drawn and evaluated one cell at a time:
    the square-root arithmetic of the batched path, kept here as its
    reference.  The cell's rows are ``Z = T^T``, padded with zero rows to
    p + 1; the design is ``X P_r`` in the r identifiable coordinates, and the
    first min(n, r) singular directions are kept."""
    q, r = spec.p + 1, spec.r
    T = wishart_factor(substream(seed, "wishart", n), n, q)
    Z = np.zeros((q, q))
    Z[:T.shape[1]] = T.T
    X, B = Z[:, :-1], spec.B_star
    y = X @ (B @ spec.theta_star) + math.sqrt(spec.sigma2) * Z[:, -1]
    U_B, s_B, _ = np.linalg.svd(B, full_matrices=False)
    U, sv, _ = np.linalg.svd(X @ (U_B[:, :r] * s_B[:r]), full_matrices=False)
    kept = np.arange(r) < min(n, r)
    g = np.where(kept, U.T @ y, 0.0)
    s = np.where(kept, sv**2, 0.0)
    rss = float(np.sum((y - U @ g) ** 2))

    d, sigma2 = spec.d, spec.sigma2
    alpha = spec.tau2 / sigma2
    centered = 0.5 * float(np.sum(np.log1p(alpha * s))) + float(
        np.sum(g**2 / (1.0 + alpha * s))
    ) / (2.0 * sigma2)
    fit = -0.5 * (n * (LOG_2PI + math.log(sigma2)) + rss / sigma2)
    log_n = math.log(n)
    return [
        fit - centered, fit, fit - 0.5 * d * log_n, fit - lam * log_n,
        centered - 0.5 * d * log_n, centered - lam * log_n,
    ]


def _mp_centered(spec, n, seed, mpmath) -> float:
    """The centered term ``log_lik_mle - log_z_exact`` of one cell at 50
    digits, built from the same float Wishart factor ``T``, ``B_star`` and
    ``theta_star``, not from ``S``: the rows ``Z = T^T``, the design
    ``A = X P_r`` with ``P_r`` the top r of the float SVD of ``B_star``, and
    ``y = X B theta + sigma Z[:, -1]``, multiplied out in mpmath.  With
    n <= r the rows fit y exactly and the n x n form ``I + alpha A A^T`` is
    used; above it the r x r form ``I + alpha S_r``, ``S_r = A^T A``."""
    q, r = spec.p + 1, spec.r
    Z = wishart_factor(substream(seed, "wishart", n), n, q).T
    U, s, _ = np.linalg.svd(spec.B_star, full_matrices=False)

    def sq_norm_of_solve(L, b):   # |L^-1 b|^2 for lower-triangular L
        x = []
        for i in range(len(b)):
            x.append((b[i] - mpmath.fsum(L[i, k] * x[k] for k in range(i))) / L[i, i])
        return mpmath.fsum(v**2 for v in x)

    with mpmath.workdps(50):
        X = mpmath.matrix(Z[:, :-1].tolist())
        A = X * mpmath.matrix((U[:, :r] * s[:r]).tolist())
        mean = mpmath.matrix(spec.B_star.tolist()) * mpmath.matrix(spec.theta_star.tolist())
        y = X * mean + mpmath.sqrt(spec.sigma2) * mpmath.matrix(Z[:, -1].tolist())
        alpha = mpmath.mpf(spec.tau2) / spec.sigma2
        if n <= r:   # fit residual 0; the evidence's quadratic form y^T (I + alpha A A^T)^-1 y
            L = mpmath.cholesky(mpmath.eye(n) + alpha * (A * A.T))
            quad = sq_norm_of_solve(L, y)
        else:        # b^T S^-1 b - alpha b^T (I + alpha S)^-1 b
            S, b = A.T * A, A.T * y
            L = mpmath.cholesky(mpmath.eye(r) + alpha * S)
            quad = sq_norm_of_solve(mpmath.cholesky(S), b) - alpha * sq_norm_of_solve(L, b)
        half_logdet = mpmath.fsum(mpmath.log(L[i, i]) for i in range(L.rows))
        return float(half_logdet + quad / (2 * spec.sigma2))


def _per_cell_comparison(pair, n, seed) -> list[float]:
    """The ten scores of one dictionary cell, drawn and evaluated one cell at
    a time: the arithmetic the study ran before it was batched, kept here as
    the reference for the batched path."""
    minimal, overcomplete = pair
    p = minimal.p

    def factor(spec):
        M = marginal_covariance(spec)
        return np.linalg.cholesky(0.5 * (M + M.T))

    LT = factor(minimal) @ wishart_factor(substream(seed, "dict-wishart", n), n, p)
    YY = LT @ LT.T
    YY = 0.5 * (YY + YY.T)

    def exact(spec):
        L = factor(spec)
        quad = float(np.trace(np.linalg.solve(L.T, np.linalg.solve(L, YY))))
        return -0.5 * (n * (p * LOG_2PI + 2.0 * float(np.sum(np.log(np.diag(L))))) + quad)

    def fit(spec):
        ell = np.linalg.eigvalsh(YY / n)[::-1]
        k = min(spec.d, p)
        model_var = np.full(p, spec.sigma2)
        model_var[:k] = np.maximum(ell[:k], spec.sigma2)
        return -0.5 * n * (p * LOG_2PI + float(np.sum(np.log(model_var) + ell / model_var)))

    fit_min, fit_over = fit(minimal), fit(overcomplete)
    lam, log_n = analytic_rlct(minimal.r), math.log(n)
    return [
        exact(minimal), exact(overcomplete), fit_min, fit_over,
        fit_min - 0.5 * minimal.d * log_n, fit_min - 0.5 * overcomplete.d * log_n,
        fit_min - lam * log_n, fit_min - lam * log_n,
        fit_over - 0.5 * overcomplete.d * log_n, fit_over - lam * log_n,
    ]


def _columns(cells) -> list[str]:
    return [*experiments.KEY_COLUMNS, *cells.score_columns]


def _rows(cells) -> list[dict]:
    """One dict per cell of a table, keyed by record column."""
    return [
        dict(zip(_columns(cells), (cells.study, rank, cells.d, cells.p, seed, n, *scores)))
        for rank, seed, n, scores in zip(
            cells.rank.tolist(), cells.seed.tolist(), cells.n.tolist(), cells.scores.tolist()
        )
    ]


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats, plain text otherwise."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _row_csv_text(cells) -> str:
    """The record CSV written row by row, one value at a time: the writer
    the columnar one replaced, kept here as its reference."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_columns(cells))
    for rank, seed, n, scores in zip(cells.rank, cells.seed, cells.n, cells.scores):
        row = [cells.study, int(rank), cells.d, cells.p, int(seed), int(n), *scores]
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _mean_by_n(rows, *extractors) -> tuple[list[int], list[list[float]]]:
    """The sample sizes present in ``rows`` in increasing order, and for each
    extractor the mean of its values over the rows at each of those sizes:
    the list-based grouping the columnar ``seed_means`` replaced."""
    by_n: dict[int, list] = {}
    for row in rows:
        by_n.setdefault(row["n"], []).append(row)
    ns = sorted(by_n)
    return ns, [[float(np.mean([f(row) for row in by_n[n]])) for n in ns] for f in extractors]


def _reference_slopes_csv(cells, ranks) -> str:
    """slopes.csv from the list-based aggregation over the table's rows."""
    rows = _rows(cells)
    summaries = []
    for rank in sorted(ranks):
        mine = [row for row in rows if row["rank"] == rank]
        ns, (dbic, drlct) = _mean_by_n(
            mine, lambda r: r["delta_bic"], lambda r: r["delta_rlct"]
        )
        fit_delta_rlct = fit_log_n_slope(zip(ns, drlct))
        summaries.append(RankSummary(
            rank=rank,
            fit_delta_bic=fit_log_n_slope(zip(ns, dbic)),
            fit_delta_rlct=fit_delta_rlct,
            lambda_hat=analytic_rlct(rank) + fit_delta_rlct.slope,
            n_seeds=len({row["seed"] for row in mine}),
            curve={"n": ns, "delta_bic": dbic, "delta_rlct": drlct},
        ))
    return slopes_csv_text(summaries)


def _assert_same_table(a, b) -> None:
    """Equal key columns and bit-equal scores."""
    assert (a.study, a.d, a.p, a.score_columns) == (b.study, b.d, b.p, b.score_columns)
    for name in ("rank", "seed", "n", "scores"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def _without(cells, keep):
    """The table's rows where ``keep`` is true."""
    return replace(cells, rank=cells.rank[keep], seed=cells.seed[keep], n=cells.n[keep],
                   scores=cells.scores[keep])


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
            {"study": "regular_vs_singular", "ranks": [4, 6]},   # retired: ranks of rank_sweep
        ],
    )
    def test_invalid_configs_rejected(self, patch):
        cfg = tiny_config()
        for key, value in patch.items():
            setattr(cfg, key, value)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_library_configs_pass_the_same_gate(self):
        """A config built in Python is coerced and checked like one from the
        CLI or a JSON file before a study runs it."""
        loose = run_study(tiny_config(ranks=[1.0, 2], n_grid=[50.0, 100, 200], d="6"))
        strict = run_study(tiny_config())
        assert cell_table_csv_text(loose.cells) == cell_table_csv_text(strict.cells)
        assert loose.config.config_hash() == strict.config.config_hash()
        for patch in ({"seeds": [0, 0.5]}, {"ranks": [True, 2]}, {"d": "x"}, {"n_grid": 100},
                      {"ranks": [np.True_, 2]}, {"sigma2": np.True_}, {"output_dir": None}):
            with pytest.raises(ConfigError):
                run_study(tiny_config(**patch))
        cfg = tiny_config(output_dir=Path("out"))
        cfg.validate()
        assert cfg.output_dir == "out"

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"study": "rank_sweep", "widgets": 3})
        with pytest.raises(ConfigError, match="unknown study 'nope'"):
            ExperimentConfig.from_dict({"study": "nope"})

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
        cells = res.cells
        keys = set(zip(cells.rank.tolist(), cells.seed.tolist(), cells.n.tolist()))
        assert len(cells) == len(keys) == 2 * 2 * 3
        assert not res.failures

    def test_single_seed_two_points_is_legal(self):
        cfg = tiny_config(ranks=[2], seeds=[0], n_grid=[50, 100])
        res = run_study(cfg)
        s = res.rank_summaries[0]
        assert s.curve["n"] == [50, 100] and s.n_seeds == 1
        assert s.fit_delta_bic.stderr_slope == 0.0

    def test_record_identity_in_all_cells(self):
        cfg = tiny_config()
        res = run_study(cfg)
        for rec in _rows(res.cells):
            gap = (rec["rank"] / 2.0 - cfg.d / 2.0) * math.log(rec["n"])
            assert abs((rec["delta_bic"] - rec["delta_rlct"]) - gap) < 1e-12

    def test_run_study_dispatch(self):
        res = run_study(tiny_config(ranks=[1], seeds=[0], n_grid=[50, 100]))
        assert res.config.study == "rank_sweep"

    def test_injected_nan_cell_is_isolated(self, monkeypatch):
        """One poisoned cell must not abort the sweep; it is surfaced in the
        failure list and the summary."""
        cfg = tiny_config(ranks=[1, 2], seeds=[0], n_grid=[50, 100, 200])
        clean = run_study(cfg).cells
        real = experiments.root_evidence_batch

        def poisoned(n, A, y, d, sigma2, tau2, lam):
            out = real(n, A, y, d, sigma2, tau2, lam)
            if lam == 0.5:   # the rank-1 batch: seed 0 at n = 50, 100, 200
                out["log_z_exact"][0, list(n).index(100)] = float("nan")
            return out

        monkeypatch.setattr(experiments, "root_evidence_batch", poisoned)
        res = run_study(cfg)
        assert len(res.failures) == 1
        fail = res.failures[0]
        assert (fail.rank, fail.seed, fail.n) == (1, 0, 100)
        text = summarize(res)
        assert "failed cells: 1" in text
        assert "rank=1 seed=0 n=100" in text
        # every other cell, in the poisoned batch and out of it, keeps its bits
        _assert_same_table(res.cells, _without(clean, (clean.rank != 1) | (clean.n != 100)))
        # one seed: the failed cell's n drops out of rank 1's mean exactly
        assert slopes_csv_text(res.rank_summaries) == _reference_slopes_csv(res.cells, cfg.ranks)

    def test_aggregation_matches_list_based_reference(self, monkeypatch):
        """slopes.csv equals the list-based group-by-n aggregation bit for bit
        on complete grids, seeds in config order or not.  With a failed cell
        the zero-filled seed sum can group the other seeds' values
        differently from np.mean over them: over 18 poisoned cells (9 to 20
        seeds) 13 stayed exact and the others moved a slope by at most
        4.4e-16, the value this case (seed 0, n = 50, 12 seeds) measures.
        The complete rank stays exact."""
        for cfg in (ExperimentConfig(),
                    ExperimentConfig(ranks=[3, 1], seeds=[5, 3, 9, 1, 0, 2, 7, 4, 8, 6, 11])):
            res = run_study(cfg)
            assert slopes_csv_text(res.rank_summaries) == _reference_slopes_csv(res.cells, cfg.ranks)

        cfg = ExperimentConfig(ranks=[1, 2], seeds=list(range(12)))
        real = experiments.root_evidence_batch

        def poisoned(n, A, y, d, sigma2, tau2, lam):
            out = real(n, A, y, d, sigma2, tau2, lam)
            if lam == 0.5:   # rank 1, seed 0, n = 50
                out["delta_bic"][0, 0] = float("nan")
            return out

        monkeypatch.setattr(experiments, "root_evidence_batch", poisoned)
        res = run_study(cfg)
        assert [(f.rank, f.seed, f.n) for f in res.failures] == [(1, 0, 50)]
        got = slopes_csv_text(res.rank_summaries).splitlines()
        ref = _reference_slopes_csv(res.cells, cfg.ranks).splitlines()
        assert got[0] == ref[0] and got[2] == ref[2]   # header and the complete rank 2
        got, ref = ([float(v) for v in text[1].split(",")] for text in (got, ref))
        assert got[0] == ref[0] and got[-2:] == ref[-2:] == [12, 9]
        assert np.max(np.abs(np.subtract(got, ref))) <= 1e-15

    def test_seed_means_with_unsorted_seeds_and_a_missing_cell(self):
        """Seeds listed out of sorted order, one cell gone: the means at each n
        equal the list-based reference bit for bit, and every seed counts."""
        cells = run_study(tiny_config(seeds=[7, 2, 5])).cells
        cells = _without(cells, (cells.rank != 1) | (cells.seed != 2) | (cells.n != 100))
        columns = {name: cells.score(name) for name in ("delta_bic", "delta_rlct")}
        for rank in (1, 2):
            curve, seeds, grid, present = experiments.seed_grid(cells, columns, rank)
            mine = [row for row in _rows(cells) if row["rank"] == rank]
            ref_ns, ref = _mean_by_n(mine, lambda r: r["delta_bic"], lambda r: r["delta_rlct"])
            assert curve["n"] == ref_ns == [50, 100, 200]
            assert [curve["delta_bic"], curve["delta_rlct"]] == ref
            assert seeds.tolist() == [7, 2, 5]
            assert grid.shape == (2, 3, 3)
            assert present.sum() == 9 - (rank == 1) and present[1, 1] == (rank != 1)

    def test_every_seed_failing_at_one_n_keeps_per_seed_slopes(self, monkeypatch):
        """Per-seed slopes cover the sizes of the rank's seed-mean curve: when
        every seed of rank 1 fails at n = 100, each still gets slopes over the
        other sizes, bit for bit those of its own cells; rank 2 is as before."""
        cfg = tiny_config(seeds=[3, 0, 9], n_grid=[50, 100, 200, 400])
        clean = run_study(cfg).per_seed_slopes
        real = experiments.root_evidence_batch

        def poisoned(n, A, y, d, sigma2, tau2, lam):
            out = real(n, A, y, d, sigma2, tau2, lam)
            if lam == 0.5:   # rank 1: every seed at n = 100
                out["delta_rlct"][:, np.asarray(n) == 100] = float("nan")
            return out

        monkeypatch.setattr(experiments, "root_evidence_batch", poisoned)
        res = run_study(cfg)
        assert [(f.rank, f.seed, f.n) for f in res.failures] == [(1, s, 100) for s in cfg.seeds]
        assert [row[:2] for row in res.per_seed_slopes] == [
            (rank, seed) for rank in (1, 2) for seed in cfg.seeds]
        assert res.per_seed_slopes[3:] == clean[3:]
        cells = res.cells
        for rank, seed, *slopes in res.per_seed_slopes[:3]:
            mine = (cells.rank == rank) & (cells.seed == seed)
            assert cells.n[mine].tolist() == [50, 200, 400]
            deltas = np.stack([cells.score("delta_bic")[mine], cells.score("delta_rlct")[mine]])
            assert slopes == log_n_slopes([50, 200, 400], deltas).tolist()

    def test_slopes_fit_against_the_scores_log_n(self):
        """On a grid holding 9170, where np.log and math.log round apart,
        every per-seed slope and every summary slope equals, bit for bit,
        the centred OLS slope against [math.log(n) for n in grid], the log n
        that every score subtracted."""
        grid = [50, 400, 9170, 20000]
        assert np.log(9170.0) != math.log(9170)
        cfg = tiny_config(ranks=[1, 3, 6], seeds=list(range(5)), n_grid=grid)
        res = run_study(cfg)
        xc = np.array([math.log(n) for n in grid])
        xc -= xc.mean()

        def slope(values):
            vc = np.array(values) - np.mean(values)
            return float(np.sum(xc * vc) / np.sum(xc * xc))

        rows = _rows(res.cells)
        per_seed = []
        for summary in res.rank_summaries:
            mine = [row for row in rows if row["rank"] == summary.rank]
            ns, means = _mean_by_n(mine, lambda r: r["delta_bic"], lambda r: r["delta_rlct"])
            assert ns == grid
            assert [summary.fit_delta_bic.slope, summary.fit_delta_rlct.slope] == [
                slope(mean) for mean in means]
            for seed in cfg.seeds:
                cells = [row for row in mine if row["seed"] == seed]
                per_seed.append((summary.rank, seed, *(
                    slope([row[k] for row in cells]) for k in ("delta_bic", "delta_rlct"))))
        assert res.per_seed_slopes == per_seed

    def test_a_rank_needs_cells_at_two_sizes(self):
        """A rank with surviving cells at one size, or none, has no slope:
        both aggregations abort with a NumericalError naming the rank."""
        cells = run_study(tiny_config()).cells
        floor = "has surviving cells at fewer than 2 sizes"
        for keep in ((cells.rank == 1) | (cells.n == 50), cells.rank == 1):
            with pytest.raises(NumericalError, match=f"^rank 2 {floor}"):
                aggregate_rank_summaries(_without(cells, keep), [1, 2])
        dcfg = replace(ExperimentConfig.default_for("dict_compare"), seeds=[0, 1],
                       n_grid=[50, 100])
        cells = run_study(dcfg).cells
        for keep in (cells.n == 50, cells.n == 0):
            with pytest.raises(NumericalError, match=f"^rank 3 {floor}"):
                aggregate_dict_comparison(_without(cells, keep), dcfg)

    def test_regular_rank_predicts_zero_not_minus_zero(self):
        """The rank-d row's predicted BIC slope prints as 0.00, not -0.00."""
        text = summarize(run_study(tiny_config(ranks=[2, 6])))
        row = next(ln for ln in text.splitlines() if ln.startswith("   6 "))
        assert row.split()[2] == "0.00"

    def test_clean_run_has_no_failure_section(self):
        text = summarize(run_study(tiny_config()))
        assert "failed cells" not in text

    def test_summary_row_count_matches_ranks(self):
        cfg = tiny_config(ranks=[1, 2])
        text = summarize(run_study(cfg))
        rows = [ln for ln in text.splitlines() if ln.strip().startswith(("1 ", "2 "))]
        assert len(rows) == 2

    def test_kept_count_is_the_rank_of_the_rows(self, monkeypatch):
        """The rank rule keeps min(n, r) directions in every cell: on the
        default sweep, on sizes from 2 (fewer rows than r) to 50, and at
        d = p = 50, where the rank-50 factors come near singular."""
        real = experiments.root_evidence_batch
        kept, expected = [], []

        def recording(n, A, y, d, sigma2, tau2, lam):
            out = real(n, A, y, d, sigma2, tau2, lam)
            kept.extend(out["rank"].ravel().tolist())
            expected.extend(np.broadcast_to(np.minimum(n, A.shape[-1]), A.shape[:-2]).ravel().tolist())
            return out

        monkeypatch.setattr(experiments, "root_evidence_batch", recording)
        cells = 0
        for cfg in (ExperimentConfig(), ExperimentConfig(n_grid=[2, 3, 4, 5, 6, 7, 8, 50]),
                    ExperimentConfig(d=50, p=50, ranks=[10, 25, 40, 50])):
            res = run_study(cfg)
            assert not res.failures
            cells += len(res.cells)
        assert len(kept) == cells == 1080 + 960 + 720
        assert kept == expected

    def test_batch_linalg_error_fails_every_cell_of_the_batch(self, monkeypatch):
        real = experiments.root_evidence_batch

        def failing(n, A, y, d, sigma2, tau2, lam):
            if lam == 0.5:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real(n, A, y, d, sigma2, tau2, lam)

        monkeypatch.setattr(experiments, "root_evidence_batch", failing)
        res = experiments._regression_study(tiny_config())
        cells, failures = res.cells, res.failures
        assert [(f.rank, f.seed, f.n) for f in failures] == [
            (1, seed, n) for seed in (0, 1) for n in (50, 100, 200)
        ]
        assert {f.message for f in failures} == {"Eigenvalues did not converge"}
        assert len(cells) == 6 and set(cells.rank.tolist()) == {2}

    def test_records_match_per_cell_reference_bitwise(self):
        """Every score of every cell equals the one-cell-at-a-time arithmetic
        exactly, on both draw branches (n <= p draws Z itself).  At n = 19143
        np.log and math.log round differently."""
        grid = [2, 3, 5, 7, 10, *ExperimentConfig().n_grid, 19143, 10**6, 10**9]
        cfg = ExperimentConfig(n_grid=grid)
        res = run_study(cfg)
        assert not res.failures
        expected = []
        for rank in cfg.ranks:
            for seed in cfg.seeds:
                spec = make_spec(cfg.p, cfg.d, rank, cfg.sigma2, cfg.tau2, seed=seed)
                for n in grid:
                    expected.append(_per_cell_scores(spec, n, seed, rank / 2.0))
        assert res.cells.score_columns == experiments.RECORD_COLUMNS[6:]
        assert res.cells.scores.tolist() == expected

    def test_one_draw_per_seed_and_n_and_one_svd_per_rank(self, monkeypatch):
        """Structural guard: the default sweep draws each (seed, n) Wishart
        factor once for all ranks, scores each rank's cells with one batched
        SVD, and runs no eigendecomposition, so no threshold on one."""
        counts = {"factor": 0, "eigh": 0, "cell_svd": 0}
        cfg = ExperimentConfig()
        real_svd, real_roots = np.linalg.svd, experiments.wishart_roots

        def counting(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return wrapper

        def svd(a, *args, **kwargs):
            counts["cell_svd"] += a.shape[:-2] == (len(cfg.seeds), len(cfg.n_grid))
            return real_svd(a, *args, **kwargs)

        def roots(seed, tag, n_grid, q):
            counts["factor"] += len(n_grid)
            return real_roots(seed, tag, n_grid, q)

        monkeypatch.setattr(experiments, "wishart_roots", roots)
        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "svd", svd)
        res = run_study(cfg)
        assert len(res.cells) == len(cfg.ranks) * len(cfg.seeds) * len(cfg.n_grid)
        assert counts["factor"] == len(cfg.seeds) * len(cfg.n_grid) == 180
        assert counts["cell_svd"] == len(cfg.ranks)
        assert counts["eigh"] == 0

    def test_one_rank_check_per_factor_and_one_theta_per_seed(self, monkeypatch):
        """Work guard: the default sweep takes two batched SVDs per rank, one
        of its factors (their identifiable coordinates, and the singular
        values that check each factor's rank, so no SVD per factor) and one
        of its cells, and draws each seed's factors and theta_star once for
        every rank: 180 Wishart + 20 factor + 20 theta streams."""
        counts = {"svd": 0, "substream": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
        for module in (linear_models, _rng):
            monkeypatch.setattr(module, "substream", counting("substream", module.substream))
        cfg = ExperimentConfig()
        res = run_study(cfg)
        assert len(res.cells) == 1080 and not res.failures
        assert counts["svd"] <= 2 * len(cfg.ranks)
        assert counts["substream"] <= 220

    def test_large_n_grid_recovers_lambda(self):
        """At n = 1e6..1e9 the finite-n bias is gone: every rank's lambda_hat
        is r/2 to 1e-3, and no cell fails."""
        res = run_study(ExperimentConfig(n_grid=[10**6, 10**7, 10**8, 10**9]))
        assert not res.failures
        for s in res.rank_summaries:
            assert abs(s.lambda_hat - s.rank / 2.0) < 1e-3, (s.rank, s.lambda_hat)

    def test_lambda_hat_at_large_n_against_mpmath(self):
        """For r < d at n = 2**28..2**32 - 1, lambda_hat matches the slope of
        the seed-mean centered term evaluated at 50 digits from the same
        float Wishart factors (:func:`_mp_centered`).  lambda_hat is lambda +
        slope(delta_rlct), which subtracts no O(n) numbers; the measured
        residual is 6.7e-16 (5.8e-15 when the records were scored from the
        float S, 4.1e-8 from the records' log_z_exact - log_lik_mle)."""
        mpmath = pytest.importorskip("mpmath")
        grid = [2**28, 2**29, 2**30, 2**31, 2**32 - 1]
        cfg = ExperimentConfig(ranks=[1, 3], seeds=[0, 1], n_grid=grid)
        res = run_study(cfg)
        for summary in res.rank_summaries:
            rank = summary.rank
            centered = np.zeros((len(cfg.seeds), len(grid)))
            for i, seed in enumerate(cfg.seeds):
                spec = make_spec(cfg.p, cfg.d, rank, cfg.sigma2, cfg.tau2, seed=seed)
                centered[i] = [_mp_centered(spec, n, seed, mpmath) for n in grid]
            expected = float(log_n_slopes(grid, centered.mean(axis=0)))
            assert abs(summary.lambda_hat - expected) < 1e-12, (rank, summary.lambda_hat, expected)

    def test_centered_term_against_mpmath_from_the_factor(self):
        """Each cell's centered term, read off its record as
        delta_rlct + lambda log n, matches :func:`_mp_centered` to a relative
        1e-13: at d = 6 for n from 2 (fewer rows than r, padded with zeros)
        to 2**32 - 1, and at d = p = 50 for seed 12, whose rank-50 factor is
        near-singular.  Reading the rank off S with a threshold kept 49
        directions there, 1.40 nat off at n = 200.  The largest relative
        residual measured is 1.8e-14 over 1,320 d = 6 cells (ranks 1-6, seeds
        0-19, these sizes and 800) and 1.3e-14 over 32 d = 50 cells (ranks 25
        and 50, seeds 0-2 and 12, n = 50..12,800); the tolerance leaves about
        5x over it."""
        mpmath = pytest.importorskip("mpmath")
        for cfg in (
            ExperimentConfig(ranks=[1, 3, 5, 6], seeds=[0, 1, 2],
                             n_grid=[2, 3, 5, 6, 7, 50, 12800, 10**6, 10**8, 2**32 - 1]),
            ExperimentConfig(d=50, p=50, ranks=[25, 50], seeds=[12], n_grid=[200, 1600]),
        ):
            res = run_study(cfg)
            assert not res.failures
            cells = res.cells
            for rank, seed, n, delta_rlct in zip(cells.rank.tolist(), cells.seed.tolist(),
                                                 cells.n.tolist(),
                                                 cells.score("delta_rlct").tolist()):
                spec = make_spec(cfg.p, cfg.d, rank, cfg.sigma2, cfg.tau2, seed=seed)
                expected = _mp_centered(spec, n, seed, mpmath)
                got = delta_rlct + analytic_rlct(rank) * math.log(n)
                assert abs(got - expected) <= 1e-13 * expected, (cfg.d, rank, seed, n, got, expected)


class TestDictCompare:
    def test_small_run(self):
        cfg = ExperimentConfig(
            study="dict_compare", p=8, d=6, ranks=[3], seeds=[0, 1], n_grid=[50, 100, 200]
        )
        res = run_study(cfg)
        assert len(res.cells) == 2 * 3
        assert res.dict_table_n == 200
        assert set(res.dict_table) == set(experiments.DICT_TABLE_QUANTITIES)
        assert set(res.dict_gap_slopes) == {"exact_gap", "bic_gap", "bic_gap_ml", "fit_gap"}
        eig_min, eig_over = res.spectra
        assert eig_min.shape == (3,) and eig_over.shape == (6,)

    def test_large_n_grid_keeps_exact_gap_flat(self):
        """At n = 1e6..1e9 no cell fails, the exact-evidence gap stays flat
        while the common-fit BIC gap grows at (d - r)/2 = 1.5, and the two
        exact log likelihoods agree to rounding on every row."""
        cfg = ExperimentConfig.default_for("dict_compare")
        res = run_study(replace(cfg, n_grid=[10**6, 10**7, 10**8, 10**9]))
        assert not res.failures
        assert abs(res.dict_gap_slopes["exact_gap"].slope) < 1e-6
        assert abs(res.dict_gap_slopes["bic_gap"].slope - 1.5) < 1e-5
        for row in _rows(res.cells):
            assert (abs(row["exact_minimal"] - row["exact_overcomplete"])
                    <= 1e-12 * abs(row["exact_minimal"]))


    def test_rows_match_per_cell_reference_bitwise(self):
        """Every score of every row equals the one-cell-at-a-time arithmetic
        exactly, on both draw branches (n < p draws Z itself) and up to 1e9."""
        grid = [2, 3, 5, 7, *ExperimentConfig().n_grid, 10**6, 10**9]
        cfg = replace(ExperimentConfig.default_for("dict_compare"), n_grid=grid,
                      seeds=list(range(10)))
        res = run_study(cfg)
        assert not res.failures
        expected = []
        for seed in cfg.seeds:
            pair = make_dictionary_pair(cfg.p, cfg.ranks[0], cfg.d, seed)
            expected += [[n, seed, *_per_cell_comparison(pair, n, seed)] for n in grid]
        cells = res.cells
        assert cells.score_columns == experiments.DICT_RECORD_COLUMNS[6:]
        got = [[n, seed, *scores] for n, seed, scores in
               zip(cells.n.tolist(), cells.seed.tolist(), cells.scores.tolist())]
        assert got == expected

    def test_one_factor_per_member_and_one_eigvalsh_per_seed(self, monkeypatch):
        """Structural guard: the default study factors each member's Sigma_y
        once per seed and runs one stacked eigvalsh per seed (plus the two
        Gram spectra), with its 180 scatter draws unchanged."""
        counts = {"factor": 0, "cholesky": 0, "eigvalsh": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return wrapper

        real_roots = dictionary.wishart_roots

        def roots(seed, tag, n_grid, q):
            counts["factor"] += len(n_grid)
            return real_roots(seed, tag, n_grid, q)

        monkeypatch.setattr(dictionary, "wishart_roots", roots)
        monkeypatch.setattr(np.linalg, "cholesky", counting("cholesky", np.linalg.cholesky))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
        res = run_study(ExperimentConfig.default_for("dict_compare"))
        assert len(res.cells) == 180 and not res.failures
        assert counts["factor"] == 180
        assert counts["cholesky"] <= 40
        assert counts["eigvalsh"] <= 23

    def test_non_finite_scatter_fails_alone(self, monkeypatch):
        """A NaN scatter at (seed 1, n 100) fails that cell only; every other
        row, in the same seed's batch and out of it, keeps its bits."""
        cfg = ExperimentConfig(
            study="dict_compare", p=8, d=6, ranks=[3], seeds=[0, 1], n_grid=[50, 100, 200]
        )
        clean = run_study(cfg).cells
        real_roots = dictionary.wishart_roots

        def nan_roots(seed, tag, n_grid, q):
            Z = real_roots(seed, tag, n_grid, q)
            if (seed, tag) == (1, "dict-wishart"):
                Z[n_grid.index(100)] *= np.nan
            return Z

        monkeypatch.setattr(dictionary, "wishart_roots", nan_roots)
        res = run_study(cfg)
        assert [(f.seed, f.n) for f in res.failures] == [(1, 100)]
        _assert_same_table(res.cells, _without(clean, (clean.seed != 1) | (clean.n != 100)))

    def test_batch_error_fails_its_seed(self, monkeypatch):
        real = experiments.comparison_batch

        def failing(pair, n_grid, seed):
            if seed == 1:
                raise NumericalError("Cholesky factorization failed in probe")
            return real(pair, n_grid, seed)

        monkeypatch.setattr(experiments, "comparison_batch", failing)
        cfg = ExperimentConfig(
            study="dict_compare", p=8, d=6, ranks=[3], seeds=[0, 1], n_grid=[50, 100, 200]
        )
        res = run_study(cfg)
        assert [(f.seed, f.n) for f in res.failures] == [(1, 50), (1, 100), (1, 200)]
        assert {f.message for f in res.failures} == {"Cholesky factorization failed in probe"}
        assert list(zip(res.cells.seed.tolist(), res.cells.n.tolist())) == [
            (0, 50), (0, 100), (0, 200)
        ]


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

        back = read_cell_table(tmp_path / "evidence_records.csv")
        _assert_same_table(back, res.cells)   # repr round-trip is exact

    @pytest.mark.parametrize("study", ["rank_sweep", "dict_compare"])
    @pytest.mark.parametrize("grid", [
        None, [10**6, 10**7, 10**8, 10**9], [2, 3, 5, 7, 10, 50],
    ], ids=["default", "large-n", "n-below-p"])
    def test_columnar_writer_matches_row_writer(self, tmp_path, study, grid):
        """The column-wise record CSV equals the row-by-row one byte for
        byte, and reads back into the same table with exact floats."""
        cfg = ExperimentConfig.default_for(study)
        if grid is not None:
            cfg = replace(cfg, n_grid=grid)
        res = run_study(cfg)
        assert not res.failures
        text = cell_table_csv_text(res.cells)
        assert text == _row_csv_text(res.cells)
        write_study_outputs(res, tmp_path)
        name = "dict_records.csv" if study == "dict_compare" else "evidence_records.csv"
        assert (tmp_path / name).read_text() == text
        _assert_same_table(read_cell_table(tmp_path / name), res.cells)

    @pytest.mark.parametrize("study", ["rank_sweep", "dict_compare"])
    def test_seeds_either_side_of_2_63_stay_integers(self, tmp_path, study):
        """Seeds up to 2**64 - 1 are written as the exact integers and read
        back as such; as floats the two large ones would be one seed."""
        seeds = [1, 2**63 + 5, 2**63 + 6]
        cfg = replace(ExperimentConfig.default_for(study), seeds=seeds, n_grid=[50, 100])
        res = run_study(cfg)
        assert not res.failures
        write_study_outputs(res, tmp_path)
        name = "dict_records.csv" if study == "dict_compare" else "evidence_records.csv"
        rows = (tmp_path / name).read_text().splitlines()[1:]
        assert sorted({int(row.split(",")[4]) for row in rows}) == seeds
        back = read_cell_table(tmp_path / name)
        _assert_same_table(back, res.cells)
        assert sorted(set(back.seed.tolist())) == seeds

    def test_outputs_get_the_mode_open_gives(self, tmp_path):
        """Under umask 022 every output is -rw-r--r--, and no temp file is
        left beside them."""
        umask = os.umask(0o022)
        try:
            paths = write_study_outputs(run_study(tiny_config()), tmp_path)
        finally:
            os.umask(umask)
        assert {stat.S_IMODE(path.stat().st_mode) for path in paths} == {0o644}
        assert sorted(tmp_path.iterdir()) == sorted(paths)

    def test_reader_rejects_malformed_files(self, tmp_path):
        """Every malformed file raises a ValueError that names the file."""
        path = tmp_path / "records.csv"
        header = ",".join(experiments.RECORD_COLUMNS)
        row = "rank_sweep,1,6,6,0,50," + ",".join(["0.5"] * 6)
        not_numbers = [   # rank, d, p, seed, n and a score that do not parse
            ",".join(row.split(",")[:i] + [bad] + row.split(",")[i + 1:])
            for i, bad in ((1, "1.5"), (2, "six"), (3, "6.0"), (4, "x"), (5, "5e1"), (6, "y"))
        ]
        for text in (
            "",                                              # empty file
            header + "\n",                                   # no cells
            "rank,study,d,p,seed,n\n" + row + "\n",          # keys out of order
            header + "\n" + row + ",0.5\n",                  # ragged row
            header + "\n" + row + "\n" + row.replace(",6,6,", ",5,6,") + "\n",
            *(header + "\n" + bad + "\n" for bad in not_numbers),
            # a non-finite score: the program writes none, a failed cell has no row
            *(header + "\n" + row + "\n" + row.replace(",50,", ",100,")[:-3] + bad + "\n"
              for bad in ("nan", "inf")),
        ):
            path.write_text(text)
            with pytest.raises(ValueError, match=r"records\.csv: "):
                read_cell_table(path)
        path.write_text(header + "\n" + row + "\n" + row + "\n")
        with pytest.raises(ValueError, match="more than once"):
            aggregate_rank_summaries(read_cell_table(path), [1])

    def test_reader_rejects_seeds_outside_uint64(self, tmp_path):
        """A seed below 0 or at 2**64 is a malformed file, not an overflow."""
        path = tmp_path / "records.csv"
        header = ",".join(experiments.RECORD_COLUMNS)
        for seed in (-1, 2**64):
            path.write_text(header + f"\nrank_sweep,1,6,6,{seed},50," + ",".join(["0.5"] * 6) + "\n")
            with pytest.raises(ValueError, match="records.csv: seeds must lie in"):
                read_cell_table(path)

    def test_aggregation_reproducible_from_persisted_records(self, tmp_path):
        cfg = tiny_config()
        res = run_study(cfg)
        write_study_outputs(res, tmp_path)
        back = read_cell_table(tmp_path / "evidence_records.csv")
        again, _ = aggregate_rank_summaries(back, cfg.ranks)
        for a, b in zip(res.rank_summaries, again):
            assert abs(a.fit_delta_bic.slope - b.fit_delta_bic.slope) < 1e-10
            assert abs(a.fit_delta_rlct.slope - b.fit_delta_rlct.slope) < 1e-10
            assert abs(a.lambda_hat - b.lambda_hat) < 1e-10

    def test_summaries_rebuild_from_records_alone(self, tmp_path, monkeypatch):
        """slopes.csv and per_seed_slopes.csv rebuild byte for byte from
        evidence_records.csv, ranks given out of order and one cell failed;
        the dictionary table row, gap slopes and gap curve rebuild from
        dict_records.csv."""
        real = experiments.root_evidence_batch

        def poisoned(n, A, y, d, sigma2, tau2, lam):
            out = real(n, A, y, d, sigma2, tau2, lam)
            if lam == 0.5:   # rank 1, seed 3, n = 100
                out["log_z_exact"][0, 1] = float("nan")
            return out

        monkeypatch.setattr(experiments, "root_evidence_batch", poisoned)
        cfg = tiny_config(ranks=[6, 1, 3], seeds=[3, 0, 9], n_grid=[50, 100, 200, 400])
        res = run_study(cfg)
        assert [(f.rank, f.seed, f.n) for f in res.failures] == [(1, 3, 100)]
        write_study_outputs(res, tmp_path)
        summaries, per_seed = aggregate_rank_summaries(
            read_cell_table(tmp_path / "evidence_records.csv"), [3, 6, 1])
        assert [s.rank for s in summaries] == [1, 3, 6]
        assert slopes_csv_text(summaries) == (tmp_path / "slopes.csv").read_text()
        assert (table_text(PER_SEED_SLOPE_COLUMNS, zip(*per_seed))
                == (tmp_path / "per_seed_slopes.csv").read_text())
        assert len(per_seed) == 3 * 3 - 1   # seed 3 lacks rank 1's n = 100

        dcfg = replace(ExperimentConfig.default_for("dict_compare"), seeds=[4, 1, 7])
        dres = run_study(dcfg)
        write_study_outputs(dres, tmp_path)
        table_n, row, gap_slopes, gap_curve = aggregate_dict_comparison(
            read_cell_table(tmp_path / "dict_records.csv"), dcfg)
        assert (table_n, row) == (dres.dict_table_n, dres.dict_table)
        assert gap_slopes == dres.dict_gap_slopes
        assert gap_curve == dres.dict_gap_curve

    def test_joined_writer_matches_csv_writer(self, tmp_path, monkeypatch):
        """Every CSV and TSV the two studies write (records, slopes.csv,
        per_seed_slopes.csv, dict_compare.csv and each figure, blank cells of
        the shorter eigenspectrum included) equals a csv.writer rendering of
        the same columns, one value at a time: no field needs quoting."""
        real = experiments.table_text
        texts = []

        def checked(header, columns, delimiter=","):
            columns = [c if isinstance(c, np.ndarray) else list(c) for c in columns]
            text = real(header, columns, delimiter)
            buf = io.StringIO()
            writer = csv.writer(buf, delimiter=delimiter, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(zip(*([_fmt(v) for v in column] for column in columns)))
            assert text == buf.getvalue()
            texts.append(text)
            return text

        monkeypatch.setattr(experiments, "table_text", checked)
        monkeypatch.setattr(cli, "table_text", checked)
        for command, overrides in (("rank-sweep", "seeds=0..2,n_grid=50..400x2,ranks=1+4+6"),
                                   ("dict-compare", "seeds=0..2,n_grid=50..400x2")):
            out = str(tmp_path / command)
            assert cli.main([command, "--overrides", overrides, "--output-dir", out, "--plot"]) == 0
        written = [path.read_text() for path in tmp_path.glob("*/*.[ct]sv")]
        assert len(written) == 11 and sorted(written) == sorted(texts)
        assert any("\t\t" in text for text in texts)   # a blank cell

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
