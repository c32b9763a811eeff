"""Benchmark harness: workloads, timed passes, checks and the result line.

Entered through ``run.py``, which pins BLAS and OpenMP to one thread before
this module imports numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import probes
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "_out"
SETUP_REPEATS = 5
IMPORT_SNIPPET = "import rankevidence, rankevidence.cli"
DOUBLING = [50 * 2**k for k in range(9)]          # 50 .. 12,800


def _plus(values: list[int]) -> str:
    return "+".join(str(v) for v in values)


class StudyWorkload:
    """One study run through ``cli.main`` per pass, with its own seed block.

    Every config field is passed explicitly, so a change of the CLI defaults
    does not change the workload.  Seed ``k`` selects the seed block
    ``[k*m, k*m + m)``; seed 0 gives the studies' default seeds ``0..m-1``.
    """

    def __init__(self, command: str, p: int, d: int, ranks: list[int],
                 n_grid: list[int], seeds_per_block: int, lambda_tol: float | None,
                 seed: int, out_dir: Path) -> None:
        self.p, self.d = p, d
        self.ranks, self.n_grid = ranks, n_grid
        self.seeds = list(range(seed * seeds_per_block, (seed + 1) * seeds_per_block))
        self.lambda_tol = lambda_tol
        self.out = out_dir
        self.ops = len(ranks) * len(self.seeds) * len(n_grid)
        self.argv = [
            command, "--output-dir", str(out_dir), "--overrides",
            f"d={d},p={p},sigma2=1.0,tau2=1.0,ranks={_plus(ranks)},"
            f"n_grid={_plus(n_grid)},seeds={self.seeds[0]}..{self.seeds[-1]}",
        ]
        self.regression = command == "rank-sweep"
        self.compared = (["evidence_records.csv", "slopes.csv"] if self.regression
                         else ["dict_records.csv", "dict_compare.csv"])
        self.first: dict[str, bytes] | None = None
        self.slope_rows: list[dict] = []
        self.centered_err_max = 0.0

    def prepare(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self, rk):
        with contextlib.redirect_stdout(io.StringIO()):
            return rk.cli.main(self.argv)

    def inspect(self, rc) -> tuple[int, list[str]]:
        """(failed operations, check failures) of the pass just run."""
        if rc != 0:
            return self.ops, []
        meta = json.loads((self.out / "run_meta.json").read_text())
        blobs = {name: (self.out / name).read_bytes() for name in self.compared}
        if self.first is not None:
            fails = []
            for name in self.compared:
                fails += checks.check_identical(self.first[name], blobs[name], name)
            return meta["n_failures"], fails
        self.first = blobs
        rows = checks.parse_csv(blobs[self.compared[0]].decode())
        expected = {(r, s, n) for r in self.ranks for s in self.seeds for n in self.n_grid}
        fails = checks.check_grid(rows, expected, meta["n_failures"])
        if self.regression:
            fails += checks.check_records(rows)
            self.slope_rows = checks.parse_csv(blobs["slopes.csv"].decode())
        else:
            fails += checks.check_dict_rows(rows)
        return meta["n_failures"], fails

    def final_checks(self, rk) -> list[str]:
        if not self.regression:
            return probes.dict_probe_failures(rk)
        fails = []
        if self.first is not None:
            predictions = {}
            for rank in self.ranks:
                spectra = [
                    np.linalg.eigvalsh(rk.population_gram(
                        rk.make_spec(self.p, self.d, rank, seed=s)))[::-1][:rank]
                    for s in self.seeds
                ]
                predictions[rank] = checks.predicted_lambda(spectra, self.n_grid, 1.0)
            fails += checks.check_lambda(self.slope_rows, predictions, self.lambda_tol)
        errors = probes.evidence_probe_errors(rk)
        self.centered_err_max = max(e["centered_err"] for e in errors)
        return fails + probes.evidence_probe_failures(errors)


class VerifyWorkload:
    """The oracle sweep behind ``rankevidence verify``.

    The subcommand has no seed: it always runs ``run_verification()`` on its
    default problem set, so this workload does too, whatever ``--seed`` is.
    Other seeds draw other problem mixes whose quadrature cost differs by up
    to a quarter, which would swamp the run-to-run spread.
    """

    ops = 4

    def __init__(self) -> None:
        self.first = None
        self.centered_err_max = 0.0

    def prepare(self) -> None:
        pass

    def run(self, rk):
        try:
            return rk.cli.run_verification()
        except (rk.NumericalError, rk.OracleError) as exc:
            print(f"verify pass failed: {exc}", file=sys.stderr)
            return None

    def inspect(self, results) -> tuple[int, list[str]]:
        if results is None:
            return self.ops, []
        fails = checks.check_verification(results)
        if self.first is None:
            self.first = results
        elif results != self.first:
            fails.append("verify results differ from the first pass")
        return 0, fails

    def final_checks(self, rk) -> list[str]:
        return []


WORKLOADS = {
    "sweep-default": dict(command="rank-sweep", p=6, d=6, ranks=[1, 2, 3, 4, 5, 6],
                          n_grid=DOUBLING, seeds_per_block=20, lambda_tol=0.2),
    "sweep-large-n": dict(command="rank-sweep", p=6, d=6, ranks=[1, 3, 6],
                          n_grid=[50 * 2**k for k in range(15)], seeds_per_block=2,
                          lambda_tol=0.4),
    "dict-default": dict(command="dict-compare", p=8, d=6, ranks=[3], n_grid=DOUBLING,
                         seeds_per_block=20, lambda_tol=None),
    "verify": None,
}


def make_workload(name: str, seed: int):
    if WORKLOADS[name] is None:
        return VerifyWorkload()
    return StudyWorkload(**WORKLOADS[name], seed=seed, out_dir=OUT / f"{name}-{os.getpid()}")


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing the package and CLI.

    One untimed import first, so bytecode compilation is not counted.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", IMPORT_SNIPPET]
    subprocess.run(cmd, env=env, check=True, cwd=ROOT)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Run:
    """Passes of one workload with their operation counts and check results."""

    def __init__(self, rk, workload) -> None:
        self.rk, self.workload = rk, workload
        self.attempted = 0
        self.failed = 0
        self.fails: list[str] = []

    def one_pass(self, tracer: tracing.Tracer | None = None) -> float:
        wl = self.workload
        wl.prepare()
        t0 = time.perf_counter()
        if tracer is None:
            result = wl.run(self.rk)
        else:
            result = tracer.run("pass", wl.run, self.rk)
        elapsed = time.perf_counter() - t0
        failed, fails = wl.inspect(result)
        self.attempted += wl.ops
        self.failed += failed
        self.fails += fails
        return elapsed

    def passes(self, seconds: float) -> list[float]:
        """Whole passes until ``seconds`` have elapsed (at least one)."""
        times: list[float] = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            times.append(self.one_pass())
        return times

    def paired_passes(self, seconds: float, tracer: tracing.Tracer) -> tuple[list[float], list[float]]:
        """Alternate untraced and traced passes until ``seconds`` have elapsed,
        so both sample the same stretches of machine load."""
        plain: list[float] = []
        traced: list[float] = []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            plain.append(self.one_pass())
            tracer.request = len(traced)
            tracer.install()
            try:
                traced.append(self.one_pass(tracer))
            finally:
                tracer.uninstall()
        return plain, traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="rankevidence pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "rankevidence" / "__init__.py").is_file():
        print(f"perfbench: no rankevidence sources under {SRC}", file=sys.stderr)
        return 2

    setup_s = measure_setup() if args.trace == 0 else None

    sys.path.insert(0, str(SRC))
    import rankevidence as rk
    import rankevidence.cli  # noqa: F401  (binds rk.cli)

    if not Path(rk.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported {rk.__file__}, not the checkout", file=sys.stderr)
        return 2

    workload = make_workload(args.workload, args.seed)
    run = Run(rk, workload)
    metrics: dict[str, tuple[float, str]] = {}
    try:
        run.one_pass()                               # warm-up, untimed
        if args.trace == 0:
            times = run.passes(args.seconds)
            peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["wall_s"] = (statistics.median(times), "s")
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (peak_mib, "MiB")
        else:
            tracer = tracing.Tracer()
            plain, times = run.paired_passes(args.seconds, tracer)
            tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
            metrics["trace.overhead_s"] = (statistics.median(times) - statistics.median(plain), "s")
        run.fails += workload.final_checks(rk)
        if args.trace == 1:
            for key, value in tracing.layer_metrics(tracer).items():
                metrics[key] = (float(value), tracing.unit_of(key))
            metrics["evidence.centered_err_max"] = (workload.centered_err_max, "nat")
    finally:
        if isinstance(workload, StudyWorkload):
            shutil.rmtree(workload.out, ignore_errors=True)

    for message in run.fails[:20]:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print(f"{args.workload}: {len(times)} timed passes, "
          + ", ".join(f"{t:.3f}" for t in times), file=sys.stderr)
    print(json.dumps({
        "correct": not run.fails,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0
