"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each ``rankevidence`` module from
the benchmark's side: every module-level name bound to one of those functions
is rebound to a timing wrapper while the tracer is installed, and restored
afterwards, so nothing under ``src/`` changes.  A call made through a module
global (``evidence_record`` calling ``exact_log_evidence``) is seen too,
because the global is rebound; a reference captured earlier, such as the
values of ``experiments.RUNNERS``, is not.

Spans are kept in memory and written out once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# layer (module name) -> public functions timed at their call boundary
LAYER_FUNCTIONS = {
    "linear_models": ("make_spec", "sample_dataset"),
    "evidence": ("evidence_record", "exact_log_evidence", "mle_fit_term"),
    "rlct": ("fit_log_n_slope", "estimate_rlct_from_slope"),
    "experiments": ("run_study", "aggregate_rank_summaries", "write_study_outputs"),
    "dictionary": ("sample_dictionary_data", "dict_log_likelihood", "ml_fit_term",
                   "dictionary_comparison"),
    "oracle": ("quadrature_log_evidence", "importance_log_weights",
               "importance_log_evidence"),
    "cli": ("emit_plot_data",),
}

# Byte counts taken at a span's boundary from the call's result.
_METERS = {
    # normal draws of one dataset: n * (p + 1) float64 values (X and the noise)
    "sample_dataset": lambda ds: ds.X.shape[0] * (ds.X.shape[1] + 1) * 8,
    "write_study_outputs": lambda paths: sum(p.stat().st_size for p in paths),
}

# Time metrics: the summed duration of the spans of the named functions that
# are not nested inside another span of the same set.
_TIME_METRICS = {
    **{f"{layer}.busy_s": names for layer, names in LAYER_FUNCTIONS.items()
       if layer not in ("experiments", "cli")},
    "evidence.exact_s": ("exact_log_evidence",),
    "evidence.fit_s": ("mle_fit_term",),
    "experiments.aggregate_s": ("aggregate_rank_summaries",),
    "experiments.write_s": ("write_study_outputs",),
    "cli.emit_s": ("emit_plot_data",),
    "dictionary.sample_s": ("sample_dictionary_data",),
    "dictionary.loglik_s": ("dict_log_likelihood",),
    "dictionary.mlfit_s": ("ml_fit_term",),
    "oracle.quadrature_s": ("quadrature_log_evidence",),
    "oracle.importance_s": ("importance_log_weights", "importance_log_evidence"),
}
_CALL_METRICS = ("linear_models", "evidence", "rlct", "dictionary", "oracle")
MIB = 2.0 ** 20


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    request: int        # index of the benchmark pass the span belongs to
    bytes: int = 0


class Tracer:
    """Records a span around each call into a wrapped public function."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str, layer: str) -> Span:
        span = Span(len(self.spans), name, layer, 0.0, 0.0,
                    self._stack[-1] if self._stack else None, self.request)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def run(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a root span of layer ``bench``."""
        span = self._open(name, "bench")
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrap(self, layer: str, name: str, fn):
        meter = _METERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if meter is not None:
                span.bytes = meter(result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every module global that names a wrapped function."""
        modules = [m for key, m in sys.modules.items()
                   if key == "rankevidence" or key.startswith("rankevidence.")]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"rankevidence.{layer}"]
            for name in names:
                original = getattr(home, name)
                traced = self._wrap(layer, name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
                            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def dump(self, path: Path) -> None:
        """Write every span once, as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = list(Span.__dataclass_fields__)
        rows = [list(vars(s).values()) for s in self.spans]
        with open(path, "w") as handle:
            json.dump({"fields": fields, "spans": rows}, handle)


def request_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of the spans of one pass."""
    by_id = {s.id: s for s in spans}

    def outermost(names) -> list[Span]:
        return [s for s in spans if s.name in names
                and (s.parent is None or by_id[s.parent].name not in names)]

    out = {metric: sum(s.end - s.start for s in outermost(names))
           for metric, names in _TIME_METRICS.items()}
    for layer in _CALL_METRICS:
        out[f"{layer}.calls"] = sum(1 for s in spans if s.layer == layer)
    out["linear_models.draw_mb"] = sum(
        s.bytes for s in spans if s.name == "sample_dataset") / MIB
    out["experiments.write_bytes"] = sum(
        s.bytes for s in spans if s.name == "write_study_outputs")
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    out["experiments.self_s"] = sum(
        (s.end - s.start) - child_time.get(s.id, 0.0)
        for s in spans if s.name == "run_study")
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Median over the traced passes of each per-pass layer metric."""
    per_request: dict[int, list[Span]] = {}
    for s in tracer.spans:
        per_request.setdefault(s.request, []).append(s)
    rows = [request_metrics(spans) for spans in per_request.values()]
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".calls"):
        return "count"
    if metric.endswith("_mb"):
        return "MiB"
    return "bytes"
