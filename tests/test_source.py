"""Checks on the package source itself, read as syntax trees."""

import ast
import importlib
from pathlib import Path

import pytest

import rankevidence

SRC = Path(rankevidence.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Bound without use on purpose: perfbench's tracer rebinds experiments.sample_dataset.
KEPT = {("experiments", "sample_dataset")}


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names ``tree`` binds by an import and never reads."""
    imported = [alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_imports(path):
    """No module imports a name it never uses.  The package ``__init__``
    is left out: every name it imports is one it re-exports."""
    unused = _unused_imports(ast.parse((SRC / path).read_text(encoding="utf-8")))
    assert [name for name in unused if (path[:-3], name) not in KEPT] == []


def test_the_scan_finds_an_unused_import():
    tree = ast.parse("import math\nfrom .evidence import evidence_record, log_n\nlog_n(math.e)\n")
    assert _unused_imports(tree) == ["evidence_record"]


def _package_lookups(tree: ast.Module) -> set[str]:
    """The dotted paths into ``rankevidence`` that ``tree`` reads: each name
    it imports from a package module, and each attribute chain on such a
    name or on ``rk``, the benchmark's name for the package."""
    roots = {"rk": "rankevidence"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rankevidence":
            roots.update({alias.asname or alias.name: f"{node.module}.{alias.name}"
                          for alias in node.names})
    paths = set(roots.values()) - {"rankevidence"}
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in roots:
            paths.add(".".join([roots[node.id], *reversed(chain)]))
    return paths


def _resolves(path: str) -> bool:
    """``path`` names an attribute, or a submodule, reached from the package."""
    parts = path.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            try:
                obj = importlib.import_module(".".join(parts[:i]))
            except ImportError:
                return False
    return True


def _tracer_functions() -> dict[str, tuple[str, ...]]:
    """``LAYER_FUNCTIONS`` of perfbench/tracing.py: layer (module) -> the
    functions its tracer looks up there by name."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["LAYER_FUNCTIONS"])


def test_every_name_the_benchmark_looks_up_exists():
    """Every package name perfbench/ reads exists: each function of the
    tracer's LAYER_FUNCTIONS, and each ``rk.<name>``, ``rk.<module>.<name>``
    and imported name (``ExperimentConfig.default_for`` among them) of
    perfbench/*.py.  A refactor that drops one fails here, not only in the
    benchmark's own runs."""
    lookups = {f"rankevidence.{layer}.{name}"
               for layer, names in _tracer_functions().items() for name in names}
    for path in sorted(PERFBENCH.glob("*.py")):
        lookups |= _package_lookups(ast.parse(path.read_text(encoding="utf-8")))
    for known in ("rankevidence.rlct.fit_log_n_slope", "rankevidence.cli.main",
                  "rankevidence.experiments.ExperimentConfig.default_for",
                  "rankevidence.experiments.sample_dataset"):
        assert known in lookups
    assert [path for path in sorted(lookups) if not _resolves(path)] == []


def test_the_lookup_scan_finds_a_missing_name():
    tree = ast.parse(
        "import rankevidence as rk\n"
        "from rankevidence.experiments import ExperimentConfig, no_such_function\n"
        "rk.cli.main(rk.no_such_name)\n"
        "ExperimentConfig.no_such_method()\n"
    )
    assert [path for path in sorted(_package_lookups(tree)) if not _resolves(path)] == [
        "rankevidence.experiments.ExperimentConfig.no_such_method",
        "rankevidence.experiments.no_such_function",
        "rankevidence.no_such_name",
    ]
