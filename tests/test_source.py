"""Checks on the package source itself, read as syntax trees."""

import ast
from pathlib import Path

import pytest

import rankevidence

SRC = Path(rankevidence.__file__).resolve().parent

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
