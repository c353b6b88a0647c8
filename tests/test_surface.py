"""The public surface: every name ``geodenums`` exports is read by the
package or a demo, apart from the names kept for the benchmark's replay."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "geodenums"

# The tuple-keyed series algebra that only the benchmark's replay of the
# oracle and the division calls (and the tests, which state the algebra
# through it); no package code path or demo does.
BENCHMARK_ONLY = {"mul", "sub", "s1_series", "constant_series", "divide_exact_by_s1",
                  "series_to_dict"}


def exported() -> set[str]:
    """The names ``geodenums/__init__.py`` imports from its modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def read_names() -> set[str]:
    """Every name and attribute that the package's modules, apart from
    ``__init__.py``, and the demos read; docstrings and imports do not
    count."""
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += (ROOT / "demos").glob("*.py")
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_export_but_the_benchmark_only_names_has_a_caller():
    names = exported()
    assert BENCHMARK_ONLY <= names
    assert sorted(names - read_names()) == sorted(BENCHMARK_ONLY)
