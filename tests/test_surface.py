"""The public surface: every name ``geodenums`` exports is read by the
package or a demo, apart from the names kept for the benchmark's replay."""

from __future__ import annotations

import ast
from pathlib import Path

import geodenums

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "geodenums"

# The tuple-keyed series algebra that only the benchmark's replay of the
# oracle and the division calls (and the tests, which state the algebra
# through it); no package code path or demo does.
BENCHMARK_ONLY = {"mul", "sub", "s1_series", "constant_series", "divide_exact_by_s1",
                  "series_to_dict"}


def exported() -> set[str]:
    """The names of the export table of ``geodenums/__init__.py``."""
    return set(geodenums._EXPORTS)


def _in_package(module: str) -> bool:
    return module == "geodenums" or module.startswith("geodenums.")


def names_read(source: str) -> set[str]:
    """Every name and attribute that the module `source` reads; docstrings
    and imports do not count, and neither does a name the module binds by
    importing from outside the package (``from operator import mul``) or an
    attribute it reads on one (``operator.mul``)."""
    tree = ast.parse(source)
    foreign = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            foreign |= {
                (alias.asname or alias.name).split(".")[0]
                for alias in node.names
                if not _in_package(alias.name)
            }
        elif isinstance(node, ast.ImportFrom) and not node.level and not _in_package(node.module):
            foreign |= {alias.asname or alias.name for alias in node.names}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in foreign:
                names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if not (isinstance(node.value, ast.Name) and node.value.id in foreign):
                names.add(node.attr)
    return names


def read_names() -> set[str]:
    """Every name and attribute that the package's modules, apart from
    ``__init__.py``, and the demos read (``names_read``)."""
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += (ROOT / "demos").glob("*.py")
    return set().union(*(names_read(path.read_text()) for path in paths))


def test_every_export_but_the_benchmark_only_names_has_a_caller():
    names = exported()
    assert BENCHMARK_ONLY <= names
    assert sorted(names - read_names()) == sorted(BENCHMARK_ONLY)


def test_a_name_imported_from_outside_the_package_is_not_a_caller_of_the_export():
    assert "mul" not in names_read("from operator import mul\n\nmul(2, 3)\n")
    assert "mul" not in names_read("import operator\n\noperator.mul(2, 3)\n")
    assert "mul" in names_read("from .mpoly import mul\n\nmul(a, b)\n")
    assert "mul" in names_read("from geodenums import mpoly\n\nmpoly.mul(a, b)\n")
