"""The layering of the package: the kernel modules import no part of the
harness, and only ``verify`` imports ``report``."""

from __future__ import annotations

import ast
from pathlib import Path

import geodenums

PACKAGE = Path(geodenums.__file__).parent
KERNELS = ("mpoly", "hypercat", "geode", "identities", "wz")
HARNESS = {"report", "verify", "cli"}


def imported(module: str) -> set[str]:
    """The package modules that any import statement of `module` names,
    those inside functions and ``TYPE_CHECKING`` blocks included."""
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names if a.name.startswith("geodenums.")}
        elif isinstance(node, ast.ImportFrom):
            path = (node.module or "").split(".")
            if node.level == 0 and path[0] == "geodenums":
                path = path[1:]
            elif node.level == 0:
                continue
            names |= {path[0]} if path and path[0] else {a.name for a in node.names}
    return names


def test_kernel_modules_import_no_part_of_the_harness():
    assert {m: sorted(imported(m) & HARNESS) for m in KERNELS} == {m: [] for m in KERNELS}


def test_only_verify_imports_report():
    modules = sorted(path.stem for path in PACKAGE.glob("*.py"))
    assert [m for m in modules if "report" in imported(m)] == ["verify"]
