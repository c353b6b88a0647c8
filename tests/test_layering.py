"""The layering of the package: the kernel modules import no part of the
harness, and only ``verify`` imports ``report``; and its exactness: no
module takes a true division or a float, apart from the case timing of
``report``."""

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


# The functions of math that take and return only integers.
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm"}

# The floats of the package: ``report`` times each case in milliseconds
# and writes the time.
CASE_TIMING = {
    ("report", "", "math.isfinite"),
    ("report", "Case.__init__", "0.0"),
    ("report", "VerifyReport.run", "1000.0"),
    ("report", "_json", "float"),
}


def _inexact_tokens(node: ast.AST) -> list[str]:
    """What `node` itself brings in that is not exact integer arithmetic: a
    true division, a float or complex literal, the name ``float`` and any
    math function outside INTEGER_MATH."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
        return ["/"]
    if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
        return [repr(node.value)]
    if isinstance(node, ast.Name) and node.id == "float":
        return ["float"]
    if isinstance(node, ast.ImportFrom) and node.module == "math":
        return [f"math.{a.name}" for a in node.names if a.name not in INTEGER_MATH]
    if isinstance(node, ast.Import):
        return [f"import math as {a.asname}" for a in node.names if a.name == "math" and a.asname]
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id == "math" and node.attr not in INTEGER_MATH:
            return [f"math.{node.attr}"]
    return []


def inexact(module: str) -> set[tuple[str, str, str]]:
    """(module, scope, token) of every inexact token of `module`, its scope
    the dotted names of the classes and functions it sits in, "" at the
    top level."""
    found = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            found.update((module, scope, token) for token in _inexact_tokens(child))
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            visit(child, inner)

    visit(ast.parse((PACKAGE / f"{module}.py").read_text()), "")
    return found


def test_no_module_takes_a_true_division_or_a_float_outside_the_case_timing():
    modules = sorted(path.stem for path in PACKAGE.glob("*.py"))
    assert set().union(*map(inexact, modules)) == CASE_TIMING


def test_the_exactness_audit_sees_each_kind_of_inexact_token():
    source = (
        "from math import comb, sqrt\nimport math as m\nx = 1 / 2\nx //= 2\nx /= 2\n"
        "y = float(3) + 1.5 + math.log(2) + math.gcd(4, 6)\n"
    )
    tokens = [t for node in ast.walk(ast.parse(source)) for t in _inexact_tokens(node)]
    assert sorted(tokens) == sorted(
        ["math.sqrt", "import math as m", "/", "/", "float", "1.5", "math.log"]
    )
