"""Mutation checks: every mutant must be killed by the tests it names.

A mutant is one exact edit of one file of the checkout: a snippet that
occurs exactly once in the file and its replacement.  For each mutant the
runner copies the checkout (without .git and caches) into a temporary
directory, applies the edit there and runs each named test on its own
with ``python -m pytest``; the mutant is killed when every named test
fails (pytest exit code 1).  Before any mutant, the named tests are run on
an unmutated copy and must pass, so a test that fails anyway kills
nothing.  A snippet that is missing or repeated, a mutant under which
pytest cannot collect, and a mutant that survives each make the run exit 1.

Run from the root of a checkout, with pytest and hypothesis installed:

    python tests/mutants.py                 # every mutant
    python tests/mutants.py "<name>" ...    # the mutants with these names

The runner itself needs only the standard library.  It is not a test
module, so the tier-1 run does not collect it.  The tests that kill the
CPU placement mutants skip, and so pass, where fewer than two CPUs are
usable, so there those mutants survive.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant(
        "wz._row_sum drops the odd carry",
        "src/geodenums/wz.py",
        "carry = row[-1:] if len(row) % 2 else []",
        "carry = []",
        (
            "tests/test_wz.py::test_row_sum_equals_the_fraction_sum",
            "tests/test_wz.py::test_check_wz1_passes",
        ),
    ),
    Mutant(
        "wz._row_sum adds equal denominators",
        "src/geodenums/wz.py",
        "(an + bn, ad) if ad == bd",
        "(an + bn, ad + bd) if ad == bd",
        (
            "tests/test_wz.py::test_row_sum_equals_the_fraction_sum",
            "tests/test_wz.py::test_check_certificate_passes_and_names_orientation",
        ),
    ),
    Mutant(
        "wz._row steps by a ratio off by one",
        "src/geodenums/wz.py",
        "((p - j) * (q + j + 1))",
        "((p - j) * (q + j + 2))",
        (
            "tests/test_wz.py::test_binomial_rows_match_comb",
            "tests/test_wz.py::test_summand_rows_match_their_closed_forms",
            "tests/test_wz.py::test_check_wz1_passes",
        ),
    ),
    Mutant(
        "wz._row shifts the sign alternation",
        "src/geodenums/wz.py",
        "value = (-1) ** parity * comb(q, b)",
        "value = (-1) ** (parity + 1) * comb(q, b)",
        (
            "tests/test_wz.py::test_binomial_rows_match_comb",
            "tests/test_wz.py::test_summand_rows_match_their_closed_forms",
            "tests/test_wz.py::test_check_certificate_passes_and_names_orientation",
        ),
    ),
    Mutant(
        "mpoly._layer_product doubles the pairs of equal keys",
        "src/geodenums/mpoly.py",
        "out[key] = get(key, 0) + ca * cb",
        "out[key] = get(key, 0) + ca * cb * (2 if pa == pb else 1)",
        (
            "tests/test_mpoly.py::test_mul_commutative_and_matches_naive",
            "tests/test_acceptance.py::test_01_two_variable_closed_form_vs_oracle",
            "tests/test_acceptance.py::test_10_oracle_self_consistency",
        ),
    ),
    Mutant(
        "verify._once forgets the exception of a build",
        "src/geodenums/verify.py",
        "outcome.append((None, exc))",
        "raise",
        ("tests/test_cli.py::test_a_broken_kernel_costs_cases_not_the_report",),
    ),
    Mutant(
        "verify helper skips its pin",
        "src/geodenums/verify.py",
        "_pin((cpu,))",
        "pass",
        ("tests/test_cli.py::test_the_command_and_each_helper_run_on_a_cpu_of_their_own",),
    ),
    Mutant(
        "verify never restores the command's mask",
        "src/geodenums/verify.py",
        "_pin(mask)",
        "pass",
        ("tests/test_cli.py::test_the_commands_mask_is_restored_on_every_path",),
    ),
]

IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench", "*.egg-info"
)


def _copy(directory: Path) -> Path:
    """A copy of the checkout inside `directory`."""
    copy = directory / "checkout"
    shutil.copytree(ROOT, copy, ignore=IGNORED)
    return copy


def _pytest(copy: Path, test: str) -> int:
    """The exit code of pytest running the one test `test` in `copy`."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test]
    done = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)
    return done.returncode


def _apply(copy: Path, mutant: Mutant) -> None:
    """Replace the one occurrence of the mutant's snippet in `copy`."""
    path = copy / mutant.path
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.snippet)
    if count != 1:
        raise ValueError(f"{mutant.name}: snippet occurs {count} times in {mutant.path}")
    path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no mutant named {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    bad = 0
    with tempfile.TemporaryDirectory() as scratch:
        clean = _copy(Path(scratch) / "clean")
        for test in dict.fromkeys(t for m in chosen for t in m.tests):
            code = _pytest(clean, test)
            if code:
                print(f"FAILS UNMUTATED: {test} (pytest exit {code})")
                bad += 1
        if bad:
            return 1
        for index, mutant in enumerate(chosen):
            copy = _copy(Path(scratch) / f"mutant-{index}")
            try:
                _apply(copy, mutant)
            except ValueError as exc:
                print(f"NOT APPLIED: {exc}")
                bad += 1
                continue
            codes = {test: _pytest(copy, test) for test in mutant.tests}
            passed = [t for t, c in codes.items() if c == 0]
            broken = [f"{t} (pytest exit {c})" for t, c in codes.items() if c not in (0, 1)]
            if passed or broken:
                bad += 1
                for test in passed:
                    print(f"SURVIVED: {mutant.name}: {test} passes")
                for test in broken:
                    print(f"BROKEN: {mutant.name}: {test}")
            else:
                print(f"killed: {mutant.name} (all {len(codes)} tests fail)")
            shutil.rmtree(copy)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
