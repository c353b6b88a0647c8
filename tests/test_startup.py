"""What a ``geodenums`` process imports: the package exports its names
lazily, and ``table`` and ``coeff`` load none of ``verify``'s modules."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import geodenums
from geodenums import cli

SRC = Path(geodenums.__file__).parents[1]

# Modules only `verify` needs: its suites, checkers and report, and what
# dataclasses and Fraction pull in.
VERIFY_ONLY = ["geodenums.verify", "geodenums.identities", "geodenums.wz", "geodenums.report",
               "dataclasses", "inspect", "fractions", "decimal"]


def _loaded(code: str) -> set[str]:
    """The modules a fresh interpreter has loaded after running `code`."""
    done = subprocess.run(
        [sys.executable, "-c", code + "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, check=True,
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_import_geodenums_loads_no_submodule():
    assert {m for m in _loaded("import geodenums") if m.startswith("geodenums.")} == set()


@pytest.mark.parametrize("argv", [
    ["table", "--kind", "G", "--vars", "2", "--max-degree", "6", "--format", "csv"],
    ["table", "--kind", "S", "--vars", "3", "--max-degree", "4"],
    ["coeff", "--kind", "G", "--exps", "1,1"],
    ["coeff", "--kind", "G", "--exps", "1,1,1"],
    ["coeff", "--kind", "C", "--exps", "2,1"],
], ids=" ".join)
def test_table_and_coeff_load_nothing_only_verify_needs(argv):
    bare = _loaded("import json")
    run = f"import geodenums.cli\ngeodenums.cli.main({argv!r})"
    assert sorted(set(VERIFY_ONLY) & (_loaded(run) - bare)) == []


def test_verify_loads_neither_dataclasses_nor_inspect():
    # report.Case and report.VerifyReport are plain classes with __slots__
    argv = ["verify", "eq31", "--max-n", "2", "--max-a", "1", "--report", os.devnull]
    run = f"import geodenums.cli\ngeodenums.cli.main({argv!r})"
    assert sorted({"dataclasses", "inspect"} & _loaded(run)) == []


def test_every_export_resolves_to_its_module():
    for name in geodenums.__all__:
        module = importlib.import_module(f"geodenums.{geodenums._EXPORTS[name]}")
        assert getattr(geodenums, name) is getattr(module, name), name
    with pytest.raises(AttributeError):
        geodenums.no_such_name


def test_cli_forwards_only_the_registry_names_the_benchmark_reads():
    from geodenums import verify

    for name in cli._FORWARDED:
        assert getattr(cli, name) is getattr(verify, name)
    with pytest.raises(AttributeError):
        cli.SUITES


def _parse(parse, argv, capsys):
    """Exit code, stdout and stderr of parsing `argv` with `parse`."""
    try:
        code = parse(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["--help"], ["table", "-h"], ["coeff", "-h"], ["verify", "-h"],
    [], ["nonsense"], ["table"], ["coeff", "--kind", "X"], ["verify"], ["verify", "nonsense"],
    ["--x", "verify", "nonsense"], ["--x", "verify", "-h"], ["table", "--out", "verify"],
], ids=" ".join)
def test_help_and_usage_errors_are_those_of_the_full_parser(argv, capsys, monkeypatch):
    # main builds verify's arguments only for a command line with a verify
    # token; what it prints must be what the parser with them prints
    monkeypatch.setenv("COLUMNS", "80")
    full = _parse(cli._build_parser(verify_suites=True).parse_args, argv, capsys)
    assert _parse(cli.main, argv, capsys) == full


def test_verify_help_lists_every_suite_and_flag(capsys, monkeypatch):
    from geodenums.verify import SUITES

    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = _parse(cli.main, ["verify", "-h"], capsys)
    assert code == 0
    for name, (_, minimums) in SUITES.items():
        assert name in out
        for flag in minimums:
            assert "--" + flag.replace("_", "-") in out, flag
