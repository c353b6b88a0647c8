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


def test_negative_controls_print_their_ratios_without_fractions():
    # wz2 and certificate each fail a negative control on every pass, and
    # its message prints ratios through wz._ratio
    run = "import os, geodenums.cli\n" + "\n".join(
        f"geodenums.cli.main({argv!r} + ['--report', os.devnull])"
        for argv in (["verify", "wz2", "--max-n", "3"], ["verify", "certificate", "--max-n", "3"])
    )
    assert sorted({"fractions", "decimal", "numbers"} & _loaded(run)) == []


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
    # a missing required flag, a bad value and an unrecognized argument
    ["table", "--vars", "2"], ["table", "--vars", "x", "--max-degree", "1", "--kind", "S"],
    ["table", "--kind", "S", "--vars", "1", "--max-degree", "1", "--bogus"],
    ["coeff", "--kind", "C", "--exps", "1", "extra"], ["verify", "eq31", "--max-n"],
    ["verify", "eq31", "--bogus"], ["table", "-h", "verify"],
], ids=" ".join)
def test_help_and_usage_errors_are_those_of_the_full_parser(argv, capsys, monkeypatch):
    # main builds verify's arguments only for a command line with a verify
    # token, and only the subparser of the command a command line starts
    # with; what it prints must be what the parser with all of them prints
    monkeypatch.setenv("COLUMNS", "80")
    full = _parse(cli._build_parser(verify_suites=True).parse_args, argv, capsys)
    assert _parse(cli.main, argv, capsys) == full


@pytest.mark.parametrize("argv, built", [
    (["table", "--kind", "S", "--vars", "1", "--max-degree", "1"], ["table"]),
    (["coeff", "--kind", "C", "--exps", "1"], ["coeff"]),
    (["verify", "eq31", "--max-n", "1", "--max-a", "1", "--report", os.devnull], ["verify"]),
    (["-h"], ["table", "coeff", "verify"]),
    (["nonsense"], ["table", "coeff", "verify"]),
], ids=["table", "coeff", "verify", "-h", "nonsense"])
def test_main_builds_only_the_subparser_of_the_command_it_runs(argv, built, capsys, monkeypatch):
    parsers = []
    build = cli._build_parser

    def recording(*args):
        parsers.append(build(*args))
        return parsers[-1]

    monkeypatch.setattr(cli, "_build_parser", recording)
    _parse(cli.main, argv, capsys)
    [parser] = parsers
    [commands] = [action for action in parser._actions if action.dest == "command"]
    assert list(commands.choices) == built


def test_verify_help_lists_every_suite_and_flag(capsys, monkeypatch):
    from geodenums.verify import SUITES

    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = _parse(cli.main, ["verify", "-h"], capsys)
    assert code == 0
    for name, (_, minimums) in SUITES.items():
        assert name in out
        for flag in minimums:
            assert "--" + flag.replace("_", "-") in out, flag
