"""Command-line surface: coefficient tables, single coefficients, and the
verification suites with machine-readable JSON reports.

``table`` writes straight from the solver's packed layers, one write per
layer (``_write_table``); ``coeff`` prints one coefficient, by closed form
where one applies.  Neither forks.  ``verify`` lives in ``verify.py``,
which ``main`` imports only for that command, so a ``table`` or ``coeff``
process loads no suite, no checker module and no report code; it uses this
module's guard (``_check_work``) and output helpers.  Output paths are
opened after the guards and before any work, and every write, to stdout or
to a file, goes through ``_write_output``.

Exit codes: 0 all checks passed, 1 any verification failure, a suite that
ran no cases (named on stderr), a unit body that raised outside its cases
(while the request is planned, before ``--report`` is opened) or a helper
that died before sending its cases, 2 usage or
I/O error, including a bound below its minimum, a ``table`` or ``coeff``
request whose oracle table, or a ``verify`` suite whose declared kernel
calls together, would exceed ``MAX_WORK``, a ``coeff`` closed form whose
weight exceeds ``MAX_CLOSED_FORM_WEIGHT`` and an output, stdout included,
that cannot be written: one ``error:`` line on stderr, no traceback.
Reports are byte-identical across identical invocations except for the
elapsed_ms fields.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from typing import IO, Callable, Sequence

from . import geode
from .hypercat import _solve_layers, hyper_catalan, solve_work
from .mpoly import _layer_labels, _misplaced, coeff

# Most work one request may take: the oracle table behind `table` or
# `coeff`, or every kernel call the units of one `verify` suite declare,
# together.  Every cost function counts in units of hypercat.solve_work,
# calibrated so that none of its units takes longer than the slowest of
# those, about 90 ns on one CPU of a 2-core VM with Python 3.11.  It is the
# smallest round value that admits every `verify` request the hand-set
# grid maxima admitted, of which eq31 at 60/10 (27 490 902 units) is the
# largest.  There the largest admitted request along each `verify` flag
# took at most 2.4 s as a whole process on one CPU; a `table` at the limit
# took up to 3.8 s, much of it printing long coefficients in decimal.
MAX_WORK = 30_000_000

# Largest weight w = sum_k (k + 1) m_k, a bound on every factorial and
# binomial argument, that `coeff` evaluates by closed form.  At w = 4000 the
# slowest, G with two nonzero slots, takes 0.6 s on the same VM.  Admitted
# values are below 3^(w + 2), so they print under Python's 4300-digit limit.
MAX_CLOSED_FORM_WEIGHT = 4000

# The kernel and cost function of each oracle table `table --kind` writes.
_TABLES = {"S": ("solve_S", solve_work), "G": ("geode_series", geode.geode_work)}


# ---------------------------------------------------------------------------
# table / coeff


def _check_work(
    kernel: str,
    args: tuple,
    work: Callable[..., int],
    parser: argparse.ArgumentParser,
    context: str = "",
    spent: int = 0,
) -> int:
    """work(*args), the work of the call `kernel`(*args), once it is
    checked, before the call runs, that it and the `spent` units of earlier
    work of this suite stay within MAX_WORK; refused with one error line
    naming the call otherwise, an argument that is a handle
    (``report.Handle``) as the call that builds it.  Every cost function
    answers at once for any int arguments."""
    price = work(*args)
    if spent + price > MAX_WORK:
        after = f" after {spent} units of earlier work of this suite" if spent else ""
        parser.error(
            f"{context}{kernel}({', '.join(map(str, args))}){after} is too much work: "
            f"more than {MAX_WORK} units (MAX_WORK)"
        )
    return price


def _write_table(kind: str, fmt: str, r: int, trunc: int, out: IO[str]) -> None:
    """Solve the `kind` table in `r` variables through degree `trunc` and
    write it to `out` in `fmt` straight from the packed layers of
    ``hypercat._solve_layers``, seeded for G when `kind` is G.  The solver
    lists every monomial of a layer's degree once, in descending
    lexicographic order, so each layer is reversed and its keys are
    compared, in one list comparison, with those ``mpoly._layer_labels``
    generates in ascending order; the exponent texts generated beside
    them label its rows, and a layer whose keys differ is refused
    (``mpoly._misplaced``).  Each layer is written with one write, so the
    terms come out by degree, then lexicographically, and only one
    layer's text is held at a time.  The JSON is laid out as
    ``json.dumps(series_to_dict(series), indent=2)`` lays it out, byte for
    byte; the tests compare it with an encoder of their own."""
    shift, layers = _solve_layers(r, trunc, geode=kind == "G")
    if fmt == "json":
        row = '    {\n      "exps": [\n        %s\n      ],\n      "coeff": "%d"\n    }'
        sep, joiner = ",\n        ", ",\n"
        out.write('{\n  "nvars": %d,\n  "trunc": %d,\n  "terms": [' % (r, trunc))
    else:
        row, sep, joiner = "%s,%d\n", ",", ""
        out.write(",".join(f"m_{i + 1}" for i in range(r)) + ",coeff\n")
    separator = "\n"  # before the first JSON term; ",\n" between terms
    labels = _layer_labels(r, shift, len(layers) - 1, sep)
    for d, layer in enumerate(layers):
        keys, texts = next(labels)
        layer.reverse()
        if [key for key, _ in layer] != keys:
            raise _misplaced(layer, keys, r, shift, d)
        # each whole copy of the layer's text, its labels, its rows, their
        # join and the encoding the write makes, is freed once the next is
        # made, so at most two are held at once
        rows = [row % (text, c) for text, (_, c) in zip(texts, layer) if c]
        del keys, texts
        if fmt == "json" and rows:
            rows[0] = separator + rows[0]
            separator = ",\n"
        text = joiner.join(rows)
        del rows
        out.write(text)
    if fmt == "json":
        out.write("]\n}\n" if separator == "\n" else "\n  ]\n}\n")


# ---------------------------------------------------------------------------
# argument parsing and entry points


class _Parser(argparse.ArgumentParser):
    """argparse's parser, and its subparsers, with the help written through
    ``_write_output``: argparse drops a failed write, which an unbuffered
    stdout raises at once, so -h on a full device would exit 0."""

    def print_help(self, file: IO[str] | None = None) -> None:
        if file is not None:
            return super().print_help(file)
        if _write_output(lambda stdout: stdout.write(self.format_help())):
            self.exit(2)


def _build_parser(verify_suites: bool = True) -> argparse.ArgumentParser:
    """The command-line parser.  Its ``verify`` subparser takes its suite
    choices and bound flags from ``verify.SUITES`` only with
    `verify_suites`, since importing the suites is most of a process's
    start-up; without them it takes no argument."""
    parser = _Parser(
        prog="geodenums",
        description="Exact hyper-Catalan / Geode number kernel and verifier.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    table = commands.add_parser("table", help="export a coefficient table")
    table.add_argument("--vars", type=int, required=True, help="number of variables r")
    table.add_argument("--max-degree", type=int, required=True, help="truncation order")
    table.add_argument("--kind", choices=("S", "G"), required=True)
    table.add_argument("--format", choices=("json", "csv"), default="json")
    table.add_argument("--out", default="-", help="output path, - for stdout")

    coeff_cmd = commands.add_parser("coeff", help="print a single coefficient")
    coeff_cmd.add_argument("--kind", choices=("C", "G"), required=True)
    coeff_cmd.add_argument(
        "--exps", required=True, help="comma-separated exponent list, e.g. 1,1"
    )

    verify = commands.add_parser("verify", help="run a verification suite")
    if verify_suites:
        from .verify import SUITE_NAMES, SUITES

        verify.add_argument("suite", choices=SUITE_NAMES + ("all",))
        verify.add_argument("--report", help="write the JSON report to this path")
        for flag in dict.fromkeys(flag for _, ranges in SUITES.values() for flag in ranges):
            verify.add_argument("--" + flag.replace("_", "-"), type=int)
    return parser


def _open_output(path: str) -> IO[str] | None:
    """`path` opened for writing, or None once its error line is printed.
    Commands open their output after the guards but before any work, so
    an unwritable path costs no solve and no suite."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        _cannot_write(path, exc)
        return None


def _cannot_write(path: str, exc: OSError) -> None:
    print(f"error: cannot write {path}: {exc}", file=sys.stderr)


def _write_output(
    write: Callable[[IO[str]], None], out: IO[str] | None = None, path: str = "<stdout>"
) -> int:
    """0 once ``write(out)`` has run and `out` is closed, or, with no `out`,
    once ``write(sys.stdout)`` has run and stdout is flushed; 2, after one
    error line naming `path`, if a write or the flush fails.  A failed
    stdout is then pointed at the null device (``_discard_stdout``), so
    the interpreter's own flush at exit has nothing left to fail on."""
    try:
        if out is None:
            write(sys.stdout)
            sys.stdout.flush()
        else:
            with out:
                write(out)
    except OSError as exc:
        _cannot_write(path, exc)
        if out is None:
            _discard_stdout()
        return 2
    return 0


def _discard_stdout() -> None:
    """Send whatever stdout still buffers to the null device.  A stdout
    with no file descriptor, such as a test's capture, is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError):  # io.UnsupportedOperation is a ValueError
        return
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, fd)
    finally:
        os.close(null)


def _cmd_table(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.vars < 1:
        parser.error(f"--vars must be >= 1, got {args.vars}")
    if args.max_degree < 0:
        parser.error(f"--max-degree must be >= 0, got {args.max_degree}")
    kernel, work = _TABLES[args.kind]
    _check_work(kernel, (args.vars, args.max_degree), work, parser)
    write = partial(_write_table, args.kind, args.format, args.vars, args.max_degree)
    if args.out == "-":
        return _write_output(write)
    out = _open_output(args.out)
    if out is None:
        return 2
    return _write_output(write, out, args.out)


def _cmd_coeff(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        exps = tuple(int(part) for part in args.exps.split(","))
    except ValueError:
        parser.error(f"--exps must be a comma-separated integer list, got {args.exps!r}")
    if not exps or any(e < 0 for e in exps):
        parser.error(f"--exps entries must be nonnegative, got {args.exps!r}")
    nonzero = [(k, e) for k, e in enumerate(exps, start=1) if e]
    # one route, priced alone: G with three or more nonzero slots by the
    # series oracle solved on the support of m, everything else by closed
    # form
    if args.kind == "G" and len(nonzero) >= 3:
        slots, m = zip(*nonzero)
        call = (len(exps), sum(exps), slots)
        _check_work("geode_support", call, geode.geode_work, parser)
        value = coeff(geode.geode_support(*call), m)
    elif sum((k + 1) * e for k, e in nonzero) > MAX_CLOSED_FORM_WEIGHT:
        parser.error(
            f"--exps has weight sum_k (k+1) m_k above {MAX_CLOSED_FORM_WEIGHT}: "
            "its closed form is too much work"
        )
    elif args.kind == "C":
        value = hyper_catalan(exps)
    elif not nonzero:
        value = 1
    else:  # one nonzero slot s is the pair s, s + 1 with m_{s+1} = 0
        (s, m_s), (t, m_t) = (nonzero + [(nonzero[0][0] + 1, 0)])[:2]
        value = geode.geode_closed_two_nonzero(s, t, m_s + m_t + 1, m_t)
    return _write_output(lambda stdout: print(value, file=stdout))


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # argparse runs the verify subparser only on what follows a `verify`
    # token, so a command line without one never needs the suites
    parser = _build_parser("verify" in argv)
    # -h prints its help and exits here, under the output guard (_Parser)
    args = parser.parse_args(argv)
    if args.command == "table":
        return _cmd_table(args, parser)
    if args.command == "coeff":
        return _cmd_coeff(args, parser)
    from .verify import _cmd_verify

    return _cmd_verify(args, parser)


# The names of the suite registry that the benchmark harness reads through
# this module; everything else of `verify` is read from ``geodenums.verify``.
_FORWARDED = ("SUITE_NAMES", "DEFAULT_THM3_A", "DEFAULT_WZ2_A", "suite_thm2", "suite_two_nonzero")


def __getattr__(name: str):
    """A name of _FORWARDED, read from ``geodenums.verify`` on first use."""
    if name not in _FORWARDED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import verify

    return getattr(verify, name)


if __name__ == "__main__":
    sys.exit(main())
