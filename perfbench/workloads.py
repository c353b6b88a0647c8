"""Workload definitions: the CLI requests each workload issues, and the
bottom-up kernel plan the traced run replays before each request.

A request is ``(request_id, span_name, argv, suffix, plan)``:

  * ``argv`` is what ``geodenums.cli.main`` receives, minus the output flag
    (``--report`` or ``--out`` plus a path), which the runner appends;
  * ``suffix`` is the output file's extension;
  * ``plan`` lists the kernel calls the request makes, as tuples replayed
    bottom-up by the traced run (see ``child.py``).

The plans follow the suites of ``geodenums.cli``: suite names and parameter
tuples are read from it, and only the per-suite default bounds, which the
CLI does not expose, are restated here.  If a suite changes what it builds,
the traced run stays correct: the suite then builds the missing tables
itself, and the time moves from the ``hypercat``/``geode`` spans into
``cli.suite.*`` self time.

Import this module with the package's source on ``sys.path``.
"""

from __future__ import annotations

import inspect
import random
from math import comb

from geodenums import cli
from geodenums.cli import DEFAULT_THM3_A, DEFAULT_WZ2_A, SUITE_NAMES

WORKLOADS = ("verify-all", "tables", "identities")

# Per-suite defaults of `geodenums verify`, keyed by CLI flag.
SUITE_DEFAULTS = {
    "thm1": {"max_degree": 12},
    "thm2": {"max_sum": 8},
    "thm3": {"max_order": 8},
    "eq31": {"max_n": 7, "max_a": 3},
    "claims": {"max_n": 7, "max_a": 3},
    "wz1": {"max_n": 200},
    "wz2": {"max_n": 100},
    "certificate": {"max_n": 100},
    "recurrence": {"max_vars": 4, "max_degree": 8},
    "two-nonzero": {"max_n": 7},
    "general-eval": {"max_order": 8},
    "oracle": {"max_vars": 4, "max_degree": 10},
}

# `verify all` at the default (acceptance) bounds; the smoke mode shrinks
# every bound through the flags `verify all` forwards to each suite.
VERIFY_ALL_FLAGS = {}
VERIFY_ALL_FLAGS_SMOKE = {
    "max_n": 3, "max_a": 1, "max_degree": 3, "max_order": 2, "max_sum": 2, "max_vars": 2,
}

# The oracle-free suites with bounds raised above their defaults.
IDENTITY_SUITES = {
    "eq31": {"max_n": 8, "max_a": 4},
    "claims": {"max_n": 8, "max_a": 3},
    "wz1": {"max_n": 250},
    "wz2": {"max_n": 120},
    "certificate": {"max_n": 120},
}
IDENTITY_SUITES_SMOKE = {
    "eq31": {"max_n": 3, "max_a": 2},
    "claims": {"max_n": 3, "max_a": 1},
    "wz1": {"max_n": 20},
    "wz2": {"max_n": 10},
    "certificate": {"max_n": 10},
}


def _default(function, parameter: str):
    return inspect.signature(function).parameters[parameter].default


THM2_A = _default(cli.suite_thm2, "a_values")
TWO_NONZERO_NVARS = max(t for _, t in _default(cli.suite_two_nonzero, "pairs"))


def _flags(bounds: dict) -> list[str]:
    out = []
    for key, value in bounds.items():
        out += ["--" + key.replace("_", "-"), str(value)]
    return out


def suite_plan(name: str, bounds: dict) -> list[tuple]:
    """Kernel calls suite `name` makes at `bounds` (flags over defaults)."""
    b = {**SUITE_DEFAULTS[name], **{k: v for k, v in bounds.items() if k in SUITE_DEFAULTS[name]}}
    if name == "thm1":
        return [("geode", 2, b["max_degree"])]
    if name == "thm2":
        return [("geode", a, b["max_sum"]) for a in THM2_A]
    if name == "thm3":
        o = b["max_order"]
        return [item for a in DEFAULT_THM3_A for item in (("geode", 2 * a, o), ("eval_alt", a, o))]
    if name == "eq31":
        return [("partition_sum_main", b["max_n"], b["max_a"])]
    if name == "claims":
        return [("claims", b["max_n"], b["max_a"])]
    if name == "wz1":
        return [("wz1", b["max_n"])]
    if name == "wz2":
        return [("wz2", a, b["max_n"]) for a in DEFAULT_WZ2_A]
    if name == "certificate":
        return [("certificate", b["max_n"])]
    if name == "recurrence":
        return [("geode", r, b["max_degree"] - 1) for r in range(1, b["max_vars"] + 1)]
    if name == "two-nonzero":
        return [("geode", TWO_NONZERO_NVARS, b["max_n"] - 1)]
    if name == "general-eval":
        o = b["max_order"]
        return [
            ("geode", 2, o), ("eval_gen", (3,), o),
            ("geode", 4, 6), ("eval_gen", (2, 3), 6),
            ("geode", 4, o), ("eval_gen", (1, 1), o),
        ]
    if name == "oracle":
        d = b["max_degree"]
        return [item for r in range(1, b["max_vars"] + 1) for item in (("solve", r, d), ("geode", r, d))]
    raise ValueError(f"unknown suite {name!r}")


def verify_request(name: str, bounds: dict) -> tuple:
    return (name, f"cli.suite.{name}", ["verify", name, *_flags(bounds)], ".json", suite_plan(name, bounds))


def table_requests(seed: int, smoke: bool = False) -> tuple[list[tuple], dict]:
    """Seeded `table` requests and the share of each cache class.

    The requests are the tables `verify all` builds, in the order it builds
    them: one request per `solve_S` or `geode_series` call its suites make
    (24 at the acceptance bounds, r = 1..6), as a `table --kind S` or
    `--kind G` request at the same truncation.  So the mix of repeats and
    nested truncations is the one the repository's own checks produce.  The
    seed picks each request's output format.  Classes are by solve key
    (r, degree), where G at degree d reads S at d + 1: ``repeat`` when the
    key was requested before, ``lower`` when r was built at a higher
    degree, ``fresh`` otherwise.
    """
    rng = random.Random(seed)
    flags = VERIFY_ALL_FLAGS_SMOKE if smoke else VERIFY_ALL_FLAGS
    builds = [item for name in SUITE_NAMES for item in suite_plan(name, flags) if item[0] in ("solve", "geode")]
    requests, seen, classes = [], set(), {"fresh": 0, "lower": 0, "repeat": 0}
    for kind, r, degree in builds:
        key = (r, degree if kind == "solve" else degree + 1)
        if key in seen:
            classes["repeat"] += 1
        elif max((d for (rr, d) in seen if rr == r), default=-1) > key[1]:
            classes["lower"] += 1
        else:
            classes["fresh"] += 1
        seen.add(key)
        fmt = rng.choice(("json", "csv"))
        argv = ["table", "--kind", "S" if kind == "solve" else "G", "--vars", str(r),
                "--max-degree", str(degree), "--format", fmt]
        requests.append((f"req{len(requests):02d}", "cli.table", argv, "." + fmt, [(kind, r, degree)]))
    n = len(requests)
    return requests, {c: v / n for c, v in classes.items()}


def pass_requests(workload: str, seed: int, smoke: bool, traced: bool) -> list[tuple]:
    """The requests of one pass of `workload`.

    The untraced verify-all pass is the single `verify all` call a user
    makes; the traced one issues the same suites one by one, so each suite
    gets its own span and its tables can be built bottom-up before it runs.
    """
    if workload == "verify-all":
        flags = VERIFY_ALL_FLAGS_SMOKE if smoke else VERIFY_ALL_FLAGS
        if not traced:
            return [("all", "cli.verify", ["verify", "all", *_flags(flags)], ".json", [])]
        return [verify_request(name, flags) for name in SUITE_NAMES]
    if workload == "tables":
        return table_requests(seed, smoke)[0]
    if workload == "identities":
        suites = IDENTITY_SUITES_SMOKE if smoke else IDENTITY_SUITES
        return [verify_request(name, bounds) for name, bounds in suites.items()]
    raise ValueError(f"unknown workload {workload!r}")


def mult_vector_count(length: int, max_part: int) -> int:
    """Number of multiplicity vectors with `length` parts each <= max_part."""
    return comb(length + max_part - 1, max_part - 1) if length >= 0 else 0
