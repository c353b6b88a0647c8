"""Output checks that do not depend on the series oracle.

Run after a pass has ended, outside its timed window:

  * a verify report must hold at least one case, and every case must pass;
  * an S table must hold exactly the monomials of total degree <= its
    truncation, each with the closed-form coefficient ``hyper_catalan(m)``;
  * a G table must hold the same monomials and satisfy, layer by layer,
    ``sum_k G[m - e_k] = C[m]`` for every nonzero m one degree past its
    truncation.  (t_1 + ... + t_r) G = S - 1 has exactly one solution, so
    this pins down every coefficient of G.
"""

from __future__ import annotations

import csv
import hashlib
import json
from functools import lru_cache


def check_report(path: str) -> tuple[int, int, float, list[str]]:
    """(cases, failed cases, seconds the cases account for, problems) of one
    verify report.  An unreadable or inconsistent report counts as one
    failed case."""
    try:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
        cases = report["cases"]
        summary = report["summary"]
        elapsed = sum(c["elapsed_ms"] for c in cases) / 1000
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return 1, 1, 0.0, [f"{path}: unreadable report: {exc}"]
    failed = [c.get("id") for c in cases if c.get("status") != "pass"]
    problems = [f"{path}: case {cid} did not pass" for cid in failed[:5]]
    if not cases or summary.get("total") != len(cases) or summary.get("failed") != len(failed):
        problems.append(f"{path}: summary {summary} disagrees with its {len(cases)} cases")
        return max(len(cases), 1), max(len(failed), 1), elapsed, problems
    return len(cases), len(failed), elapsed, problems


def _exponents(nvars: int, total: int):
    if nvars == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _exponents(nvars - 1, total - head):
            yield (head,) + rest


def read_table(path: str, fmt: str) -> tuple[int | None, dict[tuple, int]]:
    """(declared truncation or None for CSV, terms) of a table file."""
    with open(path, encoding="utf-8", newline="") as handle:
        if fmt == "json":
            data = json.load(handle)
            return int(data["trunc"]), {tuple(t["exps"]): int(t["coeff"]) for t in data["terms"]}
        rows = list(csv.reader(handle))
    return None, {tuple(int(e) for e in row[:-1]): int(row[-1]) for row in rows[1:]}


class TableChecker:
    """Checks table files against the closed form.  Remembers C[m] values,
    and the verdict on each file content it has already checked."""

    def __init__(self, hyper_catalan) -> None:
        self.catalan = lru_cache(maxsize=None)(hyper_catalan)
        self.verdicts: dict[tuple, str | None] = {}

    def check(self, path: str, kind: str, nvars: int, degree: int, fmt: str) -> str | None:
        """None when the table is right, else the first problem found."""
        try:
            with open(path, "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
        except OSError as exc:
            return f"{path}: unreadable table: {exc}"
        key = (digest, kind, nvars, degree, fmt)
        if key not in self.verdicts:
            self.verdicts[key] = self._check(path, kind, nvars, degree, fmt)
        return self.verdicts[key]

    def _check(self, path: str, kind: str, nvars: int, degree: int, fmt: str) -> str | None:
        try:
            trunc, terms = read_table(path, fmt)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return f"{path}: unreadable table: {exc}"
        if trunc is not None and trunc != degree:
            return f"{path}: truncation {trunc}, requested {degree}"
        expected = [m for d in range(degree + 1) for m in _exponents(nvars, d)]
        if set(terms) != set(expected):
            return f"{path}: holds {len(terms)} monomials, expected the {len(expected)} of degree <= {degree}"
        if kind == "S":
            for m in expected:
                if terms[m] != self.catalan(m):
                    return f"{path}: C{list(m)} = {terms[m]}, closed form gives {self.catalan(m)}"
            return None
        for m in (m for d in range(1, degree + 2) for m in _exponents(nvars, d)):
            total = sum(terms[m[:k] + (e - 1,) + m[k + 1:]] for k, e in enumerate(m) if e)
            if total != self.catalan(m):
                return f"{path}: sum_k G[m - e_k] = {total} at m={list(m)}, C[m] = {self.catalan(m)}"
        return None
