"""Golden digests of `verify` reports.

Each pinned command line runs in process; its exit code, its stdout and its
`--report` file, with every case's `elapsed_ms` removed, are hashed
together.  A change that is meant to keep these outputs identical is
checked against the digests; a change that means to alter one updates its
digest here and says why.  `PYTHONPATH=src python tests/test_golden.py`
prints the digests of the current tree.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from geodenums import cli

# sha256 of the masked outputs of `geodenums verify <request>`: every suite
# named alone runs at its defaults; the requests with flags are the five
# of the benchmark's `identities` workload.
REPORT_SHA256 = {
    "wz1": "cd775635d86ea134e4cdc80e0750a4f5d739387f8afd46efe3c2da0b77bcef9f",
    "wz2": "53e3f1bb0443289646bd62fd82415b5929699385d127015dbc1533bf7e860f87",
    "certificate": "4d12e7de21e7d4d1cf3a1272c1bb418975baf5b381365ce3d809a13b40501c5d",
    "all": "1056cddeba9fdf7dbd9623810d11f0891b7a44fd5020cc21c543121061347341",
    "wz1 --max-n 250": "37629e7e55cdd024ee92e729677fa610dc174e5b4b57f03e199702474ab14e5e",
    "wz2 --max-n 120": "00ccfee102474f33c33320dde66980fc011c7eaec34fb3af8028a99964324cbc",
    "certificate --max-n 120": "840e1bbc2e51cca402eec33a8cfb5a6f40f518c2dd01dfe0a5a136eaa11ca22a",
    "eq31 --max-n 8 --max-a 4": "b9a4bdff25de2e3544631d7fd70cd33eec25e5252b737c91d12f88865cfc5ab6",
    "claims --max-n 8 --max-a 3": "4000ddbcc8939564eb8c53f0f622eab496e815088074881a40584e94276c0354",
}


def masked_digest(request: str, directory: Path) -> str:
    """The sha256 of `verify <request>`'s exit code, stdout and report, with
    every `elapsed_ms` removed from the report."""
    path = directory / "report.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["verify", *request.split(), "--report", str(path)])
    report = json.loads(path.read_text(encoding="utf-8"))
    for case in report["cases"]:
        del case["elapsed_ms"]
    masked = json.dumps({"exit": code, "stdout": stdout.getvalue(), "report": report}, indent=2)
    return hashlib.sha256(masked.encode()).hexdigest()


@pytest.mark.parametrize("request_line", sorted(REPORT_SHA256))
def test_report_equals_its_golden_digest(request_line, tmp_path):
    assert masked_digest(request_line, tmp_path) == REPORT_SHA256[request_line]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        for line in REPORT_SHA256:
            print(f'    "{line}": "{masked_digest(line, Path(scratch))}",')
