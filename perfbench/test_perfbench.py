"""Tests of the benchmark itself.

    python3 -m pytest perfbench          (or: python3 -m unittest discover -s perfbench)

They cover the oracle-free output checks (a tampered table must be caught),
the seeded request generator, self-time accounting, the speed probe, the
smoke mode, and the refusal to run without the package's source.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from geodenums import cli, hyper_catalan  # noqa: E402
from tracer import Tracer, durations  # noqa: E402


def _table(path: Path, kind: str, nvars: int, degree: int, fmt: str) -> None:
    argv = ["table", "--kind", kind, "--vars", str(nvars), "--max-degree", str(degree),
            "--format", fmt, "--out", str(path)]
    assert cli.main(argv) == 0


class OutputChecks(unittest.TestCase):
    def setUp(self) -> None:
        self.tmp = Path(tempfile.mkdtemp())
        self.checker = checks.TableChecker(hyper_catalan)

    def tearDown(self) -> None:
        shutil.rmtree(self.tmp)

    def test_correct_tables_pass(self) -> None:
        for kind in "SG":
            for fmt in ("json", "csv"):
                path = self.tmp / f"{kind}.{fmt}"
                _table(path, kind, 3, 4, fmt)
                self.assertIsNone(self.checker.check(str(path), kind, 3, 4, fmt))

    def test_tampered_json_table_is_caught(self) -> None:
        for kind in "SG":
            path = self.tmp / f"{kind}.json"
            _table(path, kind, 2, 5, "json")
            data = json.loads(path.read_text())
            data["terms"][7]["coeff"] = str(int(data["terms"][7]["coeff"]) + 1)
            path.write_text(json.dumps(data))
            self.assertIsNotNone(self.checker.check(str(path), kind, 2, 5, "json"))

    def test_tampered_csv_table_is_caught(self) -> None:
        for kind in "SG":
            path = self.tmp / f"{kind}.csv"
            _table(path, kind, 3, 4, "csv")
            lines = path.read_text().splitlines()
            head, _, value = lines[-1].rpartition(",")
            lines[-1] = f"{head},{int(value) - 1}"
            path.write_text("\n".join(lines) + "\n")
            self.assertIsNotNone(self.checker.check(str(path), kind, 3, 4, "csv"))
            path.write_text("\n".join(lines[:-2]) + "\n")  # a missing monomial
            self.assertIsNotNone(self.checker.check(str(path), kind, 3, 4, "csv"))

    def test_wrong_truncation_is_caught(self) -> None:
        path = self.tmp / "S.json"
        _table(path, "S", 2, 4, "json")
        self.assertIsNotNone(self.checker.check(str(path), "S", 2, 5, "json"))

    def test_report_failures_are_counted(self) -> None:
        path = self.tmp / "report.json"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["verify", "eq31", "--max-n", "3", "--max-a", "2", "--report", str(path)])
        self.assertEqual(rc, 0)
        cases, failed, elapsed, problems = checks.check_report(str(path))
        self.assertEqual((cases, failed, problems), (6, 0, []))
        self.assertGreaterEqual(elapsed, 0)
        report = json.loads(path.read_text())
        report["summary"]["total"] = 7  # a summary that disagrees with its cases
        path.write_text(json.dumps(report))
        self.assertEqual(checks.check_report(str(path))[:2], (6, 1))
        report["summary"].update(total=6, passed=4, failed=2)
        report["cases"][2]["status"] = report["cases"][4]["status"] = "fail"
        path.write_text(json.dumps(report))
        self.assertEqual(checks.check_report(str(path))[:2], (6, 2))
        path.write_text("{")
        self.assertEqual(checks.check_report(str(path))[:2], (1, 1))


class Generator(unittest.TestCase):
    def test_same_seed_same_requests(self) -> None:
        self.assertEqual(workloads.table_requests(7), workloads.table_requests(7))
        self.assertNotEqual(workloads.table_requests(7)[0], workloads.table_requests(8)[0])

    def test_tables_are_the_ones_verify_all_builds(self) -> None:
        builds = [item for req in workloads.pass_requests("verify-all", 0, smoke=False, traced=True)
                  for item in req[4] if item[0] in ("solve", "geode")]
        for seed in range(3):
            requests, shares = workloads.table_requests(seed)
            self.assertEqual([item for req in requests for item in req[4]], builds)
            self.assertEqual(len(requests), 24)
            self.assertEqual({int(req[2][4]) for req in requests}, set(range(1, 7)))
            self.assertEqual({k: round(v * 24) for k, v in shares.items()},
                             {"fresh": 12, "lower": 8, "repeat": 4})

    def test_suite_plans_cover_every_suite(self) -> None:
        requests = workloads.pass_requests("verify-all", 0, smoke=False, traced=True)
        self.assertEqual([r[0] for r in requests], list(cli.SUITE_NAMES))
        self.assertIn(("geode", 6, 8), requests[2][4])


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_children_and_extra(self) -> None:
        spans = [
            {"id": 0, "name": "root", "parent": None, "extra": False, "start_ns": 0, "end_ns": 10_000_000_000},
            {"id": 1, "name": "a", "parent": 0, "extra": False, "start_ns": 1_000_000_000, "end_ns": 4_000_000_000},
            {"id": 2, "name": "b", "parent": 0, "extra": True, "start_ns": 5_000_000_000, "end_ns": 7_000_000_000},
        ]
        dur, selft, extra = durations(spans)
        self.assertEqual((dur[0], selft[0], extra[0]), (10.0, 5.0, 2.0))
        self.assertEqual((selft[1], extra[1]), (3.0, 0.0))

    def test_tracer_nests_spans(self) -> None:
        tr = Tracer()
        tr.request = "r1"
        with tr.span("outer"):
            with tr.span("inner", extra=True, k=1):
                pass
        self.assertEqual([s["parent"] for s in tr.spans], [None, 0])
        self.assertEqual(tr.spans[1]["attrs"], {"k": 1})
        self.assertTrue(all(s["request"] == "r1" and s["end_ns"] >= s["start_ns"] for s in tr.spans))


class SpeedProbe(unittest.TestCase):
    def test_scale_is_the_mean_rate_against_the_reference(self) -> None:
        ref = speed.REFERENCE_PROBE_S
        self.assertAlmostEqual(speed.scale([ref, ref]), 1.0)
        # half the time at twice the reference speed, half at the reference
        self.assertAlmostEqual(speed.scale([ref / 2, ref]), 1.5)

    def test_sampler_probes_during_the_block_and_restores_the_handler(self) -> None:
        import signal
        import time

        before = signal.getsignal(signal.SIGALRM)
        with speed.Sampler() as sampler:
            end = time.perf_counter() + 3.5 * speed.INTERVAL_S
            while time.perf_counter() < end:
                pass
        self.assertGreaterEqual(len(sampler.samples), 4)  # entry, exit and at least two ticks
        self.assertAlmostEqual(sampler.inside_s, sum(sampler.samples[1:-1]))
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class EndToEnd(unittest.TestCase):
    def test_benchmark_json_matches_the_metrics_reported(self) -> None:
        import run

        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_smoke_reports_every_metric(self) -> None:
        done = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                              capture_output=True, text=True, timeout=170)
        self.assertEqual(done.returncode, 0, done.stderr[-3000:])
        self.assertTrue(json.loads(done.stdout.splitlines()[-1])["correct"])

    def test_refuses_to_run_without_the_source(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
