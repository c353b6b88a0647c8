"""Benchmark for geodenums: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20     # every workload, one table
    python3 perfbench/run.py --smoke                          # tiny bounds, checks every metric

``--trace 0`` measures the end-to-end metrics: every pass runs in a fresh
process (cold caches) and passes repeat until ``--seconds`` is used up;
``setup_s`` is the median of several fresh interpreters importing the
package.  ``--trace 1`` runs one untraced and one traced pass and reports
the per-layer metrics.  Outputs are checked after each pass, without the
oracle (see ``checks.py``).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Each run also
writes its samples, stamp and (traced) spans under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import speed
from tracer import durations

BENCH_DIR = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
sys.path.insert(0, str(SRC))
try:
    import workloads
except ImportError as exc:
    sys.exit(f"error: cannot import geodenums from {SRC} ({exc}); run from a checkout's root")
if not Path(workloads.cli.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"error: geodenums imported from {workloads.cli.__file__}, not from {SRC}")

END_TO_END = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "hypercat.solve_s": "s",
    **{f"hypercat.solve.r{r}_s": "s" for r in range(1, 7)},
    "hypercat.residual_s": "s",
    "hypercat.terms": "count",
    "hypercat.max_coeff_bits": "bits",
    "hypercat.cache_hits": "count",
    "hypercat.cache_misses": "count",
    "hypercat.cache_hit_ratio": "ratio",
    "mpoly.mul_s": "s",
    "mpoly.divide_s": "s",
    "mpoly.divide_check_s": "s",
    "mpoly.substitute_s": "s",
    "mpoly.to_dict_s": "s",
    "geode.series_s": "s",
    "geode.factorization_s": "s",
    "geode.eval_s": "s",
    "identities.partition_sum_main_s": "s",
    "identities.claim_sums_s": "s",
    "identities.claim2_ct_s": "s",
    "identities.mult_vectors": "count",
    "wz.wz1_s": "s",
    "wz.wz2_s": "s",
    "wz.certificate_s": "s",
    **{f"cli.suite.{name}_s": "s" for name in workloads.SUITE_NAMES},
    "cli.table_s": "s",
    "cli.unattributed_frac": "ratio",
    "report.cases": "count",
    "trace.overhead_frac": "ratio",
}

MIN_PASSES = 3
# Set-up samples taken before each pass, so they spread over the whole run
# rather than one moment of it.
SETUP_SAMPLES_PER_PASS = 10
DEADLINE_S = 170.0  # one workload's run, so it ends within three minutes


class Context:
    """Where one benchmark invocation reads and writes, and its deadline."""

    def __init__(self, root: Path, smoke: bool) -> None:
        self.root = root
        self.src = root / "src"
        self.smoke = smoke
        self.work = root / ".perfbench"
        self.deadline = 0.0
        self.counter = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(self.src), env.get("PYTHONPATH")) if p)
        self.env = env
        from geodenums import hyper_catalan

        self.tables = checks.TableChecker(hyper_catalan)

    def remaining(self) -> float:
        return max(5.0, self.deadline - time.monotonic())


# ---------------------------------------------------------------------------
# child processes


def setup_probe(ctx: Context) -> tuple[float, float]:
    """Seconds from spawning an interpreter to geodenums imported, raw and
    normalised by speed probes the interpreter takes right after the import,
    on the core it ran on."""
    start = time.monotonic_ns()
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), "setup"],
        cwd=ctx.root, env=ctx.env, capture_output=True, text=True,
        timeout=ctx.remaining(), check=True,
    )
    clock, *probes = done.stdout.split()
    raw = (int(clock) - start) / 1e9
    return raw, raw * speed.scale([float(p) for p in probes])


def run_child(ctx: Context, mode: str, workload: str, seed: int) -> dict:
    """One pass in a fresh process, its outputs checked and then deleted.

    Adds to the child's own record: ``ops``/``failed`` (operations attempted
    and not passing), ``elapsed_s`` (sum of report case times per call),
    ``problems`` and ``spawn_s`` (the pass's wall time including start-up).
    """
    ctx.counter += 1
    tmp = ctx.work / "tmp" / f"{os.getpid()}-{ctx.counter}"
    tmp.mkdir(parents=True, exist_ok=True)
    spec = {"workload": workload, "seed": seed, "smoke": ctx.smoke,
            "src": str(ctx.src), "outdir": str(tmp)}
    (tmp / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    out_path = tmp / "out.json"
    start = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), mode, str(tmp / "spec.json"), str(out_path)],
            cwd=ctx.root, env=ctx.env, stdout=subprocess.DEVNULL, timeout=ctx.remaining(),
        )
        out = json.loads(out_path.read_text(encoding="utf-8")) if done.returncode == 0 else None
        problem = f"{mode} process exited with {done.returncode}"
    except subprocess.TimeoutExpired:
        out, problem = None, f"{mode} process timed out"
    spawn_s = time.monotonic() - start
    if out is None:
        shutil.rmtree(tmp, ignore_errors=True)
        return {"ops": 1, "failed": 1, "problems": [problem], "calls": [], "spawn_s": spawn_s}
    out["spawn_s"] = spawn_s
    out["ops"], out["failed"], out["problems"] = 0, 0, []
    for call in out["calls"]:
        check_call(ctx, call, out)
    for failure in out.get("failures", []):
        out["ops"] += 1
        out["failed"] += 1
        out["problems"].append(f"traced check failed: {failure}")
    shutil.rmtree(tmp, ignore_errors=True)
    return out


def check_call(ctx: Context, call: dict, out: dict) -> None:
    argv, path = call["argv"], call["path"]
    if argv[0] == "verify":
        ops, failed, elapsed, problems = checks.check_report(path)
        call["cases"], call["elapsed_s"] = ops, elapsed
    else:
        opt = dict(zip(argv[1::2], argv[2::2]))
        problem = ctx.tables.check(path, opt["--kind"], int(opt["--vars"]),
                                   int(opt["--max-degree"]), opt["--format"])
        ops, failed, problems = 1, int(problem is not None), [problem] if problem else []
    if call["rc"] != 0:
        problems.append(f"{' '.join(argv)} exited with {call['rc']}")
        failed = max(failed, 1)
    out["ops"] += ops
    out["failed"] += failed
    out["problems"] += problems


# ---------------------------------------------------------------------------
# metrics


def untraced_run(ctx: Context, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    setup_probe(ctx)  # compiles bytecode once, as an installed package would have
    setup, passes = [], []
    start = time.monotonic()
    while True:
        setup += [setup_probe(ctx) for _ in range(SETUP_SAMPLES_PER_PASS)]
        passes.append(run_child(ctx, "pass", workload, seed))
        if ctx.smoke or "wall_s" not in passes[-1]:  # the pass process failed
            break
        estimate = statistics.median(p["spawn_s"] for p in passes)
        if len(passes) >= MIN_PASSES and time.monotonic() - start + estimate / 2 > seconds:
            break
        if time.monotonic() + estimate > ctx.deadline:
            break
    timed = [p for p in passes if "wall_s" in p]
    wall = [p["wall_s"] * speed.scale(p["probes"]) for p in timed]
    metrics = {} if not timed else {
        "wall_s": statistics.median(wall),
        "ops_per_s": statistics.median(p["ops"] / w for p, w in zip(timed, wall)),
        "peak_rss_mb": statistics.median(p["maxrss_kb"] / 1024 for p in timed),
        "setup_s": statistics.median(s for _, s in setup),
    }
    samples = {
        "setup_s": [s for _, s in setup], "raw_setup_s": [r for r, _ in setup],
        "wall_s": wall, "raw_wall_s": [p["wall_s"] for p in timed],
        "probe_scale": [speed.scale(p["probes"]) for p in timed],
        "peak_rss_mb": [p["maxrss_kb"] / 1024 for p in timed], "passes": len(passes),
    }
    return metrics, {"runs": passes, "samples": samples}


def traced_run(ctx: Context, workload: str, seed: int) -> tuple[dict, dict]:
    base = run_child(ctx, "pass", workload, seed)
    traced = run_child(ctx, "trace", workload, seed)
    if "spans" not in traced or "wall_s" not in base:
        return {}, {"runs": [base, traced]}
    spans = traced["spans"]
    dur, selft, extra = durations(spans)
    m = dict.fromkeys(PER_LAYER, 0.0)
    for s in spans:
        name, i = s["name"], s["id"]
        if name == "hypercat.solve":
            m["hypercat.solve_s"] += selft[i]
            m[f"hypercat.solve.r{s['attrs']['r']}_s"] += selft[i]
        elif name == "cli.table" or name.startswith("cli.suite."):
            m[name + "_s"] += dur[i] - extra[i]  # inclusive of the tables it needs
        elif name + "_s" in m:
            m[name + "_s"] += selft[i]

    cache = base.get("cache") or {"hits": 0, "misses": 0}
    m["hypercat.cache_hits"] = cache["hits"]
    m["hypercat.cache_misses"] = cache["misses"]
    m["hypercat.cache_hit_ratio"] = cache["hits"] / max(1, cache["hits"] + cache["misses"])
    m["hypercat.terms"] = traced["stats"]["terms"]
    m["hypercat.max_coeff_bits"] = traced["stats"]["max_coeff_bits"]
    m["identities.mult_vectors"] = traced["stats"]["mult_vectors"]
    m["report.cases"] = sum(c.get("cases", 0) for c in traced["calls"])

    # Report time the verify reports account for, over the untraced pass,
    # whose suites build their own tables.
    verify = [c for c in base["calls"] if "elapsed_s" in c]
    wall = sum(c["wall_s"] for c in verify)
    m["cli.unattributed_frac"] = 1 - sum(c["elapsed_s"] for c in verify) / wall if wall else 0.0

    roots = [s["id"] for s in spans if s["parent"] is None]
    workload_s = traced["wall_s"] - sum(extra[i] for i in roots)
    m["trace.overhead_frac"] = workload_s / base["wall_s"] - 1
    details = {
        "runs": [base, traced],
        "untraced_wall_s": base["wall_s"],
        "traced_workload_s": workload_s,
        "span_coverage": sum(dur[i] - extra[i] for i in roots) / workload_s,
        "extra_s": sum(extra[i] for i in roots),
    }
    return m, details


# ---------------------------------------------------------------------------
# stamping and output


def _digest(base: Path, pattern: str) -> str:
    h = hashlib.sha256()
    for path in sorted(base.rglob(pattern)):
        h.update(path.relative_to(base).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stamp(ctx: Context, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Identity of a result set.  Two sets are comparable only when every
    field but ``commit``, ``source_sha256`` and ``seed`` matches."""
    return {
        "commit": _commit(ctx.root),
        "source_sha256": _digest(ctx.src, "*.py"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "settings": {
            "workload": workload, "seconds": seconds, "trace": trace, "smoke": ctx.smoke,
            "min_passes": MIN_PASSES, "setup_samples_per_pass": SETUP_SAMPLES_PER_PASS,
            "reference_probe_s": speed.REFERENCE_PROBE_S, "probe_interval_s": speed.INTERVAL_S,
            "bench_sha256": _digest(BENCH_DIR, "*.py"),
        },
        "seed": seed,
    }


def run_one(ctx: Context, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload, print its metrics by name, save the result set."""
    ctx.deadline = time.monotonic() + DEADLINE_S
    print(f"# geodenums bench: workload={workload} seed={seed} seconds={seconds} trace={trace}")
    if trace:
        metrics, details = traced_run(ctx, workload, seed)
        units = PER_LAYER
    else:
        metrics, details = untraced_run(ctx, workload, seed, seconds)
        units = END_TO_END
    runs = details["runs"]
    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    result = {
        "correct": failed == 0 and len(metrics) == len(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
    }
    info = stamp(ctx, workload, seed, seconds, trace)
    print("# stamp " + json.dumps(info, sort_keys=True))
    if workload == "tables":
        shares = workloads.table_requests(seed, ctx.smoke)[1]
        print("# tables requests by cache class: " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
    if trace:
        print(f"# traced: untraced pass {details.get('untraced_wall_s', 0):.3f} s, workload spans "
              f"{details.get('traced_workload_s', 0):.3f} s (coverage {details.get('span_coverage', 0):.4f}),"
              f" bench-only spans {details.get('extra_s', 0):.3f} s")
    elif details["samples"]["wall_s"]:
        samples = details["samples"]
        print(f"# {samples['passes']} passes, {len(samples['setup_s'])} set-up samples; raw medians"
              f" wall_s {statistics.median(samples['raw_wall_s']):.4f} s, setup_s"
              f" {statistics.median(samples['raw_setup_s']):.4f} s; probe scale per pass "
              + " ".join(f"{x:.3f}" for x in samples["probe_scale"]))
    for name, unit in units.items():
        if name in metrics:
            print(f"{name:34s} {metrics[name]:14.6g} {unit}")
    print(f"{'failed_frac':34s} {failed / max(1, attempted):14.6g} ratio  ({failed} of {attempted})")
    for problem in problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)

    saved = {"stamp": info, "result": result, "problems": problems}
    if trace and "spans" in runs[-1]:
        saved["spans"] = runs[-1]["spans"]
    else:
        saved["samples"] = details.get("samples")
    out = ctx.work / "results" / f"{workload}-seed{seed}-trace{trace}-{time.time_ns()}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(saved), encoding="utf-8")
    return result


def smoke(ctx: Context) -> int:
    """Every workload once at tiny bounds, traced and untraced; fails unless
    every metric is present with its unit and every output is correct."""
    bad = []
    for workload in workloads.WORKLOADS:
        for trace, units in ((0, END_TO_END), (1, PER_LAYER)):
            result = run_one(ctx, workload, 1, 1, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != units:
                bad.append(f"{workload} trace={trace}: metrics {sorted(set(units) ^ set(got))} missing or wrong")
            if not result["correct"]:
                bad.append(f"{workload} trace={trace}: outputs not correct")
    for line in bad:
        print(f"smoke: {line}", file=sys.stderr)
    print(json.dumps({"correct": not bad, "attempted": 6, "failed": len(bad), "metrics": {}}))
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload once at tiny bounds")
    args = parser.parse_args(argv)

    ctx = Context(SRC.parent, args.smoke)
    try:
        if args.smoke:
            return smoke(ctx)
        if args.workload != "all":
            print(json.dumps(run_one(ctx, args.workload, args.seed, args.seconds, args.trace)))
            return 0
        merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in workloads.WORKLOADS:
            result = run_one(ctx, workload, args.seed, args.seconds, args.trace)
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            merged["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
        print(json.dumps(merged))
        return 0
    finally:
        shutil.rmtree(ctx.work / "tmp", ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
