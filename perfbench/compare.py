"""Compare two sets of saved benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the result files a set of runs wrote (by default
under ``.perfbench/results/``).  Runs are grouped by workload and trace
mode; two groups are compared only when their stamps agree on everything
but the commit, the source digest and the seed: Python version, core
count, CPU model and the benchmark's settings and code.  For every metric
it prints both medians, their ratio and each side's quartile spread.
Exits 2 when the sets cannot be compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def comparable(stamp: dict) -> str:
    """The part of a stamp two compared runs must share."""
    kept = {k: v for k, v in stamp.items() if k not in ("commit", "source_sha256", "seed")}
    return json.dumps(kept, sort_keys=True)


def load(directory: str) -> dict[tuple, dict]:
    groups: dict[tuple, dict] = {}
    for path in sorted(Path(directory).glob("*.json")):
        saved = json.loads(path.read_text(encoding="utf-8"))
        settings = saved["stamp"]["settings"]
        group = groups.setdefault((settings["workload"], settings["trace"]),
                                  {"stamps": set(), "metrics": {}})
        group["stamps"].add(comparable(saved["stamp"]))
        for name, metric in saved["result"]["metrics"].items():
            group["metrics"].setdefault(name, (metric["unit"], []))[1].append(metric["value"])
    return groups


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values) if statistics.median(values) else float("nan")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    status = 0
    for key in sorted(set(base) & set(new)):
        stamps = base[key]["stamps"] | new[key]["stamps"]
        if len(stamps) != 1:
            print(f"{key[0]} trace={key[1]}: stamps differ, not compared:", file=sys.stderr)
            for stamp in sorted(stamps):
                print(f"  {stamp}", file=sys.stderr)
            status = 2
            continue
        print(f"# {key[0]} trace={key[1]}")
        for name, (unit, values) in base[key]["metrics"].items():
            other = new[key]["metrics"].get(name, (unit, []))[1]
            if not values or not other:
                continue
            a, b = statistics.median(values), statistics.median(other)
            ratio = b / a if a else float("nan")
            print(f"{name:34s} {a:12.6g} -> {b:12.6g} {unit:6s} x{ratio:.4f}"
                  f"  spread {spread(values):.3f} / {spread(other):.3f}  n={len(values)}/{len(other)}")
    if not set(base) & set(new):
        print("no workload appears in both sets", file=sys.stderr)
        status = 2
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
