"""Self-test of the benchmark harness, at tiny sizes (about a minute).

    python3 perfbench/selftest.py

From the root of a checkout. Checks that every workload, traced and
untraced, emits exactly the metrics BENCHMARK.json names, with its units;
that a wrong golden digest is counted as a failed op rather than crashing the
run; and the tail-percentile rule. Exits 0 when all hold.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import harness as H
import run
import workloads as W


def check_result(result: dict, spec: list[dict], label: str) -> list[str]:
    problems = []
    want = {m["name"]: m["unit"] for m in spec}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"{label}: metrics {sorted(set(got) ^ set(want))} missing or extra")
    for name, unit in want.items():
        entry = got.get(name, {})
        if entry.get("unit") != unit:
            problems.append(f"{label}: {name} has unit {entry.get('unit')!r}, expected {unit!r}")
        if not isinstance(entry.get("value"), (int, float)) or not math.isfinite(entry["value"]):
            problems.append(f"{label}: {name} value {entry.get('value')!r} is not a finite number")
    if not result["correct"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} attempted={result['attempted']}")
    return problems


def main() -> int:
    root = Path.cwd()
    H.use_source(root)
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for name in W.WORKLOADS:
        for trace, metrics in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result, detail = run.run(name, 1, 0.5, trace, root, tiny=True)
            problems += check_result(result, metrics, f"{name} trace={int(trace)}")
            problems += [f"{name}: {e}" for e in detail["errors"]]
            print(f"{name} trace={int(trace)}: attempted {result['attempted']}, "
                  f"failed {result['failed']}", flush=True)

    digests = [entry["sha256"] for entry in W.GOLDEN]
    try:
        for entry in W.GOLDEN:
            entry["sha256"] = "0" * 64
        result, detail = run.run("sample_bulk", 1, 0.5, False, root, tiny=True)
    finally:
        for entry, digest in zip(W.GOLDEN, digests):
            entry["sha256"] = digest
    if result["correct"] or result["failed"] < 1 or not any("golden" in e for e in detail["errors"]):
        problems.append(f"a wrong golden digest was not counted as a failure: {result}")

    if H.tail(range(100)) != {"value": 89, "percentile": 90.0, "samples": 100, "beyond": 10}:
        problems.append(f"tail of 100 samples: {H.tail(range(100))}")
    if H.tail(range(39)) is not None:
        problems.append("a tail was reported for 39 samples (percentile below 75)")

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
