"""Smoke test for the benchmark itself (not part of the package's test suite).

    python3 perfbench/smoke.py

Runs every workload for one block, untraced and traced, and checks that each
run exits 0 with a correct result whose metric names and units are exactly
those BENCHMARK.json lists for that mode.  Then checks that a directory
holding only BENCHMARK.json and the benchmark's files makes run.py fail
without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--blocks", "1"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            if printed != expected[trace]:
                unknown = sorted(set(printed) - set(expected[trace]))
                missing = sorted(set(expected[trace]) - set(printed))
                problems.append(f"{label}: not in BENCHMARK.json {unknown}, "
                                f"not printed {missing}, or units differ")
            print(f"ok   {label}: {len(printed)} metrics, attempted={result['attempted']}, "
                  f"failed={result['failed']}")
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
        else:
            print(f"ok   bare directory: exit {proc.returncode}, no result printed")
    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
