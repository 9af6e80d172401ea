"""Smallest-size self-test of the benchmark.

    python3 perfbench/selftest.py [workload ...]

For each workload (default: all) it runs ``run.py --seconds 1`` untraced
and traced, and checks that the result line has exactly the contracted
keys and that every metric ``BENCHMARK.json`` names for that mode is
emitted with its unit and nothing else.  On ``union_stress`` it also runs
the traced mode twice and checks that every count repeats exactly, and it
checks that a copy holding only ``BENCHMARK.json`` and the benchmark's own
files exits non-zero without printing a result.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_UNITS = {"count", "d3", "dim", "count/call", "count/op", "ratio"}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(res: dict, expected: dict[str, str]) -> list[str]:
    errors = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(res)}")
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1
            and isinstance(res["failed"], int)):
        errors.append("attempted/failed not whole numbers")
    if res["correct"] is not True:
        errors.append("correct is not true")
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
        errors.append(f"metrics missing {missing} extra {extra} wrong units {wrong}")
    if not all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()):
        errors.append("non-numeric metric value")
    return errors


def bare_copy_fails() -> list[str]:
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("union_stress", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare copy: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    modes = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workloads = sys.argv[1:] or [w["name"] for w in spec["workloads"]]
    failures = []
    for workload in workloads:
        for trace in (0, 1):
            try:
                res = result_of(run(workload, trace))
                errors = check_result(res, modes[trace])
            except (AssertionError, ValueError, KeyError, IndexError) as exc:
                errors = [str(exc)]
            print(f"{workload} trace={trace}: {'ok' if not errors else errors}")
            failures += errors
    if "union_stress" in workloads:
        a, b = (result_of(run("union_stress", 1))["metrics"] for _ in range(2))
        differ = sorted(k for k, u in units.items()
                        if u in COUNT_UNITS and a[k]["value"] != b[k]["value"])
        print(f"union_stress counts repeat: {'ok' if not differ else differ}")
        failures += differ
    errors = bare_copy_fails()
    print(f"bare copy exits non-zero: {'ok' if not errors else errors}")
    failures += errors
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
