"""qoneshot benchmark: one caller drives ``qoneshot.cli.main`` in a closed
loop over freshly generated, seeded input files.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; qoneshot is imported from ``src/``.
With ``--trace 0`` it times ``setup_s`` (a fresh interpreter importing
qoneshot and writing the run's input files, several times, median) and the
end-to-end metrics of one untraced closed-loop run.  With ``--trace 1`` it
runs a shorter set of inputs once with layer spans installed and once more
untraced in a fresh interpreter, and reports the per-layer metrics, the
tracing overhead, and whether both passes wrote byte-identical results.
Times are scaled to a nominal box speed measured by the reference kernel in
``speed.py`` (except where a workload opts out); the raw figures are
printed in the details.

The last stdout line is the result object; the line before it holds the
details: environment stamp, failure tally, tail percentile and sample count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
# one BLAS thread: the steadiest choice on a small shared box, and the
# library's results do not depend on the thread count
BLAS_THREADS = "1"
DEADLINE_S = 170.0
# set before numpy loads, for the reference kernel here and every child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ["PYTHONHASHSEED"] = "0"

sys.path.insert(0, str(HERE))
from speed import Reference, scale  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Runner:
    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.reference = Reference()

    def _call(self, *args: str) -> float:
        """Run ``worker.py`` with ``args``; return its wall time."""
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, check=True,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )
        return time.perf_counter() - t0

    def setup(self, rounds: int) -> tuple[float, float]:
        """Scaled and raw wall time of one set-up; the scale comes from
        kernel samples taken just before and just after it."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        before = self.reference.sample()
        wall = self._call("setup", "--workload", self.workload, "--seed", str(self.seed),
                          "--rounds", str(rounds), "--dir", str(self.workdir))
        return scale(wall, (before + self.reference.sample()) / 2), wall

    def run(self, trace: int) -> dict:
        result = self.workdir / f"result-{trace}.json"
        self._call("run", "--dir", str(self.workdir), "--trace", str(trace),
                   "--result", str(result),
                   "--spans", str(WORK / f"spans-{self.workload}.json"))
        with open(result) as fh:
            return json.load(fh)


def tail(times: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten commands beyond it
    (nearest rank), or the maximum when there are too few commands."""
    ordered, n = sorted(times), len(times)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            return ordered[rank - 1], pct
    return ordered[-1], 100


def _local_kernel(kernel_s: list[float], i: int) -> float:
    """Kernel time around command ``i``: samples ``i`` (just before it) and
    ``i + 1`` (just after), with two more on each side."""
    return statistics.median(kernel_s[max(0, i - 2):i + 4])


def _times(report: dict, key: str, scaled: bool) -> list[float]:
    """Per-command times, scaled by the kernel time around each command
    unless the workload reports them as measured."""
    values = [c[key] for c in report["commands"]]
    if not scaled:
        return values
    k = report["kernel_s"]
    return [scale(v, _local_kernel(k, i)) for i, v in enumerate(values)]


def _timings(walls: list[float], cpus: list[float]) -> dict:
    return {
        "ops_per_s": (len(walls) / sum(walls), "1/s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_tail_s": (tail(walls)[0], "s"),
        "cpu_s_per_op": (sum(cpus) / len(cpus), "s"),
    }


def end_to_end(report: dict, setups: list[tuple[float, float]], scaled: bool) -> tuple[dict, dict]:
    walls = _times(report, "wall_s", False)
    cpus = _times(report, "cpu_s", False)
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        **_timings(_times(report, "wall_s", scaled), _times(report, "cpu_s", scaled)),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    raw = {k: v for k, (v, _) in _timings(walls, cpus).items()}
    raw["setup_s"] = statistics.median(w for _, w in setups)
    detail = {"op_tail_pct": tail(walls)[1], "samples": len(walls),
              "measured_s": sum(walls), "raw": raw,
              "kernel_median_s": statistics.median(report["kernel_s"])}
    return metrics, detail


def traced(first: dict, second: dict, scaled: bool) -> tuple[dict, dict]:
    speed = scale(1.0, statistics.median(first["kernel_s"])) if scaled else 1.0
    metrics = {k: (v * speed if u == "s" else v, u) for k, (v, u) in first["layers"].items()}
    ops_traced = len(first["commands"]) / sum(_times(first, "wall_s", scaled))
    ops_plain = len(second["commands"]) / sum(_times(second, "wall_s", scaled))
    metrics["trace.overhead_frac"] = ((ops_plain - ops_traced) / ops_plain, "fraction")
    failed = sum(1 for c in first["commands"] if c["failing"])
    metrics["cli.failed_frac"] = (failed / len(first["commands"]), "fraction")
    mismatched = [
        a["label"] for a, b in zip(first["commands"], second["commands"])
        if a["sha256"] is None or a["sha256"] != b["sha256"]
    ]
    return metrics, {"samples": len(first["commands"]), "nondeterministic": mismatched}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "qoneshot" / "cli.py").is_file():
        print(f"no qoneshot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    runner = Runner(args.workload, args.seed,
                    WORK / f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.trace:
            # per-layer figures need no bound, so two short passes over the
            # same inputs: a quarter of the untraced run's work each
            rounds = workload.rounds(args.seconds / 4)
            runner.setup(rounds)
            first = runner.run(trace=1)
            metrics, detail = traced(first, runner.run(trace=0), workload.scaled)
        else:
            rounds = workload.rounds(args.seconds)
            setups = [runner.setup(rounds) for _ in range(SETUP_REPEATS)]
            first = runner.run(trace=0)
            metrics, detail = end_to_end(first, setups, workload.scaled)
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)

    commands = first["commands"]
    failing = Counter(name for c in commands for name in c["failing"])
    problems = Counter(name for c in commands for name in c["problems"])
    unexpected = sorted(set(failing) - workload.known_failures)
    detail.update({
        "workload": args.workload, "seed": args.seed, "rounds": rounds,
        "environment": first["environment"],
        "failing_checks": dict(sorted(failing.items())),
        "unexpected_failures": unexpected,
        "problems": dict(sorted(problems.items())),
    })
    correct = not problems and not unexpected and not detail.get("nondeterministic")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(commands),
        "failed": sum(1 for c in commands if c["failing"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
