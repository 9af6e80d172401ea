"""Child process of the benchmark: ``setup`` writes a run's inputs, ``run``
executes them through ``qoneshot.cli.main`` in a closed loop.

Both import qoneshot from the checkout's ``src`` directory, never from an
installed copy.  ``run`` is always a fresh interpreter, so the library's
module-level caches start empty exactly as they do for a CLI user.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

SCHEMA = "qoneshot-result-1"


def _import_cli():
    from qoneshot import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"qoneshot imported from {cli.__file__}, not from {SRC}")
    return cli


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# output checks: the benchmark's own, beside the record's recorded checks
# ---------------------------------------------------------------------------

def _option(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _recomputed(argv: list[str], members: int, results: dict) -> list[str]:
    """Values the benchmark can derive from the argv alone."""
    kind = argv[0]
    problems = []
    if kind == "union-stress":
        s, delta = int(_option(argv, "--s")), float(_option(argv, "--delta"))
        width = math.log2(2 * s)
        if not math.isclose(results["operator_factor"], (2.0 / delta ** 2) ** width, rel_tol=1e-12):
            problems.append("operator_factor")
        if not math.isclose(results["acceptance_floor"], 0.9 - delta * width, rel_tol=1e-12):
            problems.append("acceptance_floor")
    elif kind == "rates":
        if len(results["points"]) != 9:
            problems.append("sweep_points")
    elif kind in ("compound-sim", "informed-sim"):
        # every channel simulated, with the guarantee and message count the
        # argv implies, and each within_bound flag true to its error
        bound = float(_option(argv, "--eps")) + 3.0 * float(_option(argv, "--eta"))
        if results["channel_indices"] != list(range(members)):
            problems.append("channel_indices")
        if not math.isclose(results["bound"], bound, rel_tol=1e-12):
            problems.append("bound")
        if results["num_messages"] != 2 ** math.ceil(float(_option(argv, "--rate"))):
            problems.append("num_messages")
        within = [e <= bound + 1e-9 for e in results["per_channel_error"]]
        if results["within_bound"] != within:
            problems.append("within_bound")
    elif kind == "composite":
        if not results["beta"]["value_bits"] >= 0.0:
            problems.append("value_bits")
    elif kind == "net-validate":
        if results["samples"] != int(_option(argv, "--samples")):
            problems.append("samples")
    return problems


def check(cmd: dict, code: int | None) -> dict:
    """Classify one finished command.

    ``failing`` names what made it a failed command (its recorded checks
    that did not pass, or ``exit_<code>``); ``problems`` names what makes
    its output wrong or inconsistent, which the benchmark reports as
    incorrect."""
    out = {"failing": [], "problems": [], "sha256": None}
    if code not in (0, 4):
        out["failing"] = out["problems"] = [f"exit_{code}"]
        return out
    try:
        raw = Path(cmd["out"]).read_bytes()
        rec = json.loads(raw)
        checks, ok = rec["checks"], rec["ok"]
    except (OSError, ValueError, KeyError, TypeError):
        out["failing"] = out["problems"] = ["unparsable_output"]
        return out
    out["sha256"] = hashlib.sha256(raw).hexdigest()
    out["failing"] = sorted(name for name, passed in checks.items() if not passed)
    consistent = (
        rec.get("schema") == SCHEMA
        and rec.get("command") == cmd["argv"][0]
        and ok == all(checks.values())
        and (code == 0) == ok
    )
    if not consistent:
        out["problems"].append("inconsistent_record")
    try:
        out["problems"] += _recomputed(cmd["argv"], cmd["members"], rec["results"])
    except (KeyError, TypeError, ValueError):
        out["problems"].append("malformed_results")
    return out


# ---------------------------------------------------------------------------
# per-layer summary of a traced run
# ---------------------------------------------------------------------------

def layer_metrics(tracer, commands: list[dict]) -> dict:
    from spans import LAYERS

    own = tracer.self_times()
    calls, self_s = Counter(), Counter()
    by_name = Counter()
    for span, t in zip(tracer.spans, own):
        calls[span[2]] += 1
        self_s[span[2]] += t
        by_name[span[3]] += 1
    eigh, work = Counter(), Counter()
    for (layer, _), n in tracer.eigh_calls.items():
        eigh[layer] += n
    for (layer, _), n in tracer.eigh_work_d3.items():
        work[layer] += n
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (calls[layer], "count")
        m[f"{layer}.self_s"] = (self_s[layer], "s")
        m[f"{layer}.eigh_calls"] = (eigh[layer], "count")
        m[f"{layer}.eigh_work_d3"] = (work[layer], "d3")

    ih = by_name["i_h"]
    m["divergences.eigh_per_ih"] = (
        tracer.eigh_calls[("divergences", "i_h")] / ih if ih else 0.0, "count/call")
    m["divergences.np_solves_per_ih"] = (
        tracer.iterations["i_h"] / ih if ih else 0.0, "count/call")
    m["divergences.slsqp_calls"] = (tracer.solver_calls["divergences", "minimize"], "count")

    rates_ops = {i for i, c in enumerate(commands) if c["argv"][0] == "rates"}
    points = sum(9 * commands[i]["members"] for i in rates_ops)
    ih_rates = sum(1 for s in tracer.spans if s[3] == "i_h" and s[0] in rates_ops)
    m["coding.decoder_dim_max"] = (tracer.decoder_dim_max, "dim")
    m["coding.simulations"] = (
        by_name["simulate_uninformed"] + by_name["simulate_informed"], "count")
    m["coding.ih_calls_per_channel_point"] = (ih_rates / points if points else 0.0, "ratio")

    composite_ops = sum(1 for c in commands if c["argv"][0] == "composite")
    m["composite.beta_exact_per_op"] = (
        by_name["beta_exact"] / composite_ops if composite_ops else 0.0, "count/op")
    m["composite.dual_evals"] = (tracer.iterations["beta_exact"], "count")
    m["composite.linprog_calls"] = (tracer.solver_calls["composite", "linprog"], "count")

    pairs = [s[5] - s[4] for s in tracer.spans if s[3] == "union_pair"]
    m["jordan.union_pair_calls"] = (len(pairs), "count")
    m["jordan.s_per_union_pair"] = (sum(pairs) / len(pairs) if pairs else 0.0, "s")
    return m


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def setup(args) -> None:
    _import_cli()
    from inputs import write_round
    from workloads import WORKLOADS

    templates = WORKLOADS[args.workload].templates
    os.makedirs(args.dir, exist_ok=True)
    commands = []
    for index in range(args.rounds):
        commands += write_round(templates, args.seed, index, args.dir)
    with open(os.path.join(args.dir, "commands.json"), "w") as fh:
        json.dump(commands, fh)


def run(args) -> None:
    cli = _import_cli()
    from speed import Reference

    with open(os.path.join(args.dir, "commands.json")) as fh:
        commands = json.load(fh)
    reference = Reference()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    kernel_s = []
    results = []
    for op, cmd in enumerate(commands):
        kernel_s.append(reference.sample())
        if tracer is not None:
            tracer.op = op
        Path(cmd["out"]).unlink(missing_ok=True)
        sink = io.StringIO()
        code = None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(cmd["argv"])
        except Exception:
            traceback.print_exc()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        results.append({"label": cmd["label"], "wall_s": wall, "cpu_s": cpu,
                        "exit": code, **check(cmd, code)})
    kernel_s.append(reference.sample())
    report = {
        "commands": results,
        "kernel_s": kernel_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if tracer is not None:
        report["layers"] = {k: list(v) for k, v in layer_metrics(tracer, commands).items()}
        tracer.dump(args.spans)
    with open(args.result, "w") as fh:
        json.dump(report, fh)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--dir", required=True)
    p = sub.add_parser("run")
    p.add_argument("--dir", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", help="where a traced run writes its spans")
    args = parser.parse_args()
    {"setup": setup, "run": run}[args.mode](args)


if __name__ == "__main__":
    main()
