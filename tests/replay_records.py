"""Replay benchmark commands through two source trees and compare their records.

    python tests/replay_records.py OLD_TREE NEW_TREE [--seeds 11 31] [--rounds 2]

Writes rounds ``0 .. rounds-1`` of each seed on every ``perfbench`` workload
(through ``perfbench/inputs.py`` and ``perfbench/workloads.py`` of this
checkout, which it only imports), plus a fixed set of extra commands that the
workloads do not reach: ``divergence`` of all six kinds, ``jordan-inspect``,
``pauli-example``, ``rates --state --states``, ``compound-sim`` with a qutrit
partner and ``informed-sim --message 2``.  Both trees read the same input
files.  Each tree runs every command through ``qoneshot.cli.main`` in one
fresh interpreter with one BLAS thread, importing qoneshot from its own
``src``.  The script prints each command whose exit code or record SHA-256
differs between the trees, then a summary line; it exits 0 when every
command agrees and 1 otherwise.  pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _extra_commands(workdir: str) -> list[dict]:
    """Commands outside the workloads, on inputs drawn from one fixed seed."""
    import numpy as np
    from inputs import (BIPARTITE, QUBIT_IN, damped_member, ginibre_density, haar_unitary,
                        pure_density, write_channel, write_matrix)

    rng = np.random.default_rng([7, 1706])
    base = os.path.join(workdir, "extra")
    rho = write_matrix(f"{base}-rho.txt", ginibre_density(rng, 2), QUBIT_IN)
    sigma = write_matrix(f"{base}-sigma.txt", ginibre_density(rng, 2), QUBIT_IN)
    joint = write_matrix(f"{base}-joint.txt", ginibre_density(rng, 4), BIPARTITE)
    projectors = []
    for k, rank in enumerate((2, 3)):
        q = haar_unitary(rng, 6)[:, :rank]
        projectors.append(write_matrix(f"{base}-p{k}.txt", q @ q.conj().T))
    channels = ",".join(write_channel(f"{base}-ch{k}.txt", damped_member(rng), QUBIT_IN, "b:2")
                        for k in range(2))
    states = [write_matrix(f"{base}-psi{k}.txt", pure_density(rng, 4), BIPARTITE)
              for k in range(2)]
    qutrit = write_matrix(f"{base}-psi3.txt", pure_density(rng, 6), "a:2 r:3")
    argvs = [
        *(["divergence", "--kind", kind, "--rho", rho, "--sigma", sigma, "--eps", "0.2"]
          for kind in ("re", "var", "dmax", "dh")),
        *(["divergence", "--kind", kind, "--rho", joint, "--eps", "0.2"]
          for kind in ("imax", "ih")),
        ["jordan-inspect", "--p1", projectors[0], "--p2", projectors[1]],
        ["pauli-example", "--eps", "0.1"],
        ["rates", "--channels", channels, "--state", states[0], "--states", ",".join(states),
         "--eps", "0.2", "--eta", "0.05", "--gap-tol", "1e-4"],
        ["compound-sim", "--channels", channels, "--state", qutrit, "--rate", "2",
         "--eps", "0.2", "--eta", "0.05"],
        ["informed-sim", "--channels", channels, "--states", ",".join(states), "--rate", "1",
         "--eps", "0.2", "--eta", "0.05", "--message", "2"],
    ]
    return [{"label": f"extra-{k}-{argv[0]}", "argv": argv} for k, argv in enumerate(argvs)]


def write_commands(workdir: str, seeds: list[int], rounds: int) -> list[dict]:
    sys.path.insert(0, str(PERFBENCH))
    from inputs import write_round
    from workloads import WORKLOADS

    commands = []
    for name, workload in WORKLOADS.items():
        for seed in seeds:
            for index in range(rounds):
                folder = os.path.join(workdir, f"{name}-{seed}")
                os.makedirs(folder, exist_ok=True)
                for slot, cmd in enumerate(write_round(workload.templates, seed, index, folder)):
                    # write_round appends "--out <path>"; each tree sets its own
                    commands.append({"label": f"{name} seed {seed} round {index} slot {slot}"
                                              f" {cmd['label']}", "argv": cmd["argv"][:-2]})
    return commands + _extra_commands(workdir)


def replay(tree: str, commands_path: str, outdir: str) -> list[dict]:
    """Run every command in ``tree`` in a fresh interpreter."""
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1"), "PYTHONHASHSEED": "0"}
    proc = subprocess.run(
        [sys.executable, __file__, "--child", tree, commands_path, outdir],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"replay in {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def child(tree: str, commands_path: str, outdir: str) -> None:
    src = Path(tree).resolve() / "src"
    sys.path.insert(0, str(src))
    from qoneshot import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"qoneshot imported from {cli.__file__}, not from {src}")
    with open(commands_path) as fh:
        commands = json.load(fh)
    outcomes = []
    for k, cmd in enumerate(commands):
        out = Path(outdir) / f"{k}.json"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([*cmd["argv"], "--out", str(out)])
        digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
        outcomes.append({"exit": code, "sha256": digest})
    json.dump(outcomes, sys.stdout)


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        child(*sys.argv[2:5])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="root of the first source tree")
    parser.add_argument("new", help="root of the second source tree")
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 31])
    parser.add_argument("--rounds", type=int, default=2)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="qoneshot-replay-") as workdir:
        commands = write_commands(workdir, args.seeds, args.rounds)
        commands_path = os.path.join(workdir, "commands.json")
        with open(commands_path, "w") as fh:
            json.dump(commands, fh)
        outcomes = []
        for side, tree in (("old", args.old), ("new", args.new)):
            outdir = os.path.join(workdir, side)
            os.makedirs(outdir)
            outcomes.append(replay(tree, commands_path, outdir))
    differing = 0
    for cmd, old, new in zip(commands, *outcomes):
        if old != new:
            differing += 1
            print(f"DIFFERS {cmd['label']}: exit {old['exit']} -> {new['exit']}, "
                  f"sha256 {str(old['sha256'])[:12]} -> {str(new['sha256'])[:12]}")
    exits = Counter(outcome["exit"] for outcome in outcomes[1])
    print(f"{len(commands)} commands, {differing} differ; exit codes {dict(sorted(exits.items()))}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
