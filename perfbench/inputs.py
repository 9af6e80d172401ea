"""Seeded inputs for the benchmark workloads.

Everything here is the benchmark's own numpy code: Haar unitaries, damped
two-Kraus channels and Ginibre densities are drawn from ``numpy.random`` and
written in qoneshot's documented text formats (a ``dim``/``layout`` header
and rows of 17-digit ``re,im`` pairs; channels add ``channel kraus`` and
``kraus <i>`` blocks).  The program under test only ever sees these files
and the argv built beside them.

A workload is a fixed *round* of command templates.  Round ``r`` of seed
``s`` draws its inputs from ``default_rng([s, r])``, so the same seed always
gives the same files and every round's files are fresh: no input repeats
within a run, and rounds can be written on demand in any order.
"""

from __future__ import annotations

import dataclasses
import math
import os
from typing import Callable

import numpy as np

QUBIT_IN = "a:2"
QUBIT_OUT = "b:2"
BIPARTITE = "a:2 r:2"


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def ginibre(rng, rows: int, cols: int) -> np.ndarray:
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def haar_unitary(rng, dim: int) -> np.ndarray:
    """QR of a Ginibre matrix with the R-diagonal phases divided out, which
    makes the distribution exactly Haar."""
    q, r = np.linalg.qr(ginibre(rng, dim, dim))
    ph = np.diag(r) / np.abs(np.diag(r))
    return q * ph


def ginibre_density(rng, dim: int) -> np.ndarray:
    g = ginibre(rng, dim, dim)
    m = g @ g.conj().T
    return m / np.trace(m).real


def pure_density(rng, dim: int) -> np.ndarray:
    v = ginibre(rng, dim, 1)[:, 0]
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------

def _rows(a: np.ndarray) -> list[str]:
    return [" ".join(f"{x.real:.17g},{x.imag:.17g}" for x in row) for row in a]


def write_matrix(path: str, a: np.ndarray, layout: str | None = None) -> str:
    lines = [f"dim {a.shape[0]}"]
    if layout is not None:
        lines.append(f"layout {layout}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines + _rows(a)) + "\n")
    return path


def write_channel(path: str, kraus: list[np.ndarray], in_layout: str, out_layout: str) -> str:
    lines = [f"channel kraus {len(kraus)}", f"in_layout {in_layout}", f"out_layout {out_layout}"]
    for i, k in enumerate(kraus):
        lines.append(f"kraus {i}")
        lines += _rows(k)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# command templates: each writes its files under ``base`` and returns argv
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Template:
    """One command shape of a workload round.  ``make(rng, base)`` writes
    the command's fresh input files under the path prefix ``base`` and
    returns its argv; ``members`` is the channel-family size, if any."""

    label: str
    make: Callable
    members: int = 0


def _family(rng, base: str, size: int, draw) -> str:
    return ",".join(
        write_channel(f"{base}-ch{k}.txt", draw(rng), QUBIT_IN, QUBIT_OUT)
        for k in range(size)
    )


def unitary_member(rng) -> list[np.ndarray]:
    return [haar_unitary(rng, 2)]


def damped_member(rng, gamma: float = 0.2) -> list[np.ndarray]:
    """Kraus operators of amplitude damping of strength ``gamma`` between
    two Haar unitaries, i.e. the environment slices of its Stinespring
    isometry.  The divergence solvers' cost on this two-Kraus family varies
    far less from draw to draw (about +-12% per ``rates`` command) than on
    the slices of a Haar-random isometry (1.3 s to 8.5 s per command on a
    2-core x86-64 box)."""
    u, w = haar_unitary(rng, 2), haar_unitary(rng, 2)
    k0 = u @ np.diag([1.0, math.sqrt(1.0 - gamma)]) @ w
    k1 = u @ np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]]) @ w
    return [k0, k1]


def rates(size: int, draw) -> Template:
    def make(rng, base):
        return ["rates", "--channels", _family(rng, base, size, draw),
                "--eps", "0.2", "--eta", "0.05",
                "--sweep-step", "0.1", "--gap-tol", "1e-4"]
    return Template(f"rates-s{size}-{draw.__name__}", make, size)


def compound_sim(size: int) -> Template:
    def make(rng, base):
        state = write_matrix(f"{base}-psi.txt", pure_density(rng, 4), BIPARTITE)
        return ["compound-sim", "--channels", _family(rng, base, size, damped_member),
                "--state", state, "--rate", "3", "--eps", "0.2", "--eta", "0.05"]
    return Template(f"compound-sim-s{size}", make, size)


def informed_sim(size: int) -> Template:
    def make(rng, base):
        states = ",".join(
            write_matrix(f"{base}-psi{k}.txt", pure_density(rng, 4), BIPARTITE)
            for k in range(size)
        )
        return ["informed-sim", "--channels", _family(rng, base, size, damped_member),
                "--states", states, "--rate", "2", "--eps", "0.2", "--eta", "0.05"]
    return Template(f"informed-sim-s{size}", make, size)


def composite(n_s1: int, n_s2: int, copies: int, delta: float = 0.1,
              net_deficit: float | None = None) -> Template:
    def make(rng, base):
        s1 = ",".join(write_matrix(f"{base}-p{k}.txt", ginibre_density(rng, 2), QUBIT_IN)
                      for k in range(n_s1))
        s2 = ",".join(write_matrix(f"{base}-q{k}.txt", ginibre_density(rng, 2), QUBIT_IN)
                      for k in range(n_s2))
        argv = ["composite", "--s1", s1, "--s2", s2, "--n", str(copies),
                "--eps", "0.2", "--delta", str(delta)]
        if net_deficit is not None:
            argv += ["--net-deficit", str(net_deficit)]
        return argv
    net = "" if net_deficit is None else "-net"
    return Template(f"composite-{n_s1}x{n_s2}-n{copies}{net}", make)


def net_validate(deficit: float, samples: int) -> Template:
    def make(rng, base):
        return ["net-validate", "--deficit", str(deficit), "--samples", str(samples),
                "--seed", str(int(rng.integers(2 ** 63)))]
    return Template(f"net-validate-{deficit}", make)


def union_stress(s: int, dim: int, trials: int) -> Template:
    def make(rng, base):
        return ["union-stress", "--s", str(s), "--delta", "0.1", "--dim", str(dim),
                "--trials", str(trials), "--seed", str(int(rng.integers(2 ** 63)))]
    return Template(f"union-stress-s{s}-d{dim}", make)


def write_round(templates, seed: int, index: int, workdir: str) -> list[dict]:
    """Write the files of round ``index`` and return its commands."""
    rng = np.random.default_rng([seed, index])
    commands = []
    for slot, t in enumerate(templates):
        base = os.path.join(workdir, f"r{index}-{slot}")
        out = f"{base}-out.json"
        commands.append({"label": t.label, "members": t.members,
                         "argv": t.make(rng, base) + ["--out", out], "out": out})
    return commands
