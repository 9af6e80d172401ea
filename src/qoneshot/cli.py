"""Config-driven experiment runner with reproducible machine-readable output.

Each subcommand resolves its parameters from an optional structured text
config file (``key value`` lines, ``#`` comments) overlaid by command-line
flags, runs one experiment, and writes a JSON record with sorted keys, a
stable schema tag, and no timestamps — so the same configuration and seed
always produce a byte-identical file.  Every record echoes the resolved
parameters and the tolerances used, making downstream checks
self-describing.

Exit status encodes the outcome class:

* 0 — experiment ran and every recorded check passed
* 2 — configuration or input error (bad flags, files, ranges)
* 3 — a size cap was exceeded
* 4 — the experiment ran but a recorded check failed

The default output directory is taken from the ``QONESHOT_OUTPUT_DIR``
environment variable (falling back to the working directory) and the file
name is ``<command>.json``, with the seed appended for seeded commands.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import Callable, Sequence

import numpy as np

from .coding import (
    CodeParams,
    CompoundChannel,
    pauli_compound_example,
    rate_informed,
    shared_state_sweep,
    simulate_informed,
    simulate_uninformed,
    uninformed_rates,
)
from .composite import (
    CompositeInstance,
    beta_exact,
    build_universal_test,
    composite_record,
    epsilon_net,
    net_covering_report,
)
from .divergences import (
    StateEnsemble,
    bits,
    d_max,
    divergence_record,
    hypothesis_test_divergence,
    i_h,
    i_max,
    relative_entropy,
    relative_entropy_variance,
)
from .jordan import (
    check_delta,
    decomposition_report,
    decomposition_residuals,
    jordan_decompose,
    union_depth,
    union_of_ranges,
)
from .qcore import (
    ATOL,
    CapacityError,
    LayoutError,
    Projector,
    PureState,
    RegisterLayout,
    _eigh,
    _read_lines,
    load_channel,
    load_matrix,
    load_state,
    random_pure_state,
    rng_from,
)

SCHEMA = "qoneshot-result-1"
OUTPUT_DIR_ENV = "QONESHOT_OUTPUT_DIR"
EXIT_OK, EXIT_CONFIG, EXIT_CAPACITY, EXIT_ASSERTION = 0, 2, 3, 4

__all__ = ["ExperimentConfig", "main", "OUTPUT_DIR_ENV", "SCHEMA"]


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved invocation: command, seed, parameters, output."""

    command: str
    seed: int | None
    parameters: dict
    output: str | None


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _paths(text: str) -> tuple[str, ...]:
    parts = tuple(p for p in text.split(",") if p)
    if not parts:
        raise argparse.ArgumentTypeError("expected a comma-separated file list")
    return parts


@dataclasses.dataclass(frozen=True)
class _Param:
    name: str
    conv: Callable
    required: bool = False
    default: object = None
    help: str = ""


@dataclasses.dataclass(frozen=True)
class _Command:
    params: tuple
    runner: Callable
    needs_seed: bool
    summary: str


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in _read_lines(path):
        key, _, value = (part.strip() for part in line.partition(" "))
        if not value:
            raise ValueError(f"{path}:{lineno}: expected 'key value', got {line!r}")
        values[key.replace("-", "_")] = value
    return values


def _json_default(x):
    """numpy values as Python ones; ``np.float64`` needs no hook, being a
    ``float`` subclass that json writes with float's repr."""
    if isinstance(x, (np.ndarray, np.generic)):
        return x.tolist()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _load_pure(path: str) -> PureState:
    dm = load_state(path)  # checks Hermiticity, so eigh reads the top eigenpair
    w, v = _eigh(dm.a)
    if w[-1] < 1.0 - 1e-9:
        raise ValueError(f"{path}: expected a pure state, top weight {w[-1]:.6f}")
    return PureState(v[:, -1], dm.layout)


# ---------------------------------------------------------------------------
# runners: each returns (results, checks, tolerances)
# ---------------------------------------------------------------------------

def _run_divergence(p: dict, seed):
    kind = p["kind"]
    rho = load_state(p["rho"])
    needs_sigma = kind in ("re", "var", "dmax", "dh")
    needs_eps = kind in ("dh", "ih")
    if needs_sigma and p["sigma"] is None:
        raise ValueError(f"kind {kind!r} needs --sigma")
    if needs_eps and p["eps"] is None:
        raise ValueError(f"kind {kind!r} needs --eps")
    sigma = load_state(p["sigma"]) if needs_sigma else None
    inputs = {"rho": rho, "sigma": sigma} if needs_sigma else {"rho": rho}
    test = None
    if kind == "re":
        value = relative_entropy(rho.a, sigma.a)
    elif kind == "var":
        value = relative_entropy_variance(rho.a, sigma.a)
    elif kind == "dmax":
        value = d_max(rho.a, sigma.a)
    elif kind == "imax":
        value = i_max(rho)
    elif kind == "dh":
        value, test = hypothesis_test_divergence(rho.a, sigma.a, p["eps"])
    elif kind == "ih":
        value, test = i_h(rho, p["eps"])
    else:
        raise ValueError(f"unknown divergence kind {kind!r}")
    results = divergence_record(kind, inputs, value, test)
    checks = {"value_finite": bool(math.isfinite(value))}
    tolerances = {"atol": ATOL}
    if test is not None:
        checks["test_feasible"] = bool(test.type1_error <= p["eps"] + 1e-9)
        tolerances["feasibility_slack"] = 1e-9
    return results, checks, tolerances


#: eigenvalues of sum_i P_i below this fraction of its largest span its kernel
_SUPPORT_CUTOFF = 1e-10


def _union_figures(basis: np.ndarray, vecs: np.ndarray, planted: np.ndarray):
    """``(acceptance, support_residual, operator_constant)`` of M = Q Q^dag
    against sum_i P_i = V V^dag, from the range basis Q (whose orthonormality
    ``union_of_ranges`` checks) and V's columns v_i.

    The acceptance is the least |Q^dag psi|^2 over the columns of
    ``planted``.  The thin SVD V = U S R^dag, cut as ``whiten`` cuts V V^dag,
    gives W = U S^-1: the residual |M K|_F is |Q - U U^dag Q|_F and the
    constant lambda_max(W^dag M W) is s_max(S^-1 U^dag Q)^2.
    """
    acceptance = float(np.min(np.sum(np.abs(basis.conj().T @ planted) ** 2, axis=0)))
    u, sv, _ = np.linalg.svd(vecs, full_matrices=False)
    keep = sv ** 2 > _SUPPORT_CUTOFF * sv[0] ** 2
    overlap = u[:, keep].conj().T @ basis
    residual = float(np.linalg.norm(basis - u[:, keep] @ overlap))
    constant = float(np.linalg.svd(overlap / sv[keep, None], compute_uv=False)[0] ** 2)
    return acceptance, residual, constant


def _run_union_stress(p: dict, seed):
    s, delta, dim, trials, eps = p["s"], p["delta"], p["dim"], p["trials"], p["eps"]
    if not 1 <= s <= 64:
        raise ValueError(f"s must lie in 1..64, got {s}")
    check_delta(delta)
    if dim < 2:
        raise ValueError("dim must be at least 2")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    rng = rng_from(seed)
    layout = RegisterLayout((("r", dim),))
    width = union_depth(s)
    factor = (2.0 / delta ** 2) ** width
    floor = 1.0 - eps - delta * width
    worst_accept = math.inf
    constant = support_residual = 0.0
    for _ in range(trials):
        vecs, planted = [], []
        for _ in range(s):
            psi = random_pure_state(dim, rng, layout).vector
            g = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            g = g - (psi.conj() @ g) * psi
            orth = g / np.linalg.norm(g)
            vecs.append(math.sqrt(1.0 - eps) * psi + math.sqrt(eps) * orth)
            planted.append(psi)
        # each P_i = |v_i><v_i| enters the union as its range basis v_i
        basis = union_of_ranges([v[:, None] for v in vecs], delta)
        accept, residual, c = _union_figures(
            basis, np.stack(vecs, axis=1), np.stack(planted, axis=1)
        )
        worst_accept = min(worst_accept, accept - floor)
        support_residual = max(support_residual, residual)
        constant = max(constant, c)
    results = {
        "s": s,
        "delta": delta,
        "dim": dim,
        "trials": trials,
        "eps": eps,
        "acceptance_floor": floor,
        "operator_factor": factor,
        "worst_acceptance_margin": worst_accept,
        "operator_constant": constant,
        "support_residual": support_residual,
    }
    checks = {
        "acceptance_bound": bool(worst_accept >= -1e-8),
        "operator_bound": bool(support_residual <= 1e-8 and constant <= factor),
    }
    return results, checks, {"slack": 1e-8, "support_cutoff": _SUPPORT_CUTOFF}


def _run_jordan_inspect(p: dict, seed):
    p1 = Projector.of(load_matrix(p["p1"]).entries)
    p2 = Projector.of(load_matrix(p["p2"]).entries)
    dec = jordan_decompose(p1, p2, p["delta"])
    residuals = decomposition_residuals(dec, p1, p2)
    results = {"report": decomposition_report(dec), "residuals": residuals}
    checks = {name: bool(value <= 1e-8) for name, value in residuals.items()}
    return results, checks, {"residual_tol": 1e-8}


def _simulation_output(report):
    results = report.to_record()
    checks = {
        "povm_dominated": bool(report.povm_gap_min_eig >= -1e-9),
        "errors_within_bound": bool(
            (not report.rate_ok) or all(results["within_bound"])
        ),
    }
    tolerances = {"povm_tol": 1e-9, "error_bound": report.bound, "atol": ATOL}
    return results, checks, tolerances


def _load_family(p: dict) -> CompoundChannel:
    return CompoundChannel(tuple(load_channel(f) for f in p["channels"]))


def _run_compound_sim(p: dict, seed):
    cc = _load_family(p)
    psi = _load_pure(p["state"])
    params = CodeParams(p["rate"], p["eps"], p["eta"], psi)
    report = simulate_uninformed(
        cc, params, true_channel=p["true"], message=p["message"]
    )
    return _simulation_output(report)


def _run_informed_sim(p: dict, seed):
    cc = _load_family(p)
    states = [_load_pure(f) for f in p["states"]]
    params = CodeParams(p["rate"], p["eps"], p["eta"])
    report = simulate_informed(
        cc, states, params, true_channel=p["true"], message=p["message"]
    )
    return _simulation_output(report)


def _run_rates(p: dict, seed):
    cc = _load_family(p)
    eps, eta, gap_tol = p["eps"], p["eta"], p["gap_tol"]
    if (p["state"] is None) == (p["sweep_step"] is None):
        raise ValueError("provide exactly one of --state and --sweep-step")
    if p["state"] is not None:
        entries = [("file", _load_pure(p["state"]))]
    else:
        sweep = shared_state_sweep(p["sweep_step"])
        entries = [(f"{abs(psi.vector[0]) ** 2:.6f}", psi) for psi in sweep]
    points = []
    dominated = True
    for label, psi in entries:
        ach, con = uninformed_rates(cc, psi, eps, eta, gap_tol=gap_tol)
        dominated = dominated and con >= ach
        points.append({"point": label, "achievable": ach, "converse": con})
    results = {"points": points}
    if p["states"] is not None:
        informed_states = [_load_pure(f) for f in p["states"]]
        results["informed_rate"] = rate_informed(cc, informed_states, eps, eta)
    checks = {"converse_dominates": bool(dominated)}
    return results, checks, {"gap_tol": gap_tol}


def _run_pauli_example(p: dict, seed):
    results = pauli_compound_example(p["qubits"], p["eps"])
    spread = max(results["per_channel_value"]) - min(results["per_channel_value"])
    checks = {
        "average_depolarizes": bool(
            results["average_channel_max_deviation"] <= 1e-10
        ),
        "channel_symmetry": bool(spread <= 1e-6),
    }
    return results, checks, {"deviation_tol": 1e-10, "symmetry_tol": 1e-6}


def _run_composite(p: dict, seed):
    if p["net_deficit"] is not None and p["delta"] is None:
        raise ValueError("--net-deficit needs --delta")
    s1 = StateEnsemble(tuple(load_state(f) for f in p["s1"]))
    s2 = StateEnsemble(tuple(load_state(f) for f in p["s2"]))
    inst = CompositeInstance(s1, s2, p["n"], p["eps"])
    value, test = beta_exact(inst)
    results = {"beta": composite_record(inst, value, test, delta=p["delta"])}
    checks = {"beta_test_feasible": bool(test.type1_error <= p["eps"] + 1e-9)}
    tolerances = {"atol": ATOL, "feasibility_slack": 1e-9}
    if p["delta"] is not None:
        net = (
            epsilon_net(inst.dim, p["net_deficit"])
            if p["net_deficit"] is not None
            else None
        )
        merged = build_universal_test(inst, p["delta"], net=net)
        uval = bits(merged.type2_bound)
        results["universal"] = {
            "value_bits": uval,
            "type1_error": merged.type1_error,
            "type2_bound": merged.type2_bound,
            "union_rounds": merged.iterations,
            "slack_bits": merged.certificate_gap_bits,
        }
        checks["universal_acceptance"] = bool(
            merged.type1_error <= p["eps"] + 2.0 * p["delta"] + 1e-9
        )
        if net is None:
            floor, penalty = merged.floor_bits, merged.penalty_bits
            checks["universal_value_floor"] = bool(uval >= floor - penalty - 1e-9)
            results["universal"]["floor_bits"] = floor
            results["universal"]["penalty_bits"] = penalty
    return results, checks, tolerances


def _run_net_validate(p: dict, seed):
    net = epsilon_net(2, p["deficit"])
    results = net_covering_report(net, p["samples"], seed)
    checks = {
        "covered": bool(results["covered"]),
        "within_budget": bool(results["within_budget"]),
    }
    return results, checks, {"deficit": p["deficit"]}


COMMANDS: dict[str, _Command] = {
    "divergence": _Command(
        (
            _Param("kind", str, required=True, help="re|var|dmax|imax|dh|ih"),
            _Param("rho", str, required=True, help="state file"),
            _Param("sigma", str, help="reference state file"),
            _Param("eps", float, help="allowed acceptance error"),
        ),
        _run_divergence,
        False,
        "evaluate an entropic quantity on saved states",
    ),
    "union-stress": _Command(
        (
            _Param("s", int, required=True, help="number of projectors"),
            _Param("delta", float, required=True, help="union parameter"),
            _Param("dim", int, required=True, help="space dimension"),
            _Param("trials", int, required=True, help="number of random trials"),
            _Param("eps", float, default=0.1, help="planted acceptance error"),
        ),
        _run_union_stress,
        True,
        "stress the projector union guarantees on random instances",
    ),
    "jordan-inspect": _Command(
        (
            _Param("p1", str, required=True, help="first projector file"),
            _Param("p2", str, required=True, help="second projector file"),
            _Param("delta", float, default=0.1, help="overlap split point"),
        ),
        _run_jordan_inspect,
        False,
        "decompose a projector pair into joint two-dimensional blocks",
    ),
    "compound-sim": _Command(
        (
            _Param("channels", _paths, required=True, help="channel files"),
            _Param("state", str, required=True, help="shared pure state file"),
            _Param("rate", float, required=True, help="rate in bits"),
            _Param("eps", float, required=True, help="test error budget"),
            _Param("eta", float, required=True, help="union error budget"),
            _Param("true", int, help="actual channel index (default: all)"),
            _Param("message", int, default=1, help="transmitted message"),
        ),
        _run_compound_sim,
        False,
        "simulate position-based decoding with an uninformed sender",
    ),
    "informed-sim": _Command(
        (
            _Param("channels", _paths, required=True, help="channel files"),
            _Param("states", _paths, required=True, help="per-channel state files"),
            _Param("rate", float, required=True, help="rate in bits"),
            _Param("eps", float, required=True, help="test error budget"),
            _Param("eta", float, required=True, help="union error budget"),
            _Param("true", int, help="actual channel index (default: all)"),
            _Param("message", int, default=1, help="transmitted message"),
        ),
        _run_informed_sim,
        False,
        "simulate banded position-based decoding with an informed sender",
    ),
    "rates": _Command(
        (
            _Param("channels", _paths, required=True, help="channel files"),
            _Param("eps", float, required=True, help="test error budget"),
            _Param("eta", float, required=True, help="union error budget"),
            _Param("state", str, help="shared pure state file"),
            _Param("sweep_step", float, help="Schmidt-weight sweep step"),
            _Param("states", _paths, help="per-channel states for the informed rate"),
            _Param("gap_tol", float, default=1e-6, help="divergence solver gap"),
        ),
        _run_rates,
        False,
        "compare achievable and converse rates over shared states",
    ),
    "pauli-example": _Command(
        (
            _Param("qubits", int, default=1, help="qubits per register"),
            _Param("eps", float, required=True, help="test error budget"),
        ),
        _run_pauli_example,
        False,
        "worst-case rate of the Pauli channel family on entangled input",
    ),
    "composite": _Command(
        (
            _Param("s1", _paths, required=True, help="accepted family files"),
            _Param("s2", _paths, required=True, help="rejected family files"),
            _Param("n", int, required=True, help="copies per test"),
            _Param("eps", float, required=True, help="acceptance error"),
            _Param("delta", float, help="merge budget for the universal test"),
            _Param("net_deficit", float, help="use a net at this fidelity deficit"),
        ),
        _run_composite,
        False,
        "composite testing: exact program value and universal test",
    ),
    "net-validate": _Command(
        (
            _Param("deficit", float, required=True, help="target fidelity deficit"),
            _Param("samples", int, default=10_000, help="validation sample count"),
        ),
        _run_net_validate,
        True,
        "measure the covering quality of a qubit net by sampling",
    ),
}


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """Only the subcommand argv[0] names, or all; the metavar keeps the full
    usage line (unset on the full parser: it renames "invalid choice" errors)."""
    parser = argparse.ArgumentParser(
        prog="qoneshot",
        description="reproducible experiments on one-shot coding constructions",
    )
    one = bool(argv) and argv[0] in COMMANDS
    subparsers = parser.add_subparsers(
        dest="command", metavar="{" + ",".join(COMMANDS) + "}" if one else None
    )
    for name in [argv[0]] if one else COMMANDS:
        spec = COMMANDS[name]
        sub = subparsers.add_parser(name, help=spec.summary)
        for param in spec.params:
            sub.add_argument(
                f"--{param.name.replace('_', '-')}",
                dest=param.name,
                type=param.conv,
                default=None,
                help=param.help,
            )
        sub.add_argument("--config", default=None, help="structured config file")
        sub.add_argument("--seed", type=int, default=None, help="64-bit seed")
        sub.add_argument("--out", default=None, help="result file path")
    return parser


def _resolve(args: argparse.Namespace) -> ExperimentConfig:
    spec = COMMANDS[args.command]
    file_values: dict[str, str] = {}
    if args.config is not None:
        file_values = _load_config(args.config)
        declared = file_values.pop("command", None)
        if declared is not None and declared != args.command:
            raise ValueError(
                f"config file is for command {declared!r}, not {args.command!r}"
            )
    known = {p.name for p in spec.params} | {"seed", "out"}
    unknown = sorted(set(file_values) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    parameters = {}
    for param in spec.params:
        value = getattr(args, param.name)
        if value is None and param.name in file_values:
            value = param.conv(file_values[param.name])
        if value is None:
            value = param.default
        if param.required and value is None:
            raise ValueError(
                f"{args.command}: missing required parameter {param.name!r}"
            )
        parameters[param.name] = value
    seed = args.seed
    if seed is None and "seed" in file_values:
        seed = int(file_values["seed"])
    if seed is not None and not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    if spec.needs_seed and seed is None:
        raise ValueError(f"{args.command}: a seed is required")
    output = args.out if args.out is not None else file_values.get("out")
    return ExperimentConfig(args.command, seed, parameters, output)


def _output_path(config: ExperimentConfig) -> str:
    """The result file's path, checked before the run: ``OSError`` if it
    names a directory or its directory does not exist."""
    path = config.output
    if path is None:
        name = config.command + ("" if config.seed is None else f"-{config.seed}") + ".json"
        path = os.path.join(os.environ.get(OUTPUT_DIR_ENV, "."), name)
    if os.path.isdir(path):
        raise OSError(f"output path {path} is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise OSError(f"output directory of {path} does not exist")
    return path


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_help()
        return EXIT_CONFIG
    try:
        config = _resolve(args)
        path = _output_path(config)
    except (ValueError, OSError, argparse.ArgumentTypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    spec = COMMANDS[config.command]
    try:
        results, checks, tolerances = spec.runner(config.parameters, config.seed)
        record = {
            "schema": SCHEMA,
            "command": config.command,
            "seed": config.seed,
            "parameters": config.parameters,
            "tolerances": tolerances,
            "results": results,
            "checks": checks,
            "ok": all(checks.values()),
        }
        with open(path, "w") as fh:  # an OSError here is a config error too
            fh.write(json.dumps(record, sort_keys=True, indent=2, default=_json_default) + "\n")
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ValueError, LayoutError, OSError, ArithmeticError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    failing = sorted(name for name, passed in checks.items() if not passed)
    if failing:
        print(f"{config.command}: FAIL {failing} -> {path}")
        return EXIT_ASSERTION
    print(f"{config.command}: ok -> {path}")
    return EXIT_OK
