"""Tests for the experiment runner: config resolution, determinism of the
result files, exit-code mapping, and one cheap end-to-end run per
subcommand."""

import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from qoneshot import cli, composite, jordan
from qoneshot.divergences import hypothesis_test_divergence
from qoneshot.qcore import (
    ComplexMatrix,
    DensityMatrix,
    PureState,
    RegisterLayout,
    content_hash,
    load_state,
    maximally_entangled,
    random_density,
    random_projector,
    rng_from,
    save_channel,
    save_matrix,
    unitary_channel,
)
from oracles import union_figures_dense

#: the source tree this module imported qoneshot from, for child interpreters
SRC = str(Path(cli.__file__).resolve().parents[1])
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
QUBIT = RegisterLayout.of("a:2")
OUT_QUBIT = RegisterLayout.of("b:2")


@pytest.fixture()
def files(tmp_path):
    """Common state/channel files used across subcommand tests."""
    paths = {}
    ground = DensityMatrix(ComplexMatrix(np.diag([1.0, 0.0]).astype(complex)), QUBIT)
    mixed = DensityMatrix(ComplexMatrix((np.eye(2) / 2).astype(complex)), QUBIT)
    excited = DensityMatrix(ComplexMatrix(np.diag([0.0, 1.0]).astype(complex)), QUBIT)
    tilted = DensityMatrix(ComplexMatrix(np.diag([0.75, 0.25]).astype(complex)), QUBIT)
    for name, state in (
        ("ground", ground),
        ("mixed", mixed),
        ("excited", excited),
        ("tilted", tilted),
    ):
        paths[name] = str(tmp_path / f"{name}.txt")
        save_matrix(paths[name], state)
    psi = maximally_entangled(2, ("a", "r"))
    paths["psi"] = str(tmp_path / "psi.txt")
    save_matrix(paths["psi"], psi.density())
    ident = unitary_channel(np.eye(2), QUBIT, OUT_QUBIT)
    flip = unitary_channel(np.array([[0.0, 1.0], [1.0, 0.0]]), QUBIT, OUT_QUBIT)
    paths["ident"] = str(tmp_path / "ident.txt")
    paths["flip"] = str(tmp_path / "flip.txt")
    save_channel(paths["ident"], ident)
    save_channel(paths["flip"], flip)
    return paths


def run(args):
    """``cli.main(args)``, once the plain-argv reader, where it takes the
    argv, is checked to read what argparse reads."""
    plain = cli._plain_args(args)
    if plain is not None:
        assert reading(plain) == reading(cli._build_parser(args).parse_args(args)), args
    return cli.main(args)


def reading(namespace):
    """A namespace's values, compared by repr so that a NaN equals itself."""
    return repr(sorted(vars(namespace).items()))


def read(path):
    with open(path) as fh:
        return json.load(fh)


class TestConfigResolution:
    def test_missing_required_parameter(self, capsys):
        assert run(["divergence", "--kind", "dh", "--eps", "0.2"]) == 2
        assert "rho" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, files):
        cfg = tmp_path / "c.txt"
        cfg.write_text(f"kind re\nrho {files['ground']}\nsigma {files['mixed']}\nbogus 3\n")
        assert run(["divergence", "--config", str(cfg)]) == 2

    def test_command_mismatch_in_config(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("command rates\n")
        assert run(["divergence", "--config", str(cfg)]) == 2

    def test_malformed_config_line(self, tmp_path, files, capsys):
        # a line with no value; a key given twice, also spelled with - and _
        composite_cfg = f"s1 {files['ground']}\ns2 {files['mixed']}\nn 1\neps 0.2\ndelta 0.3\n"
        cases = (
            ("divergence", "eps\n", ":1: expected 'key value'"),
            ("net-validate", "deficit 0.3\nsamples 100\nsamples 200\nseed 5\n",
             ":3: key 'samples' given twice"),
            ("composite", composite_cfg + "net-deficit 0.08\n# finer\nnet_deficit 0.04\n",
             ":8: key 'net_deficit' given twice"),
        )
        cfg, out = tmp_path / "c.txt", tmp_path / "o.json"
        for command, text, error in cases:
            cfg.write_text(text)
            assert run([command, "--config", str(cfg), "--out", str(out)]) == 2, command
            assert f"config error: {cfg}{error}" in capsys.readouterr().err
            assert not out.exists()

    def test_config_supplies_and_cli_overrides(self, tmp_path, files):
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        cfg = tmp_path / "c.txt"
        cfg.write_text(
            "command divergence\nkind dh\n"
            f"rho {files['tilted']}\nsigma {files['tilted']}\neps 0.1\nout {out1}\n"
        )
        assert run(["divergence", "--config", str(cfg)]) == 0
        assert read(out1)["parameters"]["eps"] == 0.1
        assert run(["divergence", "--config", str(cfg), "--eps", "0.5", "--out", out2]) == 0
        rec = read(out2)
        assert rec["parameters"]["eps"] == 0.5
        assert abs(rec["results"]["value_bits"] - 1.0) < 1e-12

    def test_seed_required_for_randomized_commands(self):
        assert run(["union-stress", "--s", "2", "--delta", "0.3", "--dim", "3",
                    "--trials", "1"]) == 2

    def test_seed_range_validated(self, tmp_path, files):
        assert run(["net-validate", "--deficit", "0.3", "--seed", "-1"]) == 2
        assert run(["net-validate", "--deficit", "0.3", "--seed", str(2 ** 64)]) == 2

    def test_seed_can_come_from_config(self, tmp_path):
        out = str(tmp_path / "n.json")
        cfg = tmp_path / "c.txt"
        cfg.write_text(f"deficit 0.3\nsamples 300\nseed 5\nout {out}\n")
        assert run(["net-validate", "--config", str(cfg)]) == 0
        assert read(out)["seed"] == 5

    def test_no_command_prints_help(self, capsys):
        assert run([]) == 2
        out, err = capsys.readouterr()
        assert out.startswith("usage: qoneshot") and err == ""
        words = " ".join(out.split())  # argparse wraps long summaries
        for name, spec in cli.COMMANDS.items():
            assert f"{name} {spec.summary}" in words, name


class TestExitCodes:
    def test_capacity_error_is_three(self, tmp_path):
        assert run(["pauli-example", "--qubits", "2", "--eps", "0.1",
                    "--out", str(tmp_path / "p.json")]) == 3

    def test_uninformed_cap_applies_to_the_largest_spin_block(self, tmp_path, files):
        base = ["compound-sim", "--channels", f"{files['ident']},{files['flip']}",
                "--state", files["psi"], "--eps", "0.2", "--eta", "0.05"]
        # 32 messages: the full register space is 2 x 2^32 x 2 wide, the
        # largest spin block of the other slots 2 x 2 x 2 x 32 = 256
        out = str(tmp_path / "r5.json")
        assert run(base + ["--rate", "5", "--out", out]) == 0
        rec = read(out)
        assert rec["results"]["num_messages"] == 32
        assert set(rec["results"]) == {
            "channel_indices", "per_channel_error", "bound", "rate_used",
            "num_messages", "rate_ok", "povm_gap_min_eig", "decoder_rank",
            "decoder_min_kept_eigenvalue", "certified_rate", "trivial_decoder",
            "within_bound",
        }
        # 4096 messages: the largest block would be 32768 wide
        assert run(base + ["--rate", "12", "--out", str(tmp_path / "r12.json")]) == 3

    def test_union_stress_without_trials_is_config_error(self, tmp_path, capsys):
        # no trial would leave an infinite margin and vacuous checks
        for trials in ("0", "-3"):
            out = tmp_path / f"t{trials}.json"
            assert run(["union-stress", "--s", "2", "--delta", "0.3", "--dim", "4",
                        "--trials", trials, "--seed", "7", "--out", str(out)]) == 2
            assert "trials" in capsys.readouterr().err
            assert not out.exists()

    def test_union_stress_ranges_checked_before_any_draw(self, tmp_path, capsys):
        cases = {
            ("--s", "0"): "s must lie in 1..64",
            ("--s", "-1"): "s must lie in 1..64",
            ("--s", "65"): "s must lie in 1..64",
            ("--delta", "0"): "delta must lie in (0, 1)",
            ("--delta", "1"): "delta must lie in (0, 1)",
        }
        for (flag, value), message in cases.items():
            args = {"--s": "2", "--delta": "0.3", flag: value}
            out = tmp_path / f"u{flag[2:]}{value}.json"
            assert run(["union-stress", *(x for kv in args.items() for x in kv),
                        "--dim", "4", "--trials", "1", "--seed", "7",
                        "--out", str(out)]) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_net_validate_without_samples_is_config_error(self, tmp_path, capsys):
        for samples in ("0", "-4"):
            out = tmp_path / f"n{samples}.json"
            assert run(["net-validate", "--deficit", "0.3", "--samples", samples,
                        "--seed", "7", "--out", str(out)]) == 2
            assert "num_samples must be at least 1" in capsys.readouterr().err
            assert not out.exists()

    def test_composite_net_deficit_needs_delta(self, tmp_path, files, capsys):
        out = tmp_path / "c.json"
        assert run(["composite", "--s1", files["ground"], "--s2", files["mixed"],
                    "--n", "1", "--eps", "0.2", "--net-deficit", "0.05",
                    "--out", str(out)]) == 2
        assert "--net-deficit needs --delta" in capsys.readouterr().err
        assert not out.exists()

    def test_composite_bad_net_fails_before_the_solve(self, tmp_path, files, monkeypatch,
                                                       capsys):
        """A net too coarse for delta, or a net of a non-qubit family, ends
        the command before beta_exact runs."""
        calls = []
        for module in (cli, composite):
            solve = module.beta_exact
            monkeypatch.setattr(module, "beta_exact",
                                lambda inst, solve=solve: calls.append(1) or solve(inst))
        qutrits = []
        for k, diag in enumerate(([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1 / 3] * 3)):
            qutrits.append(str(tmp_path / f"qutrit{k}.txt"))
            save_matrix(qutrits[-1], DensityMatrix(ComplexMatrix(np.diag(diag).astype(complex)),
                                                   RegisterLayout.of("a:3")))
        nulls = f"{files['ground']},{files['excited']},{files['tilted']}"
        cases = (
            (["--s1", nulls, "--s2", files["mixed"], "--n", "2", "--delta", "0.1",
              "--net-deficit", "0.08"], 2, "net resolution 0.08 too coarse"),
            (["--s1", ",".join(qutrits[:2]), "--s2", qutrits[2], "--n", "1", "--delta", "0.3",
              "--net-deficit", "0.04"], 3, "nets are built for dimension 2 only"),
        )
        out = tmp_path / "c.json"
        for argv, code, error in cases:
            assert run(["composite", *argv, "--eps", "0.2", "--out", str(out)]) == code
            assert error in capsys.readouterr().err
            assert not out.exists()
        assert calls == []

    def test_composite_families_on_different_spaces_are_config_error(self, tmp_path, files,
                                                                    capsys):
        qutrit = str(tmp_path / "qutrit.txt")
        save_matrix(qutrit, DensityMatrix(ComplexMatrix(np.eye(3, dtype=complex) / 3),
                                          RegisterLayout.of("a:3")))
        out = tmp_path / "c.json"
        assert run(["composite", "--s1", files["ground"], "--s2", qutrit, "--n", "1",
                    "--eps", "0.2", "--out", str(out)]) == 2
        assert "config error: families live on different spaces (2 vs 3)" in capsys.readouterr().err
        assert not out.exists()

    def test_config_value_its_converter_rejects_is_config_error(self, tmp_path, capsys):
        # the same value on the command line is refused by argparse, also 2
        cfg = tmp_path / "c.txt"
        cfg.write_text("channels ,\n")
        out = tmp_path / "r.json"
        assert run(["rates", "--config", str(cfg), "--eps", "0.2", "--eta", "0.05",
                    "--sweep-step", "0.1", "--out", str(out)]) == 2
        assert "config error: expected a comma-separated file list" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_rate_is_three_before_any_work(self, tmp_path, files, capsys):
        # over DIM_CAP messages, refused on the exponent before 2^ceil(rate)
        base = ["compound-sim", "--channels", files["ident"], "--state", files["psi"],
                "--eps", "0.2", "--eta", "0.05"]
        for rate in ("13", "1e9", "1e18"):
            out = tmp_path / f"r{rate}.json"
            start = time.perf_counter()
            assert run(base + ["--rate", rate, "--out", str(out)]) == 3
            assert time.perf_counter() - start < 1.0
            err = capsys.readouterr().err
            assert "capacity error" in err and len(err) < 200
            assert not out.exists()

    def test_pauli_example_configuration_errors_are_two(self, tmp_path, capsys):
        # a bad eps is a configuration error even at an unsupported size
        for qubits, eps, message in (("0", "0.1", "num_qubits must be positive"),
                                     ("-1", "0.1", "num_qubits must be positive"),
                                     ("2", "7", "eps must be in (0, 1)")):
            out = tmp_path / f"p{qubits}.json"
            assert run(["pauli-example", "--qubits", qubits, "--eps", eps,
                        "--out", str(out)]) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_rates_gap_tol_checked_before_any_solve(self, tmp_path, files, capsys, monkeypatch):
        import qoneshot.divergences as divergences

        def solver(*args, **kwargs):
            raise AssertionError("a solver ran before gap_tol was validated")

        monkeypatch.setattr(divergences, "_np_solve", solver)
        for gap_tol in ("-1", "nan", "inf"):
            out = tmp_path / f"g{gap_tol}.json"
            assert run(["rates", "--channels", files["ident"], "--state", files["psi"],
                        "--eps", "0.2", "--eta", "0.05", "--gap-tol", gap_tol,
                        "--out", str(out)]) == 2
            assert "gap_tol must be finite and non-negative" in capsys.readouterr().err
            assert not out.exists()

    def test_union_stress_dimension_cap_is_three(self, tmp_path, capsys):
        # checked before the dim x dim projectors are drawn
        out = tmp_path / "d.json"
        assert run(["union-stress", "--s", "2", "--delta", "0.3", "--dim", "1000000",
                    "--trials", "1", "--seed", "7", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "capacity error" in err and "1000000" in err
        assert not out.exists()

    def test_net_validate_fidelity_cap_is_three(self, tmp_path, monkeypatch, capsys):
        # --deficit 0.005 gives 12,713 net points: with the default
        # 10,000 samples that is over 2^26 fidelities, refused before any draw
        def no_draw(*args, **kwargs):
            raise AssertionError("samples drawn past the cap")

        monkeypatch.setattr(composite, "_gaussian_states", no_draw)
        out = tmp_path / "n.json"
        assert run(["net-validate", "--deficit", "0.005", "--seed", "1",
                    "--out", str(out)]) == 3
        assert "capacity error" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_check_is_four_and_file_still_written(self, tmp_path, monkeypatch, capsys):
        out = str(tmp_path / "f.json")

        def failing(params, seed):
            return {"detail": 1}, {"alpha": False, "beta": True}, {}

        monkeypatch.setitem(
            cli.COMMANDS,
            "fake-check",
            cli._Command((), failing, False, "always fails"),
        )
        assert run(["fake-check", "--out", out]) == 4
        rec = read(out)
        assert rec["ok"] is False and rec["checks"]["alpha"] is False
        assert "FAIL" in capsys.readouterr().out

    def test_unwritable_output_path_is_two_before_the_run(self, tmp_path, monkeypatch, capsys):
        """A missing directory (by --out or by the environment) or an --out
        naming a directory exits 2 before the runner starts, writing nothing."""
        def forbidden(params, seed):
            raise AssertionError("the runner must not start")

        monkeypatch.setitem(cli.COMMANDS, "fake-run", cli._Command((), forbidden, False, ""))
        missing = tmp_path / "missing"
        cases = (
            ([f"--out={missing / 'a.json'}"], {}, "does not exist"),
            ([], {cli.OUTPUT_DIR_ENV: str(missing)}, "does not exist"),
            ([f"--out={tmp_path}"], {}, "is a directory"),
        )
        for flags, env, message in cases:
            for key, value in env.items():
                monkeypatch.setenv(key, value)
            assert run(["fake-run", *flags]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and message in err
            monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
        assert list(tmp_path.iterdir()) == []

    def test_write_error_after_the_run_is_two(self, tmp_path, monkeypatch, capsys):
        gone = tmp_path / "gone"
        gone.mkdir()

        def removes_the_directory(params, seed):
            gone.rmdir()
            return {}, {"alpha": True}, {}

        monkeypatch.setitem(cli.COMMANDS, "fake-run",
                            cli._Command((), removes_the_directory, False, ""))
        assert run(["fake-run", "--out", str(gone / "a.json")]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not gone.exists()

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0

    def test_truncated_channel_file_is_config_error(self, tmp_path, files, capsys):
        with open(files["ident"]) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "channel kraus 1" and len(lines) == 6
        cases = {
            "header_only": lines[:3],
            "missing_kraus_block": ["channel kraus 2"] + lines[1:],
        }
        for name, text in cases.items():
            path = tmp_path / f"{name}.txt"
            path.write_text("\n".join(text) + "\n")
            assert run(["compound-sim", "--channels", str(path), "--state", files["psi"],
                        "--rate", "0", "--eps", "0.2", "--eta", "0.05",
                        "--out", str(tmp_path / f"{name}.json")]) == 2
            assert "config error" in capsys.readouterr().err


class TestDeterminism:
    def test_same_config_gives_identical_bytes(self, tmp_path, files):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        base = ["divergence", "--kind", "dh", "--rho", files["tilted"],
                "--sigma", files["tilted"], "--eps", "0.25"]
        assert run(base + ["--out", a]) == 0
        assert run(base + ["--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_schema_and_tolerances_echoed(self, tmp_path, files):
        out = str(tmp_path / "a.json")
        assert run(["divergence", "--kind", "re", "--rho", files["ground"],
                    "--sigma", files["mixed"], "--out", out]) == 0
        rec = read(out)
        assert rec["schema"] == cli.SCHEMA
        assert "atol" in rec["tolerances"]
        assert rec["command"] == "divergence"

    def test_output_dir_env_var_and_seed_naming(self, tmp_path, files, monkeypatch):
        outdir = tmp_path / "results"
        outdir.mkdir()
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(outdir))
        assert run(["net-validate", "--deficit", "0.3", "--samples", "300",
                    "--seed", "3"]) == 0
        assert (outdir / "net-validate-3.json").exists()
        assert run(["divergence", "--kind", "re", "--rho", files["ground"],
                    "--sigma", files["mixed"]]) == 0
        assert (outdir / "divergence.json").exists()


def leaf_keys(node, prefix=""):
    """Dotted key paths of a record's leaves; a list of dicts is read
    through its first element, as ``name[]``."""
    if isinstance(node, list) and node and isinstance(node[0], dict):
        return leaf_keys(node[0], prefix[:-1] + "[].")
    if not isinstance(node, dict):
        return {prefix[:-1]}
    return {path for key, value in node.items() for path in leaf_keys(value, f"{prefix}{key}.")}


#: the leaves of every command's record besides "schema command seed ok"
RECORD_KEYS = {
    "divergence": """
        parameters.eps parameters.kind parameters.rho parameters.sigma
        tolerances.atol tolerances.feasibility_slack
        results.inputs.rho results.inputs.sigma results.iterations results.quantity
        results.residuals.certificate_gap_bits results.residuals.type1_error
        results.residuals.type2_bound results.value_bits
        checks.test_feasible checks.value_finite""",
    "union-stress": """
        parameters.delta parameters.dim parameters.eps parameters.s parameters.trials
        tolerances.slack tolerances.support_cutoff
        results.acceptance_floor results.delta results.dim results.eps
        results.operator_constant results.operator_factor results.s
        results.support_residual results.trials results.worst_acceptance_margin
        checks.acceptance_bound checks.operator_bound""",
    "jordan-inspect": """
        parameters.delta parameters.p1 parameters.p2
        tolerances.residual_tol
        results.report.blocks[].label results.report.blocks[].overlap
        results.report.blocks[].p1_rank results.report.blocks[].p2_rank
        results.report.blocks[].rank results.report.delta results.report.num_blocks
        results.residuals.commutation results.residuals.completeness
        results.residuals.orthogonality results.residuals.reconstruction
        checks.commutation checks.completeness checks.orthogonality checks.reconstruction""",
    "compound-sim": """
        parameters.channels parameters.eps parameters.eta parameters.message
        parameters.rate parameters.state parameters.true
        tolerances.atol tolerances.error_bound tolerances.povm_tol
        results.bound results.certified_rate results.channel_indices
        results.decoder_min_kept_eigenvalue results.decoder_rank results.num_messages
        results.per_channel_error results.povm_gap_min_eig results.rate_ok
        results.rate_used results.trivial_decoder results.within_bound
        checks.errors_within_bound checks.povm_dominated""",
    "informed-sim": """
        parameters.channels parameters.eps parameters.eta parameters.message
        parameters.rate parameters.states parameters.true
        tolerances.atol tolerances.error_bound tolerances.povm_tol
        results.bound results.certified_rate results.channel_indices
        results.decoder_min_kept_eigenvalue results.decoder_rank results.num_messages
        results.per_channel_error results.povm_gap_min_eig results.rate_ok
        results.rate_used results.trivial_decoder results.within_bound
        checks.errors_within_bound checks.povm_dominated""",
    "rates": """
        parameters.channels parameters.eps parameters.eta parameters.gap_tol
        parameters.state parameters.states parameters.sweep_step
        tolerances.gap_tol
        results.informed_rate results.points[].achievable results.points[].converse
        results.points[].point
        checks.converse_dominates""",
    "pauli-example": """
        parameters.eps parameters.qubits
        tolerances.deviation_tol tolerances.symmetry_tol
        results.average_channel_max_deviation results.epsilon results.min_value
        results.num_qubits results.per_channel_value results.reference_gap
        results.reference_value
        checks.average_depolarizes checks.channel_symmetry""",
    "composite": """
        parameters.delta parameters.eps parameters.n parameters.net_deficit
        parameters.s1 parameters.s2
        tolerances.atol tolerances.feasibility_slack
        results.beta.certificate_gap_bits results.beta.delta results.beta.epsilon
        results.beta.iterations results.beta.n results.beta.s1_hashes
        results.beta.s2_hashes results.beta.type1_residuals
        results.beta.type2_per_vertex results.beta.value_bits
        results.universal.floor_bits results.universal.penalty_bits
        results.universal.slack_bits results.universal.type1_error
        results.universal.type2_bound results.universal.union_rounds
        results.universal.value_bits
        checks.beta_test_feasible checks.universal_acceptance
        checks.universal_value_floor""",
    "net-validate": """
        parameters.deficit parameters.samples
        tolerances.deficit
        results.budget results.covered results.max_deficit results.mean_deficit
        results.resolution results.samples results.size results.within_budget
        checks.covered checks.within_budget""",
}


class TestRecordFormats:
    def test_every_command_record_keys(self, tmp_path, files):
        """The key set of each command's record, pinned: the CLI alone
        builds every record."""
        p1, p2 = str(tmp_path / "p1.txt"), str(tmp_path / "p2.txt")
        save_matrix(p1, random_projector(4, 2, 11).a)
        save_matrix(p2, random_projector(4, 2, 12).a)
        channels = f"{files['ident']},{files['flip']}"
        pair = f"{files['psi']},{files['psi']}"
        commands = {
            "divergence": ["--kind", "dh", "--rho", files["tilted"], "--sigma", files["mixed"],
                           "--eps", "0.2"],
            "union-stress": ["--s", "2", "--delta", "0.3", "--dim", "3", "--trials", "1",
                             "--seed", "7"],
            "jordan-inspect": ["--p1", p1, "--p2", p2],
            "compound-sim": ["--channels", channels, "--state", files["psi"], "--rate", "0",
                             "--eps", "0.2", "--eta", "0.05"],
            "informed-sim": ["--channels", channels, "--states", pair, "--rate", "0",
                             "--eps", "0.2", "--eta", "0.05"],
            "rates": ["--channels", channels, "--state", files["psi"], "--states", pair,
                      "--eps", "0.2", "--eta", "0.05", "--gap-tol", "1e-4"],
            "pauli-example": ["--eps", "0.1"],
            "composite": ["--s1", f"{files['ground']},{files['excited']}", "--s2",
                          files["mixed"], "--n", "1", "--eps", "0.2", "--delta", "0.1"],
            "net-validate": ["--deficit", "0.3", "--samples", "300", "--seed", "5"],
        }
        assert set(commands) == set(cli.COMMANDS) == set(RECORD_KEYS)
        for name, argv in commands.items():
            out = str(tmp_path / f"{name}.json")
            assert run([name, *argv, "--out", out]) == 0, name
            want = {"schema", "command", "seed", "ok", *RECORD_KEYS[name].split()}
            assert leaf_keys(read(out)) == want, name


class TestSubcommands:
    def test_divergence_matches_closed_form(self, tmp_path, files):
        out = str(tmp_path / "d.json")
        assert run(["divergence", "--kind", "dh", "--rho", files["tilted"],
                    "--sigma", files["tilted"], "--eps", "0.25", "--out", out]) == 0
        rec = read(out)
        assert abs(rec["results"]["value_bits"] + math.log2(0.75)) < 1e-12
        assert rec["checks"]["test_feasible"]
        # the record's fields are the library's own figures
        rho = load_state(files["tilted"])
        value, test = hypothesis_test_divergence(rho.a, rho.a, 0.25)
        results = rec["results"]
        assert results["quantity"] == "dh" and results["value_bits"] == value
        assert results["inputs"] == {"rho": content_hash(rho), "sigma": content_hash(rho)}
        assert all(len(h) == 64 for h in results["inputs"].values())
        assert results["iterations"] == test.iterations
        assert results["residuals"] == {"type1_error": test.type1_error,
                                        "type2_bound": test.type2_bound,
                                        "certificate_gap_bits": test.certificate_gap_bits}

    def test_divergence_kind_coverage(self, tmp_path, files):
        out = str(tmp_path / "d.json")
        for kind, expected in (("re", 1.0), ("dmax", 1.0)):
            assert run(["divergence", "--kind", kind, "--rho", files["ground"],
                        "--sigma", files["mixed"], "--out", out]) == 0
            assert abs(read(out)["results"]["value_bits"] - expected) < 1e-9
        assert run(["divergence", "--kind", "imax", "--rho", files["psi"],
                    "--out", out]) == 0
        assert abs(read(out)["results"]["value_bits"] - 2.0) < 1e-9
        assert run(["divergence", "--kind", "ih", "--rho", files["psi"],
                    "--eps", "0.1", "--out", out]) == 0
        assert read(out)["checks"]["test_feasible"]

    def test_divergence_kind_needs_its_inputs(self, files):
        assert run(["divergence", "--kind", "dh", "--rho", files["ground"],
                    "--eps", "0.1"]) == 2
        assert run(["divergence", "--kind", "dh", "--rho", files["ground"],
                    "--sigma", files["mixed"]]) == 2

    def test_union_stress(self, tmp_path):
        out = str(tmp_path / "u.json")
        assert run(["union-stress", "--s", "3", "--delta", "0.3", "--dim", "3",
                    "--trials", "5", "--seed", "7", "--out", out]) == 0
        rec = read(out)
        assert rec["checks"] == {"acceptance_bound": True, "operator_bound": True}
        assert rec["results"]["worst_acceptance_margin"] >= -1e-8
        assert rec["results"]["operator_constant"] <= rec["results"]["operator_factor"]
        assert rec["results"]["support_residual"] <= 1e-8

    def test_union_stress_flags_weight_outside_the_support(self, tmp_path, monkeypatch):
        """A union reaching outside supp(sum P) obeys no operator bound,
        however small its constant on the support."""
        out = str(tmp_path / "u.json")
        monkeypatch.setattr(
            cli, "union_of_ranges", lambda bases, delta: np.eye(bases[0].shape[0])
        )
        assert run(["union-stress", "--s", "2", "--delta", "0.3", "--dim", "4",
                    "--trials", "3", "--seed", "7", "--out", out]) == 4
        rec = read(out)
        assert rec["checks"] == {"acceptance_bound": True, "operator_bound": False}
        assert rec["results"]["support_residual"] == pytest.approx(math.sqrt(2.0))
        assert rec["results"]["operator_constant"] <= rec["results"]["operator_factor"]

    def test_union_stress_eigensolves_per_trial(self, tmp_path, eigensolves, svds):
        """No trial eigensolves anything.  Each makes the union's
        principal-angle SVDs, pair by pair over three rounds, then the thin
        SVD of V = [v_1 ... v_8] and that of S^-1 U^dag Q, s wide."""
        out = str(tmp_path / "u.json")
        assert run(["union-stress", "--s", "8", "--delta", "0.1", "--dim", "64",
                    "--trials", "2", "--seed", "5", "--out", out]) == 0
        assert eigensolves == []
        assert svds == ([(1, 1)] * 4 + [(2, 2)] * 2 + [(4, 4), (64, 8), (8, 8)]) * 2

    def test_union_figures_match_the_dense_oracle(self, tmp_path, capsys, monkeypatch):
        """The figures from Q and one thin SVD of V equal the d x d ones, for
        s below, at and above dim, for a repeated v_i (V loses rank, and the
        cut drops a singular value), and for a union that is all of C^d.  A
        basis off orthonormality fails the dense oracle as a projector, and
        a merge that loses orthonormality fails ``union-stress`` itself."""
        rng = rng_from(23)

        def unit_columns(dim, s):
            g = rng.normal(size=(dim, s)) + 1j * rng.normal(size=(dim, s))
            return g / np.linalg.norm(g, axis=0)

        cases = [
            (unit_columns(dim, s), unit_columns(dim, s))
            for s in (1, 2, 3, 4, 8) for dim in (2, 3, 16, 32, 64)
        ]
        cases.append((unit_columns(16, 2)[:, [0, 1, 0]], unit_columns(16, 3)))
        for vecs, planted in cases:
            union = cli.union_of_ranges([v[:, None] for v in vecs.T], 0.1)
            for basis in (union, np.eye(len(vecs))):
                got = cli._union_figures(basis, vecs, planted)
                want = union_figures_dense(basis, vecs, planted, cli._SUPPORT_CUTOFF)
                for a, b in zip(got, want):
                    assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), (vecs.shape, got, want)
            with pytest.raises(ValueError, match="not idempotent"):
                union_figures_dense(1.01 * union, vecs, planted, cli._SUPPORT_CUTOFF)
        monkeypatch.setattr(jordan, "_far_complement", lambda q1, q2, delta: q1)
        assert run(["union-stress", "--s", "2", "--delta", "0.3", "--dim", "3", "--trials", "1",
                    "--eps", "0.1", "--seed", "1", "--out", str(tmp_path / "u.json")]) == 2
        assert "merged basis is not orthonormal" in capsys.readouterr().err

    def test_jordan_inspect(self, tmp_path):
        p1 = random_projector(6, 2, 11)
        p2 = random_projector(6, 3, 12)
        f1, f2 = str(tmp_path / "p1.txt"), str(tmp_path / "p2.txt")
        save_matrix(f1, p1.a)
        save_matrix(f2, p2.a)
        out = str(tmp_path / "j.json")
        assert run(["jordan-inspect", "--p1", f1, "--p2", f2, "--out", out]) == 0
        rec = read(out)
        assert all(rec["checks"].values())
        report = rec["results"]["report"]
        overlaps = [block.pop("overlap") for block in report["blocks"]]
        assert report == {"delta": 0.1, "num_blocks": 4, "blocks": [
            {"rank": 2, "label": "far", "p1_rank": 1, "p2_rank": 1},
            {"rank": 2, "label": "far", "p1_rank": 1, "p2_rank": 1},
            {"rank": 1, "label": "far", "p1_rank": 0, "p2_rank": 1},
            {"rank": 1, "label": "far", "p1_rank": 0, "p2_rank": 0},
        ]}
        want = [0.5270187603314685, 0.04820553965595062, 0.0, 0.0]
        assert max(abs(a - b) for a, b in zip(overlaps, want)) <= 1e-12
        # one 'nan,0' entry fails the projector check: an input error, no record
        save_matrix(f2, np.diag([np.nan, 0, 0, 0, 0, 0]))
        assert "nan,0" in (tmp_path / "p2.txt").read_text()
        bad = tmp_path / "nan.json"
        assert run(["jordan-inspect", "--p1", f1, "--p2", f2, "--out", str(bad)]) == 2
        assert not bad.exists()

    def test_compound_sim(self, tmp_path, files):
        out = str(tmp_path / "c.json")
        assert run(["compound-sim", "--channels", f"{files['ident']},{files['flip']}",
                    "--state", files["psi"], "--rate", "0", "--eps", "0.2",
                    "--eta", "0.05", "--out", out]) == 0
        rec = read(out)
        assert rec["checks"]["povm_dominated"] and rec["checks"]["errors_within_bound"]
        assert len(rec["results"]["per_channel_error"]) == 2
        assert all(e <= 0.2 + 3 * 0.05 + 1e-9 for e in rec["results"]["per_channel_error"])

    def test_informed_sim(self, tmp_path, files):
        out = str(tmp_path / "i.json")
        assert run(["informed-sim", "--channels", f"{files['ident']},{files['flip']}",
                    "--states", f"{files['psi']},{files['psi']}", "--rate", "0",
                    "--eps", "0.2", "--eta", "0.05", "--out", out]) == 0
        rec = read(out)
        assert all(rec["checks"].values())

    def test_rates_single_state(self, tmp_path, files):
        out = str(tmp_path / "r.json")
        assert run(["rates", "--channels", f"{files['ident']},{files['flip']}",
                    "--state", files["psi"], "--eps", "0.2", "--eta", "0.05",
                    "--gap-tol", "1e-4", "--out", out]) == 0
        rec = read(out)
        point = rec["results"]["points"][0]
        assert rec["checks"]["converse_dominates"]
        assert point["converse"] >= point["achievable"]

    def test_rates_sweep_solves_each_member_once_per_point(self, tmp_path, files, monkeypatch,
                                                           eigensolves):
        from qoneshot import divergences

        starts, solves = [], []
        rounds, solve = divergences._ih_rounds, divergences._np_solve
        monkeypatch.setattr(divergences, "_ih_rounds",
                            lambda *a: starts.append(1) or rounds(*a))
        monkeypatch.setattr(divergences, "_np_solve", lambda *a: solves.append(1) or solve(*a))
        out = str(tmp_path / "r.json")
        assert run(["rates", "--channels", f"{files['ident']},{files['flip']}",
                    "--sweep-step", "0.1", "--eps", "0.2", "--eta", "0.05",
                    "--gap-tol", "1e-4", "--out", out]) == 0
        assert len(read(out)["results"]["points"]) == 9
        # one column generation per member and point, stopped early when the
        # member is certainly above the other: 106 solves when both ran to the end
        assert len(starts) == 2 * 9
        assert len(solves) == 86
        # every eigensolve of the command: 819 when each solve started cold
        # from its jump list and closed smooth pieces by a secant
        assert len(eigensolves) == 525

    def test_rates_requires_exactly_one_input_mode(self, files):
        assert run(["rates", "--channels", files["ident"], "--eps", "0.2",
                    "--eta", "0.05"]) == 2

    def test_pauli_example(self, tmp_path):
        out = str(tmp_path / "p.json")
        assert run(["pauli-example", "--eps", "0.1", "--out", out]) == 0
        rec = read(out)
        assert rec["checks"]["average_depolarizes"]
        assert abs(rec["results"]["reference_value"] - (2.0 + math.log2(0.9))) < 1e-12

    def test_composite(self, tmp_path, files):
        out = str(tmp_path / "c.json")
        assert run(["composite", "--s1", f"{files['ground']},{files['excited']}",
                    "--s2", files["mixed"], "--n", "1", "--eps", "0.2",
                    "--delta", "0.1", "--out", out]) == 0
        rec = read(out)
        beta = rec["results"]["beta"]
        assert abs(beta["value_bits"] - 0.3219280948873623) < 1e-9
        assert beta["n"] == 1 and beta["delta"] == 0.1
        assert len(beta["s1_hashes"]) == 2 and len(beta["type2_per_vertex"]) == 1
        assert max(beta["type1_residuals"]) <= 0.2 + 1e-9
        assert rec["checks"]["universal_acceptance"]
        assert rec["checks"]["universal_value_floor"]

    def test_composite_solves_each_vertex_once(self, tmp_path, files, monkeypatch):
        from qoneshot import composite

        calls = []

        def counted(solve):
            def wrapper(inst):
                calls.append(len(inst.s1.vertices))
                return solve(inst)

            return wrapper

        monkeypatch.setattr(cli, "beta_exact", counted(cli.beta_exact))
        monkeypatch.setattr(composite, "beta_exact", counted(composite.beta_exact))
        out = str(tmp_path / "c.json")
        assert run(["composite", "--s1", f"{files['ground']},{files['excited']},{files['tilted']}",
                    "--s2", files["mixed"], "--n", "1", "--eps", "0.2",
                    "--delta", "0.1", "--out", out]) == 0
        # each s1 vertex once for the universal test, then the family once
        assert calls == [1, 1, 1, 3]
        universal = read(out)["results"]["universal"]
        assert "floor_bits" in universal and "penalty_bits" in universal

    def test_net_validate(self, tmp_path):
        out = str(tmp_path / "n.json")
        assert run(["net-validate", "--deficit", "0.2", "--samples", "2000",
                    "--seed", "7", "--out", out]) == 0
        rec = read(out)
        assert rec["results"]["covered"] and rec["results"]["within_budget"]


class TestOneEigensolverEntry:
    def test_commands_never_call_numpy_eigensolvers(self, tmp_path, files, monkeypatch,
                                                    eigensolves):
        """With numpy's own eigh and eigvalsh made to raise, one command of
        each kind still succeeds: every eigensolve goes through qcore's
        entry point, and each command but union-stress (whose trials
        eigensolve nothing) makes some there."""
        def bypassed(*args, **kwargs):
            raise AssertionError("an eigensolve bypassed qcore's entry point")

        monkeypatch.setattr(np.linalg, "eigh", bypassed)
        monkeypatch.setattr(np.linalg, "eigvalsh", bypassed)
        channels = f"{files['ident']},{files['flip']}"
        commands = {
            "rates": ["rates", "--channels", channels, "--state", files["psi"], "--eps", "0.2",
                      "--eta", "0.05", "--gap-tol", "1e-4"],
            "composite": ["composite", "--s1", f"{files['ground']},{files['excited']}",
                          "--s2", files["mixed"], "--n", "1", "--eps", "0.2", "--delta", "0.1"],
            "compound-sim": ["compound-sim", "--channels", channels, "--state", files["psi"],
                             "--rate", "0", "--eps", "0.2", "--eta", "0.05"],
            "union-stress": ["union-stress", "--s", "3", "--delta", "0.3", "--dim", "3",
                             "--trials", "5", "--seed", "7"],
        }
        for name, argv in commands.items():
            eigensolves.clear()
            assert run([*argv, "--out", str(tmp_path / f"{name}.json")]) == 0, name
            assert bool(eigensolves) == (name != "union-stress"), name

    def test_no_source_file_calls_numpy_eigensolvers(self):
        calls = [
            f"{path.name}:{n}"
            for path in sorted(Path(cli.__file__).parent.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"linalg\.eig(vals)?h\s*\(", line)
        ]
        assert calls == []


class TestNoHighsOnTestPath:
    def test_composite_runs_with_scipy_lp_solvers_raising(self, tmp_path, files, monkeypatch):
        """With scipy's HiGHS front ends made to raise, composite commands
        with a delta floor and with a net still succeed: the test LP is
        solved in the package."""
        def forbidden(*args, **kwargs):
            raise AssertionError("the composite test path called HiGHS")

        monkeypatch.setattr(scipy.optimize, "linprog", forbidden)
        monkeypatch.setattr(scipy.optimize, "milp", forbidden)
        common = ["composite", "--s1", f"{files['ground']},{files['tilted']}",
                  "--s2", f"{files['mixed']},{files['excited']}", "--n", "2", "--eps", "0.2"]
        for name, extra in (("delta", ["--delta", "0.1"]),
                            ("net", ["--delta", "0.3", "--net-deficit", "0.04"])):
            out = tmp_path / f"{name}.json"
            assert run([*common, *extra, "--out", str(out)]) == 0, name
            assert read(out)["ok"], name

    def test_composite_does_not_import_scipy_optimize(self):
        source = Path(composite.__file__).read_text()
        assert not re.search(r"scipy\.optimize|from scipy import", source)


def test_parser_built_per_command_keeps_help_and_errors(capsys, monkeypatch):
    """A call naming a subcommand builds only that subparser; its help and
    errors are byte-identical to those of the parser with every one."""
    full = cli._build_parser

    def outcome(argv):
        code = run(list(argv))
        return (code, *capsys.readouterr())

    cases = {
        ("--help",): 0,
        (): 2,
        ("no-such-command",): 2,
        ("union-stress", "--rate", "2"): 2,
        ("union-stress", "--s", "two"): 2,
        ("composite", "stray"): 2,
        **{(name, "--help"): 0 for name in cli.COMMANDS},
    }
    seen = {}
    for argv, expected in cases.items():
        seen[argv] = outcome(argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_build_parser", lambda argv: full())
            assert seen[argv] == outcome(argv), argv
        assert seen[argv][0] == expected, argv
    assert seen[()][1].startswith("usage: qoneshot")
    unknown = seen["no-such-command",][2]
    assert "invalid choice" in unknown and all(f"'{name}'" in unknown for name in cli.COMMANDS)
    assert "unrecognized arguments: --rate 2" in seen["union-stress", "--rate", "2"][2]


@pytest.fixture(scope="module")
def workload_commands(tmp_path_factory):
    """Round 0 of seed 11 of every benchmark workload, written through
    ``perfbench/inputs.py`` and ``workloads.py``, which are only imported."""
    with pytest.MonkeyPatch.context() as m:
        m.syspath_prepend(str(PERFBENCH))
        from inputs import write_round
        from workloads import WORKLOADS
    folder = str(tmp_path_factory.mktemp("workloads"))
    return [cmd for workload in WORKLOADS.values()
            for cmd in write_round(workload.templates, 11, 0, folder)]


#: valid values by converter; none starts with "-"
_TEXT = st.text().filter(lambda t: not t.startswith("-"))
_VALUES = {
    str: _TEXT,
    int: st.integers(min_value=0).map(str),
    float: st.floats(min_value=0.0).map(str),
    cli._paths: _TEXT.filter(lambda t: t.strip(",")),
}


@st.composite
def plain_argvs(draw):
    """A command and a subset of its flags in any order, each given once
    with a value its converter accepts."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    convs = {p.flag: p.conv for p in (*cli.COMMANDS[command].params, *cli._COMMON)}
    flags = draw(st.permutations(sorted(convs)))
    argv = [command]
    for flag in flags[:draw(st.integers(0, len(flags)))]:
        argv += [flag, draw(_VALUES[convs[flag]])]
    return argv


class TestPlainArgv:
    """``_plain_args`` reads a plain argv from the command specs into the
    namespace argparse would return, and leaves every other argv to it."""

    def test_workload_argvs_read_as_argparse_reads_them(self, workload_commands):
        for argv in (cmd["argv"] for cmd in workload_commands):
            plain = cli._plain_args(argv)
            assert plain is not None, argv
            assert reading(plain) == reading(cli._build_parser(argv).parse_args(argv)), argv

    @settings(max_examples=300, deadline=None)
    @given(plain_argvs())
    def test_drawn_plain_argvs_read_as_argparse_reads_them(self, argv):
        plain = cli._plain_args(argv)
        assert plain is not None
        assert reading(plain) == reading(cli._build_parser(argv).parse_args(argv))

    def test_other_forms_are_left_to_argparse(self):
        cases = (
            [], ["-h"], ["--help"], ["no-such-command"],
            ["rates", "--sweep", "0.1"],  # an abbreviation
            ["divergence", "--eps=0.2"],
            ["divergence", "--eps", "0.2", "--eps", "0.3"],
            ["net-validate", "--seed", "-5"],
            ["rates", "--sweep_step", "0.1"],  # the dest, not the flag
            ["divergence", "--kind", "re", "--eps"],
            ["rates", "--channels", ","],
            ["union-stress", "--s", "two"],
        )
        for argv in cases:
            assert cli._plain_args(argv) is None, argv

    def test_workload_commands_run_without_argparse(self, workload_commands, monkeypatch):
        def refused(argv):
            raise AssertionError(f"argparse built for {argv}")

        monkeypatch.setattr(cli, "_build_parser", refused)
        for cmd in workload_commands:
            assert cli.main(cmd["argv"]) == 0, cmd["label"]


class TestModuleEntry:
    def test_python_dash_m_invocation(self, tmp_path, files):
        out = str(tmp_path / "m.json")
        proc = subprocess.run(
            [sys.executable, "-m", "qoneshot", "divergence", "--kind", "re",
             "--rho", files["ground"], "--sigma", files["mixed"], "--out", out],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 0
        assert abs(read(out)["results"]["value_bits"] - 1.0) < 1e-12


class TestBlasThreadDeterminism:
    def test_output_bytes_do_not_depend_on_blas_threads(self, tmp_path, files):
        """The decoder is the library's heaviest BLAS user, the union
        multiplies carried range bases, the mixture optimizer sums traces
        over stacked operators, and the Neyman-Pearson slope multiplies
        eigenvectors; their records must be byte-identical under one and
        two OpenBLAS threads."""
        channels = f"{files['ident']},{files['flip']}"
        pairs = [str(tmp_path / f"full{k}.txt") for k in range(4)]
        for k, path in enumerate(pairs):
            save_matrix(path, random_density(4, rng_from(40 + k)))
        other = str(tmp_path / "psi2.txt")
        vec = rng_from(11).normal(size=4) + 1j * rng_from(12).normal(size=4)
        save_matrix(other, PureState(vec / np.linalg.norm(vec), RegisterLayout.of("a:2 r:2")).density())
        qutrit = str(tmp_path / "psi3.txt")
        vec = rng_from(13).normal(size=6) + 1j * rng_from(14).normal(size=6)
        save_matrix(qutrit, PureState(vec / np.linalg.norm(vec), RegisterLayout.of("a:2 r:3")).density())
        commands = {
            "compound": ["compound-sim", "--channels", channels, "--state", files["psi"],
                         "--rate", "2", "--eps", "0.2", "--eta", "0.05"],
            "informed": ["informed-sim", "--channels", channels,
                         "--states", f"{files['psi']},{files['psi']}", "--rate", "1",
                         "--eps", "0.2", "--eta", "0.05"],
            # two distinct partners in bands of 2 on the spin-block decoder;
            # 2 messages keep its one block 64 wide
            "informed_band": ["informed-sim", "--channels", channels,
                              "--states", f"{files['psi']},{other}", "--rate", "1",
                              "--eps", "0.2", "--eta", "0.05"],
            # 4 messages make 256-wide blocks: OpenBLAS 0.3.31's eigh is
            # bit-identical under one and two threads up to about 96 wide,
            # and not from 112 on, so qcore solves such matrices on one
            "informed_wide": ["informed-sim", "--channels", channels,
                              "--states", f"{files['psi']},{other}", "--rate", "2",
                              "--eps", "0.2", "--eta", "0.05"],
            # a qutrit partner keeps the decoder on the full register space,
            # 2 x 3^2 x 2 = 36 wide
            "dense": ["compound-sim", "--channels", channels, "--state", qutrit,
                      "--rate", "1", "--eps", "0.2", "--eta", "0.05"],
            "pauli": ["pauli-example", "--eps", "0.1"],
            "union": ["union-stress", "--s", "8", "--delta", "0.1", "--dim", "64",
                      "--trials", "3", "--seed", "5"],
            # the stacked samples and net of the composite_family workload
            "net": ["net-validate", "--deficit", "0.1", "--samples", "3000", "--seed", "5"],
            # the Neyman-Pearson solver and the mixture optimizer on unitary
            # members; damped members are left out, since their records
            # still part between thread counts inside scipy's SLSQP
            "rates": ["rates", "--channels", channels, "--eps", "0.2", "--eta", "0.05",
                      "--sweep-step", "0.25"],
            # the solver alone on full-rank pairs, where it steps by the slope
            "dh": ["divergence", "--kind", "dh", "--rho", pairs[0], "--sigma", pairs[1],
                   "--eps", "0.2"],
            "dh_2": ["divergence", "--kind", "dh", "--rho", pairs[2], "--sigma", pairs[3],
                     "--eps", "0.05"],
        }
        outputs = {}
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads}
            for name, argv in commands.items():
                out = tmp_path / f"{name}.json"
                proc = subprocess.run(
                    [sys.executable, "-m", "qoneshot", *argv, "--out", str(out)],
                    capture_output=True, env=env, timeout=120,
                )
                assert proc.returncode == 0, proc.stderr
                outputs[name, threads] = (out.read_bytes(), proc.stdout)
        for name in commands:
            assert outputs[name, "1"] == outputs[name, "2"], name
