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

from qoneshot import cli, composite, jordan
from qoneshot.qcore import (
    ComplexMatrix,
    DensityMatrix,
    PureState,
    RegisterLayout,
    maximally_entangled,
    random_projector,
    rng_from,
    save_channel,
    save_matrix,
    unitary_channel,
)
from oracles import union_figures_dense

#: the source tree this module imported qoneshot from, for child interpreters
SRC = str(Path(cli.__file__).resolve().parents[1])
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
    return cli.main(args)


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

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("eps\n")
        assert run(["divergence", "--config", str(cfg)]) == 2

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
        assert "subcommand" in capsys.readouterr().out or True


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


class TestSubcommands:
    def test_divergence_matches_closed_form(self, tmp_path, files):
        out = str(tmp_path / "d.json")
        assert run(["divergence", "--kind", "dh", "--rho", files["tilted"],
                    "--sigma", files["tilted"], "--eps", "0.25", "--out", out]) == 0
        rec = read(out)
        assert abs(rec["results"]["value_bits"] + math.log2(0.75)) < 1e-12
        assert rec["checks"]["test_feasible"]

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

    def test_rates_sweep_solves_each_member_once_per_point(self, tmp_path, files, monkeypatch):
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
        assert abs(rec["results"]["beta"]["value_bits"] - 0.3219280948873623) < 1e-9
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
        # the family once, then each s1 vertex once for the universal test
        assert calls == [3, 1, 1, 1]
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
        multiplies carried range bases, and the mixture optimizer sums
        traces over stacked operators; their records must be
        byte-identical under one and two OpenBLAS threads."""
        channels = f"{files['ident']},{files['flip']}"
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
            # 2 messages keep its one block 64 wide (OpenBLAS 0.3.31's eigh
            # is bit-identical under one and two threads up to about 96
            # wide, and not from 112 on)
            "informed_band": ["informed-sim", "--channels", channels,
                              "--states", f"{files['psi']},{other}", "--rate", "1",
                              "--eps", "0.2", "--eta", "0.05"],
            # a qutrit partner keeps the decoder on the full register space,
            # 2 x 3^2 x 2 = 36 wide; at --rate 2 it would be 324 wide, where
            # decoder_min_kept_eigenvalue changes in its last digits between
            # one and two threads
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
