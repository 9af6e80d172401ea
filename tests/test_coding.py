"""Tests for entanglement-assisted coding over finite channel families.

Decoding errors reported by the simulators are re-derived by an independent
index-loop embedding oracle (no shared reshape/transpose machinery), rate
formulas are checked against hand-written penalty arithmetic plus direct
divergence calls, and the restricted-rate value is compared against a
nested weight-grid scan.  Operator inequalities are certified by explicit
eigenvalue computations.
"""

import dataclasses
import math

import numpy as np
import pytest

from qoneshot.coding import (
    CodeParams,
    CompoundChannel,
    SimulationReport,
    _block_decoder,
    _certificate,
    _channel_outputs,
    _dense_decoder,
    _evaluate,
    _ground_omega,
    _informed_code,
    _informed_family,
    _uninformed_code,
    achievable_rate_uninformed,
    converse_rate,
    hayashi_nagaoka_check,
    informed_finite_blocking_bounds,
    pauli_compound_example,
    rate_informed,
    schmidt_state,
    shared_state_sweep,
    simulate_informed,
    simulate_uninformed,
    uninformed_rates,
)
from qoneshot import divergences
from qoneshot.divergences import (
    StateEnsemble,
    TestOperator,
    hypothesis_test_divergence,
    i_h,
    i_h_min,
)
from oracles import min_dh_over_weight_grids, slow_embed
from qoneshot.jordan import neumark_dilate
from qoneshot.qcore import (
    ATOL,
    CapacityError,
    Channel,
    ComplexMatrix,
    DensityMatrix,
    LayoutError,
    Projector,
    PureState,
    RegisterLayout,
    haar_unitary,
    maximally_entangled,
    random_channel,
    random_density,
    rng_from,
    unitary_channel,
)

QUBIT_IN = RegisterLayout.of("a:2")
QUBIT_OUT = RegisterLayout.of("b:2")
IDENT = unitary_channel(np.eye(2), QUBIT_IN, QUBIT_OUT)
ZPHASE = unitary_channel(np.diag([1.0, -1.0]), QUBIT_IN, QUBIT_OUT)
XFLIP = unitary_channel(np.array([[0.0, 1.0], [1.0, 0.0]]), QUBIT_IN, QUBIT_OUT)
EPS, ETA = 0.2, 0.05


def random_test_operator(dim, rng, scale=0.9):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = a @ a.conj().T
    h = h / np.linalg.eigvalsh(h)[-1] * scale
    return TestOperator(matrix=ComplexMatrix(h), type1_error=0.0, type2_bound=1.0)


class TestDomainTypes:
    def test_compound_channel_requires_members(self):
        with pytest.raises(ValueError, match="at least one"):
            CompoundChannel(())

    def test_compound_channel_requires_common_layouts(self):
        other = unitary_channel(np.eye(2), QUBIT_IN, RegisterLayout.of("c:2"))
        with pytest.raises(LayoutError, match="share"):
            CompoundChannel((IDENT, other))

    def test_num_messages_rounds_rate_up(self):
        psi = maximally_entangled(2, ("a", "r"))
        assert CodeParams(1.0, EPS, ETA, psi).num_messages == 2
        assert CodeParams(0.0, EPS, ETA, psi).num_messages == 1
        assert CodeParams(-5.2, EPS, ETA, psi).num_messages == 1
        assert CodeParams(2.5, EPS, ETA, psi).num_messages == 8

    def test_explicit_num_messages_preserved(self):
        assert CodeParams(0.3, EPS, ETA, num_messages=4).num_messages == 4

    def test_message_count_capped_before_it_is_formed(self):
        with pytest.raises(CapacityError, match="2\\^13"):
            CodeParams(12.5, EPS, ETA)
        with pytest.raises(CapacityError, match="2\\^1000000000000000000 > 4096"):
            CodeParams(1e18, EPS, ETA)
        with pytest.raises(CapacityError, match="4097 messages"):
            CodeParams(0.0, EPS, ETA, num_messages=4097)
        assert CodeParams(12.0, EPS, ETA).num_messages == 4096
        for rate in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                CodeParams(rate, EPS, ETA)

    def test_parameter_ranges(self):
        with pytest.raises(ValueError, match="epsilon"):
            CodeParams(1.0, 0.0, ETA)
        with pytest.raises(ValueError, match="eta"):
            CodeParams(1.0, EPS, 1.0)

    def test_report_validates_errors(self):
        for bad in (1.5, math.nan):
            with pytest.raises(ValueError, match="outside"):
                SimulationReport((bad,), 0.35, 1.0, (0,), 2, True, 0.0)
        rep = SimulationReport((0.1, -1e-12), 0.35, 1.0, (0, 1), 2, True, 0.0)
        assert rep.per_channel_error == (0.1, 0.0)
        rec = rep.to_record()
        assert rec["within_bound"] == [True, True]


class TestNeumarkDilate:
    def test_identity_test_dilates_to_ground_block(self):
        m = TestOperator(matrix=ComplexMatrix(np.eye(3)), type1_error=0.0, type2_bound=1.0)
        r = neumark_dilate(m)
        pi = r @ r.conj().T
        expect = np.kron(np.eye(3), np.diag([1.0, 0.0]))
        assert np.max(np.abs(pi - expect)) < 1e-12

    def test_rejects_a_test_its_ground_block_cannot_reproduce(self):
        # eigenvalues outside [0, 1] are clipped, so the ground block differs
        m = TestOperator(matrix=ComplexMatrix(np.eye(2)), type1_error=0.0, type2_bound=1.0)
        object.__setattr__(m, "matrix", ComplexMatrix(np.diag([1.5, -0.5])))
        with pytest.raises(ValueError, match="block"):
            neumark_dilate(m)

    def test_half_identity_accepts_with_probability_half(self):
        m = TestOperator(matrix=ComplexMatrix(0.5 * np.eye(2)), type1_error=0.5, type2_bound=0.5)
        r = neumark_dilate(m)
        pi = r @ r.conj().T
        ground = np.diag([1.0, 0.0])
        rng = rng_from(11)
        for _ in range(100):
            rho = random_density(2, rng).a
            p = np.trace(pi @ np.kron(rho, ground)).real
            assert abs(p - 0.5) < 1e-12

    def test_basis_projector_accepts_with_overlap(self):
        m = TestOperator(matrix=ComplexMatrix(np.diag([1.0, 0.0])), type1_error=0.0, type2_bound=1.0)
        r = neumark_dilate(m)
        pi = r @ r.conj().T
        ground = np.diag([1.0, 0.0])
        rng = rng_from(12)
        for _ in range(50):
            rho = random_density(2, rng).a
            p = np.trace(pi @ np.kron(rho, ground)).real
            assert abs(p - rho[0, 0].real) < 1e-12

    def test_trace_identity_for_random_tests(self):
        rng = rng_from(13)
        ground = np.diag([1.0, 0.0])
        for dim in (2, 3, 4):
            m = random_test_operator(dim, rng)
            r = neumark_dilate(m)
            assert r.shape == (2 * dim, dim)
            assert np.max(np.abs(r.conj().T @ r - np.eye(dim))) < 1e-12
            pi = r @ r.conj().T
            for _ in range(100):
                rho = random_density(dim, rng).a
                lifted = np.trace(pi @ np.kron(rho, ground)).real
                direct = np.trace(m.a @ rho).real
                assert abs(lifted - direct) < 1e-11


class TestHayashiNagaoka:
    def test_scalar_case(self):
        cert = hayashi_nagaoka_check(0.5 * np.eye(2), 0.5 * np.eye(2), 1.0)
        assert abs(cert["min_gap_eigenvalue"] - 2.5) < 1e-12

    def test_zero_confusion_reduces_to_posterior_gap(self):
        rng = rng_from(21)
        s = random_density(2, rng).a * 0.8
        c = 0.7
        cert = hayashi_nagaoka_check(s, np.zeros((2, 2)), c)
        # with T = 0 and S invertible the left side vanishes, so the gap is
        # exactly (1+c)(I-S)
        expect = (1.0 + c) * (1.0 - np.linalg.eigvalsh(s)[-1])
        assert abs(cert["min_gap_eigenvalue"] - expect) < 1e-10

    def test_random_instances(self):
        rng = rng_from(22)
        for _ in range(50):
            d = int(rng.integers(2, 9))
            s = random_density(d, rng).a * float(rng.uniform(0.05, 1.0))
            t = random_density(d, rng).a * float(rng.uniform(0.0, 3.0))
            c = float(rng.uniform(0.05, 5.0))
            cert = hayashi_nagaoka_check(s, t, c)
            assert cert["min_gap_eigenvalue"] >= -ATOL

    def test_rejects_bad_inputs(self):
        nan = np.diag([math.nan, 0.0])
        for c in (0.0, math.nan):
            with pytest.raises(ValueError, match="positive"):
                hayashi_nagaoka_check(0.5 * np.eye(2), np.zeros((2, 2)), c)
        with pytest.raises(ValueError, match="0 <= S <= I"):
            hayashi_nagaoka_check(1.5 * np.eye(2), np.zeros((2, 2)), 1.0)
        with pytest.raises(ValueError, match="semidefinite"):
            hayashi_nagaoka_check(0.5 * np.eye(2), -0.1 * np.eye(2), 1.0)
        for s, t in ((nan, np.zeros((2, 2))), (0.5 * np.eye(2), nan)):
            with pytest.raises(ValueError, match="not Hermitian"):
                hayashi_nagaoka_check(s, t, 1.0)
        with pytest.raises(LayoutError):
            hayashi_nagaoka_check(0.5 * np.eye(2), np.zeros((3, 3)), 1.0)


class TestRateFormulas:
    def test_achievable_is_divergence_plus_penalty(self):
        cc = CompoundChannel((IDENT,))
        psi = maximally_entangled(2, ("a", "r"))
        got = achievable_rate_uninformed(cc, psi, EPS, ETA)
        base, _ = i_h(_channel_outputs(cc, psi)[0], EPS, gap_tol=1e-6)
        penalty = 2.0 * math.log2(2.0) * math.log2(ETA / 6.0) + math.log2(EPS / 4.0)
        assert abs(got - (base + penalty)) < 1e-9

    def test_converse_is_worst_divergence(self):
        cc = CompoundChannel((IDENT, ZPHASE))
        psi = maximally_entangled(2, ("a", "r"))
        vals = [i_h(r, EPS, gap_tol=1e-6)[0] for r in _channel_outputs(cc, psi)]
        assert abs(converse_rate(cc, psi, EPS) - min(vals)) < 1e-9

    def test_converse_dominates_achievable(self):
        cc = CompoundChannel((IDENT, XFLIP))
        for psi in (maximally_entangled(2, ("a", "r")), schmidt_state(0.3)):
            assert converse_rate(cc, psi, EPS) > achievable_rate_uninformed(
                cc, psi, EPS, ETA
            )

    def test_rate_increases_with_eta_and_diverges_at_zero(self):
        cc = CompoundChannel((IDENT,))
        psi = maximally_entangled(2, ("a", "r"))
        r_small = achievable_rate_uninformed(cc, psi, EPS, 0.01)
        r_mid = achievable_rate_uninformed(cc, psi, EPS, 0.1)
        r_big = achievable_rate_uninformed(cc, psi, EPS, 0.9)
        assert r_small < r_mid < r_big
        assert achievable_rate_uninformed(cc, psi, EPS, 1e-6) < -35.0

    def test_uninformed_rates_are_the_two_public_bounds(self):
        rng = rng_from(1717)
        for members in (2, 3):
            cc = CompoundChannel(
                tuple(haar_member(rng) for _ in range(members - 1)) + (damped_member(rng),)
            )
            psi = random_shared_state(rng)
            assert uninformed_rates(cc, psi, EPS, ETA) == (
                achievable_rate_uninformed(cc, psi, EPS, ETA),
                converse_rate(cc, psi, EPS),
            )

    def test_parameter_validation(self):
        cc = CompoundChannel((IDENT,))
        psi = maximally_entangled(2, ("a", "r"))
        with pytest.raises(ValueError, match="eps"):
            achievable_rate_uninformed(cc, psi, 0.0, ETA)
        with pytest.raises(ValueError, match="eps"):
            converse_rate(cc, psi, 1.0)
        with pytest.raises(ValueError, match="eta"):
            uninformed_rates(cc, psi, EPS, 1.0)

    def test_informed_single_channel_is_plain_divergence(self):
        cc = CompoundChannel((IDENT,))
        psi = schmidt_state(0.3)
        got = rate_informed(cc, [psi], EPS, ETA)
        _, outputs, partners, _ = _informed_family(cc, [psi])
        joint = _channel_outputs(cc, psi)[0]
        ref = np.kron(outputs.vertices[0].a, partners.vertices[0].a)
        base, _ = hypothesis_test_divergence(joint.a, ref, EPS)
        penalty = math.log2(2.0) * math.log2(ETA / 6.0) + math.log2(EPS / 4.0)
        assert abs(got - (base + penalty)) < 1e-8

    def test_informed_family_validates_each_state_once(self, monkeypatch):
        """Per member one density, its two marginals and its two outputs,
        and the averaged partner: 11 validated states for two members."""
        from qoneshot import qcore

        cc = CompoundChannel(tuple(random_channel(QUBIT_IN, QUBIT_OUT, 2, seed) for seed in (5, 6)))
        checked = []
        check = qcore._check_states
        monkeypatch.setattr(qcore, "_check_states", lambda a: checked.append(a.shape) or check(a))
        _informed_family(cc, [schmidt_state(0.3), schmidt_state(0.7)])
        assert len(checked) == 11

    def test_informed_identical_members_collapse(self):
        psi = maximally_entangled(2, ("a", "r"))
        one = rate_informed(CompoundChannel((IDENT,)), [psi], EPS, ETA)
        two = rate_informed(CompoundChannel((IDENT, IDENT)), [psi, psi], EPS, ETA)
        base_one = one - (math.log2(2.0) * math.log2(ETA / 6.0) + math.log2(EPS / 4.0))
        width = math.log2(4.0)
        base_two = two - (width * math.log2(ETA / (6.0 * width)) + math.log2(EPS / 16.0))
        assert abs(base_one - base_two) < 1e-8

    def test_informed_value_matches_weight_grid_oracle(self):
        cc = CompoundChannel((IDENT, XFLIP))
        states = [maximally_entangled(2, ("a", "r")), schmidt_state(0.3)]
        joints, outputs, partners, _ = _informed_family(cc, states)
        got = rate_informed(cc, states, EPS, ETA)
        width = math.log2(4.0)
        penalty = width * math.log2(ETA / (6.0 * width)) + math.log2(EPS / 16.0)
        oracle = min(
            min_dh_over_weight_grids(rho, outputs, partners, EPS, step=0.02)
            for rho in joints
        )
        diff = oracle - (got - penalty)
        assert -1e-9 < diff < 1e-4

    def test_informed_requires_one_state_per_channel(self):
        cc = CompoundChannel((IDENT, XFLIP))
        with pytest.raises(ValueError, match="per channel"):
            rate_informed(cc, [maximally_entangled(2, ("a", "r"))], EPS, ETA)


class TestIHMin:
    """``i_h_min`` against the minimum of plain ``i_h`` over the members."""

    @staticmethod
    def outputs(rng, members):
        cc = CompoundChannel(tuple(
            (haar_member if k % 2 else damped_member)(rng) for k in range(members)
        ))
        return _channel_outputs(cc, random_shared_state(rng))

    def test_equals_the_least_member_value_bitwise(self):
        # on this seed, at every size, some member finishes above another
        # member's final value: the first member to finish is not the answer
        rng = rng_from(2438)
        for members in (2, 3, 5):
            for _ in range(3):
                states = self.outputs(rng, members)
                runs = [i_h(rho, EPS, gap_tol=1e-6) for rho in states]
                values = [value for value, _ in runs]
                assert i_h_min(states, EPS, gap_tol=1e-6)[0] == min(values)
                # the least member last, where every other member runs first
                order = np.argsort(values)[::-1]
                value, test = i_h_min([states[k] for k in order], EPS, gap_tol=1e-6)
                assert value == min(values)
                assert test.iterations == runs[order[-1]][1].iterations

    def test_exact_ties(self):
        rng = rng_from(2425)
        rho, other = self.outputs(rng, 2)
        value, test = i_h(rho, EPS)
        for states in ([rho, rho], [rho, rho, rho]):
            got, got_test = i_h_min(states, EPS)
            assert got == value
            assert got_test.iterations == test.iterations
        assert i_h_min([rho, other, rho], EPS)[0] == min(value, i_h(other, EPS)[0])

    def test_one_member_is_plain_i_h(self):
        rho = self.outputs(rng_from(2426), 1)[0]
        value, test = i_h(rho, EPS)
        got, got_test = i_h_min([rho], EPS)
        assert got == value
        assert got_test.iterations == test.iterations

    def test_rejects_bad_inputs_before_any_solve(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solved before rejecting the input")

        monkeypatch.setattr(divergences, "_np_solve", no_solve)
        states = self.outputs(rng_from(2427), 2)
        for eps, gap_tol in ((0.0, 1e-9), (1.0, 1e-9), (EPS, -1e-9), (EPS, math.inf)):
            with pytest.raises(ValueError, match="eps" if eps != EPS else "gap_tol"):
                i_h_min(states, eps, gap_tol=gap_tol)
        with pytest.raises(ValueError, match="at least one"):
            i_h_min([], EPS)
        flat = DensityMatrix(ComplexMatrix(np.eye(8) / 8), RegisterLayout.of("a:2 b:2 c:2"))
        with pytest.raises(LayoutError):
            i_h_min([*states, flat], EPS)

    def test_pinned_solves_below_every_member_run(self, monkeypatch):
        """Exact work on one seeded family; the members' own runs total more."""
        rng = rng_from(1717)
        cc = CompoundChannel((haar_member(rng), haar_member(rng), damped_member(rng)))
        states = _channel_outputs(cc, random_shared_state(rng))
        alone = sum(i_h(rho, EPS, gap_tol=1e-6)[1].iterations for rho in states)
        solves = []
        solve = divergences._np_solve
        monkeypatch.setattr(divergences, "_np_solve", lambda *a: solves.append(1) or solve(*a))
        i_h_min(states, EPS, gap_tol=1e-6)
        assert (len(solves), alone) == (20, 32)


class TestSimulateUninformed:
    def test_single_member_single_message_error_is_test_type1(self):
        cc = CompoundChannel((IDENT,))
        psi = maximally_entangled(2, ("a", "r"))
        params = CodeParams(0.0, EPS, ETA, psi)
        rep = simulate_uninformed(cc, params)
        # one message, one member: the decoder is the lifted test itself,
        # so the exact error equals its acceptance deficit
        joint = _channel_outputs(cc, psi)[0]
        assert abs(rep.per_channel_error[0] - i_h(joint, EPS)[1].type1_error) < 1e-12
        assert rep.per_channel_error[0] <= EPS + 3.0 * ETA
        assert rep.rate_ok is False or params.rate_bits <= 0
        assert rep.povm_gap_min_eig >= -1e-9

    def test_rate_satisfying_code_meets_guarantee(self):
        for cc in (CompoundChannel((IDENT,)), CompoundChannel((IDENT, ZPHASE))):
            psi = maximally_entangled(2, ("a", "r"))
            rate = achievable_rate_uninformed(cc, psi, EPS, ETA)
            params = CodeParams(rate, EPS, ETA, psi)
            rep = simulate_uninformed(cc, params)
            assert rep.rate_ok
            assert all(e <= EPS + 3.0 * ETA + 1e-12 for e in rep.per_channel_error)
            assert rep.povm_gap_min_eig >= -1e-9

    def test_two_message_error_matches_index_loop_oracle(self):
        cc = CompoundChannel((IDENT, ZPHASE))
        psi = maximally_entangled(2, ("a", "r"))
        params = CodeParams(1.0, EPS, ETA, psi)
        rep = simulate_uninformed(cc, params, true_channel=0)
        code = _uninformed_code(cc, psi, EPS, ETA, 2)
        dims = [2, 2, 2, 2]
        lams = [slow_embed(code.projector, dims, [0, m, 3]) for m in (1, 2)]
        total = lams[0] + lams[1]
        w, v = np.linalg.eigh(total)
        inv = (v * np.where(w > 1e-12, 1.0 / np.sqrt(np.maximum(w, 1e-12)), 0.0)) @ v.conj().T
        omega = inv @ lams[0] @ inv
        joint = code.joints[0]
        partner = code.partners[0]
        ground = np.diag([1.0, 0.0])
        theta = np.zeros((16, 16), dtype=complex)
        for r in range(16):
            b, a1, a2, p = r >> 3 & 1, r >> 2 & 1, r >> 1 & 1, r & 1
            for c in range(16):
                bc, a1c, a2c, pc = c >> 3 & 1, c >> 2 & 1, c >> 1 & 1, c & 1
                theta[r, c] = joint[2 * b + a1, 2 * bc + a1c] * partner[a2, a2c] * ground[p, pc]
        oracle = 1.0 - np.trace(omega @ theta).real
        assert abs(rep.per_channel_error[0] - oracle) < 1e-12

    def test_message_relabeling_symmetry(self):
        cc = CompoundChannel((IDENT, ZPHASE))
        psi = maximally_entangled(2, ("a", "r"))
        params = CodeParams(1.0, EPS, ETA, psi)
        first = simulate_uninformed(cc, params, message=1)
        second = simulate_uninformed(cc, params, message=2)
        for e1, e2 in zip(first.per_channel_error, second.per_channel_error):
            assert abs(e1 - e2) < 1e-12

    def test_input_validation(self):
        cc = CompoundChannel((IDENT,))
        psi = maximally_entangled(2, ("a", "r"))
        with pytest.raises(ValueError, match="shared_state"):
            simulate_uninformed(cc, CodeParams(0.0, EPS, ETA))
        params = CodeParams(0.0, EPS, ETA, psi)
        with pytest.raises(ValueError, match="true_channel"):
            simulate_uninformed(cc, params, true_channel=5)
        with pytest.raises(ValueError, match="message"):
            simulate_uninformed(cc, params, message=2)

    def test_dimension_cap_raises(self):
        cc = CompoundChannel((IDENT,))
        psi = maximally_entangled(2, ("a", "r"))
        with pytest.raises(CapacityError, match="cap"):
            simulate_uninformed(cc, CodeParams(12.0, EPS, ETA, psi))


class TestSimulateInformed:
    def test_single_member_reduces_to_uninformed(self):
        cc = CompoundChannel((IDENT,))
        psi = maximally_entangled(2, ("a", "r"))
        params = CodeParams(0.0, EPS, ETA, psi)
        uninf = simulate_uninformed(cc, params)
        inf = simulate_informed(cc, [psi], params)
        assert abs(uninf.per_channel_error[0] - inf.per_channel_error[0]) < 1e-9

    def test_band_code_meets_guarantee(self):
        cc = CompoundChannel((IDENT, XFLIP))
        states = [maximally_entangled(2, ("a", "r")), schmidt_state(0.3)]
        params = CodeParams(-30.0, EPS, ETA)
        rep = simulate_informed(cc, states, params)
        assert rep.rate_ok
        assert rep.num_messages == 1
        assert all(e <= EPS + 3.0 * ETA + 1e-12 for e in rep.per_channel_error)
        assert rep.povm_gap_min_eig >= -1e-9

    def test_band_error_matches_index_loop_oracle(self):
        from qoneshot.divergences import i_h_tilde
        from qoneshot.jordan import union_many

        cc = CompoundChannel((IDENT, XFLIP))
        states = [maximally_entangled(2, ("a", "r")), schmidt_state(0.3)]
        params = CodeParams(0.0, EPS, ETA)
        rep = simulate_informed(cc, states, params, true_channel=1)
        joints, outputs, partners, avg = _informed_family(cc, states)
        tests = [i_h_tilde(r, avg, outputs, EPS)[1] for r in joints]
        # the projector route: each dilation's R R^dag, merged by union_many
        dilated = [neumark_dilate(t) for t in tests]
        merged = union_many(
            [Projector.of(r @ r.conj().T) for r in dilated], ETA / (3.0 * math.log2(4.0))
        )
        dims = [2, 2, 2, 2]
        lams = [slow_embed(merged.a, dims, [0, k, 3]) for k in (1, 2)]
        total = lams[0] + lams[1]
        w, v = np.linalg.eigh(total)
        inv = (v * np.where(w > 1e-12, 1.0 / np.sqrt(np.maximum(w, 1e-12)), 0.0)) @ v.conj().T
        omega = inv @ total @ inv
        joint = joints[1].a
        first = partners.vertices[0].a
        ground = np.diag([1.0, 0.0])
        theta = np.zeros((16, 16), dtype=complex)
        for r in range(16):
            b, a1, a2, p = r >> 3 & 1, r >> 2 & 1, r >> 1 & 1, r & 1
            for c in range(16):
                bc, a1c, a2c, pc = c >> 3 & 1, c >> 2 & 1, c >> 1 & 1, c & 1
                theta[r, c] = joint[2 * b + a2, 2 * bc + a2c] * first[a1, a1c] * ground[p, pc]
        oracle = 1.0 - np.trace(omega @ theta).real
        assert abs(rep.per_channel_error[0] - oracle) < 1e-12

    def test_band_message_relabeling_symmetry(self):
        cc = CompoundChannel((IDENT, XFLIP))
        states = [maximally_entangled(2, ("a", "r")), schmidt_state(0.3)]
        params = CodeParams(1.0, EPS, ETA)
        first = simulate_informed(cc, states, params, message=1)
        second = simulate_informed(cc, states, params, message=2)
        for e1, e2 in zip(first.per_channel_error, second.per_channel_error):
            assert abs(e1 - e2) < 1e-12

    def test_state_layout_validation(self):
        cc = CompoundChannel((IDENT, XFLIP))
        good = maximally_entangled(2, ("a", "r"))
        other = maximally_entangled(2, ("x", "y"))
        with pytest.raises(LayoutError, match="share"):
            simulate_informed(cc, [good, other], CodeParams(0.0, EPS, ETA))


class TestRequestValidation:
    def test_bad_true_channel_rejected_before_any_solver(self, monkeypatch):
        import qoneshot.coding as coding

        def solver(*args, **kwargs):
            raise AssertionError("a solver ran before the request was validated")

        monkeypatch.setattr(coding, "i_h", solver)
        monkeypatch.setattr(coding, "i_h_tilde", solver)
        cc = CompoundChannel((IDENT, XFLIP))
        psi = maximally_entangled(2, ("a", "r"))
        with pytest.raises(ValueError, match="true_channel"):
            simulate_uninformed(cc, CodeParams(0.0, EPS, ETA, psi), true_channel=2)
        with pytest.raises(ValueError, match="true_channel"):
            simulate_informed(cc, [psi, psi], CodeParams(0.0, EPS, ETA), true_channel=-1)
        with pytest.raises(ValueError, match="message"):
            simulate_informed(cc, [psi, psi], CodeParams(0.0, EPS, ETA), message=2)
        three = PureState(np.eye(8)[0], RegisterLayout.of("a:2 r:2 c:2"))
        with pytest.raises(LayoutError, match="exactly two registers"):
            simulate_uninformed(cc, CodeParams(0.0, EPS, ETA, three))


def every_omega_oracle(merged, dims, band, num_messages):
    """Every ``Omega(m)`` and the smallest eigenvalue of ``I - sum_m Omega(m)``,
    from index-loop band operators and an explicit sum over all messages."""
    last = len(dims) - 1
    lams = [
        sum(slow_embed(merged, dims, [0, k, last]) for k in range(band * m + 1, band * (m + 1) + 1))
        for m in range(num_messages)
    ]
    total = sum(lams)
    w, v = np.linalg.eigh(total)
    inv = (v * np.where(w > 1e-12, 1.0 / np.sqrt(np.maximum(w, 1e-12)), 0.0)) @ v.conj().T
    omegas = [inv @ lam @ inv for lam in lams]
    resid = np.eye(total.shape[0]) - sum(omegas)
    return omegas, float(np.linalg.eigvalsh(0.5 * (resid + resid.conj().T))[0])


def slow_theta(joint, partners, star, dims):
    """Index-loop input state: ``joint`` on (output, slot ``star``), the
    band's partner marginals in every other slot, ancilla in ``|0>``."""
    band, last = len(partners), len(dims) - 1
    total = math.prod(dims)
    shifts = [math.prod(dims[k + 1:]) for k in range(len(dims))]
    digits = [[x // shifts[k] % dims[k] for k in range(len(dims))] for x in range(total)]
    out = np.zeros((total, total), dtype=complex)
    for r, ri in enumerate(digits):
        if ri[last]:
            continue
        for c, ci in enumerate(digits):
            if ci[last]:
                continue
            val = joint[ri[0] * dims[star] + ri[star], ci[0] * dims[star] + ci[star]]
            for k in range(1, last):
                if k != star:
                    val *= partners[(k - 1) % band][ri[k], ci[k]]
            out[r, c] = val
    return out


class TestDecoderMatchesEveryOmegaOracle:
    """The decoder never forms every ``Omega(m)``; its errors and its POVM
    certificate must agree with the full construction on both paths."""

    def check(self, code, params, dense=False):
        """``dense`` runs the dense decoder on a qubit code, beside the
        spin-block path that ``_evaluate`` takes."""
        dims, partners, band = code.dims, code.partners, code.band
        omegas, gap = every_omega_oracle(code.projector, dims, band, params.num_messages)
        indices = tuple(range(len(code.joints)))
        for message in range(1, params.num_messages + 1):
            errors, certificate = decoded(code, message, indices, dense)
            assert abs(certificate["povm_gap_min_eig"] - gap) < 1e-12
            rep = _evaluate(code, params, indices, message, 0.0)
            assert abs(rep.povm_gap_min_eig - gap) < 1e-12
            for i, err, reported in zip(indices, errors, rep.per_channel_error):
                star = band * (message - 1) + i % band + 1
                theta = slow_theta(code.joints[i], partners, star, dims)
                oracle = 1.0 - np.trace(omegas[message - 1] @ theta).real
                assert abs(err - oracle) < 1e-12
                assert abs(reported - oracle) < 1e-12
        return omegas

    def test_uninformed_four_messages(self):
        cc = CompoundChannel((IDENT, ZPHASE))
        psi = maximally_entangled(2, ("a", "r"))
        params = CodeParams(2.0, EPS, ETA, psi)
        assert params.num_messages == 4
        code = _uninformed_code(cc, psi, EPS, ETA, 4)
        assert code.dims[1] == 2
        self.check(code, params)

    def test_informed_band_two_two_messages(self):
        # a Haar unitary, so that Omega and Theta are complex and the trace
        # pairs Omega_ij with Theta_ji, not Theta_ij
        haar = unitary_channel(haar_unitary(2, 7), QUBIT_IN, QUBIT_OUT)
        cc = CompoundChannel((IDENT, haar))
        states = [maximally_entangled(2, ("a", "r")), schmidt_state(0.3)]
        params = CodeParams(1.0, EPS, ETA)
        assert params.num_messages == 2
        code = _informed_code(cc, states, EPS, ETA, 2)
        assert code.dims[1] == 2
        self.check(code, params)
        omegas = self.check(code, params, dense=True)
        dims, pi = code.dims, code.projector
        for message in (1, 2):
            # the dense space: Lambda on the message's band, Pi at every
            # other slot; the step forms the ancilla-ground block of Omega
            sent = range(2 * message - 1, 2 * message + 1)
            terms = [(pi, [0, k, 5]) for k in range(1, 5) if k not in sent]
            omega, _ = _ground_omega(pi, dims, sent, terms)
            assert np.max(np.abs(omega - omegas[message - 1][::2, ::2])) < 1e-12


def haar_member(rng):
    return unitary_channel(haar_unitary(2, rng), QUBIT_IN, QUBIT_OUT)


def damped_member(rng):
    """Amplitude damping at a random strength, between Haar rotations."""
    g = float(rng.uniform(0.1, 0.9))
    u, v = haar_unitary(2, rng), haar_unitary(2, rng)
    kraus = [
        u @ np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - g)]]) @ v,
        u @ np.array([[0.0, math.sqrt(g)], [0.0, 0.0]]) @ v,
    ]
    return Channel(tuple(kraus), QUBIT_IN, QUBIT_OUT)


def random_shared_state(rng):
    vec = rng.normal(size=4) + 1j * rng.normal(size=4)
    return PureState(vec / np.linalg.norm(vec), RegisterLayout.of("a:2 r:2"))


def decoded(code, message, indices, dense=False):
    """Errors and certificate from the spin-block decoder, or from the
    dense decoder when ``dense``: the dense oracle on a qubit code."""
    if dense:
        errors, spectrum = _dense_decoder(code, message, indices)
    else:
        errors, spectrum = _block_decoder(code, indices)
    return errors, _certificate(spectrum)


def oracle_spectrum(code):
    """Rank of the index-loop ``T = sum_k Pi_(0, k, ancilla)`` over 1e-12
    and its smallest eigenvalue kept."""
    dims = code.dims
    last = len(dims) - 1
    total = sum(slow_embed(code.projector, dims, [0, k, last]) for k in range(1, last))
    w = np.linalg.eigvalsh(total)
    kept = w[w > 1e-12]
    return kept.size, float(kept[0])


class TestDecoderCertificate:
    """``decoder_rank`` and ``decoder_min_kept_eigenvalue`` are read from the
    decoder's own eigensolves of T; both must match an index-loop T with
    every message in it, on the block path and on the dense path."""

    def check(self, code, params, dense=False):
        rank, low = oracle_spectrum(code)
        indices = tuple(range(len(code.joints)))
        if dense:
            _, rec = decoded(code, 1, indices, dense)
        else:
            rec = _evaluate(code, params, indices, 1, 0.0).to_record()
        assert rec["decoder_rank"] == rank
        assert abs(rec["decoder_min_kept_eigenvalue"] - low) <= 1e-12 * max(1.0, low)

    def test_block_path(self):
        rng = rng_from(606)
        for members, n in ((1, 4), (2, 5), (3, 3)):
            cc = CompoundChannel(tuple(haar_member(rng) for _ in range(members)))
            psi = random_shared_state(rng)
            code = _uninformed_code(cc, psi, EPS, ETA, n)
            assert code.dims[1] == 2
            self.check(code, CodeParams(0.0, EPS, ETA, psi, num_messages=n))
        cc = CompoundChannel((haar_member(rng), damped_member(rng)))
        states = [random_shared_state(rng), random_shared_state(rng)]
        code = _informed_code(cc, states, EPS, ETA, 2)
        assert code.dims[1] == 2
        self.check(code, CodeParams(1.0, EPS, ETA))

    def test_dense_path(self):
        rng = rng_from(607)
        cc = CompoundChannel((haar_member(rng), damped_member(rng)))
        states = [random_shared_state(rng), random_shared_state(rng)]
        code = _informed_code(cc, states, EPS, ETA, 2)
        self.check(code, CodeParams(1.0, EPS, ETA), dense=True)
        # a qutrit partner has no qubit spin blocks: the dense path by choice
        vec = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi = PureState(vec / np.linalg.norm(vec), RegisterLayout.of("a:2 r:3"))
        code = _uninformed_code(cc, psi, EPS, ETA, 3)
        assert code.dims[1] == 3
        self.check(code, CodeParams(0.0, EPS, ETA, psi, num_messages=3))


class TestBlockDecoder:
    """The spin-block decoder against the dense decoder on the same code."""

    def agree(self, code, indices):
        assert code.dims[1] == 2
        blocks, block_cert = decoded(code, 1, indices)
        dense, dense_cert = decoded(code, 1, indices, dense=True)
        for b, d in zip(blocks, dense):
            assert abs(b - d) <= 1e-12
        assert block_cert["decoder_rank"] == dense_cert["decoder_rank"]
        return blocks

    def test_gate_05_channels(self):
        psi = maximally_entangled(2, ("a", "r"))
        for members in ((IDENT,), (IDENT, XFLIP)):
            cc = CompoundChannel(members)
            rate = achievable_rate_uninformed(cc, psi, EPS, ETA)
            for params in (CodeParams(rate, EPS, ETA, psi), CodeParams(2.0, EPS, ETA, psi)):
                code = _uninformed_code(cc, psi, EPS, ETA, params.num_messages)
                self.agree(code, tuple(range(cc.size)))

    def test_random_families_and_message_counts(self):
        rng = rng_from(505)
        for trial in range(30):
            make = haar_member if trial % 2 else damped_member
            cc = CompoundChannel(tuple(make(rng) for _ in range(1 + trial % 3)))
            psi = random_shared_state(rng)
            code = _uninformed_code(cc, psi, EPS, ETA, 1)
            indices = tuple(range(cc.size))
            # the dense decoder at 8 messages takes about a second: one
            # family of each size goes that far
            for n in (1, 2, 3, 4, 5, 8) if trial < 3 else (1, 2, 3, 4, 5):
                self.agree(dataclasses.replace(code, num_messages=n), indices)

    def test_explicit_message_counts_through_the_simulator(self):
        cc = CompoundChannel((IDENT, ZPHASE))
        psi = schmidt_state(0.3)
        for n in (3, 5):
            rep = simulate_uninformed(cc, CodeParams(0.0, EPS, ETA, psi, num_messages=n))
            assert rep.num_messages == n
            code = _uninformed_code(cc, psi, EPS, ETA, n)
            dense, _ = _dense_decoder(code, 1, (0, 1))
            for b, d in zip(rep.per_channel_error, dense):
                assert abs(b - d) <= 1e-12

    def test_product_shared_state(self):
        # sigma has rank 1, so det(sigma) = 0 and only the 0^0 = 1 term of
        # the top spin survives
        rng = rng_from(507)
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        for partner in (plus, random_shared_state(rng).vector[:2]):
            partner = partner / np.linalg.norm(partner)
            psi = PureState(np.kron([1.0, 0.0], partner).astype(complex), RegisterLayout.of("a:2 r:2"))
            cc = CompoundChannel((haar_member(rng), damped_member(rng)))
            code = _uninformed_code(cc, psi, EPS, ETA, 1)
            for n in (1, 2, 4, 5):
                errors = self.agree(dataclasses.replace(code, num_messages=n), (0, 1))
                assert all(0.0 <= e <= 1.0 for e in errors)


def product_state(partner):
    """``|0> (x) partner``: its partner marginal has rank 1, so det 0."""
    partner = np.asarray(partner, dtype=complex)
    vec = np.kron([1.0, 0.0], partner / np.linalg.norm(partner))
    return PureState(vec, RegisterLayout.of("a:2 r:2"))


class TestInformedBlockDecoder:
    """The spin-block decoder on bands of s slots, one spin block per band
    position, against the dense decoder on the same code."""

    def agree(self, code, message, indices):
        """The raw errors, before the report clips rounding into [0, 1]."""
        assert code.dims[1] == 2
        blocks, block_cert = decoded(code, message, indices)
        dense, dense_cert = decoded(code, message, indices, dense=True)
        for b, d in zip(blocks, dense):
            assert abs(b - d) <= 1e-12
        assert block_cert["decoder_rank"] == dense_cert["decoder_rank"]
        low, dense_low = (c["decoder_min_kept_eigenvalue"] for c in (block_cert, dense_cert))
        assert abs(low - dense_low) <= 1e-12
        return blocks

    def test_haar_and_damped_families_and_message_counts(self):
        rng = rng_from(515)
        # the dense decoder at s = 2 and 4 messages is 1024 wide and takes
        # about two seconds: the pure families go that far
        for makes, counts in (
            ((haar_member, haar_member), (1, 2, 3, 4)),
            ((damped_member, damped_member), (1, 2, 3, 4)),
            ((haar_member, damped_member), (1, 2, 3)),
            ((haar_member, haar_member, haar_member), (1, 2)),
            ((damped_member, haar_member, damped_member), (1, 2)),
        ):
            cc = CompoundChannel(tuple(make(rng) for make in makes))
            states = [random_shared_state(rng) for _ in makes]
            code = _informed_code(cc, states, EPS, ETA, 1)
            for n in counts:
                errors = self.agree(
                    dataclasses.replace(code, num_messages=n), 1, tuple(range(cc.size))
                )
                assert all(-1e-12 <= e <= 1.0 + 1e-12 for e in errors)

    def test_rank_one_and_unequal_rank_partners(self):
        # det(sigma_p) = 0 leaves only the top spin of position p in Theta,
        # and partners of different rank weight the positions differently
        rng = rng_from(516)
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        for states in (
            [product_state(plus), product_state(rng.normal(size=2) + 1j * rng.normal(size=2))],
            [product_state(plus), random_shared_state(rng)],
            [random_shared_state(rng), product_state(plus), maximally_entangled(2, ("a", "r"))],
        ):
            makes = [haar_member if k % 2 else damped_member for k in range(len(states))]
            cc = CompoundChannel(tuple(make(rng) for make in makes))
            code = _informed_code(cc, states, EPS, ETA, 1)
            for n in (1, 2, 3) if len(states) == 2 else (1, 2):
                errors = self.agree(
                    dataclasses.replace(code, num_messages=n), 1, tuple(range(cc.size))
                )
                assert all(-1e-12 <= e <= 1.0 + 1e-12 for e in errors)

    def test_true_channel_and_message_through_the_simulator(self):
        rng = rng_from(517)
        for members, rate, requests in (
            (3, 1.0, ((None, 2), (0, 2), (1, 1), (2, 2))),
            (2, 1.5, ((None, 3), (1, 2), (0, 4))),
        ):
            cc = CompoundChannel(tuple(
                (haar_member if k % 2 else damped_member)(rng) for k in range(members)
            ))
            states = [random_shared_state(rng) for _ in range(members)]
            params = CodeParams(rate, EPS, ETA)
            code = _informed_code(cc, states, EPS, ETA, params.num_messages)
            for true, message in requests:
                rep = simulate_informed(cc, states, params, true_channel=true, message=message)
                dense, cert = decoded(code, message, rep.channel_indices, dense=True)
                for b, d in zip(rep.per_channel_error, dense):
                    assert abs(b - d) <= 1e-12
                assert rep.decoder_rank == cert["decoder_rank"]
                assert abs(rep.decoder_min_kept_eigenvalue - cert["decoder_min_kept_eigenvalue"]) <= 1e-12


class TestInformedReach:
    def test_eight_messages_at_band_two_run_on_blocks(self, monkeypatch):
        import qoneshot.coding as coding

        widths = []
        ground = coding._ground_omega

        def recording(pi, dims, band, terms):
            widths.append(math.prod(dims))
            return ground(pi, dims, band, terms)

        monkeypatch.setattr(coding, "_ground_omega", recording)
        rng = rng_from(518)
        cc = CompoundChannel((haar_member(rng), damped_member(rng)))
        states = [random_shared_state(rng), random_shared_state(rng)]
        rep = simulate_informed(cc, states, CodeParams(3.0, EPS, ETA))
        assert rep.num_messages == 8
        # spins 2j in {7, 5, 3, 1} at each of the two positions; the dense
        # path would need 2 x 2^16 x 2
        assert len(widths) == 16 and max(widths) == 2 * 4 * 8 * 8 * 2
        assert all(0.0 <= e <= 1.0 for e in rep.per_channel_error)
        assert rep.povm_gap_min_eig >= -1e-9
        assert 0 < rep.decoder_rank <= 2 * 2**16 * 2

    def test_thirty_two_messages_at_band_two_exceed_the_cap(self, monkeypatch):
        import qoneshot.coding as coding

        def solver(*args, **kwargs):
            raise AssertionError("a solver ran before the cap was checked")

        monkeypatch.setattr(coding, "i_h_tilde", solver)
        cc = CompoundChannel((IDENT, XFLIP))
        psi = maximally_entangled(2, ("a", "r"))
        # the largest block is 2 x 2^2 x 32^2 x 2 wide
        with pytest.raises(CapacityError, match="16384"):
            simulate_informed(cc, [psi, psi], CodeParams(5.0, EPS, ETA))


class TestSimulationRecord:
    def test_certified_rate_is_the_rate_inequality_limit(self):
        cc = CompoundChannel((IDENT, XFLIP))
        psi = maximally_entangled(2, ("a", "r"))
        code = _uninformed_code(cc, psi, EPS, ETA, 4)
        penalty = -7.5
        limit = min(code.values) + penalty
        for rate, ok in ((limit, True), (limit - 1.0, True), (limit + 1e-6, False)):
            params = CodeParams(rate, EPS, ETA, psi, num_messages=4)
            rec = _evaluate(code, params, (0, 1), 1, penalty).to_record()
            assert rec["certified_rate"] == limit
            assert rec["rate_ok"] is ok

    def test_trivial_decoder_flag(self):
        # a damped pair whose merged projector is the identity on output x
        # partner x ancilla: T = n I, so every error is 1 - 1/n
        rng = rng_from(505)
        cc = CompoundChannel((damped_member(rng), damped_member(rng)))
        psi = random_shared_state(rng)
        for n in (2, 3, 5):
            rep = simulate_uninformed(cc, CodeParams(0.0, EPS, ETA, psi, num_messages=n))
            assert rep.trivial_decoder
            assert rep.decoder_rank == 2 * 2**n * 2
            for e in rep.per_channel_error:
                assert abs(e - (1.0 - 1.0 / n)) <= 1e-12
        rep = simulate_uninformed(
            CompoundChannel((IDENT,)), CodeParams(2.0, EPS, ETA, maximally_entangled(2, ("a", "r")))
        )
        assert not rep.trivial_decoder
        assert rep.decoder_rank < 2 * 2**4 * 2


class TestDecoderInequality:
    def test_povm_never_exceeds_identity_on_larger_code(self):
        cc = CompoundChannel((IDENT,))
        psi = maximally_entangled(2, ("a", "r"))
        params = CodeParams(2.0, EPS, ETA, psi)
        rep = simulate_uninformed(cc, params)
        assert rep.num_messages == 4
        assert rep.povm_gap_min_eig >= -1e-9

    def test_square_root_step_certified_on_actual_operators(self):
        cc = CompoundChannel((IDENT, ZPHASE))
        psi = maximally_entangled(2, ("a", "r"))
        code = _uninformed_code(cc, psi, EPS, ETA, 2)
        lam = [slow_embed(code.projector, code.dims, [0, m, 3]) for m in (1, 2)]
        cert = hayashi_nagaoka_check(lam[0], lam[1], ETA / (EPS + ETA))
        assert cert["min_gap_eigenvalue"] >= -ATOL


class TestDivergenceSandwich:
    def test_mutual_information_squeezed_by_product_divergence(self):
        rng = rng_from(404)
        eps = EPS
        for _ in range(8):
            rho = random_density(4, rng, layout=RegisterLayout.of("b:2 r:2"))
            prod = np.kron(rho.marginal(["b"]).a, rho.marginal(["r"]).a)
            for delta in (0.05, 0.1):
                lo, _ = hypothesis_test_divergence(rho.a, prod, eps)
                hi, _ = hypothesis_test_divergence(rho.a, prod, eps + delta)
                mid, _ = i_h(rho, eps + delta)
                assert mid >= lo - 2.0 * math.log2(eps / delta) - 1e-4
                assert mid <= hi + 1e-4


class TestPauliExample:
    def test_reference_value_disagrees_by_twice_the_log_term(self):
        # the library's answer behind the by-design gate-04 failure, at the
        # gate's three eps: under D_H = -log2 beta the minimum is 2 - log2(1 - eps)
        for eps in (0.05, 0.25):
            rep = pauli_compound_example(1, eps)
            assert abs(rep["min_value"] - (2.0 - math.log2(1.0 - eps))) <= 1e-3
        rep = pauli_compound_example(1, 0.1)
        computed = 2.0 - math.log2(0.9)
        assert abs(rep["min_value"] - computed) < 1e-3
        spread = max(rep["per_channel_value"]) - min(rep["per_channel_value"])
        assert spread < 1e-6
        assert abs(rep["reference_gap"] + 2.0 * math.log2(0.9)) < 1e-3
        assert rep["average_channel_max_deviation"] < 1e-10

    def test_average_channel_kills_entanglement_one_sided(self):
        from qoneshot.qcore import apply_channel, pauli_channel_family

        psi = maximally_entangled(2, ("a", "r")).density()
        avg = np.zeros((4, 4), dtype=complex)
        for ch in pauli_channel_family(1, "a", "b"):
            avg += apply_channel(ch, psi, targets=["a"]).a
        assert np.max(np.abs(avg / 4.0 - np.eye(4) / 4.0)) < 1e-12

    def test_rejects_larger_families(self):
        with pytest.raises(CapacityError):
            pauli_compound_example(2, 0.1)


class TestFiniteBlocking:
    def test_single_member_is_tight(self):
        rng = rng_from(51)
        st = random_density(4, rng, layout=RegisterLayout.of("b:2 r:2"))
        cert = informed_finite_blocking_bounds([st], 2, 1)
        for side in cert["sides"].values():
            assert abs(side["vertex_min_eigenvalues"][0]) < 1e-12

    def test_two_member_certificates_hold(self):
        rng = rng_from(52)
        states = [
            random_density(4, rng, layout=RegisterLayout.of("b:2 r:2"))
            for _ in range(2)
        ]
        for n, ell in ((2, 1), (2, 2), (4, 2)):
            cert = informed_finite_blocking_bounds(states, n, ell)
            for side in cert["sides"].values():
                assert min(side["vertex_min_eigenvalues"]) >= -ATOL
                assert min(side["mixture_min_eigenvalues"]) >= -ATOL
            for entry in cert["variance"]:
                assert entry["value"] <= entry["bound"] + 1e-8

    def test_product_members_have_constant_bound(self):
        rng = rng_from(53)
        lay = RegisterLayout.of("b:2 r:2")
        states = []
        for _ in range(2):
            left = random_density(2, rng).a
            right = random_density(2, rng).a
            states.append(DensityMatrix(ComplexMatrix(np.kron(left, right)), lay))
        cert = informed_finite_blocking_bounds(states, 2, 1)
        for entry in cert["variance"]:
            assert abs(entry["bound"] - 4.0) < 1e-6
            assert entry["value"] <= 4.0

    def test_divisibility_and_capacity(self):
        rng = rng_from(54)
        st = random_density(4, rng, layout=RegisterLayout.of("b:2 r:2"))
        with pytest.raises(ValueError, match="divide"):
            informed_finite_blocking_bounds([st], 3, 2)
        with pytest.raises(CapacityError):
            informed_finite_blocking_bounds([st], 13, 1)


class TestSharedStateFamily:
    def test_sweep_contains_the_balanced_point(self):
        sweep = shared_state_sweep(0.05)
        assert len(sweep) == 19
        balanced = maximally_entangled(2, ("a", "r"))
        gaps = [np.max(np.abs(psi.a - balanced.a)) for psi in sweep]
        assert min(gaps) < 1e-12

    def test_sweep_keeps_every_multiple_below_one(self):
        # 1/step with a fractional part below one half must not drop the
        # last multiples: 0.9 at step 0.3, 0.8 at 0.4, 0.9 at 0.45, 0.98 at 0.07
        for step, count in ((0.3, 3), (0.4, 2), (0.45, 2), (0.07, 14)):
            weights = [abs(psi.vector[0]) ** 2 for psi in shared_state_sweep(step)]
            assert len(weights) == count
            assert weights[-1] == pytest.approx(count * step)

    def test_schmidt_state_range(self):
        with pytest.raises(ValueError, match="Schmidt"):
            schmidt_state(0.0)
        with pytest.raises(ValueError, match="step"):
            shared_state_sweep(0.6)
