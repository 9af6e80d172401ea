"""Tests for finite-family composite hypothesis testing.

The operator solver is checked along two independent routes: a classical
linear program on the diagonals for commuting instances, and the separate
Neyman-Pearson bisection solver (direct or scanned over mixture weights)
for noncommuting ones.  The universal-test construction is verified
against its acceptance/rejection guarantees and squeezed between the
per-prototype floor and the relaxed exact value.  The eigenbasis test LP is
checked against HiGHS and against a simplex in exact rational arithmetic.
Net quality is measured by sampling, as it is calibrated, not proved.
"""

import math

import numpy as np
import pytest

from qoneshot import composite
from qoneshot.composite import (
    CompositeInstance,
    EpsilonNet,
    _bloch_fidelity,
    _bloch_vectors,
    _lift_acceptance,
    _test_lp,
    beta_exact,
    build_universal_test,
    epsilon_net,
    net_covering_report,
)
from qoneshot.divergences import (
    StateEnsemble,
    classical_np_value,
    hypothesis_test_divergence,
)
from oracles import (
    classical_composite_value,
    exact_test_lp,
    gaussian_states_by_state,
    highs_test_weights,
    net_states_by_point,
)
from qoneshot.qcore import (
    CapacityError,
    ComplexMatrix,
    DensityMatrix,
    LayoutError,
    RegisterLayout,
    _gaussian_states,
    random_density,
    rng_from,
    root_fidelity,
    tensor_power,
)

QUBIT = RegisterLayout.of("a:2")


def qubit(arr):
    return DensityMatrix(ComplexMatrix(np.asarray(arr, dtype=complex)), QUBIT)


GROUND = qubit(np.diag([1.0, 0.0]))
EXCITED = qubit(np.diag([0.0, 1.0]))
PLUS = qubit(np.full((2, 2), 0.5))
MIXED = qubit(np.eye(2) / 2)


def random_families():
    """The 300 seeded random qubit families of the feasibility sweep."""
    rng = rng_from(2024)
    for _ in range(300):
        n1, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 3))
        n = int(rng.integers(1, 4))
        eps = float(rng.uniform(0.05, 0.4))
        s1 = StateEnsemble(tuple(random_density(2, rng, layout=QUBIT) for _ in range(n1)))
        s2 = StateEnsemble(tuple(random_density(2, rng, layout=QUBIT) for _ in range(n2)))
        yield CompositeInstance(s1, s2, n, eps)


@pytest.fixture(scope="module")
def family_runs():
    """``beta_exact`` on each of the 300 families: ``(inst, value, test,
    programs)``, where ``programs`` are the ``(p, q, floor)`` of the test
    LPs it solved."""
    runs, programs = [], []

    def recording(p, q, floor):
        programs.append((p, q, floor))
        return _test_lp(p, q, floor)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(composite, "_test_lp", recording)
        for inst in random_families():
            start = len(programs)
            runs.append((inst, *beta_exact(inst), programs[start:]))
    return runs


def check_test_lp(p, q, floor) -> int:
    """Assert ``_test_lp``'s four guarantees on one program and return its
    pivot count: its lifted level is at most HiGHS's lifted level and the
    exact optimum, each times 1 + 1e-12; after the lift every acceptance row
    holds with no slack; its trace is at most the least trace of an exactly
    optimal test plus 1e-9; and it stays under the pivot cap."""
    c, pivots = _test_lp(p, q, floor)
    assert pivots < composite.MAX_PIVOTS
    c = _lift_acceptance(p, c, floor)
    assert np.all(p @ c >= floor) and np.all((0.0 <= c) & (c <= 1.0))
    level = np.max(q @ c)
    assert level <= np.max(q @ highs_test_weights(p, q, floor)) * (1.0 + 1e-12)
    t_star, least_trace = exact_test_lp(p, q, floor)
    assert level <= float(t_star) * (1.0 + 1e-12)
    assert c.sum() <= float(least_trace) + 1e-9
    return pivots


def degenerate_programs():
    """Hand-made test LPs on degenerate faces, by name: ``(p, q, floor)``."""
    p1, p2 = np.array([0.8, 0.2]), np.array([0.7, 0.3])
    q1, q2 = np.array([0.4, 0.6]), np.array([0.25, 0.75])
    rng = rng_from(65)
    return {
        # n-fold products repeat each column once per arrangement of its factors
        "tensor powers": (
            np.stack([tensor_power(p1, 3), tensor_power(p2, 3)]),
            np.stack([tensor_power(q1, 3), tensor_power(q2, 3)]),
            0.8,
        ),
        "one column": (np.array([[1.0]]), np.array([[0.5]]), 0.7),
        # the second alternative costs nothing, so ties abound on the face t = max
        "zero alternative row": (
            np.array([[0.1, 0.2, 0.3, 0.4]]), np.array([[0.3, 0.7, 0.0, 0.0], [0.0] * 4]), 0.6
        ),
        # each row of p sums to exactly 1, so only c = 1 meets the floor
        "floor met only at c = 1": (
            np.array([[0.5, 0.25, 0.125, 0.125], [0.25, 0.25, 0.25, 0.25]]),
            np.array([[0.125, 0.125, 0.25, 0.5]]),
            1.0,
        ),
        "ties in every ratio": (np.full((2, 4), 0.25), np.full((2, 4), 0.25), 0.6),
        "65 columns": (rng.dirichlet(np.ones(64), 4), rng.dirichlet(np.ones(64), 4), 0.8),
    }


class TestTestLP:
    def test_every_program_of_the_random_families(self, family_runs):
        programs = [lp for *_, lps in family_runs for lp in lps]
        assert len(programs) == 300
        assert max(check_test_lp(*lp) for lp in programs) <= 13

    def test_degenerate_programs(self):
        pivots = {name: check_test_lp(*lp) for name, lp in degenerate_programs().items()}
        # deterministic work counts: the data are exact, with no eigensolve
        assert pivots == {
            "tensor powers": 11,
            "one column": 1,
            "zero alternative row": 3,
            "floor met only at c = 1": 4,
            "ties in every ratio": 2,
            "65 columns": 281,
        }

    def test_least_trace_among_optimal_tests(self):
        # t = 0 needs c0 = c1 = 0; the floor then wants 0.6 of columns 2 and 3,
        # and the least trace fills the larger p first: c3 = 1, c2 = 2/3
        c, _ = _test_lp(*degenerate_programs()["zero alternative row"])
        np.testing.assert_allclose(c, [0.0, 0.0, 2.0 / 3.0, 1.0], atol=1e-15)
        c, _ = _test_lp(*degenerate_programs()["floor met only at c = 1"])
        np.testing.assert_array_equal(c, np.ones(4))

    def test_pivot_cap(self, monkeypatch):
        p, q, floor = degenerate_programs()["65 columns"]
        _, pivots = _test_lp(p, q, floor)
        monkeypatch.setattr(composite, "MAX_PIVOTS", pivots)
        _test_lp(p, q, floor)
        monkeypatch.setattr(composite, "MAX_PIVOTS", pivots - 1)
        with pytest.raises(ArithmeticError, match=f"^test reconstruction failed: {pivots - 1} pivots$"):
            _test_lp(p, q, floor)


class TestInstanceType:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="copy count"):
            CompositeInstance(StateEnsemble((GROUND,)), StateEnsemble((MIXED,)), 0, 0.2)
        with pytest.raises(ValueError, match="epsilon"):
            CompositeInstance(StateEnsemble((GROUND,)), StateEnsemble((MIXED,)), 1, 1.0)

    def test_rejects_dimension_mismatch(self):
        lay = RegisterLayout.of("a:3")
        big = DensityMatrix(ComplexMatrix(np.eye(3) / 3), lay)
        with pytest.raises(LayoutError, match="different spaces"):
            CompositeInstance(StateEnsemble((GROUND,)), StateEnsemble((big,)), 1, 0.2)

    def test_caps_are_checked_at_construction(self):
        five = StateEnsemble(tuple(qubit(np.eye(2) / 2) for _ in range(5)))
        with pytest.raises(CapacityError, match=r"^at most 4 vertices per family \(got 5 and 1\)$"):
            CompositeInstance(five, StateEnsemble((MIXED,)), 1, 0.2)
        with pytest.raises(CapacityError, match=r"^at most 4 vertices per family \(got 1 and 5\)$"):
            CompositeInstance(StateEnsemble((MIXED,)), five, 1, 0.2)
        with pytest.raises(CapacityError, match=r"^at most 3 copies, got 4$"):
            CompositeInstance(StateEnsemble((GROUND,)), StateEnsemble((MIXED,)), 4, 0.2)
        oct_ = DensityMatrix(ComplexMatrix(np.eye(8) / 8), RegisterLayout.of("a:8"))
        with pytest.raises(CapacityError, match=r"^total dimension 512 exceeds cap 64$"):
            CompositeInstance(StateEnsemble((oct_,)), StateEnsemble((oct_,)), 3, 0.2)

    def test_holds_its_n_fold_products(self):
        inst = CompositeInstance(
            StateEnsemble((GROUND, PLUS)), StateEnsemble((MIXED, EXCITED, PLUS)), 3, 0.2
        )
        assert len(inst.nulls) == 2 and len(inst.alts) == 3
        for powers, family in ((inst.nulls, inst.s1), (inst.alts, inst.s2)):
            for power, v in zip(powers, family.vertices):
                np.testing.assert_array_equal(power, tensor_power(v.a, 3))

    def test_size_caps(self):
        five = StateEnsemble(tuple(qubit(np.eye(2) / 2) for _ in range(5)))
        with pytest.raises(CapacityError, match="vertices"):
            beta_exact(CompositeInstance(five, StateEnsemble((MIXED,)), 1, 0.2))
        with pytest.raises(CapacityError, match="copies"):
            beta_exact(
                CompositeInstance(StateEnsemble((GROUND,)), StateEnsemble((MIXED,)), 4, 0.2)
            )
        lay = RegisterLayout.of("a:8")
        oct_ = DensityMatrix(ComplexMatrix(np.eye(8) / 8), lay)
        with pytest.raises(CapacityError, match="total dimension"):
            beta_exact(
                CompositeInstance(StateEnsemble((oct_,)), StateEnsemble((oct_,)), 3, 0.2)
            )


class TestBetaExact:
    def test_basis_state_against_flat_alternative(self):
        for eps in (0.1, 0.2, 0.5):
            inst = CompositeInstance(
                StateEnsemble((GROUND,)), StateEnsemble((MIXED,)), 1, eps
            )
            value, test = beta_exact(inst)
            assert abs(value - (1.0 - math.log2(1.0 - eps))) < 1e-9
            assert test.type1_error <= eps + 1e-9

    def test_identical_families_cost_only_the_acceptance(self):
        rho = random_density(2, rng_from(5), layout=QUBIT)
        inst = CompositeInstance(StateEnsemble((rho,)), StateEnsemble((rho,)), 1, 0.3)
        value, _ = beta_exact(inst)
        assert abs(value + math.log2(0.7)) < 1e-9

    def test_commuting_instances_match_classical_program(self):
        p1, p2 = np.array([0.8, 0.2]), np.array([0.7, 0.3])
        q1, q2 = np.array([0.4, 0.6]), np.array([0.25, 0.75])
        s1 = StateEnsemble((qubit(np.diag(p1)), qubit(np.diag(p2))))
        s2 = StateEnsemble((qubit(np.diag(q1)), qubit(np.diag(q2))))
        for n in (1, 2, 3):
            for eps in (0.1, 0.3):
                value, test = beta_exact(CompositeInstance(s1, s2, n, eps))
                lp = classical_composite_value(
                    [tensor_power(p1, n), tensor_power(p2, n)],
                    [tensor_power(q1, n), tensor_power(q2, n)],
                    eps,
                )
                assert abs(value - lp) < 1e-8
                assert test.type1_error <= eps + 1e-9

    def test_classical_program_agrees_with_pair_solver(self):
        p, q = np.array([0.8, 0.2]), np.array([0.4, 0.6])
        for eps in (0.15, 0.4):
            assert abs(
                classical_composite_value([p], [q], eps) - classical_np_value(p, q, eps)
            ) < 1e-12

    def test_single_pair_reduces_to_plain_divergence(self):
        rng = rng_from(77)
        rho = random_density(2, rng, layout=QUBIT)
        sigma = random_density(2, rng, layout=QUBIT)
        for n in (1, 2):
            inst = CompositeInstance(
                StateEnsemble((rho,)), StateEnsemble((sigma,)), n, 0.2
            )
            value, _ = beta_exact(inst)
            direct, _ = hypothesis_test_divergence(
                tensor_power(rho.a, n), tensor_power(sigma.a, n), 0.2
            )
            assert abs(value - direct) < 1e-6

    def test_alternative_mixtures_match_weight_scan(self):
        rng = rng_from(88)
        rho = random_density(2, rng, layout=QUBIT)
        alt1 = random_density(2, rng, layout=QUBIT)
        alt2 = random_density(2, rng, layout=QUBIT)
        for n in (1, 2):
            inst = CompositeInstance(
                StateEnsemble((rho,)), StateEnsemble((alt1, alt2)), n, 0.2
            )
            value, _ = beta_exact(inst)
            rn = tensor_power(rho.a, n)
            q1, q2 = tensor_power(alt1.a, n), tensor_power(alt2.a, n)
            scan = min(
                hypothesis_test_divergence(rn, w * q1 + (1.0 - w) * q2, 0.2)[0]
                for w in np.linspace(0.0, 1.0, 501)
            )
            assert abs(value - scan) < 1e-4

    def test_common_test_never_beats_individual_tests(self):
        rng = rng_from(88)
        rho1 = random_density(2, rng, layout=QUBIT)
        _ = random_density(2, rng, layout=QUBIT)
        _ = random_density(2, rng, layout=QUBIT)
        rho2 = random_density(2, rng, layout=QUBIT)
        sigma = random_density(2, rng, layout=QUBIT)
        inst = CompositeInstance(
            StateEnsemble((rho1, rho2)), StateEnsemble((sigma,)), 1, 0.2
        )
        value, test = beta_exact(inst)
        per = [
            hypothesis_test_divergence(x.a, sigma.a, 0.2)[0] for x in (rho1, rho2)
        ]
        assert value <= min(per) + 1e-8
        assert test.type1_error <= 0.2 + 1e-9
        # reported value is the one the returned test actually achieves
        assert abs(value + math.log2(test.type2_bound)) < 1e-12

    def test_returned_tests_are_exactly_feasible_on_random_families(self, family_runs):
        # The simplex behind the test meets its acceptance rows up to the
        # rounding of its solves, and the lift repairs what rounding leaves
        # short; the returned test must meet them up to the rounding of the
        # final matrix products, over many random families.
        for inst, value, test, _ in family_runs:
            assert test.type1_error <= inst.epsilon + 1.4e-15
            assert abs(value + math.log2(test.type2_bound)) < 1e-12

    def test_never_below_the_highs_reconstruction(self, family_runs, monkeypatch):
        # the same dual solutions, with the test LP solved by HiGHS and lifted
        monkeypatch.setattr(
            composite, "_test_lp", lambda p, q, floor: (highs_test_weights(p, q, floor), 0)
        )
        gaps = 0
        for inst, value, test, _ in family_runs:
            reference, _ = beta_exact(inst)
            assert value >= reference - 1e-12
            gaps += test.certificate_gap_bits > 1e-6
        assert gaps <= 15

    def test_single_null_certificate_gap_closes(self, family_runs):
        # With one null the eigenbasis test meets the dual bound to the
        # optimizer's tolerance; several nulls can leave a near-kernel of
        # the threshold operator whose basis the eigenbasis LP cannot rotate.
        singles = [test for inst, _, test, _ in family_runs if len(inst.s1.vertices) == 1]
        assert len(singles) == 79
        for test in singles:
            assert test.certificate_gap_bits <= 1e-6

    def test_pinned_work_on_fixed_two_null_instance(self, monkeypatch):
        # iterations counts Neyman-Pearson solves over the weights on both
        # families; a change here is a change of the optimizer's path.  The
        # test LP's pivots are the reconstruction's own deterministic work.
        pivots = []

        def recording(p, q, floor):
            c, k = _test_lp(p, q, floor)
            pivots.append(k)
            return c, k

        monkeypatch.setattr(composite, "_test_lp", recording)
        tilt = qubit(np.diag([0.7, 0.3]))
        inst = CompositeInstance(
            StateEnsemble((GROUND, PLUS)), StateEnsemble((MIXED, tilt)), 2, 0.2
        )
        value, test = beta_exact(inst)
        assert test.iterations == 8
        assert pivots == [7]
        assert abs(value - 1.1378452902) < 1e-8
        assert test.certificate_gap_bits <= 1e-6

    def test_value_nondecreasing_in_epsilon(self):
        rng = rng_from(88)
        rho1 = random_density(2, rng, layout=QUBIT)
        for _ in range(3):
            random_density(2, rng, layout=QUBIT)
        rho2 = random_density(2, rng, layout=QUBIT)
        sigma = random_density(2, rng, layout=QUBIT)
        vals = [
            beta_exact(
                CompositeInstance(
                    StateEnsemble((rho1, rho2)), StateEnsemble((sigma,)), 1, eps
                )
            )[0]
            for eps in (0.1, 0.2, 0.3, 0.5)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_alternative_maximum_attained_at_a_vertex(self):
        p1, q1, q2 = np.array([0.8, 0.2]), np.array([0.4, 0.6]), np.array([0.25, 0.75])
        inst = CompositeInstance(
            StateEnsemble((qubit(np.diag(p1)),)),
            StateEnsemble((qubit(np.diag(q1)), qubit(np.diag(q2)))),
            2,
            0.2,
        )
        _, test = beta_exact(inst)
        qmats = [tensor_power(v.a, 2) for v in inst.s2.vertices]
        vertex_max = max(float(np.trace(test.a @ q).real) for q in qmats)
        rng = rng_from(9)
        for _ in range(50):
            w = rng.dirichlet(np.ones(2))
            mixed = w[0] * qmats[0] + w[1] * qmats[1]
            assert float(np.trace(test.a @ mixed).real) <= vertex_max + 1e-12


class TestUniversalTest:
    def test_single_prototype_collapses_to_exact_test(self):
        inst = CompositeInstance(StateEnsemble((GROUND,)), StateEnsemble((MIXED,)), 1, 0.2)
        value, _ = beta_exact(inst)
        merged = build_universal_test(inst, 0.1)
        assert abs(-math.log2(merged.type2_bound) - value) < 1e-9
        assert merged.iterations == 0

    def test_orthogonal_pair_guarantees(self):
        eps, delta = 0.2, 0.1
        inst = CompositeInstance(
            StateEnsemble((GROUND, EXCITED)), StateEnsemble((MIXED,)), 1, eps
        )
        merged = build_universal_test(inst, delta)
        assert merged.type1_error <= eps + 2 * delta + 1e-9
        floor = min(
            beta_exact(
                CompositeInstance(StateEnsemble((v,)), inst.s2, 1, eps)
            )[0]
            for v in inst.s1.vertices
        )
        penalty = 4.0 * math.log2(2) * math.log2(math.log2(2) / delta)
        assert -math.log2(merged.type2_bound) >= floor - penalty - 1e-9
        relaxed, _ = beta_exact(
            CompositeInstance(inst.s1, inst.s2, 1, eps + 2 * delta)
        )
        assert -math.log2(merged.type2_bound) <= relaxed + 1e-9

    def test_tilted_pair_two_copy_guarantees(self):
        eps, delta = 0.2, 0.1
        inst = CompositeInstance(
            StateEnsemble((GROUND, PLUS)), StateEnsemble((MIXED,)), 2, eps
        )
        merged = build_universal_test(inst, delta)
        assert merged.type1_error <= eps + 2 * delta + 1e-9
        floor = min(
            beta_exact(CompositeInstance(StateEnsemble((v,)), inst.s2, 2, eps))[0]
            for v in inst.s1.vertices
        )
        penalty = 4.0 * math.log2(2) * math.log2(math.log2(2) / delta)
        value = -math.log2(merged.type2_bound)
        assert value >= floor - penalty - 1e-9
        assert value >= 0.5  # retains real rejection power on this instance
        relaxed, _ = beta_exact(CompositeInstance(inst.s1, inst.s2, 2, eps + 2 * delta))
        assert value <= relaxed + 1e-9

    def test_net_path_guarantees(self):
        rng = rng_from(99)
        states = tuple(random_density(2, rng, layout=QUBIT) for _ in range(2))
        inst = CompositeInstance(
            StateEnsemble(states), StateEnsemble((MIXED,)), 1, 0.2
        )
        net = epsilon_net(2, 0.05)
        merged = build_universal_test(inst, 0.25, net=net)
        assert merged.type1_error <= 0.2 + 2 * 0.25 + 1e-9

    def test_net_resolution_must_match_delta(self):
        inst = CompositeInstance(
            StateEnsemble((GROUND, PLUS)), StateEnsemble((MIXED,)), 1, 0.2
        )
        net = epsilon_net(2, 0.05)
        with pytest.raises(ValueError, match="too coarse"):
            build_universal_test(inst, 0.2, net=net)

    def test_delta_range(self):
        inst = CompositeInstance(StateEnsemble((GROUND,)), StateEnsemble((MIXED,)), 1, 0.2)
        with pytest.raises(ValueError, match="delta"):
            build_universal_test(inst, 0.0)

    def test_reports_floor_and_penalty_of_distinct_prototypes(self):
        eps, delta = 0.2, 0.1
        inst = CompositeInstance(
            StateEnsemble((GROUND, PLUS, GROUND)), StateEnsemble((MIXED,)), 1, eps
        )
        merged = build_universal_test(inst, delta)
        floor = min(
            beta_exact(CompositeInstance(StateEnsemble((v,)), inst.s2, 1, eps))[0]
            for v in (GROUND, PLUS)
        )
        # the repeated vertex counts once: two prototypes
        penalty = 4.0 * math.log2(2) * math.log2(math.log2(2) / delta)
        assert abs(merged.floor_bits - floor) < 1e-12
        assert abs(merged.penalty_bits - penalty) < 1e-12
        value = -math.log2(merged.type2_bound)
        assert abs(merged.certificate_gap_bits - max(0.0, value - (floor - penalty))) < 1e-12


class TestEpsilonNet:
    def test_contains_axis_points_and_center(self):
        net = epsilon_net(2, 0.1)
        mats = net.states
        expected = [np.eye(2) / 2]
        for axis in (
            np.array([[0, 1], [1, 0]]),
            np.array([[0, -1j], [1j, 0]]),
            np.array([[1, 0], [0, -1]]),
        ):
            expected.append((np.eye(2) + axis) / 2)
            expected.append((np.eye(2) - axis) / 2)
        for want in expected:
            gaps = np.max(np.abs(mats - want[None]), axis=(1, 2))
            assert gaps.min() < 1e-12

    def test_points_are_states(self):
        net = epsilon_net(2, 0.2)
        for p in net.states:
            w = np.linalg.eigvalsh(p)
            assert w[0] > -1e-12
            assert abs(np.trace(p).real - 1.0) < 1e-12

    def test_states_equal_per_point_construction(self):
        for deficit in (0.45, 0.2, 0.1, 0.08, 0.05, 0.04, 0.02):
            net = epsilon_net(2, deficit)
            assert net.states.tobytes() == net_states_by_point(deficit).tobytes(), deficit
            assert not net.states.flags.writeable

    def test_report_equals_per_state_reference(self):
        for deficit, samples, seed in ((0.2, 500, 3), (0.1, 3000, 5), (0.05, 2000, 11)):
            net = epsilon_net(2, deficit)
            fid = _bloch_fidelity(
                _bloch_vectors(gaussian_states_by_state(2, samples, seed)),
                _bloch_vectors(net_states_by_point(deficit)),
            )
            worst = 1.0 - np.max(fid, axis=1)
            budget = int((2.0 / deficit) ** 2)
            assert net_covering_report(net, samples, seed) == {
                "size": len(net.states),
                "budget": budget,
                "within_budget": len(net.states) <= budget,
                "resolution": deficit,
                "samples": samples,
                "max_deficit": float(np.max(worst)),
                "mean_deficit": float(np.mean(worst)),
                "covered": bool(np.max(worst) <= deficit),
            }

    def test_report_scores_in_bounded_blocks(self, monkeypatch):
        """Samples are drawn, checked and scored at most FIDELITY_BLOCK
        fidelities at a time, and the report equals the one-draw dense one
        bit for bit."""
        net, samples, seed = epsilon_net(2, 0.05), 5000, 11
        size = len(net.states)
        dense = 1.0 - np.max(_bloch_fidelity(
            _bloch_vectors(_gaussian_states(2, samples, seed)), _bloch_vectors(net.states)
        ), axis=1)
        shapes = []

        def recording(r, s):
            shapes.append((len(r), len(s)))
            return _bloch_fidelity(r, s)

        monkeypatch.setattr(composite, "_bloch_fidelity", recording)
        report = net_covering_report(net, samples, seed)
        rows = composite.FIDELITY_BLOCK // size
        assert rows * size <= composite.FIDELITY_BLOCK < samples * size
        assert shapes == [(rows, size)] * (samples // rows) + [(samples % rows, size)]
        assert report["max_deficit"] == float(np.max(dense))
        assert report["mean_deficit"] == float(np.mean(dense))

    def test_report_caps_fidelity_entries(self, monkeypatch):
        net = epsilon_net(2, 0.2)
        with pytest.raises(CapacityError, match="fidelities"):
            net_covering_report(net, 2 ** 26 // len(net.states) + 1, seed=1)
        # the boundary, at a cap small enough to run
        monkeypatch.setattr(composite, "MAX_FIDELITY_ENTRIES", 10 * len(net.states))
        assert net_covering_report(net, 10, seed=1)["samples"] == 10
        with pytest.raises(CapacityError, match="fidelities"):
            net_covering_report(net, 11, seed=1)

    def test_sampled_covering_and_size_budget(self):
        for deficit in (0.45, 0.2, 0.1, 0.05):
            net = epsilon_net(2, deficit)
            report = net_covering_report(net, 10_000, seed=7)
            assert report["covered"], (deficit, report["max_deficit"])
            assert report["within_budget"], (deficit, report["size"], report["budget"])

    def test_nearest_point_matches_root_fidelity_scan(self):
        # the closed-form Bloch fidelity against the spectral reference
        # (whose square roots of pure surface points carry about 1e-8 of
        # rounding), and its argmax against the first maximum of the scan
        net = epsilon_net(2, 0.08)
        rng = rng_from(31)
        states = np.stack([random_density(2, rng, layout=QUBIT).a for _ in range(8)])
        fid = _bloch_fidelity(_bloch_vectors(states), _bloch_vectors(net.states))
        for row, state in zip(fid, states):
            scan = [root_fidelity(state, p) ** 2 for p in net.states]
            assert np.max(np.abs(row - scan)) < 1e-7
            assert int(np.argmax(row)) == int(np.argmax(scan))

    def test_rejects_unsupported_requests(self):
        with pytest.raises(CapacityError, match="dimension 2"):
            epsilon_net(3, 0.1)
        with pytest.raises(ValueError, match="deficit"):
            epsilon_net(2, 0.5)
        with pytest.raises(ValueError, match="net needs"):
            EpsilonNet(states=(), resolution=0.1)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            EpsilonNet(states=[np.diag([1.2, -0.2])], resolution=0.1)
