"""Tests for the joint projector decomposition and union constructions.

The decomposition is validated by reconstruction: the frame's
completeness and orthogonality, the inputs' block-diagonal form in it, and
the restriction sums are all checked directly against the inputs, and the
residuals agree with the dense per-block computation in ``oracles``.  Union bounds are checked against random states and by
eigenvalue certificates, never against the construction's own bookkeeping.
"""

import dataclasses
import math

import numpy as np
import pytest

from qoneshot import jordan
from qoneshot.jordan import (
    FAR,
    NEAR,
    decomposition_report,
    decomposition_residuals,
    jordan_decompose,
    merge_tests,
    neumark_dilate,
    union_depth,
    union_many,
    union_of_ranges,
    union_pair,
)
from qoneshot.divergences import TestOperator
from qoneshot.qcore import (
    ATOL,
    ComplexMatrix,
    LayoutError,
    Projector,
    haar_unitary,
    random_density,
    random_projector,
    rng_from,
)
from oracles import decomposition_residuals_dense

KET0 = np.diag([1.0, 0.0])
KET1 = np.diag([0.0, 1.0])
PLUS = np.full((2, 2), 0.5)


def _planted_state(rng, proj, eps):
    """A state accepted by proj with probability at least 1 - eps."""
    d = proj.dim
    w, v = np.linalg.eigh(proj.a)
    direction = v[:, -1]
    background = random_density(d, rng).a
    rho = (1.0 - eps / 2) * np.outer(direction, direction.conj()) + (eps / 2) * background
    return 0.5 * (rho + rho.conj().T)


def _random_tests(rng, s, d):
    """``s`` random tests of width ``d`` whose eigenvalues touch 0 and 1."""
    tests = []
    for _ in range(s):
        w = np.clip(rng.random(d) * 1.2 - 0.1, 0.0, 1.0)
        u = haar_unitary(d, rng)
        tests.append(TestOperator(ComplexMatrix((u * w) @ u.conj().T), 0.0, 1.0))
    return tests


def _span(cols):
    return Projector.of(cols @ cols.conj().T)


def _ket(v):
    return np.outer(v, v.conj())


def _union_pairs(rng, count):
    """Seeded pairs (d from 1 to 32) with identical, partly shared,
    orthogonal, generic and zero ranges, in turn."""
    for k in range(count):
        d = int(rng.integers(1, 33))
        q = haar_unitary(d, rng)
        r1 = int(rng.integers(0, d + 1))
        extra = int(rng.integers(0, d - r1 + 1))
        shape = k % 5
        if shape == 0:
            cols = q[:, :r1]
        elif shape == 1:
            # some of range(p1) plus directions at generic angles to the rest
            shared = q[:, : int(rng.integers(0, r1 + 1))]
            g = rng.normal(size=(d, extra)) + 1j * rng.normal(size=(d, extra))
            g -= shared @ (shared.conj().T @ g)
            cols = np.linalg.qr(np.concatenate([shared, g], axis=1))[0]
        elif shape == 2:
            cols = q[:, r1 : r1 + extra]
        elif shape == 3:
            cols = haar_unitary(d, rng)[:, : int(rng.integers(0, d + 1))]
        else:
            cols = q[:, :0]
        pair = (_span(q[:, :r1]), _span(cols))
        yield pair if k % 2 else pair[::-1]


def _block_union(p1, p2, delta):
    """The union assembled from the joint blocks: NEAR blocks add p1's
    restriction, FAR blocks meeting either range add the whole block."""
    dec = jordan_decompose(p1, p2, delta)
    out = np.zeros((p1.dim, p1.dim), dtype=complex)
    for k, label in enumerate(dec.labels):
        if label == NEAR:
            out += _ket(dec.r1[:, k])
        elif dec.r1[:, k].any() or dec.r2[:, k].any():
            cols = dec.frame[:, dec.cuts[k] : dec.cuts[k + 1]]
            out += cols @ cols.conj().T
    return out


def _families(rng, s, count):
    """Seeded lists of s projectors (d from 1 to 32, ranks 0 to d): generic,
    one repeated range, nested ranges and generic with zero ranges mixed
    in, in turn."""
    for k in range(count):
        d = int(rng.integers(1, 33))
        q = haar_unitary(d, rng)
        ranks = rng.integers(0, d + 1, size=s)
        shape = k % 4
        if shape == 0:
            projs = [_span(haar_unitary(d, rng)[:, :r]) for r in ranks]
        elif shape == 1:
            projs = [_span(q[:, : ranks[0]])] * s
        elif shape == 2:
            projs = [_span(q[:, :r]) for r in ranks]
        else:
            projs = [
                _span(q[:, :0] if j % 3 == 0 else haar_unitary(d, rng)[:, :r])
                for j, r in enumerate(ranks)
            ]
        yield projs


def _pairwise_fold(projectors, delta):
    """The tree union folded through the public union_pair, round by round."""
    level = list(projectors)
    while len(level) > 1:
        merged = [
            union_pair(level[i], level[i + 1], delta)
            for i in range(0, len(level) - 1, 2)
        ]
        if len(level) % 2:
            merged.append(level[-1])
        level = merged
    return level[0]


class TestDecompose:
    def test_commuting_orthogonal_projectors(self):
        dec = jordan_decompose(Projector.of(KET0), Projector.of(KET1), 0.3)
        assert dec.cuts.tolist() == [0, 1, 2]
        assert dec.overlaps.tolist() == [0.0, 0.0]
        assert dec.labels == (FAR, FAR)

    def test_qubit_half_overlap_block(self):
        dec = jordan_decompose(Projector.of(KET0), Projector.of(PLUS), 0.3)
        assert dec.cuts.tolist() == [0, 2]
        assert dec.overlaps[0] == pytest.approx(0.5, abs=1e-12)
        prod = _ket(dec.r1[:, 0]) @ _ket(dec.r2[:, 0])
        assert float(np.trace(prod).real) == pytest.approx(0.5, abs=1e-12)

    def test_identical_projectors_give_near_blocks(self):
        rng = rng_from(101)
        p = random_projector(6, 2, rng)
        dec = jordan_decompose(p, p, 0.3)
        blocks = range(len(dec.overlaps))
        ranged = [k for k in blocks if dec.r1[:, k].any()]
        kernel = [k for k in blocks if not (dec.r1[:, k].any() or dec.r2[:, k].any())]
        assert len(ranged) == 2 and len(kernel) == 4
        assert all(dec.labels[k] == NEAR and dec.overlaps[k] == pytest.approx(1.0) for k in ranged)
        res = decomposition_residuals(dec, p, p)
        assert max(res.values()) <= ATOL

    def test_invariants_on_random_pairs(self):
        """60 pairs up to d = 8 with ranks up to 4, then two pairs each at
        d = 64 and d = 128 with ranks up to d."""
        rng = rng_from(102)
        dims = [int(rng.integers(2, 9)) for _ in range(60)] + [64, 64, 128, 128]
        for d in dims:
            top = min(4, d) if d <= 8 else d
            p1 = random_projector(d, int(rng.integers(1, top + 1)), rng)
            p2 = random_projector(d, int(rng.integers(1, top + 1)), rng)
            dec = jordan_decompose(p1, p2, 0.3)
            assert dec.frame.shape == (d, d) and not dec.frame.flags.writeable
            assert len(dec.overlaps) <= d
            assert set(np.diff(dec.cuts).tolist()) <= {1, 2}
            res = decomposition_residuals(dec, p1, p2)
            assert max(res.values()) <= ATOL, res

    def test_overlap_equals_restriction_trace(self):
        rng = rng_from(103)
        p1 = random_projector(5, 2, rng)
        p2 = random_projector(5, 3, rng)
        dec = jordan_decompose(p1, p2, 0.4)
        for k, overlap in enumerate(dec.overlaps):
            direct = float(np.trace(_ket(dec.r1[:, k]) @ _ket(dec.r2[:, k])).real)
            assert abs(overlap - direct) <= 1e-10

    def test_residuals_match_the_dense_oracle(self):
        """On seeded pairs up to d = 16 (zero ranges included) the frame's
        residuals and the per-block dense ones agree to 1e-12, and each
        corrupted decomposition is caught by both on the key it breaks."""
        rng = rng_from(106)
        for p1, p2 in _union_pairs(rng, 60):
            if p1.dim > 16:
                continue
            dec = jordan_decompose(p1, p2, 0.3)
            got = decomposition_residuals(dec, p1, p2)
            want = decomposition_residuals_dense(dec, p1, p2)
            assert got.keys() == want.keys()
            assert all(abs(got[k] - want[k]) <= 1e-12 for k in got), (got, want)
        p1, p2 = random_projector(6, 2, rng), random_projector(6, 1, rng)
        dec = jordan_decompose(p1, p2, 0.3)
        f = dec.frame.copy()
        # column 0 lies in range(p1), the last column in the joint kernel
        turn = np.eye(6, dtype=complex)
        turn[[0, 0, 5, 5], [0, 5, 0, 5]] = [0.8, -0.6, 0.6, 0.8]
        corrupted = {
            "completeness": dataclasses.replace(dec, frame=1.01 * f),
            "orthogonality": dataclasses.replace(dec, frame=np.c_[f[:, :5], f[:, :1]]),
            "commutation": dataclasses.replace(dec, frame=f @ turn),
            "reconstruction": dataclasses.replace(dec, r1=0.9 * dec.r1),
        }
        for key, bad in corrupted.items():
            assert decomposition_residuals(bad, p1, p2)[key] > ATOL, key
            assert decomposition_residuals_dense(bad, p1, p2)[key] > ATOL, key

    def test_builds_no_projector_and_three_eigensolves(self, eigensolves, monkeypatch):
        """Past its inputs, neither the decomposition nor its residuals or
        report form a Projector.  The decomposition eigensolves exactly
        three d x d matrices (both range bases and the joint-kernel
        complement); the residuals and the report eigensolve nothing."""
        rng = rng_from(107)
        zero = Projector.of(np.zeros((5, 5)))
        pairs = [(Projector.of(KET0), Projector.of(PLUS)), (zero, random_projector(5, 2, rng))]
        pairs += [(random_projector(d, r1, rng), random_projector(d, r2, rng))
                  for d, r1, r2 in ((3, 1, 2), (8, 4, 4), (16, 3, 9))]

        def forbidden(*args, **kwargs):
            raise AssertionError("the decomposition built a Projector")

        forbidden.of = forbidden
        monkeypatch.setattr(jordan, "Projector", forbidden)
        for p1, p2 in pairs:
            eigensolves.clear()
            dec = jordan_decompose(p1, p2, 0.3)
            assert eigensolves == [(p1.dim, p1.dim)] * 3
            decomposition_residuals(dec, p1, p2)
            decomposition_report(dec)
            assert len(eigensolves) == 3

    def test_zero_projector_on_either_side(self):
        p = random_projector(5, 2, rng_from(104))
        zero = Projector.of(np.zeros((5, 5)))
        ranged = {"rank": 1, "overlap": 0.0, "label": FAR}
        kernel = dict(ranged, p1_rank=0, p2_rank=0)
        cases = (
            (zero, p, [dict(ranged, p1_rank=0, p2_rank=1)] * 2 + [kernel] * 3),
            (p, zero, [dict(ranged, p1_rank=1, p2_rank=0)] * 2 + [kernel] * 3),
            (zero, zero, [kernel] * 5),
        )
        for p1, p2, blocks in cases:
            dec = jordan_decompose(p1, p2, 0.3)
            assert decomposition_report(dec) == {
                "delta": 0.3, "num_blocks": 5, "blocks": blocks
            }
            assert max(decomposition_residuals(dec, p1, p2).values()) <= ATOL

    def test_rejects_bad_inputs(self):
        with pytest.raises(LayoutError):
            jordan_decompose(Projector.of(KET0), Projector.of(np.eye(3)), 0.3)
        with pytest.raises(ValueError):
            jordan_decompose(Projector.of(KET0), Projector.of(KET1), 1.5)

    def test_report_shape(self):
        rep = decomposition_report(
            jordan_decompose(Projector.of(KET0), Projector.of(PLUS), 0.3)
        )
        assert rep["num_blocks"] == 1
        assert rep["blocks"][0]["rank"] == 2
        assert rep["blocks"][0]["label"] in (FAR, NEAR)


class TestUnionPair:
    def test_matches_block_assembled_union(self):
        rng = rng_from(110)
        for p1, p2 in _union_pairs(rng, 300):
            for delta in (float(rng.uniform(0.05, 0.95)), 1e-7):
                star = union_pair(p1, p2, delta)
                assert float(np.max(np.abs(star.a - _block_union(p1, p2, delta)))) <= 1e-12

    def test_aligned_band_adds_nothing(self):
        """A cosine within 1e-12 of 1 marks one shared direction, even
        where a tiny delta would call its block FAR."""
        theta = math.acos(1.0 - 1e-13)
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([math.cos(theta), math.sin(theta), 0.0])
        p1, p2 = Projector.of(np.outer(a, a)), Projector.of(np.outer(b, b))
        for delta in (1e-7, 0.3):
            star = union_pair(p1, p2, delta).a
            assert float(np.max(np.abs(star - _block_union(p1, p2, delta)))) <= 1e-12
            assert float(np.max(np.abs(star - p1.a))) <= 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(LayoutError):
            union_pair(Projector.of(KET0), Projector.of(np.eye(3)), 0.3)
        for delta in (0.0, 1.0):
            with pytest.raises(ValueError):
                union_pair(Projector.of(KET0), Projector.of(KET1), delta)

    def test_identical_projectors_collapse(self):
        rng = rng_from(111)
        p = random_projector(5, 2, rng)
        star = union_pair(p, p, 0.3)
        assert float(np.max(np.abs(star.a - p.a))) <= 1e-9

    def test_orthogonal_qubit_union_is_identity(self):
        star = union_pair(Projector.of(KET0), Projector.of(KET1), 0.5)
        np.testing.assert_allclose(star.a, np.eye(2), atol=1e-12)
        gap = (2 / 0.25) * (KET0 + KET1) - star.a
        assert float(np.linalg.eigvalsh(gap)[0]) >= -1e-12

    def test_half_overlap_qubit_union(self):
        star = union_pair(Projector.of(KET0), Projector.of(PLUS), 0.5)
        np.testing.assert_allclose(star.a, np.eye(2), atol=1e-12)

    def test_acceptance_and_operator_bounds_on_random_pairs(self):
        rng = rng_from(112)
        for _ in range(25):
            d = int(rng.integers(2, 9))
            p1 = random_projector(d, int(rng.integers(1, min(4, d) + 1)), rng)
            p2 = random_projector(d, int(rng.integers(1, min(4, d) + 1)), rng)
            for delta in (0.1, 0.3, 0.5):
                star = union_pair(p1, p2, delta)
                gap = (2 / delta**2) * (p1.a + p2.a) - star.a
                assert float(np.linalg.eigvalsh(gap)[0]) >= -1e-8
                for _ in range(40):
                    rho = random_density(d, rng).a
                    accepted = float(np.trace(star.a @ rho).real)
                    best = max(
                        float(np.trace(p1.a @ rho).real),
                        float(np.trace(p2.a @ rho).real),
                    )
                    assert accepted >= best - delta - 1e-8


class TestUnionMany:
    def test_single_projector_passthrough(self):
        p = random_projector(4, 2, rng_from(121))
        star = union_many([p], 0.3)
        assert float(np.max(np.abs(star.a - p.a))) <= 1e-12

    def test_matches_pairwise_fold(self, eigensolves):
        """The union on carried bases matches the fold through union_pair
        and takes one eigensolve per input (none for a single one, which
        comes back as it is)."""
        rng = rng_from(126)
        counted = eigensolves
        for s in (1, 2, 3, 5, 8, 64):
            for projs in _families(rng, s, 8 if s < 64 else 4):
                for delta in (1e-7, 0.1, 0.9):
                    expected = _pairwise_fold(projs, delta)
                    counted.clear()
                    star = union_many(projs, delta)
                    if s == 1:
                        assert star is projs[0] and not counted
                        continue
                    assert len(counted) == s
                    assert float(np.max(np.abs(star.a - expected.a))) <= 1e-12

    def test_identical_projectors_collapse(self):
        p = random_projector(4, 1, rng_from(122))
        star = union_many([p] * 5, 0.3)
        assert float(np.max(np.abs(star.a - p.a))) <= 1e-9

    def test_bounds_with_planted_states(self):
        rng = rng_from(123)
        eps, delta = 0.1, 0.3
        for s in (2, 3, 4, 8):
            projs = [random_projector(4, 1, rng) for _ in range(s)]
            states = [_planted_state(rng, p, eps) for p in projs]
            star = union_many(projs, delta)
            loss = delta * math.log2(2 * s)
            for p, rho in zip(projs, states):
                assert float(np.trace(p.a @ rho).real) >= 1 - eps - 1e-12
                assert float(np.trace(star.a @ rho).real) >= 1 - eps - loss - 1e-8
            factor = (2 / delta**2) ** math.log2(2 * s)
            gap = factor * sum(p.a for p in projs) - star.a
            assert float(np.linalg.eigvalsh(gap)[0]) >= -1e-8

    def test_builds_no_jordan_blocks(self, monkeypatch):
        rng = rng_from(125)
        projs = [random_projector(6, int(rng.integers(1, 4)), rng) for _ in range(5)]
        expected = union_many(projs, 0.3).a

        def forbidden(*args, **kwargs):
            raise AssertionError("the union path built a Jordan block")

        monkeypatch.setattr(jordan, "jordan_decompose", forbidden)
        np.testing.assert_array_equal(union_many(projs, 0.3).a, expected)

    def test_odd_count_merges(self):
        rng = rng_from(124)
        projs = [random_projector(3, 1, rng) for _ in range(5)]
        star = union_many(projs, 0.4)
        factor = (2 / 0.16) ** math.log2(10)
        gap = factor * sum(p.a for p in projs) - star.a
        assert float(np.linalg.eigvalsh(gap)[0]) >= -1e-8

    def test_merge_tests_is_the_union_of_the_dilations(self):
        """merge_tests' Q Q^dag is union_many of the dilated projectors
        R R^dag, to 1e-12: the two routes span the same ranges in different
        bases."""
        rng = rng_from(126)
        for s in (1, 2, 3, 5):
            tests = _random_tests(rng, s, 3)
            delta = 0.3 / union_depth(s)
            want = union_many(
                [Projector.of(r @ r.conj().T) for r in map(neumark_dilate, tests)], delta
            ).a
            q = merge_tests(tests, delta)
            assert float(np.max(np.abs(q @ q.conj().T - want))) <= 1e-12

    def test_merge_tests_eigensolves_only_the_tests(self, eigensolves, monkeypatch):
        """One d x d eigensolve per test, none 2d wide, and no Projector."""
        rng = rng_from(127)

        def forbidden(*args, **kwargs):
            raise AssertionError("the merge path built a Projector")

        forbidden.of = forbidden
        monkeypatch.setattr(jordan, "Projector", forbidden)
        for s in (1, 2, 3, 5):
            for d in (2, 3, 5):
                tests = _random_tests(rng, s, d)
                eigensolves.clear()
                q = merge_tests(tests, 0.3 / union_depth(s))
                assert eigensolves == [(d, d)] * s
                assert q.shape[0] == 2 * d

    def test_rejects_bad_inputs(self, eigensolves):
        """Each rejection comes before any input is eigensolved."""
        p = Projector.of(KET0)
        cases = [([], 0.3, ValueError), ([p] * 65, 0.3, ValueError),
                 ([p, Projector.of(np.eye(3))], 0.3, LayoutError)]
        cases += [([p] * k, delta, ValueError) for k in (1, 3) for delta in (0.0, 1.0, math.nan)]
        for inputs, delta, error in cases:
            eigensolves.clear()
            with pytest.raises(error):
                union_many(inputs, delta)
            assert not eigensolves


class TestUnionOfRanges:
    def test_reproduces_union_many_without_an_eigensolve(self, eigensolves):
        """Fed each input's range basis, the core's Q Q^dag is union_many's
        projector bit for bit (a single input, which union_many hands back
        as it is, to 1e-12), and the core itself makes no eigensolve."""
        rng = rng_from(126)
        for s in (1, 2, 3, 5, 8, 64):
            for projs in _families(rng, s, 8 if s < 64 else 4):
                bases = [jordan._range_basis(p) for p in projs]
                for delta in (1e-7, 0.1, 0.9):
                    eigensolves.clear()
                    q = union_of_ranges(bases, delta)
                    assert not eigensolves
                    star = union_many(projs, delta).a
                    if s == 1:
                        assert float(np.max(np.abs(q @ q.conj().T - star))) <= 1e-12
                    else:
                        assert (q @ q.conj().T).tobytes() == star.tobytes()

    def test_unit_vectors_match_their_rank_one_projectors(self):
        rng = rng_from(128)
        for s in (2, 3, 8, 13):
            for delta in (0.1, 0.3, 0.9):
                d = int(rng.integers(2, 33))
                vecs = rng.normal(size=(s, d)) + 1j * rng.normal(size=(s, d))
                vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
                q = union_of_ranges([v[:, None] for v in vecs], delta)
                np.testing.assert_allclose(q.conj().T @ q, np.eye(q.shape[1]), atol=1e-12)
                star = union_many([Projector.of(np.outer(v, v.conj())) for v in vecs], delta)
                assert float(np.max(np.abs(q @ q.conj().T - star.a))) <= 1e-12

    def test_checks_its_result(self, monkeypatch):
        """A merge that loses orthonormality is caught on the result."""
        monkeypatch.setattr(jordan, "_far_complement", lambda q1, q2, delta: q1)
        with pytest.raises(ValueError, match="merged basis is not orthonormal"):
            union_of_ranges([np.eye(3)[:, :1], np.eye(3)[:, 1:2]], 0.3)

    def test_rejects_bad_inputs(self):
        e0 = np.eye(3)[:, :1]
        with pytest.raises(ValueError, match="not orthonormal"):
            union_of_ranges([e0, 2.0 * e0], 0.3)
        with pytest.raises(ValueError, match="not orthonormal"):
            union_of_ranges([e0, np.ones((3, 2)) / math.sqrt(3)], 0.3)
        with pytest.raises(ValueError):
            union_of_ranges([], 0.3)
        with pytest.raises(ValueError):
            union_of_ranges([e0] * 65, 0.3)
        for delta in (0.0, 1.0, -0.2, 1.5, math.nan):
            with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
                union_of_ranges([e0, e0], delta)
        with pytest.raises(LayoutError):
            union_of_ranges([e0, np.eye(4)[:, :1]], 0.3)
