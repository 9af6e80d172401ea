"""Tests for the qubit Schur-Weyl primitives.

The spin operators and symmetric powers are checked against their algebra
(commutators, multiplicativity, dimension count) and, for up to six qubits,
against an explicit construction of every spin block: highest-weight vectors
from the kernel of the collective raising operator, lowered by J_- and
normalized, with no reference to the closed forms under test.
"""

import itertools
import math

import numpy as np
import pytest

from qoneshot.qcore import random_density, rng_from, tensor_power
from qoneshot.schur import (
    block_weight,
    collective,
    multiplicity,
    spin_operators,
    spins,
    sym_power,
)


def random_matrix(rng):
    return rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))


def unit(a, b):
    e = np.zeros((2, 2))
    e[a, b] = 1.0
    return e


def dense_collective(a, b, n):
    """``sum_k |a><b|_k`` on n qubits, by explicit Kronecker products."""
    out = np.zeros((2**n, 2**n))
    for k in range(n):
        out += np.kron(np.kron(np.eye(2**k), unit(a, b)), np.eye(2 ** (n - k - 1)))
    return out


def dicke_blocks(n):
    """For each spin ``two_j`` of n qubits, an isometry whose columns are
    ``|q, alpha>`` (alpha major): an orthonormal basis of the highest-weight
    vectors (J_z = j, killed by J_+) lowered q times by J_- and normalized."""
    raise_op, lower_op = dense_collective(0, 1, n), dense_collective(1, 0, n)
    ones = np.array([bin(x).count("1") for x in range(2**n)])
    blocks = {}
    for two_j in spins(n):
        weight = np.flatnonzero(ones == (n - two_j) // 2)
        _, sv, vh = np.linalg.svd(raise_op[:, weight])
        null = vh[np.sum(sv > 1e-9):].conj().T
        highest = np.zeros((2**n, null.shape[1]))
        highest[weight] = null.real
        columns = []
        for h in highest.T:
            vec = h
            for _ in range(two_j + 1):
                columns.append(vec / np.linalg.norm(vec))
                vec = lower_op @ vec
        blocks[two_j] = np.array(columns).T
    return blocks


class TestSpinAlgebra:
    def test_raising_and_lowering_commute_to_twice_jz(self):
        for two_j in range(12):
            jz, jp, jm = spin_operators(two_j)
            np.testing.assert_allclose(jp @ jm - jm @ jp, 2.0 * jz, atol=1e-12)
            np.testing.assert_array_equal(jm, jp.T)

    def test_collective_is_a_representation_of_gl2(self):
        # [E_ab, E_cd] = delta_bc E_ad - delta_ad E_cb
        for n, two_j in ((5, 3), (6, 6), (4, 0)):
            e = collective(n, two_j)
            for a, b, c, d in itertools.product(range(2), repeat=4):
                lhs = e[a, b] @ e[c, d] - e[c, d] @ e[a, b]
                rhs = (b == c) * e[a, d] - (a == d) * e[c, b]
                np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_dimensions_add_up(self):
        for n in range(21):
            assert sum(multiplicity(n, t) * (t + 1) for t in spins(n)) == 2**n
        assert [multiplicity(4, t) for t in spins(4)] == [1, 3, 2]

    def test_rejects_spins_of_the_wrong_parity(self):
        with pytest.raises(ValueError, match="spin"):
            multiplicity(4, 3)
        with pytest.raises(ValueError, match="spin"):
            collective(3, 5)


class TestSymPower:
    def test_multiplicative(self):
        rng = rng_from(31)
        for k in range(9):
            a, b = random_matrix(rng), random_matrix(rng)
            lhs = sym_power(a @ b, k)
            rhs = sym_power(a, k) @ sym_power(b, k)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_low_powers(self):
        a = random_matrix(rng_from(32))
        np.testing.assert_array_equal(sym_power(a, 0), np.ones((1, 1)))
        np.testing.assert_allclose(sym_power(a, 1), a, atol=1e-15)

    def test_rank_one_matrix_keeps_zero_powers(self):
        # 0^0 = 1: Sym^k of |0><0| is |0...0><0...0|
        for k in range(5):
            expected = np.zeros((k + 1, k + 1))
            expected[0, 0] = 1.0
            np.testing.assert_array_equal(sym_power(np.diag([1.0, 0.0]), k), expected)


class TestExplicitBlocks:
    def test_collective_and_tensor_powers_match_dicke_construction(self):
        rng = rng_from(33)
        for n in range(1, 7):
            blocks = dicke_blocks(n)
            basis = np.hstack([blocks[t] for t in spins(n)])
            np.testing.assert_allclose(basis.conj().T @ basis, np.eye(2**n), atol=1e-12)
            a = random_matrix(rng)
            power = tensor_power(a, n)
            det = np.linalg.det(a)
            for two_j in spins(n):
                iso, mult = blocks[two_j], multiplicity(n, two_j)
                assert iso.shape[1] == mult * (two_j + 1)
                e = collective(n, two_j)
                for x, y in itertools.product(range(2), repeat=2):
                    got = iso.conj().T @ dense_collective(x, y, n) @ iso
                    np.testing.assert_allclose(got, np.kron(np.eye(mult), e[x, y]), atol=1e-12)
                want = det ** ((n - two_j) // 2) * sym_power(a, two_j)
                got = iso.conj().T @ power @ iso
                np.testing.assert_allclose(got, np.kron(np.eye(mult), want), atol=1e-11)
                # nothing leaks out of the block
                rest = basis.conj().T @ power @ iso
                assert np.linalg.norm(rest) == pytest.approx(np.linalg.norm(got), rel=1e-12)


class TestTraceNormalization:
    def test_state_powers_have_unit_trace_up_to_127_qubits(self):
        """sum_j m_j det^(N/2-j) Tr Sym^(2j)(sigma) = Tr sigma^(x N) = 1, with
        multiplicities and powers combined in log space."""
        rng = rng_from(34)
        states = [random_density(2, rng).a for _ in range(3)]
        states.append(np.diag([0.7, 0.3]).astype(complex))
        for sigma in states:
            det = float(np.linalg.det(sigma).real)
            for n in (1, 2, 7, 16, 63, 64, 127):
                total = 0.0
                for two_j in spins(n):
                    tr = float(np.trace(sym_power(sigma, two_j)).real)
                    log_term = (
                        math.log(multiplicity(n, two_j))
                        + (n - two_j) // 2 * math.log(det)
                        + math.log(tr)
                    )
                    total += math.exp(log_term)
                    assert block_weight(n, two_j, det) == pytest.approx(
                        math.exp(log_term - math.log(tr)), rel=1e-12
                    )
                assert abs(total - 1.0) <= 1e-12, (n, total)

    def test_block_weight_of_a_pure_state(self):
        for n in (1, 4, 9):
            assert block_weight(n, n, 0.0) == 1.0
            assert all(block_weight(n, t, 0.0) == 0.0 for t in spins(n) if t < n)
