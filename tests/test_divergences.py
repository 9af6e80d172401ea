"""Tests for entropic quantities and hypothesis-testing divergences.

Every optimized quantity is checked against an independent route that does
not share code with the solver: classical formulas on commuting instances,
linear programming, spectral characterizations, restricted measurement
families, and brute-force grids.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qoneshot.composite import bloch_density
from qoneshot.divergences import (
    EDGE,
    TOL_NP,
    StateEnsemble,
    TestOperator,
    classical_np_value,
    _certified,
    _jump_points,
    _np_solve,
    _slope,
    _traces,
    d_max,
    hypothesis_test_divergence,
    i_h,
    i_h_hat,
    i_h_min,
    i_h_tilde,
    i_max,
    relative_entropy,
    relative_entropy_variance,
)
from oracles import (
    best_qubit_two_level_test,
    classical_i_h,
    min_dh_over_bloch_grid,
    min_dh_over_weight_grids,
    simplex_lattice,
    tensor_product,
)
from qoneshot.qcore import (
    ComplexMatrix,
    DensityMatrix,
    LayoutError,
    RegisterLayout,
    haar_unitary,
    maximally_entangled,
    random_density,
    rng_from,
)


def _probs(rng, d):
    p = rng.random(d) + 0.05
    return p / p.sum()


def _rotated_pair(rng, d):
    """A commuting pair diagonal in a common Haar basis, plus its spectra."""
    p, q = _probs(rng, d), _probs(rng, d)
    u = haar_unitary(d, rng)
    return (u * p) @ u.conj().T, (u * q) @ u.conj().T, p, q


def _qubit_layout():
    return RegisterLayout.of("a:2 b:2")


# ---------------------------------------------------------------------------
# relative entropy and its variance
# ---------------------------------------------------------------------------

def _overlap_relative_entropy(r, s):
    """D by the eigenvector-overlap formula: sum_ij p_i |<r_i|s_j>|^2
    (log p_i - log q_j), over eigenvalues above ``EDGE``."""
    p, vr = np.linalg.eigh(r)
    q, vs = np.linalg.eigh(s)
    overlap = np.abs(vr.conj().T @ vs) ** 2
    psel, qsel = p > EDGE, q > EDGE
    term_r = float(np.sum(p[psel] * np.log2(p[psel])))
    term_s = float(p[psel] @ overlap[np.ix_(psel, qsel)] @ np.log2(q[qsel]))
    return max(term_r - term_s, 0.0)


def _on_subspace(rng, basis):
    """A random state supported on the span of the orthonormal columns."""
    a = random_density(basis.shape[1], rng).a
    return basis @ a @ basis.conj().T


class TestRelativeEntropy:
    def test_matches_classical_kl_on_commuting_pairs(self):
        rng = rng_from(11)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            r, s, p, q = _rotated_pair(rng, d)
            kl = float(np.sum(p * (np.log2(p) - np.log2(q))))
            assert abs(relative_entropy(r, s) - kl) <= 1e-9

    def test_matches_eigenvector_overlap_formula(self):
        """Tr[rho (log rho - log sigma)] against the overlap formula on
        non-commuting, rank-deficient and shared-support pairs."""
        rng = rng_from(13)
        worst = 0.0
        for k in range(600):
            d = int(rng.integers(2, 7))
            u = haar_unitary(d, rng)
            shape = k % 3
            if shape == 0:  # non-commuting, full rank
                r, s = random_density(d, rng).a, random_density(d, rng).a
            elif shape == 1:  # rho rank-deficient, sigma full rank
                r = _on_subspace(rng, u[:, : int(rng.integers(1, d))])
                s = random_density(d, rng).a
            else:  # both on one proper subspace
                basis = u[:, : int(rng.integers(1, d))]
                r, s = _on_subspace(rng, basis), _on_subspace(rng, basis)
            value, oracle = relative_entropy(r, s), _overlap_relative_entropy(r, s)
            assert math.isfinite(value), (k, shape)
            worst = max(worst, abs(value - oracle) / max(1.0, abs(oracle)))
        assert worst <= 1e-12

    def test_known_values(self):
        ket0 = np.diag([1.0, 0.0])
        assert relative_entropy(ket0, np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)
        assert relative_entropy(np.eye(2) / 2, np.eye(2) / 2) == pytest.approx(0.0, abs=1e-12)
        assert relative_entropy(ket0, np.diag([0.0, 1.0])) == math.inf

    def test_unitary_invariance(self):
        rng = rng_from(12)
        r, s, _, _ = _rotated_pair(rng, 4)
        u = haar_unitary(4, rng)
        before = relative_entropy(r, s)
        after = relative_entropy(u @ r @ u.conj().T, u @ s @ u.conj().T)
        assert abs(before - after) <= 1e-9

    @given(
        st.floats(0.05, 0.95),
        st.floats(0.05, 0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_binary_kl_formula(self, a, b):
        r = np.diag([a, 1.0 - a])
        s = np.diag([b, 1.0 - b])
        kl = a * math.log2(a / b) + (1.0 - a) * math.log2((1.0 - a) / (1.0 - b))
        assert abs(relative_entropy(r, s) - max(kl, 0.0)) <= 1e-10


class TestRelativeEntropyVariance:
    def test_matches_classical_on_commuting_pairs(self):
        rng = rng_from(21)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            r, s, p, q = _rotated_pair(rng, d)
            logs = np.log2(p) - np.log2(q)
            mean = float(np.sum(p * logs))
            var = float(np.sum(p * logs**2)) - mean**2
            assert abs(relative_entropy_variance(r, s) - var) <= 1e-8

    def test_zero_for_equal_states_and_pure_vs_flat(self):
        rng = rng_from(22)
        rho = random_density(3, rng).a
        assert relative_entropy_variance(rho, rho) == pytest.approx(0.0, abs=1e-9)
        psi = random_density(4, rng, rank=1).a
        assert relative_entropy_variance(psi, np.eye(4) / 4) == pytest.approx(0.0, abs=1e-9)

    def test_nonnegative(self):
        rng = rng_from(23)
        for _ in range(30):
            d = int(rng.integers(2, 6))
            r = random_density(d, rng).a
            s = random_density(d, rng).a
            assert relative_entropy_variance(r, s) >= -1e-9


class TestDMax:
    def test_matches_spectral_oracle(self):
        from qoneshot.qcore import spectral

        rng = rng_from(31)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            r = random_density(d, rng).a
            s = random_density(d, rng).a
            isq = spectral(s, lambda w: 1.0 / np.sqrt(w), 1e-12)
            oracle = math.log2(float(np.linalg.eigvalsh(isq @ r @ isq)[-1]))
            assert abs(d_max(r, s) - oracle) <= 1e-9

    def test_definition_on_the_oracle_pairs(self):
        """rho <= 2^k sigma holds at k = d_max (to rounding) and fails just
        below it."""
        rng = rng_from(31)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            r = random_density(d, rng).a
            s = random_density(d, rng).a
            k = d_max(r, s)
            assert np.linalg.eigvalsh(2.0**k * s - r)[0] >= -1e-12 * 2.0**k
            assert np.linalg.eigvalsh(2.0 ** (k - 1e-6) * s - r)[0] < 0.0

    def test_classical_value_and_support_violation(self):
        r = np.diag([0.9, 0.1])
        s = np.diag([0.45, 0.55])
        assert d_max(r, s) == pytest.approx(1.0, abs=1e-10)
        assert d_max(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == math.inf

    def test_dominates_relative_entropy(self):
        rng = rng_from(32)
        for _ in range(30):
            d = int(rng.integers(2, 6))
            r = random_density(d, rng).a
            s = random_density(d, rng).a
            assert d_max(r, s) >= relative_entropy(r, s) - 1e-9

    def test_i_max_of_maximally_entangled(self):
        for d in (2, 3):
            phi = maximally_entangled(d).density()
            assert i_max(phi) == pytest.approx(2 * math.log2(d), abs=1e-9)


class TestVarianceVersusDMax:
    def test_variance_can_exceed_squared_dmax(self):
        """Frozen classical counterexample: the second moment is not
        controlled by the squared operator-dominance exponent, because the
        log-likelihood can be large and negative without affecting it."""
        r = np.diag([0.9, 0.1])
        s = np.diag([0.45, 0.55])
        k = d_max(r, s)
        v = relative_entropy_variance(r, s)
        assert k == pytest.approx(1.0, abs=1e-10)
        assert v > k**2 + 0.05, f"expected a strict violation, got V={v} vs k^2={k**2}"

    def test_gate_eight_fifth_leg_instance_exceeds_squared_dmax(self):
        """The library's answer behind the by-design gate-08 failure: replay
        the gate's seeded draws (``rng_from(108)``, its first four legs draw
        only) to instance 3 of its fifth leg, where V > D_max^2."""
        rng = rng_from(108)
        for _ in range(500):
            dim = int(rng.integers(2, 5))
            for _ in range(3):
                random_density(dim, rng)
            rng.uniform()
        for _ in range(500):
            dim = int(rng.integers(2, 5))
            random_density(dim, rng)
            rng.uniform()
            random_density(dim, rng)
            random_density(dim, rng)
            rng.uniform()
        for _ in range(500):
            for dim in (4, 2, 2):
                random_density(dim, rng)
        for _ in range(500):
            dim = int(rng.integers(2, 7))
            rng.normal(size=(4, dim, dim))
            rng.uniform(size=2)
        for i in range(4):
            dim = int(rng.integers(2, 5))
            rho = random_density(dim, rng).a
            if i % 2 == 0:
                sigma = random_density(dim, rng).a
            else:
                t = float(rng.uniform(0.05, 0.5))
                sigma = (1.0 - t) * rho + t * random_density(dim, rng).a
        k = d_max(rho, sigma)
        v = relative_entropy_variance(rho, sigma)
        assert v > k**2 + 0.1, f"expected a strict violation, got V={v} vs k^2={k**2}"


# ---------------------------------------------------------------------------
# plain hypothesis-testing divergence
# ---------------------------------------------------------------------------

class TestHypothesisTestDivergence:
    def test_equal_states(self):
        rng = rng_from(41)
        rho = random_density(3, rng).a
        for eps in (0.1, 0.25, 0.5):
            value, test = hypothesis_test_divergence(rho, rho, eps)
            assert abs(value - (-math.log2(1.0 - eps))) <= 1e-10
            assert test.type1_error <= eps + 1e-9

    def test_classical_known_values(self):
        ket0 = np.diag([1.0, 0.0])
        flat = np.eye(2) / 2
        v1, _ = hypothesis_test_divergence(ket0, flat, 0.5)
        assert v1 == pytest.approx(2.0, abs=1e-10)
        v2, _ = hypothesis_test_divergence(ket0, flat, 0.25)
        assert v2 == pytest.approx(3.0 - math.log2(3.0), abs=1e-10)

    def test_orthogonal_supports_give_infinity(self):
        v, test = hypothesis_test_divergence(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 0.3)
        assert v == math.inf
        assert test.type2_bound <= 1e-300
        assert classical_np_value(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.3) == math.inf

    def test_matches_linear_program_on_commuting_pairs(self):
        rng = rng_from(42)
        for _ in range(30):
            d = int(rng.integers(2, 9))
            r, s, p, q = _rotated_pair(rng, d)
            for eps in (0.1, 0.3):
                value, test = hypothesis_test_divergence(r, s, eps)
                assert abs(value - classical_np_value(p, q, eps)) <= 1e-8
                assert test.type1_error <= eps + 1e-9

    def test_matches_two_level_family_on_noncommuting_qubits(self):
        rng = rng_from(43)
        for _ in range(3):
            r = random_density(2, rng).a
            s = random_density(2, rng).a
            value, _ = hypothesis_test_divergence(r, s, 0.2)
            family = best_qubit_two_level_test(r, s, 0.2)
            assert family <= value + 1e-6  # restricted family cannot beat the optimum
            assert value - family <= 1e-4

    def test_type1_saturates_on_full_rank_pairs(self):
        rng = rng_from(44)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            r = random_density(d, rng).a
            s = random_density(d, rng).a
            _, test = hypothesis_test_divergence(r, s, 0.15)
            assert test.type1_error <= 0.15 + 1e-9
            assert abs(test.type1_error - 0.15) <= 1e-6

    def test_optimal_test_commutes_with_threshold_matrix(self):
        rng = rng_from(45)
        for _ in range(10):
            r = random_density(4, rng).a
            s = random_density(4, rng).a
            _, test = hypothesis_test_divergence(r, s, 0.2)
            assert test.threshold is not None
            gap = r - test.threshold * s
            comm = test.a @ gap - gap @ test.a
            assert float(np.max(np.abs(comm))) <= 1e-8

    def test_monotone_in_epsilon(self):
        rng = rng_from(46)
        r = random_density(3, rng).a
        s = random_density(3, rng).a
        values = [hypothesis_test_divergence(r, s, e)[0] for e in (0.05, 0.2, 0.5, 0.8)]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    @given(st.floats(0.05, 0.95))
    @settings(max_examples=30, deadline=None)
    def test_equal_state_value_formula(self, eps):
        rho = np.diag([0.7, 0.3])
        value, _ = hypothesis_test_divergence(rho, rho, eps)
        assert abs(value - (-math.log2(1.0 - eps))) <= 1e-9

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            hypothesis_test_divergence(np.eye(2) / 2, np.eye(2) / 2, 0.0)
        with pytest.raises(LayoutError):
            hypothesis_test_divergence(np.eye(2) / 2, np.eye(3) / 3, 0.1)


def _bisection_np(r, s, eps):
    """Neyman-Pearson oracle: bisect the threshold t of {r - t s > 0} down
    to 8e-16 of its width, with no jump points and no interpolation.

    Returns (beta, type1_error).  A plain bisection with its own bracket,
    boundary-block closure and widened-band fallback; it shares no code with
    the library solver.
    """
    target = 1.0 - eps

    def pieces(t, band):
        w, v = np.linalg.eigh(r - t * s)
        pos, bnd = v[:, w > band], v[:, np.abs(w) <= band]
        t_pos = float(np.einsum("ij,ij->", pos.conj(), r @ pos).real)
        t_bnd = float(np.einsum("ij,ij->", bnd.conj(), r @ bnd).real)
        return pos, bnd, t_pos, t_bnd

    def close(pos, bnd, t_pos, t_bnd):
        frac = min(1.0, max(0.0, (target - t_pos) / t_bnd)) if t_bnd > 1e-300 else 0.0
        return pos @ pos.conj().T + frac * (bnd @ bnd.conj().T)

    lo, f_lo, hi = 0.0, 1.0, 1.0
    while hi < 2.0**200 and sum(pieces(hi, EDGE)[2:]) >= target:
        hi *= 2.0
    if hi >= 2.0**200:
        m = close(*pieces(hi, EDGE))
    else:
        f_hi = sum(pieces(hi, EDGE)[2:])
        while True:
            mid = 0.5 * (lo + hi)
            pos, bnd, t_pos, t_bnd = pieces(mid, EDGE)
            if t_pos <= target <= t_pos + t_bnd:
                m = close(pos, bnd, t_pos, t_bnd)
                break
            if t_pos > target:
                lo, f_lo = mid, t_pos
            else:
                hi, f_hi = mid, t_pos + t_bnd
            if f_lo - f_hi <= 1e-12 or hi - lo <= 8e-16 * (1.0 + hi):
                band = max(EDGE, 4.0 * (hi - lo) * float(np.linalg.norm(s, 2)))
                m = close(*pieces(lo, band))
                break
    m = 0.5 * (m + m.conj().T)
    return float(np.trace(m @ s).real), 1.0 - float(np.trace(m @ r).real)


def _np_oracle_set():
    """400 seeded (shape, r, s, eps) instances, d in 2..6, in four shapes:
    full-rank pairs, a pure null state, a rank-deficient alternative (singular
    s; covers the unbounded tail), and commuting diagonals whose alternative
    permutes the null's spectrum (every jump exact)."""
    rng = rng_from(2024)
    out = []
    for i in range(400):
        d = int(rng.integers(2, 7))
        eps = float(rng.uniform(0.05, 0.4))
        shape = ("full", "pure_null", "singular_alt", "commuting")[i % 4]
        if shape == "full":
            r, s = random_density(d, rng).a, random_density(d, rng).a
        elif shape == "pure_null":
            r, s = random_density(d, rng, rank=1).a, random_density(d, rng).a
        elif shape == "singular_alt":
            r = random_density(d, rng).a
            s = random_density(d, rng, rank=int(rng.integers(1, d))).a
        else:
            p = _probs(rng, d)
            r, s = np.diag(p).astype(complex), np.diag(p[rng.permutation(d)]).astype(complex)
        out.append((shape, r, s, eps))
    return out


@pytest.fixture(scope="module")
def np_oracle_runs():
    """Each oracle instance with the library's result and the oracle's."""
    return [
        (shape, r, s, eps, hypothesis_test_divergence(r, s, eps), _bisection_np(r, s, eps))
        for shape, r, s, eps in _np_oracle_set()
    ]


class TestNeymanPearsonSolver:
    def test_beta_matches_bisection_oracle(self, np_oracle_runs):
        for shape, r, s, eps, (_, test), (beta, type1) in np_oracle_runs:
            # 1e-15 absolute: where r's weight outside supp(s) meets the
            # target, both betas are rounding noise of a zero trace
            assert abs(test.type2_bound - beta) <= TOL_NP * abs(beta) + 1e-15, shape
            assert type1 <= eps + 1e-15

    def test_type1_error_never_exceeds_eps(self, np_oracle_runs):
        for shape, r, s, eps, (_, test), _ in np_oracle_runs:
            assert test.type1_error <= eps + 1e-15, shape

    def test_commuting_pairs_match_linear_program(self, np_oracle_runs):
        runs = [x for x in np_oracle_runs if x[0] == "commuting"]
        assert len(runs) == 100
        for _, r, s, eps, (value, _), _ in runs:
            p, q = np.diag(r).real, np.diag(s).real
            assert abs(value - classical_np_value(p, q, eps)) <= 1e-9

    def test_eigensolves_per_solve_on_oracle_set(self, np_oracle_runs):
        # 2,556 when this bound was set (6.4 per solve); the bisection
        # needs 38-44 per solve on this set
        assert sum(test.iterations for *_, (_, test), _ in np_oracle_runs) <= 2556

    def test_repeated_ratio_closes_on_a_two_wide_boundary_block(self):
        """Commuting pairs whose likelihood ratio repeats on two directions,
        with the target strictly inside the jump at that ratio: the solver
        stops exactly on the jump, and both tied directions fall in the
        boundary block and take the same fraction.  Half the pairs are
        rotated by a common Haar unitary, so the two boundary eigenvalues
        are rounding noise of either sign."""
        rng = rng_from(93)
        for k in range(40):
            d = int(rng.integers(3, 7))
            p, q = _probs(rng, d), _probs(rng, d)
            q[1] = q[0] * p[1] / p[0]
            q /= q.sum()
            lam = p[0] / q[0]
            above = sum(p[i] for i in range(2, d) if p[i] / q[i] > lam)
            eps = 1.0 - (above + rng.uniform(0.2, 0.8) * (p[0] + p[1]))
            u = haar_unitary(d, rng) if k % 2 else np.eye(d)
            r, s = (u * p) @ u.conj().T, (u * q) @ u.conj().T
            _, test = hypothesis_test_divergence(r, s, eps)
            beta, type1 = _bisection_np(r, s, eps)
            assert abs(test.type2_bound - beta) <= TOL_NP * abs(beta) + 1e-15, k
            assert test.type1_error <= eps + 1e-15 and type1 <= eps + 1e-15, k
            assert test.threshold in _jump_points(r, s), k
            assert abs(test.threshold - lam) <= 1e-12 * lam, k
            accept = np.diag(u.conj().T @ test.a @ u).real
            assert 1e-3 < accept[0] < 1.0 - 1e-3, k
            assert abs(accept[0] - accept[1]) <= 1e-12, k

    def test_infinite_value_decided_by_kernel_weight(self, np_oracle_runs):
        """D_H = +inf exactly when r holds at least 1 - eps on ker(s).  The
        kernel here comes from an eigensolve of s alone.  On the 15 pairs
        where it holds, the doubling tail once stopped at 2^50-2^55 on
        rounding noise and returned 54-57 bits or +inf after 58-204
        eigensolves; now each returns ker(s) itself after 4."""
        infinite = []
        for k, (shape, r, s, eps, (value, test), _) in enumerate(np_oracle_runs):
            w, v = np.linalg.eigh(s)
            kernel = v[:, w <= 1e-12 * w[-1]]
            weight = float(np.trace(kernel.conj().T @ r @ kernel).real)
            if weight >= 1.0 - eps:
                infinite.append(k)
                assert value == math.inf and test.type2_bound == 0.0
                assert test.threshold == math.inf and test.iterations == 4
                assert test.type1_error <= eps
                assert abs(float(np.trace(test.a @ s).real)) <= 1e-15
            else:
                assert value < 40.0, (k, value)
        assert infinite == [18, 42, 58, 134, 162, 194, 238, 242, 254, 258, 302, 322, 350, 366, 390]

    def test_pinned_work_on_fixed_two_qubit_instance(self):
        """Exact solver work on one seeded instance; a solver change that
        alters it must update these counts in review."""
        rng = rng_from(77)
        rho = random_density(4, rng, layout=_qubit_layout())
        prod = np.kron(rho.marginal({"a"}).a, rho.marginal({"b"}).a)
        _, test = hypothesis_test_divergence(rho.a, prod, 0.2)
        assert test.iterations == 9  # eigensolves; 40 with the bisection
        _, test = i_h(rho, 0.2)
        assert test.iterations == 96  # Neyman-Pearson solves

    def test_slope_matches_central_difference(self):
        """``_slope`` at points inside the smooth pieces of the oracle pairs
        (below the first jump, between jumps in mu = t / (1 + t), and past
        the last) against a central difference of f(t) = Tr[r {r - t s > 0}]
        whose two points see the same eigenvalue signs."""

        def probe(r, s, t):
            w, v = np.linalg.eigh(r - t * s)
            k = int(np.searchsorted(w, 0.0, side="right"))
            return w, v, k, float(np.einsum("ij,ij->", v[:, k:].conj(), (r @ v)[:, k:]).real)

        checked = 0
        for shape, r, s, eps in _np_oracle_set():
            mus = [j / (1.0 + j) for j in _jump_points(r, s)]
            edges = [0.0, *mus, 1.0]
            for a, b in zip(edges, edges[1:]):
                mu = 0.5 * (a + b)
                t, h = mu / (1.0 - mu), 1e-6 * mu / (1.0 - mu)
                w, v, k, _ = probe(r, s, t)
                (_, _, k_up, f_up), (_, _, k_dn, f_dn) = probe(r, s, t + h), probe(r, s, t - h)
                if np.min(np.abs(w)) <= 1e-6 or not k_up == k_dn == k:
                    continue
                diff = (f_up - f_dn) / (2.0 * h)
                # f is rounded to about 1e-14 through its eigenvectors: 1e-14 / h in diff
                assert abs(_slope(t, w, v, r @ v, k) - diff) <= 1e-6 * abs(diff) + 1e-14 / h, (shape, t)
                checked += 1
        assert checked >= 1000

    def test_any_start_threshold_gives_the_cold_result(self, np_oracle_runs):
        """Started at each jump, between jumps, below the first and 10x past
        the last, every solve meets Type-1 <= eps and the bisection's beta;
        it still returns ker(s) at +inf where D_H = +inf, and on commuting
        pairs, whose f is flat between jumps, it still closes at a jump."""
        for shape, r, s, eps, (value, _), (beta, _) in np_oracle_runs:
            jumps = _jump_points(r, s)
            starts = [*jumps, *(0.5 * (jumps[1:] + jumps[:-1]))]
            starts += [0.5 * jumps[0], 10.0 * jumps[-1]] if jumps.size else [1.0]
            cold = _np_solve(r, s, eps)
            for t0 in starts:
                b, m, thr, _, smooth = _np_solve(r, s, eps, t0)
                assert 1.0 - float(np.trace(m @ r).real) <= eps + 1e-15, (shape, t0)
                assert abs(b - beta) <= TOL_NP * abs(beta) + 1e-15, (shape, t0)
                if value == math.inf:
                    assert (b, thr, smooth) == (0.0, math.inf, False)
                    np.testing.assert_array_equal(m, cold[1])
                if shape == "commuting":  # at a listed jump, or at a start inside one
                    assert (thr in jumps or thr == t0) and not smooth, t0

    @pytest.mark.parametrize("t0", [0.0, -1.0, math.inf, math.nan])
    def test_start_threshold_not_finite_and_positive_is_ignored(self, t0):
        for _, r, s, eps in _np_oracle_set()[:40]:
            cold, warm = _np_solve(r, s, eps), _np_solve(r, s, eps, t0)
            assert (warm[0], warm[2:]) == (cold[0], cold[2:])
            np.testing.assert_array_equal(warm[1], cold[1])


class TestJumpPoints:
    def test_diagonal_pairs_give_the_distinct_finite_ratios(self):
        rng = rng_from(91)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            p, q = _probs(rng, d), _probs(rng, d)
            q[rng.random(d) < 0.3] = 0.0  # q_i = 0: no finite jump
            if d > 2:
                p[1], q[1] = p[0], q[0]  # a repeated ratio counts once
            expected = np.unique(p[q > 0] / q[q > 0])
            jumps = _jump_points(np.diag(p), np.diag(q))
            assert jumps.shape == expected.shape
            np.testing.assert_allclose(jumps, expected, rtol=1e-12, atol=0)

    def test_full_rank_pair_matches_generalized_eigenvalues(self):
        # states mixed with I/d keep scipy's Cholesky route accurate at the
        # small end (on a near-singular r it can be off by 1e-8 relative)
        rng = rng_from(92)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            r, s = (0.8 * random_density(d, rng).a + 0.2 * np.eye(d) / d for _ in "rs")
            expected = np.sort(scipy.linalg.eigh(r, s, eigvals_only=True))
            np.testing.assert_allclose(_jump_points(r, s), expected, rtol=1e-10, atol=0)

    def test_orthogonal_supports_give_no_finite_jump(self):
        """Every direction lies outside supp r or supp s: the list is empty,
        plain and Haar-rotated."""
        rng = rng_from(94)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            k = int(rng.integers(1, d))
            p, q = np.zeros(d), np.zeros(d)
            p[:k], q[k:] = _probs(rng, k), _probs(rng, d - k)
            both = (p > 0) & (q > 0)
            expected = np.unique(p[both] / q[both])
            u = haar_unitary(d, rng)
            for r, s in ((np.diag(p), np.diag(q)), ((u * p) @ u.conj().T, (u * q) @ u.conj().T)):
                jumps = _jump_points(r, s)
                assert jumps.shape == expected.shape == (0,)

    def test_equal_states_jump_once_at_one(self):
        """r = s jumps only at t = 1, once however many directions share it:
        states uniform on a coordinate support (every ratio rounds alike)
        and Haar-rotated pure states."""
        rng = rng_from(95)
        for _ in range(20):
            d = int(rng.integers(1, 7))
            p = np.zeros(d)
            p[rng.permutation(d)[: int(rng.integers(1, d + 1))]] = 1.0
            p /= p.sum()
            v = haar_unitary(d, rng)[:, 0]
            expected = np.unique(p[p > 0] / p[p > 0])
            for r in (np.diag(p), np.outer(v, v.conj())):
                jumps = _jump_points(r, r)
                assert jumps.shape == expected.shape == (1,)
                np.testing.assert_allclose(jumps, expected, rtol=1e-14, atol=0)


# ---------------------------------------------------------------------------
# divergences minimized over one register
# ---------------------------------------------------------------------------

class TestIH:
    def test_product_state_collapses_to_epsilon_term(self):
        rng = rng_from(51)
        rho_a = random_density(2, rng, layout=RegisterLayout.of("a:2"))
        rho_b = random_density(2, rng, layout=RegisterLayout.of("b:2"))
        rho = tensor_product(rho_a, rho_b)
        for eps in (0.1, 0.3):
            value, test = i_h(rho, eps)
            assert abs(value - (-math.log2(1.0 - eps))) <= 1e-6
            assert test.certificate_gap_bits <= 1e-6

    def test_maximally_entangled_value(self):
        phi = maximally_entangled(2).density()
        for eps in (0.05, 0.1, 0.25):
            value, test = i_h(phi, eps)
            assert abs(value - (2.0 - math.log2(1.0 - eps))) <= 1e-6
            assert test.type1_error <= eps + 1e-9
            assert test.certificate_gap_bits <= 1e-6

    def test_certified_uniform_bound(self):
        """The returned test must satisfy its advertised Type-2 bound for
        arbitrary states on the minimized register, not just the optimizer."""
        rng = rng_from(52)
        rho = random_density(4, rng, layout=_qubit_layout())
        value, test = i_h(rho, 0.2)
        rho_b = rho.marginal({"b"}).a
        bound = 2.0 ** (-value)
        for _ in range(50):
            sigma = random_density(2, rng).a
            overlap = float(np.trace(test.a @ np.kron(sigma, rho_b)).real)
            assert overlap <= bound * (1.0 + 1e-9) + 1e-15

    def test_upper_bounded_by_unminimized_divergence(self):
        rng = rng_from(53)
        for _ in range(5):
            rho = random_density(4, rng, layout=_qubit_layout())
            prod = np.kron(rho.marginal({"a"}).a, rho.marginal({"b"}).a)
            dh, _ = hypothesis_test_divergence(rho.a, prod, 0.2)
            value, _ = i_h(rho, 0.2)
            assert value <= dh + 1e-9

    def test_matches_bloch_grid_oracle(self):
        rng = rng_from(54)
        rho = random_density(4, rng, rank=2, layout=_qubit_layout())
        value, _ = i_h(rho, 0.2)
        grid_value, _ = min_dh_over_bloch_grid(rho, 0.2)
        assert grid_value >= value - 2e-9  # grid scans a subset of states
        assert grid_value - value <= 5e-4

    def test_monotone_in_epsilon(self):
        rng = rng_from(55)
        rho = random_density(4, rng, layout=_qubit_layout())
        v1, _ = i_h(rho, 0.1)
        v2, _ = i_h(rho, 0.25)
        assert v2 >= v1 - 1e-9

    def test_rejects_non_bipartite_layout(self):
        rho = random_density(8, rng_from(56), layout=RegisterLayout.of("a:2 b:2 c:2"))
        with pytest.raises(LayoutError):
            i_h(rho, 0.2)


class TestIHRelations:
    """Relations ``i_h`` meets today: exact on classical inputs at the upper
    end of its bracket, and order-free across members."""

    def test_classical_bracket_against_the_lp(self):
        """On diagonal states I_H is ``classical_i_h``'s LP: the bracket's
        upper end (value + gap) matches it, and its lower end is not above."""
        rng = rng_from(5)
        layout = RegisterLayout.of("a:2 b:2")
        for _ in range(40):
            p = rng.dirichlet(np.ones(4)).reshape(2, 2)
            rho = DensityMatrix(ComplexMatrix(np.diag(p.ravel())), layout)
            value, test = i_h(rho, 0.2, gap_tol=1e-9)
            exact = classical_i_h(p, 0.2)
            assert abs(value + test.certificate_gap_bits - exact) <= 1e-10
            assert value <= exact + 1e-12

    def test_i_h_min_is_bitwise_order_free(self):
        layout = RegisterLayout.of("a:2 b:2")
        for seed in range(300, 304):
            rng = rng_from(seed)
            states = [random_density(4, rng, layout=layout) for _ in range(3)]
            values = {
                i_h_min([states[k] for k in order], 0.2)[0]
                for order in itertools.permutations(range(3))
            }
            assert len(values) == 1


class TestIHTilde:
    def test_singleton_reduces_to_plain_divergence(self):
        rng = rng_from(61)
        rho = random_density(4, rng, layout=_qubit_layout())
        rho_a = rho.marginal({"a"})
        rho_b = rho.marginal({"b"})
        restricted = StateEnsemble((rho_a,))
        value, test = i_h_tilde(rho, rho_b, restricted, 0.2)
        direct, _ = hypothesis_test_divergence(rho.a, np.kron(rho_a.a, rho_b.a), 0.2)
        assert abs(value - direct) <= 1e-9
        assert test.certificate_gap_bits <= 1e-9

    def test_maximally_entangled_over_basis_states(self):
        lay = RegisterLayout.of("s:2")
        ens = StateEnsemble(
            (
                DensityMatrix.of(np.diag([1.0, 0.0]), lay),
                DensityMatrix.of(np.diag([0.0, 1.0]), lay),
            )
        )
        phi = maximally_entangled(2).density()
        flat = DensityMatrix.of(np.eye(2) / 2, lay)
        eps = 0.25
        value, test = i_h_tilde(phi, flat, ens, eps)
        assert abs(value - (2.0 - math.log2(1.0 - eps))) <= 1e-9
        # the certificate is uniform over the whole restricted set
        bound = 2.0 ** (-value)
        for w in np.linspace(0.0, 1.0, 11):
            sigma = ens.mix([w, 1.0 - w])
            overlap = float(np.trace(test.a @ np.kron(sigma, flat.a)).real)
            assert overlap <= bound + 1e-12

    def test_restriction_cannot_decrease_value(self):
        rng = rng_from(62)
        rho = random_density(4, rng, layout=_qubit_layout())
        rho_b = rho.marginal({"b"})
        ens = StateEnsemble(
            (
                random_density(2, rng, layout=RegisterLayout.of("s:2")),
                random_density(2, rng, layout=RegisterLayout.of("s:2")),
            )
        )
        unrestricted, _ = i_h(rho, 0.2)
        restricted, _ = i_h_tilde(rho, rho_b, ens, 0.2)
        assert restricted >= unrestricted - 1e-6


class TestIHHat:
    def test_singletons_reduce_to_tilde(self):
        rng = rng_from(71)
        rho = random_density(4, rng, layout=_qubit_layout())
        s_a = StateEnsemble((random_density(2, rng, layout=RegisterLayout.of("s:2")),))
        s_b = StateEnsemble((random_density(2, rng, layout=RegisterLayout.of("t:2")),))
        hat, _ = i_h_hat(rho, s_a, s_b, 0.2)
        tilde, _ = i_h_tilde(rho, s_b.vertices[0], s_a, 0.2)
        assert abs(hat - tilde) <= 1e-12

    def test_matches_weight_grid_oracle(self):
        rng = rng_from(72)
        rho = random_density(4, rng, layout=_qubit_layout())
        mk = lambda lbl: random_density(2, rng, layout=RegisterLayout.of(lbl))
        s_a = StateEnsemble((mk("s:2"), mk("s:2")))
        s_b = StateEnsemble((mk("t:2"), mk("t:2")))
        hat, _ = i_h_hat(rho, s_a, s_b, 0.2)
        oracle = min_dh_over_weight_grids(rho, s_a, s_b, 0.2, step=0.05)
        assert oracle >= hat - 1e-6  # the oracle scans a subset of mixtures
        assert oracle - hat <= 5e-3

    def test_two_vertex_scan_validates_only_its_mixtures(self, monkeypatch):
        """One validated sigma_B per scanned weight, 51 on the grid and 27 in
        the golden-section polish, and no marginal of rho."""
        from qoneshot import qcore

        rng = rng_from(74)
        rho = random_density(4, rng, layout=_qubit_layout())
        mk = lambda lbl: random_density(2, rng, layout=RegisterLayout.of(lbl))
        s_a = StateEnsemble((mk("s:2"), mk("s:2")))
        s_b = StateEnsemble((mk("t:2"), mk("t:2")))
        checked = []
        check = qcore._check_states
        monkeypatch.setattr(qcore, "_check_states", lambda a: checked.append(a.shape) or check(a))
        i_h_hat(rho, s_a, s_b, 0.2)
        assert len(checked) == 78

    @pytest.mark.parametrize("k", [3, 4])
    def test_lattice_order_matches_recursive_enumeration(self, k, monkeypatch):
        """Three or more vertices are scanned on the step-1/10 lattice in the
        reference's order, and the first of equal values wins."""
        from qoneshot import divergences

        seen = []

        class Recording(StateEnsemble):
            def mix(self, weights):
                seen.append(np.asarray(weights))
                return super().mix(weights)

        monkeypatch.setattr(divergences, "i_h_tilde", lambda *args: (0.0, len(seen)))
        rng = rng_from(73)
        rho = random_density(4, rng, layout=_qubit_layout())
        s_a = StateEnsemble((random_density(2, rng, layout=RegisterLayout.of("s:2")),))
        s_b = Recording(tuple(random_density(2, rng, layout=RegisterLayout.of("t:2"))
                              for _ in range(k)))
        assert i_h_hat(rho, s_a, s_b, 0.2) == (0.0, 1)
        want = simplex_lattice(k, 10)
        assert [w.tobytes() for w in seen] == [w.tobytes() for w in want]


# ---------------------------------------------------------------------------
# result plumbing
# ---------------------------------------------------------------------------

class TestResultTypes:
    def test_test_operator_validation(self):
        with pytest.raises(ValueError):
            TestOperator(ComplexMatrix(np.array([[0.0, 1.0], [0.0, 0.0]])), 0.1, 0.5)
        for bad in (np.diag([1.5, 0.0]), np.diag([math.nan, 0.0])):
            with pytest.raises(ValueError):
                TestOperator(ComplexMatrix(bad), 0.1, 0.5)

    def test_ensemble_validation_and_mixing(self):
        lay = RegisterLayout.of("s:2")
        v1 = DensityMatrix.of(np.diag([1.0, 0.0]), lay)
        v2 = DensityMatrix.of(np.diag([0.0, 1.0]), lay)
        ens = StateEnsemble((v1, v2))
        np.testing.assert_allclose(ens.mix([0.25, 0.75]), np.diag([0.25, 0.75]))
        np.testing.assert_allclose(ens.mix([1.0, 3.0]), np.diag([0.25, 0.75]))
        with pytest.raises(ValueError):
            StateEnsemble(())
        with pytest.raises(LayoutError):
            StateEnsemble((v1, random_density(3, rng_from(0), layout=RegisterLayout.of("u:3"))))
        with pytest.raises(ValueError):
            ens.mix([0.5])
        # non-finite weights and weights with no positive mass
        for bad in ([math.nan, 1.0], [math.inf, 1.0], [-math.inf, 1.0], [0.0, 0.0],
                    [-1e-13, 0.0]):
            with pytest.raises(ValueError):
                ens.mix(bad)

    def test_certified_takes_the_worst_null(self):
        m = np.diag([1.0, 0.5])
        nulls = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2) / 2]
        value, test = _certified(m, nulls, 0.25, 0.125, 7, threshold=3.0)
        assert value == 2.0
        assert test.type1_error == 0.5
        assert test.type2_bound == 0.25
        assert test.certificate_gap_bits == 1.0
        assert test.iterations == 7 and test.threshold == 3.0

    def test_traces_match_the_trace_of_each_product(self):
        rng = rng_from(82)
        for d, k in ((2, 1), (4, 3), (6, 4)):
            m = random_density(d, rng).a
            ops = [random_density(d, rng).a for _ in range(k)]
            want = [float(np.trace(m @ x).real) for x in ops]
            for got in (_traces(m, ops), _traces(m, np.stack(ops))):
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-16)

    def test_certified_gap_rule(self):
        m = np.diag([1.0, 0.0])
        null = [np.diag([1.0, 0.0])]
        # both ends infinite: closed
        assert _certified(m, null, 0.0, 0.0, 1)[1].certificate_gap_bits == 0.0
        # only the dual end infinite: open without bound
        value, test = _certified(m, null, 0.5, 0.0, 1)
        assert value == 1.0 and test.certificate_gap_bits == math.inf
        # a dual end below the value is clipped
        assert _certified(m, null, 0.25, 0.5, 1)[1].certificate_gap_bits == 0.0
        assert _certified(m, null, 0.5, 0.5, 1)[1].certificate_gap_bits == 0.0

    def test_bloch_density_matches_expected_parametrization(self):
        np.testing.assert_allclose(bloch_density(0, 0, 1), np.diag([1.0, 0.0]))
        np.testing.assert_allclose(
            bloch_density(1, 0, 0), np.array([[0.5, 0.5], [0.5, 0.5]])
        )
        rho = bloch_density(0.3, -0.4, 0.5)
        assert float(np.trace(rho).real) == pytest.approx(1.0)
        assert float(np.linalg.eigvalsh(rho)[0]) >= 0.0
