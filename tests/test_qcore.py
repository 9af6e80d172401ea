"""Structural tests for states, layouts, channels, and their operations.

Derived expectations are checked against independent oracles: direct
multiplication for tensor products, the defining trace identity for partial
traces, and scipy's matrix square root for fidelities.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from oracles import (gaussian_states_by_state, purified_distance, random_hermitian, slow_embed,
                     tensor_product)
from qoneshot import qcore
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
    _apply,
    _arrange,
    apply_channel,
    content_hash,
    maximally_entangled,
    partial_trace,
    pauli_channel_family,
    random_channel,
    random_density,
    random_projector,
    rng_from,
    spectral,
    whiten,
)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)


def qubit_layout(label):
    return RegisterLayout(((label, 2),))


def dm(entries, layout):
    return DensityMatrix.of(entries, layout)


# ---------------------------------------------------------------------------
# layouts
# ---------------------------------------------------------------------------

def test_layout_parse_and_header_round_trip():
    lay = RegisterLayout.of("a:2 b:3 c:4")
    assert lay.labels == ("a", "b", "c")
    assert lay.dims == (2, 3, 4)
    assert lay.dim == 24
    assert RegisterLayout.of(lay.header()) == lay


def test_layout_rejects_duplicates_and_bad_dims():
    with pytest.raises(LayoutError):
        RegisterLayout.of("a:2 a:3")
    with pytest.raises(LayoutError):
        RegisterLayout((("a", 0),))
    with pytest.raises(LayoutError):
        RegisterLayout.of("a:2").position("zz")


def test_layout_capacity_cap():
    with pytest.raises(CapacityError, match="total layout dimension 8192 exceeds the cap 4096"):
        RegisterLayout.of("a:4096 b:2")
    with pytest.raises(CapacityError):
        # 2^64 qubit dimensions: an int64 product would wrap to 0
        RegisterLayout.of(" ".join(f"q{i}:2" for i in range(64)))
    # exactly at the cap is fine
    assert RegisterLayout.of("a:4096").dim == 4096


# ---------------------------------------------------------------------------
# type invariants
# ---------------------------------------------------------------------------

def test_density_matrix_rejects_bad_trace_and_negativity():
    """One check serves DensityMatrix and stacks: the same message for a
    bad matrix alone and for the same matrix after a good one."""
    good = np.eye(2) / 2
    for bad, message in (
        (np.array([[0.5, 0.5], [0.1, 0.5]]), "density matrix is not Hermitian within tolerance"),
        (np.diag([0.7, 0.7]), "density matrix trace (1.4+0j) != 1"),
        (np.diag([1.2, -0.2]), "density matrix has negative eigenvalue -0.2"),
    ):
        with pytest.raises(ValueError) as single:
            dm(bad, qubit_layout("a"))
        with pytest.raises(ValueError) as stacked:
            qcore._check_states(np.stack([good, bad]).astype(complex))
        assert str(single.value) == str(stacked.value) == message
    qcore._check_states(np.stack([good, np.diag([1.0, 0.0])]).astype(complex))


def test_projector_rejects_non_idempotent():
    with pytest.raises(ValueError):
        Projector.of(np.diag([0.5, 0.5]))
    # a NaN entry fails the check as an error beyond the tolerance does
    with pytest.raises(ValueError, match="not Hermitian"):
        Projector.of(np.diag([np.nan, 0.0]))
    p = Projector.of(np.diag([1.0, 0.0]))
    assert p.rank == 1


def test_as_array_reads_every_matrix_carrying_type():
    from qoneshot.composite import UniversalTest
    from qoneshot.divergences import TestOperator

    m = ComplexMatrix(np.diag([0.75, 0.25]))
    tests = (TestOperator(m, 0.0, 1.0), UniversalTest(m, 0.0, 1.0, floor_bits=1.0))
    for x in (m, dm(m.a, qubit_layout("a")), Projector.of(np.diag([1.0, 0.0])), *tests):
        assert qcore.as_array(x) is x.a
    psi = maximally_entangled(2)
    assert qcore.as_array(psi) is psi.vector
    with pytest.raises(TypeError):
        qcore.as_array([[1.0, 0.0], [0.0, 1.0]])


def test_pure_state_norm_check():
    for v in ([1.0, 1.0], [np.nan, 0.0]):
        with pytest.raises(ValueError):
            PureState(np.array(v), qubit_layout("a"))


def test_channel_completeness_check():
    lay = qubit_layout("a")
    for k in (np.eye(2) * 0.5, np.diag([np.nan, 1.0])):
        with pytest.raises(ValueError):
            Channel((k,), lay, qubit_layout("b"))
    ch = Channel((np.eye(2),), lay, qubit_layout("b"))
    assert ch.dim_in == ch.dim_out == 2


def test_matrix_capacity_error():
    with pytest.raises(CapacityError):
        ComplexMatrix(np.zeros((5000, 5000)))


def test_random_density_passes_own_invariants():
    for seed in range(5):
        rho = random_density(6, seed)
        w = np.linalg.eigvalsh(rho.a)
        assert w.min() >= -ATOL
        assert abs(np.trace(rho.a).real - 1) <= ATOL


@pytest.mark.parametrize("dim", [2, 3, 4, 7, 16, 33, 64])
def test_stacked_states_equal_per_state_draws(dim):
    for rank in sorted({1, 2, dim}):
        want = gaussian_states_by_state(dim, 6, dim + rank, rank)
        got = qcore._gaussian_states(dim, 6, dim + rank, rank)
        assert got.tobytes() == want.tobytes()
        first = random_density(dim, rng_from(dim + rank), rank=rank).a
        assert first.tobytes() == want[0].tobytes()


# ---------------------------------------------------------------------------
# tensor product
# ---------------------------------------------------------------------------

def test_tensor_identities():
    lay_a, lay_b = qubit_layout("a"), qubit_layout("b")
    ia = dm(np.eye(2) / 2, lay_a)
    ib = dm(np.eye(2) / 2, lay_b)
    out = tensor_product(ia, ib)
    np.testing.assert_allclose(out.a, np.eye(4) / 4, atol=1e-15)
    assert out.layout.header() == "a:2 b:2"


def test_tensor_basis_bookkeeping():
    p0 = dm(np.outer(KET0, KET0), qubit_layout("a"))
    p1 = dm(np.outer(KET1, KET1), qubit_layout("b"))
    out = tensor_product(p0, p1)
    np.testing.assert_allclose(out.a, np.diag([0, 1, 0, 0]), atol=1e-15)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_tensor_times_vector_factorizes(seed):
    # oracle: (A (x) B)(u (x) v) must equal Au (x) Bv
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    u = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    big = tensor_product(ComplexMatrix(a), ComplexMatrix(b)).a
    np.testing.assert_allclose(big @ np.kron(u, v), np.kron(a @ u, b @ v), atol=1e-12)


def test_tensor_associative_up_to_relabeling():
    rhos = [random_density(2, s, layout=qubit_layout(l)) for s, l in zip(range(3), "abc")]
    left = tensor_product(tensor_product(rhos[0], rhos[1]), rhos[2])
    right = tensor_product(rhos[0], tensor_product(rhos[1], rhos[2]))
    assert np.max(np.abs(left.a - right.a)) <= ATOL
    assert left.layout == right.layout


def test_tensor_rejects_label_collision():
    r = random_density(2, 0, layout=qubit_layout("a"))
    with pytest.raises(LayoutError):
        tensor_product(r, r)


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------

def test_partial_trace_maximally_entangled_marginal():
    phi = maximally_entangled(2).density()
    np.testing.assert_allclose(partial_trace(phi, {"a"}).a, np.eye(2) / 2, atol=1e-12)
    np.testing.assert_allclose(partial_trace(phi, {"b"}).a, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_state():
    rho = random_density(2, 11, layout=qubit_layout("a"))
    sig = random_density(3, 12, layout=RegisterLayout.of("b:3"))
    joint = tensor_product(rho, sig)
    np.testing.assert_allclose(partial_trace(joint, {"a"}).a, rho.a, atol=1e-12)
    np.testing.assert_allclose(partial_trace(joint, {"b"}).a, sig.a, atol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_partial_trace_defining_identity(seed):
    # oracle: Tr[Tr_b(rho) X] = Tr[rho (X (x) I)] for random Hermitian X
    rng = np.random.default_rng(seed)
    rho = random_density(4, rng, layout=RegisterLayout.of("a:2 b:2"))
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    x = (g + g.conj().T) / 2
    lhs = np.trace(partial_trace(rho, {"a"}).a @ x)
    rhs = np.trace(rho.a @ np.kron(x, np.eye(2)))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_partial_trace_order_independent():
    rho = random_density(8, 5, layout=RegisterLayout.of("a:2 b:2 c:2"))
    one_shot = partial_trace(rho, {"c"})
    staged = partial_trace(partial_trace(rho, {"b", "c"}), {"c"})
    assert np.max(np.abs(one_shot.a - staged.a)) <= ATOL
    # kept labels always come back in layout order, however requested
    assert partial_trace(rho, ["c", "a"]).layout.labels == ("a", "c")


def test_partial_trace_unknown_label():
    rho = random_density(4, 3, layout=RegisterLayout.of("a:2 b:2"))
    with pytest.raises(LayoutError):
        partial_trace(rho, {"nope"})


# ---------------------------------------------------------------------------
# operator placement on registers
# ---------------------------------------------------------------------------

class TestOperatorAssembly:
    def test_arrange_matches_permuted_kron(self):
        x = np.arange(9.0).reshape(3, 3)
        y = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = _arrange([(x, [1]), (y, [0])], [2, 3])
        assert np.allclose(out, np.kron(y, x))

    # (targets, out_dims, dest); the last maps registers 3, 1 onto three
    # new registers at positions 1, 2, 4 of a five-register result
    CASES = (([0, 2], None, None), ([1, 3], None, None), ([3, 1], None, None),
             ([2, 0], None, None), ([3, 1], [3, 2, 2], [1, 2, 4]))

    def test_apply_to_identity_matches_index_loop(self):
        rng = rng_from(31)
        dims = [2, 3, 2, 2]
        for targets, out_dims, dest in self.CASES:
            d = math.prod(dims[t] for t in targets)
            d_out = d if out_dims is None else math.prod(out_dims)
            op = rng.normal(size=(d_out, d)) + 1j * rng.normal(size=(d_out, d))
            fast = _apply(op, np.eye(math.prod(dims)), dims, targets, out_dims, dest)
            slow = slow_embed(op, dims, targets, out_dims, dest)
            assert fast.shape == slow.shape
            assert np.max(np.abs(fast - slow)) < 1e-13

    def test_apply_matches_index_loop_product(self):
        rng = rng_from(32)
        dims = [2, 3, 2, 2]
        for targets, out_dims, dest in self.CASES:
            d = math.prod(dims[t] for t in targets)
            d_out = d if out_dims is None else math.prod(out_dims)
            op = rng.normal(size=(d_out, d)) + 1j * rng.normal(size=(d_out, d))
            x = rng.normal(size=(math.prod(dims), 5)) + 1j * rng.normal(size=(math.prod(dims), 5))
            fast = _apply(op, x, dims, targets, out_dims, dest)
            slow = slow_embed(op, dims, targets, out_dims, dest) @ x
            assert fast.shape == (len(slow), x.shape[1])
            assert np.max(np.abs(fast - slow)) < 1e-12

    def test_arrange_requires_full_cover(self):
        with pytest.raises(ValueError, match="cover"):
            _arrange([(np.eye(2), [0])], [2, 2])


# ---------------------------------------------------------------------------
# eigendecomposition
# ---------------------------------------------------------------------------

def _with_spectrum(rng, w):
    """U diag(w) U^dag for a Haar U, and U: a matrix of known eigensystem."""
    u = qcore.haar_unitary(len(w), rng)
    return (u * w) @ u.conj().T, u


def test_spectral_matches_known_eigensystem():
    """spectral(a, f, cutoff) is U f(w) U^dag with f(w) set to zero at or
    below the cutoff, on matrices built from a known eigensystem.  With
    cutoff 0 the square root sees the kernel's rounding noise (about 1e-16)
    as eigenvalues, so it is exact only to the root of that noise."""
    rng = np.random.default_rng(41)
    cases = (
        (np.sqrt, 0.0, 1e-7),
        (lambda w: 1.0 / np.sqrt(w), 1e-12, 1e-12),
        (np.log2, 1e-12, 1e-12),
        (lambda w: w * w, 0.01, 1e-12),
    )
    for _ in range(40):
        d = int(rng.integers(2, 9))
        w = rng.random(d) + 0.05  # every support eigenvalue clears the cutoffs
        w[rng.random(d) < 0.3] = 0.0  # kernel
        w[0] = -1e-15  # negative rounding noise on a PSD matrix
        a, u = _with_spectrum(rng, w)
        for f, cutoff, atol in cases:
            fw = np.zeros(d)
            fw[w > cutoff] = f(w[w > cutoff])
            expect = (u * fw) @ u.conj().T
            np.testing.assert_allclose(spectral(a, f, cutoff), expect, rtol=0, atol=atol)


def test_whiten_splits_support_and_kernel():
    """W^dag a W = I on the eigenvalues above cutoff times the largest, the
    kernel columns are orthonormal and complete the basis, and the kernel
    is the same for every positive multiple of a."""
    rng = np.random.default_rng(42)
    for _ in range(40):
        d = int(rng.integers(2, 9))
        w = rng.random(d) + 0.05
        small = rng.random(d) < 0.4
        small[0] = False  # keep one eigenvalue above the cut
        w[small] = 1e-14 * np.max(w) * rng.random(int(small.sum()))
        a, u = _with_spectrum(rng, w)
        white, ker = whiten(a, 1e-12)
        assert white.shape == (d, int(np.sum(~small))) and ker.shape == (d, int(small.sum()))
        np.testing.assert_allclose(white.conj().T @ a @ white, np.eye(white.shape[1]), atol=1e-10)
        np.testing.assert_allclose(ker.conj().T @ ker, np.eye(ker.shape[1]), atol=1e-12)
        np.testing.assert_allclose(ker.conj().T @ white, 0.0, atol=1e-12)
        kernel = ker @ ker.conj().T
        np.testing.assert_allclose(kernel, (u[:, small]) @ u[:, small].conj().T, atol=1e-10)
        for c in (1e-9, 0.37, 5.0, 1e9):
            scaled = whiten(c * a, 1e-12)[1]
            assert scaled.shape == ker.shape
            np.testing.assert_allclose(scaled @ scaled.conj().T, kernel, atol=1e-10)


def test_whiten_of_zero_is_all_kernel():
    white, ker = whiten(np.zeros((3, 3)), 1e-12)
    assert white.shape == (3, 0)
    np.testing.assert_allclose(ker @ ker.conj().T, np.eye(3), atol=1e-15)


class TestEigensolverEntry:
    """``_eigh``/``_eigvalsh`` call numpy's private LAPACK gufunc directly;
    a numpy that changes that kernel must fail here, not move a record."""

    @staticmethod
    def _cases():
        rng = rng_from(43)
        for d in range(1, 129):
            g = rng.normal(size=(d, d))
            yield g + g.T
            g = g + 1j * rng.normal(size=(d, d))
            yield g + g.conj().T
        g = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        yield g + g.conj().swapaxes(-1, -2)

    def test_bitwise_equal_to_numpy(self):
        for a in self._cases():
            w, v = qcore._eigh(a)
            want_w, want_v = np.linalg.eigh(a)
            for got, want in ((w, want_w), (v, want_v), (qcore._eigvalsh(a), np.linalg.eigvalsh(a))):
                assert got.dtype == want.dtype and got.shape == want.shape, a.shape
                assert got.flags.c_contiguous and want.flags.c_contiguous, a.shape
                assert got.tobytes() == want.tobytes(), a.shape

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_nan_in_the_lower_triangle_raises(self):
        """At d <= 2 LAPACK passes the NaN through and ``np.linalg.eigh``
        returns NaN eigenvalues; at d = 4 LAPACK fails.  Both raise here."""
        rng = rng_from(44)
        for d in (1, 2, 4):
            for dtype in (float, complex):
                for i, j in zip(*np.tril_indices(d)):
                    a = np.eye(d, dtype=dtype) + 0.1 * rng.random((d, d))
                    a[i, j] = np.nan
                    for solve in (qcore._eigh, qcore._eigvalsh):
                        with pytest.raises(np.linalg.LinAlgError):
                            solve(a)


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

def test_identity_channel_is_identity():
    ch = Channel((np.eye(2),), qubit_layout("a"), qubit_layout("b"))
    rho = random_density(2, 7, layout=qubit_layout("a"))
    out = apply_channel(ch, rho)
    np.testing.assert_allclose(out.a, rho.a, atol=1e-12)
    assert out.layout.labels == ("b",)


def test_fully_depolarizing_channel():
    ks = tuple(0.5 * p for p in qcore.PAULIS)
    ch = Channel(ks, qubit_layout("a"), qubit_layout("b"))
    out = apply_channel(ch, dm(np.outer(KET0, KET0), qubit_layout("a")))
    np.testing.assert_allclose(out.a, np.eye(2) / 2, atol=1e-12)


def test_pauli_x_on_half_of_entangled_pair():
    phi = maximally_entangled(2).density()
    ch = qcore.unitary_channel(qcore.PAULI_X, qubit_layout("a"), qubit_layout("o"))
    out = apply_channel(ch, phi, targets=["a"])
    big = np.kron(qcore.PAULI_X, np.eye(2))
    np.testing.assert_allclose(out.a, big @ phi.a @ big.conj().T, atol=1e-12)
    assert out.layout.labels == ("o", "b")


def test_channel_on_middle_register_keeps_order():
    rhos = [random_density(2, s, layout=qubit_layout(l)) for s, l in zip(range(3), "abc")]
    joint = tensor_product(tensor_product(rhos[0], rhos[1]), rhos[2])
    ch = qcore.unitary_channel(qcore.PAULI_Z, qubit_layout("b"), qubit_layout("m"))
    out = apply_channel(ch, joint, targets=["b"])
    assert out.layout.labels == ("a", "m", "c")
    expect = np.kron(rhos[0].a, np.kron(qcore.PAULI_Z @ rhos[1].a @ qcore.PAULI_Z, rhos[2].a))
    np.testing.assert_allclose(out.a, expect, atol=1e-12)


def test_channel_trace_and_positivity_bulk():
    # 1000 random (channel, state) pairs at dims <= 8
    rng = np.random.default_rng(99)
    for _ in range(1000):
        din = int(rng.integers(2, 9))
        dout = int(rng.integers(2, 9))
        nk = int(rng.integers(-(-din // dout), 4 + din // dout))
        ch = random_channel(
            RegisterLayout((("a", din),)), RegisterLayout((("b", dout),)), nk, rng
        )
        rho = random_density(din, rng, layout=RegisterLayout((("a", din),)))
        out = apply_channel(ch, rho)  # construction re-validates PSD + trace
        assert abs(np.trace(out.a).real - 1) <= ATOL


def test_channel_rectangular_on_reversed_targets(monkeypatch):
    """Two targets given out of layout order, mapped onto one wider output
    register beside an untouched one, against an index-loop oracle; the
    result is the only state validated."""
    ch = random_channel(RegisterLayout.of("p:2 q:2"), RegisterLayout.of("y:3"), 2, rng_from(61))
    rho = random_density(12, 62, layout=RegisterLayout.of("a:2 b:3 c:2"))
    checked = []
    check = qcore._check_states
    monkeypatch.setattr(qcore, "_check_states", lambda a: checked.append(a.shape) or check(a))
    out = apply_channel(ch, rho, targets=["c", "a"])
    assert out.layout.header() == "b:3 y:3"
    assert checked == [(9, 9)]
    embed = [slow_embed(k, [2, 3, 2], [2, 0], [3], [1]) for k in ch.kraus]
    expect = sum(e @ rho.a @ e.conj().T for e in embed)
    assert np.max(np.abs(out.a - expect)) < 1e-12


def test_channel_register_mismatch():
    ch = Channel((np.eye(2),), qubit_layout("a"), qubit_layout("b"))
    rho = random_density(3, 0, layout=RegisterLayout.of("a:3"))
    with pytest.raises(LayoutError):
        apply_channel(ch, rho)
    # a repeated target, an unknown target, and an output label in use
    pair = random_density(4, 0, layout=RegisterLayout.of("a:2 b:2"))
    wide = Channel((np.eye(4),), RegisterLayout.of("p:2 q:2"), RegisterLayout.of("y:4"))
    for channel, targets in ((wide, ["a", "a"]), (ch, ["zz"]), (ch, ["a"])):
        with pytest.raises(LayoutError):
            apply_channel(channel, pair, targets)


# ---------------------------------------------------------------------------
# fidelity / purified distance
# ---------------------------------------------------------------------------

def test_purified_distance_extremes():
    rho = random_density(4, 13)
    assert purified_distance(rho, rho) <= 1e-7
    p0 = np.outer(KET0, KET0)
    p1 = np.outer(KET1, KET1)
    assert purified_distance(p0, p1) == pytest.approx(1.0, abs=1e-12)


def test_purified_distance_against_sqrtm_oracle():
    # independent route: F = Tr sqrt(sqrt(rho) sigma sqrt(rho)) via scipy.linalg.sqrtm
    rng = np.random.default_rng(31)
    for _ in range(10):
        rho = random_density(2, rng).a
        sig = random_density(2, rng).a
        sr = scipy.linalg.sqrtm(rho)
        f = np.trace(scipy.linalg.sqrtm(sr @ sig @ sr)).real
        expect = np.sqrt(max(0.0, 1.0 - f * f))
        assert purified_distance(rho, sig) == pytest.approx(expect, abs=1e-8)
        assert purified_distance(rho, sig) == pytest.approx(purified_distance(sig, rho), abs=1e-12)


# ---------------------------------------------------------------------------
# standard states and families
# ---------------------------------------------------------------------------

def test_maximally_entangled_amplitudes_and_marginals():
    phi = maximally_entangled(2)
    np.testing.assert_allclose(phi.vector, np.array([1, 0, 0, 1]) / np.sqrt(2))
    np.testing.assert_allclose(partial_trace(phi.density(), {"a"}).a, np.eye(2) / 2, atol=1e-12)
    phi4 = maximally_entangled(4)
    np.testing.assert_allclose(partial_trace(phi4.density(), {"b"}).a, np.eye(4) / 4, atol=1e-12)
    with pytest.raises(ValueError):
        maximally_entangled(1)


def test_pauli_family_counts_and_average():
    fam = pauli_channel_family(1)
    assert len(fam) == 4
    assert len(pauli_channel_family(2)) == 16
    rho = random_density(2, 17, layout=qubit_layout("a"))
    avg = sum(apply_channel(ch, rho).a for ch in fam) / 4
    np.testing.assert_allclose(avg, np.eye(2) / 2, atol=1e-12)


def test_haar_unitary_seeded_and_unitary():
    u1 = qcore.haar_unitary(6, 123)
    u2 = qcore.haar_unitary(6, 123)
    np.testing.assert_array_equal(u1, u2)
    np.testing.assert_allclose(u1 @ u1.conj().T, np.eye(6), atol=1e-12)
    assert np.max(np.abs(u1 - qcore.haar_unitary(6, 124))) > 1e-3


def test_random_projector_valid():
    p = random_projector(6, 3, 5)
    assert p.rank == 3
    np.testing.assert_allclose(p.a @ p.a, p.a, atol=1e-12)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_matrix_file_round_trip_bit_exact(tmp_path):
    m = random_hermitian(5, 77)
    path = tmp_path / "m.txt"
    qcore.save_matrix(path, m)
    back = qcore.load_matrix(path)
    np.testing.assert_array_equal(back.a, m.a)


def test_state_file_round_trip_keeps_layout(tmp_path):
    rho = random_density(4, 78, layout=RegisterLayout.of("a:2 b:2"))
    path = tmp_path / "rho.txt"
    qcore.save_matrix(path, rho)
    back = qcore.load_state(path)
    np.testing.assert_array_equal(back.a, rho.a)
    assert back.layout == rho.layout
    # a whole-line and a trailing '#' comment leave the bytes as they are
    lines = path.read_text().splitlines()
    lines[1] += "  # two qubits"
    path.write_text("\n".join(["# a saved state", *lines]) + "\n")
    back = qcore.load_state(path)
    np.testing.assert_array_equal(back.a, rho.a)
    assert back.layout == rho.layout


def test_channel_file_round_trip(tmp_path):
    ch = random_channel(RegisterLayout.of("a:2"), RegisterLayout.of("b:3"), 2, 42)
    path = tmp_path / "ch.txt"
    qcore.save_channel(path, ch)
    plain = path.read_text()
    lines = plain.splitlines()
    lines[3] += " # first Kraus operator"
    commented = "\n".join(["# a saved channel", *lines]) + "\n"
    for text in (plain, commented):
        path.write_text(text)
        back = qcore.load_channel(path)
        assert len(back.kraus) == 2
        for k1, k2 in zip(back.kraus, ch.kraus):
            np.testing.assert_array_equal(k1, k2)
        assert back.in_layout == ch.in_layout and back.out_layout == ch.out_layout


def test_parse_errors_name_the_file_and_its_line(tmp_path):
    """Line numbers count blank and comment lines; a bad entry, a misspelled
    header and a bad layout each name ``path:line``, a layout error keeping
    its type."""
    cases = {
        "entry": ("dim 2\nlayout a:2\n1,0 0,0\n0,0 x\n", qcore.load_state,
                  ":4: expected an re,im entry, got 'x'"),
        "comment": ("dim 2\nlayout a:2\n1,0 0,0\n# the last row\n0,0 x\n", qcore.load_state,
                    ":5: expected an re,im entry, got 'x'"),
        "header": ("dim 2\nlayot a:2\n1,0 0,0\n0,0 0,0\n", qcore.load_state,
                   ":2: expected an re,im entry, got 'layot'"),
        "layout": ("dim 2\nlayout a:two\n1,0 0,0\n0,0 0,0\n", qcore.load_state,
                   ":2: invalid literal for int()"),
        "labels": ("dim 4\n\nlayout a:2 a:2\n", qcore.load_state,
                   ":3: duplicate register labels"),
        "blank_lines": ("\nchannel kraus 1\n\nin_layout a:2\nout_layout b:2\n\n\nkraus\n",
                        qcore.load_channel, ":8: expected 'kraus ...'"),
        "short": ("channel kraus 1\nin_layout a:2\n\n", qcore.load_channel,
                  ":3: expected 'out_layout ...'"),
    }
    for name, (text, load, message) in cases.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        with pytest.raises(LayoutError if name == "labels" else ValueError) as info:
            load(path)
        assert str(info.value).startswith(f"{path}:"), name
        assert message in str(info.value), name


def test_content_hash_distinguishes_states():
    a = random_density(2, 1)
    b = random_density(2, 2)
    assert content_hash(a) != content_hash(b)
    assert content_hash(a) == content_hash(random_density(2, 1))
