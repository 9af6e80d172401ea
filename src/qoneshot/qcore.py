"""Dense complex linear algebra and quantum state/channel primitives.

Operators live on explicitly tracked tensor-product registers: every state
carries a :class:`RegisterLayout` naming its factors, and structural
operations (partial trace, channel application on a register subset) keep
that bookkeeping consistent.  Every operator placed on named registers, in
any module, is placed by ``_apply`` or ``_arrange``.

All values are immutable after construction and all operations are pure
functions, so they are safe to share across threads.  Basis ordering is
lexicographic over the registers in layout order, i.e. the usual Kronecker
convention: for factors ``a:2 b:3`` the basis is ``|00>, |01>, |02>, |10>,
|11>, |12>``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import math
from typing import Iterable, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

#: absolute tolerance for structural checks (Hermiticity, traces, idempotence)
ATOL = 1e-9
#: largest total Hilbert-space dimension any operation will accept
DIM_CAP = 4096

PAULI_I = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
PAULIS = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)


class CapacityError(RuntimeError):
    """Raised when an operation would exceed the supported dimension cap."""


class LayoutError(ValueError):
    """Raised on unknown, duplicate, or mismatched register labels."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors (columns) of each
    Hermitian matrix of the ``(..., d, d)`` ndarray ``a``, read from its
    lower triangle in double precision.  This calls the LAPACK gufunc that
    ``np.linalg.eigh`` calls, so the result is bitwise that function's,
    without its per-call wrapping; every eigensolve in the package goes
    through here or ``_eigvalsh``.  Raises ``LinAlgError`` on a NaN entry
    and where LAPACK fails (numpy then also warns of an invalid value)."""
    w, v = _umath_linalg.eigh_lo(a, signature="D->dD" if a.dtype.kind == "c" else "d->dd")
    return _solved(a, w), v


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """The eigenvalues of ``_eigh``, without the eigenvectors."""
    w = _umath_linalg.eigvalsh_lo(a, signature="D->d" if a.dtype.kind == "c" else "d->d")
    return _solved(a, w)


def _solved(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    # a failed solve comes back all NaN; at d = 2 LAPACK turns a NaN on the
    # diagonal into finite eigenvalues, so the input is checked as well (its
    # sum of squared moduli is NaN when an entry is)
    norm2 = np.vdot(a, a)
    if norm2 != norm2 or math.isnan(sum(w.ravel().tolist())):
        raise np.linalg.LinAlgError("eigensolve of a matrix with a NaN entry, or no convergence")
    return w


def _hermitian_error(a: np.ndarray) -> np.ndarray:
    """``max |A - A^dag|`` of each matrix of a ``(..., d, d)`` stack."""
    return abs(a - a.swapaxes(-1, -2).conj()).max(axis=(-2, -1))


def as_array(x) -> np.ndarray:
    """Return the underlying ndarray of a matrix-like value: an ndarray
    itself, or the ``.a`` of any matrix-carrying type."""
    a = x if isinstance(x, np.ndarray) else getattr(x, "a", None)
    if not isinstance(a, np.ndarray):
        raise TypeError(f"cannot interpret {type(x).__name__} as an array")
    return a


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, eq=False)
class ComplexMatrix:
    """A dense square complex matrix in row-major order.

    Parameters
    ----------
    entries : array_like
        Square array; copied to complex128 and frozen.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries, dtype=np.complex128, order="C")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] > DIM_CAP:
            raise CapacityError(
                f"matrix dimension {a.shape[0]} exceeds the cap {DIM_CAP}"
            )
        object.__setattr__(self, "entries", _freeze(a))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def a(self) -> np.ndarray:
        """Entries as a read-only ndarray."""
        return self.entries


@dataclasses.dataclass(frozen=True)
class RegisterLayout:
    """An ordered list of uniquely labeled tensor factors.

    ``factors`` is a tuple of ``(label, dimension)`` pairs.  The layout's
    total dimension is the product of the factor dimensions, and the basis
    of any operator it annotates is ordered lexicographically over the
    factors in this order.
    """

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        factors = tuple((str(l), int(d)) for l, d in self.factors)
        if not factors:
            raise LayoutError("layout needs at least one factor")
        labels = [l for l, _ in factors]
        if len(set(labels)) != len(labels):
            raise LayoutError(f"duplicate register labels in {labels}")
        if any(d < 1 for _, d in factors):
            raise LayoutError("register dimensions must be >= 1")
        dim = math.prod(d for _, d in factors)
        if dim > DIM_CAP:
            raise CapacityError(f"total layout dimension {dim} exceeds the cap {DIM_CAP}")
        object.__setattr__(self, "factors", factors)

    @classmethod
    def of(cls, header: str) -> "RegisterLayout":
        """Parse a layout header such as ``"a:2 b:3"``."""
        pairs = (tok.partition(":") for tok in header.split())
        return cls(tuple((label, int(dim)) for label, _, dim in pairs))

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.factors)

    def position(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise LayoutError(f"unknown register label {label!r} in {self.header()}")

    def dim_of(self, label: str) -> int:
        return self.factors[self.position(label)][1]

    def restricted(self, keep: Iterable[str]) -> "RegisterLayout":
        """Sub-layout of the kept labels, in this layout's order."""
        keep = set(keep)
        unknown = keep - set(self.labels)
        if unknown:
            raise LayoutError(f"unknown register labels {sorted(unknown)}")
        return RegisterLayout(tuple(f for f in self.factors if f[0] in keep))

    def header(self) -> str:
        return " ".join(f"{l}:{d}" for l, d in self.factors)


def _check_states(a: np.ndarray) -> None:
    """Raise ``ValueError`` unless each matrix of the ``(..., d, d)`` stack is a state."""
    if not (_hermitian_error(a) <= ATOL).all():
        raise ValueError("density matrix is not Hermitian within tolerance")
    tr = a.trace(axis1=-2, axis2=-1).reshape(-1)
    bad = (abs(tr.real - 1.0) > ATOL) | (abs(tr.imag) > ATOL)
    if bad.any():
        raise ValueError(f"density matrix trace {tr[bad][0]} != 1")
    wmin = _eigvalsh(a)[..., 0].reshape(-1)
    if (wmin < -ATOL).any():
        raise ValueError(f"density matrix has negative eigenvalue {float(wmin[wmin < -ATOL][0])}")


@dataclasses.dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated quantum state: Hermitian, positive semidefinite, trace one.

    Parameters
    ----------
    matrix : ComplexMatrix
    layout : RegisterLayout
        Must have total dimension equal to the matrix dimension.

    Raises
    ------
    ValueError
        If any state invariant fails beyond the structural tolerance.
    """

    matrix: ComplexMatrix
    layout: RegisterLayout

    def __post_init__(self):
        if self.layout.dim != self.matrix.dim:
            raise LayoutError(
                f"layout dimension {self.layout.dim} != matrix dimension {self.matrix.dim}"
            )
        _check_states(self.matrix.entries)

    @classmethod
    def of(cls, entries, layout: RegisterLayout | str) -> "DensityMatrix":
        if isinstance(layout, str):
            layout = RegisterLayout.of(layout)
        return cls(ComplexMatrix(entries), layout)

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @property
    def a(self) -> np.ndarray:
        return self.matrix.entries

    def marginal(self, keep: Iterable[str]) -> "DensityMatrix":
        return partial_trace(self, keep)


@dataclasses.dataclass(frozen=True, eq=False)
class PureState:
    """A unit vector with register bookkeeping."""

    vector: np.ndarray
    layout: RegisterLayout

    def __post_init__(self):
        v = np.array(self.vector, dtype=np.complex128).reshape(-1)
        if v.size != self.layout.dim:
            raise LayoutError(
                f"vector length {v.size} != layout dimension {self.layout.dim}"
            )
        nrm = float(np.vdot(v, v).real)
        if not abs(nrm - 1.0) <= ATOL:
            raise ValueError(f"state vector squared norm {nrm} != 1")
        object.__setattr__(self, "vector", _freeze(v))

    @property
    def dim(self) -> int:
        return self.vector.size

    @property
    def a(self) -> np.ndarray:
        return self.vector

    def density(self) -> DensityMatrix:
        return DensityMatrix(ComplexMatrix(np.outer(self.vector, self.vector.conj())), self.layout)


@dataclasses.dataclass(frozen=True, eq=False)
class Projector:
    """An orthogonal projector: Hermitian and idempotent within tolerance."""

    matrix: ComplexMatrix

    def __post_init__(self):
        a = self.matrix.entries
        if not _hermitian_error(a) <= ATOL:
            raise ValueError("projector is not Hermitian within tolerance")
        err = float(np.max(np.abs(a @ a - a)))
        if not err <= ATOL:
            raise ValueError(f"projector is not idempotent (|P^2 - P| = {err:.3e})")

    @classmethod
    def of(cls, entries) -> "Projector":
        return cls(ComplexMatrix(entries))

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @property
    def a(self) -> np.ndarray:
        return self.matrix.entries

    @property
    def rank(self) -> int:
        return int(round(float(np.trace(self.matrix.entries).real)))


@dataclasses.dataclass(frozen=True, eq=False)
class Channel:
    """A completely positive trace-preserving map given by Kraus operators.

    Each Kraus operator is a ``dim_out x dim_in`` complex matrix and the
    completeness relation ``sum_k K^dag K = I`` must hold within tolerance.
    """

    kraus: tuple[np.ndarray, ...]
    in_layout: RegisterLayout
    out_layout: RegisterLayout

    def __post_init__(self):
        ks = tuple(
            _freeze(np.array(k, dtype=np.complex128, order="C")) for k in self.kraus
        )
        if not ks:
            raise ValueError("channel needs at least one Kraus operator")
        din, dout = self.in_layout.dim, self.out_layout.dim
        for k in ks:
            if k.shape != (dout, din):
                raise LayoutError(
                    f"Kraus shape {k.shape} != (out {dout}, in {din})"
                )
        total = sum(k.conj().T @ k for k in ks)
        err = float(np.max(np.abs(total - np.eye(din))))
        if not err <= ATOL:
            raise ValueError(f"Kraus completeness violated (|sum K^dag K - I| = {err:.3e})")
        object.__setattr__(self, "kraus", ks)

    @property
    def dim_in(self) -> int:
        return self.in_layout.dim

    @property
    def dim_out(self) -> int:
        return self.out_layout.dim


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------

def tensor_power(a: np.ndarray, n: int) -> np.ndarray:
    """The ``n``-fold Kronecker power of an array (``n >= 1``)."""
    return functools.reduce(np.kron, [a] * n)


def partial_trace(rho: DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Trace out every register not named in ``keep``.

    Parameters
    ----------
    rho : DensityMatrix
    keep : iterable of register labels
        Labels to retain; the result's layout lists them in ``rho``'s order.

    Returns
    -------
    DensityMatrix on the kept registers, with the same total trace.
    """
    keep = set(keep)
    sub = rho.layout.restricted(keep)  # validates labels
    labels, dims = rho.layout.labels, rho.layout.dims
    n = len(dims)
    t = rho.a.reshape(dims + dims)
    row = list(range(n))
    col = [n + i if labels[i] in keep else i for i in range(n)]
    out = [i for i in range(n) if labels[i] in keep]
    out += [n + i for i in range(n) if labels[i] in keep]
    reduced = np.einsum(t, row + col, out)
    d = sub.dim
    return DensityMatrix(ComplexMatrix(reduced.reshape(d, d)), sub)


def _arrange(pieces: Sequence[tuple[np.ndarray, Sequence[int]]], dims: Sequence[int]) -> np.ndarray:
    """Kron the pieces together and permute their tensor slots onto the
    named register positions; every register must be claimed exactly once."""
    order = [p for _, pos in pieces for p in pos]
    if sorted(order) != list(range(len(dims))):
        raise ValueError(f"register positions {order} must cover 0..{len(dims) - 1}")
    big = functools.reduce(np.kron, [op for op, _ in pieces])
    n = len(dims)
    shape = [dims[i] for i in order]
    tensor = big.reshape(shape + shape)
    inv = np.argsort(np.array(order))
    perm = [*inv, *(inv + n)]
    d = math.prod(dims)
    return np.ascontiguousarray(tensor.transpose(perm).reshape(d, d))


def _apply(op: np.ndarray, x: np.ndarray, dims: Sequence[int], targets: Sequence[int],
           out_dims: Sequence[int] | None = None, dest: Sequence[int] | None = None) -> np.ndarray:
    """``(op on the target registers, identity elsewhere) @ x`` for a matrix
    ``x`` whose rows live on ``dims``; O(rows x columns x op width), with no
    operator on the full space formed.  ``op`` maps the targets, in the
    order given, onto registers of ``out_dims`` (default: the targets' own)
    at row positions ``dest`` of the result (default: ``targets``); the
    untouched registers fill the other positions in their own order."""
    t_dims = [dims[i] for i in targets]
    out_dims = t_dims if out_dims is None else list(out_dims)
    n = len(out_dims)
    out = np.tensordot(
        op.reshape(out_dims + t_dims),
        x.reshape(*dims, -1),
        axes=(list(range(n, n + len(targets))), list(targets)),
    )
    out = np.moveaxis(out, list(range(n)), list(targets if dest is None else dest))
    return out.reshape(-1, x.shape[1])


def _sandwich(left: np.ndarray, x: np.ndarray, right: np.ndarray, *placement) -> np.ndarray:
    """``left @ x @ right`` for a square ``x``, with ``left`` placed on its
    rows and ``right`` on its columns as ``_apply(op, x, *placement)``
    places ``op`` on the rows."""
    return _apply(right.T, _apply(left, x, *placement).T, *placement).T


def apply_channel(
    channel: Channel, rho: DensityMatrix, targets: Sequence[str] | None = None
) -> DensityMatrix:
    """Apply a channel to a state, optionally on a subset of its registers.

    The Kraus conjugation acts on the target registers in the order given:
    the channel's output factors take the place of the first target factor
    and all untouched factors keep their relative order.  Output labels
    must not collide with the untouched labels.
    """
    layout = rho.layout
    targets = list(channel.in_layout.labels if targets is None else targets)
    if len(set(targets)) != len(targets):
        raise LayoutError(f"duplicate target labels in {targets}")
    pos = [layout.position(l) for l in targets]
    d_t = math.prod(layout.dims[p] for p in pos)
    if d_t != channel.dim_in:
        raise LayoutError(
            f"target dimension {d_t} != channel input dimension {channel.dim_in}"
        )
    rest = tuple(f for f in layout.factors if f[0] not in targets)
    first = sum(layout.position(l) < pos[0] for l, _ in rest)
    out = channel.out_layout
    new_layout = RegisterLayout(rest[:first] + out.factors + rest[first:])  # rejects a clash
    place = (layout.dims, pos, out.dims, range(first, first + len(out.factors)))
    total = sum(_sandwich(k, rho.a, k.conj().T, *place) for k in channel.kraus)
    return DensityMatrix(ComplexMatrix(total), new_layout)


# ---------------------------------------------------------------------------
# metrics and standard states
# ---------------------------------------------------------------------------

def spectral(a, f, cutoff: float = 0.0) -> np.ndarray:
    """``V f(w) V^dag`` from one eigensolve of a Hermitian ``a``, with ``f``
    applied to the eigenvalues above ``cutoff`` and zero on the rest."""
    w, v = _eigh(as_array(a))
    fw = np.zeros_like(w)
    fw[w > cutoff] = f(w[w > cutoff])
    return (v * fw) @ v.conj().T


def whiten(a, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """``(W, K)`` from one eigensolve of a positive semidefinite ``a``: ``W``
    scales the eigenvectors above ``cutoff`` times the largest eigenvalue so
    that ``W^dag a W = I``; ``K`` holds the rest (the kernel), orthonormal."""
    w, v = _eigh(as_array(a))
    keep = w > cutoff * w[-1]
    return v[:, keep] / np.sqrt(w[keep]), v[:, ~keep]


def root_fidelity(rho, sigma) -> float:
    """Trace norm of sqrt(rho) sqrt(sigma), in [0, 1] for states."""
    r, s = as_array(rho), as_array(sigma)
    if r.shape != s.shape:
        raise LayoutError(f"dimension mismatch {r.shape} vs {s.shape}")
    sv = np.linalg.svd(spectral(r, np.sqrt) @ spectral(s, np.sqrt), compute_uv=False)
    return float(np.sum(sv))


def maximally_entangled(d: int, labels: tuple[str, str] = ("a", "b")) -> PureState:
    """The maximally entangled pure state sum_i |ii> / sqrt(d) on two registers."""
    if d < 2:
        raise ValueError(f"need local dimension >= 2, got {d}")
    v = np.zeros(d * d, dtype=np.complex128)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    layout = RegisterLayout(((labels[0], d), (labels[1], d)))
    return PureState(v, layout)


def unitary_channel(u: np.ndarray, in_layout: RegisterLayout, out_layout: RegisterLayout) -> Channel:
    return Channel((np.array(u),), in_layout, out_layout)


def pauli_channel_family(
    num_qubits: int, in_label: str = "a", out_label: str = "b"
) -> list[Channel]:
    """All 4^n unitary channels built from tensor products of single-qubit Paulis.

    The uniform average of the family is the fully depolarizing channel: it
    sends every input to the maximally mixed state.
    """
    if num_qubits < 1:
        raise ValueError("num_qubits must be >= 1")
    d = 2**num_qubits
    in_layout = RegisterLayout(((in_label, d),))
    out_layout = RegisterLayout(((out_label, d),))
    out = []
    for combo in itertools.product(range(4), repeat=num_qubits):
        # the complex [[1]] seed keeps the signed zeros of the products
        seed = np.array([[1.0]], dtype=np.complex128)
        u = functools.reduce(np.kron, [PAULIS[i] for i in combo], seed)
        out.append(unitary_channel(u, in_layout, out_layout))
    return out


# ---------------------------------------------------------------------------
# seeded sampling
# ---------------------------------------------------------------------------

def rng_from(seed: int | np.random.Generator) -> np.random.Generator:
    """Accept either a 64-bit seed or an existing generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(int(seed))


def haar_unitary(dim: int, seed: int | np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Gaussian complex matrix.

    The R-diagonal phase fix makes the distribution exactly Haar rather than
    merely QR-of-Gaussian.
    """
    rng = rng_from(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def random_pure_state(
    dim: int, seed: int | np.random.Generator, layout: RegisterLayout | None = None
) -> PureState:
    rng = rng_from(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    if layout is None:
        layout = RegisterLayout((("r", dim),))
    return PureState(v, layout)


def random_density(
    dim: int,
    seed: int | np.random.Generator,
    rank: int | None = None,
    layout: RegisterLayout | None = None,
) -> DensityMatrix:
    """Random full-rank (or fixed-rank) state: the first of ``_gaussian_states``."""
    if layout is None:
        layout = RegisterLayout((("r", dim),))
    return DensityMatrix(ComplexMatrix(_gaussian_states(dim, 1, seed, rank)[0]), layout)


def _gaussian_states(dim: int, count: int, seed: int | np.random.Generator,
                     rank: int | None = None) -> np.ndarray:
    """``count`` unchecked states ``g g^dag / Tr[g g^dag]``, ``g`` complex Gaussian ``dim x rank``,
    from one draw holding each ``g``'s real then imaginary part: ``count`` single draws' stream."""
    g = rng_from(seed).normal(size=(count, 2, dim, dim if rank is None else rank))
    g = g[:, 0] + 1j * g[:, 1]
    m = g @ g.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None]


def random_projector(dim: int, rank: int, seed: int | np.random.Generator) -> Projector:
    """Projector onto the span of ``rank`` Haar-random orthonormal columns."""
    if not 1 <= rank <= dim:
        raise ValueError(f"rank {rank} out of range for dimension {dim}")
    q = haar_unitary(dim, seed)[:, :rank]
    return Projector(ComplexMatrix(q @ q.conj().T))


def random_channel(
    in_layout: RegisterLayout,
    out_layout: RegisterLayout,
    num_kraus: int,
    seed: int | np.random.Generator,
) -> Channel:
    """Random channel from a Haar isometry into output x environment.

    The Kraus operators are the environment slices of a random isometry, so
    completeness holds exactly up to floating point.  Requires
    ``dim_out * num_kraus >= dim_in`` for the isometry to exist.
    """
    din, dout = in_layout.dim, out_layout.dim
    if dout * num_kraus < din:
        raise ValueError(
            f"need dim_out * num_kraus >= dim_in, got {dout} * {num_kraus} < {din}"
        )
    v = haar_unitary(dout * num_kraus, seed)[:, :din]
    ks = tuple(v.reshape(dout, num_kraus, din)[:, e, :] for e in range(num_kraus))
    return Channel(ks, in_layout, out_layout)


# ---------------------------------------------------------------------------
# text serialization
# ---------------------------------------------------------------------------

def _format_rows(a: np.ndarray) -> list[str]:
    return [
        " ".join(f"{x.real:.17g},{x.imag:.17g}" for x in row) for row in a
    ]


def _read_lines(path) -> list[tuple[int, str]]:
    """The non-blank lines of a text file, ``#`` comments cut and stripped,
    with their 1-based line numbers in the file."""
    with open(path) as fh:
        return [(n, ln) for n, ln in enumerate((l.split("#", 1)[0].strip() for l in fh), 1) if ln]


def _field(lines: list[tuple[int, str]], i: int, prefix: str, path, parse=str):
    """``parse`` of the text after ``prefix`` on non-blank line ``i``.  A
    missing line, another prefix or a parse error raises, naming ``path:line``."""
    n, text = lines[i] if i < len(lines) else (lines[-1][0] + 1 if lines else 1, "")
    if not text.startswith(prefix):
        raise ValueError(f"{path}:{n}: expected '{prefix}...'")
    try:
        return parse(text[len(prefix):])
    except ValueError as exc:
        raise type(exc)(f"{path}:{n}: {exc}") from None


def _parse_rows(lines: list[tuple[int, str]], rows: int, cols: int, path) -> np.ndarray:
    """``rows`` numbered lines of ``cols`` ``re,im`` entries each; a bad
    line raises, naming ``path:line``."""
    out = []
    for n, text in lines:
        row = []
        for tok in text.split():
            re_s, _, im_s = tok.partition(",")
            try:
                row.append(complex(float(re_s), float(im_s)))
            except ValueError:
                raise ValueError(f"{path}:{n}: expected an re,im entry, got {tok!r}") from None
        if len(row) != cols:
            raise ValueError(f"{path}:{n}: expected {cols} entries per row, got {len(row)}")
        out.append(row)
    if len(out) != rows:
        raise ValueError(f"{path}: expected {rows} rows, got {len(out)}")
    return np.array(out, dtype=np.complex128)


def _load_square(path) -> tuple[np.ndarray, RegisterLayout | None]:
    """The matrix of a ``dim`` file and its ``layout`` header, if any."""
    lines = _read_lines(path)
    dim = _field(lines, 0, "dim ", path, int)
    header = len(lines) > 1 and lines[1][1].startswith("layout ")
    layout = _field(lines, 1, "layout ", path, RegisterLayout.of) if header else None
    return _parse_rows(lines[1 + header:], dim, dim, path), layout


def save_matrix(path, m) -> None:
    """Write a matrix as text: a ``dim`` header then rows of ``re,im`` pairs.

    Values round-trip bit-exactly (17 significant digits).
    """
    a = as_array(m)
    lines = [f"dim {a.shape[0]}"]
    if isinstance(m, DensityMatrix):
        lines.append(f"layout {m.layout.header()}")
    lines += _format_rows(a)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_matrix(path) -> ComplexMatrix:
    return ComplexMatrix(_load_square(path)[0])


def load_state(path) -> DensityMatrix:
    """Read a density matrix; uses the ``layout`` header if present."""
    a, layout = _load_square(path)
    if layout is None:
        layout = RegisterLayout((("r", len(a)),))
    return DensityMatrix(ComplexMatrix(a), layout)


def save_channel(path, ch: Channel) -> None:
    lines = [
        f"channel kraus {len(ch.kraus)}",
        f"in_layout {ch.in_layout.header()}",
        f"out_layout {ch.out_layout.header()}",
    ]
    for i, k in enumerate(ch.kraus):
        lines.append(f"kraus {i}")
        lines += _format_rows(k)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_channel(path) -> Channel:
    """Read a channel; raises ``ValueError`` on a short or malformed file."""
    lines = _read_lines(path)
    nk = _field(lines, 0, "channel kraus ", path, int)
    in_layout = _field(lines, 1, "in_layout ", path, RegisterLayout.of)
    out_layout = _field(lines, 2, "out_layout ", path, RegisterLayout.of)
    dout, din = out_layout.dim, in_layout.dim
    ks = []
    for i in range(3, 3 + nk * (1 + dout), 1 + dout):
        _field(lines, i, "kraus ", path)
        ks.append(_parse_rows(lines[i + 1 : i + 1 + dout], dout, din, path))
    return Channel(tuple(ks), in_layout, out_layout)


def content_hash(x) -> str:
    """SHA-256 of the canonical 17-digit text form; stable across runs."""
    a = as_array(x)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    parts = _format_rows(a)
    if isinstance(x, (DensityMatrix, PureState)):
        parts.insert(0, x.layout.header())
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()
