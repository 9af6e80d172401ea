"""Joint block decomposition of two projectors and projector unions.

Any two orthogonal projectors share a decomposition of the space into
mutually orthogonal blocks of dimension one or two, on which each projector
restricts to rank at most one.  The decomposition here comes from the
singular values of the inner-product matrix between the two ranges
(principal angles), which is numerically stable.

The union construction turns the block structure into a single projector
that accepts almost as well as either input (additive delta loss) at the
cost of a multiplicative operator bound; a binary merge tree extends it to
many.  ``union_of_ranges`` runs the tree on orthonormal range bases, with no
projector formed or eigensolved; ``union_many`` wraps it for projectors.
``merge_tests`` dilates binary tests to isometries and merges their ranges
as bases: the route of both position-based decoding and composite testing.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .divergences import TestOperator
from .qcore import ATOL, LayoutError, Projector

FAR = "far"
NEAR = "near"

#: singular values closer to 1 than this count as aligned directions
_ALIGNED = 1e-12
#: singular values below this count as orthogonal directions
_ORTHO = 1e-12


@dataclasses.dataclass(frozen=True, eq=False)
class JordanBlock:
    """One invariant block shared by both projectors.

    ``p1_restricted`` and ``p2_restricted`` are the restrictions of the two
    input projectors to the block (rank at most one; the zero operator when
    the block lies outside a projector's range).  ``overlap`` is the trace
    of their product, and ``label`` classifies the block as ``NEAR`` when
    the overlap reaches ``1 - delta**2`` and ``FAR`` otherwise.
    """

    block_projector: Projector
    p1_restricted: Projector
    p2_restricted: Projector
    overlap: float
    label: str

    def __post_init__(self):
        if self.block_projector.rank not in (1, 2):
            raise ValueError(f"block rank must be 1 or 2, got {self.block_projector.rank}")
        if self.p1_restricted.rank > 1 or self.p2_restricted.rank > 1:
            raise ValueError("restricted projectors must have rank at most 1")
        if not -1e-12 <= self.overlap <= 1.0 + 1e-12:
            raise ValueError(f"overlap {self.overlap} outside [0, 1]")
        if self.label not in (FAR, NEAR):
            raise ValueError(f"unknown label {self.label!r}")

    @property
    def rank(self) -> int:
        return self.block_projector.rank


@dataclasses.dataclass(frozen=True, eq=False)
class JordanDecomposition:
    blocks: tuple[JordanBlock, ...]
    delta: float


def _range_basis(p: Projector) -> np.ndarray:
    """Orthonormal columns spanning the range of p."""
    w, v = np.linalg.eigh(p.a)
    return v[:, w > 0.5]


def _principal(q1: np.ndarray, q2: np.ndarray):
    """Principal directions from one SVD of Q1^dag Q2 (orthonormal range
    bases): orthonormal columns ``a`` of range(Q1) and ``b`` of range(Q2),
    and the cosines ``c`` (at most 1) of the pairs (a_i, b_i), i < len(c).
    Columns past len(c) have cosine 0 with the whole other range."""
    u, c, vh = np.linalg.svd(q1.conj().T @ q2)
    return q1 @ u, q2 @ vh.conj().T, np.minimum(c, 1.0)


def _far_complement(q1: np.ndarray, q2: np.ndarray, delta: float) -> np.ndarray:
    """union_pair's G = (I - Q1 Q1^dag) B_far, columns normalized.  For
    principal vectors B^dag (I - Q1 Q1^dag) B = I - diag(c^2), so [Q1, G] is
    orthonormal."""
    a, b, c = _principal(q1, q2)
    cos = np.pad(c, (0, b.shape[1] - len(c)))
    far = b[:, (cos * cos < 1.0 - delta * delta) & (cos < 1.0 - _ALIGNED)]
    g = far - a @ (a.conj().T @ far)
    return g / np.linalg.norm(g, axis=0)


def _col(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def jordan_decompose(p1: Projector, p2: Projector, delta: float) -> JordanDecomposition:
    """Decompose the space into one- and two-dimensional joint blocks.

    Block projectors are mutually orthogonal, sum to the identity, commute
    with both inputs, and carry the inputs' rank-<=1 restrictions; blocks
    whose restrictions overlap at least ``1 - delta**2`` are labeled NEAR.
    """
    _check_union([p1.dim, p2.dim], delta)
    d = p1.dim
    near_cut = 1.0 - delta * delta
    a_vecs, b_vecs, sv = _principal(_range_basis(p1), _range_basis(p2))
    blocks: list[JordanBlock] = []
    zero = Projector.of(np.zeros((d, d)))

    def add(block: np.ndarray, r1: Projector, r2: Projector, overlap: float):
        label = NEAR if overlap >= near_cut else FAR
        blocks.append(JordanBlock(Projector.of(block), r1, r2, overlap, label))

    used = []  # columns spanning all assigned blocks, for the kernel complement
    npair = len(sv)
    for i in range(npair):
        s = float(sv[i])
        a = a_vecs[:, i]
        b = b_vecs[:, i]
        if s >= 1.0 - _ALIGNED:
            # aligned direction: one-dimensional block shared by both
            add(_col(a), Projector.of(_col(a)), Projector.of(_col(a)), s * s)
            used.append(a)
        elif s <= _ORTHO:
            # orthogonal pair: two single-sided one-dimensional blocks
            add(_col(a), Projector.of(_col(a)), zero, 0.0)
            add(_col(b), zero, Projector.of(_col(b)), 0.0)
            used += [a, b]
        else:
            g = b - s * a
            g = g / np.linalg.norm(g)
            add(_col(a) + _col(g), Projector.of(_col(a)), Projector.of(_col(b)), s * s)
            used += [a, g]
    for i in range(npair, a_vecs.shape[1]):
        add(_col(a_vecs[:, i]), Projector.of(_col(a_vecs[:, i])), zero, 0.0)
        used.append(a_vecs[:, i])
    for i in range(npair, b_vecs.shape[1]):
        add(_col(b_vecs[:, i]), zero, Projector.of(_col(b_vecs[:, i])), 0.0)
        used.append(b_vecs[:, i])

    # joint kernel: one-dimensional blocks invisible to both projectors
    basis = np.stack(used, axis=1) if used else np.zeros((d, 0))
    w, v = np.linalg.eigh(np.eye(d) - basis @ basis.conj().T)
    for i in range(d):
        if w[i] > 0.5:
            add(_col(v[:, i]), zero, zero, 0.0)
    return JordanDecomposition(tuple(blocks), delta)


def decomposition_residuals(dec: JordanDecomposition, p1: Projector, p2: Projector) -> dict:
    """Worst-case deviations of the decomposition invariants, for checking.

    Keys: completeness (block sum vs identity), commutation (blocks vs both
    inputs), reconstruction (restriction sums vs inputs), orthogonality
    (pairwise block products).
    """
    d = p1.dim
    total = sum(b.block_projector.a for b in dec.blocks)
    completeness = float(np.max(np.abs(total - np.eye(d))))
    commutation = 0.0
    for b in dec.blocks:
        pa = b.block_projector.a
        for p in (p1.a, p2.a):
            commutation = max(commutation, float(np.max(np.abs(pa @ p - p @ pa))))
    rec1 = sum(b.p1_restricted.a for b in dec.blocks)
    rec2 = sum(b.p2_restricted.a for b in dec.blocks)
    reconstruction = max(
        float(np.max(np.abs(rec1 - p1.a))), float(np.max(np.abs(rec2 - p2.a)))
    )
    orthogonality = 0.0
    for i, bi in enumerate(dec.blocks):
        for bj in dec.blocks[i + 1 :]:
            orthogonality = max(
                orthogonality,
                float(np.max(np.abs(bi.block_projector.a @ bj.block_projector.a))),
            )
    return {
        "completeness": completeness,
        "commutation": commutation,
        "reconstruction": reconstruction,
        "orthogonality": orthogonality,
    }


def decomposition_report(dec: JordanDecomposition) -> dict:
    """JSON-ready diagnostic summary of a decomposition."""
    return {
        "delta": dec.delta,
        "num_blocks": len(dec.blocks),
        "blocks": [
            {
                "rank": b.rank,
                "overlap": b.overlap,
                "label": b.label,
                "p1_rank": b.p1_restricted.rank,
                "p2_rank": b.p2_restricted.rank,
            }
            for b in dec.blocks
        ],
    }


def union_pair(p1: Projector, p2: Projector, delta: float) -> Projector:
    """A projector accepting nearly as well as either input.

    In the joint blocks, FAR blocks contribute their whole (at most
    two-dimensional) subspace and NEAR blocks the first input's
    restriction, which already captures the second to within delta.
    Summed over the blocks this is p1 plus the FAR principal directions of
    p2 taken outside range(p1): M = p1 + G G^dag with
    G = (I - Q1 Q1^dag) B_far, columns normalized.  A direction is FAR when
    its cosine c has c^2 < 1 - delta^2; aligned directions add nothing.
    The result loses at most delta in acceptance against either input and
    is dominated by (2/delta^2)(p1 + p2).
    """
    _check_union([p1.dim, p2.dim], delta)
    g = _far_complement(_range_basis(p1), _range_basis(p2), delta)
    return Projector.of(p1.a + g @ g.conj().T)


def _check_union(dims: Sequence[int], delta: float) -> None:
    """A union's input checks: 1 to 64 inputs of one dimension, and delta."""
    if not 1 <= len(dims) <= 64:
        raise ValueError(f"need 1 to 64 ranges, got {len(dims)}")
    check_delta(delta)
    if len(set(dims)) != 1:
        raise LayoutError(f"ranges must share one dimension, got {sorted(set(dims))}")


def _check_orthonormal(bases: Sequence[np.ndarray], what: str) -> None:
    err = max(np.max(np.abs(q.conj().T @ q - np.eye(q.shape[1])), initial=0.0) for q in bases)
    if err > ATOL:
        raise ValueError(f"{what} not orthonormal (|Q^dag Q - I| = {err:.3e})")


def union_of_ranges(bases: Sequence[np.ndarray], delta: float) -> np.ndarray:
    """Binary-tree union of up to 64 ranges with a shared delta, each given
    by orthonormal columns (d x k): the union's range, as orthonormal columns.

    Consecutive ranges are merged pairwise per round (an odd leftover passes
    through unchanged), for ceil(log2 s) rounds; a merge appends union_pair's
    G to the first basis.  Acceptance degrades by at most delta per round and
    the operator bound gains one factor of 2/delta^2 per round.  Each input's
    and the result's |Q^dag Q - I| is checked against ATOL; no eigensolve is
    made.
    """
    _check_union([q.shape[0] for q in bases], delta)
    _check_orthonormal(bases, "range bases are")
    level = list(bases)
    while len(level) > 1:
        merged = [
            np.hstack([level[i], _far_complement(level[i], level[i + 1], delta)])
            for i in range(0, len(level) - 1, 2)
        ]
        if len(level) % 2:
            merged.append(level[-1])
        level = merged
    _check_orthonormal(level, "the merged basis is")
    return level[0]


def union_many(projectors: list[Projector], delta: float) -> Projector:
    """``union_of_ranges`` of the inputs' ranges, as one Projector; one input returns as is."""
    _check_union([p.dim for p in projectors], delta)
    if len(projectors) == 1:
        return projectors[0]
    q = union_of_ranges([_range_basis(p) for p in projectors], delta)
    return Projector.of(q @ q.conj().T)


def union_depth(s: int) -> float:
    """``log2(2 s)``, at least ``union_of_ranges``' rounds for ``s`` ranges:
    the depth its acceptance loss and operator bound are counted in."""
    return math.log2(2 * s)


def neumark_dilate(m: TestOperator) -> np.ndarray:
    """Lift a binary test to an isometry R into system (x) qubit ancilla
    (2d x d, the ancilla last, R^dag R = I); the dilated projector is R R^dag.
    From one eigensolve ``M = V diag(w) V^dag``, w clipped to [0, 1], R's
    ancilla-ground rows are ``V diag(sqrt w)`` and its excited rows
    ``V diag(sqrt(1 - w))``.  So R R^dag's ancilla-ground block is ``M``
    (checked): on ``rho (x) |0><0|`` it accepts as the test does on ``rho``."""
    w, v = np.linalg.eigh(m.a)
    wc = np.clip(w, 0.0, 1.0)
    err = float(np.max(np.abs((v * wc) @ v.conj().T - m.a)))
    if err > 4.0 * ATOL:
        raise ValueError(f"ancilla-ground block deviates from the test by {err:.3e}")
    return np.stack([v * np.sqrt(wc), v * np.sqrt(1.0 - wc)], axis=1).reshape(2 * w.size, w.size)


def merge_tests(tests: Sequence[TestOperator], delta: float) -> np.ndarray:
    """The tests dilated over one shared qubit ancilla (``neumark_dilate``)
    and merged by ``union_of_ranges`` with the per-round ``delta``: the
    union's range as orthonormal columns Q (the merged projector Q Q^dag)."""
    return union_of_ranges([neumark_dilate(t) for t in tests], delta)
