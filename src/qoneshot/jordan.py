"""Joint block decomposition of two projectors and projector unions.

Any two orthogonal projectors share a decomposition of the space into
mutually orthogonal blocks of dimension one or two, on which each projector
restricts to rank at most one.  The decomposition here comes from the
singular values of the inner-product matrix between the two ranges
(principal angles), which is numerically stable, and is held as one
orthonormal frame: each block is one or two consecutive columns of a d x d
unitary, so its report and residuals need no per-block operator.

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
from .qcore import ATOL, LayoutError, Projector, _eigh, _freeze

FAR = "far"
NEAR = "near"

#: singular values closer to 1 than this count as aligned directions
_ALIGNED = 1e-12
#: singular values below this count as orthogonal directions
_ORTHO = 1e-12


@dataclasses.dataclass(frozen=True, eq=False)
class JordanDecomposition:
    """The joint blocks of two projectors as one orthonormal frame.

    Block k is columns ``cuts[k]:cuts[k + 1]`` (one or two wide) of the
    d x d unitary ``frame``.  Column k of ``r1`` and ``r2`` is the unit
    vector whose rank-one projector is that input's restriction to block k,
    or an exact zero column where the block lies outside its range.
    ``overlaps[k]`` is the trace of the two restrictions' product.
    """

    frame: np.ndarray
    cuts: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    overlaps: np.ndarray
    delta: float

    def __post_init__(self):
        for name in ("frame", "cuts", "r1", "r2", "overlaps"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    @property
    def labels(self) -> tuple[str, ...]:
        """NEAR for each block whose overlap reaches ``1 - delta**2``, else FAR."""
        near_cut = 1.0 - self.delta * self.delta
        return tuple(NEAR if overlap >= near_cut else FAR for overlap in self.overlaps)


def _range_basis(p: Projector) -> np.ndarray:
    """Orthonormal columns spanning the range of p."""
    w, v = _eigh(p.a)
    return v[:, w > 0.5]


def _principal(q1: np.ndarray, q2: np.ndarray):
    """Principal directions from one SVD of Q1^dag Q2 (orthonormal range
    bases): orthonormal columns ``a`` of range(Q1) and ``b`` of range(Q2),
    and the cosines ``c`` (at most 1) of the pairs (a_i, b_i), i < len(c).
    Columns past len(c) have cosine 0 with the whole other range."""
    u, c, vh = np.linalg.svd(q1.conj().T @ q2)
    return q1 @ u, q2 @ vh.conj().T, np.minimum(c, 1.0)


def _far_complement(q1: np.ndarray, q2: np.ndarray, delta: float) -> np.ndarray:
    """A merge's G = (I - Q1 Q1^dag) B_far, columns normalized: the FAR
    principal directions of range(Q2) (cosine c with c^2 < 1 - delta^2;
    aligned ones add nothing) taken outside range(Q1).  For principal
    vectors B^dag (I - Q1 Q1^dag) B = I - diag(c^2), so [Q1, G] is
    orthonormal."""
    a, b, c = _principal(q1, q2)
    cos = np.zeros(b.shape[1])
    cos[:len(c)] = c
    far = b[:, (cos * cos < 1.0 - delta * delta) & (cos < 1.0 - _ALIGNED)]
    g = far - a @ (a.conj().T @ far)
    return g / np.linalg.norm(g, axis=0)


def check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def jordan_decompose(p1: Projector, p2: Projector, delta: float) -> JordanDecomposition:
    """Decompose the space into one- and two-dimensional joint blocks.

    Each principal pair (a, b) with cosine s gives one block: ``[a]`` when
    aligned, ``[a]`` and ``[b]`` apart when orthogonal, and ``[a, g]`` with
    g = b - s a normalized otherwise.  Leftover principal directions of
    either range, then the joint kernel, are one-column blocks.  The frame
    is orthonormal, and both inputs are block-diagonal in it.
    """
    _check_union([p1.dim, p2.dim], delta)
    d = p1.dim
    a_vecs, b_vecs, sv = _principal(_range_basis(p1), _range_basis(p2))
    zero = np.zeros(d, dtype=complex)
    blocks = []  # (columns, p1's restriction vector, p2's, overlap)
    for s, a, b in zip(sv.tolist(), a_vecs.T, b_vecs.T):
        if s >= 1.0 - _ALIGNED:
            # aligned direction: one-dimensional block shared by both
            blocks.append(([a], a, a, s * s))
        elif s <= _ORTHO:
            # orthogonal pair: two single-sided one-dimensional blocks
            blocks += [([a], a, zero, 0.0), ([b], zero, b, 0.0)]
        else:
            g = b - s * a
            blocks.append(([a, g / np.linalg.norm(g)], a, b, s * s))
    blocks += [([a], a, zero, 0.0) for a in a_vecs[:, len(sv):].T]
    blocks += [([b], zero, b, 0.0) for b in b_vecs[:, len(sv):].T]

    # joint kernel: one-dimensional blocks invisible to both projectors
    used = [c for block in blocks for c in block[0]]
    basis = np.stack(used, axis=1) if used else np.zeros((d, 0))
    w, v = _eigh(np.eye(d) - basis @ basis.conj().T)
    blocks += [([k], zero, zero, 0.0) for k in v[:, w > 0.5].T]
    cols, r1, r2, overlaps = zip(*blocks)
    return JordanDecomposition(
        np.stack([c for block in cols for c in block], axis=1),
        np.cumsum([0, *map(len, cols)]),
        np.stack(r1, axis=1),
        np.stack(r2, axis=1),
        np.array(overlaps),
        delta,
    )


def decomposition_residuals(dec: JordanDecomposition, p1: Projector, p2: Projector) -> dict:
    """Worst-case deviations of the decomposition invariants, for checking.

    Keys: completeness |F F^dag - I| and orthogonality |F^dag F - I| of the
    frame F; commutation, the largest entry of F^dag P F outside the
    diagonal blocks over both inputs (P commutes with every block projector
    iff F^dag P F is block-diagonal); reconstruction |R R^dag - P| of the
    restriction columns against each input.
    """
    f = dec.frame
    block = np.repeat(np.arange(len(dec.overlaps)), np.diff(dec.cuts))
    off = block[:, None] != block[None, :]
    return {
        "completeness": float(np.max(np.abs(f @ f.conj().T - np.eye(len(f))))),
        "commutation": max(
            float(np.max(np.abs(f.conj().T @ p.a @ f)[off], initial=0.0)) for p in (p1, p2)
        ),
        "reconstruction": max(
            float(np.max(np.abs(r @ r.conj().T - p.a))) for r, p in ((dec.r1, p1), (dec.r2, p2))
        ),
        "orthogonality": float(np.max(np.abs(f.conj().T @ f - np.eye(len(block))))),
    }


def decomposition_report(dec: JordanDecomposition) -> dict:
    """JSON-ready diagnostic summary of a decomposition."""
    return {
        "delta": dec.delta,
        "num_blocks": len(dec.overlaps),
        "blocks": [
            {
                "rank": int(dec.cuts[k + 1] - dec.cuts[k]),
                "overlap": float(overlap),
                "label": label,
                "p1_rank": int(dec.r1[:, k].any()),
                "p2_rank": int(dec.r2[:, k].any()),
            }
            for k, (overlap, label) in enumerate(zip(dec.overlaps, dec.labels))
        ],
    }


def union_pair(p1: Projector, p2: Projector, delta: float) -> Projector:
    """A projector accepting nearly as well as either input,
    ``union_many([p1, p2], delta)``: in the joint blocks, FAR blocks keep
    their whole (at most two-dimensional) subspace and NEAR blocks p1's
    restriction, which captures p2's to within delta.  It loses at most
    delta in acceptance against either input and is dominated by
    (2/delta^2)(p1 + p2)."""
    return union_many([p1, p2], delta)


def _check_union(dims: Sequence[int], delta: float) -> None:
    """A union's input checks: 1 to 64 inputs of one dimension, and delta."""
    if not 1 <= len(dims) <= 64:
        raise ValueError(f"need 1 to 64 ranges, got {len(dims)}")
    check_delta(delta)
    if len(set(dims)) != 1:
        raise LayoutError(f"ranges must share one dimension, got {sorted(set(dims))}")


def _check_orthonormal(bases: Sequence[np.ndarray], what: str) -> None:
    # np.max, unlike max, lets a NaN in any basis through to the check
    err = np.max([abs(q.conj().T @ q - np.eye(q.shape[1])).max(initial=0.0) for q in bases])
    if not err <= ATOL:
        raise ValueError(f"{what} not orthonormal (|Q^dag Q - I| = {err:.3e})")


def union_of_ranges(bases: Sequence[np.ndarray], delta: float) -> np.ndarray:
    """Binary-tree union of up to 64 ranges with a shared delta, each given
    by orthonormal columns (d x k): the union's range, as orthonormal columns.

    Consecutive ranges are merged pairwise per round (an odd leftover passes
    through unchanged), for ceil(log2 s) rounds; a merge appends the FAR
    complement G (``_far_complement``) to the first basis.  Acceptance degrades by at most delta per round and
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
    w, v = _eigh(m.a)
    wc = np.clip(w, 0.0, 1.0)
    err = float(np.max(np.abs((v * wc) @ v.conj().T - m.a)))
    if not err <= 4.0 * ATOL:
        raise ValueError(f"ancilla-ground block deviates from the test by {err:.3e}")
    return np.stack([v * np.sqrt(wc), v * np.sqrt(1.0 - wc)], axis=1).reshape(2 * w.size, w.size)


def merge_tests(tests: Sequence[TestOperator], delta: float) -> np.ndarray:
    """The tests dilated over one shared qubit ancilla (``neumark_dilate``)
    and merged by ``union_of_ranges`` with the per-round ``delta``: the
    union's range as orthonormal columns Q (the merged projector Q Q^dag)."""
    return union_of_ranges([neumark_dilate(t) for t in tests], delta)
