"""Composite hypothesis testing between finite families of i.i.d. states.

Given finite sets ``S1`` and ``S2`` of states and a copy count ``n``, the
central quantity is the best Type-2 exponent achievable by a single test
that accepts every ``n``-fold product of an ``S1`` member with probability
at least ``1 - epsilon``:

    value = max over 0 <= L <= I with Tr[rho^(x n) L] >= 1 - eps for all
            rho in S1, of  min over mixtures sigma_n of n-fold S2 products
            of  -log2 Tr[sigma_n L].

``beta_exact`` solves this program at desk scale through its Lagrangian
dual, a jointly concave maximization over mixture weights w on the
alternative hull and multipliers lam on the acceptance constraints.  Along
each ray lam = tau mu the best tau gives the Neyman-Pearson value of the
null mixture mu against the alternative mixture w, so the dual is the
largest beta_NP over both mixtures: the same maximization, on the same
exact Neyman-Pearson solver, that ``i_h`` and ``i_h_tilde`` run with a
single null (``divergences._best_mixture``).  An explicit optimal test is
then rebuilt by a linear program in the eigenbasis of the dual's threshold
operator.  ``build_universal_test`` assembles a
single test for the whole family by the dilate/union/compress route: one
near-optimal test per prototype state, each dilated to an isometry with a
shared ancilla qubit, merged by the projector union on range bases, and
compressed back onto the ancilla ground block.  ``epsilon_net`` supplies
the finite prototype sets for qubit families: a Bloch-ball lattice plus a
golden-spiral surface layer, with the covering quality validated by
sampling rather than proved.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.optimize

from .divergences import (StateEnsemble, TestOperator, _best_mixture, _certified, _traces,
                          bits)
from .jordan import check_delta, merge_tests, union_depth
from .qcore import (
    PAULIS,
    CapacityError,
    ComplexMatrix,
    DensityMatrix,
    LayoutError,
    RegisterLayout,
    _check_states,
    _eigh,
    _freeze,
    _gaussian_states,
    content_hash,
    rng_from,
    tensor_power,
)

MAX_VERTICES = 4
MAX_COPIES = 3
MAX_TOTAL_DIM = 64
#: most sample-by-net-point fidelities ``net_covering_report`` will score
MAX_FIDELITY_ENTRIES = 2 ** 26
#: most of them it holds at once: samples are drawn and scored in blocks
FIDELITY_BLOCK = 2 ** 16

QUBIT = RegisterLayout.of("a:2")

__all__ = [
    "CompositeInstance",
    "EpsilonNet",
    "UniversalTest",
    "beta_exact",
    "build_universal_test",
    "composite_record",
    "epsilon_net",
    "net_covering_report",
]


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, eq=False)
class CompositeInstance:
    """A finite composite discrimination problem: accept every n-fold
    product of an ``s1`` member, reject mixtures of n-fold ``s2`` products.

    The size caps are checked when the instance is built, and the n-fold
    products are built once: ``nulls`` of the ``s1`` vertices and ``alts``
    of the ``s2`` vertices."""

    s1: StateEnsemble
    s2: StateEnsemble
    n: int
    epsilon: float
    nulls: tuple[np.ndarray, ...] = dataclasses.field(init=False, repr=False)
    alts: tuple[np.ndarray, ...] = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"copy count must be >= 1, got {self.n}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.s1.dim != self.s2.dim:
            raise LayoutError(
                f"families live on different spaces ({self.s1.dim} vs {self.s2.dim})"
            )
        k1, k2 = len(self.s1.vertices), len(self.s2.vertices)
        if k1 > MAX_VERTICES or k2 > MAX_VERTICES:
            raise CapacityError(
                f"at most {MAX_VERTICES} vertices per family (got {k1} and {k2})"
            )
        if self.n > MAX_COPIES:
            raise CapacityError(f"at most {MAX_COPIES} copies, got {self.n}")
        if self.total_dim > MAX_TOTAL_DIM:
            raise CapacityError(
                f"total dimension {self.total_dim} exceeds cap {MAX_TOTAL_DIM}"
            )
        for name, family in (("nulls", self.s1), ("alts", self.s2)):
            powers = tuple(tensor_power(v.a, self.n) for v in family.vertices)
            object.__setattr__(self, name, powers)

    @property
    def dim(self) -> int:
        return self.s1.dim

    @property
    def total_dim(self) -> int:
        return self.dim ** self.n


@dataclasses.dataclass(frozen=True, eq=False)
class EpsilonNet:
    """A read-only ``(size, d, d)`` stack of states meant to approximate
    every state of the space to within the recorded fidelity deficit.

    The covering quality is an empirical calibration, not a theorem: use
    ``net_covering_report`` to measure it on sampled states.
    """

    states: np.ndarray
    resolution: float

    def __post_init__(self):
        states = np.array(self.states, dtype=np.complex128)
        if states.ndim != 3 or not len(states):
            raise ValueError(f"net needs at least one point, got shape {states.shape}")
        if not 0.0 < self.resolution < 1.0:
            raise ValueError(f"resolution must lie in (0, 1), got {self.resolution}")
        _check_states(states)
        object.__setattr__(self, "states", _freeze(states))


def composite_record(inst: CompositeInstance, value: float, test: TestOperator,
                     delta: float | None = None) -> dict:
    """Structured, JSON-ready record of a composite-testing computation."""
    rec = {
        "s1_hashes": [content_hash(v) for v in inst.s1.vertices],
        "s2_hashes": [content_hash(v) for v in inst.s2.vertices],
        "n": inst.n,
        "epsilon": inst.epsilon,
        "value_bits": value,
        "type1_residuals": (1.0 - _traces(test.a, inst.nulls)).tolist(),
        "type2_per_vertex": _traces(test.a, inst.alts).tolist(),
        "iterations": test.iterations,
        "certificate_gap_bits": test.certificate_gap_bits,
    }
    if delta is not None:
        rec["delta"] = delta
    return rec


# ---------------------------------------------------------------------------
# exact program
# ---------------------------------------------------------------------------

def _lift_acceptance(p: np.ndarray, c: np.ndarray, floor: float) -> np.ndarray:
    """Smallest move of the acceptance weights ``c`` toward all-ones that
    puts every row ``p_i . c`` at or above ``floor``.

    Mixing in the accept-everything test, ``c + alpha (1 - c)`` raises row
    ``i`` by ``alpha (sum(p_i) - p_i . c)`` and raises any Type-2 level by
    at most ``alpha``.  ``alpha`` aims a few ulps above ``floor`` so that
    rounding in the quotient and in the lifted rows cannot leave a row
    short.  ``c`` is returned untouched when every row already holds."""
    accept = p @ c
    short = accept < floor
    if not np.any(short):
        return c
    gain = p[short].sum(axis=1) - accept[short]
    margin = 4.0 * np.finfo(float).eps
    alpha = float(np.max((floor + margin - accept[short]) / gain))
    return c + min(1.0, alpha) * (1.0 - c)


def _eigenbasis_test(rmats, qmats, eps, w, lam):
    """Rebuild an explicit test from the dual solution: diagonalize the
    threshold operator and optimize the acceptance weights of its
    eigenvectors by a linear program.

    HiGHS meets the acceptance rows ``p_i . c >= 1 - eps`` only to its
    primal feasibility tolerance (about 1e-7), so its weights are then
    repaired exactly on the diagonal data by ``_lift_acceptance``; the
    returned test meets every acceptance constraint with no LP slack, and
    its level is computed from the repaired test."""
    d = sum(l * r for l, r in zip(lam, rmats))
    d = d - sum(wj * q for wj, q in zip(w, qmats))
    _, vecs = _eigh(d)
    p = np.stack([np.einsum("ki,ij,jk->k", vecs.conj().T, r, vecs).real for r in rmats])
    q = np.stack([np.einsum("ki,ij,jk->k", vecs.conj().T, s, vecs).real for s in qmats])
    dim = vecs.shape[0]
    # variables: acceptance weights c (dim of them), then the level t
    c_obj = np.concatenate([np.zeros(dim), [1.0]])
    a_ub = np.block([[q, -np.ones((len(qmats), 1))], [-p, np.zeros((len(rmats), 1))]])
    b_ub = np.concatenate([np.zeros(len(qmats)), -np.full(len(rmats), 1.0 - eps)])
    lp = scipy.optimize.linprog(
        c_obj,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(0.0, 1.0)] * dim + [(0.0, None)],
        method="highs",
    )
    if not lp.success:
        raise ArithmeticError(f"test reconstruction failed: {lp.message}")
    c = _lift_acceptance(p, np.clip(lp.x[:dim], 0.0, 1.0), 1.0 - eps)
    mat = (vecs * c) @ vecs.conj().T
    mat = 0.5 * (mat + mat.conj().T)
    return mat, float(np.max(_traces(mat, qmats)))


def beta_exact(inst: CompositeInstance) -> tuple[float, TestOperator]:
    """Best Type-2 exponent of a common test for the instance, with an
    explicit optimal test.

    The dual optimum is max over mixtures mu of the nulls and w of the
    alternatives of beta_NP(sum_i mu_i R_i || sum_j w_j Q_j), found by
    ``_best_mixture`` with one Neyman-Pearson solve per evaluation; the
    test's ``iterations`` counts those solves.  The solver's threshold t
    turns the best mu into the multipliers lam = mu / t (lam = 0 when
    t = inf) of the threshold operator sum_i lam_i R_i - sum_j w_j Q_j.
    The returned value is the one achieved by the returned test; the gap
    to the dual estimate is recorded on the test's certificate field by
    ``divergences._certified``, the constructor every solver shares.  The
    test meets every acceptance constraint exactly, with no LP tolerance:
    the linear program's weights are lifted toward the accept-everything
    test by the smallest step that restores ``Tr[M rho_i] >= 1 - eps`` on
    the eigenbasis data (see ``_eigenbasis_test``), so the reported Type-1
    error exceeds ``eps`` by at most the rounding of the final matrix
    products (about 1e-15).
    """
    mu, w, g_star, _, thr, _, solves = _best_mixture(inst.nulls, inst.alts, inst.epsilon)
    lam = mu * (0.0 if math.isinf(thr) else 1.0 / thr)
    mat, level = _eigenbasis_test(inst.nulls, inst.alts, inst.epsilon, w, lam)
    return _certified(mat, inst.nulls, level, g_star, solves)


# ---------------------------------------------------------------------------
# universal test for the whole family
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, eq=False)
class UniversalTest(TestOperator):
    """The universal test with the reference it is certified against: the
    best single-prototype value ``floor_bits`` and the merge penalty
    ``penalty_bits`` of the prototype count."""

    floor_bits: float = 0.0
    penalty_bits: float = 0.0


def build_universal_test(inst: CompositeInstance, delta: float,
                         net: EpsilonNet | None = None) -> UniversalTest:
    """One test for the whole family: a near-optimal test per prototype,
    dilated over a shared ancilla qubit and merged by the projector union
    (``merge_tests``), and compressed back onto the ancilla ground block,
    ``G G^dag`` for the ancilla-ground rows ``G`` of the merged basis.

    With ``net=None`` the prototypes are the ``s1`` vertices themselves;
    with a net, each vertex is replaced by its closest net point (the net
    resolution must be at most ``delta**2 / n`` so that the n-fold
    approximation costs at most ``delta`` of acceptance).
    """
    check_delta(delta)
    if net is None:
        prototypes = list(inst.s1.vertices)
    else:
        if net.resolution > delta ** 2 / inst.n + 1e-12:
            raise ValueError(
                f"net resolution {net.resolution} too coarse for "
                f"delta**2/n = {delta ** 2 / inst.n:.6g}"
            )
        if net.states.shape[-1] != inst.dim:
            raise LayoutError("net lives on a different space than the instance")
        # each vertex's closest net point, the first of equally close ones
        vertices = np.stack([v.a for v in inst.s1.vertices])
        fid = _bloch_fidelity(_bloch_vectors(vertices), _bloch_vectors(net.states))
        prototypes = [DensityMatrix(ComplexMatrix(net.states[i]), QUBIT) for i in fid.argmax(1)]
    first: dict[str, DensityMatrix] = {}  # the first prototype of each content
    for p in prototypes:
        first.setdefault(content_hash(p.a), p)
    size = len(first)

    per_prototype = []
    for p in first.values():
        single = CompositeInstance(StateEnsemble((p,)), inst.s2, inst.n, inst.epsilon)
        per_prototype.append(beta_exact(single))
    floor_bits = min(v for v, _ in per_prototype)

    ground = merge_tests([t for _, t in per_prototype], delta / union_depth(size))[::2]
    block = ground @ ground.conj().T
    block = 0.5 * (block + block.conj().T)
    type1 = float(np.max(1.0 - _traces(block, inst.nulls)))
    level = float(np.max(_traces(block, inst.alts)))
    value = bits(level)
    penalty = (
        4.0 * math.log2(size) * math.log2(math.log2(size) / delta) if size > 1 else 0.0
    )
    return UniversalTest(
        matrix=ComplexMatrix(block),
        type1_error=type1,
        type2_bound=level,
        iterations=math.ceil(math.log2(size)),
        certificate_gap_bits=max(0.0, value - (floor_bits - penalty)),
        floor_bits=floor_bits,
        penalty_bits=penalty,
    )


# ---------------------------------------------------------------------------
# qubit nets
# ---------------------------------------------------------------------------

def bloch_density(x: float, y: float, z: float) -> np.ndarray:
    """Qubit state ``(I + x X + y Y + z Z) / 2`` with Bloch vector
    ``(x, y, z)``, ``|r| <= 1``; components of shape ``(n, 1, 1)`` give an ``(n, 2, 2)`` stack."""
    return 0.5 * sum(c * p for c, p in zip((1.0, x, y, z), PAULIS))


def _bloch_vectors(states: np.ndarray) -> np.ndarray:
    """Rows ``(Tr[rho X], Tr[rho Y], Tr[rho Z])`` of a stack of qubit states."""
    return np.einsum("nij,kji->nk", states, np.stack(PAULIS[1:])).real


def _bloch_fidelity(r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Squared fidelities between qubit states given by the Bloch-vector
    rows of ``r`` and of ``s``: (1 + r.s + sqrt((1 - |r|^2)(1 - |s|^2))) / 2."""
    r2 = np.clip(1.0 - np.sum(r ** 2, axis=1), 0.0, None)
    s2 = np.clip(1.0 - np.sum(s ** 2, axis=1), 0.0, None)
    return 0.5 * (1.0 + r @ s.T + np.sqrt(np.outer(r2, s2)))


def _sphere_layer(count: int) -> np.ndarray:
    """Golden-spiral layout of ``count`` points on the unit sphere."""
    i = np.arange(count)
    z = 1.0 - (2.0 * i + 1.0) / count
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    rad = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.stack([rad * np.cos(phi), rad * np.sin(phi), z], axis=1)


def epsilon_net(dim: int, deficit: float) -> EpsilonNet:
    """Finite qubit net: Bloch-ball cubic lattice (always containing the
    six axis points and the center) plus a golden-spiral surface layer,
    sized to stay within the (2/deficit)**2 point budget."""
    if dim != 2:
        raise CapacityError(f"nets are built for dimension 2 only, got {dim}")
    if not 0.0 < deficit < 0.5:
        raise ValueError(f"deficit must lie in (0, 0.5), got {deficit}")
    budget = int((2.0 / deficit) ** 2)

    def lattice(k: int) -> np.ndarray:
        g = np.arange(-k, k + 1, dtype=float)
        r = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3) / k
        return r[np.einsum("ij,ij->i", r, r) <= 1.0 + 1e-12]

    surface = max(8, math.ceil(6.0 / deficit))
    k = max(1, round(math.sqrt(1.0 / deficit)))
    ball = lattice(k)
    while k > 1 and len(ball) + surface > budget:
        k -= 1
        ball = lattice(k)
    while len(ball) + surface > budget and surface > 8:
        surface = max(8, surface // 2)

    vectors = np.concatenate([ball, _sphere_layer(surface)])
    # the first row of each 10-digit class, as Python floats (-0.0 == 0.0)
    first = {}
    for i, key in enumerate(map(tuple, np.round(vectors, 10).tolist())):
        first.setdefault(key, i)
    x, y, z = vectors[list(first.values())].T[:, :, None, None]
    return EpsilonNet(states=bloch_density(x, y, z), resolution=deficit)


def net_covering_report(net: EpsilonNet, num_samples: int = 10_000,
                        seed=7) -> dict:
    """Measure the net's worst fidelity deficit over sampled qubit states."""
    if num_samples < 1:
        raise ValueError(f"num_samples must be at least 1, got {num_samples}")
    size = len(net.states)
    if num_samples * size > MAX_FIDELITY_ENTRIES:
        raise CapacityError(
            f"{num_samples} samples x {size} net points exceed the cap of "
            f"{MAX_FIDELITY_ENTRIES} fidelities"
        )
    # one generator's blocks draw the stream of a single draw of all samples
    rng, net_bloch = rng_from(seed), _bloch_vectors(net.states)
    rows = max(1, FIDELITY_BLOCK // size)
    deficit = np.empty(num_samples)
    for start in range(0, num_samples, rows):
        samples = _gaussian_states(2, min(rows, num_samples - start), rng)
        _check_states(samples)
        fid = _bloch_fidelity(_bloch_vectors(samples), net_bloch)
        deficit[start:start + len(samples)] = 1.0 - np.max(fid, axis=1)
    budget = int((2.0 / net.resolution) ** 2)
    return {
        "size": size,
        "budget": budget,
        "within_budget": size <= budget,
        "resolution": net.resolution,
        "samples": num_samples,
        "max_deficit": float(np.max(deficit)),
        "mean_deficit": float(np.mean(deficit)),
        "covered": bool(np.max(deficit) <= net.resolution),
    }

