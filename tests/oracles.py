"""Independent oracles for cross-checking the solvers, and test helpers.

Brute-force grids, restricted measurement families and linear programs
(HiGHS, and a simplex in exact rational arithmetic) that share no
optimization path with the solvers in ``qoneshot``; per-state
references for the stacked state sampler and qubit nets; the dense
d x d forms of the union's per-trial figures and of the joint-block
residuals; and the structural helpers
(``tensor_product``, ``slow_embed``, ``purified_distance``,
``random_hermitian``) that only the tests use.
"""

import math
from fractions import Fraction
from typing import Sequence

import numpy as np
import scipy.optimize

from qoneshot.divergences import (
    StateEnsemble,
    _np_solve,
    _split_bipartite,
    bits,
)
from qoneshot.composite import _lift_acceptance, _sphere_layer, bloch_density
from qoneshot.qcore import (
    ComplexMatrix,
    DensityMatrix,
    LayoutError,
    Projector,
    PureState,
    RegisterLayout,
    as_array,
    rng_from,
    root_fidelity,
    whiten,
)


def tensor_product(a, b):
    """Kronecker product with concatenated layouts.

    Accepts two values of the same kind (DensityMatrix, PureState,
    Projector, or ComplexMatrix) and returns that kind.  For layout-carrying
    values the factor labels must be disjoint.
    """
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        layout = RegisterLayout(a.layout.factors + b.layout.factors)
        return DensityMatrix(ComplexMatrix(np.kron(a.a, b.a)), layout)
    if isinstance(a, PureState) and isinstance(b, PureState):
        layout = RegisterLayout(a.layout.factors + b.layout.factors)
        return PureState(np.kron(a.vector, b.vector), layout)
    if isinstance(a, Projector) and isinstance(b, Projector):
        return Projector(ComplexMatrix(np.kron(a.a, b.a)))
    if isinstance(a, ComplexMatrix) and isinstance(b, ComplexMatrix):
        return ComplexMatrix(np.kron(a.a, b.a))
    raise TypeError(
        f"cannot tensor {type(a).__name__} with {type(b).__name__}"
    )


def slow_embed(op, dims, targets, out_dims=None, dest=None):
    """Index-loop embedding oracle, no reshaping: ``op`` maps the registers
    ``targets`` of ``dims``, in that order, onto registers of ``out_dims``
    (default: the targets' own) at positions ``dest`` of the output
    (default: ``targets``); identity on every other register, and those
    keep their order."""
    t_dims = [dims[t] for t in targets]
    out_dims = t_dims if out_dims is None else list(out_dims)
    dest = list(targets) if dest is None else list(dest)
    rest = [i for i in range(len(dims)) if i not in targets]
    out_rest = [p for p in range(len(rest) + len(dest)) if p not in dest]
    odims = [0] * (len(rest) + len(dest))
    for p, d in zip(dest, out_dims):
        odims[p] = d
    for p, i in zip(out_rest, rest):
        odims[p] = dims[i]

    def unravel(x, ds):
        idx = []
        for d in reversed(ds):
            idx.append(x % d)
            x //= d
        return list(reversed(idx))

    def ravel(idx, ds):
        x = 0
        for i, d in zip(idx, ds):
            x = x * d + i
        return x

    out = np.zeros((math.prod(odims), math.prod(dims)), dtype=complex)
    for r in range(out.shape[0]):
        ri = unravel(r, odims)
        for c in range(out.shape[1]):
            ci = unravel(c, dims)
            if any(ri[p] != ci[i] for p, i in zip(out_rest, rest)):
                continue
            out[r, c] = op[ravel([ri[p] for p in dest], out_dims), ravel([ci[t] for t in targets], t_dims)]
    return out


def purified_distance(rho, sigma) -> float:
    """sqrt(1 - F^2) where F is the root fidelity; symmetric, in [0, 1]."""
    f = min(root_fidelity(rho, sigma), 1.0)
    return float(np.sqrt(max(0.0, 1.0 - f * f)))


def random_hermitian(dim: int, seed) -> ComplexMatrix:
    rng = rng_from(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return ComplexMatrix((g + g.conj().T) / 2)


def gaussian_states_by_state(dim: int, count: int, seed, rank=None) -> np.ndarray:
    """Per-state reference for ``qcore._gaussian_states``: ``count`` draws
    of ``g g^dag / Tr[g g^dag]`` in turn, each ``g`` from two draws."""
    rng = rng_from(seed)
    rank = dim if rank is None else rank
    out = []
    for _ in range(count):
        g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
        m = g @ g.conj().T
        m /= np.trace(m).real
        out.append(m)
    return np.stack(out)


def union_figures_dense(basis, vecs, planted, cutoff: float) -> tuple[float, float, float]:
    """Dense reference for ``cli._union_figures``, on the d x d matrices:
    M = Q Q^dag checked as a Projector, the least <psi|M|psi>, and with
    ``whiten(sum_i v_i v_i^dag)`` = (W, K), |M K|_F and lambda_max(W^dag M W)."""
    merged = Projector.of(basis @ basis.conj().T)
    acceptance = min(float((psi.conj() @ merged.a @ psi).real) for psi in planted.T)
    white, ker = whiten(sum(np.outer(v, v.conj()) for v in vecs.T), cutoff)
    residual = float(np.linalg.norm(merged.a @ ker))
    constant = float(np.linalg.eigvalsh(white.conj().T @ merged.a @ white)[-1])
    return acceptance, residual, constant


def decomposition_residuals_dense(dec, p1, p2) -> dict:
    """Dense reference for ``jordan.decomposition_residuals``, per block:
    each block projector F_k F_k^dag from the frame's block columns, then
    their sum against I (completeness), every block's commutator with both
    inputs (commutation), the restrictions' sums r r^dag against the inputs
    (reconstruction) and every pairwise block product (orthogonality)."""
    f = dec.frame
    blocks = [f[:, i:j] @ f[:, i:j].conj().T for i, j in zip(dec.cuts[:-1], dec.cuts[1:])]
    commutation = max(
        float(np.max(np.abs(b @ p.a - p.a @ b))) for b in blocks for p in (p1, p2)
    )
    reconstruction = max(
        float(np.max(np.abs(sum(np.outer(v, v.conj()) for v in r.T) - p.a)))
        for r, p in ((dec.r1, p1), (dec.r2, p2))
    )
    orthogonality = max(
        (float(np.max(np.abs(bi @ bj))) for i, bi in enumerate(blocks) for bj in blocks[i + 1 :]),
        default=0.0,
    )
    return {
        "completeness": float(np.max(np.abs(sum(blocks) - np.eye(len(f))))),
        "commutation": commutation,
        "reconstruction": reconstruction,
        "orthogonality": orthogonality,
    }


def net_states_by_point(deficit: float) -> np.ndarray:
    """Per-point reference for ``composite.epsilon_net``'s states: the same
    lattice and surface sizing, then ``bloch_density`` of each row whose
    10-digit rounding has not been seen before."""
    budget = int((2.0 / deficit) ** 2)

    def lattice(k: int) -> np.ndarray:
        g = np.arange(-k, k + 1, dtype=float)
        r = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3) / k
        return r[np.einsum("ij,ij->i", r, r) <= 1.0 + 1e-12]

    surface = max(8, math.ceil(6.0 / deficit))
    k = max(1, round(math.sqrt(1.0 / deficit)))
    while k > 1 and len(lattice(k)) + surface > budget:
        k -= 1
    while len(lattice(k)) + surface > budget and surface > 8:
        surface = max(8, surface // 2)
    seen, points = set(), []
    for r in list(lattice(k)) + list(_sphere_layer(surface)):
        key = tuple(np.round(r, 10))
        if key not in seen:
            seen.add(key)
            points.append(bloch_density(*r))
    return np.stack(points)


def _ball_lattice(res: float) -> np.ndarray:
    n = int(round(2.0 / res))
    coords = np.arange(n + 1) * (2.0 / n) - 1.0
    pts = np.array(np.meshgrid(coords, coords, coords)).reshape(3, -1).T
    return pts[np.einsum("ij,ij->i", pts, pts) <= 1.0 + 1e-12]


def min_dh_over_bloch_grid(
    rho: DensityMatrix,
    eps: float,
    *,
    fine: float = 0.02,
    coarse: float = 0.1,
) -> tuple[float, np.ndarray]:
    """Grid oracle for the first-register minimization (qubit first register).

    Minimizes the divergence against sigma (x) rho_B over a Bloch-ball
    lattice: a full pass at the coarse resolution, then a full
    fine-resolution box (two coarse cells wide) around the coarse winner.
    The minimized map is convex on the ball, so the refinement is sound.
    This path shares no optimization state with the saddle solver.
    """
    d_a, d_b, _, rho_b = _split_bipartite(rho)
    if d_a != 2:
        raise LayoutError("grid oracle needs a qubit first register")
    r = rho.a

    def value_at(pt) -> float:
        beta = _np_solve(r, np.kron(bloch_density(*pt), rho_b), eps)[0]
        return bits(beta)

    best_v, best_p = math.inf, None
    for pt in _ball_lattice(coarse):
        v = value_at(pt)
        if v < best_v:
            best_v, best_p = v, pt

    def refine(center, half, step):
        nonlocal best_v, best_p
        n = int(round(half / step))
        offs = (np.arange(2 * n + 1) - n) * step
        for dx in offs:
            for dy in offs:
                for dz in offs:
                    pt = center + np.array([dx, dy, dz])
                    if pt @ pt > 1.0 + 1e-12:
                        continue
                    v = value_at(pt)
                    if v < best_v:
                        best_v, best_p = v, pt

    refine(best_p, coarse + 2 * fine, fine)
    refine(best_p, 1.5 * fine, fine / 4.0)
    return best_v, best_p


def min_dh_over_weight_grids(
    rho: DensityMatrix,
    s_a: StateEnsemble,
    s_b: StateEnsemble,
    eps: float,
    step: float = 0.02,
) -> float:
    """Nested-grid oracle for the doubly restricted divergence: a direct scan
    over weight grids on both vertex simplices, one plain Neyman-Pearson
    solve per pair.  Supports two-vertex ensembles (one weight each)."""
    if len(s_a.vertices) > 2 or len(s_b.vertices) > 2:
        raise ValueError("weight-grid oracle supports up to two vertices per set")

    def mixtures(ens: StateEnsemble):
        if len(ens.vertices) == 1:
            return [ens.vertices[0].a]
        n = int(round(1.0 / step))
        return [ens.mix([i / n, 1.0 - i / n]) for i in range(n + 1)]

    best = math.inf
    r = rho.a
    for ta in mixtures(s_a):
        for sb in mixtures(s_b):
            beta = _np_solve(r, np.kron(ta, sb), eps)[0]
            best = min(best, bits(beta))
    return best


def simplex_lattice(k: int, m: int) -> list[np.ndarray]:
    """The weights ``c / m`` of the ``k``-vertex simplex, ``c`` integers
    summing to ``m``, enumerated recursively: the first weight slowest, the
    last one the remainder."""
    def rec(prefix, left, slots):
        if slots == 1:
            yield prefix + [left]
            return
        for i in range(left + 1):
            yield from rec(prefix + [i], left - i, slots - 1)

    return [np.array(c, dtype=float) / m for c in rec([], m, k)]


def best_qubit_two_level_test(
    rho, sigma, eps: float, num_directions: int = 10000
) -> float:
    """Best value over a family of qubit tests diagonal in a scanned basis.

    For each measurement direction on a two-stage Fibonacci sphere (coarse
    scan, then a refined cap around the winner), the optimal two-level
    weights solve a closed-form two-variable linear program.  The family
    contains the optimal test's eigenbasis in the limit, so its best value
    is an independent lower bound that approaches the true optimum.
    """
    r, s = as_array(rho), as_array(sigma)
    if r.shape != (2, 2):
        raise ValueError("test family is defined for qubits")
    target = 1.0 - eps

    def fib_sphere(n: int) -> np.ndarray:
        i = np.arange(n) + 0.5
        phi = np.arccos(1.0 - 2.0 * i / n)
        theta = np.pi * (1.0 + 5.0**0.5) * i
        return np.stack(
            [np.cos(theta) * np.sin(phi), np.sin(theta) * np.sin(phi), np.cos(phi)], axis=1
        )

    def best_for_directions(dirs: np.ndarray) -> tuple[float, np.ndarray]:
        best_beta, best_dir = math.inf, dirs[0]
        for u in dirs:
            proj = bloch_density(*u)
            p1 = float(np.trace(proj @ r).real)
            p2 = float(np.trace(r).real) - p1
            q1 = float(np.trace(proj @ s).real)
            q2 = float(np.trace(s).real) - q1
            # minimize a q1 + b q2 over 0 <= a, b <= 1 with a p1 + b p2 >= target
            cands = []
            for a, b in ((1.0, 1.0), (1.0, 0.0), (0.0, 1.0)):
                if a * p1 + b * p2 >= target - 1e-12:
                    cands.append(a * q1 + b * q2)
            for a in (0.0, 1.0):  # boundary a p1 + b p2 = target
                if p2 > 1e-15:
                    b = (target - a * p1) / p2
                    if -1e-12 <= b <= 1.0 + 1e-12:
                        cands.append(a * q1 + min(1.0, max(0.0, b)) * q2)
            for b in (0.0, 1.0):
                if p1 > 1e-15:
                    a = (target - b * p2) / p1
                    if -1e-12 <= a <= 1.0 + 1e-12:
                        cands.append(min(1.0, max(0.0, a)) * q1 + b * q2)
            if cands and min(cands) < best_beta:
                best_beta, best_dir = min(cands), u
        return best_beta, best_dir

    n_coarse = max(1000, int(num_directions * 0.5))
    beta, u0 = best_for_directions(fib_sphere(n_coarse))
    # refine in shrinking caps around the running winner
    cap = 4.0 * math.sqrt(4.0 / n_coarse)
    k = 40
    for _ in range(3):
        basis = np.linalg.svd(u0.reshape(1, 3))[2][1:]  # two tangent directions
        ts = np.linspace(-cap, cap, k)
        local = []
        for a in ts:
            for b in ts:
                v = u0 + a * basis[0] + b * basis[1]
                local.append(v / np.linalg.norm(v))
        beta2, u2 = best_for_directions(np.array(local))
        if beta2 < beta:
            beta, u0 = beta2, u2
        cap = 4.0 * (2.0 * cap / (k - 1))
    return bits(beta)


def classical_composite_value(ps: Sequence[np.ndarray], qs: Sequence[np.ndarray],
                              eps: float) -> float:
    """Exact program value when every state is diagonal, by linear
    programming over the diagonal acceptance weights (independent of the
    operator solver; used as its commuting-case reference)."""
    ps = [np.asarray(p, dtype=float) for p in ps]
    qs = [np.asarray(q, dtype=float) for q in qs]
    dim = ps[0].size
    c_obj = np.concatenate([np.zeros(dim), [1.0]])
    a_ub = np.block(
        [
            [np.stack(qs), -np.ones((len(qs), 1))],
            [-np.stack(ps), np.zeros((len(ps), 1))],
        ]
    )
    b_ub = np.concatenate([np.zeros(len(qs)), -np.full(len(ps), 1.0 - eps)])
    lp = scipy.optimize.linprog(
        c_obj,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(0.0, 1.0)] * dim + [(0.0, None)],
        method="highs",
    )
    if not lp.success:
        raise ArithmeticError(f"classical program failed: {lp.message}")
    return bits(lp.x[-1])


def classical_i_h(p_ab: np.ndarray, eps: float) -> float:
    """I_H(A:B) of the diagonal state ``diag(p_ab)`` (``p_ab[a, b]`` on
    ``a:d_a b:d_b``), by linear programming over diagonal tests.

    The completely dephasing channel on both registers fixes ``rho_AB`` and
    ``rho_B`` and maps ``sigma_A (x) rho_B`` to ``D(sigma_A) (x) rho_B``, so
    by data processing some optimal ``sigma_A`` is diagonal, ``q`` say.
    Between diagonal states a dephased test does as well as any, so
    I_H = -log2 max_q min_m sum_ab m(a, b) q(a) p_B(b) over diagonal tests
    0 <= m <= 1 with sum m p >= 1 - eps.  The objective is bilinear on two
    compact convex sets, so by minimax the order swaps and the inner max
    over q picks the worst ``a``: I_H = -log2 t* for the LP

        minimize t  subject to  sum_b m(a, b) p_B(b) <= t  for every a,
                                sum_ab m(a, b) p(a, b) >= 1 - eps,
                                0 <= m <= 1.
    """
    p = np.asarray(p_ab, dtype=float)
    d_a, d_b = p.shape
    rows = np.kron(np.eye(d_a), p.sum(axis=0))  # row a: p_B on block a of m
    a_ub = np.block([[rows, -np.ones((d_a, 1))], [-p.reshape(1, -1), np.zeros((1, 1))]])
    b_ub = np.concatenate([np.zeros(d_a), [-(1.0 - eps)]])
    lp = scipy.optimize.linprog(
        np.concatenate([np.zeros(d_a * d_b), [1.0]]),
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(0.0, 1.0)] * (d_a * d_b) + [(0.0, None)],
        method="highs",
    )
    if not lp.success:
        raise ArithmeticError(f"classical I_H program failed: {lp.message}")
    return bits(lp.x[-1])


def highs_test_weights(p: np.ndarray, q: np.ndarray, floor: float) -> np.ndarray:
    """Reference for ``composite._test_lp``'s weights: HiGHS (through
    ``linprog``) on minimize t subject to ``q_j . c <= t``,
    ``p_i . c >= floor``, ``0 <= c <= 1``, clipped to the box and lifted by
    ``composite._lift_acceptance``, since HiGHS meets the acceptance rows
    only to its primal feasibility tolerance (about 1e-7)."""
    dim = p.shape[1]
    lp = scipy.optimize.linprog(
        np.concatenate([np.zeros(dim), [1.0]]),
        A_ub=np.block([[q, -np.ones((len(q), 1))], [-p, np.zeros((len(p), 1))]]),
        b_ub=np.concatenate([np.zeros(len(q)), np.full(len(p), -floor)]),
        bounds=[(0.0, 1.0)] * dim + [(0.0, None)],
        method="highs",
    )
    if not lp.success:
        raise ArithmeticError(f"test reconstruction failed: {lp.message}")
    return _lift_acceptance(p, np.clip(lp.x[:dim], 0.0, 1.0), floor)


def exact_test_lp(p: np.ndarray, q: np.ndarray, floor: float) -> tuple[Fraction, Fraction]:
    """``(t*, s*)`` for ``composite._test_lp``'s program on the given floats,
    in exact rational arithmetic: t* is the least t with ``q c <= t``,
    ``p c >= floor``, ``0 <= c <= 1``, and s* the least ``sum(c)`` among
    those c with ``max(q c) = t*``.

    A dense-tableau simplex with Bland's rule and no tolerance anywhere; the
    second objective runs on the optimal face, with every nonbasic column of
    nonzero first-phase reduced cost held at its bound."""
    (k1, dim), k2 = p.shape, len(q)
    rows, cols = k1 + k2, dim + 1 + k1 + k2
    tab = [[Fraction(float(v)) for v in row] for row in np.concatenate([q, p])]
    for r, row in enumerate(tab):
        row += [Fraction(-1 if r < k2 else 0)]
        row += [Fraction((1 if r < k2 else -1) * (s == r)) for s in range(rows)]
        row.append(Fraction(0 if r < k2 else Fraction(float(floor))))
    lo = [0] * dim + [-math.inf] + [0] * rows
    hi = [1] * dim + [math.inf] * (1 + rows)
    x = [Fraction(1)] * dim + [Fraction(0)] * (1 + rows)
    sums = [sum(row[:dim]) for row in tab[:k2]]
    top = sums.index(max(sums))
    basis = [dim if r == top else dim + 1 + r for r in range(rows)]
    for r, col in enumerate(basis):
        _exact_pivot(tab, r, col)

    def values():
        nonbasic = [k for k in range(cols) if k not in basis and x[k]]
        return [row[-1] - sum(row[k] * x[k] for k in nonbasic) for row in tab]

    def optimize(cost, fixed):
        while True:
            priced = [(cost[b], row) for b, row in zip(basis, tab) if cost[b]]
            red = [cost[k] - sum(cb * row[k] for cb, row in priced) for k in range(cols)]
            free = [k for k in range(cols) if k not in basis and k not in fixed]
            enter = next((k for k in free if (red[k] > 0 if x[k] == hi[k] else red[k] < 0)),
                         None)
            if enter is None:
                return red
            sign = 1 if red[enter] < 0 else -1  # direction in which x_enter moves
            steps = [(hi[enter] - lo[enter], -1, None)]
            for r, (b, v) in enumerate(zip(basis, values())):
                g = sign * tab[r][enter]  # x_b falls by g per unit step
                limit = lo[b] if g > 0 else hi[b]
                if g != 0 and math.isfinite(limit):
                    steps.append(((v - limit) / g, b, r))
            step, _, r = min(steps, key=lambda s: (s[0], s[1]))
            if r is None:
                x[enter] = hi[enter] if sign > 0 else lo[enter]
                continue
            b = basis[r]
            x[b] = Fraction(lo[b] if sign * tab[r][enter] > 0 else hi[b])
            _exact_pivot(tab, r, enter)
            basis[r] = enter

    red = optimize([0] * dim + [1] + [0] * rows, set())
    fixed = {k for k in range(cols) if k not in basis and red[k] != 0}
    optimize([1] * dim + [0] * (1 + rows), fixed)
    final = dict(zip(basis, values()))
    return final[dim], sum(final.get(k, x[k]) for k in range(dim))


def _exact_pivot(tab: list, r: int, col: int) -> None:
    pivot = tab[r][col]
    tab[r] = [v / pivot for v in tab[r]]
    for i, row in enumerate(tab):
        if i != r and row[col] != 0:
            f = row[col]
            tab[i] = [a - f * b for a, b in zip(row, tab[r])]
