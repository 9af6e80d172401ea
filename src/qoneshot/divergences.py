"""Entropic quantities and one-shot hypothesis-testing divergences.

The optimal-test solvers here come in certified pairs: the spectral
Neyman-Pearson routine for the plain hypothesis-testing divergence, and a
column-generation saddle solver for the mutual-information-like variants
that minimize over one marginal.  Every solver reports a value that is a
*certified* bound realized by the returned test operator, together with the
bracket between its lower and upper estimates.  The classical linear
programming value ``classical_np_value`` is an independent cross-check that
never shares the optimization path.

All logarithms are base 2; values are in bits.  A support violation in
``relative_entropy``, ``relative_entropy_variance``, or ``d_max`` yields
``math.inf`` rather than an exception.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import math
from typing import Sequence

import numpy as np
import scipy.optimize

from .qcore import (
    ATOL,
    ComplexMatrix,
    DensityMatrix,
    LayoutError,
    _eigh,
    _eigvalsh,
    _hermitian_error,
    _sandwich,
    as_array,
    partial_trace,
    spectral,
    whiten,
)

#: eigenvalues within this band of zero count as the threshold boundary block
EDGE = 1e-12
#: tolerance for plain Neyman-Pearson values
TOL_NP = 1e-8
#: column-generation rounds ``i_h`` runs at most
_MAX_ROUNDS = 40
#: weight step of ``i_h_hat``'s scan over two second-register vertices
_HAT_GRID = 0.02


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, eq=False)
class TestOperator:
    """A measurement operator 0 <= M <= I with its recorded error profile.

    ``type1_error`` is 1 - Tr[M rho] against the null state it was built
    for; ``type2_bound`` is the certified bound on Tr[M sigma] over the
    alternative family (a single state, or the worst case of an ensemble).
    ``threshold`` is the spectral threshold the test was built at, when the
    solver has one; ``iterations`` counts inner eigensolves or
    Neyman-Pearson calls; ``certificate_gap_bits`` brackets the distance
    between the reported value and the solver's matching upper estimate.
    """

    __test__ = False  # not a test class, despite the pytest-like name

    matrix: ComplexMatrix
    type1_error: float
    type2_bound: float
    threshold: float | None = None
    iterations: int = 0
    certificate_gap_bits: float = 0.0

    def __post_init__(self):
        a = self.matrix.entries
        if not _hermitian_error(a) <= ATOL:
            raise ValueError("test operator is not Hermitian within tolerance")
        w = _eigvalsh(a)
        if not (w[0] >= -ATOL and w[-1] <= 1 + ATOL):
            raise ValueError(
                f"test operator eigenvalues [{w[0]:.3e}, {w[-1]:.3e}] outside [0, 1]"
            )

    @property
    def a(self) -> np.ndarray:
        return self.matrix.entries


@dataclasses.dataclass(frozen=True, eq=False)
class StateEnsemble:
    """A convex set of states represented by its vertices."""

    vertices: tuple[DensityMatrix, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("ensemble needs at least one vertex")
        d0, lay0 = self.vertices[0].dim, self.vertices[0].layout
        for v in self.vertices[1:]:
            if v.dim != d0 or v.layout != lay0:
                raise LayoutError("ensemble vertices must share one layout")

    @property
    def dim(self) -> int:
        return self.vertices[0].dim

    def mix(self, weights: Sequence[float]) -> np.ndarray:
        w = np.asarray(weights, dtype=float)
        if (w.size != len(self.vertices) or not np.all(np.isfinite(w))
                or np.any(w < -1e-12)):
            raise ValueError("weights must be a distribution over the vertices")
        w = np.clip(w, 0.0, None)
        total = w.sum()
        if not total > 0.0:
            raise ValueError("weights must have a positive sum")
        w = w / total
        return sum(wi * v.a for wi, v in zip(w, self.vertices))


def _traces(m: np.ndarray, ops) -> np.ndarray:
    """``Tr[m x]`` for each ``x`` of the ``(k, d, d)`` stack ``ops`` (or a
    sequence of ``d x d`` arrays); a Type-1 error is ``1 - Tr[m R]``.  An
    elementwise product and sum, with no BLAS contraction over the stack,
    so the result does not depend on the BLAS thread count."""
    return (np.asarray(ops) * m.T).sum(axis=(1, 2)).real


def _certified(m: np.ndarray, nulls, level: float, dual: float, iterations: int,
               threshold: float | None = None) -> tuple[float, TestOperator]:
    """``(value, test)`` for a test ``m`` that attains the Type-2 level
    ``level``, certified against the solver's dual estimate ``dual`` of the
    same level.

    The value is ``bits(level)``; the Type-1 error is the worst
    ``1 - Tr[m R]`` over ``nulls``; the gap is ``bits(dual) - value``,
    clipped at 0, and 0 when both ends are infinite (+inf when only the
    dual end is)."""
    value, upper = bits(level), bits(dual)
    return value, TestOperator(
        matrix=ComplexMatrix(m),
        type1_error=float(np.max(1.0 - _traces(m, nulls))),
        type2_bound=level,
        threshold=threshold,
        iterations=iterations,
        certificate_gap_bits=0.0 if upper == value else max(0.0, upper - value),
    )


# ---------------------------------------------------------------------------
# entropic quantities
# ---------------------------------------------------------------------------

def bits(p: float) -> float:
    """-log2 p, or +inf when p is at most 1e-300 (a zero up to rounding)."""
    return math.inf if p <= 1e-300 else -math.log2(p)


def _supported(rho, sigma):
    """``(r, s, W, inside)``: the arrays of rho and sigma, ``W`` whitening
    sigma on its support, and whether rho puts at most ``ATOL`` weight on
    ker(sigma).  The kernel is sigma's eigenvalues at or below ``EDGE``
    times its largest.  One eigensolve."""
    r, s = as_array(rho), as_array(sigma)
    if r.shape != s.shape:
        raise LayoutError(f"dimension mismatch {r.shape} vs {s.shape}")
    white, ker = whiten(s, EDGE)
    inside = float(np.einsum("ij,ij->", ker.conj(), r @ ker).real) <= ATOL
    return r, s, white, inside


def _log_ratio(r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """log rho - log sigma, each logarithm taken on its support (eigenvalues
    above ``EDGE``); Tr[rho (log rho - log sigma)] is D(rho||sigma)."""
    return spectral(r, np.log2, EDGE) - spectral(s, np.log2, EDGE)


def relative_entropy(rho, sigma) -> float:
    """Tr[rho (log rho - log sigma)] in bits; inf on support violation."""
    r, s, _, inside = _supported(rho, sigma)
    if not inside:
        return math.inf
    d = float(np.trace(r @ _log_ratio(r, s)).real)
    return 0.0 if d < 0.0 else d


def relative_entropy_variance(rho, sigma) -> float:
    """Tr[rho (log rho - log sigma)^2] - D(rho||sigma)^2, in bits squared."""
    r, s, _, inside = _supported(rho, sigma)
    if not inside:
        return math.inf
    ell = _log_ratio(r, s)
    d = float(np.trace(r @ ell).real)
    second = float(np.trace(r @ ell @ ell).real)
    return second - d * d


def d_max(rho, sigma) -> float:
    """Smallest k with rho <= 2^k sigma: log2 lambda_max(W^dag rho W), W
    whitening sigma on its support."""
    r, _, white, inside = _supported(rho, sigma)
    if not inside:
        return math.inf
    return math.log2(float(_eigvalsh(white.conj().T @ r @ white)[-1]))


def i_max(rho: DensityMatrix) -> float:
    """Max-divergence of a bipartite state from the product of its marginals."""
    _, _, rho_a, rho_b = _split_bipartite(rho)
    return d_max(rho.a, np.kron(rho_a, rho_b))


# ---------------------------------------------------------------------------
# Neyman-Pearson solver
# ---------------------------------------------------------------------------

def _jump_points(r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Sorted distinct finite thresholds t > 0 at which Tr[r {r - t s > 0}]
    can jump: the finite generalized eigenvalues of the pencil (r, s).

    On the support of r + s the pencil is regular.  Whitening by
    (r + s)^{-1/2} turns r into an operator with eigenvalues mu in [0, 1],
    and r x = t s x holds at t = mu / (1 - mu).  Directions where either
    state holds at most ``EDGE`` of the pair's weight (mu = 0: outside
    supp r; mu = 1: outside supp s) give no finite jump.  Two eigensolves.
    """
    white = whiten(r + s, EDGE)[0]
    mu = _eigvalsh(white.conj().T @ r @ white)
    mu = mu[(mu > EDGE) & (mu < 1.0 - EDGE)]
    # mu ascends and mu / (1 - mu) is monotone in IEEE arithmetic, so the
    # thresholds ascend and the distinct ones are the first of each run
    t = mu / (1.0 - mu)
    first = np.ones(t.size, dtype=bool)
    first[1:] = t[1:] != t[:-1]
    return t[first]


def _slope(t: float, w: np.ndarray, v: np.ndarray, rv: np.ndarray, k: int) -> float:
    """f'(t) of f(t) = Tr[r {r - t s > 0}] at ``w, v = eigh(r - t s)``,
    ``rv = r v``, counting ``w[k:]`` as positive: V^dag (r - t s) V is
    diagonal, so off it V^dag s V = V^dag r V / t, and eigenvector
    perturbation gives -(2/t) sum_{i >= k > j} |(V^dag r V)_ij|^2 / (w_i - w_j)."""
    x = v[:, k:].conj().T @ rv[:, :k]
    return -2.0 / t * float(((x.real ** 2 + x.imag ** 2) / (w[k:, None] - w[:k])).sum())


def _np_solve(r: np.ndarray, s: np.ndarray, eps: float, t0: float | None = None):
    """Optimal test for Tr[M r] >= 1 - eps minimizing Tr[M s].

    Returns (beta, M, threshold, iterations, smooth); ``iterations`` counts
    every eigensolve, and ``smooth`` is whether the solve closed on a smooth
    piece, where its threshold makes a good ``t0`` for a nearby solve.  The
    optimal test is {r - t s > 0} plus a fractional weight on the boundary
    block {r - t s = 0} (Wang-Renner, arXiv:1007.5456).  Its Type-1 curve
    f(t) = Tr[r {r - t s > 0}] does not increase with t, jumps only at the
    finite generalized eigenvalues of (r, s), and is smooth in between.  One
    loop keeps a bracket lo < hi with f(lo+) > 1 - eps > f(hi-).  A Newton
    step (``_slope``) from the probed end nearest f = 1 - eps + 5e-13 aims
    there; it may follow only a probe that halved that distance:

    1. ``t0``, if finite and positive (else ignored), is probed first, and
       Newton steps follow while they may;
    2. the bracket is a smooth piece when r - t s has as many eigenvalues
       above the ``EDGE`` band just above lo as just below hi (they do not
       increase with t, so none crossed zero), or when no listed jump lies
       in it.  Otherwise ``_jump_points`` lists the jumps (two eigensolves,
       once), and a binary search probes those inside; at a jump the band
       gives both one-sided limits of f from one eigensolve, and a target
       inside the jump closes there with a fractional boundary block that
       meets the Type-1 constraint exactly;
    3. on a smooth piece, a Newton step that may not be taken or would
       leave the open bracket is a bisection in mu = t / (1 + t) instead;
    4. past the last jump f tends to Tr[r P], P the projector onto ker(s)
       (from ``whiten``: one eigensolve of s, computed only here).  If
       that meets the target, D_H = +inf exactly: the test is P, with
       beta = 0 and threshold +inf.  Otherwise t doubles until f falls
       below the target; if rounding keeps it above up to 2^200, the test
       at 2^200 is reported.

    A bracket whose lo end was probed within 1e-12 above the target closes
    there.  One narrower than 1e-12 in f, or than 8e-16 (1 + hi) in t,
    closes at lo with the boundary band widened to the bracket's scale.
    Either way the returned test meets Tr[M r] >= 1 - eps with no solver
    slack.
    """
    target, iters, jumps = 1.0 - eps, 0, None

    def pieces(t: float, band: float):
        # eigenvalues ascend, so {|w| <= band} is the run [lo_cut, cut) and
        # {w > band} the suffix from cut; diag holds (V^dag r V)_kk
        nonlocal iters
        iters += 1
        w, v = _eigh(r - t * s)
        rv = r @ v
        diag = (v.conj() * rv).sum(axis=0).real.tolist()
        ws = w.tolist()
        lo_cut, cut = bisect.bisect_left(ws, -band), bisect.bisect_right(ws, band)
        return math.fsum(diag[cut:]), math.fsum(diag[lo_cut:cut]), (t, w, v, rv, lo_cut, cut)

    def close(t_pos, t_bnd, basis):
        _, _, v, _, lo_cut, cut = basis
        frac = 0.0
        if t_bnd > 1e-300:
            frac = min(1.0, max(0.0, (target - t_pos) / t_bnd))
        pos = v[:, cut:]
        m = pos @ pos.conj().T
        if frac > 0.0 and cut > lo_cut:
            bnd = v[:, lo_cut:cut]
            m = m + frac * (bnd @ bnd.conj().T)
        return m

    def newton():
        # from the end nearest the aim, counting as positive the eigenvalues
        # on f's side of it; None unless the step stays inside (lo, hi)
        if at_hi is None or (at_lo is not None and f_lo - aim <= aim - f_hi):
            f, (_, _, (t, w, v, rv, _, k)) = f_lo, at_lo
        else:
            f, (_, _, (t, w, v, rv, k, _)) = f_hi, at_hi
        slope = _slope(t, w, v, rv, k)
        if slope < 0.0:
            t = t + (aim - f) / slope
            if lo < t < hi:
                return t
        return None

    def widened(lo: float, hi: float, at_lo):
        # degenerate bracket: widen the boundary band to its scale; s is
        # positive semidefinite, so its norm is its largest eigenvalue
        band = max(EDGE, 4.0 * (hi - lo) * float(_eigvalsh(s)[-1]))
        return close(*(at_lo if band == EDGE and at_lo is not None else pieces(lo, band)))

    aim = target + 5e-13
    lo, f_lo, at_lo = 0.0, float(np.trace(r).real), None
    hi, f_hi, at_hi = math.inf, 0.0, None
    # least |f - aim| over the probes, and whether the last probe failed
    # to halve it (then no Newton step follows)
    near, stalled, in_tail, smooth = math.inf, False, False, True
    t = t0 if t0 is not None and 0.0 < t0 < math.inf else None
    for _ in range(300):
        if t is None:
            # lo's count of eigenvalues above the band against hi's at or above -band
            on_piece = at_lo is not None and at_hi is not None and at_lo[2][5] == at_hi[2][4]
            if not stalled and (on_piece or (jumps is None and near < math.inf)):
                t = newton()
            if t is None and not on_piece:
                if jumps is None:
                    iters += 2
                    jumps = _jump_points(r, s).tolist()
                # the jumps inside (lo, hi) are jumps[i:j]
                i, j = bisect.bisect_right(jumps, lo), bisect.bisect_left(jumps, hi)
                if i < j:
                    t = jumps[(i + j) // 2]
                elif hi == math.inf:
                    if not in_tail:
                        in_tail = True
                        iters += 1
                        ker = whiten(s, EDGE)[1]
                        kernel = ker @ ker.conj().T
                        if float(np.trace(r @ kernel).real) >= target:
                            # D_H = +inf: ker(s) alone meets the Type-1 constraint
                            return 0.0, kernel, math.inf, iters, False
                    t = max(1.0, math.ldexp(1.0, math.frexp(lo)[1]))
                    if t >= 2.0**200:
                        # rounding kept f above the target although Tr[r P] is below it
                        m = close(*pieces(t, EDGE))
                        return float(np.trace(m @ s).real), m, t, iters, False
                elif not stalled:
                    t = newton()
            if t is None:
                # bisect in mu = t / (1 + t), which stays balanced when hi >> lo
                t = (lo + hi + 2.0 * lo * hi) / (2.0 + lo + hi)
                if not lo < t < hi:
                    t = 0.5 * (lo + hi)
        t_pos, t_bnd, basis = pieces(t, EDGE)
        if t_pos <= target <= t_pos + t_bnd:
            m, thr, smooth = close(t_pos, t_bnd, basis), t, False
            break
        if t_pos > target:
            lo, f_lo, at_lo = t, t_pos, (t_pos, t_bnd, basis)
        else:
            hi, f_hi, at_hi = t, t_pos + t_bnd, (t_pos, t_bnd, basis)
        gap = abs((t_pos if t_pos > target else t_pos + t_bnd) - aim)
        stalled, near, t = gap > 0.5 * near, min(near, gap), None
        if at_lo is not None and f_lo - target <= 1e-12:
            m, thr = close(*at_lo), lo
            break
        if hi < math.inf and (f_lo - f_hi <= 1e-12 or hi - lo <= 8e-16 * (1.0 + hi)):
            m, thr = widened(lo, hi, at_lo), lo
            break
    else:
        m, thr = widened(lo, hi, at_lo), lo
    m = 0.5 * (m + m.conj().T)
    beta = float(np.trace(m @ s).real)
    return beta, m, thr, iters, smooth


def hypothesis_test_divergence(rho, sigma, eps: float) -> tuple[float, TestOperator]:
    """Best Type-2 exponent among tests with Type-1 error at most ``eps``.

    Returns the value in bits and the optimal test; the value is
    ``-log2 Tr[M sigma]`` for the returned M, optimal within ``TOL_NP``.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    r, s = as_array(rho), as_array(sigma)
    if r.shape != s.shape:
        raise LayoutError(f"dimension mismatch {r.shape} vs {s.shape}")
    beta, m, thr, iters, _ = _np_solve(r, s, eps)
    return _certified(m, [r], beta, beta, iters, thr)


def classical_np_value(p: np.ndarray, q: np.ndarray, eps: float) -> float:
    """Classical Neyman-Pearson value by linear programming on diagonals.

    Independent check for commuting instances; never used by the quantum
    solver.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    res = scipy.optimize.linprog(
        c=q,
        A_ub=-p.reshape(1, -1),
        b_ub=[-(1.0 - eps)],
        bounds=[(0.0, 1.0)] * p.size,
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"classical Neyman-Pearson LP failed: {res.message}")
    beta = max(res.fun, 0.0)
    return bits(beta)


# ---------------------------------------------------------------------------
# saddle solvers: minimize over one tensor factor
# ---------------------------------------------------------------------------

def _bipartite_factors(rho: DensityMatrix):
    """The two ``(label, dimension)`` factors of a state on exactly two registers."""
    if len(rho.layout.factors) != 2:
        raise LayoutError("need a state on exactly two registers")
    return rho.layout.factors


def _split_bipartite(rho: DensityMatrix):
    (a_lbl, d_a), (b_lbl, d_b) = _bipartite_factors(rho)
    rho_a = partial_trace(rho, {a_lbl}).a
    rho_b = partial_trace(rho, {b_lbl}).a
    return d_a, d_b, rho_a, rho_b


def _conditional_operator(m: np.ndarray, sq_b: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """G(M) = Tr_B[(I (x) sqrt(rho_B)) M (I (x) sqrt(rho_B))]; Hermitian, and
    max_sigma Tr[M (sigma (x) rho_B)] = lambda_max(G(M))."""
    t = _sandwich(sq_b, m, sq_b, (d_a, d_b), [1]).reshape(d_a, d_b, d_a, d_b)
    out = np.einsum("ikjk->ij", t)
    return 0.5 * (out + out.conj().T)


def _best_mixture(nulls, alts, eps, w0=None, t0=None):
    """Maximize beta(mu, w) = beta_NP(mix_mu(nulls) || mix_w(alts)) over
    both simplices, one ``_np_solve`` per evaluation.

    beta_NP(r || s) is the least Type-2 error against s of a test accepting
    r with probability at least 1 - eps.  In w it is concave (a minimum of
    maps linear in w), and the optimal test's per-alternative traces form
    a supergradient.  In mu it is the Lagrangian dual of the composite
    program (one test accepting every null, bounding every alternative),

        g(w, lam) = (1-eps) sum_i lam_i - Tr[(sum_i lam_i R_i - sum_j w_j Q_j)_+],

    maximized along the ray lam = tau mu: by Neyman-Pearson strong duality
    the best tau is 1/t, t the solver's threshold, and the maximum is
    beta_NP.  g is jointly concave, so the best points of two rays mix into
    a point of an intermediate ray that is at least as good: beta is
    quasi-concave in mu.  A local maximum (mu, w) of beta at a finite t
    gives a local, hence global, maximum (w, mu / t) of g, since every
    point near it has its weights near w and lies on a ray near mu, where
    g is at most beta.  By the envelope theorem the
    mu-gradient is -Tr[M R_i] / t, up to a constant that the simplex
    constraint absorbs, with 1/t taken as 0 when t = inf (then beta = 0).
    So one sequential solve from the uniform start (or ``w0`` for the
    alternatives) finds the maximum.  Only a family of two or more
    operators carries weights.  Evaluations are memoized because value
    and gradient are requested at the same points.  SLSQP moves in small
    steps, so each solve starts at the threshold of the one before when
    that closed on a smooth piece, and the first at ``t0``.

    Returns (mu, w, beta, M, threshold, per_alternative, solves).
    """
    kn, ka = len(nulls), len(alts)
    null_stack, alt_stack = np.asarray(nulls), np.asarray(alts)
    cut = kn if kn >= 2 else 0  # x[:cut] weighs the nulls
    size = cut + (ka if ka >= 2 else 0)  # x[cut:] weighs the alternatives
    solves = 0
    best = None  # (beta, x, mu, w, m, threshold, per)
    memo: dict[bytes, tuple] = {}
    one = np.ones(1)  # the mixture weights of a one-operator family

    def simplex(v, k):
        v = np.clip(np.asarray(v, dtype=float), 0.0, None)
        tot = v.sum()
        return np.ones(k) / k if tot <= 0 else v / tot

    def evaluate(x):
        nonlocal solves, t0, best
        mu = simplex(x[:cut], kn) if cut else one
        w = simplex(x[cut:], ka) if size > cut else one
        key = np.round(np.concatenate([mu, w]), 13).tobytes()
        if key not in memo:
            r = null_stack[0] if kn == 1 else (mu[:, None, None] * null_stack).sum(axis=0)
            sigma = (w[:, None, None] * alt_stack).sum(axis=0)
            beta, m, thr, _, smooth = _np_solve(r, sigma, eps, t0)
            t0 = thr if smooth else None  # the next solve's start
            solves += 1
            per = _traces(m, alt_stack)
            grad = per[: size - cut]
            if cut:
                inv_t = 0.0 if math.isinf(thr) else 1.0 / thr
                grad = np.concatenate([-inv_t * _traces(m, null_stack), grad])
            memo[key] = (beta, grad)
            if best is None or beta > best[0]:
                best = (beta, np.concatenate([mu[:cut], w[: size - cut]]), mu, w, m, thr, per)
        return memo[key]

    w_start = np.ones(size - cut) / ka if w0 is None else np.asarray(w0, dtype=float)
    evaluate(np.concatenate([np.ones(cut) / kn, w_start]))
    if size:
        constraints = []
        for part in (slice(0, cut), slice(cut, size)):
            if part.stop > part.start:
                indicator = np.zeros(size)
                indicator[part] = 1.0
                constraints.append({"type": "eq", "fun": lambda x, p=part: np.sum(x[p]) - 1.0,
                                    "jac": lambda x, g=indicator: g})
        scipy.optimize.minimize(
            lambda x: -evaluate(x)[0],
            best[1],
            jac=lambda x: -evaluate(x)[1],
            method="SLSQP",
            bounds=[(0.0, 1.0)] * size,
            constraints=constraints,
            options={"maxiter": 40, "ftol": 1e-13},
        )
    beta, _, mu, w, m, thr, per = best
    return mu, w, beta, m, thr, per, solves


def _ih_rounds(rho: DensityMatrix, eps: float, gap_tol: float):
    """``i_h``'s column generation.  Before each round it yields
    ``(bits(lam_best), None)``, a lower bound on the final value that never
    decreases (``lam_best`` is a running minimum); once the stop rule fires,
    the final ``(value, test)``.  Inputs are checked before the first yield."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if not 0.0 <= gap_tol < math.inf:
        raise ValueError(f"gap_tol must be finite and non-negative, got {gap_tol}")
    d_a, d_b, rho_a, rho_b = _split_bipartite(rho)
    r = rho.a
    sq_b = spectral(rho_b, np.sqrt)
    prods = [np.kron(rho_a, rho_b)]
    w0 = t0 = None  # each round starts from the weights and threshold of the last
    total_solves = 0
    lam_best = math.inf
    m_best = None
    beta_best = 0.0
    stale = 0
    for _ in range(_MAX_ROUNDS):
        yield bits(lam_best), None
        _, w, beta, m, t0, _, solves = _best_mixture([r], prods, eps, w0, t0)
        total_solves += solves
        beta_best = max(beta_best, beta)
        g = _conditional_operator(m, sq_b, d_a, d_b)
        lam_all, vecs = _eigh(g)
        lam = float(lam_all[-1])
        if m_best is None or lam < lam_best - 1e-12 * max(1.0, lam):
            lam_best, m_best, stale = lam, m, 0
        else:
            stale += 1
        if lam_best <= beta_best * (1.0 + gap_tol) + 1e-15 or stale >= 4:
            break
        top = vecs[:, -1:]
        prods.append(np.kron(top @ top.conj().T, rho_b))
        w0 = np.append(w * (1.0 - 1e-3), 1e-3)
    yield _certified(m_best, [r], lam_best, beta_best, total_solves)


def i_h(
    rho: DensityMatrix, eps: float, *, gap_tol: float = 1e-9
) -> tuple[float, TestOperator]:
    """Hypothesis-testing mutual information: minimize the divergence over
    states on the first register, with the second register's marginal fixed.

    Solved by column generation: the inner minimization over candidate
    first-register states grows an atom set from the top eigenvector of the
    conditional operator G(M) until lambda_max(G(M)) certifies optimality.
    The reported value is ``-log2 lambda_max(G(M*))``, a bound the returned
    test realizes *uniformly* over all first-register states.
    """
    return list(_ih_rounds(rho, eps, gap_tol))[-1]


def i_h_min(
    states: Sequence[DensityMatrix], eps: float, *, gap_tol: float = 1e-9
) -> tuple[float, TestOperator]:
    """``i_h`` of the member with the least value, bitwise ``min(i_h(rho)[0]
    for rho in states)``, with its test.  Best-first: the member with the
    least running value (lowest index on ties) runs the next round, until
    it is finished; every other member's value is at least its running
    value, so members certainly above the minimum stop early."""
    if not states:
        raise ValueError("need at least one state")
    runs = [_ih_rounds(rho, eps, gap_tol) for rho in states]
    now = [next(run) for run in runs]
    while True:
        k = min(range(len(runs)), key=lambda i: now[i][0])
        if now[k][1] is not None:
            return now[k]
        now[k] = next(runs[k])


def i_h_tilde(
    rho: DensityMatrix,
    sigma_b: DensityMatrix,
    s_a: StateEnsemble,
    eps: float,
) -> tuple[float, TestOperator]:
    """Divergence minimized over a restricted convex set on the first
    register, with a fixed state on the second.

    The minimization over the convex hull is solved on the vertex simplex
    (the inner objective is linear in the mixture for a fixed test, so
    vertex verification suffices).  The reported value is certified by the
    returned test against every vertex simultaneously.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    (_, d_a), (_, d_b) = _bipartite_factors(rho)
    if s_a.dim != d_a:
        raise LayoutError(f"ensemble dimension {s_a.dim} != first register {d_a}")
    if sigma_b.dim != d_b:
        raise LayoutError(f"fixed state dimension {sigma_b.dim} != second register {d_b}")
    prods = [np.kron(v.a, sigma_b.a) for v in s_a.vertices]
    _, _, beta, m, _, per, solves = _best_mixture([rho.a], prods, eps)
    return _certified(m, [rho.a], float(np.max(per)), beta, solves)


def i_h_hat(
    rho: DensityMatrix,
    s_a: StateEnsemble,
    s_b: StateEnsemble,
    eps: float,
) -> tuple[float, TestOperator]:
    """Divergence minimized over restricted sets on both registers.

    The outer minimization over second-register mixtures is a plain scan
    (the outer objective need not be convex): two vertices are scanned on a
    weight grid of step ``_HAT_GRID`` followed by a local golden-section
    polish, three or more on a simplex lattice of step 0.1.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    _, (_, d_b) = _bipartite_factors(rho)
    if s_b.dim != d_b:
        raise LayoutError(f"ensemble dimension {s_b.dim} != second register {d_b}")
    k = len(s_b.vertices)
    lay_b = s_b.vertices[0].layout

    def at_weights(wb) -> tuple[float, TestOperator]:
        sig = DensityMatrix(ComplexMatrix(s_b.mix(wb)), lay_b)
        return i_h_tilde(rho, sig, s_a, eps)

    if k == 1:
        return at_weights([1.0])

    if k == 2:
        n = round(1.0 / _HAT_GRID)
        grid = [np.array([i / n, 1.0 - i / n]) for i in range(n + 1)]
    else:
        # step-1/10 lattice, lexicographic in all but the last weight; the
        # scan keeps the first of equal values, so the order is part of the result
        grid = [np.array([*c, 10 - sum(c)], dtype=float) / 10
                for c in itertools.product(range(11), repeat=k - 1) if sum(c) <= 10]
    best_w, best = None, None
    for wb in grid:
        val, test = at_weights(wb)
        if best is None or val < best[0]:
            best, best_w = (val, test), wb
    if k == 2:
        # golden-section polish around the best grid weight
        lo = max(0.0, best_w[0] - _HAT_GRID)
        hi = min(1.0, best_w[0] + _HAT_GRID)
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        x1 = hi - phi * (hi - lo)
        x2 = lo + phi * (hi - lo)
        f1, t1 = at_weights([x1, 1.0 - x1])
        f2, t2 = at_weights([x2, 1.0 - x2])
        for _ in range(25):
            if f1 <= f2:
                hi, x2, f2, t2 = x2, x1, f1, t1
                x1 = hi - phi * (hi - lo)
                f1, t1 = at_weights([x1, 1.0 - x1])
            else:
                lo, x1, f1, t1 = x1, x2, f2, t2
                x2 = lo + phi * (hi - lo)
                f2, t2 = at_weights([x2, 1.0 - x2])
        cand = (f1, t1) if f1 <= f2 else (f2, t2)
        if cand[0] < best[0]:
            best = cand
    return best
