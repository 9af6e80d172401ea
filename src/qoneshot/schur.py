"""Schur-Weyl duality for qubits: the spin-j blocks of N-qubit operators.

On ``(C^2)^(x N)`` the collective action of ``GL(2)`` (``a^(x N)``) and the
permutations of the N qubits commute, and the space splits as
``sum_j V_j (x) K_j``: ``V_j`` carries spin ``j`` (dimension ``2j + 1``) and
``K_j`` is a multiplicity space of dimension ``m_j`` on which every
permutation-invariant operator built from the collective action is the
identity (Bacon-Chuang-Harrow, quant-ph/0407082).  In block ``j``:

* the collective operator ``sum_k |a><b|_k`` acts as ``E_ab (x) I``, with
  ``E_00 = N/2 + J_z``, ``E_11 = N/2 - J_z``, ``E_01 = J_+``, ``E_10 = J_-``;
* ``a^(x N)`` acts as ``det(a)^(N/2 - j) Sym^(2j)(a) (x) I``.

Spins are passed as ``two_j = 2j``, an integer of the parity of N.  The
basis of ``V_j`` is the Dicke basis ordered by the number ``q`` of ones,
``q = 0..2j``, so ``J_z = j - q``; the highest-weight vector comes first.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "spins",
    "multiplicity",
    "block_weight",
    "spin_operators",
    "collective",
    "sym_power",
]


def spins(n: int) -> range:
    """The values ``two_j = n, n - 2, ..., n mod 2`` of the spins in n qubits."""
    if n < 0:
        raise ValueError(f"need n >= 0 qubits, got {n}")
    return range(n, -1, -2)


def _check_spin(n: int, two_j: int) -> int:
    if not 0 <= two_j <= n or (n - two_j) % 2:
        raise ValueError(f"2j = {two_j} is not a spin of {n} qubits")
    return (n - two_j) // 2


def multiplicity(n: int, two_j: int) -> int:
    """``m_j = C(n, n/2 - j) - C(n, n/2 - j - 1)``, exactly."""
    k = _check_spin(n, two_j)
    return math.comb(n, k) - (math.comb(n, k - 1) if k else 0)


def block_weight(n: int, two_j: int, det: float) -> float:
    """``m_j det^(n/2 - j)`` for ``det >= 0``: the factor by which block j of
    ``a^(x n)`` enters a trace, with ``Sym^(2j)(a)`` left out.  Evaluated in
    log space, so neither factor overflows; ``0^0 = 1``."""
    k = _check_spin(n, two_j)
    if det < 0.0:
        raise ValueError(f"determinant must be >= 0, got {det}")
    if k == 0:
        return 1.0
    if det == 0.0:
        return 0.0
    return math.exp(math.log(multiplicity(n, two_j)) + k * math.log(det))


def spin_operators(two_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(J_z, J_+, J_-)`` in spin ``j``; ``J_+`` lowers the number of ones:
    ``J_+ |q> = sqrt(q (2j - q + 1)) |q - 1>``."""
    if two_j < 0:
        raise ValueError(f"2j must be >= 0, got {two_j}")
    q = np.arange(two_j + 1, dtype=float)
    jz = np.diag(two_j / 2.0 - q)
    jp = np.diag(np.sqrt(q[1:] * (two_j - q[1:] + 1.0)), 1)
    return jz, jp, jp.T.copy()


def collective(n: int, two_j: int) -> np.ndarray:
    """``E[a, b]``: the collective ``sum_k |a><b|_k`` of n qubits in spin j,
    an array of shape ``(2, 2, 2j + 1, 2j + 1)``."""
    _check_spin(n, two_j)
    jz, jp, jm = spin_operators(two_j)
    half = 0.5 * n * np.eye(two_j + 1)
    return np.array([[half + jz, jp], [jm, half - jz]])


def sym_power(a, k: int) -> np.ndarray:
    """``Sym^k(a)``: the 2x2 matrix ``a`` acting on the symmetric subspace of
    k qubits, in the normalized Dicke basis; ``(k + 1) x (k + 1)``.

    In closed form with no ``2^k`` intermediate: ``a`` maps the monomial
    ``x^(k - q) y^q`` to ``(a00 x + a10 y)^(k - q) (a01 x + a11 y)^q``, whose
    coefficients are one convolution of two binomial rows; the Dicke
    normalization rescales entry ``(p, q)`` by ``sqrt(C(k, q) / C(k, p))``.
    For a positive semidefinite ``a`` every term of an entry has the same
    phase, so the sums do not cancel.
    """
    a = np.asarray(a)
    if a.shape != (2, 2):
        raise ValueError(f"need a 2x2 matrix, got shape {a.shape}")
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    (a00, a01), (a10, a11) = a
    binom = [np.array([math.comb(m, i) for i in range(m + 1)], dtype=float) for m in range(k + 1)]
    out = np.empty((k + 1, k + 1), dtype=np.result_type(a, float))
    for q in range(k + 1):
        r = np.arange(k - q + 1)
        s = np.arange(q + 1)
        first = binom[k - q] * a00 ** (k - q - r) * a10**r
        second = binom[q] * a01 ** (q - s) * a11**s
        out[:, q] = np.convolve(first, second)
    scale = np.sqrt(binom[k])
    return out * scale[None, :] / scale[:, None]
