"""Entanglement-assisted coding over finite families of quantum channels.

The sender and receiver share one entangled state per message slot.  To send
a message the sender transmits her half of the matching slot through the
(unknown) channel; the receiver runs a binary acceptance test against every
slot and decodes with the square-root measurement built from the per-slot
operators.  Tests for the individual channels are first dilated to isometries
on a shared qubit ancilla, then their ranges merged into a single projector
that accepts the output of every channel in the family.

Two senders are modeled.  The uninformed sender uses the same shared state
everywhere; its tests come from the mutual-information-type divergence that
is uniform over all first-register states.  The informed sender knows which
channel acts, keeps one shared state per channel grouped into bands of size
s, and its tests are built against the averaged partner marginal, uniform
over the finite set of possible channel outputs.  Both are simulated on one
path: each message owns a band of slots (one slot for the uninformed
sender, s for the informed one), and the decoder sums the merged projector
over the band.  With qubit partners the decoder works on the spin blocks
of the other bands' slots (``qoneshot.schur``), which are far smaller than
the full register space.

All decoding-error probabilities are exact traces of explicitly assembled
operators; nothing is sampled.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .qcore import (
    ATOL,
    DIM_CAP,
    CapacityError,
    Channel,
    ComplexMatrix,
    DensityMatrix,
    LayoutError,
    PureState,
    RegisterLayout,
    _apply,
    _arrange,
    _eigh,
    _eigvalsh,
    _hermitian_error,
    apply_channel,
    as_array,
    maximally_entangled,
    pauli_channel_family,
    random_density,
    rng_from,
    spectral,
    tensor_power,
)
from .divergences import (
    StateEnsemble,
    TestOperator,
    i_h,
    i_h_hat,
    i_h_min,
    i_h_tilde,
    i_max,
    relative_entropy_variance,
)
from .jordan import merge_tests, union_depth
from . import schur

__all__ = [
    "CompoundChannel",
    "CodeParams",
    "SimulationReport",
    "hayashi_nagaoka_check",
    "uninformed_rates",
    "achievable_rate_uninformed",
    "converse_rate",
    "rate_informed",
    "simulate_uninformed",
    "simulate_informed",
    "pauli_compound_example",
    "informed_finite_blocking_bounds",
    "schmidt_state",
    "shared_state_sweep",
]


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, eq=False)
class CompoundChannel:
    """A finite family of channels sharing input and output layouts."""

    channels: tuple[Channel, ...]

    def __post_init__(self):
        chans = tuple(self.channels)
        if not chans:
            raise ValueError("compound channel needs at least one member")
        first = chans[0]
        for ch in chans[1:]:
            if ch.in_layout != first.in_layout or ch.out_layout != first.out_layout:
                raise LayoutError("all member channels must share in/out layouts")
        object.__setattr__(self, "channels", chans)

    @property
    def size(self) -> int:
        return len(self.channels)

    @property
    def dim_in(self) -> int:
        return self.channels[0].dim_in

    @property
    def dim_out(self) -> int:
        return self.channels[0].dim_out


@dataclasses.dataclass(frozen=True, eq=False)
class CodeParams:
    """Rate and error-budget parameters of one code instance.

    ``num_messages`` is derived as ``2^ceil(rate_bits)`` clamped below at one
    message; rate checks always use the unrounded ``rate_bits``.  More than
    ``DIM_CAP`` messages raise ``CapacityError`` (checked on the exponent,
    before ``2^e`` is formed).
    ``shared_state`` is the single shared entangled state of the uninformed
    protocol; informed simulations receive their per-channel states
    separately and ignore it.
    """

    rate_bits: float
    epsilon: float
    eta: float
    shared_state: PureState | None = None
    num_messages: int = 0

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must be in (0, 1), got {self.eta}")
        if not math.isfinite(self.rate_bits):
            raise ValueError(f"rate must be finite, got {self.rate_bits}")
        if self.num_messages == 0:
            e = math.ceil(self.rate_bits)
            if e > math.log2(DIM_CAP):
                raise CapacityError(f"rate {self.rate_bits} needs 2^{e} > {DIM_CAP} messages")
            object.__setattr__(self, "num_messages", 2**e if e > 0 else 1)
        if self.num_messages < 1:
            raise ValueError("need at least one message")
        if self.num_messages > DIM_CAP:
            raise CapacityError(f"{self.num_messages} messages exceed the cap {DIM_CAP}")


@dataclasses.dataclass(frozen=True, eq=False)
class SimulationReport:
    """Exact per-channel decoding errors of one simulated code.

    ``per_channel_error[j]`` is the exact probability of decoding any wrong
    message when ``channel_indices[j]`` is the true channel.  ``bound`` is
    the guarantee ``epsilon + 3 eta`` which applies whenever ``rate_ok`` (the
    unrounded rate satisfies the achievable-rate inequality of the protocol
    that produced this report).  The decoder certificate is read from the
    eigenvalues of ``T = sum_m Lambda(m)``: ``decoder_rank`` is the rank of
    ``T`` over the kernel cutoff and ``decoder_min_kept_eigenvalue`` the
    smallest eigenvalue kept, so a square-root measurement built from the
    wrong ``T`` shows in both; ``povm_gap_min_eig`` is the smallest
    eigenvalue of ``I - sum_m Omega(m)``, and decoder validity means it is
    not below ``-atol``.  ``certified_rate`` is the rate the protocol's
    inequality certifies (the worst test value plus the penalty), and
    ``trivial_decoder`` flags a merged projector that is the identity on its
    register: then ``T = n I`` and every error is exactly ``1 - 1/n``.
    """

    per_channel_error: tuple[float, ...]
    bound: float
    rate_used: float
    channel_indices: tuple[int, ...]
    num_messages: int
    rate_ok: bool
    povm_gap_min_eig: float
    decoder_rank: int = 0
    decoder_min_kept_eigenvalue: float = 0.0
    certified_rate: float = 0.0
    trivial_decoder: bool = False

    def __post_init__(self):
        errs = tuple(float(e) for e in self.per_channel_error)
        if len(errs) != len(self.channel_indices):
            raise ValueError("one error entry per simulated channel index")
        for e in errs:
            if not -ATOL <= e <= 1.0 + ATOL:
                raise ValueError(f"error probability {e} outside [0, 1]")
        object.__setattr__(
            self, "per_channel_error", tuple(min(1.0, max(0.0, e)) for e in errs)
        )

    def to_record(self) -> dict:
        return {
            **dataclasses.asdict(self),
            "within_bound": [e <= self.bound + ATOL for e in self.per_channel_error],
        }


# ---------------------------------------------------------------------------
# the square-root-decoder operator inequality
# ---------------------------------------------------------------------------

def hayashi_nagaoka_check(s, t, c: float) -> dict:
    """Certify the square-root-decoder operator inequality.

    For ``0 <= S <= I``, ``T >= 0`` and ``c > 0``::

        I - (S+T)^(-1/2) S (S+T)^(-1/2)  <=  (1+c)(I-S) + (2+c+1/c) T

    The inverse square root is taken on the support of ``S+T``; on its
    kernel the left side is the identity and the right side dominates, so
    closed operator bounds (eigenvalues touching 0 or 1) are accepted.
    Returns an eigenvalue certificate of the gap; raises if the gap dips
    below ``-atol``.
    """
    ss, tt = as_array(s), as_array(t)
    if not c > 0.0:
        raise ValueError(f"constant c must be positive, got {c}")
    if ss.shape != tt.shape or ss.ndim != 2 or ss.shape[0] != ss.shape[1]:
        raise LayoutError(f"S and T must be square of equal size, got {ss.shape}, {tt.shape}")
    for name, x in (("S", ss), ("T", tt)):
        herm = float(_hermitian_error(x))
        if not herm <= ATOL:
            raise ValueError(f"{name} is not Hermitian (|X - X^dag| = {herm:.3e})")
    ws = _eigvalsh(ss)
    if not (ws[0] >= -ATOL and ws[-1] <= 1.0 + ATOL):
        raise ValueError(
            f"S must satisfy 0 <= S <= I, eigenvalues span [{ws[0]:.3e}, {ws[-1]:.3e}]"
        )
    wt = _eigvalsh(tt)
    if not wt[0] >= -ATOL:
        raise ValueError(f"T must be positive semidefinite, min eigenvalue {wt[0]:.3e}")
    d = ss.shape[0]
    inv = spectral(ss + tt, lambda w: 1.0 / np.sqrt(w), 1e-12)
    lhs = np.eye(d) - inv @ ss @ inv
    rhs = (1.0 + c) * (np.eye(d) - ss) + (2.0 + c + 1.0 / c) * tt
    gap = rhs - lhs
    gap = 0.5 * (gap + gap.conj().T)
    wg = _eigvalsh(gap)
    if not wg[0] >= -ATOL:
        raise ValueError(f"operator inequality violated: min gap eigenvalue {wg[0]:.3e}")
    return {
        "min_gap_eigenvalue": float(wg[0]),
        "max_lhs_eigenvalue": float(_eigvalsh(0.5 * (lhs + lhs.conj().T))[-1]),
        "c": float(c),
        "dim": d,
    }


# ---------------------------------------------------------------------------
# shared-state families and channel outputs
# ---------------------------------------------------------------------------

def schmidt_state(p: float, labels: tuple[str, str] = ("a", "r")) -> PureState:
    """The two-qubit pure state sqrt(p)|00> + sqrt(1-p)|11>."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"Schmidt weight must be in (0, 1), got {p}")
    v = np.zeros(4, dtype=np.complex128)
    v[0] = math.sqrt(p)
    v[3] = math.sqrt(1.0 - p)
    return PureState(v, RegisterLayout(((labels[0], 2), (labels[1], 2))))


def shared_state_sweep(step: float = 0.05, labels: tuple[str, str] = ("a", "r")) -> list[PureState]:
    """The documented family of candidate shared states: a Schmidt-weight
    grid ``p in {step, 2 step, ...}``, every multiple of ``step`` below 1
    (the balanced point is the maximally entangled state)."""
    if not 0.0 < step < 0.5:
        raise ValueError(f"step must be in (0, 0.5), got {step}")
    n = math.ceil(1.0 / step)
    points = [i * step for i in range(1, n + 1) if i * step < 1.0]
    return [schmidt_state(p, labels) for p in points]


def _require_bipartite(psi: PureState, cc: CompoundChannel) -> tuple[str, str]:
    if len(psi.layout.factors) != 2:
        raise LayoutError("shared state must live on exactly two registers")
    a_lbl, r_lbl = psi.layout.labels
    if psi.layout.dim_of(a_lbl) != cc.dim_in:
        raise LayoutError(
            f"first register dimension {psi.layout.dim_of(a_lbl)} != "
            f"channel input {cc.dim_in}"
        )
    if r_lbl in cc.channels[0].out_layout.labels:
        raise LayoutError(
            f"partner label {r_lbl!r} collides with the channel output; relabel"
        )
    return a_lbl, r_lbl


def _channel_outputs(cc: CompoundChannel, psi: PureState) -> list[DensityMatrix]:
    """Joint output-partner states, one per member channel."""
    a_lbl, _ = _require_bipartite(psi, cc)
    rho = psi.density()
    return [apply_channel(ch, rho, targets=[a_lbl]) for ch in cc.channels]


# ---------------------------------------------------------------------------
# rate formulas
# ---------------------------------------------------------------------------

def _uninformed_penalty(s: int, eps: float, eta: float) -> float:
    width = union_depth(s)
    return 2.0 * width * math.log2(eta / (6.0 * width)) + math.log2(eps / (4.0 * s))


def _informed_penalty(s: int, eps: float, eta: float) -> float:
    width = union_depth(s)
    return width * math.log2(eta / (6.0 * width)) + math.log2(eps / (4.0 * s * s))


def uninformed_rates(
    cc: CompoundChannel, psi: PureState, eps: float, eta: float, *, gap_tol: float = 1e-6
) -> tuple[float, float]:
    """``(achievable, converse)`` at this shared state: the converse is the
    worst member's divergence value (``i_h_min``, best-first), and the
    achievable rate adds the (negative) merge and confusion penalties.
    Sweeping candidate shared states is the caller's job."""
    if not 0.0 < eps < 1.0 or not 0.0 < eta < 1.0:
        raise ValueError("eps and eta must be in (0, 1)")
    worst = converse_rate(cc, psi, eps, gap_tol=gap_tol)
    return worst + _uninformed_penalty(cc.size, eps, eta), worst


def achievable_rate_uninformed(
    cc: CompoundChannel, psi: PureState, eps: float, eta: float, *, gap_tol: float = 1e-6
) -> float:
    """Largest rate the uninformed protocol certifies for this shared state:
    the first entry of ``uninformed_rates``."""
    return uninformed_rates(cc, psi, eps, eta, gap_tol=gap_tol)[0]


def converse_rate(
    cc: CompoundChannel, psi: PureState, eps: float, *, gap_tol: float = 1e-6
) -> float:
    """Upper bound on any achievable rate at the given shared state: the
    worst member channel's divergence value (``i_h_min``), no penalty terms."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0, 1)")
    return i_h_min(_channel_outputs(cc, psi), eps, gap_tol=gap_tol)[0]


def _informed_family(
    cc: CompoundChannel, states: Sequence[PureState]
) -> tuple[list[DensityMatrix], StateEnsemble, StateEnsemble, DensityMatrix]:
    """Joint outputs, output ensemble, partner ensemble, averaged partner."""
    if len(states) != cc.size:
        raise ValueError(
            f"need one shared state per channel, got {len(states)} for {cc.size}"
        )
    lay0 = states[0].layout
    for st in states[1:]:
        if st.layout != lay0:
            raise LayoutError("per-channel shared states must share one layout")
    a_lbl, r_lbl = _require_bipartite(states[0], cc)
    rhos = [st.density() for st in states]
    joints = [apply_channel(ch, rho, targets=[a_lbl]) for ch, rho in zip(cc.channels, rhos)]
    # the outputs of the transmitted half alone (the joints' marginals differ in the last bit)
    outputs = StateEnsemble(tuple(
        apply_channel(ch, rho.marginal([a_lbl]), targets=[a_lbl])
        for ch, rho in zip(cc.channels, rhos)
    ))
    partners = StateEnsemble(tuple(rho.marginal([r_lbl]) for rho in rhos))
    avg = DensityMatrix(
        ComplexMatrix(sum(v.a for v in partners.vertices) / cc.size),
        partners.vertices[0].layout,
    )
    return joints, outputs, partners, avg


def rate_informed(
    cc: CompoundChannel, states: Sequence[PureState], eps: float, eta: float
) -> float:
    """Largest rate the informed protocol certifies for the given
    per-channel shared states: the worst channel's doubly restricted
    divergence (outputs restricted to the family's output set, partners to
    the family's partner set) plus the informed merge and confusion
    penalties."""
    if not 0.0 < eps < 1.0 or not 0.0 < eta < 1.0:
        raise ValueError("eps and eta must be in (0, 1)")
    joints, outputs, partners, _ = _informed_family(cc, states)
    vals = [i_h_hat(rho, outputs, partners, eps)[0] for rho in joints]
    return min(vals) + _informed_penalty(cc.size, eps, eta)


# ---------------------------------------------------------------------------
# exact simulation
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, eq=False)
class _Code:
    """A position-based code.  Each of the ``num_messages`` messages owns a
    band of ``len(partners)`` slots, and the decoder applies ``projector``,
    the merged range ``basis`` times its adjoint, at every slot on output x
    slot x ancilla.  ``joints[i]`` is channel ``i``'s joint output-partner
    state, ``values[i]`` the value of its test, and band position ``p``
    holds ``partners[p]`` unless sent."""

    basis: np.ndarray
    joints: tuple[np.ndarray, ...]
    partners: tuple[np.ndarray, ...]
    values: tuple[float, ...]
    num_messages: int

    @property
    def band(self) -> int:
        return len(self.partners)

    @property
    def dims(self) -> list[int]:
        """Register dimensions: output, the ``band num_messages`` slots, ancilla."""
        d_r = self.partners[0].shape[0]
        return [self.basis.shape[0] // (2 * d_r)] + [d_r] * (self.band * self.num_messages) + [2]

    @property
    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T


def _position_code(
    cc: CompoundChannel,
    joints: Sequence[DensityMatrix],
    solve: Callable[[DensityMatrix], tuple[float, TestOperator]],
    partners: Sequence[np.ndarray],
    eta: float,
    num_messages: int,
) -> _Code:
    """Assemble a position-based code shared by both senders.

    Each message owns a band of ``len(partners)`` slots.  ``solve`` maps a
    joint output-partner state to ``(value, test)``; the tests are lifted
    and merged into one projector.  A code with qubit partners is decoded
    on the spin blocks of the other bands' slots (``_block_decoder``),
    whose largest operator is ``d_out 2^b num_messages^b 2`` wide for a
    band of ``b`` slots; every other code on the full register space
    (``_dense_decoder``).  The cap applies to the largest operator the
    decoder builds and is checked before any solver runs."""
    band, d_r = len(partners), partners[0].shape[0]
    if d_r == 2:
        dim = cc.dim_out * (2 * num_messages) ** band * 2
    else:
        dim = cc.dim_out * 2 * d_r ** (band * num_messages)
    if dim > DIM_CAP:
        raise CapacityError(f"simulated dimension {dim} exceeds the cap {DIM_CAP}")
    tested = [solve(rho) for rho in joints]
    basis = merge_tests([t for _, t in tested], eta / (3.0 * union_depth(cc.size)))
    return _Code(
        basis, tuple(r.a for r in joints), tuple(partners),
        tuple(v for v, _ in tested), num_messages,
    )


def _uninformed_code(
    cc: CompoundChannel, psi: PureState, eps: float, eta: float, num_messages: int
) -> _Code:
    """The uninformed code: one slot per message, tests from ``i_h``, and the
    shared state's partner marginal in every slot."""
    joints = _channel_outputs(cc, psi)
    partner = psi.density().marginal([psi.layout.labels[1]]).a
    return _position_code(
        cc, joints, lambda rho: i_h(rho, eps), [partner], eta, num_messages
    )


def _informed_code(
    cc: CompoundChannel,
    states: Sequence[PureState],
    eps: float,
    eta: float,
    num_messages: int,
) -> _Code:
    """The informed code: a band of ``s`` slots per message, tests against
    the averaged partner marginal (uniform over the family's outputs), and
    the ``i``-th state's partner marginal in the ``i``-th slot of each band."""
    joints, outputs, partners, avg = _informed_family(cc, states)
    return _position_code(
        cc, joints, lambda rho: i_h_tilde(rho, avg, outputs, eps),
        [v.a for v in partners.vertices], eta, num_messages,
    )


#: eigenvalues of T at or below this are its kernel
_KERNEL_CUTOFF = 1e-12


def _ground_omega(
    pi: np.ndarray, dims: Sequence[int], band: Sequence[int], terms: Sequence[tuple]
) -> tuple[np.ndarray, np.ndarray]:
    """The ancilla-ground block of ``Omega = T^(-1/2) Lambda T^(-1/2)`` and
    the eigenvalues of ``T``, on one register space ``dims`` (output, slots,
    ancilla), from one eigensolve of ``T``.

    ``Lambda`` is ``pi`` on (output, slot ``k``, ancilla) summed over the
    slots ``k`` in ``band``, and ``T = Lambda + sum_t op_t``, each term an
    ``(op, targets)`` pair added in the order given; every operator acts
    through ``_apply``.  The ancilla is the last register, so its ground
    rows are the even ones; every input state has the ancilla in ``|0>``,
    so only that block is read.  ``T^(-1/2)`` is taken on the support
    (eigenvalues above ``_KERNEL_CUTOFF``) and formed only on its ground
    columns."""
    last = len(dims) - 1
    eye = np.eye(math.prod(dims))

    def lam(x: np.ndarray) -> np.ndarray:
        return sum(_apply(pi, x, dims, [0, k, last]) for k in band)

    total = lam(eye)
    for op, targets in terms:
        total += _apply(op, eye, dims, targets)
    w, v = _eigh(total)
    inv = np.where(w > _KERNEL_CUTOFF, 1.0 / np.sqrt(np.clip(w, _KERNEL_CUTOFF, None)), 0.0)
    root = (v * inv) @ v[::2].conj().T
    return root.conj().T @ lam(root), w


def _accepted(omega: np.ndarray, pieces, dims: Sequence[int]) -> float:
    """``Tr[Omega Theta]``, an elementwise sum over the ancilla-ground block,
    for the product state ``Theta = _arrange(pieces)`` (ancilla in ``|0>``)."""
    return float(np.sum(omega * _arrange(pieces, dims[:-1]).T).real)


def _dense_decoder(code: _Code, message: int, indices: tuple[int, ...]):
    """Errors and spectrum of ``T`` on the full register space, where ``T``
    adds the merged projector at every slot outside the message's band.
    Channel ``i`` sends in slot ``band (message - 1) + i mod band + 1``;
    every other slot ``k`` holds ``partners[(k - 1) mod band]``.  The error
    is ``1 - Tr[Omega(message) Theta]``."""
    pi, dims, partners, band = code.projector, code.dims, code.partners, code.band
    last = len(dims) - 1
    sent = range(band * (message - 1) + 1, band * message + 1)
    terms = [(pi, [0, k, last]) for k in range(1, last) if k not in sent]
    omega, w = _ground_omega(pi, dims, sent, terms)
    errors = []
    for i in indices:
        star = sent[i % band]
        pieces = [(code.joints[i], [0, star])]
        pieces += [(partners[(k - 1) % band], [k]) for k in range(1, last) if k != star]
        errors.append(1.0 - _accepted(omega, pieces, dims))
    return errors, [(w, 1)]


def _block_decoder(code: _Code, indices: tuple[int, ...]):
    """Errors and spectrum of ``T`` on the spin blocks of the other bands.

    With qubit partners ``sigma_p`` (band position ``p = 0..b-1``), ``T``,
    the sent band's ``Lambda`` (band 1, by the symmetry of the bands) and
    the input state are invariant under permutations of the ``N = n - 1``
    other slots at each position, which all hold ``sigma_p``.  Writing the
    merged projector as ``Pi = sum_ab A_ab (x) |a><b|_slot``, on (output,
    the b band slots, V_j1 .. V_jb, ancilla) block ``(j_1, .., j_b)`` holds
    ``T = Lambda + sum_p sum_ab A_ab (x) E_ab^(j_p)`` with ``Lambda = sum_k
    Pi_(output, k, ancilla)`` over the band, and ``Theta_i = rho_i`` on
    (output, slot ``i mod b``) (x) ``sigma_p`` on the other band slots (x)
    ``prod_p det(sigma_p)^(N/2 - j_p) Sym^(2j_p)(sigma_p) (x) |0><0|``, each
    with multiplicity ``prod_p m_jp`` (``qoneshot.schur``).  The error is
    ``1 - sum over blocks of prod_p m_jp Tr[T^(-1/2) Lambda T^(-1/2)
    Theta_i]``."""
    pi, partners, band = code.projector, code.partners, code.band
    d_out, others = code.dims[0], code.num_messages - 1
    dets = [max(0.0, float(np.linalg.det(s).real)) for s in partners]
    six = pi.reshape(d_out, 2, 2, d_out, 2, 2)
    errors = [1.0] * len(indices)
    spectrum = []
    for two_js in itertools.product(schur.spins(others), repeat=band):
        dims = [d_out] + [2] * band + [t + 1 for t in two_js] + [2]
        terms, syms = [], []
        for v, (two_j, sigma, det) in enumerate(zip(two_js, partners, dets), band + 1):
            rest = np.einsum("oaxpby,abvw->ovxpwy", six, schur.collective(others, two_j))
            terms.append((rest.reshape(2 * d_out * (two_j + 1), -1), [0, v, len(dims) - 1]))
            weight = schur.block_weight(others, two_j, det)
            syms.append((weight * schur.sym_power(sigma, two_j), [v]))
        omega, w = _ground_omega(pi, dims, range(1, band + 1), terms)
        for slot, i in enumerate(indices):
            star = i % band + 1
            pieces = [(code.joints[i], [0, star])] + syms
            pieces += [(partners[k - 1], [k]) for k in range(1, band + 1) if k != star]
            errors[slot] -= _accepted(omega, pieces, dims)
        spectrum.append((w, math.prod(schur.multiplicity(others, t) for t in two_js)))
    return errors, spectrum


def _certificate(spectrum: Sequence[tuple[np.ndarray, int]]) -> dict:
    """The decoder certificate read from the eigenvalues ``w`` of ``T``,
    each ``(w, m)`` pair counted ``m`` times (``prod_p m_jp`` for a spin
    block):

    * ``decoder_rank``: the rank of ``T`` over ``_KERNEL_CUTOFF``;
    * ``decoder_min_kept_eigenvalue``: the smallest eigenvalue kept;
    * ``povm_gap_min_eig``: the smallest eigenvalue of ``I - sum_m Omega(m)
      = I - T^(-1/2) T T^(-1/2)``, which is ``1 - w w^(-1)`` on the support
      and 1 on the kernel.
    """
    kept = [(w[w > _KERNEL_CUTOFF], m) for w, m in spectrum if w[-1] > _KERNEL_CUTOFF]
    return {
        "decoder_rank": sum(m * k.size for k, m in kept),
        "decoder_min_kept_eigenvalue": min((float(k[0]) for k, _ in kept), default=0.0),
        "povm_gap_min_eig": min(
            (float(np.min(1.0 - k * (1.0 / np.sqrt(k)) ** 2)) for k, _ in kept),
            default=1.0,
        ),
    }


def _indices(
    cc: CompoundChannel, true_channel: int | None, message: int, num_messages: int
) -> tuple[int, ...]:
    """Validate the simulation request; return the channels to simulate."""
    if not 1 <= message <= num_messages:
        raise ValueError(f"message {message} outside 1..{num_messages}")
    if true_channel is None:
        return tuple(range(cc.size))
    if not 0 <= true_channel < cc.size:
        raise ValueError(f"true_channel {true_channel} outside 0..{cc.size - 1}")
    return (true_channel,)


def _evaluate(
    code: _Code,
    params: CodeParams,
    indices: tuple[int, ...],
    message: int,
    penalty: float,
) -> SimulationReport:
    """Exact error of the square-root measurement for each simulated true
    channel, with the decoder certificate (``_certificate``).  Every partner
    a qubit takes the spin blocks, any other code the full register space."""
    if code.dims[1] == 2:
        errors, spectrum = _block_decoder(code, indices)
    else:
        errors, spectrum = _dense_decoder(code, message, indices)
    limit = min(code.values) + penalty
    return SimulationReport(
        per_channel_error=tuple(errors),
        bound=params.epsilon + 3.0 * params.eta,
        rate_used=params.rate_bits,
        channel_indices=indices,
        num_messages=params.num_messages,
        rate_ok=bool(params.rate_bits <= limit + 1e-9),
        certified_rate=limit,
        trivial_decoder=code.basis.shape[1] == code.basis.shape[0],
        **_certificate(spectrum),
    )


def simulate_uninformed(
    cc: CompoundChannel,
    params: CodeParams,
    true_channel: int | None = None,
    *,
    message: int = 1,
) -> SimulationReport:
    """Exact decoding error of the uninformed protocol.

    The sent message occupies one slot; every other slot holds the partner
    marginal of the shared state.  The reported error for each simulated
    true channel is ``1 - Tr[Omega(message) Theta]`` with all operators
    assembled explicitly.  ``rate_ok`` records whether the unrounded rate
    satisfies the uninformed achievable-rate inequality.
    """
    if params.shared_state is None:
        raise ValueError("uninformed simulation needs params.shared_state")
    indices = _indices(cc, true_channel, message, params.num_messages)
    code = _uninformed_code(
        cc, params.shared_state, params.epsilon, params.eta, params.num_messages
    )
    penalty = _uninformed_penalty(cc.size, params.epsilon, params.eta)
    return _evaluate(code, params, indices, message, penalty)


def simulate_informed(
    cc: CompoundChannel,
    states: Sequence[PureState],
    params: CodeParams,
    true_channel: int | None = None,
    *,
    message: int = 1,
) -> SimulationReport:
    """Exact decoding error of the informed protocol.

    Slots are grouped into bands of size ``s``; the sender, knowing the true
    channel ``i``, transmits the ``i``-th member of the message's band.  The
    same merged projector is applied at every slot and the decoder sums each
    band before the square-root construction.  ``rate_ok`` records the rate
    inequality of this construction (tests against the averaged partner
    marginal); it is implied by the published doubly restricted bound, which
    is never larger.
    """
    indices = _indices(cc, true_channel, message, params.num_messages)
    code = _informed_code(cc, states, params.epsilon, params.eta, params.num_messages)
    penalty = _informed_penalty(cc.size, params.epsilon, params.eta)
    return _evaluate(code, params, indices, message, penalty)


# ---------------------------------------------------------------------------
# the unitary-family example and finite blocking certificates
# ---------------------------------------------------------------------------

def pauli_compound_example(num_qubits: int, eps: float) -> dict:
    """The family of all Pauli-word conjugations on one qubit with the
    maximally entangled shared state.

    Reports the computed per-channel divergence values together with the
    closed-form reference value ``2 num_qubits + log2(1 - eps)`` and the gap
    between the computed minimum and that reference, plus a check that the
    uniform average of the family sends five fixed random inputs to the
    maximally mixed state.
    """
    if num_qubits < 1:
        raise ValueError(f"num_qubits must be positive, got {num_qubits}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if num_qubits != 1:
        raise CapacityError("only num_qubits = 1 is supported")
    cc = CompoundChannel(tuple(pauli_channel_family(1, "a", "b")))
    psi = maximally_entangled(2, ("a", "r"))
    values = [i_h(r, eps)[0] for r in _channel_outputs(cc, psi)]
    reference = 2.0 * num_qubits + math.log2(1.0 - eps)
    d = 2**num_qubits
    rng = rng_from(20260823)
    deviation = 0.0
    for _ in range(5):
        rho = random_density(d, rng).a
        avg = sum(
            k @ rho @ k.conj().T for ch in cc.channels for k in ch.kraus
        ) / cc.size
        deviation = max(deviation, float(np.max(np.abs(avg - np.eye(d) / d))))
    return {
        "num_qubits": num_qubits,
        "epsilon": eps,
        "per_channel_value": [float(v) for v in values],
        "min_value": float(min(values)),
        "reference_value": reference,
        "reference_gap": float(min(values) - reference),
        "average_channel_max_deviation": deviation,
    }


def informed_finite_blocking_bounds(
    states: Sequence[DensityMatrix], n: int, ell: int
) -> dict:
    """Blocked domination and variance certificates for a finite family.

    For bipartite states ``rho^(i)`` (output register first, partner
    second), the blocked averages ``mu`` (partner side) and ``omega``
    (output side) are the uniform means of the ``ell``-fold marginal powers.
    Certifies, and records eigenvalue/variance margins for:

    * every convex mixture of ``n``-fold marginal powers is dominated by
      ``s^(n/ell)`` times the ``(n/ell)``-fold power of the blocked average,
      on both sides (vertices checked exhaustively; random mixtures as
      belt and braces);
    * for each family member, the relative-entropy variance of its
      ``ell``-fold power against ``omega (x) mu`` is at most
      ``(2 log2 s + ell Imax)^2`` with ``Imax`` that member's max-divergence
      from its product of marginals.

    Raises ``ValueError`` if any certificate fails beyond ``atol``.
    """
    if not states:
        raise ValueError("need at least one state")
    if ell < 1 or n < 1 or n % ell != 0:
        raise ValueError(f"ell must divide n, got n={n}, ell={ell}")
    lay0 = states[0].layout
    if len(lay0.factors) != 2:
        raise LayoutError("states must live on exactly two registers")
    for st in states[1:]:
        if st.layout != lay0:
            raise LayoutError("states must share one layout")
    s = len(states)
    b_lbl, r_lbl = lay0.labels
    d_b, d_r = lay0.dims
    for d, k in ((d_r, n), (d_b, n), (d_b * d_r, ell)):
        if d**k > DIM_CAP:
            raise CapacityError(f"blocked dimension {d}^{k} exceeds the cap {DIM_CAP}")
    blocks = n // ell
    marg_b = [st.marginal([b_lbl]).a for st in states]
    marg_r = [st.marginal([r_lbl]).a for st in states]
    mu = sum(tensor_power(m, ell) for m in marg_r) / s
    omega = sum(tensor_power(m, ell) for m in marg_b) / s
    factor = float(s) ** blocks
    rng = rng_from(20260824)
    sides = {}
    for name, margs, blocked in (("partner", marg_r, mu), ("output", marg_b, omega)):
        bound = factor * tensor_power(blocked, blocks)
        powers = [tensor_power(m, n) for m in margs]
        vertex = [float(_eigvalsh(bound - p)[0]) for p in powers]
        mixture = []
        for _ in range(3):
            w = rng.dirichlet(np.ones(s))
            mix = sum(wi * p for wi, p in zip(w, powers))
            mixture.append(float(_eigvalsh(bound - mix)[0]))
        worst = min(vertex + mixture)
        if worst < -ATOL:
            raise ValueError(
                f"{name}-side blocked domination fails: min eigenvalue {worst:.3e}"
            )
        sides[name] = {
            "vertex_min_eigenvalues": vertex,
            "mixture_min_eigenvalues": mixture,
        }
    interleave = [pos for j in range(ell) for pos in (j, ell + j)]
    dims2 = [d_b] * ell + [d_r] * ell
    ref = np.kron(omega, mu)
    variance = []
    for i, st in enumerate(states):
        rho_l = _arrange([(tensor_power(st.a, ell), interleave)], dims2)
        v = relative_entropy_variance(rho_l, ref)
        k = 2.0 * math.log2(s) + ell * i_max(st)
        if v > k * k + 1e-8:
            raise ValueError(
                f"variance certificate fails for state {i}: {v:.6f} > {k * k:.6f}"
            )
        variance.append({"value": float(v), "bound": float(k * k), "margin": float(k * k - v)})
    return {
        "num_states": s,
        "n": n,
        "ell": ell,
        "factor": factor,
        "sides": sides,
        "variance": variance,
    }
