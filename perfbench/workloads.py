"""The four benchmark workloads.

Each workload is a round of command templates run by one caller in a
closed loop.  A run of ``--seconds S`` executes ``max(1, round(S / round_s))``
rounds, so the work a run measures depends on ``S`` alone and never on how
fast the program is.  Each workload's comment gives a round's time on a
2-core x86-64 box with one BLAS thread and the time a run measures at
``S = 10``; that is more than ``S`` where per-command cost varies so much
between random inputs that a run needs more commands for a steady figure.
``scaled`` says whether the workload's command times are scaled by
the reference kernel in ``speed.py``.  ``known_failures`` names the checks
that fail today on some inputs of the workload; they are counted as failed
commands, never worked around.
"""

from __future__ import annotations

import dataclasses

from inputs import (
    Template,
    composite,
    compound_sim,
    damped_member,
    informed_sim,
    net_validate,
    rates,
    union_stress,
    unitary_member,
)


@dataclasses.dataclass(frozen=True)
class Workload:
    templates: tuple[Template, ...]
    round_s: float
    scaled: bool = True
    known_failures: frozenset = frozenset()

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_s))


WORKLOADS = {
    # Gate 07's path: achievable and converse rates over a Schmidt sweep.
    # `divergences` (i_h -> _np_solve, thousands of 4x4 eigensolves) is ~99%
    # of the time; `jordan` and `composite` are idle.  Half the families are
    # Haar unitaries, half damped two-Kraus channels; the 2-member damped
    # family is weighted twice, so unitary and damped commands run 2:3 and
    # the median lands inside one cluster of costs.  A damped command's cost
    # varies by about +-25% between random families, so a run measures
    # about 18 s (a round takes about 2.9 s).
    "rates_sweep": Workload(
        (
            rates(2, unitary_member),
            rates(3, unitary_member),
            rates(2, damped_member),
            rates(2, damped_member),
            rates(3, damped_member),
        ),
        round_s=1.8,
    ),
    # The position-based decoder at dense dimension 1024 (8 messages, or
    # 4 messages x 2 bands): `coding` self time and `qcore.psd_inv_sqrt` on
    # 1024^2 dominate and peak memory is ~420 MB.  Informed simulation runs
    # only on 2-member families: at s=3 and rate 2 its dimension 2*2^12*2
    # exceeds the library's DIM_CAP.  Three commands make a round, so a run
    # measures about 29 s (a round takes about 14.5 s).  Dense
    # BLAS on 16 MB matrices slows far less than the interpreter-bound
    # reference kernel when the host is busy; scaling by it doubled this
    # workload's run-to-run spread, so its times are reported as measured.
    "decode_sim": Workload(
        (compound_sim(2), informed_sim(2), compound_sim(3)),
        round_s=4.77,
        scaled=False,
    ),
    # Composite testing: SLSQP dual ascent + HiGHS LP in beta_exact, run
    # 1 + 2|s1| times per plain --delta command; --net-deficit commands swap
    # the per-vertex floor re-solve for a nearest-net-point search, and
    # net-validate drives the same layer through per-sample Python loops.
    # beta_test_feasible fails on about one command in five (the
    # beta_exact slack defect).  A command's cost varies by about +-50%
    # between random families, so a run measures about 19 s (a round takes
    # about 2.7 s); the costliest shape is weighted three times so the tail
    # percentile falls inside its cluster of costs rather than at its rim.
    "composite_family": Workload(
        (
            composite(2, 1, 1),
            composite(3, 2, 2),
            composite(4, 1, 3),
            composite(2, 2, 3),
            composite(3, 1, 1),
            composite(4, 2, 2),
            composite(4, 2, 2),
            composite(4, 2, 2),
            composite(2, 1, 1, delta=0.3, net_deficit=0.08),
            composite(3, 2, 2, delta=0.3, net_deficit=0.04),
            net_validate(0.1, 3000),
        ),
        round_s=1.4,
        known_failures=frozenset({"beta_test_feasible"}),
    ),
    # Gates 01/02's construction: jordan_decompose/union_pair are ~100% of
    # the time here and under 1% elsewhere, so without this workload
    # `jordan` goes unmeasured.  operator_bound fails on every s=8 command:
    # its absolute 1e-8 slack is compared against a factor of ~1.6e9.  Two
    # trials a command make a round take about 0.4 s; 17 rounds (about 7 s)
    # give 17 s=8/dim=64 commands a run, so the tail percentile falls inside
    # that costliest cluster.
    "union_stress": Workload(
        tuple(union_stress(s, dim, 2) for s in (2, 3, 4, 8) for dim in (16, 32, 64)),
        round_s=0.6,
        known_failures=frozenset({"operator_bound"}),
    ),
}
