"""Walkthrough: undoing a weak measurement three different ways.

After a first measurement M = U N, a second step can apply

  * lam * M^-1  ("reversing"): its preferred outcome restores the original
    state perfectly but wipes out every bit of information gained,
  * U†  ("unitary undo"): deterministic; it leaves the positive part N, so
    the fidelity rises to F_opt and the information gain is unchanged, or
  * kappa * M†  ("conjugate"): its preferred outcome applies the positive
    part twice (C M ~ N^2), roughly restoring a weakly measured state while
    multiplying the information gain by four.

This script prints the three points of that trade-off side by side for one
outcome of the spin-probe example.

Run:  python demos/reversal_vs_conjugate.py
"""

import math

from conjmeas import (
    SpinProbeConfig,
    build_conjugate_minimal,
    build_forward,
    build_reversing,
    optimal_fidelity,
    sample_haar,
    stage_statistics,
    two_stage_statistics,
)

SEED = 2024
N_STATES = 20_000
CFG = SpinProbeConfig(s=0.5, j=7, g=0.05, theta=math.pi / 6)
OUTCOME = 2.0

ens = sample_haar(CFG.dim, N_STATES, SEED)
kraus = build_forward(CFG)
first = stage_statistics(kraus, ens)
i = kraus.index_of(OUTCOME)

print(f"first stage, outcome m={OUTCOME}:")
print(f"  p(m)      = {first.probability[i]:.6f}")
print(f"  fidelity  = {first.fidelity[i]:.8f}")
print(f"  info gain = {first.info_gain[i]:.3e} bits")
print()


def report(name, success, fid, info):
    print(f"{name}:")
    print(f"  success | m      = {success:.6f}")
    print(f"  fidelity         = {fid:.8f}")
    print(f"  info gain        = {info:.3e} bits")
    print(f"  info ratio vs first stage = {info / first.info_gain[i]:.3f}")
    print()


def second_stage(builder):
    spec = builder(kraus, OUTCOME)
    ts = two_stage_statistics(kraus, OUTCOME, spec.kraus, ens)
    p, info, fid = ts.get(spec.preferred_label)
    return p / first.probability[i], fid, info


report("reversing (lam * M^-1), preferred branch", *second_stage(build_reversing))
report(
    "unitary undo (U†), deterministic",
    1.0, optimal_fidelity(kraus, ens, OUTCOME), first.info_gain[i],
)
report("conjugate (kappa * M†), preferred branch", *second_stage(build_conjugate_minimal))

print("takeaway: the reversing branch hits fidelity 1 at the cost of all")
print("information and of some success probability; the unitary undo always")
print("succeeds and keeps the first-stage information at fidelity F_opt; the")
print("conjugate branch trades a little of that fidelity for four times the")
print("information (the ratio above approaches 4 as g -> 0).")
