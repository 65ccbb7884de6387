"""Second-stage measurements that undo (or partially undo) a first outcome.

For a first-stage operator M = W diag(s) X† = U N, with N = sqrt(M†M), both
constructions are points of one rule, :func:`_second_stage`: with
t = s**beta, the preferred operator X diag(r) W† has r = t / max(t), so it
is proportional to N^beta U† and its composition with M to N^(1+beta); the
complement L diag(sqrt(1 - r²)) W† makes the set complete.

* reversing, beta = -1: preferred operator proportional to M^{-1}; perfect
  state recovery, zero net information (L = W).
* Hermitian conjugate, beta = +1: preferred operator proportional to M†;
  approximate recovery for weak measurements with enhanced information
  gain, since the composition applies the positive part twice (C M ∝ N²)
  (L = X).

The largest r is exactly 1, so the complement sends the state the preferred
outcome recovers with certainty to zero up to roundoff.

Every statistic on the ensemble is read through :mod:`conjmeas.metrics`:
the preferred-branch F and I from the branch kernel, and the success
probability from the one probability rule, ``metrics.mean_weights``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, metrics
from .ensemble import PureStateEnsemble
from .errors import NonInvertibleOperatorError, ZeroProbabilityOutcomeError
from .measurement import KrausSet
from .tolerances import TOL


@dataclass(frozen=True, eq=False)
class SecondStageSpec:
    """A second-stage Kraus set with its preferred (recovery) outcome.

    The preferred operator composed with M is ``scale`` times I (reversing)
    or N² (conjugate); see :func:`conjmeas.spin_probe.build_reversing_probe`
    for where that holds only approximately.
    """

    scale: complex           # 1 / max(s**beta): s_min (reversing) or 1/s_max (conjugate)
    preferred_label: float
    kraus: KrausSet

    @property
    def preferred_operator(self) -> np.ndarray:
        return self.kraus.operator(self.preferred_label)


def _second_stage(kraus: KrausSet, label, beta: float) -> SecondStageSpec:
    """The second stage of exponent ``beta`` for outcome ``label``, from one SVD.

    M = W diag(s) X† and t = s**beta give r = t / max(t) and scale
    1 / max(t); the preferred operator is X diag(r) W† and the complement
    L diag(sqrt(1 - r²)) W†, with L = X for beta > 0 and W for beta < 0.
    The complement is dropped when every 1 - r² is below ``TOL.prob_floor``.
    """
    W, s, Xh = np.linalg.svd(kraus.operator(label))
    if beta < 0 and not s[-1] > TOL.invertible_ratio * s[0]:
        raise NonInvertibleOperatorError(f"operator for outcome {label} is numerically singular")
    if not s[0] > 0.0:
        raise ZeroProbabilityOutcomeError(f"operator for outcome {label} is zero")
    X, Wh = linalg.dagger(Xh), linalg.dagger(W)
    # t / max(t) as a ratio of singular values to the power |beta|: exactly
    # s/s_max at beta = 1 and s_min/s at beta = -1
    if beta > 0:
        L, r, scale = X, (s / s[0]) ** beta, 1.0 / s[0] ** beta
    else:
        L, r, scale = W, (s[-1] / s) ** -beta, s[-1] ** -beta
    preferred = (X * r) @ Wh
    gap = 1.0 - r * r
    if gap.max() < TOL.prob_floor:
        ops, labels = (preferred,), (0.0,)
    else:
        ops, labels = (preferred, (L * np.sqrt(gap)) @ Wh), (0.0, 1.0)
    return SecondStageSpec(scale=complex(scale), preferred_label=0.0, kraus=KrausSet(ops, labels))


def build_reversing(kraus: KrausSet, label) -> SecondStageSpec:
    """Reversing stage (beta = -1): preferred s_min M^{-1}, so C M = s_min I."""
    return _second_stage(kraus, label, -1.0)


def build_conjugate_minimal(kraus: KrausSet, label) -> SecondStageSpec:
    """Minimal conjugate stage (beta = +1): preferred M† / s_max, so C M = N² / s_max."""
    return _second_stage(kraus, label, 1.0)


def conjugate_preferred_closed_form(
    kraus: KrausSet, label, ens: PureStateEnsemble
) -> tuple[float, float]:
    """Fidelity and information gain on the preferred conjugate branch.

    Computed from the moments of the positive part alone:

        F = mean[sqrt(<N⁴>) <N²>] / mean <N⁴>
        I = info kernel applied to the weights <N⁴>

    These agree with the full two-stage statistics on that branch because
    the composed operator is proportional to N² = M†M (NaN at the floor).
    """
    _, info, fid = metrics.branch_statistics([kraus.effect(label)], ens)
    return float(fid[0]), float(info[0])


def conditional_success_probability(
    kraus: KrausSet, label, ens: PureStateEnsemble, spec: SecondStageSpec
) -> float:
    """Probability of the preferred second outcome given the first outcome.

    The ratio p(m, preferred) / p(m) of two mean weights, both read by the
    one probability rule :func:`conjmeas.metrics.mean_weights` in O(d²),
    with no pass over the N states.  p(m) is read and checked by
    :func:`conjmeas.metrics.conditioning_probability`, as in
    :func:`conjmeas.metrics.two_stage_statistics`, so a second stage of
    another dimension and a first outcome of zero probability are rejected.
    """
    p_first = metrics.conditioning_probability(kraus, label, spec.kraus, ens)
    composed = spec.preferred_operator @ kraus.operator(label)
    return float(metrics.mean_weights([composed], ens)[0]) / p_first
