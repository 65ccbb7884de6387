"""Second-stage measurements that undo (or partially undo) a first outcome.

Two constructions are provided for a first-stage operator M = U N:

* reversing: preferred operator proportional to M^{-1}; perfect state
  recovery, zero net information.
* Hermitian conjugate: preferred operator proportional to M†; approximate
  recovery for weak measurements with enhanced information gain, since the
  composition applies the positive part twice (C M ∝ N²).

Both come from one SVD M = W diag(s) X† and have the same form: preferred
operator X diag(r) W† and complement L diag(sqrt(1 - r²)) W†, with
r = s_min/s, L = W (reversing) or r = s/s_max, L = X (conjugate).  Each r
is a ratio of singular values, so its largest entry is exactly 1 and the
complement sends the state the preferred outcome recovers with certainty
to zero up to roundoff (a root of the completeness gap I - P†P would take
the square root of that gap's roundoff-level eigenvalue there).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, metrics
from .ensemble import PureStateEnsemble, mean_expectation
from .errors import NonInvertibleOperatorError, ZeroProbabilityOutcomeError
from .measurement import KrausSet
from .tolerances import TOL


@dataclass(frozen=True)
class SecondStageSpec:
    """A second-stage Kraus set with its preferred (recovery) outcome.

    The preferred operator composed with M is ``scale`` times I (reversing)
    or N² (conjugate); see :func:`conjmeas.spin_probe.build_reversing_probe`
    for where that holds only approximately.
    """

    scale: complex           # lambda (reversing) or kappa (conjugate)
    preferred_label: float
    kraus: KrausSet

    @property
    def preferred_operator(self) -> np.ndarray:
        return self.kraus.operator(self.preferred_label)


def _second_stage(scale, r: np.ndarray, X, L, Wh) -> SecondStageSpec:
    """Preferred X diag(r) W† and complement L diag(sqrt(1 - r²)) W†.

    The complement is dropped when every 1 - r² is below ``TOL.prob_floor``.
    """
    preferred = (X * r) @ Wh
    gap = 1.0 - r * r
    if gap.max() < TOL.prob_floor:
        ops, labels = (preferred,), (0.0,)
    else:
        ops, labels = (preferred, (L * np.sqrt(gap)) @ Wh), (0.0, 1.0)
    return SecondStageSpec(scale=scale, preferred_label=0.0, kraus=KrausSet(ops, labels))


def build_reversing(kraus: KrausSet, label) -> SecondStageSpec:
    """Two-outcome reversing measurement for one first-stage outcome.

    The preferred operator is lam * M^{-1} with the largest admissible real
    scale, lam = s_min, the smallest singular value of M = W diag(s) X†;
    that is X diag(s_min/s) W†.  The complement W diag(sqrt(1 - r²)) W†,
    r = s_min/s, is the positive root of I - R†R; when M is unitary it
    vanishes and a single-outcome set is returned.
    """
    M = kraus.operator(label)
    W, s, Xh = np.linalg.svd(M)
    if not s[-1] > TOL.invertible_ratio * s[0]:
        raise NonInvertibleOperatorError(
            f"operator for outcome {label} is numerically singular"
        )
    X = linalg.dagger(Xh)
    return _second_stage(complex(s[-1]), s[-1] / s, X, W, linalg.dagger(W))


def build_conjugate_minimal(kraus: KrausSet, label) -> SecondStageSpec:
    """Minimal two-outcome Hermitian conjugate measurement for one outcome.

    The preferred operator is kappa * M† with the largest admissible real
    scale, kappa = 1/s_max for M = W diag(s) X† = U N; that is
    X diag(s/s_max) W†.  The complement X diag(sqrt(1 - r²)) W†, r = s/s_max,
    equals sqrt(I - kappa² N²) U†; it satisfies completeness exactly and
    reduces to the small-disturbance series of the two-outcome model when
    the positive part is close to a multiple of the identity.
    """
    M = kraus.operator(label)
    W, s, Xh = np.linalg.svd(M)
    if not s[0] > 0.0:
        raise ZeroProbabilityOutcomeError(f"operator for outcome {label} is zero")
    X = linalg.dagger(Xh)
    return _second_stage(complex(1.0 / s[0]), s / s[0], X, X, linalg.dagger(W))


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

    The ratio p(m, preferred) / p(m) of two mean weights, each one form on
    the ensemble's mean features (:func:`conjmeas.ensemble.mean_expectation`,
    O(d²)).  p(m) is read and checked by
    :func:`conjmeas.metrics.conditioning_probability`, as in
    :func:`conjmeas.metrics.two_stage_statistics`, so a second stage of
    another dimension and a first outcome of zero probability are rejected.
    """
    p_first = metrics.conditioning_probability(kraus, label, spec.kraus, ens)
    composed = spec.preferred_operator @ kraus.operator(label)
    return mean_expectation(ens, linalg.dagger(composed) @ composed) / p_first
