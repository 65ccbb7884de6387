"""Second-stage measurements that undo (or partially undo) a first outcome.

Two constructions are provided for a first-stage operator M = U N:

* reversing: preferred operator proportional to M^{-1}; perfect state
  recovery, zero net information.
* Hermitian conjugate: preferred operator proportional to M†; approximate
  recovery for weak measurements with enhanced information gain, since the
  composition applies the positive part twice (C M ∝ N²).

Both are completed to exact two-outcome Kraus sets with a positive
square-root complement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, metrics
from .ensemble import PureStateEnsemble, expectation_values
from .errors import NonInvertibleOperatorError
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


def _complement_root(gap: np.ndarray) -> np.ndarray | None:
    """Positive root of a completeness gap (PSD up to roundoff), or None when it vanishes."""
    gap = 0.5 * (gap + linalg.dagger(gap))
    if float(np.linalg.eigvalsh(gap)[-1]) < TOL.prob_floor:
        return None
    return linalg.positive_sqrt(gap)


def build_reversing(kraus: KrausSet, label) -> SecondStageSpec:
    """Two-outcome reversing measurement for one first-stage outcome.

    The preferred operator is lam * M^{-1} with the largest admissible real
    scale, lam² = min eigenvalue of M†M.  The complement outcome carries
    sqrt(I - R†R); when M is unitary the complement vanishes and a
    single-outcome set is returned.
    """
    M = kraus.operator(label)
    s = np.linalg.svd(M, compute_uv=False)
    if s[-1] < TOL.invertible_ratio * s[0]:
        raise NonInvertibleOperatorError(
            f"operator for outcome {label} is numerically singular"
        )
    lam = float(s[-1])  # sqrt of min eigenvalue of M†M
    preferred = lam * np.linalg.inv(M)
    complement = _complement_root(
        np.eye(M.shape[0]) - linalg.dagger(preferred) @ preferred
    )
    labels = (0.0,) if complement is None else (0.0, 1.0)
    ops = (preferred,) if complement is None else (preferred, complement)
    return SecondStageSpec(
        scale=lam,
        preferred_label=0.0,
        kraus=KrausSet(ops, labels),
    )


def build_conjugate_minimal(kraus: KrausSet, label) -> SecondStageSpec:
    """Minimal two-outcome Hermitian conjugate measurement for one outcome.

    The preferred operator is kappa * M† with the largest admissible real
    scale, kappa = 1/sqrt(max eigenvalue of M†M).  The complement is
    sqrt(I - kappa² N²) U†, which satisfies completeness exactly and reduces
    to the small-disturbance series of the two-outcome model when the
    positive part is close to a multiple of the identity.
    """
    M = kraus.operator(label)
    U, N = linalg.polar_decompose(M)
    nmax2 = float(np.linalg.eigvalsh(N)[-1]) ** 2
    kappa = complex(1.0 / np.sqrt(nmax2))
    preferred = kappa * linalg.dagger(M)
    root = _complement_root(np.eye(M.shape[0]) - abs(kappa) ** 2 * (N @ N))
    if root is None:
        ops, labels = (preferred,), (0.0,)
    else:
        ops, labels = (preferred, root @ linalg.dagger(U)), (0.0, 1.0)
    return SecondStageSpec(
        scale=kappa,
        preferred_label=0.0,
        kraus=KrausSet(ops, labels),
    )


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
    _, info, fid, _ = metrics.branch_statistics([kraus.effect(label)], ens)
    return float(fid[0]), float(info[0])


def conditional_success_probability(
    kraus: KrausSet, label, ens: PureStateEnsemble, spec: SecondStageSpec
) -> float:
    """Probability of the preferred second outcome given the first outcome."""
    M = kraus.operator(label)
    composed = spec.preferred_operator @ M
    p_joint = expectation_values(ens, linalg.dagger(composed) @ composed).mean()
    p_first = expectation_values(ens, kraus.effect(label)).mean()
    return float(p_joint / p_first)
