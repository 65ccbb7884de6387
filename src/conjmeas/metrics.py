"""Information gain and fidelity statistics over a pure-state ensemble.

All information quantities are in bits (base-2 logarithms).  The single
likelihood kernel :func:`likelihood_info_gain` serves every stage: the
per-outcome weights are ``<A†A>_a`` for whichever operator A maps the
initial state to the (unnormalized) branch state.

Every per-branch quantity comes from one kernel,
:func:`branch_weights_and_moduli`, which returns the weight ``<A†A>`` and
the modulus ``|<psi|A|psi>|`` for each state.  Both are quadratic forms in
psi, hence real-linear in two per-state features of the ensemble (see
:mod:`conjmeas.ensemble`): the populations P_i = |psi_i|² (N×d floats,
cached on first use) and the coherences z_ij = conj(psi_i) psi_j, i < j,
stored as [Re z | Im z] (N·d(d-1) floats, built only when a non-diagonal
operator is first evaluated).  A diagonal operator (every off-diagonal
entry exactly zero, as for the spin-probe operators and their
compositions) reads the populations alone: with a = diag(A) the three rows
[|a|², Re a, Im a] give w, Re amp and Im amp in one (3×d)·(d×N) product.
Any other operator adds the coherence rows of A†A and A, one more
(3×d(d-1))·(d(d-1)×N) product.  The dense O(N·d²)
:func:`branch_weights_and_amplitudes` is the reference the tests compare
against.  Reductions over the N states are numpy means and sums, so
results do not depend on the BLAS thread count.

:func:`two_stage_statistics` serves any second stage, one first outcome at
a time.  For the Hermitian-conjugate second stage {M_mu†} of a diagonal
set (the spin probe's T_mu(pi - theta) = (-1)^{j+mu} T_mu(theta)†, up to a
phase that changes no statistic), :func:`conjugate_two_stage_statistics`
does the whole grid with one branch per unordered pair {m, mu}: branch
(mu, m) is M_m† M_mu = (M_mu† M_m)†, whose weights and amplitude moduli
equal those of (m, mu) on every state because diagonal operators commute,
so p, I and F are symmetric and each pair is evaluated once and mirrored.
Branches still stream one at a time over the N states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .ensemble import PureStateEnsemble, form_coefficients, quadratic_forms
from .errors import (
    DimensionMismatchError,
    InvalidWeightsError,
    UnknownLabelError,
    ValidationError,
    ZeroProbabilityOutcomeError,
)
from .measurement import KrausSet, _label_key
from .tolerances import TOL


def likelihood_info_gain(weights) -> float:
    """Shannon information (bits) carried by one outcome about the ensemble index.

    For nonnegative likelihood weights w(a) under a uniform prior this equals
    H0 - H(outcome):

        [mean(w log2 w) - mean(w) log2 mean(w)] / mean(w)

    with 0 log 0 = 0.  The result is nonnegative up to roundoff and is
    clipped at zero.
    """
    w = np.asarray(weights, dtype=float)
    w_min = w.min() if w.size else -1.0
    if w_min < 0 or not w.max() > 0:
        raise InvalidWeightsError("weights must be nonnegative with a positive sum")
    mw = w.mean()
    # 0 log 0 = 0; the unmasked log2 is faster and gives the same values
    if w_min > 0:
        w_log_w = np.log2(w)
    else:
        w_log_w = np.log2(w, out=np.zeros_like(w), where=w > 0)
    w_log_w *= w
    wlw = w_log_w.mean()
    gain = (wlw - mw * np.log2(mw)) / mw
    if gain < TOL.info_roundoff:
        raise InvalidWeightsError(f"information kernel returned {gain:.3e}")
    return float(max(gain, 0.0))


def posterior(weights) -> np.ndarray:
    """Bayes posterior over the ensemble index: w(a) / Σ w."""
    w = np.asarray(weights, dtype=float)
    if w.size == 0 or np.any(w < 0) or not np.any(w > 0):
        raise InvalidWeightsError("weights must be nonnegative with a positive sum")
    return w / w.sum()


@dataclass(frozen=True)
class StageStatistics:
    """Per-outcome probabilities, information gains, and fidelities.

    For a first-stage measurement ``probability`` is p(m); for a two-stage
    run it is the joint p(m, mu) and ``conditional`` holds p(mu | m).
    Outcomes whose probability (p(m), or p(mu | m) for a two-stage run) is
    at or below the floor are flagged undefined and excluded (with zero
    weight) from the means; with none defined, the means are NaN.
    """

    labels: tuple
    probability: np.ndarray
    info_gain: np.ndarray
    fidelity: np.ndarray
    defined: np.ndarray
    conditional: np.ndarray | None = None

    def _mean(self, values: np.ndarray) -> float:
        if not self.defined.any():
            return float("nan")
        w = np.where(self.defined, self.probability, 0.0)
        return float(np.sum(w * np.where(self.defined, values, 0.0)) / np.sum(w))

    @property
    def mean_info(self) -> float:
        return self._mean(self.info_gain)

    @property
    def mean_fidelity(self) -> float:
        return self._mean(self.fidelity)

    def get(self, label):
        keys = [_label_key(l) for l in self.labels]
        key = _label_key(label)
        if key not in keys:
            raise UnknownLabelError(f"no outcome labelled {label!r}")
        idx = keys.index(key)
        return (
            self.probability[idx],
            self.info_gain[idx],
            self.fidelity[idx],
        )


def branch_weights_and_amplitudes(states: np.ndarray, op: np.ndarray):
    """Per-state branch weight <A†A> and transition amplitude <psi|A|psi>.

    The dense O(N·d²) evaluation, for any operator A.  The library computes
    both from the per-state features instead
    (:func:`branch_weights_and_moduli`); this stays as the reference the
    tests compare against.
    """
    out = states @ op.T
    w = np.einsum("ad,ad->a", out.conj(), out).real
    amp = np.einsum("ad,ad->a", states.conj(), out)
    return w, amp


def branch_weights_and_moduli(ens: PureStateEnsemble, op: np.ndarray):
    """Per-state branch weight <A†A> and amplitude modulus |<psi|A|psi>|.

    Both are quadratic forms, evaluated as three real rows on the ensemble
    features: from the populations alone for a diagonal operator, and from
    the populations and coherences otherwise.
    """
    if linalg.is_diagonal(op):
        a = np.diagonal(op)
        coeffs = np.stack([a.real**2 + a.imag**2, a.real, a.imag])
        w, re, im = quadratic_forms(ens, coeffs)
    else:
        h_pop, h_coh = form_coefficients(linalg.dagger(op) @ op)
        a_pop, a_coh = form_coefficients(op)
        w, re, im = quadratic_forms(
            ens, np.vstack([h_pop[:1], a_pop]), np.vstack([h_coh[:1], a_coh])
        )
        # w = ||A psi||² >= 0; the form can land a few ulps below zero
        np.maximum(w, 0.0, out=w)
    re *= re
    im *= im
    re += im
    return w, np.sqrt(re, out=re)


def _branch_statistics(labels, composed_ops, ens: PureStateEnsemble, p_given=1.0):
    """Per-branch statistics; a branch is undefined when p / p_given is at the floor.

    ``p_given`` is the probability of the outcome the branches are
    conditioned on (1 for a first stage), so the floor applies to p(mu | m).
    """
    n_out = len(composed_ops)
    prob = np.zeros(n_out)
    info = np.zeros(n_out)
    fid = np.zeros(n_out)
    defined = np.zeros(n_out, dtype=bool)
    for i, op in enumerate(composed_ops):
        w, amp_mod = branch_weights_and_moduli(ens, op)
        p = w.mean()
        prob[i] = p
        if p / p_given <= TOL.prob_floor:
            info[i] = np.nan
            fid[i] = np.nan
            continue
        defined[i] = True
        info[i], fid[i] = _info_and_fidelity(w, amp_mod, p)
    return labels, prob, info, fid, defined


def _info_and_fidelity(w, amp_mod, p):
    """I and F of one branch from its weights, amplitude moduli and p = mean(w)."""
    # F = Σ_a p(a|outcome) |<psi|A|psi>| / sqrt(w_a)  =  mean(|amp| sqrt(w)) / mean(w)
    return likelihood_info_gain(w), float(np.mean(amp_mod * np.sqrt(w)) / p)


def stage_statistics(kraus: KrausSet, ens: PureStateEnsemble) -> StageStatistics:
    """First-stage statistics: p(m), I(m), F(m) and their p(m)-weighted means."""
    if kraus.dim != ens.dim:
        raise DimensionMismatchError("measurement and ensemble dimensions differ")
    labels, prob, info, fid, defined = _branch_statistics(
        kraus.labels, kraus.operators, ens
    )
    return StageStatistics(labels, prob, info, fid, defined)


def two_stage_statistics(
    kraus: KrausSet, first_label, second: KrausSet, ens: PureStateEnsemble
) -> StageStatistics:
    """Statistics of a second measurement following outcome ``first_label``.

    ``probability`` holds the joint p(m, mu); ``conditional`` the
    distribution p(mu | m) of the second outcome.  Means are weighted by
    p(mu | m), i.e. they are the conditional means given the first outcome.
    """
    if kraus.dim != ens.dim or second.dim != ens.dim:
        raise DimensionMismatchError("measurement and ensemble dimensions differ")
    M = kraus.operator(first_label)
    p_first = branch_weights_and_moduli(ens, M)[0].mean()
    if p_first <= TOL.prob_floor:
        raise ZeroProbabilityOutcomeError(
            f"first-stage outcome {first_label} has probability {p_first:.3e}"
        )
    composed = [C @ M for C in second.operators]
    labels, prob, info, fid, defined = _branch_statistics(
        second.labels, composed, ens, p_given=p_first
    )
    return StageStatistics(
        labels, prob, info, fid, defined, conditional=prob / p_first
    )


def conjugate_two_stage_statistics(
    kraus: KrausSet, first: StageStatistics, ens: PureStateEnsemble
) -> tuple:
    """Two-stage statistics of the Hermitian-conjugate second stage {M_mu†}.

    ``first`` is ``stage_statistics(kraus, ens)``; its p(m) conditions the
    second stage.  Returns, for every first outcome m, what
    ``two_stage_statistics(kraus, m, {M_mu†}, ens)`` returns, or None when
    m is undefined.  For diagonal M the branches (m, mu) and (mu, m) are
    M_mu† M_m and its adjoint, with the same weights and amplitude moduli
    on every state, so p, I and F are symmetric in (m, mu): each unordered
    pair is evaluated once, when a row that needs it is defined, and
    mirrored.  I and F are skipped only when neither orientation is
    defined; definedness stays per row, on p(mu | m).
    """
    if kraus.dim != ens.dim:
        raise DimensionMismatchError("measurement and ensemble dimensions differ")
    if first.labels != kraus.labels:
        raise ValidationError("first-stage statistics belong to another measurement")
    if not all(linalg.is_diagonal(M) for M in kraus.operators):
        raise ValidationError("the pair evaluation needs diagonal Kraus operators")
    ops = kraus.operators
    n = len(ops)
    p_first = first.probability
    prob = np.full((n, n), np.nan)
    info = np.full((n, n), np.nan)
    fid = np.full((n, n), np.nan)
    for i in range(n):
        for k in range(i, n):
            if not (first.defined[i] or first.defined[k]):
                continue
            w, amp_mod = branch_weights_and_moduli(ens, linalg.dagger(ops[k]) @ ops[i])
            p = w.mean()
            prob[i, k] = prob[k, i] = p
            if any(first.defined[r] and p / p_first[r] > TOL.prob_floor for r in (i, k)):
                info[i, k], fid[i, k] = _info_and_fidelity(w, amp_mod, p)
                info[k, i], fid[k, i] = info[i, k], fid[i, k]
    rows = []
    for i in range(n):
        if not first.defined[i]:
            rows.append(None)
            continue
        conditional = prob[i] / p_first[i]
        defined = conditional > TOL.prob_floor
        rows.append(
            StageStatistics(
                kraus.labels,
                prob[i],
                np.where(defined, info[i], np.nan),
                np.where(defined, fid[i], np.nan),
                defined,
                conditional=conditional,
            )
        )
    return tuple(rows)


def optimal_fidelity(kraus: KrausSet, ens: PureStateEnsemble, label) -> float:
    """Fidelity the outcome would have had under the positive-part measurement.

    mean_a[ sqrt(<N²>) <N> ] / mean_a <N²>  with N = sqrt(M†M); for a
    diagonal M, N = diag|a| directly.
    """
    M = kraus.operator(label)
    if linalg.is_diagonal(M):
        N = np.diag(np.abs(np.diagonal(M)))
    else:
        N = linalg.positive_sqrt(linalg.dagger(M) @ M)
    w, n_exp = branch_weights_and_moduli(ens, N)
    return float(np.mean(np.sqrt(w) * n_exp) / np.mean(w))
