"""Information gain and fidelity statistics over a pure-state ensemble.

All information quantities are in bits (base-2 logarithms).  The single
likelihood kernel :func:`likelihood_info_gain` serves every stage: the
per-outcome weights are ``<A†A>_a`` for whichever operator A maps the
initial state to the (unnormalized) branch state.

Every per-branch quantity comes from one kernel,
:func:`branch_weights_and_squared_moduli`, which returns the weight
``w = <A†A>`` and the squared modulus ``|<psi|A|psi>|²`` for each state.
Both are quadratic forms in psi, hence real-linear in the per-state
features of the ensemble (see :mod:`conjmeas.ensemble`): the populations
P_i = |psi_i|² (N×d floats, cached on first use) and the coherences
z_ij = conj(psi_i) psi_j, i < j.  A diagonal operator (every off-diagonal
entry exactly zero, as for the spin-probe operators and their
compositions) reads the populations alone: with a = diag(A) the three rows
[|a|², Re a, Im a] give w, Re amp and Im amp in one (3×d)·(d×N) product.
Any other operator reads the feature matrix [P | Re z | Im z] (N×d²
floats, built only when a non-diagonal operator is first evaluated): the
rows of A†A and A on it give w, Re amp and Im amp in one (3×d²)·(d²×N)
product.  :func:`conjmeas.ensemble.quadratic_forms` rejects an operator
whose dimension is not the ensemble's, so a caller checks only a product
it forms before the evaluators.  The dense O(N·d²)
:func:`branch_weights_and_amplitudes` is the reference the tests compare
against.  Reductions over the N states are numpy means and sums, so
results do not depend on the BLAS thread count.

Every stage turns its branches into (p, I, F) through
:func:`branch_statistics`, and each N-length pass is made once: p = mean(w)
is taken once and handed to the information kernel, and
F = mean(sqrt(|amp|² w)) / p takes a single square root, in place.  A
value that needs the mean weight alone (the p(m) a second stage is
conditioned on, read by :func:`conditioning_probability`, or a success
probability) passes over no state: it is one form on the ensemble's mean
features, :func:`conjmeas.ensemble.mean_expectation`, in O(d²), which
makes the same diagonal-or-not choice.  The positive-part fidelity F_opt
of an outcome, which only the regime check reads, is
:func:`optimal_fidelity`, computed on request and not by the stage
statistics.

NaN in I and F is the only mark of an undefined outcome (p at the floor).
:func:`weighted_sum`, Σ p·v with zero weight on NaN, is the one reduction
behind the stage means and the summary scalars of :mod:`conjmeas.runner`.

:func:`two_stage_statistics` serves any second stage, one first outcome at
a time.  For the Hermitian-conjugate second stage {M_mu†} of a diagonal
set (the spin probe's T_mu(pi - theta) = (-1)^{j+mu} T_mu(theta)†, up to a
phase that changes no statistic), :func:`conjugate_two_stage_statistics`
returns the whole (m, mu) grid as one :class:`StageStatistics` of n×n
arrays, with one branch per unordered pair {m, mu}: branch (mu, m) is
M_m† M_mu = (M_mu† M_m)†, whose weights and amplitude moduli equal those
of (m, mu) on every state because diagonal operators commute, so p, I and
F are symmetric and each pair (one row's pairs mu >= m per
:func:`branch_statistics` call) is evaluated once and mirrored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .ensemble import PureStateEnsemble, form_coefficients, mean_expectation, quadratic_forms
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
    clipped at zero.  Weights that overflow the kernel are rejected.
    """
    w = np.asarray(weights, dtype=float)
    if not w.size:
        raise InvalidWeightsError("weights must be nonnegative with a positive mean")
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _info_gain(w, w.mean())
    except FloatingPointError as exc:
        raise InvalidWeightsError(f"weights overflow the information kernel: {exc}") from None


def _info_gain(w, mw) -> float:
    """:func:`likelihood_info_gain` of the float array w, given mw = mean(w).

    For w >= 0, mean(w) > 0 holds exactly when some w > 0, unless the mean
    underflows to zero; testing the mean covers both.
    """
    w_min = w.min()
    if w_min < 0 or not mw > 0:
        raise InvalidWeightsError("weights must be nonnegative with a positive mean")
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


def weighted_sum(p, values):
    """Σ p·v over the last axis, with zero weight on every NaN (undefined) value."""
    return np.sum(np.where(np.isnan(values), 0.0, p * values), axis=-1)


@dataclass(frozen=True, eq=False)
class StageStatistics:
    """Per-outcome probabilities, information gains, and fidelities.

    For a first-stage measurement ``probability`` is p(m); for a two-stage
    run it is the joint p(m, mu) and ``conditional`` holds p(mu | m).
    Outcomes whose probability (p(m), or p(mu | m) for a two-stage run) is
    at or below the floor are undefined: their I and F are NaN, which is
    what ``defined`` reads, and they get zero weight in the means; with none
    defined, the means are NaN.  The fields of a two-stage grid
    (:func:`conjugate_two_stage_statistics`) are n×n arrays indexed by
    (m, mu), and the means reduce over mu: they are the vectors F'(m) and
    I'(m) instead of a float.
    """

    labels: tuple
    probability: np.ndarray
    info_gain: np.ndarray
    fidelity: np.ndarray
    conditional: np.ndarray | None = None

    @property
    def defined(self) -> np.ndarray:
        return ~np.isnan(self.info_gain)

    def _mean(self, values: np.ndarray):
        """Σ p v / Σ p over the last axis, over the defined entries only."""
        p = self.probability
        with np.errstate(invalid="ignore"):
            mean = weighted_sum(p, values) / weighted_sum(p, self.defined)
        return mean if mean.ndim else float(mean)

    @property
    def mean_info(self):
        return self._mean(self.info_gain)

    @property
    def mean_fidelity(self):
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
    (:func:`branch_weights_and_squared_moduli`); this stays as the reference
    the tests compare against.
    """
    out = states @ op.T
    w = np.einsum("ad,ad->a", out.conj(), out).real
    amp = np.einsum("ad,ad->a", states.conj(), out)
    return w, amp


def branch_weights_and_squared_moduli(ens: PureStateEnsemble, op: np.ndarray):
    """Per-state branch weight <A†A> and squared amplitude modulus |<psi|A|psi>|².

    Both are quadratic forms, evaluated as three real rows on the ensemble
    features: from the populations alone for a diagonal operator, and from
    the full features [P | Re z | Im z] otherwise.
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
    return w, re


def branch_statistics(composed_ops, ens: PureStateEnsemble, p_given=1.0):
    """Per-branch p, I and F: the one routine behind every stage.

    A branch is undefined (NaN I and F) when p / p_given is at the floor;
    ``p_given``, one per branch or one for all, is the probability of the
    outcome it is conditioned on (1 for a first stage).
    """
    n_out = len(composed_ops)
    p_given = np.broadcast_to(p_given, (n_out,))
    prob = np.zeros(n_out)
    info = np.full(n_out, np.nan)
    fid = np.full(n_out, np.nan)
    for i, op in enumerate(composed_ops):
        w, amp2 = branch_weights_and_squared_moduli(ens, op)
        p = w.mean()
        prob[i] = p
        if p / p_given[i] <= TOL.prob_floor:
            continue
        info[i], fid[i] = _info_gain(w, p), _fidelity(w, amp2, p)
    return prob, info, fid


def _fidelity(w, amp2, p) -> float:
    """F = Σ_a p(a|outcome) |<psi|A|psi>| / sqrt(w_a) = mean(sqrt(|amp|² w)) / p.

    One square root, taken in place: ``amp2`` is overwritten.
    """
    amp2 *= w
    return float(np.sqrt(amp2, out=amp2).mean() / p)


def stage_statistics(kraus: KrausSet, ens: PureStateEnsemble) -> StageStatistics:
    """First-stage statistics: p(m), I(m), F(m) and the p(m)-weighted means."""
    return StageStatistics(kraus.labels, *branch_statistics(kraus.operators, ens))


def conditioning_probability(
    kraus: KrausSet, first_label, second: KrausSet, ens: PureStateEnsemble
) -> float:
    """p(m) of the first outcome that the second stage ``second`` is conditioned on.

    The mean weight of the cached effect M†M, read from the mean features.
    A second stage of another dimension than the ensemble, and a first
    outcome at or below the probability floor, are rejected here, before a
    caller composes C·M or divides by p(m).
    """
    if second.dim != ens.dim:
        raise DimensionMismatchError("measurement and ensemble dimensions differ")
    p_first = mean_expectation(ens, kraus.effect(first_label))
    if p_first <= TOL.prob_floor:
        raise ZeroProbabilityOutcomeError(
            f"first-stage outcome {first_label} has probability {p_first:.3e}"
        )
    return p_first


def two_stage_statistics(
    kraus: KrausSet, first_label, second: KrausSet, ens: PureStateEnsemble
) -> StageStatistics:
    """Statistics of a second measurement following outcome ``first_label``.

    ``probability`` holds the joint p(m, mu); ``conditional`` the
    distribution p(mu | m) of the second outcome.  Means are weighted by
    p(mu | m), i.e. they are the conditional means given the first outcome.
    """
    p_first = conditioning_probability(kraus, first_label, second, ens)
    M = kraus.operator(first_label)
    composed = [C @ M for C in second.operators]
    prob, info, fid = branch_statistics(composed, ens, p_given=p_first)
    return StageStatistics(second.labels, prob, info, fid, conditional=prob / p_first)


def conjugate_two_stage_statistics(kraus: KrausSet, ens: PureStateEnsemble) -> tuple:
    """``(first, grid)``: ``stage_statistics(kraus, ens)`` and the {M_mu†} grid.

    The first stage's p(m) conditions the second stage.  Every field of
    ``grid`` is an n×n array indexed by (m, mu), and row m is
    ``two_stage_statistics(kraus, m, {M_mu†}, ens)``: the joint
    ``probability``, the ``conditional`` p(mu | m), and the ``info_gain``
    and ``fidelity`` of each branch, NaN where p(mu | m) is at the floor and
    in the whole row of an undefined first outcome.
    For diagonal M the branches (m, mu) and (mu, m) are M_mu† M_m and its
    adjoint, with the same weights and amplitude moduli on every state, so
    p, I and F are symmetric in (m, mu): each unordered pair is evaluated
    once, when a row that needs it is defined, and mirrored.
    """
    if not all(linalg.is_diagonal(M) for M in kraus.operators):
        raise ValidationError("the pair evaluation needs diagonal Kraus operators")
    first = stage_statistics(kraus, ens)
    ops = kraus.operators
    n = len(ops)
    p_first, defined = first.probability, first.defined
    # a pair is conditioned on the least likely defined row that reads it
    p_row = np.where(defined, p_first, np.inf)
    joint = np.full((n, n), np.nan)
    info = np.full((n, n), np.nan)
    fid = np.full((n, n), np.nan)
    for i in range(n):
        ks = [k for k in range(i, n) if defined[i] or defined[k]]
        row = branch_statistics(
            [linalg.dagger(ops[k]) @ ops[i] for k in ks], ens, np.minimum(p_row[i], p_row[ks])
        )
        # NaN is set per row below, on p(mu | m)
        for grid, values in zip((joint, info, fid), row):
            grid[i, ks] = grid[ks, i] = values
    joint[~defined] = np.nan
    conditional = joint / p_first[:, None]
    at_floor = ~(conditional > TOL.prob_floor)  # not <=: it also takes the NaN rows
    info[at_floor] = np.nan
    fid[at_floor] = np.nan
    return first, StageStatistics(kraus.labels, joint, info, fid, conditional=conditional)


def optimal_fidelity(kraus: KrausSet, ens: PureStateEnsemble, label) -> float:
    """Fidelity the outcome would have had under the positive-part measurement.

    mean_a[ sqrt(<N²>) <N> ] / mean_a <N²>  with N = sqrt(M†M) from the SVD
    of M (:func:`conjmeas.linalg.polar_decompose`), i.e. the branch fidelity
    of N.  The regime check :func:`conjmeas.runner.disturbance_outcomes`
    asks for it; the stage statistics do not compute it.
    """
    _, N = linalg.polar_decompose(kraus.operator(label))
    w, n2 = branch_weights_and_squared_moduli(ens, N)
    return _fidelity(w, n2, w.mean())
