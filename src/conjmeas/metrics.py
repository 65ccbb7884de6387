"""Information gain and fidelity statistics over a pure-state ensemble.

All information quantities are in bits (base-2 logarithms).  The same
likelihood formula serves every stage, :func:`likelihood_info_gain` for a
list of weights: the per-outcome weights are ``<A†A>_a`` for whichever
operator A maps the initial state to the (unnormalized) branch state.

Every per-branch quantity comes from one private kernel, ``_branch_sums``,
which takes all of a call's operators at once and returns four numbers per
branch: p = mean(w), and mean(x), Σ x log2 x and Σ sqrt(x |amp_v|²) of one
operator V, a complex multiple of the branch's own operator A, with the
weight w = <A†A>, x = <V†V> and the amplitude amp_v = <psi|V|psi> of each
state.  These are quadratic forms in psi, hence real-linear in the
per-state features of the ensemble (see :mod:`conjmeas.ensemble`): the
populations P_i = |psi_i|² (N×d floats, cached on first use) and the
coherences z_ij = conj(psi_i) psi_j, i < j.  One test on the stack of the
call's operators decides the path.  If every operator is diagonal (every
off-diagonal entry exactly zero, as for the spin-probe operators and their
compositions) the rows of a diagonal read the populations alone; any other
call reads the feature matrix [P | Re z | Im z] (N×d² floats, built only
then) with the rows of A†A and of A, built by one ``form_coefficients``
call in the features' column order.  p is the w row on the cached column
means, with no pass over the states, its population columns summed apart
from its coherence columns, which are zero for a diagonal operator: a
diagonal operator's p has the same bits on either path.
:func:`mean_weights` is that rule, and every probability of the library
is read through it or through the kernel.

Neither I nor F changes when an operator is scaled by a complex factor, so
a diagonal call sums them per key, not per branch.  Its V = √û·ê is the
branch's ray: û, the direction, is the w row over p, each entry rounded to
a mantissa grid of ``TOL.direction_grid``, and ê holds the unit phase
factors of a = diag(A) relative to its entry at the first maximum of û,
their real and imaginary parts rounded to whole steps of the same grid,
and all imaginary parts negated when the first nonzero one is negative:
a diagonal branch and its complex conjugate, whose weights and amplitude
moduli agree on every state, have one ray.  The ray's x row is û itself,
so x = û·P and mean(x) = û·means is about 1, which leaves no p log2 p to
cancel.  One sort of the branches' ray rows [û; √û·ê] finds the rays,
and the rays on one direction lie next to each other in it.  Branches on
one direction share one log pass, and branches on one ray one root pass.
The spin probe's cell weights |a_m|²|a_mu|² point in a direction set by
m + mu alone, 29 for the 225 cells (m, mu) at j = 7, and at s = 1/2 the
15 first-stage weights |a_m|² point along 15 of them; at s = 1/2 each
cell diagonal is also a complex multiple of one vector per m + mu, so a
headline spin run takes 15 + 29 root passes and 29 log passes for its
240 branches.  Any other call sums V = A/√p of each branch (V = A where
p is not positive), with x = w/p and mean(x) again about 1: its
operators seldom repeat, so it keys nothing.

The sums take one pass per ray (or, off the diagonal path, per branch)
over blocks of at most 2^15 states, so that its rows stay in cache: its
rows [x; Re amp_v; Im amp_v] on a block are one BLAS product whose shape
depends on N alone, each block is summed by numpy along those rows, not
by a BLAS dot, and the block sums are added in order.  A real ray, whose
Im amp row is zero (each of the 29 pair rays at s = 1/2), squares its Re
amp row alone: the Im amp row it skips would add +0 to |amp|² and change
no bit.  A branch's p
therefore depends on its own operator and the ensemble alone, its F on
its ray (diagonal) or operator (otherwise) and N, and its I on its
direction or operator and N: not on the other branches of the call,
whether they share its key or not, nor on the BLAS thread count.  An
operator whose dimension is not the ensemble's is rejected there.  The
dense O(N·d²) :func:`branch_weights_and_amplitudes` is the reference the
tests compare against.

One function turns the sums into I and F, for every stage
(:func:`branch_statistics`) and for :func:`likelihood_info_gain`.  A
value that needs the mean weight alone (the p(m) a second stage is
conditioned on, read by :func:`conditioning_probability`, or a success
probability) passes over no state either: :func:`mean_weights` reads it in
O(d²) per operator, with the bits the kernel gives the same operator.  The
positive-part fidelity F_opt of an outcome, which only the regime check
reads, is :func:`optimal_fidelity`, computed on request and not by the
stage statistics.  It is the library's one derivation of F_opt and of the
positive part N = sqrt(M†M) it reads: the regime check
(:func:`conjmeas.runner.disturbance_outcomes`) calls it once per outcome.

NaN in I and F is the only mark of an undefined outcome (p at the floor).
:func:`weighted_sum`, Σ p·v with zero weight on NaN, is the one reduction
behind the stage means and the summary scalars of :mod:`conjmeas.runner`.

:func:`two_stage_statistics` serves any second stage, one first outcome at
a time.  For the Hermitian-conjugate second stage {M_mu†} of a diagonal
set (the spin probe's T_mu(pi - theta) = (-1)^{j+mu} T_mu(theta)†, up to a
phase that changes no statistic), :func:`conjugate_two_stage_statistics`
returns the whole (m, mu) grid as one :class:`StageStatistics` of n×n
arrays, from one :func:`branch_statistics` call on the n first-stage
operators and the n cells of each defined row m, conditioned on 1 and on
p(m).  A cell below the diagonal is the exact conjugate of its mirror
cell, M_mu† M_m = conj(M_m† M_mu) for diagonal operators, so the two have
the same p and the same ray, and p, I and F are symmetric wherever both
outcomes are defined; the kernel takes one pass for both.  All cells
come from one batched product over the stacked operators, each mirror
cell conjugated in place, and each cell has the bits of its own 2-D
product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .ensemble import PureStateEnsemble, form_coefficients
from .errors import (
    DimensionMismatchError,
    InvalidWeightsError,
    UnknownLabelError,
    ValidationError,
    ZeroProbabilityOutcomeError,
)
from .measurement import KrausSet, _label_key
from .tolerances import TOL

# States per block of the branch kernel
_BLOCK = 2**15


def likelihood_info_gain(weights) -> float:
    """Shannon information (bits) carried by one outcome about the ensemble index.

    For nonnegative likelihood weights w(a) under a uniform prior this equals
    H0 - H(outcome):

        [mean(w log2 w) - mean(w) log2 mean(w)] / mean(w)

    with 0 log 0 = 0.  The result is nonnegative up to roundoff and is
    clipped at zero.  Weights that overflow the kernel are rejected.
    """
    w = np.asarray(weights, dtype=float)
    try:
        with np.errstate(over="raise", invalid="raise"):
            # for w >= 0, mean(w) > 0 holds exactly when some w > 0, unless
            # the mean underflows to zero; testing the mean covers both
            if not w.size or w.min() < 0 or not w.mean() > 0:
                raise InvalidWeightsError("weights must be nonnegative with a positive mean")
            p = np.array([w.mean()])
            w_log_w = np.sum(w * np.log2(w, out=np.zeros_like(w), where=w > 0))
            info, _ = _gain_and_fidelity(p, w_log_w, 0.0, w.size)
    except FloatingPointError as exc:
        raise InvalidWeightsError(f"weights overflow the information kernel: {exc}") from None
    return float(info[0])


def _gain_and_fidelity(mean, x_log_x, root, n):
    """(I, F) of branches from their sums over the n states.

    ``mean``, ``x_log_x`` and ``root`` are mean(x), Σ x log2 x and
    Σ sqrt(x |amp|²) of one operator proportional to the branch's, with
    x = <V†V> and amp = <psi|V|psi>: I = (Σ x log2 x / n - mean log2 mean) /
    mean, clipped at zero, and F = Σ sqrt(x |amp|²) / n / mean, neither of
    which changes when the operator is scaled.  An I below
    ``TOL.info_roundoff`` is a failure of the kernel, not roundoff, and
    raises.
    """
    gain = (x_log_x / n - mean * np.log2(mean)) / mean
    if np.any(gain < TOL.info_roundoff):
        raise InvalidWeightsError(f"information kernel returned {gain.min():.3e}")
    return np.maximum(gain, 0.0), root / n / mean


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

    The dense O(N·d²) evaluation, for any operator A.  The branch kernel
    computes both from the per-state features instead; this stays as the
    reference the tests compare against.
    """
    out = states @ op.T
    w = np.einsum("ad,ad->a", out.conj(), out).real
    amp = np.einsum("ad,ad->a", states.conj(), out)
    return w, amp


def _branch_rows(A: np.ndarray, diagonal: bool) -> np.ndarray:
    """(K, 3, c) real rows [w; Re amp; Im amp] of a (K, d, d) stack on the ensemble features.

    Diagonal operators (a = diag(A)) read the populations, c = d: the rows
    |a|², Re a and Im a.  Any other set reads the features [P | Re z | Im z],
    c = d²: the Re row of A†A and both rows of A, from one
    :func:`conjmeas.ensemble.form_coefficients` call on the stack [A†A; A].
    """
    if diagonal:
        a = np.diagonal(A, axis1=1, axis2=2)
        return np.stack([a.real**2 + a.imag**2, a.real, a.imag], axis=1)
    k = len(A)
    rows = form_coefficients(np.concatenate([linalg.dagger(A) @ A, A]))
    return np.concatenate([rows[:k, :1], rows[k:]], axis=1)


def _snap(x):
    """x with each mantissa rounded to a multiple of ``TOL.direction_grid``."""
    mantissa, exponent = np.frexp(x)
    return np.ldexp(np.round(mantissa / TOL.direction_grid) * TOL.direction_grid, exponent)


def _operator_stack(ops, ens: PureStateEnsemble):
    """``(A, diagonal)``: the (K, d, d) stack of ``ops`` and whether every one is diagonal.

    The stack is :func:`conjmeas.linalg.as_operator` of ``ops``, so a
    KrausSet's operators are read as they are.  An operator whose dimension
    is not the ensemble's is rejected.
    """
    A = linalg.as_operator(ops)
    if A.shape[1:] != (ens.dim, ens.dim):
        raise DimensionMismatchError("operator and ensemble dimensions differ")
    return A, linalg.is_diagonal(A)


def mean_weights(ops, ens: PureStateEnsemble) -> np.ndarray:
    """p = mean <A†A> of each operator A in ``ops``: the one probability rule.

    The mean of a form is the form on the mean features, Tr(A†A rho) for
    the ensemble's average state rho: each operator's weight row from
    :func:`_branch_rows` dotted with the cached column means of the
    populations (a diagonal stack, whose features are not built) or of the
    features, by :func:`_mean_forms`.  O(d²) per operator, with no pass
    over the N states; the dot is an elementwise product and a numpy sum,
    not a BLAS product.  The branch kernel reads its p by the same rule,
    and a diagonal operator's p is the same on either path, so a p read
    here has the bits of that operator's p in any kernel call.
    """
    A, diagonal = _operator_stack(ops, ens)
    return _mean_forms(_branch_rows(A, diagonal)[:, 0], ens)


def _mean_forms(rows, ens: PureStateEnsemble) -> np.ndarray:
    """Each (c,) row of ``rows`` on the ensemble's cached column means.

    The population columns, the first d, are summed on their own, and the
    coherence columns of a c = d² row apart from them and added: a diagonal
    operator's coherence entries are zero, so its p (and the mean of a row
    proportional to its weight row) has the same bits on either path.
    """
    d = ens.dim
    mean = (rows[:, :d] * ens.population_means).sum(axis=-1)
    if rows.shape[-1] > d:
        mean += (rows[:, d:] * ens.feature_means[d:]).sum(axis=-1)
    return mean


def _branch_sums(ops, ens: PureStateEnsemble):
    """``(p, mean, x_log_x, root)`` of every branch A in ``ops``: the branch kernel.

    p = mean(w) is the w row on the cached column means, by
    :func:`_mean_forms` as in :func:`mean_weights`, with no pass over the
    states, and mean(x) is read the same way.  I and F read the
    sums of one operator V, a complex multiple of A, with x = <V†V> and
    amp_v = <psi|V|psi>: mean = mean(x), x_log_x = Σ x log2 x and root =
    Σ sqrt(x |amp_v|²), none of whose ratios changes when an operator is
    scaled.  In any other call than a diagonal one, V = A/√p (A where p is
    not positive), so x = w/p and mean is about 1, and every branch takes
    both passes of :func:`_pass_sums`.

    A diagonal call builds each branch's ray rows [û; √û·ê] from the keys
    of :func:`_ray_keys`, with ê = (e_re + i e_im)/|e_re + i e_im| (0 where
    û is 0): V = √û·ê, whose x row is û itself, so x = û·P and mean = û·means
    is about 1.  One sort of those rows finds the rays; since they start
    with û, the rays on one direction are adjacent, and the first of each
    is its direction's lead.  Each ray takes one root pass, each lead also
    a log pass whose sum the other rays of its direction carry, and every
    branch reads its ray's sums.
    A branch and its complex conjugate have one key, so they share both
    passes.  A branch's p therefore depends on its own operator and the
    ensemble, its F on its ray and N, and its I on its direction and N: not
    on the other branches of the call, nor on whether any is non-diagonal.
    """
    A, diagonal = _operator_stack(ops, ens)
    rows = _branch_rows(A, diagonal)
    p = _mean_forms(rows[:, 0], ens)
    if not diagonal:
        # V = A/√p: x = w/p, whose mean is about 1, and amp_v = amp/√p
        q = np.where(p > 0, p, 1.0)[:, None]
        rows[:, 0] /= q
        rows[:, 1:] /= np.sqrt(q)[:, None]
        root, x_log_x = _pass_sums(rows, np.ones(len(rows), bool), ens.features.T, diagonal=False)
        return p, _mean_forms(rows[:, 0], ens), x_log_x, root
    u, e = _ray_keys(np.diagonal(A, axis1=1, axis2=2), rows[:, 0], p)
    r = np.sqrt(e[0] ** 2 + e[1] ** 2)
    amp = np.divide(np.sqrt(u) * e, r, out=np.zeros_like(e), where=r > 0)
    rays, on_ray = np.unique(np.hstack([u, *amp]), axis=0, return_inverse=True)
    rays = rays.reshape(len(rays), 3, -1)
    lead = np.concatenate([[True], np.any(rays[1:, 0] != rays[:-1, 0], axis=1)])
    root, x_log_x = _pass_sums(rays, lead, ens.populations.T, diagonal=True)
    return p, _mean_forms(u, ens), x_log_x[on_ray], root[on_ray]


def _ray_keys(a, w, p):
    """``(û, e)`` of K diagonal branches, with diagonals a, w rows and p: their keys.

    û, the direction, is the w row over p with each entry snapped to the
    grid ``TOL.direction_grid``; a branch with p = 0 (w = 0 on every state)
    is undefined and gets the zero row.  e = (e_re, e_im) holds the real
    and imaginary parts of the phase factors of a relative to its entry at
    the first maximum of û, in whole steps of the grid, and 0 where û is 0;
    where the first nonzero entry of e_im is negative, e_im is negated,
    which is exact on whole steps.  (û, e) fixes the ray: the branch, or
    its complex conjugate, is a complex multiple of √û·ê, with
    ê = (e_re + i e_im)/|e_re + i e_im|, to the grid, and the kernel keys
    the ray by those rows.  A diagonal branch and its conjugate, which
    have the same w row and the same |amp| on every state, get one key.
    """
    u = _snap(np.divide(w, p[:, None], out=np.zeros_like(w), where=p[:, None] > 0))
    z = a * np.conj(np.take_along_axis(a, np.argmax(u, axis=1)[:, None], axis=1))
    # two real divisions: a complex one by a subnormal |z| overflows
    r = np.abs(z)
    e = np.divide([z.real, z.imag], r, out=np.zeros((2, *r.shape)), where=u > 0)
    e = np.round(e / TOL.direction_grid)
    # a branch and its conjugate share the ray: e_im's first nonzero entry is made positive
    first = np.take_along_axis(e[1], np.argmax(e[1] != 0, axis=1)[:, None], axis=1)
    np.negative(e[1], out=e[1], where=first < 0)
    return u, e


def _pass_sums(rows, logs, columns, diagonal):
    """``(root, x_log_x)`` of K rays' rows over the states: the kernel's one pass.

    ``rows`` is (K, 3, c): each ray's [x; Re amp; Im amp], and ``logs`` is
    K flags, the first one set.  root = Σ sqrt(x |amp|²) of every ray, and
    x_log_x = Σ x log2 x of every flagged ray, which later rays carry until
    the next flagged one.  Each ray walks the (c, N) ``columns`` in blocks
    of ``_BLOCK`` states, or of all N when N is smaller, so that its rows
    on a block stay in cache: one BLAS product of the same shape in every
    call on the ensemble, whose rows numpy sums along their contiguous
    axis, and the block sums are added in order.  A ray's sums depend on
    its own rows and N alone, not on the other branches or the BLAS thread
    count.  A real ray, whose Im amp row is all ±0 (every ray at s = 1/2
    on the conjugate grid), squares its Re amp row alone: the Im amp values
    it skips are ±0, whose squares add +0 to |amp|² and change no bit.
    """
    n = columns.shape[1]
    width = min(n, _BLOCK)
    work = np.empty(3 * width)
    sums = np.zeros((len(rows), 2))
    real = ~rows[:, 2].any(axis=1)
    # log2(0) = -inf and 0·-inf = NaN: a block with x = 0 is summed again below
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, (r, log) in enumerate(zip(rows, logs)):
            if not log:
                sums[k, 1] = sums[k - 1, 1]
            for b0 in range(0, n, width):
                cols = columns[:, b0 : b0 + width]
                block = work[: 3 * cols.shape[1]].reshape(3, -1)
                np.matmul(r, cols, out=block)
                x, amp2, im = block
                if not diagonal:
                    # x = ||A psi||² >= 0; a form on the features can land a few ulps below
                    np.maximum(x, 0.0, out=x)
                if real[k]:
                    np.multiply(amp2, amp2, out=amp2)
                else:
                    np.multiply(block[1:], block[1:], out=block[1:])
                    amp2 += im
                amp2 *= x
                sums[k, 0] += np.sqrt(amp2, out=amp2).sum()
                if log:
                    x_log_x = np.log2(x, out=im)
                    x_log_x *= x
                    s = x_log_x.sum()
                    if np.isnan(s):
                        x_log_x[x == 0.0] = 0.0  # 0 log 0 = 0
                        s = x_log_x.sum()
                    sums[k, 1] += s
    return sums.T


def branch_statistics(composed_ops, ens: PureStateEnsemble, p_given=1.0):
    """Per-branch p, I and F: the one routine behind every stage.

    All branches are evaluated together by one pass of the branch kernel.
    A branch is undefined (NaN I and F) when p / p_given is at the floor;
    ``p_given`` is the probability of the outcome the branches are
    conditioned on (1 for a first stage): one number for every branch, or
    an array of one per branch, as the conjugate grid passes.
    """
    p, *sums = _branch_sums(composed_ops, ens)
    defined = p / p_given > TOL.prob_floor
    info, fid = np.full((2, len(p)), np.nan)
    info[defined], fid[defined] = _gain_and_fidelity(*(s[defined] for s in sums), ens.n)
    return p, info, fid


def stage_statistics(kraus: KrausSet, ens: PureStateEnsemble) -> StageStatistics:
    """First-stage statistics: p(m), I(m), F(m) and the p(m)-weighted means."""
    return StageStatistics(kraus.labels, *branch_statistics(kraus.operators, ens))


def conditioning_probability(
    kraus: KrausSet, first_label, second: KrausSet, ens: PureStateEnsemble
) -> float:
    """p(m) of the first outcome that the second stage ``second`` is conditioned on.

    ``mean_weights([M])``, so it has the bits of p(m) in
    :func:`stage_statistics`, whatever the other operators of the set.  A
    second stage of another dimension than the ensemble, and a first
    outcome at or below the probability floor, are rejected here, before a
    caller composes C·M or divides by p(m).
    """
    if second.dim != ens.dim:
        raise DimensionMismatchError("measurement and ensemble dimensions differ")
    p_first = float(mean_weights([kraus.operator(first_label)], ens)[0])
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
    composed = second.operators @ kraus.operator(first_label)
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
    p(m) is read first by :func:`mean_weights`.  One
    :func:`branch_statistics` call then takes the n first-stage operators,
    conditioned on 1, and the n cells of each defined row m, conditioned on
    p(m); an undefined row is not evaluated.  A cell mu >= m is
    M_mu† M_m, and a cell mu < m the exact conjugate of its mirror cell:
    one batched product over the stacked operators makes every cell as
    M_max† M_min, each with the bits of its own 2-D product, and the cells
    mu < m are then conjugated in place.  For diagonal M a cell and its
    mirror have the same p and the same ray key, so p, I and F are
    symmetric in (m, mu) where both outcomes are defined, and the kernel
    takes one pass for both.
    """
    A = kraus.operators
    if not linalg.is_diagonal(A):
        raise ValidationError("the conjugate grid needs diagonal Kraus operators")
    n = len(A)
    p_first = mean_weights(A, ens)
    rows = np.flatnonzero(p_first > TOL.prob_floor)
    m, mu = np.repeat(rows, n), np.tile(np.arange(n), len(rows))
    cells = linalg.dagger(A)[np.maximum(m, mu)] @ A[np.minimum(m, mu)]
    np.conj(cells, out=cells, where=(mu < m)[:, None, None])
    p_given = np.concatenate([np.ones(n), np.repeat(p_first[rows], n)])
    stats = np.array(branch_statistics(np.concatenate([A, cells]), ens, p_given))
    grid = np.full((3, n, n), np.nan)
    grid[:, rows] = stats[:, n:].reshape(3, len(rows), n)
    first = StageStatistics(kraus.labels, *stats[:, :n])
    return first, StageStatistics(kraus.labels, *grid, conditional=grid[0] / p_first[:, None])


def optimal_fidelity(kraus: KrausSet, ens: PureStateEnsemble, label) -> float:
    """Fidelity the outcome would have had under the positive-part measurement.

    mean_a[ sqrt(<N²>) <N> ] / mean_a <N²>  with N = sqrt(M†M) from the SVD
    of M (:func:`conjmeas.linalg.polar_decompose`), i.e. the branch fidelity
    of N in a one-branch kernel call, NaN at the probability floor.  The
    stage statistics do not compute it, and no other library function
    outside :mod:`conjmeas.linalg` takes a positive part:
    :func:`conjmeas.runner.disturbance_outcomes` calls this once per
    defined outcome.
    """
    _, N = linalg.polar_decompose(kraus.operator(label))
    return float(branch_statistics([N], ens)[2][0])
