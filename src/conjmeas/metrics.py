"""Information gain and fidelity statistics over a pure-state ensemble.

All information quantities are in bits (base-2 logarithms).  The same
likelihood formula serves every stage, :func:`likelihood_info_gain` for a
list of weights: the per-outcome weights are ``<A†A>_a`` for whichever
operator A maps the initial state to the (unnormalized) branch state.

Every per-branch quantity comes from one private kernel, ``_branch_sums``,
which takes all of a call's operators at once and returns five numbers
per branch: p = mean(w), the pair mean(x) and Σ x log2 x of one form x
proportional to w, and the pair mean(v) and Σ sqrt(v |amp_v|²) of one
operator V, a complex multiple of the branch's own operator A, with the
weight w = <A†A>, v = <V†V> and the amplitude amp_v = <psi|V|psi> of each
state.  These are quadratic forms in psi, hence real-linear in the
per-state features of the ensemble (see :mod:`conjmeas.ensemble`): the
populations P_i = |psi_i|² (N×d floats, cached on first use) and the
coherences z_ij = conj(psi_i) psi_j, i < j.  One test on the stack of the
call's operators decides the path.  If every operator is diagonal (every
off-diagonal entry exactly zero, as for the spin-probe operators and their
compositions) the rows [|a|², Re a, Im a] of a diagonal a read the
populations alone; any other call reads the feature matrix [P | Re z | Im z]
(N×d² floats, built only then) with the rows of A†A and of A, built by one
``form_coefficients`` call in the features' column order.  p is the w row
on the cached column means, the rule of
:func:`conjmeas.ensemble.mean_expectation`, with no pass over the states.

Neither I nor F changes when an operator is scaled by a complex factor, so
a diagonal call sums them per key, not per branch.  I sums x = f, the
branch's weight direction: f = û·P, with û the w row over p, each entry
rounded to a mantissa grid of ``TOL.direction_grid``, and mean(f) = û·means
about 1, which leaves no p log2 p to cancel.  F sums over V = √û·e^{iφ},
the branch's ray: e^{iφ} holds the phase factors of a = diag(A) relative
to its entry at the first maximum of û, their real and imaginary parts
rounded to whole steps of the same grid.  Branches on one direction share
one log pass, and branches on one ray one root pass.  The spin probe's
pair weights |a_m|²|a_mu|² point in a direction set by m + mu alone, 29
for the 120 pairs at j = 7, and at s = 1/2 the 15 first-stage weights
|a_m|² point along 15 of them; at s = 1/2 each pair diagonal is also a
complex multiple of one vector per m + mu, so a headline spin run takes
15 + 29 root passes and 29 log passes for its 135 branches.  Any other
call sums x = w itself, with mean(x) = p, and V = A: its operators seldom
repeat, and a grid row would cost one more product over d² columns.

The sums take one pass, over blocks of at most 2^15 branch×state elements,
so that a block's rows stay in cache: each ray's (or, off the diagonal
path, branch's) rows on a block are one BLAS product whose shape depends
on N alone (the first ray on a direction adds one for its f row), and
each sum adds fixed 256-state leaf sums made by numpy, not by a BLAS dot.
A branch's p therefore depends on its own operator and N alone, its F on
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
probability) passes over no state either: it is one form on the mean
features, :func:`conjmeas.ensemble.mean_expectation`, in O(d²).  The
positive-part fidelity F_opt of an outcome, which only the regime check
reads, is :func:`optimal_fidelity`, computed on request and not by the
stage statistics; the regime check
(:func:`conjmeas.runner.disturbance_outcomes`) takes the F_opt of all its
outcomes in one kernel call.

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
F are symmetric and each pair is evaluated once and mirrored.  The first
stage and all the pairs are one kernel call: the p(m) that picks and
conditions the pairs is read before it, with the kernel's own rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .ensemble import PureStateEnsemble, form_coefficients, mean_expectation
from .errors import (
    DimensionMismatchError,
    InvalidWeightsError,
    UnknownLabelError,
    ValidationError,
    ZeroProbabilityOutcomeError,
)
from .measurement import KrausSet, _label_key
from .tolerances import TOL

# States per leaf sum, and branch×state elements per block of the branch kernel
_LEAF = 256
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
            info, _ = _gain_and_fidelity(p, w_log_w, p, 0.0, w.size)
    except FloatingPointError as exc:
        raise InvalidWeightsError(f"weights overflow the information kernel: {exc}") from None
    return float(info[0])


def _gain_and_fidelity(mean, x_log_x, p_ray, root, n):
    """(I, F) of branches from their sums over the n states.

    ``mean`` and ``x_log_x`` are mean(x) and Σ x log2 x of one form x
    proportional to the weight w, and ``p_ray`` and ``root`` are mean(v)
    and Σ sqrt(v |amp_v|²) of one operator proportional to the branch's:
    I = (Σ x log2 x / n - mean log2 mean) / mean, clipped at zero, and
    F = Σ sqrt(v |amp_v|²) / n / p_ray, neither of which changes when x or
    the operator is scaled.  An I below ``TOL.info_roundoff`` is a failure
    of the kernel, not roundoff, and raises.
    """
    gain = (x_log_x / n - mean * np.log2(mean)) / mean
    if np.any(gain < TOL.info_roundoff):
        raise InvalidWeightsError(f"information kernel returned {gain.min():.3e}")
    return np.maximum(gain, 0.0), root / n / p_ray


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
        return _diagonal_rows(np.diagonal(A, axis1=1, axis2=2))
    k = len(A)
    rows = form_coefficients(np.concatenate([np.conj(np.swapaxes(A, 1, 2)) @ A, A]))
    return np.concatenate([rows[:k, :1], rows[k:]], axis=1)


def _diagonal_rows(a: np.ndarray) -> np.ndarray:
    """(K, 3, d) rows |a|², Re a and Im a of K diagonals a, on the populations."""
    return np.stack([a.real**2 + a.imag**2, a.real, a.imag], axis=1)


def _snap(x):
    """x with each mantissa rounded to a multiple of ``TOL.direction_grid``."""
    mantissa, exponent = np.frexp(x)
    return np.ldexp(np.round(mantissa / TOL.direction_grid) * TOL.direction_grid, exponent)


def _branch_sums(ops, ens: PureStateEnsemble):
    """``(p, mean, x_log_x, p_ray, root)`` of every branch A in ``ops``: the branch kernel.

    p = mean(w) is the w row on the cached feature means, with no pass over
    the states.  I reads mean = mean(x) and x_log_x = Σ x log2 x of one form
    x proportional to w, and F reads p_ray = mean(v) and root =
    Σ sqrt(v |amp_v|²) of one operator V, a complex multiple of A, with
    v = <V†V> and amp_v = <psi|V|psi>: neither ratio changes when an
    operator is scaled.  In any other call than a diagonal one, x = w,
    V = A and mean = p_ray = p, and every branch takes both passes of
    :func:`_pass_sums`.

    A diagonal call keys each branch by its weight direction û and by its
    ray (û, e), both from :func:`_ray_keys`.  x is the direction f = û·P,
    with mean = û·means about 1, and V is the ray's own diagonal
    √û·(e_re + i e_im)·grid, whose w and amp rows both come from that one
    vector.  Each ray takes one root pass, the first ray on each direction
    also a log pass with its f row, and every branch reads its ray's and
    its direction's sums.  A branch's p therefore depends on its own
    operator and N, its F on its ray and N, and its I on its direction and
    N: not on the other branches of the call.
    """
    if any(op.shape != (ens.dim, ens.dim) for op in ops):
        raise DimensionMismatchError("operator and ensemble dimensions differ")
    A = np.array(ops)
    diagonal = linalg.is_diagonal(A)
    rows = _branch_rows(A, diagonal)
    if not diagonal:
        p = np.sum(rows[:, 0] * ens.feature_means, axis=-1)
        root, x_log_x = _pass_sums(rows, len(rows), ens.features.T, diagonal=False)
        return p, p, x_log_x, p, root
    means = ens.population_means
    w = rows[:, 0]
    p = np.sum(w * means, axis=-1)
    u, e = _ray_keys(np.diagonal(A, axis1=1, axis2=2), w, p)
    _, ray, on_ray = np.unique(np.hstack([u, *e]), axis=0, return_index=True, return_inverse=True)
    _, lead, on_dir = np.unique(u[ray], axis=0, return_index=True, return_inverse=True)
    # the rays that take a log pass come first, in direction order
    order = np.concatenate([lead, np.flatnonzero(lead[on_dir] != np.arange(len(ray)))])
    rep = ray[order]
    v = np.sqrt(u[rep]) * (e[0, rep] + 1j * e[1, rep]) * TOL.direction_grid
    ray_rows = np.concatenate([_diagonal_rows(v), u[rep, None]], axis=1)
    root, x_log_x = _pass_sums(ray_rows, len(lead), ens.populations.T, diagonal=True)
    p_ray = np.sum(ray_rows[:, 0] * means, axis=-1)
    place = np.empty_like(order)
    place[order] = np.arange(len(order))
    at = place[on_ray]  # each branch's ray, as a place in the pass order
    return p, np.sum(u * means, axis=-1), x_log_x[on_dir[on_ray]], p_ray[at], root[at]


def _ray_keys(a, w, p):
    """``(û, e)`` of K diagonal branches, with diagonals a, w rows and p: their keys.

    û, the direction, is the w row over p with each entry snapped to the
    grid ``TOL.direction_grid``; a branch with p = 0 (w = 0 on every state)
    is undefined and gets the zero row.  e = (e_re, e_im) holds the real
    and imaginary parts of the phase factors of a relative to its entry at
    the first maximum of û, in whole steps of the grid, and 0 where û is 0.
    (û, e) keys the ray: the branch is a complex multiple of
    √û·(e_re + i e_im)·grid, to the grid.
    """
    u = _snap(np.divide(w, p[:, None], out=np.zeros_like(w), where=p[:, None] > 0))
    z = a * np.conj(np.take_along_axis(a, np.argmax(u, axis=1)[:, None], axis=1))
    # two real divisions: a complex one by a subnormal |z| overflows
    r = np.abs(z)
    e = np.divide([z.real, z.imag], r, out=np.zeros((2, *r.shape)), where=u > 0)
    return u, np.round(e / TOL.direction_grid)


def _pass_sums(rows, n_log, columns, diagonal):
    """``(root, x_log_x)`` of K branches' rows over the states: the kernel's one pass.

    ``rows`` is (K, h, c): each branch's [w; Re amp; Im amp] and, in a
    diagonal call, its f row.  root = Σ sqrt(w |amp|²) of every branch, and
    x_log_x = Σ x log2 x of the first ``n_log``, with x = f on the diagonal
    path and x = w otherwise.  The pass walks the (c, N) ``columns`` in
    blocks of ``_BLOCK`` states, or of all N when N is smaller, with as many
    branches per block as keep it within ``_BLOCK`` elements.  Each branch's
    rows on a block, and an f row, are BLAS products of the same shapes in
    every call on the ensemble, and each sum adds ``_LEAF``-state leaf sums:
    a branch's sums depend on its own rows and N alone, not on the other
    branches, the block size or the BLAS thread count.
    """
    (k, height, _), n = rows.shape, columns.shape[1]
    width = min(n, _BLOCK)
    group = min(k, _BLOCK // width)
    work = np.empty(height * group * width)
    leaves = np.empty((group, 2, -(-n // _LEAF)))
    sums = np.empty((k, 2))
    # log2(0) = -inf and 0·-inf = NaN: a leaf with x = 0 is summed again below
    with np.errstate(divide="ignore", invalid="ignore"):
        for g0 in (*range(0, n_log, group), *range(n_log, k, group)):
            logs = g0 < n_log
            batch = rows[g0 : min(g0 + group, n_log if logs else k)]
            g, s = len(batch), 2 if logs else 1
            for b0 in range(0, n, width):
                cols = columns[:, b0 : b0 + width]
                block = work[: height * g * cols.shape[1]].reshape(g, height, -1)
                for r, out in zip(batch, block):
                    np.matmul(r[:3], cols, out=out[:3])
                    if logs and diagonal:
                        np.matmul(r[3], cols, out=out[3])
                w, amp2, im = block[:, 0], block[:, 1], block[:, 2]
                if not diagonal:
                    # w = ||A psi||² >= 0; a form on the features can land a few ulps below
                    np.maximum(w, 0.0, out=w)
                np.multiply(block[:, 1:3], block[:, 1:3], out=block[:, 1:3])
                amp2 += im
                amp2 *= w
                np.sqrt(amp2, out=amp2)
                if logs:
                    x = block[:, 3] if diagonal else w
                    x_log_x = np.log2(x, out=im)
                    x_log_x *= x
                # rows 1 and 2 now hold sqrt(w |amp|²) and, with logs, x log2 x
                at = slice(b0 // _LEAF, -(-(b0 + cols.shape[1]) // _LEAF))
                _leaf_sums(block[:, 1 : 1 + s], leaves[:g, :s, at])
                if logs and np.isnan(leaves[:g, 1, at]).any():
                    x_log_x[x == 0.0] = 0.0  # 0 log 0 = 0
                    _leaf_sums(block[:, 1:3], leaves[:g, :, at])
            leaves[:g, :s].sum(axis=-1, out=sums[g0 : g0 + g, :s])
    return sums[:, 0], sums[:n_log, 1]


def _leaf_sums(x, out):
    """Sums of the rows of x over consecutive ``_LEAF``-column leaves, into ``out``.

    Every leaf but a last partial one is ``_LEAF`` columns wide, summed by
    numpy along its contiguous last axis; ``x`` starts on a leaf boundary.
    """
    *rows, width = x.shape
    full = width // _LEAF
    x[..., : full * _LEAF].reshape(*rows, full, _LEAF).sum(axis=-1, out=out[..., :full])
    if width > full * _LEAF:
        x[..., full * _LEAF :].sum(axis=-1, out=out[..., full])


def branch_statistics(composed_ops, ens: PureStateEnsemble, p_given=1.0):
    """Per-branch p, I and F: the one routine behind every stage.

    All branches are evaluated together by one pass of the branch kernel.
    A branch is undefined (NaN I and F) when p / p_given is at the floor;
    ``p_given``, one per branch or one for all, is the probability of the
    outcome it is conditioned on (1 for a first stage).
    """
    sums = _branch_sums(composed_ops, ens)
    p = sums[0]
    defined = p / p_given > TOL.prob_floor
    info = np.full(p.shape, np.nan)
    fid = np.full(p.shape, np.nan)
    info[defined], fid[defined] = _gain_and_fidelity(*(s[defined] for s in sums[1:]), ens.n)
    return p, info, fid


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
    p, I and F are symmetric in (m, mu): each unordered pair mu >= m that a
    defined row needs is evaluated once and mirrored.  The n first-stage
    branches and those pairs are one kernel call.  p(m), which picks and
    conditions the pairs, is read before it by the kernel's own rule (the
    |a|² row on the population means), so it has the kernel's bits.
    """
    ops = kraus.operators
    A = np.array(ops)
    if not linalg.is_diagonal(A):
        raise ValidationError("the pair evaluation needs diagonal Kraus operators")
    if kraus.dim != ens.dim:
        raise DimensionMismatchError("measurement and ensemble dimensions differ")
    n = len(ops)
    p_first = np.sum(_branch_rows(A, diagonal=True)[:, 0] * ens.population_means, axis=-1)
    defined = p_first > TOL.prob_floor
    # a pair is conditioned on the least likely defined row that reads it
    p_row = np.where(defined, p_first, np.inf)
    m, mu = np.triu_indices(n)
    read = defined[m] | defined[mu]
    m, mu = m[read], mu[read]
    p, info, fid = branch_statistics(
        [*ops, *(linalg.dagger(ops[k]) @ ops[i] for i, k in zip(m, mu))],
        ens,
        np.concatenate([np.ones(n), np.minimum(p_row[m], p_row[mu])]),
    )
    first = StageStatistics(kraus.labels, p[:n], info[:n], fid[:n])
    joint = np.full((n, n), np.nan)
    grid_info = np.full((n, n), np.nan)
    grid_fid = np.full((n, n), np.nan)
    # NaN is set per row below, on p(mu | m)
    for grid, values in zip((joint, grid_info, grid_fid), (p, info, fid)):
        grid[m, mu] = grid[mu, m] = values[n:]
    joint[~defined] = np.nan
    conditional = joint / p_first[:, None]
    at_floor = ~(conditional > TOL.prob_floor)  # not <=: it also takes the NaN rows
    grid_info[at_floor] = np.nan
    grid_fid[at_floor] = np.nan
    return first, StageStatistics(kraus.labels, joint, grid_info, grid_fid, conditional=conditional)


def optimal_fidelity(kraus: KrausSet, ens: PureStateEnsemble, label) -> float:
    """Fidelity the outcome would have had under the positive-part measurement.

    mean_a[ sqrt(<N²>) <N> ] / mean_a <N²>  with N = sqrt(M†M) from the SVD
    of M (:func:`conjmeas.linalg.polar_decompose`), i.e. the branch fidelity
    of N, NaN at the probability floor.  The stage statistics do not
    compute it; :func:`conjmeas.runner.disturbance_outcomes` reads the same
    fidelity for all its outcomes at once.
    """
    _, N = linalg.polar_decompose(kraus.operator(label))
    return float(branch_statistics([N], ens)[2][0])
