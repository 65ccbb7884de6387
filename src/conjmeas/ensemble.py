"""Finite samples of uniformly random pure states, plus closed-form moments.

The sampler draws state vectors uniformly with respect to the unitarily
invariant (Fubini-Study) measure by normalizing complex Gaussian vectors.
The closed-form spin moments give an independent oracle for the sampled
ensemble averages.

Every quadratic form <psi|B|psi> is real-linear in the per-state features
[P | Re z | Im z]: the populations P_i = |psi_i|² and the coherences
z_ij = conj(psi_i) psi_j for i < j.  :func:`form_coefficients` turns B, or
a stack of them, into real coefficient rows in that column order, so a row
is read as it is: whole on the d² feature columns, or its first d entries
on the populations alone for a diagonal B.  Two places evaluate such rows
on the whole sample: :func:`expectation_values`, one form as one real
product, and the branch kernel of :mod:`conjmeas.metrics`, which reads the
same columns for the weight and amplitude of many branches at once.
No other module reads the populations or the features.

The mean of a form over the sample is the same row on the mean features,
i.e. Tr(B rho) for the ensemble's average state rho.  The ensemble caches
those column means (``population_means`` and ``feature_means``), and the
one reader of them is the probability rule of :mod:`conjmeas.metrics`
(``mean_weights``, and the branch kernel, which shares it): every
probability mean_a <psi_a|M†M|psi_a> is read there in O(d²), not from a
pass over the N states.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

import numpy as np

from . import linalg
from .errors import DimensionMismatchError
from .tolerances import doubled_half_integer

_GAUSS_SCALE = np.sqrt(0.5)
# Doubles of Gaussian draws per chunk of states: a chunk is drawn, scaled
# and normalized while it stays in cache.
_CHUNK = 2**15


@dataclass(frozen=True, eq=False)
class PureStateEnsemble:
    """N unit vectors in C^dim with uniform weights 1/N."""

    states: np.ndarray  # shape (N, dim), complex, rows normalized
    seed: int

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def n(self) -> int:
        return self.states.shape[0]

    @cached_property
    def populations(self) -> np.ndarray:
        """Read-only (N, dim) array |psi_a(sigma)|², computed once per ensemble.

        Stored column-major: the kernels read it transposed, one contiguous
        row per basis state.
        """
        pops = np.asfortranarray(self.states.real**2 + self.states.imag**2)
        pops.flags.writeable = False
        return pops

    @cached_property
    def features(self) -> np.ndarray:
        """Read-only (N, dim²) array [P | Re z | Im z], computed once per ensemble.

        The first dim columns copy the populations; z_ij = conj(psi_i) psi_j
        for the pairs i < j in ``np.triu_indices`` order fill the rest.
        Stored column-major like the populations.  Only forms with
        off-diagonal coefficients read it, so an ensemble that only meets
        diagonal operators never allocates these N·dim² floats.
        """
        x = np.asfortranarray(self.states.real)
        y = np.asfortranarray(self.states.imag)
        rows, cols = np.triu_indices(self.dim, 1)
        d, k = self.dim, rows.size
        feats = np.empty((self.n, d + 2 * k), order="F")
        feats[:, :d] = self.populations
        for c, (i, j) in enumerate(zip(rows, cols)):
            feats[:, d + c] = x[:, i] * x[:, j] + y[:, i] * y[:, j]
            feats[:, d + k + c] = x[:, i] * y[:, j] - y[:, i] * x[:, j]
        feats.flags.writeable = False
        return feats

    @cached_property
    def population_means(self) -> np.ndarray:
        """Column means of ``populations``: the diagonal of the average state."""
        return self.populations.mean(axis=0)

    @cached_property
    def feature_means(self) -> np.ndarray:
        """Column means of ``features``, which a non-diagonal mean form reads."""
        return self.features.mean(axis=0)


def sample_haar(dim: int, n: int, seed: int) -> PureStateEnsemble:
    """Sample ``n`` Haar-uniform pure states in dimension ``dim``.

    Deterministic for a fixed seed (counter-based Philox stream, so the
    sample for index a never depends on how the batch is chunked).  The
    states are read-only: the populations, the features and their column
    means are cached from them.

    One pass over chunks of at most ``_CHUNK`` doubles (2¹⁴/dim states, at
    least one), with no temporary of the sample's size: each chunk draws
    its normals from the one stream in order, scales them by √½, writes
    them as Re and Im into its rows of the output, and normalizes those
    rows in place.  The bits are those of the one-shot z[:, :d] + 1j·z[:, d:]
    divided by ``np.linalg.norm(states, axis=1, keepdims=True)``: the squared
    norm is the real part of numpy's complex product conj(ψ)·ψ summed along
    each row in the order of ``np.add.reduce`` (by :func:`_row_sums`, down
    the columns for dim < 8), and numpy's complex ÷ real is a product with
    1/‖ψ‖, which a real division is not.
    """
    if dim < 2:
        raise ValueError("dim must be at least 2")
    if n < 1:
        raise ValueError("need at least one state")
    rng = np.random.Generator(np.random.Philox(key=seed))
    states = np.empty((n, dim), dtype=complex)
    rows = max(1, _CHUNK // (2 * dim))
    draws = np.empty((min(n, rows), 2 * dim))
    for start in range(0, n, rows):
        psi = states[start : start + rows]
        z = draws[: len(psi)]
        rng.standard_normal(out=z)
        z *= _GAUSS_SCALE
        psi.real = z[:, :dim]
        psi.imag = z[:, dim:]
        norm2 = _row_sums((psi.conj() * psi).real)
        flat = psi.view(float)
        flat *= (1.0 / np.sqrt(norm2))[:, None]
    states.flags.writeable = False
    return PureStateEnsemble(states=states, seed=seed)


def _row_sums(a: np.ndarray) -> np.ndarray:
    """``np.add.reduce(a, axis=1)`` of a 2-D array of non-negative floats, bit for bit.

    numpy's pairwise sum adds a row of fewer than 8 entries one entry after
    another, from the first, so such rows are summed down the columns in
    that order: one vector addition per column instead of one reduction
    per row.  Longer rows keep ``np.add.reduce``, whose pairwise order is
    its own.
    """
    if a.shape[1] >= 8:
        return np.add.reduce(a, axis=1)
    total = a[:, 0].copy()
    for column in a.T[1:]:
        total += column
    return total


@cache
def _pair_slots(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only flat indices i·dim + j and j·dim + i of the pairs i < j, in triu order.

    Built once per dimension: the form kernel asks for them on every call.
    """
    rows, cols = np.triu_indices(dim, 1)
    upper, lower = rows * dim + cols, cols * dim + rows
    upper.flags.writeable = False
    lower.flags.writeable = False
    return upper, lower


def form_coefficients(B: np.ndarray) -> np.ndarray:
    """Real coefficient rows of <psi|B|psi> on the features [P | Re z | Im z].

    Returns one array of shape (2, d²), its columns in the order of
    :attr:`PureStateEnsemble.features`: row 0 gives Re <psi|B|psi> and row 1
    gives Im <psi|B|psi>.  A stack of matrices, shape (..., d, d), gives the
    rows of each, shape (..., 2, d²).  The first d columns, on the
    populations, are Re and Im of diag(B).  With z = conj(psi_i) psi_j, the
    pair (i, j) contributes z B_ij + conj(z) B_ji, whose real and imaginary
    parts are
    Re z Re(B_ij + B_ji) - Im z Im(B_ij - B_ji) and
    Re z Im(B_ij + B_ji) + Im z Re(B_ij - B_ji).
    """
    *stack, d, _ = B.shape
    upper, lower = _pair_slots(d)
    flat = B.reshape(*stack, d * d)
    a = flat[..., :: d + 1]
    u, v = flat.take(upper, axis=-1), flat.take(lower, axis=-1)
    s, t = u + v, u - v
    k = d + upper.size
    out = np.empty((*stack, 2, d * d))
    out[..., 0, :d], out[..., 1, :d] = a.real, a.imag
    out[..., 0, d:k], out[..., 1, d:k] = s.real, s.imag
    out[..., 0, k:], out[..., 1, k:] = -t.imag, t.real
    return out


def expectation_values(ens: PureStateEnsemble, A) -> np.ndarray:
    """Vector of quantum expectations <psi_a|A|psi_a> over the sample, for a Hermitian A.

    One product of A's real form row: on the populations for a diagonal A,
    whose row is its first d entries, so the features are never built, and
    on the features [P | Re z | Im z] otherwise.
    """
    A = linalg.check_hermitian(A)
    if A.shape[0] != ens.dim:
        raise DimensionMismatchError("operator and ensemble dimensions differ")
    row = form_coefficients(A)[:1]
    if linalg.is_diagonal(A):
        return (row[:, : ens.dim] @ ens.populations.T)[0]
    return (row @ ens.features.T)[0]


def spin_z(s) -> np.ndarray:
    """Diagonal S_z on the (2s+1)-dimensional spin space, entries -s..s."""
    two_s = doubled_half_integer(s)
    if two_s is None or two_s < 0:
        raise ValueError(f"spin must be a nonnegative half-integer, got {s}")
    sigma = np.arange(-two_s, two_s + 1, 2) / 2.0
    return np.diag(sigma.astype(complex))


@dataclass(frozen=True)
class SpinMoments:
    """Exact uniform-ensemble moments of S_z for spin s."""

    s: Fraction
    v_i: Fraction              # variance over states of <S_z>
    v_f: Fraction              # mean of the variance <S_z^2> - <S_z>^2
    C: Fraction                # mean of |c_sigma|^2
    D: Fraction                # mean of |c_sigma|^4
    E: Fraction                # mean of |c_sigma|^2 |c_sigma'|^2, sigma != sigma'


def spin_moments_closed_form(s) -> SpinMoments:
    """Exact rational ensemble moments of S_z for half-integer spin ``s``.

    The mean of <S_z> is 0, so v_i = mean <S_z>^2 = Σσ²·(D - E) and
    v_f = mean <S_z^2> - v_i = Σσ²·(C - D + E).
    """
    two_s = doubled_half_integer(s)
    if two_s is None or two_s <= 0:
        raise ValueError(f"spin must be a positive half-integer, got {s}")
    s = Fraction(two_s, 2)
    C = 1 / (2 * s + 1)
    D = 1 / ((s + 1) * (2 * s + 1))
    E = 1 / (2 * (s + 1) * (2 * s + 1))
    sum_sq = s * (s + 1) * (2 * s + 1) / 3  # Σ_sigma sigma^2
    return SpinMoments(
        s=s,
        v_i=sum_sq * (D - E),
        v_f=sum_sq * (C - D + E),
        C=C,
        D=D,
        E=E,
    )
