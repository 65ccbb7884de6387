"""Finite samples of uniformly random pure states, plus closed-form moments.

The sampler draws state vectors uniformly with respect to the unitarily
invariant (Fubini-Study) measure by normalizing complex Gaussian vectors.
The closed-form spin moments give an independent oracle for the sampled
ensemble averages.

Every quadratic form <psi|B|psi> is real-linear in the per-state features
[P | Re z | Im z]: the populations P_i = |psi_i|² and the coherences
z_ij = conj(psi_i) psi_j for i < j.  :func:`form_coefficients` turns B into
real coefficient rows on those features.  Two places evaluate such rows on
the whole sample: :func:`expectation_values`, one form as one real product,
over the populations alone for a diagonal B and over the d² feature columns
otherwise, and the branch kernel of :mod:`conjmeas.metrics`, which reads
the same columns for the weight and amplitude of many branches at once.
No other module reads the populations or the features.

A value that needs the mean of one form alone, such as a probability
mean_a <psi_a|M†M|psi_a>, is the same row on the mean features, i.e.
Tr(B rho) for the ensemble's average state rho: :func:`mean_expectation`
reads it in O(d²) from column means cached on the ensemble, not from a
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
        rows, cols = _pairs(self.dim)
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
    """
    if dim < 2:
        raise ValueError("dim must be at least 2")
    if n < 1:
        raise ValueError("need at least one state")
    rng = np.random.Generator(np.random.Philox(key=seed))
    z = rng.standard_normal((n, 2 * dim)) * _GAUSS_SCALE
    states = z[:, :dim] + 1j * z[:, dim:]
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    states.flags.writeable = False
    return PureStateEnsemble(states=states, seed=seed)


@cache
def _pairs(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row and column indices of the pairs i < j, ``np.triu_indices`` order.

    Built once per dimension: the form kernel asks for them on every call.
    """
    rows, cols = np.triu_indices(dim, 1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def form_coefficients(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real coefficient rows of <psi|B|psi> on the populations and coherences.

    Returns ``(on_populations, on_coherences)`` of shapes (2, d) and
    (2, d(d-1)); row 0 gives Re <psi|B|psi> and row 1 gives Im <psi|B|psi>.
    A stack of matrices, shape (..., d, d), gives the rows of each, shapes
    (..., 2, d) and (..., 2, d(d-1)).  With z = conj(psi_i) psi_j, the pair
    (i, j) contributes z B_ij + conj(z) B_ji, whose real and imaginary
    parts are
    Re z Re(B_ij + B_ji) - Im z Im(B_ij - B_ji) and
    Re z Im(B_ij + B_ji) + Im z Re(B_ij - B_ji).
    """
    rows, cols = _pairs(B.shape[-1])
    upper, lower = B[..., rows, cols], B[..., cols, rows]
    s, t = upper + lower, upper - lower
    a = np.diagonal(B, axis1=-2, axis2=-1)
    on_populations = np.stack([a.real, a.imag], axis=-2)
    on_coherences = np.stack(
        [np.concatenate([s.real, -t.imag], axis=-1), np.concatenate([s.imag, t.real], axis=-1)],
        axis=-2,
    )
    return on_populations, on_coherences


def _expectation_row(ens: PureStateEnsemble, A):
    """Checked coefficient row of <psi|A|psi> for a Hermitian A on ``ens``.

    Returns ``(on_populations, on_coherences)`` of shapes (1, d) and
    (1, d(d-1)), with ``on_coherences`` None for a diagonal A, whose form
    reads the populations alone.
    """
    A = linalg.check_hermitian(A)
    if A.shape[0] != ens.dim:
        raise DimensionMismatchError("operator and ensemble dimensions differ")
    on_populations, on_coherences = form_coefficients(A)
    return on_populations[:1], None if linalg.is_diagonal(A) else on_coherences[:1]


def expectation_values(ens: PureStateEnsemble, A) -> np.ndarray:
    """Vector of quantum expectations <psi_a|A|psi_a> over the sample.

    One product: A's row on the populations for a diagonal A, so the
    features are never built, and on the features [P | Re z | Im z]
    otherwise.
    """
    on_populations, on_coherences = _expectation_row(ens, A)
    if on_coherences is None:
        return (on_populations @ ens.populations.T)[0]
    return (np.hstack([on_populations, on_coherences]) @ ens.features.T)[0]


def mean_expectation(ens: PureStateEnsemble, A) -> float:
    """Mean over the sample of <psi_a|A|psi_a>, in O(d²).

    The mean of a form is the form on the mean features: A's row dotted with
    the cached column means of the populations (diagonal A) or of the
    features.  The dot is an elementwise product and a numpy sum, not a
    BLAS product, so the value does not depend on the thread count.
    """
    on_populations, on_coherences = _expectation_row(ens, A)
    if on_coherences is None:
        return float(np.sum(on_populations[0] * ens.population_means))
    row = np.concatenate([on_populations[0], on_coherences[0]])
    return float(np.sum(row * ens.feature_means))


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
    mean_sz: Fraction          # mean over states of <S_z>
    mean_sz2: Fraction         # mean of <S_z^2>
    mean_sz_sq: Fraction       # mean of <S_z>^2
    C: Fraction                # mean of |c_sigma|^2
    D: Fraction                # mean of |c_sigma|^4
    E: Fraction                # mean of |c_sigma|^2 |c_sigma'|^2, sigma != sigma'

    @property
    def v_i(self) -> Fraction:
        return self.mean_sz_sq - self.mean_sz**2

    @property
    def v_f(self) -> Fraction:
        return self.mean_sz2 - self.mean_sz_sq


def spin_moments_closed_form(s) -> SpinMoments:
    """Exact rational ensemble moments of S_z for half-integer spin ``s``."""
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
        mean_sz=Fraction(0),
        mean_sz2=sum_sq * C,
        mean_sz_sq=sum_sq * (D - E),
        C=C,
        D=D,
        E=E,
    )
