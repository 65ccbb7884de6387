"""Finite samples of uniformly random pure states, plus closed-form moments.

The sampler draws state vectors uniformly with respect to the unitarily
invariant (Fubini-Study) measure by normalizing complex Gaussian vectors.
The closed-form spin moments give an independent oracle for the sampled
ensemble averages.

Every quadratic form <psi|B|psi> is real-linear in two per-state features:
the populations P_i = |psi_i|² and the coherences z_ij = conj(psi_i) psi_j
for i < j, stored as [Re z | Im z].  :func:`form_coefficients` turns B into
real coefficient rows on those features and :func:`quadratic_forms`
evaluates them for the whole sample as one real product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import linalg
from .errors import NotHermitianError
from .tolerances import TOL

_GAUSS_SCALE = np.sqrt(0.5)


@dataclass(frozen=True)
class PureStateEnsemble:
    """N unit vectors in C^dim with uniform weights 1/N."""

    dim: int
    states: np.ndarray  # shape (N, dim), complex, rows normalized
    seed: int

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
    def coherences(self) -> np.ndarray:
        """Read-only (N, dim·(dim-1)) array [Re z | Im z], computed once per ensemble.

        z_ij = conj(psi_i) psi_j for the pairs i < j in ``np.triu_indices``
        order.  Stored column-major like the populations.  Only forms with
        off-diagonal coefficients read it, so an ensemble that only meets
        diagonal operators never allocates these N·dim·(dim-1) floats.
        """
        x = np.asfortranarray(self.states.real)
        y = np.asfortranarray(self.states.imag)
        rows, cols = np.triu_indices(self.dim, 1)
        k = rows.size
        coh = np.empty((self.n, 2 * k), order="F")
        for c, (i, j) in enumerate(zip(rows, cols)):
            coh[:, c] = x[:, i] * x[:, j] + y[:, i] * y[:, j]
            coh[:, k + c] = x[:, i] * y[:, j] - y[:, i] * x[:, j]
        coh.flags.writeable = False
        return coh


def sample_haar(dim: int, n: int, seed: int) -> PureStateEnsemble:
    """Sample ``n`` Haar-uniform pure states in dimension ``dim``.

    Deterministic for a fixed seed (counter-based Philox stream, so the
    sample for index a never depends on how the batch is chunked).
    """
    if dim < 2:
        raise ValueError("dim must be at least 2")
    if n < 1:
        raise ValueError("need at least one state")
    rng = np.random.Generator(np.random.Philox(key=seed))
    z = rng.standard_normal((n, 2 * dim)) * _GAUSS_SCALE
    states = z[:, :dim] + 1j * z[:, dim:]
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    return PureStateEnsemble(dim=dim, states=states, seed=seed)


def form_coefficients(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real coefficient rows of <psi|B|psi> on the populations and coherences.

    Returns ``(on_populations, on_coherences)`` of shapes (2, d) and
    (2, d(d-1)); row 0 gives Re <psi|B|psi> and row 1 gives Im <psi|B|psi>.
    With z = conj(psi_i) psi_j, the pair (i, j) contributes
    z B_ij + conj(z) B_ji, whose real and imaginary parts are
    Re z Re(B_ij + B_ji) - Im z Im(B_ij - B_ji) and
    Re z Im(B_ij + B_ji) + Im z Re(B_ij - B_ji).
    """
    rows, cols = np.triu_indices(B.shape[0], 1)
    upper, lower = B[rows, cols], B[cols, rows]
    s, t = upper + lower, upper - lower
    a = np.diagonal(B)
    on_populations = np.stack([a.real, a.imag])
    on_coherences = np.stack(
        [np.concatenate([s.real, -t.imag]), np.concatenate([s.imag, t.real])]
    )
    return on_populations, on_coherences


def quadratic_forms(
    ens: PureStateEnsemble, on_populations: np.ndarray, on_coherences=None
) -> np.ndarray:
    """Evaluate k real coefficient rows on every state: a (k, N) array.

    ``on_populations @ P.T``, plus ``on_coherences @ [Re z | Im z].T`` when
    coherence rows are given; leave them out for a diagonal operator, so the
    coherences are never built.
    """
    forms = on_populations @ ens.populations.T
    if on_coherences is not None:
        forms += on_coherences @ ens.coherences.T
    return forms


def expectation_values(ens: PureStateEnsemble, A) -> np.ndarray:
    """Vector of quantum expectations <psi_a|A|psi_a> over the sample."""
    A = linalg.as_operator(A)
    if linalg.max_abs(A - linalg.dagger(A)) > TOL.hermiticity:
        raise NotHermitianError("observable is not Hermitian")
    on_populations, on_coherences = form_coefficients(A)
    on_coherences = None if linalg.is_diagonal(A) else on_coherences[:1]
    return quadratic_forms(ens, on_populations[:1], on_coherences)[0]


def variance_vi(ens: PureStateEnsemble, A) -> float:
    """Classical variance over the sample of the quantum expectation of A."""
    ev = expectation_values(ens, A)
    return float(np.mean((ev - ev.mean()) ** 2))


def variance_vf(ens: PureStateEnsemble, A) -> float:
    """Sample mean of the per-state quantum variance of A."""
    A = linalg.as_operator(A)
    ev = expectation_values(ens, A)
    ev2 = expectation_values(ens, A @ A)
    return float(np.mean(ev2 - ev**2))


def save_states(ens: PureStateEnsemble, path) -> None:
    """Write the sample as plain text, one state per row, Re/Im interleaved."""
    flat = np.empty((ens.n, 2 * ens.dim))
    flat[:, 0::2] = ens.states.real
    flat[:, 1::2] = ens.states.imag
    np.savetxt(path, flat, fmt="%.17g")


def spin_z(s) -> np.ndarray:
    """Diagonal S_z on the (2s+1)-dimensional spin space, entries -s..s."""
    two_s = int(round(2 * float(s)))
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
    s = Fraction(s).limit_denominator(2)
    if s <= 0 or (2 * s).denominator != 1:
        raise ValueError(f"spin must be a positive half-integer, got {s}")
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
