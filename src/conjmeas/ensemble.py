"""Finite samples of uniformly random pure states, plus closed-form moments.

The sampler draws state vectors uniformly with respect to the unitarily
invariant (Fubini-Study) measure by normalizing complex Gaussian vectors.
The closed-form spin moments give an independent oracle for the sampled
ensemble averages.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import linalg
from .errors import NotHermitianError

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


def ensemble_average(ens: PureStateEnsemble, f) -> float:
    """Arithmetic mean of ``f(state)`` over the sample.

    ``f`` may either map one state vector to a scalar, or map the whole
    ``(N, dim)`` array to an array of N values (vectorized fast path).
    """
    try:
        vals = np.asarray(f(ens.states), dtype=float)
        if vals.shape == (ens.n,):
            return float(vals.mean())
    except Exception:
        pass
    return float(np.mean([float(f(psi)) for psi in ens.states]))


def expectation_values(ens: PureStateEnsemble, A) -> np.ndarray:
    """Vector of quantum expectations <psi_a|A|psi_a> over the sample."""
    A = linalg.as_operator(A)
    if linalg.max_abs(A - linalg.dagger(A)) > 1e-10:
        raise NotHermitianError("observable is not Hermitian")
    return np.real(np.einsum("ad,dc,ac->a", ens.states.conj(), A, ens.states))


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
