"""Dense complex linear algebra for small operator dimensions.

All functions take and return plain ``numpy`` arrays of shape ``(d, d)``
with complex entries.  They are pure: inputs are never modified.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    NotDensityMatrixError,
    NotHermitianError,
    NotPositiveError,
    SingularPolarError,
)
from .tolerances import TOL


class PolarParts(NamedTuple):
    """Left polar factorization M = unitary @ positive."""

    unitary: np.ndarray
    positive: np.ndarray


def as_operator(M) -> np.ndarray:
    """Coerce input to a square complex matrix and check it is finite."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    return A


def dagger(M: np.ndarray) -> np.ndarray:
    return M.conj().T


def max_abs(M: np.ndarray) -> float:
    return float(np.max(np.abs(M))) if M.size else 0.0


def is_diagonal(M: np.ndarray) -> bool:
    """True when every off-diagonal entry of ``M`` is exactly zero."""
    return np.count_nonzero(M) == np.count_nonzero(np.diagonal(M))


def _check_hermitian(H: np.ndarray, tol: float = TOL.hermiticity) -> np.ndarray:
    H = as_operator(H)
    if max_abs(H - dagger(H)) > tol:
        raise NotHermitianError(
            f"matrix deviates from Hermitian by {max_abs(H - dagger(H)):.3e}"
        )
    return H


def positive_sqrt(P) -> np.ndarray:
    """Positive semidefinite square root of a PSD Hermitian matrix.

    Eigenvalues in ``[eig_floor, 0)`` are treated as numerical noise and
    clipped to zero; anything below the floor raises ``NotPositiveError``.
    """
    P = _check_hermitian(P)
    w, V = np.linalg.eigh(P)
    if w[0] < TOL.eig_floor:
        raise NotPositiveError(f"eigenvalue {w[0]:.3e} below {TOL.eig_floor:.1e}")
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ dagger(V)


def polar_decompose(M, allow_singular: bool = True) -> PolarParts:
    """Left polar decomposition ``M = U @ N`` with U unitary, N = sqrt(M†M).

    For invertible M the factors are unique.  When M is (numerically)
    singular and ``allow_singular`` is true, U is built on the range of N via
    a cutoff pseudo-inverse and completed to a full unitary on the null
    space; otherwise ``SingularPolarError`` is raised.
    """
    M = as_operator(M)
    # SVD route: M = W S X†  =>  U = W X†,  N = X S X†
    W, s, Xh = np.linalg.svd(M)
    smax = s[0] if s.size else 0.0
    if smax > 0 and s[-1] < TOL.singular_ratio * smax and not allow_singular:
        raise SingularPolarError(
            f"singular-value ratio {s[-1] / smax:.3e} below cutoff"
        )
    U = W @ Xh
    N = dagger(Xh) @ (s[:, None] * Xh)
    N = 0.5 * (N + dagger(N))
    return PolarParts(U, N)


def check_density_matrix(rho) -> np.ndarray:
    """Validate Hermiticity, positivity and unit trace of a density matrix."""
    rho = as_operator(rho)
    if max_abs(rho - dagger(rho)) > TOL.hermiticity:
        raise NotDensityMatrixError("density matrix is not Hermitian")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > TOL.trace:
        raise NotDensityMatrixError(f"trace {tr} differs from 1")
    wmin = float(np.linalg.eigvalsh(0.5 * (rho + dagger(rho)))[0])
    if wmin < -TOL.psd:
        raise NotDensityMatrixError(f"negative eigenvalue {wmin:.3e}")
    return rho


def pure_state_fidelity(psi: np.ndarray, sigma: np.ndarray) -> float:
    """Fidelity between |psi><psi| and sigma: sqrt(<psi|sigma|psi>)."""
    val = float(np.real(psi.conj() @ sigma @ psi))
    return float(np.sqrt(np.clip(val, 0.0, 1.0)))


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(rho) sigma sqrt(rho)), clipped to [0, 1].

    A rank-one rho short-circuits to the pure-state formula.
    """
    rho = check_density_matrix(rho)
    sigma = check_density_matrix(sigma)
    if rho.shape != sigma.shape:
        raise ValueError("density matrices have different dimensions")
    w, V = np.linalg.eigh(rho)
    if w[-1] > 1.0 - TOL.trace and w.size > 1 and w[-2] < TOL.psd:
        return pure_state_fidelity(V[:, -1], sigma)
    root = positive_sqrt(rho)
    inner = root @ sigma @ root
    inner = 0.5 * (inner + dagger(inner))
    vals = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    return float(np.clip(np.sum(np.sqrt(vals)), 0.0, 1.0))
