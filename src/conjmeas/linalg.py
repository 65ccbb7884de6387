"""Dense complex linear algebra for small operator dimensions.

All functions take and return plain ``numpy`` arrays with complex entries:
a matrix (d, d) or a stack (..., d, d) of them.  A set of operators is one
such stack: :func:`as_operator` checks it, :func:`dagger` forms its adjoint
and :func:`is_diagonal` decides it, one call each, and the decompositions
work matrix by matrix.  :func:`check_density_matrix` alone takes one matrix.
They are pure: inputs are never modified.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NotDensityMatrixError, NotHermitianError, NotPositiveError
from .tolerances import TOL


def as_operator(M) -> np.ndarray:
    """Coerce input to a square complex matrix, or a stack (..., d, d) of them, all finite.

    Operators that numpy cannot stack, as they have different shapes, raise
    ``DimensionMismatchError``; entries that are not numbers raise
    ``ValueError``.
    """
    try:
        A = np.asarray(M)
    except ValueError:  # operators of different shapes
        raise DimensionMismatchError("operators have mixed dimensions") from None
    A = A.astype(complex, copy=False)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    return A


def dagger(M: np.ndarray) -> np.ndarray:
    """The adjoint of a matrix, or of each matrix of a stack (..., d, d)."""
    return np.conj(np.swapaxes(M, -1, -2))


def max_abs(M: np.ndarray) -> float:
    return float(np.abs(M).max()) if M.size else 0.0


def is_diagonal(M: np.ndarray) -> bool:
    """True when every off-diagonal entry of ``M`` is exactly zero.

    A stack of matrices, shape (..., d, d), is diagonal when each of them is:
    one call decides the whole stack.
    """
    return np.count_nonzero(M) == np.count_nonzero(np.diagonal(M, axis1=-2, axis2=-1))


def check_hermitian(H) -> np.ndarray:
    """The library's one Hermiticity check; returns :func:`as_operator` of H."""
    H = as_operator(H)
    if max_abs(H - dagger(H)) > TOL.hermiticity:
        raise NotHermitianError(f"matrix deviates from Hermitian by {max_abs(H - dagger(H)):.3e}")
    return H


def positive_sqrt(P) -> np.ndarray:
    """Positive semidefinite square root of a PSD Hermitian matrix.

    Eigenvalues in ``[eig_floor, 0)`` are treated as numerical noise and
    clipped to zero; anything below the floor raises ``NotPositiveError``.
    The positive part sqrt(M†M) of an operator is :func:`polar_decompose`'s
    N instead: an eigensolve of M†M squares the condition number of M.
    """
    P = check_hermitian(P)
    w, V = np.linalg.eigh(P)
    if w[..., 0].min() < TOL.eig_floor:
        raise NotPositiveError(f"eigenvalue {w[..., 0].min():.3e} below {TOL.eig_floor:.1e}")
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)[..., None, :]) @ dagger(V)


def polar_decompose(M) -> tuple[np.ndarray, np.ndarray]:
    """Left polar decomposition ``M = U @ N`` with U unitary, N = sqrt(M†M).

    For invertible M the factors are unique.  For a singular M the SVD still
    gives a unitary U, one of the many that satisfy M = U N.
    """
    M = as_operator(M)
    # SVD route: M = W S X†  =>  U = W X†,  N = X S X†
    W, s, Xh = np.linalg.svd(M)
    U = W @ Xh
    N = dagger(Xh) @ (s[..., None] * Xh)
    N = 0.5 * (N + dagger(N))
    return U, N


def check_density_matrix(rho) -> np.ndarray:
    """Validate Hermiticity, positivity and unit trace of a density matrix."""
    rho = as_operator(rho)
    if rho.ndim != 2:
        raise ValueError(f"expected one density matrix, got shape {rho.shape}")
    if max_abs(rho - dagger(rho)) > TOL.hermiticity:
        raise NotDensityMatrixError("density matrix is not Hermitian")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > TOL.trace:
        raise NotDensityMatrixError(f"trace {tr} differs from 1")
    wmin = float(np.linalg.eigvalsh(0.5 * (rho + dagger(rho)))[0])
    if wmin < -TOL.psd:
        raise NotDensityMatrixError(f"negative eigenvalue {wmin:.3e}")
    return rho

