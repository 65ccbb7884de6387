"""Numerical tolerances shared by the library and its test suite.

Every threshold used in a runtime check lives here so that library code and
tests cannot drift apart.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    hermiticity: float = 1e-10      # max-abs asymmetry allowed in a Hermitian input
    unitarity: float = 1e-10        # max-abs deviation of U†U from I
    eig_floor: float = -1e-12       # eigenvalues above this are clipped to zero
    reconstruction: float = 1e-9    # residual for S·S = P, U·N = M, V diag V† = H
    completeness: float = 1e-9      # max-abs deviation of Σ M†M from I
    trace: float = 1e-8             # unit-trace check on density matrices
    psd: float = 1e-10              # negativity allowed in a density matrix
    prob_floor: float = 1e-12       # below this an outcome counts as impossible
    prob_sum: float = 1e-8          # Σ p_m = 1 check
    singular_ratio: float = 1e-10   # σ_min/σ_max cutoff for the invertible polar path
    invertible_ratio: float = 1e-8  # σ_min/σ_max required to invert a Kraus operator
    kappa_slack: float = 1e-12      # relative excess allowed on |κ|² ≤ 1/max eig(M†M)
    half_integer: float = 1e-9      # deviation of 2x from an integer allowed in a half-integer
    info_roundoff: float = -1e-10   # information gains (bits) between this and 0 are clipped to 0
    improvement: float = 1e-12      # margin a conjugate-stage value must beat the first stage by
    weak_cut: float = 0.1           # weakness below this counts as weak enough
    disturbance_ratio: float = 4.0  # (1 - F) / (1 - F_opt) above this marks a disturbing outcome
    angle_wrap: float = 1e-15       # phases within this of -pi are wrapped to +pi


TOL = Tolerances()
