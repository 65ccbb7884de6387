"""Numerical tolerances shared by the library and its test suite.

Every threshold used in a runtime check lives here so that library code and
tests cannot drift apart.  So do the rules that read against them: the one
half-integer rule that spins and outcome labels share, the -x..x ladder of
a spin's projections, and numpy's array size limit.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    hermiticity: float = 1e-10      # max-abs asymmetry allowed in a Hermitian input
    eig_floor: float = -1e-12       # eigenvalues above this are clipped to zero
    completeness: float = 1e-9      # max-abs deviation of Σ M†M from I
    trace: float = 1e-8             # unit-trace check on density matrices
    psd: float = 1e-10              # negativity allowed in a density matrix
    prob_floor: float = 1e-12       # below this an outcome counts as impossible
    prob_sum: float = 1e-8          # Σ p_m = 1 check
    invertible_ratio: float = 1e-8  # σ_min/σ_max required to invert a Kraus operator
    half_integer: float = 1e-9      # deviation of 2x from an integer allowed in a half-integer
    info_roundoff: float = -1e-10   # information gains (bits) between this and 0 are clipped to 0
    improvement: float = 1e-12      # margin a conjugate-stage value must beat the first stage by
    disturbance_ratio: float = 4.0  # (1 - F) / (1 - F_opt) above this marks a disturbing outcome
    direction_grid: float = 2.0**-44  # step of a direction's mantissas (44 bits) and of its phases


TOL = Tolerances()


def doubled_half_integer(x) -> int | None:
    """2x as an exact integer when x is a half-integer within ``TOL.half_integer``, else None."""
    doubled = 2 * float(x)
    if not math.isfinite(doubled) or abs(doubled - round(doubled)) > TOL.half_integer:
        return None
    return round(doubled)


def doubled_spin(x, name: str, least: float = -math.inf) -> int:
    """2x for a half-integer x at or above ``least``, else a ValueError naming ``name``."""
    doubled = doubled_half_integer(x)
    if doubled is None or doubled < 2 * least:
        kind = "positive " if least > 0 else "nonnegative " if least == 0 else ""
        raise ValueError(f"{name} must be a {kind}half-integer, got {x}")
    return doubled


def ladder(two_x: int) -> np.ndarray:
    """The projections -x, -x + 1, ..., x of the half-integer x = two_x / 2."""
    return np.arange(-two_x, two_x + 1, 2) / 2.0


def check_array_size(what: str, *counts) -> None:
    """Reject complex arrays of ``counts`` entries per axis past numpy's size limit.

    The counts are multiplied as Python integers, so a numpy integer count
    cannot wrap; the message is led by ``what``.
    """
    if math.prod(map(int, counts)) * 16 > np.iinfo(np.intp).max:
        raise ValueError(f"{what} over numpy's size limit")
