"""Spin-s system measured through a spin-j coherent-state probe.

The probe starts in a coherent state tipped by ``theta`` from the z axis,
couples to the system via an Ising-type J_z S_z interaction of effective
strength ``g``, and is then read out projectively.  The resulting Kraus
operators are diagonal in the S_z basis with amplitudes given by
:func:`coefficient`; the probe's Hilbert space never needs to be simulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import LabelOutOfRangeError, ZeroModulusEntryError
from .measurement import KrausSet
from .reversal import SecondStageKind, SecondStageSpec
from .tolerances import TOL


def _half_int(x, name: str) -> int:
    """Return 2x as an exact integer."""
    doubled = 2 * float(x)
    if abs(doubled - round(doubled)) > TOL.half_integer:
        raise ValueError(f"{name} must be a half-integer, got {x}")
    return int(round(doubled))


@dataclass(frozen=True)
class SpinProbeConfig:
    s: float          # system spin, half-integer
    j: float          # probe spin, half-integer
    g: float          # effective interaction strength alpha*t/2
    theta: float      # probe tipping angle, radians in [0, pi]

    def __post_init__(self):
        two_s = _half_int(self.s, "s")
        two_j = _half_int(self.j, "j")
        if two_s < 0 or two_j < 0:
            raise ValueError("spins must be nonnegative")
        if not math.isfinite(self.g):
            raise ValueError("g must be finite")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError("theta must lie in [0, pi]")

    @property
    def dim(self) -> int:
        return _half_int(self.s, "s") + 1

    @property
    def outcome_labels(self) -> tuple:
        two_j = _half_int(self.j, "j")
        return tuple((k - two_j) / 2.0 for k in range(0, 2 * two_j + 1, 2))

    @property
    def sigma_values(self) -> tuple:
        two_s = _half_int(self.s, "s")
        return tuple((k - two_s) / 2.0 for k in range(0, 2 * two_s + 1, 2))


def binomial_amplitude(j: float, m: float) -> float:
    """q_m = 2^{-j} sqrt((2j)! / ((j+m)! (j-m)!)), in log space for large j."""
    two_j = _half_int(j, "j")
    two_m = _half_int(m, "m")
    if abs(two_m) > two_j or (two_j + two_m) % 2 != 0:
        raise LabelOutOfRangeError(f"m={m} invalid for j={j}")
    jp = (two_j + two_m) // 2
    jm = (two_j - two_m) // 2
    log_q = 0.5 * (
        math.lgamma(two_j + 1) - math.lgamma(jp + 1) - math.lgamma(jm + 1)
    ) - j * math.log(2.0)
    return math.exp(log_q)


def coefficient(cfg: SpinProbeConfig, m, sigma) -> complex:
    """Probe amplitude a_{m sigma}(theta) multiplying |sigma><sigma| in T_m."""
    if float(sigma) not in cfg.sigma_values:
        raise LabelOutOfRangeError(f"sigma={sigma} invalid for s={cfg.s}")
    q = binomial_amplitude(cfg.j, m)
    half = cfg.theta / 2.0
    plus = np.exp(-1j * cfg.g * sigma) * math.cos(half)
    minus = 1j * np.exp(1j * cfg.g * sigma) * math.sin(half)
    jp = (_half_int(cfg.j, "j") + _half_int(m, "m")) // 2
    jm = (_half_int(cfg.j, "j") - _half_int(m, "m")) // 2
    phase = np.exp(-1j * cfg.j * math.pi / 2.0)
    return complex(phase * q * (plus + minus) ** jm * (plus - minus) ** jp)


def _diagonals(cfg: SpinProbeConfig, theta: float) -> np.ndarray:
    """(2j+1, 2s+1) array of diagonal entries of the probe operators."""
    alt = SpinProbeConfig(cfg.s, cfg.j, cfg.g, theta)
    return np.array(
        [
            [coefficient(alt, m, sig) for sig in alt.sigma_values]
            for m in alt.outcome_labels
        ]
    )


def build_forward(cfg: SpinProbeConfig) -> KrausSet:
    """The (2j+1)-outcome measurement set {T_m(theta)} on the system."""
    diags = _diagonals(cfg, cfg.theta)
    return KrausSet(tuple(np.diag(row) for row in diags), cfg.outcome_labels)


def conjugate_probe_set(cfg: SpinProbeConfig) -> KrausSet:
    """The tipped-complement probe set {T_mu(pi - theta)}; independent of m."""
    diags = _diagonals(cfg, math.pi - cfg.theta)
    return KrausSet(tuple(np.diag(row) for row in diags), cfg.outcome_labels)


def build_reversing_probe(cfg: SpinProbeConfig) -> dict:
    """Per-outcome reversing second stage: preferred label nu0 = -m.

    Exact only for s = 1/2, where T_{-m}(pi - theta) is proportional to
    T_m(theta)^{-1}; for larger spins the proportionality is approximate and
    the specs are flagged ``exact=False``.
    """
    second = conjugate_probe_set(cfg)
    is_exact = _half_int(cfg.s, "s") == 1
    alt = SpinProbeConfig(cfg.s, cfg.j, cfg.g, math.pi - cfg.theta)
    sigma0 = cfg.sigma_values[0]
    family = {}
    for m in cfg.outcome_labels:
        # scale lam with T_{-m}(pi-theta) T_m(theta) = lam I (exact for s=1/2)
        lam = coefficient(alt, -m, sigma0) * coefficient(cfg, m, sigma0)
        family[m] = SecondStageSpec(
            kind=SecondStageKind.REVERSING,
            source_outcome=m,
            scale=complex(lam),
            preferred_label=-m,
            kraus=second,
            exact=is_exact,
        )
    return family


@dataclass(frozen=True)
class WeakQuantities:
    """Exact weak-measurement decomposition of one probe operator.

    T_m = q_m e^{i gamma_m} e^{i Gamma_m} (I + epsilon_m) with epsilon_m and
    Gamma_m diagonal; exact because T_m itself is diagonal.
    """

    label: float
    q: float
    epsilon: np.ndarray       # Hermitian (diagonal), N_m = q (I + epsilon)
    gamma: float              # scalar phase of the unitary part
    Gamma_diag: np.ndarray    # remaining per-sigma phases, wrapped to (-pi, pi]


def weak_quantities(cfg: SpinProbeConfig, m) -> WeakQuantities:
    diag = np.array([coefficient(cfg, m, sig) for sig in cfg.sigma_values])
    moduli = np.abs(diag)
    if np.any(moduli <= 0.0):
        raise ZeroModulusEntryError(f"T_{m} has a zero diagonal entry")
    q = binomial_amplitude(cfg.j, m)
    epsilon = np.diag(moduli / q - 1.0).astype(complex)
    gamma = -cfg.j * math.pi / 2.0 - float(m) * cfg.theta
    residual = np.angle(diag * np.exp(-1j * gamma))
    # wrap into (-pi, pi]
    residual = np.where(
        residual <= -math.pi + TOL.angle_wrap, residual + 2 * math.pi, residual
    )
    return WeakQuantities(
        label=float(m), q=q, epsilon=epsilon, gamma=gamma, Gamma_diag=residual
    )


@dataclass(frozen=True)
class RegimeReport:
    """How well a configuration sits in the weak-but-disturbing regime."""

    weakness: float              # (2/3) g² s(s+1) j sin²θ, should be << 1
    phase: float                 # |2 g j cos θ|, compare to pi
    weak_enough: bool            # weakness below TOL.weak_cut
    epsilon_norms: dict          # per-outcome max |epsilon|


def regime_diagnostics(cfg: SpinProbeConfig) -> RegimeReport:
    """Weakness, phase and per-outcome perturbation sizes of one configuration.

    These depend on the configuration alone.  The disturbance window, which
    needs the per-outcome fidelities of a sampled run, is
    ``SpinRunResult.disturbance_outcomes`` in :mod:`conjmeas.runner`.
    """
    s, j, g = float(cfg.s), float(cfg.j), cfg.g
    weakness = (2.0 / 3.0) * g * g * s * (s + 1.0) * j * math.sin(cfg.theta) ** 2
    phase = abs(2.0 * g * j * math.cos(cfg.theta))
    eps_norms = {}
    for m in cfg.outcome_labels:
        wq = weak_quantities(cfg, m)
        eps_norms[m] = linalg.max_abs(wq.epsilon)
    return RegimeReport(
        weakness=weakness,
        phase=phase,
        weak_enough=weakness < TOL.weak_cut,
        epsilon_norms=eps_norms,
    )
