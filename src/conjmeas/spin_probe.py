"""Spin-s system measured through a spin-j coherent-state probe.

The model: the probe starts in the coherent state e^{-i theta J_x}|j, j>,
tipped by ``theta`` from the z axis towards -y; it couples to the system by
exp(-i 2g S_z ⊗ J_z), so on the system state S_z = sigma it is turned about
z by 2g sigma; it is then read out projectively in the J_x eigenbasis, and
outcome m is J_x = m.  The Kraus operator of outcome m is diagonal in the
S_z basis, with entries a_{m sigma} = <J_x = m| e^{-i 2g sigma J_z}
e^{-i theta J_x} |j, j> up to one phase per outcome, which changes no
statistic.  Labels m run -j..j and sigma -s..s.  The amplitudes are one
table per probe angle, in closed form, computed by ``_diagonals``;
:func:`coefficient` reads one entry of it.  The probe's Hilbert space never
needs to be simulated: the tests simulate it once to check the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LabelOutOfRangeError
from .measurement import KrausSet
from .reversal import SecondStageSpec
from .tolerances import doubled_half_integer


def _half_int(x, name: str) -> int:
    """Return 2x as an exact integer."""
    doubled = doubled_half_integer(x)
    if doubled is None:
        raise ValueError(f"{name} must be a half-integer, got {x}")
    return doubled


@dataclass(frozen=True)
class SpinProbeConfig:
    s: float          # system spin, half-integer
    j: float          # probe spin, half-integer
    g: float          # effective interaction strength alpha*t/2
    theta: float      # probe tipping angle, radians in [0, pi]

    def __post_init__(self):
        two_s = _half_int(self.s, "s")
        two_j = _half_int(self.j, "j")
        if two_s < 1:
            raise ValueError(f"s must be a positive half-integer, got {self.s}")
        if two_j < 0:
            raise ValueError("j must be nonnegative")
        if (two_j + 1) * (two_s + 1) * 16 > np.iinfo(np.intp).max:
            raise ValueError(f"s={self.s}, j={self.j}: probe table over numpy's size limit")
        # a spin within TOL.half_integer of a half-integer is stored as it, so
        # the probe table, the diagnostics and the metadata read one value
        object.__setattr__(self, "s", two_s / 2)
        object.__setattr__(self, "j", two_j / 2)
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


def _diagonals(cfg: SpinProbeConfig, theta: float) -> np.ndarray:
    """(2j+1, 2s+1) table of a_{m sigma}(theta) = e^{-ij pi/2} q_m (u+v)^{j-m} (u-v)^{j+m}.

    u = e^{-ig sigma} cos(theta/2), v = i e^{ig sigma} sin(theta/2) and
    q_m = 2^{-j} sqrt((2j)! / ((j+m)! (j-m)!)), in log space for large j.
    Entries stay numpy scalar products: a vectorised complex multiply rounds
    differently.  At large j the powers u**(j - m) and v**(j + m) overflow
    before the product with the small q_m; that raises a ValueError naming
    the configuration's j, g and theta.
    """
    two_j = _half_int(cfg.j, "j")
    half = theta / 2.0
    phase = np.exp(-1j * cfg.j * math.pi / 2.0)
    ends = []
    for sigma in cfg.sigma_values:
        plus = np.exp(-1j * cfg.g * sigma) * math.cos(half)
        minus = 1j * np.exp(1j * cfg.g * sigma) * math.sin(half)
        ends.append((plus + minus, plus - minus))
    table = np.empty((two_j + 1, len(ends)), dtype=complex)
    try:
        with np.errstate(over="raise", invalid="raise"):
            for jp in range(two_j + 1):  # jp = j + m, jm = j - m
                jm = two_j - jp
                log_binom = math.lgamma(two_j + 1) - math.lgamma(jp + 1) - math.lgamma(jm + 1)
                q = math.exp(0.5 * log_binom - cfg.j * math.log(2.0))
                table[jp] = [phase * q * u**jm * v**jp for u, v in ends]
    except FloatingPointError:
        raise ValueError(f"amplitudes overflow: j={cfg.j}, g={cfg.g}, theta={cfg.theta}") from None
    return table


def coefficient(cfg: SpinProbeConfig, m, sigma) -> complex:
    """Probe amplitude a_{m sigma}(theta) multiplying |sigma><sigma| in T_m."""
    if float(sigma) not in cfg.sigma_values:
        raise LabelOutOfRangeError(f"sigma={sigma} invalid for s={cfg.s}")
    two_j, two_m = _half_int(cfg.j, "j"), _half_int(m, "m")
    if abs(two_m) > two_j or (two_j + two_m) % 2 != 0:
        raise LabelOutOfRangeError(f"m={m} invalid for j={cfg.j}")
    table = _diagonals(cfg, cfg.theta)
    return complex(table[(two_j + two_m) // 2, cfg.sigma_values.index(float(sigma))])


def _probe_set(cfg: SpinProbeConfig, table: np.ndarray) -> KrausSet:
    return KrausSet(tuple(np.diag(row) for row in table), cfg.outcome_labels)


def build_forward(cfg: SpinProbeConfig) -> KrausSet:
    """The (2j+1)-outcome measurement set {T_m(theta)} on the system."""
    return _probe_set(cfg, _diagonals(cfg, cfg.theta))


def conjugate_probe_set(cfg: SpinProbeConfig) -> KrausSet:
    """The tipped-complement probe set {T_mu(pi - theta)}; independent of m."""
    return _probe_set(cfg, _diagonals(cfg, math.pi - cfg.theta))


def build_reversing_probe(cfg: SpinProbeConfig) -> dict:
    """Per-outcome reversing second stage: preferred label nu0 = -m.

    Exact only for s = 1/2, where T_{-m}(pi - theta) is proportional to
    T_m(theta)^{-1}; for larger spins the proportionality holds only to
    O(g²), and the preferred branch does not fully restore the state.
    """
    second = conjugate_probe_set(cfg)
    forward = _diagonals(cfg, cfg.theta)[:, 0]
    family = {}
    for m, back, ahead in zip(cfg.outcome_labels, reversed(second.operators), forward):
        # lam with T_{-m}(pi-theta) T_m(theta) = lam I (exact for s=1/2); labels
        # run -j..j, so the reversed conjugate set pairs m with T_{-m}
        family[m] = SecondStageSpec(
            scale=complex(back[0, 0]) * complex(ahead),
            preferred_label=-m,
            kraus=second,
        )
    return family


@dataclass(frozen=True)
class RegimeReport:
    """How well a configuration sits in the weak-but-disturbing regime."""

    weakness: float              # (2/3) g² s(s+1) j sin²θ, should be << 1
    phase: float                 # |2 g j cos θ|, compare to pi


def regime_diagnostics(cfg: SpinProbeConfig) -> RegimeReport:
    """Weakness and phase of one configuration.

    These depend on the configuration alone.  The disturbance window needs
    the per-outcome fidelities F(m) and F_opt(m) on a sampled ensemble:
    it is :func:`conjmeas.runner.disturbance_outcomes` of the forward set
    and that ensemble.
    """
    s, j, g = float(cfg.s), float(cfg.j), cfg.g
    weakness = (2.0 / 3.0) * g * g * s * (s + 1.0) * j * math.sin(cfg.theta) ** 2
    phase = abs(2.0 * g * j * math.cos(cfg.theta))
    return RegimeReport(weakness=weakness, phase=phase)
