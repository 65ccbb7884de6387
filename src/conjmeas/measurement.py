"""Kraus measurement sets: validation, outcome distributions, sampling.

Outcome labels are half-integers (spin projections like -7, -13/2, ... or
plain 0, 1, 2).  They are stored as floats but indexed through their exact
doubled-integer value, so label lookup never depends on float comparison.

A set keeps its effects E_m = M_m†M_m, formed once for the completeness
check, so every outcome probability Re Tr(E_m rho) is one product over
them, a draw validates rho once, and :meth:`KrausSet.effect` serves M†M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    CompletenessError,
    DimensionMismatchError,
    UnknownLabelError,
    ValidationError,
    ZeroProbabilityOutcomeError,
)
from .tolerances import TOL, doubled_half_integer


def _label_key(label: float) -> int:
    if not math.isfinite(2 * float(label)):
        raise UnknownLabelError(f"label {label!r} is not finite")
    key = doubled_half_integer(label)
    if key is None:
        raise UnknownLabelError(f"label {label!r} is not a half-integer")
    return key


@dataclass(frozen=True)
class KrausSet:
    """Ordered set of measurement operators {M_m} on one Hilbert space.

    The constructor enforces the completeness condition Σ M†M = I within
    ``TOL.completeness``; use :func:`completeness_residual` to inspect a
    candidate set before building one.  The effects M_m†M_m it checks are
    kept as one read-only (n, d, d) array.
    """

    operators: tuple
    labels: tuple
    _index: dict = field(init=False, repr=False, compare=False)
    _effects: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ops = tuple(linalg.as_operator(M) for M in self.operators)
        if not ops:
            raise ValueError("a KrausSet needs at least one operator")
        d = ops[0].shape[0]
        if any(M.shape[0] != d for M in ops):
            raise DimensionMismatchError("operators have mixed dimensions")
        labels = tuple(float(l) for l in self.labels)
        if len(labels) != len(ops):
            raise ValueError("one label per operator required")
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "labels", labels)
        index = {_label_key(l): i for i, l in enumerate(labels)}
        if len(index) != len(labels):
            raise ValidationError(f"outcome labels must be distinct, got {labels}")
        object.__setattr__(self, "_index", index)
        effects = _effect_stack(ops)
        effects.flags.writeable = False
        object.__setattr__(self, "_effects", effects)
        res = completeness_residual(self)
        if res > TOL.completeness:
            raise CompletenessError(f"completeness residual {res:.3e}")

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def __len__(self) -> int:
        return len(self.operators)

    def index_of(self, label) -> int:
        try:
            return self._index[_label_key(label)]
        except KeyError:
            raise UnknownLabelError(f"no outcome labelled {label!r}") from None

    def operator(self, label) -> np.ndarray:
        return self.operators[self.index_of(label)]

    def effect(self, label) -> np.ndarray:
        """The effect M†M of outcome ``label``: a read-only view of the cached stack."""
        return self._effects[self.index_of(label)]


def _effect_stack(ops) -> np.ndarray:
    """The effects M†M of the operators, stacked into one (n, d, d) array."""
    ops = [np.asarray(M, dtype=complex) for M in ops]
    return np.array([linalg.dagger(M) @ M for M in ops])


def completeness_residual(kraus) -> float:
    """Max-abs deviation of Σ M†M from the identity (pure diagnostic)."""
    effects = kraus._effects if isinstance(kraus, KrausSet) else _effect_stack(kraus)
    return linalg.max_abs(effects.sum(axis=0) - np.eye(effects.shape[1]))


def outcome_distribution(rho, kraus: KrausSet) -> np.ndarray:
    """Born probabilities Re Tr(M rho M†) of every outcome, clipped to [0, 1].

    rho is validated once; all outcomes come from one product over the
    cached effects: Re Tr(E_m rho) = Re Σ_ij conj(E_m)_ij rho_ij, as E_m is
    Hermitian.
    """
    rho = linalg.check_density_matrix(rho)
    if kraus.dim != rho.shape[0]:
        raise DimensionMismatchError("state and operator dimensions differ")
    effects = kraus._effects
    p = (effects.conj().reshape(len(effects), -1) @ rho.reshape(-1)).real
    return np.clip(p, 0.0, 1.0)


def optimal_part(kraus: KrausSet) -> KrausSet:
    """The positive parts {N_m = sqrt(M†M)} as a measurement in their own right.

    Outcome statistics are identical to the input set for every state; only
    the state change differs (the unitary polar factor is dropped).
    """
    ops = tuple(linalg.positive_sqrt(kraus.effect(m)) for m in kraus.labels)
    return KrausSet(ops, kraus.labels)


def sample_outcome(rho, kraus: KrausSet, rng: np.random.Generator):
    """Draw one outcome label; returns ``(label, rng)`` with rng advanced.

    The label is that of ``rng.choice(n, p=p / p.sum())``: the same
    cumulative table and the same one uniform double, without choice's
    second validation of p.
    """
    p = outcome_distribution(rho, kraus)
    total = p.sum()
    if total <= 0:
        raise ZeroProbabilityOutcomeError("all outcomes have zero probability")
    cdf = (p / total).cumsum()
    cdf /= cdf[-1]
    return kraus.labels[int(cdf.searchsorted(rng.random(), side="right"))], rng
