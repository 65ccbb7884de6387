"""Kraus measurement sets: validation, probabilities, post-states, sampling.

Outcome labels are half-integers (spin projections like -7, -13/2, ... or
plain 0, 1, 2).  They are stored as floats but indexed through their exact
doubled-integer value, so label lookup never depends on float comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    CompletenessError,
    DimensionMismatchError,
    UnknownLabelError,
    ZeroProbabilityOutcomeError,
)
from .tolerances import TOL


def _label_key(label: float) -> int:
    key = int(round(2 * float(label)))
    if abs(2 * float(label) - key) > TOL.half_integer:
        raise UnknownLabelError(f"label {label!r} is not a half-integer")
    return key


@dataclass(frozen=True)
class KrausSet:
    """Ordered set of measurement operators {M_m} on one Hilbert space.

    The constructor enforces the completeness condition Σ M†M = I within
    ``TOL.completeness``; use :func:`completeness_residual` to inspect a
    candidate set before building one.
    """

    operators: tuple
    labels: tuple
    _index: dict = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        ops = tuple(linalg.as_operator(M) for M in self.operators)
        if not ops:
            raise ValueError("a KrausSet needs at least one operator")
        d = ops[0].shape[0]
        if any(M.shape[0] != d for M in ops):
            raise DimensionMismatchError("operators have mixed dimensions")
        labels = self.labels
        if labels is None:
            labels = tuple(float(i) for i in range(len(ops)))
        labels = tuple(float(l) for l in labels)
        if len(labels) != len(ops):
            raise ValueError("one label per operator required")
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(
            self, "_index", {_label_key(l): i for i, l in enumerate(labels)}
        )
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


def completeness_residual(kraus) -> float:
    """Max-abs deviation of Σ M†M from the identity (pure diagnostic)."""
    ops = kraus.operators if isinstance(kraus, KrausSet) else kraus
    d = np.asarray(ops[0]).shape[0]
    acc = np.zeros((d, d), dtype=complex)
    for M in ops:
        M = np.asarray(M, dtype=complex)
        acc += linalg.dagger(M) @ M
    return linalg.max_abs(acc - np.eye(d))


def outcome_probability(rho, kraus: KrausSet, label) -> float:
    """Born probability Tr(rho M†M) for one outcome, clipped to [0, 1]."""
    rho = linalg.check_density_matrix(rho)
    M = kraus.operator(label)
    if M.shape[0] != rho.shape[0]:
        raise DimensionMismatchError("state and operator dimensions differ")
    p = float(np.real(np.trace(M @ rho @ linalg.dagger(M))))
    return float(np.clip(p, 0.0, 1.0))


def outcome_distribution(rho, kraus: KrausSet) -> np.ndarray:
    """Born probabilities Re Tr(M rho M†) of every outcome, clipped to [0, 1].

    rho is validated once; all outcomes come from one product over the
    stacked operators.
    """
    rho = linalg.check_density_matrix(rho)
    if kraus.dim != rho.shape[0]:
        raise DimensionMismatchError("state and operator dimensions differ")
    ops = np.stack(kraus.operators)
    p = np.einsum("mij,jk,mik->m", ops, rho, ops.conj()).real
    return np.clip(p, 0.0, 1.0)


def post_state(rho, kraus: KrausSet, label) -> np.ndarray:
    """Normalized post-measurement state M rho M† / p for outcome ``label``."""
    rho = linalg.check_density_matrix(rho)
    M = kraus.operator(label)
    p = outcome_probability(rho, kraus, label)
    if p <= TOL.prob_floor:
        raise ZeroProbabilityOutcomeError(
            f"outcome {label} has probability {p:.3e}"
        )
    out = M @ rho @ linalg.dagger(M) / p
    return 0.5 * (out + linalg.dagger(out))


def optimal_part(kraus: KrausSet) -> KrausSet:
    """The positive parts {N_m = sqrt(M†M)} as a measurement in their own right.

    Outcome statistics are identical to the input set for every state; only
    the state change differs (the unitary polar factor is dropped).
    """
    ops = tuple(
        linalg.positive_sqrt(linalg.dagger(M) @ M) for M in kraus.operators
    )
    return KrausSet(ops, kraus.labels)


def sample_outcome(rho, kraus: KrausSet, rng: np.random.Generator):
    """Draw one outcome label; returns ``(label, rng)`` with rng advanced."""
    p = outcome_distribution(rho, kraus)
    total = p.sum()
    if total <= 0:
        raise ZeroProbabilityOutcomeError("all outcomes have zero probability")
    idx = rng.choice(len(p), p=p / total)
    return kraus.labels[idx], rng
