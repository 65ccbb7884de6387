"""Kraus measurement sets: validation, outcome distributions, sampling.

Outcome labels are half-integers (spin projections like -7, -13/2, ... or
plain 0, 1, 2).  They are stored as floats but indexed through their exact
doubled-integer value, so label lookup never depends on float comparison.

A set holds its operators as one read-only (n, d, d) complex stack,
which every reader takes as it is, and keeps its effects E_m = M_m†M_m,
formed once as one batched product for the completeness check, so every
outcome probability Re Tr(E_m rho) is one product over them and
:meth:`KrausSet.effect` serves M†M.  It also keeps the cumulative
Born table of the last state it was sampled on, keyed by that state's
content: repeated draws on one rho validate it once and then cost one
uniform double each.
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


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Ordered set of measurement operators {M_m} on one Hilbert space.

    ``operators`` may be any sequence of d×d matrices, or an (n, d, d)
    array; the set stores a read-only copy of it as one (n, d, d) complex
    stack, checked by one :func:`conjmeas.linalg.as_operator` call, so a
    caller's later change to its own arrays cannot desynchronise the
    operators from their effects M_m†M_m, which are kept as one read-only
    (n, d, d) array.  Iterating, indexing or unpacking the stack yields the
    operators in order.  The constructor enforces the completeness
    condition Σ M†M = I within ``TOL.completeness``
    (:func:`completeness_residual`).
    """

    operators: np.ndarray
    labels: tuple
    _index: dict = field(init=False, repr=False)
    _effects: np.ndarray = field(init=False, repr=False)
    # (key, cdf) of the last state sample_outcome drew from; see there
    _last_draw: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        ops = linalg.as_operator(self.operators).copy()
        if ops.ndim != 3 or not len(ops):
            raise ValueError(f"expected a nonempty (n, d, d) stack, got shape {ops.shape}")
        ops.flags.writeable = False
        labels = tuple(float(l) for l in self.labels)
        if len(labels) != len(ops):
            raise ValueError("one label per operator required")
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "labels", labels)
        index = {_label_key(l): i for i, l in enumerate(labels)}
        if len(index) != len(labels):
            raise ValidationError(f"outcome labels must be distinct, got {labels}")
        object.__setattr__(self, "_index", index)
        effects = linalg.dagger(ops) @ ops
        effects.flags.writeable = False
        object.__setattr__(self, "_effects", effects)
        res = completeness_residual(self)
        if res > TOL.completeness:
            raise CompletenessError(f"completeness residual {res:.3e}")

    @property
    def dim(self) -> int:
        return self.operators.shape[1]

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


def completeness_residual(kraus: KrausSet) -> float:
    """Max-abs deviation of Σ M†M from the identity, read from the cached effects."""
    return linalg.max_abs(kraus._effects.sum(axis=0) - np.eye(kraus.dim))


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


def sample_outcome(rho, kraus: KrausSet, rng: np.random.Generator):
    """Draw one outcome label; returns ``(label, rng)`` with rng advanced.

    The label is that of ``rng.choice(n, p=p / p.sum())``: the same
    cumulative table and the same one uniform double, without choice's
    second validation of p.  The set keeps the read-only table of the last
    state it drew from, keyed by the state's shape and bytes, so repeated
    draws on one rho validate it (:func:`outcome_distribution`) once; a
    state changed in place is a new key and is validated again, and a
    state that fails validation leaves the kept table as it was.
    """
    rho = np.asarray(rho, dtype=complex)
    key = (rho.shape, rho.tobytes())
    last = kraus._last_draw
    if last is not None and last[0] == key:
        cdf = last[1]
    else:
        p = outcome_distribution(rho, kraus)
        total = p.sum()
        if total <= 0:
            raise ZeroProbabilityOutcomeError("all outcomes have zero probability")
        cdf = (p / total).cumsum()
        cdf /= cdf[-1]
        cdf.flags.writeable = False
        object.__setattr__(kraus, "_last_draw", (key, cdf))
    return kraus.labels[int(cdf.searchsorted(rng.random(), side="right"))], rng
