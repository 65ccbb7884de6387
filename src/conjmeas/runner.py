"""Experiment orchestration: figure tables, scalar summaries, sweeps.

Everything here is deterministic for a fixed (config, seed) pair, and the
serialized output is byte-identical across runs: numbers are formatted with
17 significant digits and every file embeds the config echo, the seed, the
sample count and the library version.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .ensemble import (
    PureStateEnsemble,
    expectation_values,
    sample_haar,
    spin_moments_closed_form,
    spin_z,
)
from .measurement import KrausSet
from .metrics import (
    conjugate_two_stage_statistics,
    optimal_fidelity,
    stage_statistics,
    weighted_sum,
)
from .spin_probe import (
    SpinProbeConfig,
    build_forward,
    regime_diagnostics,
)
from .tolerances import TOL, check_array_size

MIN_FIGURE_SAMPLES = 1000


def _check_run(samples: int, seed: int, streams: int = 1) -> None:
    """Reject a sample count or seed that is not an integer, fewer than
    ``MIN_FIGURE_SAMPLES`` samples, or a run whose ``streams`` Philox keys
    seed, seed + 1, ... leave the key range [0, 2**128)."""
    if not all(isinstance(v, numbers.Integral) for v in (samples, seed)):
        raise ValueError(f"samples and seed must be integers, got {samples} and {seed}")
    if samples < MIN_FIGURE_SAMPLES:
        raise ValueError(f"need at least {MIN_FIGURE_SAMPLES} samples")
    top = "2**128" if streams == 1 else f"2**128 - {streams - 1}"
    if not 0 <= seed < 2**128 - (streams - 1):
        raise ValueError(f"seed must be in [0, {top}), got {seed}")


def _sample_metadata(samples: int, seed: int) -> dict:
    """Header fields of every run: sample count, seed and library version.

    A run that builds no probe (``variances``) writes these alone.  They are
    checked where they are used: by :class:`ExperimentConfig` and by
    :func:`run_variances`.
    """
    return {"samples": samples, "seed": seed, "version": __version__}


@dataclass(frozen=True)
class ExperimentConfig:
    spin: SpinProbeConfig
    samples: int = 100_000
    seed: int = 20_2408

    def __post_init__(self):
        _check_run(self.samples, self.seed)
        check_array_size(f"samples={self.samples}, s={self.spin.s}:", self.samples, self.spin.dim)

    def metadata(self) -> dict:
        return {
            "s": float(self.spin.s),
            "j": float(self.spin.j),
            "g": self.spin.g,
            "theta": self.spin.theta,
            **_sample_metadata(self.samples, self.seed),
        }


@dataclass
class Table:
    columns: tuple
    rows: list = field(default_factory=list)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(table: Table, path, meta: dict) -> None:
    lines = [f"# {k}={_fmt(v)}" for k, v in sorted(meta.items())]
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _json_value(value):
    """JSON has no NaN or infinity: an undefined (NaN) or infinite value is null."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def write_json(tables: dict, path, meta: dict) -> None:
    """Strict (RFC 8259) JSON: no NaN or Infinity tokens."""
    doc = {
        "meta": meta,
        "tables": {
            name: {
                "columns": list(t.columns),
                "rows": [[_json_value(v) for v in r] for r in t.rows],
            }
            for name, t in tables.items()
        },
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def compute_spin_run(spin: SpinProbeConfig, ens: PureStateEnsemble) -> tuple:
    """First stage T_m(theta), then the conjugate stage T_mu(pi - theta).

    Returns ``(first, grid)`` of :func:`conjugate_two_stage_statistics`:
    since T_mu(pi - theta) = (-1)^{j+mu} T_mu(theta)† and a branch's
    statistics do not depend on a global phase, the second stage is the
    Hermitian conjugate {T_mu†}, whose cell (mu, m) is the conjugate of
    cell (m, mu) and shares its kernel passes.
    """
    return conjugate_two_stage_statistics(build_forward(spin), ens)


def disturbance_outcomes(kraus: KrausSet, ens: PureStateEnsemble) -> tuple:
    """Defined first-stage outcomes m that disturb far more than they must.

    F(m) is read from ``stage_statistics(kraus, ens)``, and F_opt(m), the
    fidelity of the positive part N_m alone, from :func:`optimal_fidelity`
    on the same ensemble, one call per defined outcome.  m is marked when
    its fidelity loss 1 - F exceeds ``TOL.disturbance_ratio`` times 1 - F_opt,
    or when 1 - F_opt is at the floor: T_m is then proportional to a
    unitary, with no removable disturbance at all, and the limiting ratio
    condition holds trivially.
    """
    first = stage_statistics(kraus, ens)
    labels = [m for m, ok in zip(first.labels, first.defined) if ok]  # Σ p(m) = 1: not empty
    loss_opt = 1.0 - np.array([optimal_fidelity(kraus, ens, m) for m in labels])
    loss = 1.0 - first.fidelity[first.defined]
    with np.errstate(divide="ignore", invalid="ignore"):  # a loss_opt at the floor is marked
        marked = (loss_opt <= TOL.prob_floor) | (loss / loss_opt > TOL.disturbance_ratio)
    return tuple(m for m, k in zip(labels, marked) if k)


def _improves(value, reference):
    """True when ``value`` beats ``reference`` by more than roundoff.

    Exact ties occur (at theta = 0 or pi every I is 0; for s = 1/2,
    I(m, 0) = I(m)), and a strict ``>`` alone would decide them by roundoff.
    Arrays are compared elementwise.
    """
    return value > reference + TOL.improvement


def _table(**columns) -> Table:
    """A table of the named, equal-size columns, flattened, each value a Python scalar."""
    return Table(tuple(columns), list(zip(*(np.ravel(c).tolist() for c in columns.values()))))


def run_figures(cfg: ExperimentConfig) -> dict:
    """Tables behind the four outcome plots of the spin example."""
    ens = sample_haar(cfg.spin.dim, cfg.samples, cfg.seed)
    first, grid = compute_spin_run(cfg.spin, ens)
    m, n = first.labels, len(first.labels)
    fig1 = _table(m=m, p_m=first.probability, p_preferred_given_m=np.diagonal(grid.conditional))
    fig2 = _table(m=m, fidelity_m=first.fidelity, fidelity_prime_m=grid.mean_fidelity)
    fig3 = _table(m=m, info_m=first.info_gain, info_prime_m=grid.mean_info)
    fig4 = _table(
        m=np.repeat(m, n),
        mu=np.tile(grid.labels, n),
        p_mu_given_m=grid.conditional,
        fidelity_m_mu=grid.fidelity,
        info_m_mu=grid.info_gain,
        fidelity_improves=_improves(grid.fidelity, first.fidelity[:, None]),
        info_improves=_improves(grid.info_gain, first.info_gain[:, None]),
    )
    return {"fig1": fig1, "fig2": fig2, "fig3": fig3, "fig4": fig4}


def run_summary(cfg: ExperimentConfig) -> dict:
    """Headline scalars and regime diagnostics for one configuration."""
    return _summary(cfg.spin, sample_haar(cfg.spin.dim, cfg.samples, cfg.seed))


def _summary(spin: SpinProbeConfig, ens: PureStateEnsemble) -> dict:
    first, grid = compute_spin_run(spin, ens)
    report = regime_diagnostics(spin)
    p = first.probability
    f, i, fp, ip = (
        float(weighted_sum(p, v))
        for v in (first.fidelity, first.info_gain, grid.mean_fidelity, grid.mean_info)
    )
    return {
        "mean_fidelity": f,
        "mean_info": i,
        "mean_fidelity_conj": fp,
        "mean_info_conj": ip,
        "fidelity_improves": _improves(fp, f),
        "info_improves": _improves(ip, i),
        "weakness": report.weakness,
        "phase": report.phase,
    }


def summary_table(summary: dict) -> Table:
    t = Table(("quantity", "value"))
    for k, v in summary.items():
        t.rows.append((k, float(v) if not isinstance(v, bool) else v))
    return t


def run_variances(s_list, samples: int, seed: int) -> Table:
    """Monte Carlo spin moments against their closed forms, with z-scores.

    Every spin's closed form is built first, so a spin that is not a
    positive half-integer, a sample count below ``MIN_FIGURE_SAMPLES``, a
    seed whose last key, seed + len(s_list) - 1, is outside [0, 2**128) or
    a spin whose samples·(2s+1) complex amplitudes numpy cannot hold fails
    before any ensemble is sampled.
    """
    _check_run(samples, seed, len(s_list))
    spins = [spin_moments_closed_form(s) for s in s_list]
    for m in spins:
        check_array_size(f"spin={float(m.s)}, samples={samples}:", samples, 2 * m.s + 1)
    t = Table(("s", "quantity", "estimate", "target", "stderr", "z"))
    for k, moments in enumerate(spins):
        sz = spin_z(moments.s)
        ens = sample_haar(len(sz), samples, seed + k)
        ev = expectation_values(ens, sz)
        ev2 = expectation_values(ens, sz @ sz)
        p0, p1 = (expectation_values(ens, np.diag(np.eye(ens.dim)[i])) for i in (0, 1))
        quantities = {
            "V_I": ((ev - ev.mean()) ** 2, float(moments.v_i)),
            "V_F": (ev2 - ev**2, float(moments.v_f)),
            "C": (p0, float(moments.C)),
            "D": (p0**2, float(moments.D)),
            "E": (p0 * p1, float(moments.E)),
        }
        for name, (samples_of, target) in quantities.items():
            est = float(samples_of.mean())
            se = float(samples_of.std(ddof=1) / math.sqrt(samples_of.size))
            z = (est - target) / se if se > 0 else 0.0
            t.rows.append((float(moments.s), name, est, target, se, float(z)))
    return t


SWEEP_AXES = ("g", "j", "theta")


def run_sweep(cfg: ExperimentConfig, axis: str, values) -> Table:
    """Long-format table of the summary metrics along one parameter axis.

    Every point's configuration is built first, so a bad value fails before
    any point runs.  No axis changes the system spin s, so every point uses
    the same (dim, samples, seed) ensemble: it is sampled once, before the
    first point, and each point gives the summary ``run_summary`` would give.
    A point's value is the one its configuration stores: a spin is snapped
    to its half-integer.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}")
    spins = [replace(cfg.spin, **{axis: v}) for v in values]
    t = Table(("axis", "value", "metric", "metric_value"))
    ens = sample_haar(cfg.spin.dim, cfg.samples, cfg.seed)
    for spin in spins:
        value = float(getattr(spin, axis))
        for metric, v in _summary(spin, ens).items():
            if not isinstance(v, bool):
                t.rows.append((axis, value, metric, float(v)))
    return t
