"""Experiment orchestration: figure tables, scalar summaries, sweeps.

Everything here is deterministic for a fixed (config, seed) pair, and the
serialized output is byte-identical across runs: numbers are formatted with
17 significant digits and every file embeds the config echo, the seed, the
sample count and the library version.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .ensemble import (
    PureStateEnsemble,
    expectation_values,
    sample_haar,
    spin_moments_closed_form,
    spin_z,
)
from .metrics import (
    conditional_mean,
    conjugate_two_stage_statistics,
    optimal_fidelity,
    stage_statistics,
)
from .spin_probe import (
    SpinProbeConfig,
    build_forward,
    regime_diagnostics,
)
from .tolerances import TOL

MIN_FIGURE_SAMPLES = 1000


@dataclass(frozen=True)
class ExperimentConfig:
    spin: SpinProbeConfig
    samples: int = 100_000
    seed: int = 20_2408

    def __post_init__(self):
        if self.samples < MIN_FIGURE_SAMPLES:
            raise ValueError(f"need at least {MIN_FIGURE_SAMPLES} samples")

    def metadata(self) -> dict:
        return {
            "s": float(self.spin.s),
            "j": float(self.spin.j),
            "g": self.spin.g,
            "theta": self.spin.theta,
            "samples": self.samples,
            "seed": self.seed,
            "version": __version__,
        }


@dataclass
class Table:
    name: str
    columns: tuple
    rows: list = field(default_factory=list)

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]


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


def write_json(tables: dict, path, meta: dict) -> None:
    doc = {
        "meta": meta,
        "tables": {
            name: {"columns": list(t.columns), "rows": [list(r) for r in t.rows]}
            for name, t in tables.items()
        },
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class SpinRunResult:
    """Everything the figure and summary jobs need from one configuration.

    An outcome whose probability is below the floor is undefined: its
    second stage is skipped and its per-outcome values and grid row are
    NaN.  A second-stage branch is undefined when p(mu | m) is below the
    floor; its grid entries are NaN.  The means give every NaN value zero
    weight.
    """

    labels: tuple
    p_m: np.ndarray
    fidelity_m: np.ndarray
    info_m: np.ndarray
    fidelity_opt_m: np.ndarray
    p_preferred_m: np.ndarray        # p(mu0 = m | m)
    fidelity_prime_m: np.ndarray
    info_prime_m: np.ndarray
    fidelity_grid: np.ndarray        # (m, mu) exact fidelities
    info_grid: np.ndarray
    joint_grid: np.ndarray           # p(m, mu)

    def _mean(self, values: np.ndarray) -> float:
        return float(np.sum(np.where(np.isnan(values), 0.0, self.p_m * values)))

    @property
    def disturbance_outcomes(self) -> tuple:
        """Defined outcomes m that disturb far more than they must.

        m is marked when its fidelity loss 1 - F exceeds
        ``TOL.disturbance_ratio`` times the loss 1 - F_opt of the
        positive-part operator, or when 1 - F_opt is at the floor: T_m is
        then proportional to a unitary, with no removable disturbance at
        all, and the limiting ratio condition holds trivially.
        """
        marked = []
        for m, f, f_opt in zip(self.labels, self.fidelity_m, self.fidelity_opt_m):
            if np.isnan(f):
                continue
            loss_opt = 1.0 - f_opt
            if loss_opt <= TOL.prob_floor or (1.0 - f) / loss_opt > TOL.disturbance_ratio:
                marked.append(m)
        return tuple(marked)

    @property
    def mean_fidelity(self) -> float:
        return self._mean(self.fidelity_m)

    @property
    def mean_info(self) -> float:
        return self._mean(self.info_m)

    @property
    def mean_fidelity_prime(self) -> float:
        return self._mean(self.fidelity_prime_m)

    @property
    def mean_info_prime(self) -> float:
        return self._mean(self.info_prime_m)


def compute_spin_run(spin: SpinProbeConfig, ens: PureStateEnsemble) -> SpinRunResult:
    """First stage T_m(theta), then the conjugate stage T_mu(pi - theta).

    T_mu(pi - theta) = (-1)^{j+mu} T_mu(theta)†, and a branch's statistics
    do not depend on a global phase, so the second stage is evaluated as
    the Hermitian conjugate {T_mu†} (one evaluation per unordered pair).
    """
    forward = build_forward(spin)
    stats1 = stage_statistics(forward, ens)
    joint, info, fid, defined = conjugate_two_stage_statistics(forward, stats1, ens)
    f_opt = np.array(
        [
            optimal_fidelity(forward, ens, m) if ok else np.nan
            for m, ok in zip(forward.labels, stats1.defined)
        ]
    )
    return SpinRunResult(
        labels=forward.labels,
        p_m=stats1.probability,
        fidelity_m=stats1.fidelity,
        info_m=stats1.info_gain,
        fidelity_opt_m=f_opt,
        p_preferred_m=np.diagonal(joint) / stats1.probability,
        fidelity_prime_m=conditional_mean(joint, fid, defined),
        info_prime_m=conditional_mean(joint, info, defined),
        fidelity_grid=fid,
        info_grid=info,
        joint_grid=joint,
    )


def _improves(value, reference) -> bool:
    """True when ``value`` beats ``reference`` by more than roundoff.

    Exact ties occur (at theta = 0 or pi every I is 0; for s = 1/2,
    I(m, 0) = I(m)), and a strict ``>`` alone would decide them by roundoff.
    """
    return bool(value > reference + TOL.improvement)


def run_figures(cfg: ExperimentConfig) -> dict:
    """Tables behind the four outcome plots of the spin example."""
    ens = sample_haar(cfg.spin.dim, cfg.samples, cfg.seed)
    res = compute_spin_run(cfg.spin, ens)
    fig1 = Table("fig1", ("m", "p_m", "p_preferred_given_m"))
    fig2 = Table("fig2", ("m", "fidelity_m", "fidelity_prime_m"))
    fig3 = Table("fig3", ("m", "info_m", "info_prime_m"))
    fig4 = Table(
        "fig4",
        (
            "m",
            "mu",
            "p_mu_given_m",
            "fidelity_m_mu",
            "info_m_mu",
            "fidelity_improves",
            "info_improves",
        ),
    )
    for i, m in enumerate(res.labels):
        fig1.rows.append((m, float(res.p_m[i]), float(res.p_preferred_m[i])))
        fig2.rows.append((m, float(res.fidelity_m[i]), float(res.fidelity_prime_m[i])))
        fig3.rows.append((m, float(res.info_m[i]), float(res.info_prime_m[i])))
        for k, mu in enumerate(res.labels):
            fig4.rows.append(
                (
                    m,
                    mu,
                    float(res.joint_grid[i, k] / res.p_m[i]),
                    float(res.fidelity_grid[i, k]),
                    float(res.info_grid[i, k]),
                    _improves(res.fidelity_grid[i, k], res.fidelity_m[i]),
                    _improves(res.info_grid[i, k], res.info_m[i]),
                )
            )
    return {"fig1": fig1, "fig2": fig2, "fig3": fig3, "fig4": fig4}


def run_summary(cfg: ExperimentConfig) -> dict:
    """Headline scalars and regime diagnostics for one configuration."""
    return _summary(cfg.spin, sample_haar(cfg.spin.dim, cfg.samples, cfg.seed))


def _summary(spin: SpinProbeConfig, ens: PureStateEnsemble) -> dict:
    res = compute_spin_run(spin, ens)
    report = regime_diagnostics(spin)
    f, i = res.mean_fidelity, res.mean_info
    fp, ip = res.mean_fidelity_prime, res.mean_info_prime
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
    t = Table("summary", ("quantity", "value"))
    for k, v in summary.items():
        t.rows.append((k, float(v) if not isinstance(v, bool) else v))
    return t


def run_variances(s_list, samples: int, seed: int) -> Table:
    """Monte Carlo spin moments against their closed forms, with z-scores."""
    t = Table("variances", ("s", "quantity", "estimate", "target", "stderr", "z"))
    for k, s in enumerate(s_list):
        moments = spin_moments_closed_form(s)
        dim = int(2 * moments.s) + 1
        ens = sample_haar(dim, samples, seed + k)
        sz = spin_z(s)
        ev = expectation_values(ens, sz)
        ev2 = expectation_values(ens, sz @ sz)
        p0 = np.abs(ens.states[:, 0]) ** 2
        p1 = np.abs(ens.states[:, 1]) ** 2
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

    No axis changes the system spin s, so every point uses the same
    (dim, samples, seed) ensemble: it is sampled once, before the first
    point, and each point gives the summary ``run_summary`` would give.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}")
    t = Table("sweep", ("axis", "value", "metric", "metric_value"))
    ens = sample_haar(cfg.spin.dim, cfg.samples, cfg.seed)
    for v in values:
        spin = SpinProbeConfig(
            s=cfg.spin.s,
            j=v if axis == "j" else cfg.spin.j,
            g=v if axis == "g" else cfg.spin.g,
            theta=v if axis == "theta" else cfg.spin.theta,
        )
        summary = _summary(spin, ens)
        for metric in (
            "mean_fidelity",
            "mean_info",
            "mean_fidelity_conj",
            "mean_info_conj",
            "weakness",
            "phase",
        ):
            t.rows.append((axis, float(v), metric, float(summary[metric])))
    return t
