"""The benchmark's workloads: operations, their inputs and their output checks.

Every workload is a closed loop of passes; a pass is a short list of
operations and the loop only stops between passes, so every run has the
same mix.  Each operation's inputs come from the workload seed and the
operation's position, never from the clock.  ``Op.run`` is the timed call
into the library; ``Op.finish`` runs afterwards, untimed, and turns the
result into a text digest plus a list of problems found by the oracle.
``Op.yardstick`` is the fixed reference computation timed after each
operation (see ``yardstick.py``).
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
from yardstick import yardstick
from conjmeas import cli, ensemble, measurement, metrics, reversal, runner
from conjmeas.spin_probe import SpinProbeConfig
from conjmeas.tolerances import TOL

# Agreement required between the library and the oracle.  The two evaluate
# the same sums in a different order, so they differ only by roundoff:
# about 1e-15 relative for p and F, and 1e-14 absolute for I.  ATOL is also
# the roundoff a range check allows: the library does not clip F, and a
# fidelity of 1 evaluates to 1 + 2e-15 at theta = 0.
RTOL = 1e-9
ATOL = 1e-12

THETA = math.pi / 6
HEADLINE = dict(s=0.5, j=7.0, g=0.25, theta=THETA, samples=100_000)
WIDE = dict(s=7.5, j=7.0, g=0.25, theta=THETA, samples=20_000)
SWEEP_SAMPLES = 2000
SWEEP_AXES = (
    ("g", tuple(np.linspace(0.05, 0.5, 10).tolist())),
    ("theta", tuple(np.linspace(0.0, math.pi, 7).tolist())),
    ("j", (0.5, 1.0, 2.0, 4.0, 7.0, 10.0, 14.0, 20.0)),
)
# run_summary configurations with an outcome of probability below the
# library's floor; they raise ZeroProbabilityOutcomeError today.
EDGE_CONFIGS = ((25.0, 0.25), (40.0, 0.05))
KRAUS_DIM = 4
KRAUS_OUTCOMES = 6
KRAUS_SAMPLES = 20_000
SAMPLE_DRAWS = 300

# Yardstick sizes (N, d, branches, draws): the operation's own N and d, and
# enough branches for a quarter to a half of the operation's time.
HEADLINE_YARDSTICK = functools.partial(yardstick, HEADLINE["samples"], 2, 120)   # d = 2s + 1
WIDE_YARDSTICK = functools.partial(yardstick, WIDE["samples"], 16, 80)
SWEEP_YARDSTICK = functools.partial(yardstick, SWEEP_SAMPLES, 2, 400)
KRAUS_YARDSTICK = functools.partial(yardstick, KRAUS_SAMPLES, KRAUS_DIM, 60, SAMPLE_DRAWS)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    finish: Callable[[object], tuple]     # result -> (digest, problems)
    state_branches: int                   # N x branches the inputs define
    yardstick: Callable[[], object] | None = None
    timed: bool = True                    # False: counted only in failed_frac


def op_seed(workload_seed: int, pass_index: int, position: int) -> int:
    seq = np.random.SeedSequence([workload_seed, pass_index, position])
    return int(seq.generate_state(1, np.uint64)[0])


def spin_branches(j: float) -> int:
    """First-stage outcomes plus the (m, mu) grid of one spin run."""
    n = round(2 * j) + 1
    return n + n * n


# -- checks ---------------------------------------------------------------

def _close(got, ref) -> bool:
    return abs(got - ref) <= ATOL + RTOL * abs(ref)


class Problems(list):
    def in_range(self, what, values, lo=0.0, hi=math.inf):
        bad = [v for v in values if not lo - ATOL <= v <= hi + ATOL]
        if bad:
            self.append(f"{what}: {len(bad)} values outside [{lo}, {hi}], e.g. {bad[0]!r}")

    def agree(self, what, got, ref):
        bad = [(g, r) for g, r in zip(got, ref) if not _close(g, r)]
        if len(got) != len(ref):
            self.append(f"{what}: {len(got)} values, oracle has {len(ref)}")
        elif bad:
            self.append(f"{what}: {len(bad)} values disagree with the oracle, e.g. {bad[0]}")

    def prob_sum(self, what, values):
        total = math.fsum(values)
        if abs(total - 1.0) > TOL.prob_sum:
            self.append(f"{what}: probabilities sum to {total!r}")


def _read_csv(path: Path) -> list:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _check_figures(out: Path, cfg: dict, seed: int, problems: Problems):
    fig1, fig2, fig3, fig4 = (_read_csv(out / f"fig{k}.csv") for k in range(1, 5))
    col = lambda rows, i: [float(r[i]) for r in rows]  # noqa: E731
    p_m = col(fig1, 1)
    problems.prob_sum("p(m)", p_m)
    problems.in_range("p(mu0|m)", col(fig1, 2), 0.0, 1.0)
    problems.in_range("F(m), F'(m)", col(fig2, 1) + col(fig2, 2), 0.0, 1.0)
    problems.in_range("I(m), I'(m)", col(fig3, 1) + col(fig3, 2))
    problems.in_range("F(m, mu)", col(fig4, 3), 0.0, 1.0)
    problems.in_range("I(m, mu)", col(fig4, 4))
    n = len(fig1)
    for i in range(n):
        problems.prob_sum(f"p(mu|m) row {i}", col(fig4[i * n:(i + 1) * n], 2))
    p, fid, info = oracle.spin_first_stage(
        cfg["s"], cfg["j"], cfg["g"], cfg["theta"], cfg["samples"], seed
    )
    problems.agree("p(m)", p_m, p)
    problems.agree("F(m)", col(fig2, 1), fid)
    problems.agree("I(m)", col(fig3, 1), info)
    return p, fid, info


# -- spin workloads driven through the CLI ----------------------------------

def _cli_args(cfg: dict, seed: int, out: Path) -> list:
    return [
        "--s", str(cfg["s"]), "--j", str(cfg["j"]), "--g", str(cfg["g"]),
        "--theta", "pi/6", "--samples", str(cfg["samples"]),
        "--seed", str(seed), "--out", str(out),
    ]


def _cli_op(name, commands, cfg, seed, out: Path, n_runs: int, reference) -> Op:
    def run():
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for command in commands:
                codes.append(cli.main([command, *_cli_args(cfg, seed, out)]))
        return codes

    def finish(codes):
        problems = Problems()
        if any(codes):
            problems.append(f"exit codes {codes}")
            return "", problems
        names = sorted(p.name for p in out.glob("*.csv"))
        digest = "\n".join(f"== {n}\n{(out / n).read_text()}" for n in names)
        p, fid, info = _check_figures(out, cfg, seed, problems)
        if "summary" in commands:
            summary = {r[0]: float(r[1]) for r in _read_csv(out / "summary.csv")}
            problems.agree(
                "summary F, I",
                [summary["mean_fidelity"], summary["mean_info"]],
                [float(np.sum(p * fid)), float(np.sum(p * info))],
            )
            problems.in_range("summary F'", [summary["mean_fidelity_conj"]], 0.0, 1.0)
            problems.in_range("summary I'", [summary["mean_info_conj"]])
        return digest, problems

    branches = n_runs * cfg["samples"] * spin_branches(cfg["j"])
    return Op(name, run, finish, branches, reference)


def headline_pass(seed: int, k: int, out: Path) -> list:
    s = op_seed(seed, k, 0)
    return [_cli_op("headline", ("summary", "figures"), HEADLINE, s, out, 2, HEADLINE_YARDSTICK)]


def wide_system_pass(seed: int, k: int, out: Path) -> list:
    s = op_seed(seed, k, 0)
    return [_cli_op("wide_system", ("figures",), WIDE, s, out, 1, WIDE_YARDSTICK)]


# -- sweep -----------------------------------------------------------------

def _sweep_op(axis, values, seed) -> Op:
    base = SpinProbeConfig(0.5, 7.0, 0.25, THETA)

    def run():
        return runner.run_sweep(runner.ExperimentConfig(base, SWEEP_SAMPLES, seed), axis, values)

    def finish(table):
        problems = Problems()
        rows = {(r[1], r[2]): r[3] for r in table.rows}
        for v in values:
            point = dict(s=0.5, j=7.0, g=0.25, theta=THETA)
            point[axis] = v
            p, fid, info = oracle.spin_first_stage(**point, n=SWEEP_SAMPLES, seed=seed)
            problems.agree(
                f"{axis}={v} F, I",
                [rows[(v, "mean_fidelity")], rows[(v, "mean_info")]],
                [float(np.sum(p * fid)), float(np.sum(p * info))],
            )
            problems.in_range(f"{axis}={v} F'", [rows[(v, "mean_fidelity_conj")]], 0.0, 1.0)
            problems.in_range(f"{axis}={v} I'", [rows[(v, "mean_info_conj")]])
        return repr(table.rows), problems

    j_values = values if axis == "j" else [7.0] * len(values)
    branches = sum(SWEEP_SAMPLES * spin_branches(j) for j in j_values)
    return Op(f"sweep:{axis}", run, finish, branches, SWEEP_YARDSTICK)


def _edge_op(j, g, seed) -> Op:
    cfg = runner.ExperimentConfig(SpinProbeConfig(0.5, j, g, THETA), SWEEP_SAMPLES, seed)

    def finish(summary):
        problems = Problems()
        problems.in_range("F", [summary["mean_fidelity"], summary["mean_fidelity_conj"]], 0.0, 1.0)
        problems.in_range("I", [summary["mean_info"], summary["mean_info_conj"]])
        return repr(summary), problems

    return Op(f"edge:j={j:g},g={g:g}", lambda: runner.run_summary(cfg), finish, 0, timed=False)


def sweep_pass(seed: int, k: int, out: Path) -> list:
    ops = [_sweep_op(axis, values, op_seed(seed, k, i)) for i, (axis, values) in enumerate(SWEEP_AXES)]
    ops += [
        _edge_op(j, g, op_seed(seed, k, len(SWEEP_AXES) + i))
        for i, (j, g) in enumerate(EDGE_CONFIGS)
    ]
    return ops


# -- general Kraus set -------------------------------------------------------

def random_kraus_operators(seed: int, dim: int = KRAUS_DIM, n: int = KRAUS_OUTCOMES):
    """Complete non-diagonal set G_k S^{-1/2} with S = sum G_k^dag G_k."""
    rng = np.random.default_rng(seed)
    G = (rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))) / math.sqrt(2)
    S = np.einsum("kji,kjl->il", G.conj(), G)
    w, V = np.linalg.eigh(S)
    s_inv_half = (V / np.sqrt(w)) @ V.conj().T
    return [g @ s_inv_half for g in G]


def general_kraus_pass(seed: int, k: int, out: Path) -> list:
    s = op_seed(seed, k, 0)
    operators = random_kraus_operators(s)
    labels = tuple(float(i) for i in range(KRAUS_OUTCOMES))

    def run():
        kraus = measurement.KrausSet(tuple(operators), labels)
        ens = ensemble.sample_haar(KRAUS_DIM, KRAUS_SAMPLES, s)
        first = metrics.stage_statistics(kraus, ens)
        per_outcome = []
        for m in labels:
            conj = reversal.build_conjugate_minimal(kraus, m)
            rev = reversal.build_reversing(kraus, m)
            per_outcome.append((
                metrics.two_stage_statistics(kraus, m, conj.kraus, ens),
                metrics.two_stage_statistics(kraus, m, rev.kraus, ens),
                reversal.conditional_success_probability(kraus, m, ens, conj),
                reversal.conditional_success_probability(kraus, m, ens, rev),
                reversal.conjugate_preferred_closed_form(kraus, m, ens),
                metrics.optimal_fidelity(kraus, ens, m),
                conj.kraus.index_of(conj.preferred_label),
                rev.kraus.index_of(rev.preferred_label),
            ))
        psi = ens.states[0]
        rho = np.outer(psi, psi.conj())
        rng = np.random.default_rng(s)
        draws = [measurement.sample_outcome(rho, kraus, rng)[0] for _ in range(SAMPLE_DRAWS)]
        return first, per_outcome, draws

    def finish(result):
        first, per_outcome, draws = result
        problems = Problems()
        problems.prob_sum("p(m)", first.probability)
        problems.in_range("F(m)", first.fidelity, 0.0, 1.0)
        problems.in_range("I(m)", first.info_gain)
        digest = [first.probability, first.fidelity, first.info_gain]
        for m, (tc, tr, p_conj, p_rev, closed, f_opt, ic, ir) in zip(labels, per_outcome):
            for kind, ts in (("conjugate", tc), ("reversing", tr)):
                problems.prob_sum(f"m={m:g} {kind} p(mu|m)", ts.conditional)
                problems.in_range(f"m={m:g} {kind} F", ts.fidelity, 0.0, 1.0)
                problems.in_range(f"m={m:g} {kind} I", ts.info_gain)
            problems.agree(f"m={m:g} reversing preferred F", [tr.fidelity[ir]], [1.0])
            problems.agree(
                f"m={m:g} conjugate closed form", list(closed), [tc.fidelity[ic], tc.info_gain[ic]]
            )
            problems.agree(
                f"m={m:g} success probabilities",
                [p_conj, p_rev],
                [tc.conditional[ic], tr.conditional[ir]],
            )
            problems.in_range(f"m={m:g} optimal F", [f_opt], 0.0, 1.0)
            digest += [tc.probability, tc.fidelity, tc.info_gain, tr.probability,
                       tr.fidelity, tr.info_gain, p_conj, p_rev, closed, f_opt]
        unknown = set(draws) - set(labels)
        if unknown:
            problems.append(f"sample_outcome drew unknown labels {sorted(unknown)}")
        digest.append(draws)
        return repr([np.asarray(x).tolist() for x in digest]), problems

    branches = KRAUS_SAMPLES * (KRAUS_OUTCOMES + KRAUS_OUTCOMES * 4)
    return [Op("general_kraus", run, finish, branches, KRAUS_YARDSTICK)]


WORKLOADS = {
    "headline": headline_pass,
    "wide_system": wide_system_pass,
    "sweep": sweep_pass,
    "general_kraus": general_kraus_pass,
}
