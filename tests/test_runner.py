import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conjmeas import cli, metrics, runner
from conjmeas.cli import main, parse_angle, parse_half_integer
from conjmeas.ensemble import sample_haar
from conjmeas.errors import MeasurementModelError, ZeroProbabilityOutcomeError
from conjmeas.runner import (
    ExperimentConfig,
    Table,
    compute_spin_run,
    run_figures,
    run_summary,
    run_sweep,
    run_variances,
    summary_table,
    write_csv,
    write_json,
)
from conjmeas.metrics import optimal_fidelity, stage_statistics, two_stage_statistics
from conjmeas.spin_probe import SpinProbeConfig, build_forward, conjugate_probe_set
from conjmeas.tolerances import TOL

SMALL = ExperimentConfig(
    SpinProbeConfig(s=0.5, j=3, g=0.25, theta=math.pi / 6), samples=2000, seed=11
)


@pytest.fixture(scope="module")
def figures():
    return run_figures(SMALL)


class TestExperimentConfig:
    def test_rejects_tiny_sample(self):
        with pytest.raises(ValueError):
            ExperimentConfig(SMALL.spin, samples=10, seed=1)

    def test_metadata_roundtrip(self):
        meta = SMALL.metadata()
        assert meta["j"] == 3.0
        assert meta["samples"] == 2000
        assert meta["seed"] == 11
        assert "version" in meta


class TestFigures:
    def test_tables_present(self, figures):
        assert set(figures) == {"fig1", "fig2", "fig3", "fig4"}

    def test_fig1_probabilities_sum_to_one(self, figures):
        assert sum(figures["fig1"].column("p_m")) == pytest.approx(1.0, abs=1e-8)

    def test_fig4_conditionals_sum_to_one(self, figures):
        fig4 = figures["fig4"]
        m_col = np.array(fig4.column("m"))
        p_col = np.array(fig4.column("p_mu_given_m"))
        for m in set(m_col):
            assert p_col[m_col == m].sum() == pytest.approx(1.0, abs=1e-8)

    def test_fig4_marginals_match_fig2_fig3(self, figures):
        # averaging the grid over mu with weights p(mu|m) must reproduce the
        # primed columns of the per-outcome tables
        fig2, fig3, fig4 = figures["fig2"], figures["fig3"], figures["fig4"]
        m_col = np.array(fig4.column("m"))
        p_col = np.array(fig4.column("p_mu_given_m"))
        f_col = np.array(fig4.column("fidelity_m_mu"))
        i_col = np.array(fig4.column("info_m_mu"))
        for row2, row3 in zip(fig2.rows, fig3.rows):
            m = row2[0]
            sel = m_col == m
            assert np.sum(p_col[sel] * f_col[sel]) == pytest.approx(row2[2], abs=1e-9)
            assert np.sum(p_col[sel] * i_col[sel]) == pytest.approx(row3[2], abs=1e-9)

    def test_zero_coupling_columns(self):
        cfg = ExperimentConfig(
            SpinProbeConfig(s=0.5, j=2, g=0.0, theta=math.pi / 6),
            samples=1000,
            seed=3,
        )
        tables = run_figures(cfg)
        np.testing.assert_allclose(tables["fig2"].column("fidelity_m"), 1.0, atol=1e-9)
        np.testing.assert_allclose(tables["fig3"].column("info_m"), 0.0, atol=1e-9)

    def test_improvement_flags_follow_grid(self, figures):
        fig4 = figures["fig4"]
        for row in fig4.rows:
            m, mu, _, fid, info, f_flag, i_flag = row
            fig2_row = next(r for r in figures["fig2"].rows if r[0] == m)
            fig3_row = next(r for r in figures["fig3"].rows if r[0] == m)
            assert f_flag == (fid > fig2_row[1] + TOL.improvement)
            assert i_flag == (info > fig3_row[1] + TOL.improvement)

    def test_flags_at_theta_zero(self):
        # every probe operator is a multiple of one diagonal unitary: I = 0 on
        # both stages (a tie that roundoff would otherwise decide), while the
        # conjugate stage undoes the phase, F(m, mu) = 1 > F(m)
        cfg = ExperimentConfig(
            SpinProbeConfig(s=0.5, j=7, g=0.25, theta=0.0), samples=20_000, seed=7
        )
        fig4 = run_figures(cfg)["fig4"]
        assert not any(fig4.column("info_improves"))
        assert all(fig4.column("fidelity_improves"))
        summary = run_summary(cfg)
        assert not summary["info_improves"]
        assert summary["fidelity_improves"]

    def test_no_info_improvement_at_mu_zero(self, figures):
        # for s = 1/2, |a_{0 sigma}| does not depend on sigma, so
        # w(m, 0) is proportional to w(m) and I(m, 0) = I(m) exactly
        rows = [r for r in figures["fig4"].rows if r[1] == 0.0]
        assert len(rows) == 7
        assert not any(r[6] for r in rows)


class TestSummary:
    def test_keys_and_flags(self):
        summary = run_summary(SMALL)
        assert set(summary) == {
            "mean_fidelity",
            "mean_info",
            "mean_fidelity_conj",
            "mean_info_conj",
            "fidelity_improves",
            "info_improves",
            "weakness",
            "phase",
        }
        assert 0.0 < summary["mean_fidelity"] < 1.0
        assert summary["mean_info"] > 0.0

    def test_table_layout(self):
        t = summary_table(run_summary(SMALL))
        assert t.columns == ("quantity", "value")
        assert len(t.rows) == 8


class TestVariances:
    def test_z_scores_are_small(self):
        t = run_variances([0.5, 1.0], samples=20_000, seed=5)
        assert len(t.rows) == 10
        for row in t.rows:
            z = row[5]
            assert abs(z) < 5.0

    def test_targets_are_closed_form(self):
        t = run_variances([0.5], samples=1000, seed=5)
        targets = {row[1]: row[3] for row in t.rows}
        assert targets["V_I"] == pytest.approx(1 / 12)
        assert targets["V_F"] == pytest.approx(1 / 6)
        assert targets["C"] == pytest.approx(1 / 2)


class TestSweep:
    def test_weakness_monotone_in_g(self):
        t = run_sweep(SMALL, "g", [0.05, 0.1, 0.2])
        weak = [
            row[3] for row in t.rows if row[2] == "weakness"
        ]
        assert weak == sorted(weak)
        assert all(row[0] == "g" for row in t.rows)

    def test_info_grows_with_g(self):
        t = run_sweep(SMALL, "g", [0.05, 0.2])
        info = [row[3] for row in t.rows if row[2] == "mean_info"]
        assert info[0] < info[1]

    def test_samples_the_ensemble_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return sample_haar(*args)

        monkeypatch.setattr(runner, "sample_haar", counted)
        values = [0.5, 3.0, 7.0]
        table = run_sweep(SMALL, "j", values)
        assert calls == [(SMALL.spin.dim, SMALL.samples, SMALL.seed)]
        # every point is what run_summary gives for that configuration
        rows = {(r[1], r[2]): r[3] for r in table.rows}
        for v in values:
            spin = SpinProbeConfig(SMALL.spin.s, v, SMALL.spin.g, SMALL.spin.theta)
            summary = run_summary(ExperimentConfig(spin, SMALL.samples, SMALL.seed))
            for metric in ("mean_fidelity", "mean_info", "mean_fidelity_conj", "mean_info_conj"):
                assert rows[(v, metric)] == summary[metric]

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(SMALL, "s", [0.5])


class TestSerialization:
    def test_csv_roundtrip_and_header(self, tmp_path, figures):
        path = tmp_path / "fig1.csv"
        write_csv(figures["fig1"], path, SMALL.metadata())
        lines = path.read_text().splitlines()
        meta_lines = [l for l in lines if l.startswith("# ")]
        assert any(l.startswith("# seed=") for l in meta_lines)
        header = lines[len(meta_lines)]
        assert header == "m,p_m,p_preferred_given_m"
        data = np.loadtxt(path, delimiter=",", skiprows=len(meta_lines) + 1)
        assert data.shape == (7, 3)

    def test_csv_byte_identical(self, tmp_path, figures):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(figures["fig2"], a, SMALL.metadata())
        write_csv(figures["fig2"], b, SMALL.metadata())
        assert a.read_bytes() == b.read_bytes()

    def test_json_structure(self, tmp_path, figures):
        path = tmp_path / "out.json"
        write_json(figures, path, SMALL.metadata())
        doc = json.loads(path.read_text())
        assert doc["meta"]["seed"] == 11
        assert set(doc["tables"]) == {"fig1", "fig2", "fig3", "fig4"}
        assert doc["tables"]["fig1"]["columns"] == ["m", "p_m", "p_preferred_given_m"]

    def test_bools_serialized_as_ints(self, tmp_path, figures):
        path = tmp_path / "fig4.csv"
        write_csv(figures["fig4"], path, SMALL.metadata())
        last_fields = path.read_text().splitlines()[-1].split(",")
        assert last_fields[-1] in ("0", "1")
        assert last_fields[-2] in ("0", "1")


class TestParsers:
    def test_parse_angle(self):
        assert parse_angle("pi/6") == pytest.approx(math.pi / 6)
        assert parse_angle("2pi/3") == pytest.approx(2 * math.pi / 3)
        assert parse_angle("pi") == pytest.approx(math.pi)
        assert parse_angle("0.75") == 0.75
        assert parse_angle("-pi/2") == pytest.approx(-math.pi / 2)

    def test_parse_half_integer(self):
        assert parse_half_integer("1/2") == 0.5
        assert parse_half_integer("7") == 7.0
        assert parse_half_integer("1.5") == 1.5
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_half_integer("0.3")


class TestCli:
    def common(self, tmp_path, fmt="csv"):
        return [
            "--s", "1/2", "--j", "3", "--g", "0.25", "--theta", "pi/6",
            "--samples", "1500", "--seed", "9",
            "--out", str(tmp_path), "--format", fmt,
        ]

    def test_figures_csv(self, tmp_path, capsys):
        assert main(["figures"] + self.common(tmp_path)) == 0
        for name in ("fig1", "fig2", "fig3", "fig4"):
            assert (tmp_path / f"{name}.csv").exists()

    def test_summary_json_and_stdout(self, tmp_path, capsys):
        assert main(["summary"] + self.common(tmp_path, "json")) == 0
        out = capsys.readouterr().out
        assert "mean_fidelity" in out
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert "summary" in doc["tables"]

    def test_variances(self, tmp_path):
        assert main(
            ["variances"] + self.common(tmp_path) + ["--spins", "1/2", "1"]
        ) == 0
        assert (tmp_path / "variances.csv").exists()

    def test_sweep(self, tmp_path):
        args = ["sweep"] + self.common(tmp_path)
        args += ["--axis", "theta", "--values", "pi/6", "pi/4"]
        assert main(args) == 0
        assert (tmp_path / "sweep.csv").exists()

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        args = ["summary"] + self.common(tmp_path)
        args[args.index("--theta") + 1] = "2pi"  # outside [0, pi]
        assert main(args) == 2

    @pytest.mark.parametrize(
        "args, message",
        [
            (["summary", "--theta", "pi/0"], "divides by zero"),
            (["summary", "--s", "1/0"], "divides by zero"),
            (["variances", "--spins", "1/0"], "divides by zero"),
            (["sweep", "--axis", "theta", "--values", "pi/0"], "divides by zero"),
            (["summary", "--j", "1e400"], "not a finite number"),
            (["sweep", "--axis", "j", "--values", "inf"], "not a finite number"),
        ],
    )
    def test_unparsable_numbers_exit_code_2(self, tmp_path, capsys, args, message):
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(
                ["figures", "--j", "2", "--samples", "1000", "--seed", "4",
                 "--out", str(out)]
            ) == 0
        for name in ("fig1", "fig2", "fig3", "fig4"):
            assert (out1 / f"{name}.csv").read_bytes() == (
                out2 / f"{name}.csv"
            ).read_bytes()


class TestUndefinedFirstStageOutcomes:
    # outcome -40 has p ≈ 3e-24, below the probability floor
    CFG = ExperimentConfig(
        SpinProbeConfig(s=0.5, j=40, g=0.05, theta=math.pi / 6), samples=2000, seed=5
    )

    @pytest.fixture(scope="class")
    def run(self):
        ens = sample_haar(self.CFG.spin.dim, self.CFG.samples, self.CFG.seed)
        return compute_spin_run(self.CFG.spin, ens)

    def test_undefined_rows_are_nan(self, run):
        undefined = run.p_m <= TOL.prob_floor
        defined = ~undefined
        assert undefined.any() and defined.any()
        for values in (run.fidelity_m, run.info_m, run.fidelity_opt_m, run.p_preferred_m):
            assert np.all(np.isnan(values[undefined]))
            assert np.all(np.isfinite(values[defined]))
        for values in (run.fidelity_prime_m, run.info_prime_m):
            assert np.all(np.isnan(values[undefined]))
        for grid in (run.fidelity_grid, run.info_grid, run.joint_grid):
            assert np.all(np.isnan(grid[undefined]))

    def test_primed_values_of_defined_outcomes(self, run):
        # the second stage is floored on p(mu | m), so a first outcome just
        # above the floor, whose joint p(m, mu) all lie below it, keeps
        # defined branches and finite primed values
        defined = run.p_m > TOL.prob_floor
        near_floor = defined & np.all(run.joint_grid <= TOL.prob_floor, axis=1)
        assert near_floor.any()
        for values in (run.fidelity_prime_m, run.info_prime_m):
            assert np.all(np.isfinite(values[defined]))
        assert np.all((run.fidelity_prime_m[defined] >= 0) & (run.fidelity_prime_m[defined] <= 1 + 1e-12))
        assert np.all(run.info_prime_m[defined] >= 0)

    def test_means_leave_undefined_out(self, run):
        d = run.p_m > TOL.prob_floor
        assert run.mean_fidelity == pytest.approx(np.sum(run.p_m[d] * run.fidelity_m[d]), rel=1e-14)
        assert run.mean_info == pytest.approx(np.sum(run.p_m[d] * run.info_m[d]), rel=1e-14)
        d = ~np.isnan(run.fidelity_prime_m)
        assert run.mean_fidelity_prime == pytest.approx(
            np.sum(run.p_m[d] * run.fidelity_prime_m[d]), rel=1e-14
        )
        assert run.mean_info_prime == pytest.approx(np.sum(run.p_m[d] * run.info_prime_m[d]), rel=1e-14)
        assert 0.0 < run.mean_fidelity < run.mean_fidelity_prime <= 1.0
        assert 0.0 < run.mean_info < run.mean_info_prime

    def test_cli_summary_runs(self, tmp_path, capsys):
        args = ["summary", "--j", "40", "--g", "0.05", "--samples", "2000", "--out", str(tmp_path)]
        assert main(args) == 0
        assert "mean_fidelity = " in capsys.readouterr().out

    def test_fully_defined_means_are_plain_sums(self):
        ens = sample_haar(2, 2000, 11)
        run = compute_spin_run(SMALL.spin, ens)
        assert not np.isnan(run.fidelity_prime_m).any()
        assert run.mean_fidelity == float(np.sum(run.p_m * run.fidelity_m))
        assert run.mean_info == float(np.sum(run.p_m * run.info_m))
        assert run.mean_fidelity_prime == float(np.sum(run.p_m * run.fidelity_prime_m))
        assert run.mean_info_prime == float(np.sum(run.p_m * run.info_prime_m))


class TestConjugatePairEvaluation:
    """compute_spin_run against per-m two_stage_statistics on the T(pi - theta) set."""

    @staticmethod
    def reference(spin, ens):
        forward = build_forward(spin)
        second = conjugate_probe_set(spin)
        stats1 = stage_statistics(forward, ens)
        n = len(forward.labels)
        ref = {k: np.full(n, np.nan) for k in ("p_pref", "f_prime", "i_prime")}
        ref.update({k: np.full((n, n), np.nan) for k in ("joint", "fid", "info")})
        for i, m in enumerate(forward.labels):
            if not stats1.defined[i]:
                continue
            ts = two_stage_statistics(forward, m, second, ens)
            ref["p_pref"][i] = ts.conditional[i]
            ref["f_prime"][i] = ts.mean_fidelity
            ref["i_prime"][i] = ts.mean_info
            ref["joint"][i] = ts.probability
            ref["fid"][i] = ts.fidelity
            ref["info"][i] = ts.info_gain
        return ref

    def compare(self, spin, ens, run=None):
        run = compute_spin_run(spin, ens) if run is None else run
        ref = self.reference(spin, ens)
        got = {
            "p_pref": run.p_preferred_m, "f_prime": run.fidelity_prime_m,
            "i_prime": run.info_prime_m, "joint": run.joint_grid,
            "fid": run.fidelity_grid, "info": run.info_grid,
        }
        for key, value in got.items():
            np.testing.assert_array_equal(np.isnan(value), np.isnan(ref[key]), err_msg=key)
            if key.startswith("i"):
                np.testing.assert_allclose(value, ref[key], rtol=0, atol=1e-12, err_msg=key)
            else:
                np.testing.assert_allclose(value, ref[key], rtol=1e-13, atol=0, err_msg=key)
        return run

    def test_headline(self, paper_cfg, ens2_big, paper_run):
        self.compare(paper_cfg, ens2_big, paper_run)

    @pytest.mark.parametrize(
        "s, j, theta",
        [(7.5, 2, math.pi / 6), (0.5, 0.5, math.pi / 6), (0.5, 7, 0.0), (0.5, 7, math.pi)],
    )
    def test_configurations(self, s, j, theta):
        spin = SpinProbeConfig(s=s, j=j, g=0.25, theta=theta)
        self.compare(spin, sample_haar(spin.dim, 2000, 13))

    def test_undefined_outcomes(self):
        cfg = TestUndefinedFirstStageOutcomes.CFG
        run = self.compare(cfg.spin, sample_haar(cfg.spin.dim, cfg.samples, cfg.seed))
        assert np.isnan(run.fidelity_grid).any()

    def test_one_evaluation_per_unordered_pair(self, monkeypatch):
        counts = {"info": 0, "branch": 0}

        def counted(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(
            metrics, "likelihood_info_gain", counted("info", metrics.likelihood_info_gain)
        )
        monkeypatch.setattr(
            metrics, "branch_weights_and_moduli",
            counted("branch", metrics.branch_weights_and_moduli),
        )
        spin = SpinProbeConfig(s=0.5, j=7, g=0.25, theta=math.pi / 6)
        compute_spin_run(spin, sample_haar(2, 1000, 3))
        n = len(spin.outcome_labels)
        assert counts["info"] <= n + n * (n + 1) // 2
        # first stage, pairs and optimal_fidelity
        assert counts["branch"] <= n + n * (n + 1) // 2 + n


def disturbance_by_hand(spin, ens):
    """The disturbance window from the first stage and optimal_fidelity directly."""
    forward = build_forward(spin)
    stats = stage_statistics(forward, ens)
    marked = []
    for i, m in enumerate(forward.labels):
        if not stats.defined[i]:
            continue
        loss_opt = 1.0 - optimal_fidelity(forward, ens, m)
        if loss_opt <= TOL.prob_floor or (1.0 - stats.fidelity[i]) / loss_opt > TOL.disturbance_ratio:
            marked.append(m)
    return tuple(marked)


@settings(max_examples=30, deadline=None)
@given(
    s=st.sampled_from([0.5, 1.0, 1.5]),
    j=st.sampled_from([k / 2 for k in range(9)]),
    g=st.floats(0.0, 1.0),
    theta=st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi)),
    seed=st.integers(0, 2**16),
)
@example(s=0.5, j=0.0, g=0.25, theta=math.pi / 6, seed=1)
@example(s=1.5, j=4.0, g=1.0, theta=math.pi, seed=2)
def test_spin_run_properties(s, j, g, theta, seed):
    spin = SpinProbeConfig(s=s, j=j, g=g, theta=theta)
    ens = sample_haar(spin.dim, 500, seed)
    try:
        run = TestConjugatePairEvaluation().compare(spin, ens)
    except MeasurementModelError:
        return
    assert run.disturbance_outcomes == disturbance_by_hand(spin, ens)
    assert np.sum(run.p_m) == pytest.approx(1.0, abs=TOL.prob_sum)
    fidelities = (run.fidelity_m, run.fidelity_opt_m, run.fidelity_prime_m, run.fidelity_grid)
    for values in fidelities:
        values = values[~np.isnan(values)]
        assert np.all((values >= 0.0) & (values <= 1.0 + 1e-12))
    for values in (run.info_m, run.info_prime_m, run.info_grid):
        assert np.all(values[~np.isnan(values)] >= 0.0)


def test_cli_maps_model_errors_to_exit_code_3(tmp_path, capsys, monkeypatch):
    def failing(cfg):
        raise ZeroProbabilityOutcomeError("outcome 1 has probability 0")

    monkeypatch.setattr(cli, "run_summary", failing)
    assert main(["summary", "--j", "3", "--samples", "1000", "--out", str(tmp_path)]) == 3
    assert "outcome 1 has probability 0" in capsys.readouterr().err
