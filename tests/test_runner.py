import argparse
import json
import math
import os
import subprocess
import sys

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
    disturbance_outcomes,
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


def column(table: Table, name: str) -> list:
    i = table.columns.index(name)
    return [row[i] for row in table.rows]


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
        assert sum(column(figures["fig1"], "p_m")) == pytest.approx(1.0, abs=1e-8)

    def test_fig4_conditionals_sum_to_one(self, figures):
        fig4 = figures["fig4"]
        m_col = np.array(column(fig4, "m"))
        p_col = np.array(column(fig4, "p_mu_given_m"))
        for m in set(m_col):
            assert p_col[m_col == m].sum() == pytest.approx(1.0, abs=1e-8)

    def test_fig4_marginals_match_fig2_fig3(self, figures):
        # averaging the grid over mu with weights p(mu|m) must reproduce the
        # primed columns of the per-outcome tables
        fig2, fig3, fig4 = figures["fig2"], figures["fig3"], figures["fig4"]
        m_col = np.array(column(fig4, "m"))
        p_col = np.array(column(fig4, "p_mu_given_m"))
        f_col = np.array(column(fig4, "fidelity_m_mu"))
        i_col = np.array(column(fig4, "info_m_mu"))
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
        np.testing.assert_allclose(column(tables["fig2"], "fidelity_m"), 1.0, atol=1e-9)
        np.testing.assert_allclose(column(tables["fig3"], "info_m"), 0.0, atol=1e-9)

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
        assert not any(column(fig4, "info_improves"))
        assert all(column(fig4, "fidelity_improves"))
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

    def test_bad_value_rejected_before_any_point_runs(self, monkeypatch):
        calls, summary = [], runner._summary

        def counted(*args):
            calls.append(args)
            return summary(*args)

        monkeypatch.setattr(runner, "_summary", counted)
        # j = 7.3 is no half-integer; the valid j = 7 before it is not computed
        with pytest.raises(ValueError):
            run_sweep(SMALL, "j", [7.0, 7.3])
        assert calls == []


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

    def test_json_writes_non_finite_values_as_null(self, tmp_path):
        # a huge g makes the weakness overflow to inf; JSON has no token for it
        path = tmp_path / "out.json"
        t = Table("t", ("a", "b", "c", "d", "e"), [(math.nan, math.inf, -math.inf, 1.5, True)])
        write_json({"t": t}, path, SMALL.metadata())
        assert "NaN" not in path.read_text() and "Infinity" not in path.read_text()
        assert json.loads(path.read_text())["tables"]["t"]["rows"] == [[None, None, None, 1.5, True]]

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
        assert parse_angle("2*pi/3") == pytest.approx(2 * math.pi / 3)
        assert parse_angle("-pi/6") == pytest.approx(-math.pi / 6)

    @pytest.mark.parametrize("text", ["pi2", "2pi3", "pi-1"])
    def test_parse_angle_rejects_text_after_pi(self, text):
        # only "/<number>" may follow pi: "pi2" is not pi/2
        with pytest.raises(argparse.ArgumentTypeError):
            parse_angle(text)

    def test_parse_half_integer(self):
        assert parse_half_integer("1/2") == 0.5
        assert parse_half_integer("7") == 7.0
        assert parse_half_integer("1.5") == 1.5
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

    def test_sweep_along_j_reads_half_integers(self, tmp_path):
        args = ["sweep"] + self.common(tmp_path)
        args += ["--axis", "j", "--values", "1/2", "3/2"]
        assert main(args) == 0
        rows = [line.split(",") for line in (tmp_path / "sweep.csv").read_text().splitlines()]
        assert {float(r[1]) for r in rows if r[0] == "j"} == {0.5, 1.5}

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

    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_unwritable_out_exit_code_2(self, tmp_path, out):
        # --out names an existing file, or a path under one: one line, no traceback
        (tmp_path / "taken").write_text("")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "conjmeas.cli", "summary", "--samples", "1000",
             "--out", str(tmp_path / out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("cannot write output: ")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    def test_out_of_memory_exit_code_2(self, tmp_path):
        # 10^14 states need 2.8 PiB: the allocation fails at once, nothing is held
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "conjmeas.cli", "summary", "--samples", "100000000000000",
             "--out", str(tmp_path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("out of memory: ")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""

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
        first, grid = run
        undefined = first.probability <= TOL.prob_floor
        defined = ~undefined
        assert undefined.any() and defined.any()
        np.testing.assert_array_equal(first.defined, defined)
        p_preferred = np.diagonal(grid.conditional)
        for values in (first.fidelity, first.info_gain, p_preferred):
            assert np.all(np.isnan(values[undefined]))
            assert np.all(np.isfinite(values[defined]))
        for values in (grid.mean_fidelity, grid.mean_info):
            assert np.all(np.isnan(values[undefined]))
        for values in (grid.fidelity, grid.info_gain, grid.probability, grid.conditional):
            assert np.all(np.isnan(values[undefined]))
        assert not grid.defined[undefined].any()

    def test_primed_values_of_defined_outcomes(self, run):
        # the second stage is floored on p(mu | m), so a first outcome just
        # above the floor, whose joint p(m, mu) all lie below it, keeps
        # defined branches and finite primed values
        first, grid = run
        defined = first.probability > TOL.prob_floor
        near_floor = defined & np.all(grid.probability <= TOL.prob_floor, axis=1)
        assert near_floor.any()
        f_prime, i_prime = grid.mean_fidelity, grid.mean_info
        for values in (f_prime, i_prime):
            assert np.all(np.isfinite(values[defined]))
        assert np.all((f_prime[defined] >= 0) & (f_prime[defined] <= 1 + 1e-12))
        assert np.all(i_prime[defined] >= 0)

    def test_means_leave_undefined_out(self, run):
        # run_summary samples the same ensemble as the fixture
        first, grid = run
        summary = run_summary(self.CFG)
        p = first.probability
        d = p > TOL.prob_floor
        assert summary["mean_fidelity"] == pytest.approx(np.sum(p[d] * first.fidelity[d]), rel=1e-14)
        assert summary["mean_info"] == pytest.approx(np.sum(p[d] * first.info_gain[d]), rel=1e-14)
        f_prime, i_prime = grid.mean_fidelity, grid.mean_info
        d = ~np.isnan(f_prime)
        assert summary["mean_fidelity_conj"] == pytest.approx(np.sum(p[d] * f_prime[d]), rel=1e-14)
        assert summary["mean_info_conj"] == pytest.approx(np.sum(p[d] * i_prime[d]), rel=1e-14)
        assert 0.0 < summary["mean_fidelity"] < summary["mean_fidelity_conj"] <= 1.0
        assert 0.0 < summary["mean_info"] < summary["mean_info_conj"]

    def test_cli_summary_runs(self, tmp_path, capsys):
        args = ["summary", "--j", "40", "--g", "0.05", "--samples", "2000", "--out", str(tmp_path)]
        assert main(args) == 0
        assert "mean_fidelity = " in capsys.readouterr().out

    def test_cli_json_is_strict(self, tmp_path, capsys):
        # undefined values are null, not the NaN token RFC 8259 does not allow
        args = ["figures", "--j", "40", "--g", "0.05", "--samples", "2000",
                "--format", "json", "--out", str(tmp_path)]
        assert main(args) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        doc = json.loads((tmp_path / "figures.json").read_text(), parse_constant=reject)
        fig2 = doc["tables"]["fig2"]
        undefined = [row for row in fig2["rows"] if row[1] is None]
        assert undefined and all(row[2] is None for row in undefined)
        assert len(undefined) < len(fig2["rows"])

    def test_fully_defined_means_are_plain_sums(self):
        # the ensemble run_summary(SMALL) samples
        first, grid = compute_spin_run(SMALL.spin, sample_haar(2, SMALL.samples, SMALL.seed))
        summary = run_summary(SMALL)
        p = first.probability
        assert not np.isnan(grid.mean_fidelity).any()
        assert summary["mean_fidelity"] == float(np.sum(p * first.fidelity))
        assert summary["mean_info"] == float(np.sum(p * first.info_gain))
        assert summary["mean_fidelity_conj"] == float(np.sum(p * grid.mean_fidelity))
        assert summary["mean_info_conj"] == float(np.sum(p * grid.mean_info))


class TestConjugatePairEvaluation:
    """compute_spin_run against per-m two_stage_statistics on the T(pi - theta) set."""

    @staticmethod
    def reference(spin, ens):
        forward = build_forward(spin)
        second = conjugate_probe_set(spin)
        stats1 = stage_statistics(forward, ens)
        n = len(forward.labels)
        ref = {k: np.full(n, np.nan) for k in ("p_pref", "f_prime", "i_prime")}
        ref.update({k: np.full((n, n), np.nan) for k in ("joint", "cond", "fid", "info")})
        ref["defined"] = np.zeros((n, n), dtype=bool)
        for i, m in enumerate(forward.labels):
            if not stats1.defined[i]:
                continue
            ts = two_stage_statistics(forward, m, second, ens)
            ref["p_pref"][i] = ts.conditional[i]
            ref["f_prime"][i] = ts.mean_fidelity
            ref["i_prime"][i] = ts.mean_info
            ref["joint"][i] = ts.probability
            ref["cond"][i] = ts.conditional
            ref["defined"][i] = ts.defined
            ref["fid"][i] = ts.fidelity
            ref["info"][i] = ts.info_gain
        return ref

    def compare(self, spin, ens, run=None):
        """Row m of the grid is two_stage_statistics(forward, m, T(pi - theta)).

        Returns the run, ``(first, grid)``.
        """
        run = compute_spin_run(spin, ens) if run is None else run
        first, grid = run
        ref = self.reference(spin, ens)
        np.testing.assert_array_equal(grid.defined, ref.pop("defined"))
        got = {
            "p_pref": np.diagonal(grid.conditional), "f_prime": grid.mean_fidelity,
            "i_prime": grid.mean_info, "joint": grid.probability,
            "cond": grid.conditional, "fid": grid.fidelity, "info": grid.info_gain,
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
        _, grid = self.compare(cfg.spin, sample_haar(cfg.spin.dim, cfg.samples, cfg.seed))
        assert np.isnan(grid.fidelity).any()

    def test_one_evaluation_per_unordered_pair(self, monkeypatch):
        counts = {
            "_info_gain": 0,
            "branch_weights_and_squared_moduli": 0,
            "mean_expectation": 0,
            "optimal_fidelity": 0,
        }
        for name in counts:
            fn = getattr(metrics, name)

            def wrapper(*args, _fn=fn, _name=name):
                counts[_name] += 1
                return _fn(*args)

            # wherever the library binds the name
            for module in (metrics, runner):
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, wrapper)
        spin = SpinProbeConfig(s=0.5, j=7, g=0.25, theta=math.pi / 6)
        first, grid = compute_spin_run(spin, sample_haar(2, 1000, 3))
        n = len(spin.outcome_labels)
        assert first.probability.min() > TOL.prob_floor and np.isfinite(grid.info_gain).all()
        # the first stage, then the pairs; no F_opt work
        assert counts == {
            "_info_gain": n + n * (n + 1) // 2,
            "branch_weights_and_squared_moduli": n + n * (n + 1) // 2,
            "mean_expectation": 0,
            "optimal_fidelity": 0,
        }


@settings(max_examples=30, deadline=None)
@given(
    s=st.sampled_from([0.5, 1.0, 1.5]),
    j=st.sampled_from([k / 2 for k in range(9)] + [20.0, 40.0]),
    g=st.floats(0.0, 1.0),
    theta=st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi)),
    seed=st.integers(0, 2**16),
)
@example(s=0.5, j=0.0, g=0.25, theta=math.pi / 6, seed=1)
@example(s=1.5, j=4.0, g=1.0, theta=math.pi, seed=2)
@example(s=0.5, j=40.0, g=0.05, theta=math.pi / 6, seed=5)
def test_spin_run_properties(s, j, g, theta, seed):
    spin = SpinProbeConfig(s=s, j=j, g=g, theta=theta)
    ens = sample_haar(spin.dim, 500, seed)
    try:
        first, grid = TestConjugatePairEvaluation().compare(spin, ens)
    except MeasurementModelError:
        return
    forward = build_forward(spin)
    defined = [m for m, ok in zip(first.labels, first.defined) if ok]
    assert set(disturbance_outcomes(forward, first, ens)) <= set(defined)
    f_opt = np.array([optimal_fidelity(forward, ens, m) for m in defined])
    assert np.sum(first.probability) == pytest.approx(1.0, abs=TOL.prob_sum)
    # each defined first outcome's second stage is a distribution; the rest are NaN
    row_sums = np.sum(grid.conditional[first.defined], axis=1)
    np.testing.assert_allclose(row_sums, 1.0, rtol=0, atol=TOL.prob_sum)
    assert np.isnan(grid.conditional[~first.defined]).all()
    fidelities = (first.fidelity, f_opt, grid.mean_fidelity, grid.fidelity)
    for values in fidelities:
        values = values[~np.isnan(values)]
        assert np.all((values >= 0.0) & (values <= 1.0 + 1e-12))
    for values in (first.info_gain, grid.mean_info, grid.info_gain):
        assert np.all(values[~np.isnan(values)] >= 0.0)


@pytest.mark.parametrize(
    "command", [["summary"], ["sweep", "--axis", "j", "--values", "7", "20"]]
)
def test_cli_runs_where_an_amplitude_underflows(tmp_path, capsys, command):
    # at theta = g = pi/2 the amplitude of T_-20 underflows to exactly 0 on
    # one sigma; figures ran here, and summary and sweep must run too
    args = ["--j", "20", "--theta", "pi/2", "--g", "1.5707963267948966",
            "--samples", "1000", "--out", str(tmp_path)]
    assert main(command + args) == 0
    assert capsys.readouterr().err == ""


def test_cli_maps_model_errors_to_exit_code_3(tmp_path, capsys, monkeypatch):
    def failing(cfg):
        raise ZeroProbabilityOutcomeError("outcome 1 has probability 0")

    monkeypatch.setattr(cli, "run_summary", failing)
    assert main(["summary", "--j", "3", "--samples", "1000", "--out", str(tmp_path)]) == 3
    assert "outcome 1 has probability 0" in capsys.readouterr().err
