import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjmeas import ensemble, linalg, metrics, reversal
from conjmeas.ensemble import PureStateEnsemble, expectation_values, sample_haar, spin_z
from conjmeas.errors import (
    DimensionMismatchError,
    InvalidWeightsError,
    UnknownLabelError,
    ValidationError,
)
from conjmeas.measurement import KrausSet
from conjmeas.metrics import (
    branch_weights_and_amplitudes,
    likelihood_info_gain,
    optimal_fidelity,
    stage_statistics,
    two_stage_statistics,
)
from conjmeas.reversal import (
    build_conjugate_minimal,
    build_reversing,
    conditional_success_probability,
    conjugate_preferred_closed_form,
)
from conjmeas.runner import compute_spin_run, disturbance_outcomes
from conjmeas.spin_probe import SpinProbeConfig, build_forward, conjugate_probe_set
from conjmeas.tolerances import TOL

from conftest import N_BIG, PAPER_CFG, SEED, haar_unitary, near_singular_set

LN2 = math.log(2.0)
SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


def tiny_ensemble(dim, n, seed):
    ens = sample_haar(dim, n, seed)
    return ens


def brute_force_info(weights):
    """Information as initial minus posterior Shannon entropy, H0 - H(m)."""
    w = np.asarray(weights, dtype=float)
    n = w.size
    post = w / w.sum()
    h = -sum(p * math.log2(p) for p in post if p > 0)
    return math.log2(n) - h


def pure_state_fidelity(psi, sigma):
    """Uhlmann fidelity of |psi><psi| and the density matrix sigma: sqrt(<psi|sigma|psi>)."""
    return math.sqrt(max(np.real(psi.conj() @ sigma @ psi), 0.0))


class TestInfoKernel:
    def test_constant_weights(self):
        assert likelihood_info_gain([0.3, 0.3, 0.3]) == 0.0

    def test_perfect_discrimination(self):
        assert likelihood_info_gain([1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_matches_entropy_difference(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 5, 8):
            w = rng.uniform(0.0, 1.0, n)
            assert likelihood_info_gain(w) == pytest.approx(
                brute_force_info(w), abs=1e-10
            )

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            w = rng.uniform(0.0, 2.0, int(rng.integers(2, 30)))
            assert likelihood_info_gain(w) >= 0.0

    def test_rejects_bad_weights(self):
        # the last three overflow inside the kernel: an infinite weight, a
        # sum past the float maximum, and a w log2 w past it
        for bad in ([], [0.0, 0.0], [1.0, -0.1], [np.inf, 1.0], [1e308, 1e308], [1e308, 1.0]):
            with pytest.raises(InvalidWeightsError):
                likelihood_info_gain(bad)

    def test_rejects_a_mean_that_underflows(self):
        # one positive weight, but the mean rounds to zero
        with pytest.raises(InvalidWeightsError):
            likelihood_info_gain([5e-324, 0.0, 0.0])


class TestStageStatistics:
    def test_trivial_measurement(self, ens2_small):
        stats = stage_statistics(KrausSet((np.eye(2),), (0.0,)), ens2_small)
        assert stats.probability[0] == pytest.approx(1.0, abs=1e-12)
        assert stats.info_gain[0] == pytest.approx(0.0, abs=1e-12)
        assert stats.fidelity[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_coupling_probe(self, ens2_small):
        cfg = SpinProbeConfig(s=0.5, j=3, g=0.0, theta=math.pi / 6)
        stats = stage_statistics(build_forward(cfg), ens2_small)
        np.testing.assert_allclose(stats.info_gain, 0.0, atol=1e-10)
        np.testing.assert_allclose(stats.fidelity, 1.0, atol=1e-10)

    def test_probabilities_sum_to_one(self, paper_run):
        first, _ = paper_run
        assert first.probability.sum() == pytest.approx(1.0, abs=1e-8)

    def test_dimension_mismatch(self, ens2_small):
        cfg = SpinProbeConfig(s=1.0, j=1, g=0.1, theta=0.5)
        with pytest.raises(DimensionMismatchError):
            stage_statistics(build_forward(cfg), ens2_small)

    def test_brute_force_equivalence_small_ensemble(self):
        # independent route: explicit p(a|m) tables and H0 - H(m)
        ens = tiny_ensemble(2, 8, 123)
        cfg = SpinProbeConfig(s=0.5, j=2, g=0.3, theta=0.9)
        kraus = build_forward(cfg)
        stats = stage_statistics(kraus, ens)
        for i, m in enumerate(kraus.labels):
            M = kraus.operator(m)
            w = np.array(
                [
                    float(np.real(psi.conj() @ (M.conj().T @ M) @ psi))
                    for psi in ens.states
                ]
            )
            assert stats.probability[i] == pytest.approx(w.mean(), abs=1e-12)
            assert stats.info_gain[i] == pytest.approx(brute_force_info(w), abs=1e-10)
            # fidelity of each post-measurement state with the state it came from
            post = w / w.sum()
            f = 0.0
            for a, psi in enumerate(ens.states):
                rho = np.outer(psi, psi.conj())
                out = M @ rho @ M.conj().T / w[a]
                f += post[a] * pure_state_fidelity(psi, out)
            assert stats.fidelity[i] == pytest.approx(f, abs=1e-10)


class TestTwoStageStatistics:
    def test_identity_second_stage(self, ens2_small, paper_cfg):
        kraus = build_forward(paper_cfg)
        first = stage_statistics(kraus, ens2_small)
        second = KrausSet((np.eye(2),), (0.0,))
        for i, m in enumerate(kraus.labels):
            ts = two_stage_statistics(kraus, m, second, ens2_small)
            assert ts.conditional[0] == pytest.approx(1.0, abs=1e-9)
            assert ts.fidelity[0] == pytest.approx(first.fidelity[i], abs=1e-10)
            assert ts.info_gain[0] == pytest.approx(first.info_gain[i], abs=1e-10)

    def test_reversing_branch_recovers_and_erases(self, ens2_small, paper_cfg):
        from conjmeas.spin_probe import build_reversing_probe

        kraus = build_forward(paper_cfg)
        family = build_reversing_probe(paper_cfg)
        for m in kraus.labels:
            spec = family[m]
            ts = two_stage_statistics(kraus, m, spec.kraus, ens2_small)
            p, info, fid = ts.get(spec.preferred_label)
            assert fid == pytest.approx(1.0, abs=1e-9)
            assert info == pytest.approx(0.0, abs=1e-9)

    def test_conditional_distribution_normalized(self, ens2_small, paper_cfg):
        kraus = build_forward(paper_cfg)
        second = conjugate_probe_set(paper_cfg)
        ts = two_stage_statistics(kraus, 0.0, second, ens2_small)
        assert ts.conditional.sum() == pytest.approx(1.0, abs=1e-8)

    def test_brute_force_equivalence_small_ensemble(self):
        ens = tiny_ensemble(2, 6, 321)
        cfg = SpinProbeConfig(s=0.5, j=2, g=0.3, theta=0.9)
        kraus = build_forward(cfg)
        second = conjugate_probe_set(cfg)
        m = 1.0
        ts = two_stage_statistics(kraus, m, second, ens)
        M = kraus.operator(m)
        for k, mu in enumerate(second.labels):
            C = second.operator(mu)
            A = C @ M
            w = np.array(
                [
                    float(np.real(psi.conj() @ (A.conj().T @ A) @ psi))
                    for psi in ens.states
                ]
            )
            assert ts.probability[k] == pytest.approx(w.mean(), abs=1e-14)
            assert ts.info_gain[k] == pytest.approx(brute_force_info(w), abs=1e-10)
            post = w / w.sum()
            f = 0.0
            for a, psi in enumerate(ens.states):
                rho = np.outer(psi, psi.conj())
                out = A @ rho @ A.conj().T / w[a]
                f += post[a] * pure_state_fidelity(psi, out)
            assert ts.fidelity[k] == pytest.approx(f, abs=1e-10)


class TestConditionalMean:
    def test_undefined_entries_get_no_weight(self):
        weights = np.array([[0.5, 0.3, 0.2], [np.nan, np.nan, np.nan]])
        values = np.array([[1.0, np.nan, 3.0], [np.nan, np.nan, np.nan]])
        grid = metrics.StageStatistics((0, 1, 2), weights, values, values)
        np.testing.assert_array_equal(grid.defined, [[True, False, True], [False, False, False]])
        for got in (grid.mean_fidelity, grid.mean_info):
            assert got[0] == (0.5 * 1.0 + 0.2 * 3.0) / (0.5 + 0.2)
            assert np.isnan(got[1])
        # a single stage reduces to a float, NaN when nothing is defined
        stage = metrics.StageStatistics((0, 1, 2), weights[0], values[0], values[0])
        assert stage.mean_fidelity == (0.5 * 1.0 + 0.2 * 3.0) / (0.5 + 0.2)
        assert isinstance(stage.mean_fidelity, float)
        empty = metrics.StageStatistics((0, 1, 2), weights[1], values[1], values[1])
        assert np.isnan(empty.mean_info)


class TestConjugateTwoStageStatistics:
    """Grid rows of the pair evaluation against per-m two_stage_statistics on {M_mu†}."""

    @pytest.mark.parametrize("dim", [2, 5])
    def test_random_diagonal_sets(self, dim):
        # the zero entry leaves branches with zero weight on some states, and
        # the unitary outcome gives branches with I = 0 and F = 1
        rng = np.random.default_rng(2000 + dim)
        kraus = random_diagonal_kraus(rng, dim, 5, zero_entry=True, unitary_outcome=True)
        ens = sample_haar(dim, 1500, 40 + dim)
        adjoint = KrausSet(tuple(linalg.dagger(M) for M in kraus.operators), kraus.labels)
        first, grid = metrics.conjugate_two_stage_statistics(kraus, ens)
        ref = stage_statistics(kraus, ens)
        assert first.labels == ref.labels and first.conditional is None
        for field in ("probability", "info_gain", "fidelity"):
            assert np.array_equal(getattr(first, field), getattr(ref, field), equal_nan=True)
        assert grid.labels == kraus.labels
        np.testing.assert_array_equal(
            grid.conditional, grid.probability / first.probability[:, None]
        )
        f_prime, i_prime = grid.mean_fidelity, grid.mean_info
        for i, m in enumerate(kraus.labels):
            ref = two_stage_statistics(kraus, m, adjoint, ens)
            np.testing.assert_array_equal(grid.defined[i], ref.defined)
            for got, want in (
                (grid.probability[i], ref.probability),
                (grid.conditional[i], ref.conditional),
                (grid.fidelity[i], ref.fidelity),
                ([f_prime[i]], [ref.mean_fidelity]),
            ):
                np.testing.assert_allclose(got, want, rtol=POP_RTOL, atol=0)
            for got, want in ((grid.info_gain[i], ref.info_gain), ([i_prime[i]], [ref.mean_info])):
                np.testing.assert_allclose(got, want, rtol=0, atol=POP_ATOL_INFO)

    def test_undefined_first_outcome_rows_are_nan(self):
        # outcome 0 has zero probability: its row is NaN, although the
        # pairs it forms with defined outcomes are evaluated for their rows
        a = np.array([[0.0, 0.0], [0.6, 0.8], [0.8, 0.6]])
        kraus = KrausSet(tuple(np.diag(row) for row in a), (0, 1, 2))
        ens = sample_haar(2, 500, 3)
        first, grid = metrics.conjugate_two_stage_statistics(kraus, ens)
        assert not first.defined[0] and first.defined[1:].all()
        for values in (grid.probability, grid.conditional, grid.info_gain, grid.fidelity):
            assert np.isnan(values[0]).all()
        defined, info = grid.defined, grid.info_gain
        assert not defined[0].any()
        assert not defined[1:, 0].any() and defined[1:, 1:].all()
        assert np.isnan(info[1:, 0]).all() and np.isfinite(info[1:, 1:]).all()
        np.testing.assert_array_equal(grid.probability[1:, 0], 0.0)
        assert np.isnan(grid.mean_fidelity[0]) and np.isnan(grid.mean_info[0])

    def test_rejects_non_diagonal_and_foreign_ensemble(self, ens2_small, paper_cfg):
        general = random_general_kraus(np.random.default_rng(5), 2, 3)
        with pytest.raises(ValidationError):
            metrics.conjugate_two_stage_statistics(general, ens2_small)
        with pytest.raises(DimensionMismatchError):
            metrics.conjugate_two_stage_statistics(build_forward(paper_cfg), sample_haar(3, 100, 1))


class TestOptimalFidelity:
    def test_trivial(self, ens2_small):
        assert optimal_fidelity(
            KrausSet((np.eye(2),), (0.0,)), ens2_small, 0.0
        ) == pytest.approx(1.0, abs=1e-12)

    def test_zero_coupling(self, ens2_small):
        cfg = SpinProbeConfig(s=0.5, j=3, g=0.0, theta=math.pi / 6)
        kraus = build_forward(cfg)
        for m in kraus.labels:
            assert optimal_fidelity(kraus, ens2_small, m) == pytest.approx(
                1.0, abs=1e-10
            )

    def test_disturbance_window_at_reference_config(self, paper_cfg, ens2_big, paper_run):
        first, _ = paper_run
        kraus = build_forward(paper_cfg)
        loss_opt = 1.0 - np.array([optimal_fidelity(kraus, ens2_big, m) for m in kraus.labels])
        window = disturbance_outcomes(kraus, ens2_big)
        for m, fid, loss in zip(first.labels, first.fidelity, loss_opt):
            if m == 0.0:
                # T_0 is a multiple of a unitary: 1 - F_opt is roundoff, of
                # either sign, and the window marks a loss at the floor
                assert abs(loss) <= TOL.prob_floor
                assert m in window
            elif abs(m) <= 5:
                assert (1.0 - fid) / loss > 4.0
            else:
                assert (1.0 - fid) / loss <= 4.0

    @pytest.mark.parametrize("case", ["forward", "undefined_outcomes", "general", "near_singular"])
    def test_disturbance_outcomes_in_one_call(self, case, monkeypatch):
        # the positive parts of all defined outcomes are one kernel call, and
        # the marks are those of one optimal_fidelity call per outcome
        if case == "forward":
            kraus, ens = build_forward(PAPER_CFG), sample_haar(2, 2000, 6)
        elif case == "undefined_outcomes":
            cfg = SpinProbeConfig(s=0.5, j=40, g=0.05, theta=math.pi / 6)
            kraus, ens = build_forward(cfg), sample_haar(2, 2000, 5)
        elif case == "general":
            kraus = random_general_kraus(np.random.default_rng(8), 3, 4)
            ens = sample_haar(3, 2000, 7)
        else:
            kraus, ens = near_singular_set()[0], sample_haar(4, 2000, 9)
        first = stage_statistics(kraus, ens)
        looped = []
        for m, ok, fid in zip(first.labels, first.defined, first.fidelity):
            if ok:
                loss_opt = 1.0 - optimal_fidelity(kraus, ens, m)
                if loss_opt <= TOL.prob_floor or (1.0 - fid) / loss_opt > TOL.disturbance_ratio:
                    looped.append(m)
        calls = []
        real = metrics._branch_sums
        monkeypatch.setattr(
            metrics, "_branch_sums", lambda ops, ens: calls.append(len(ops)) or real(ops, ens)
        )
        assert disturbance_outcomes(kraus, ens) == tuple(looped)
        # the first stage, then the positive parts of its defined outcomes
        assert calls == [len(kraus), int(first.defined.sum())]

    def test_near_singular_outcome_to_roundoff(self):
        kraus, N = near_singular_set()
        ens = sample_haar(4, 2000, 5)
        _, _, fid = metrics.branch_statistics([N], ens)
        assert abs(optimal_fidelity(kraus, ens, 0.0) - fid[0]) < 1e-14


def test_weak_measurement_information_law(ens2_big):
    # small-disturbance limit: info gain per outcome is twice the classical
    # variance of the perturbation, expressed in bits
    cfg = SpinProbeConfig(s=0.5, j=7, g=0.01, theta=math.pi / 6)
    kraus = build_forward(cfg)
    # q_m = |a_{m sigma}| of the bare probe, g = 0 and theta = 0
    bare = build_forward(SpinProbeConfig(s=0.5, j=cfg.j, g=0.0, theta=0.0))
    stats = stage_statistics(kraus, ens2_big)
    for i, m in enumerate(kraus.labels):
        if m == 0.0:
            continue  # perturbation vanishes identically at m = 0
        # T_m = q_m e^{i gamma} e^{i Gamma} (I + eps): eps = |diag T_m| / q_m - 1
        q = abs(bare.operator(m)[0, 0])
        eps = np.diag(np.abs(np.diagonal(kraus.operator(m))) / q - 1.0)
        ev = np.real(
            np.einsum("ad,dc,ac->a", ens2_big.states.conj(), eps, ens2_big.states)
        )
        v_i = float(np.mean((ev - ev.mean()) ** 2))
        assert stats.info_gain[i] == pytest.approx(2.0 * v_i / LN2, rel=0.05)


# Tolerances of the populations path against the dense path, from float64
# roundoff: both evaluate the same sums in a different order.
POP_RTOL = 1e-13   # p and F, relative
POP_ATOL_INFO = 1e-12   # I, absolute


def random_diagonal_kraus(rng, dim, n_out, zero_entry=False, unitary_outcome=False):
    """Random complete set of diagonal operators, optionally with special outcomes."""
    diags = rng.standard_normal((n_out, dim)) + 1j * rng.standard_normal((n_out, dim))
    if zero_entry:
        diags[0, dim // 2] = 0.0
    if unitary_outcome:
        # one outcome proportional to a unitary: c·diag(e^{i phi})
        diags[-1] = 0.8 * np.exp(1j * rng.uniform(-np.pi, np.pi, dim))
        rest = np.sqrt(np.sum(np.abs(diags[:-1]) ** 2, axis=0) / (1.0 - 0.64))
        diags[:-1] /= rest
    else:
        diags /= np.sqrt(np.sum(np.abs(diags) ** 2, axis=0))
    return KrausSet(tuple(np.diag(a) for a in diags), tuple(range(n_out)))


def expect_dense_calls(calls, branches, means=0):
    """Check that the dense reference evaluated ``branches`` branches and
    ``means`` weight-only means since the last check.

    ``calls`` is the dict :func:`use_dense_reference` returns, or None on
    the library's own path, where there is nothing to check.
    """
    if calls is not None:
        assert (len(calls["branch"]), len(calls["mean"])) == (branches, means)
        for ops in calls.values():
            ops.clear()


def all_statistics(first, second, ens, dense_calls=None):
    """p, F, I of the first stage, the second-stage grids and
    optimal_fidelity, as one flat dict of arrays."""
    n = len(first)
    s1 = stage_statistics(first, ens)
    out = {"p": s1.probability, "F": s1.fidelity, "I": s1.info_gain}
    # one branch per outcome
    expect_dense_calls(dense_calls, n)
    grids = [two_stage_statistics(first, m, second, ens) for m in first.labels]
    out["p2"] = np.array([ts.probability for ts in grids])
    out["F2"] = np.array([ts.fidelity for ts in grids])
    out["I2"] = np.array([ts.info_gain for ts in grids])
    # one branch per second outcome, and the mean weight p(m) it is conditioned on
    expect_dense_calls(dense_calls, n * len(second), means=n)
    out["Fopt_fn"] = np.array([optimal_fidelity(first, ens, m) for m in first.labels])
    expect_dense_calls(dense_calls, n)
    return out


def dense_branch_sums(ens, op):
    """(p, p, Σ w log2 w, p, Σ sqrt(w |amp|²)) of one branch from the dense per-state values.

    The kernel's sums with x = w and the branch as its own ray, the forms
    its non-diagonal path sums.
    """
    w, amp = branch_weights_and_amplitudes(ens.states, op)
    w_log_w = w * np.log2(w, out=np.zeros_like(w), where=w > 0)
    return w.mean(), w.mean(), w_log_w.sum(), w.mean(), np.sqrt(w * np.abs(amp) ** 2).sum()


def use_dense_reference(monkeypatch):
    """Route every branch, every weight-only mean and every <N> through the dense path.

    Returns the operators the dense branch kernel (``"branch"``, one entry
    per branch) and the dense per-state mean (``"mean"``) have been called
    with.
    """
    calls = {"branch": [], "mean": []}

    def dense_kernel(ops, ens):
        calls["branch"].extend(ops)
        return tuple(np.array(s) for s in zip(*(dense_branch_sums(ens, op) for op in ops)))

    def dense_mean_expectation(ens, A):
        calls["mean"].append(A)
        return float(np.einsum("ai,ij,aj->a", ens.states.conj(), A, ens.states).real.mean())

    monkeypatch.setattr(metrics, "_branch_sums", dense_kernel)
    for module in (metrics, reversal):
        monkeypatch.setattr(module, "mean_expectation", dense_mean_expectation)
    monkeypatch.setattr(linalg, "is_diagonal", lambda op: False)
    return calls


def assert_close_to_dense(fast, dense):
    for key in fast:
        if key.startswith("I"):
            np.testing.assert_allclose(fast[key], dense[key], rtol=0, atol=POP_ATOL_INFO, err_msg=key)
        else:
            np.testing.assert_allclose(fast[key], dense[key], rtol=POP_RTOL, atol=0, err_msg=key)


class TestPopulationsKernel:
    """The populations path against the dense path on diagonal Kraus sets."""

    def compare(self, monkeypatch, first, second, ens):
        fast = all_statistics(first, second, ens)
        calls = use_dense_reference(monkeypatch)
        assert_close_to_dense(fast, all_statistics(first, second, ens, calls))

    @pytest.mark.parametrize("dim", [2, 16])
    @pytest.mark.parametrize("zero_entry", [False, True])
    def test_random_diagonal_sets(self, monkeypatch, dim, zero_entry):
        rng = np.random.default_rng(1000 + dim + zero_entry)
        first = random_diagonal_kraus(rng, dim, 4, zero_entry=zero_entry, unitary_outcome=True)
        second = random_diagonal_kraus(rng, dim, 3)
        self.compare(monkeypatch, first, second, sample_haar(dim, 1500, 7 + dim))

    def test_unitary_spin_probe(self, monkeypatch, ens2_small):
        # at theta = 0 every probe operator is a multiple of a diagonal unitary
        cfg = SpinProbeConfig(s=0.5, j=2, g=0.3, theta=0.0)
        self.compare(monkeypatch, build_forward(cfg), conjugate_probe_set(cfg), ens2_small)

    def test_spin_probe_wide_system(self, monkeypatch):
        cfg = SpinProbeConfig(s=7.5, j=2, g=0.25, theta=math.pi / 6)
        ens = sample_haar(16, 1500, 3)
        self.compare(monkeypatch, build_forward(cfg), conjugate_probe_set(cfg), ens)

    def test_path_choice(self, monkeypatch):
        calls = []
        dense = metrics.branch_weights_and_amplitudes
        monkeypatch.setattr(
            metrics, "branch_weights_and_amplitudes",
            lambda states, op: calls.append(op) or dense(states, op),
        )
        # a diagonal-only run never builds the features
        cfg = SpinProbeConfig(s=0.5, j=2, g=0.3, theta=0.9)
        ens = sample_haar(2, 500, 17)
        compute_spin_run(cfg, ens)
        expectation_values(ens, spin_z(0.5))
        assert "features" not in vars(ens)
        # an operator with one tiny off-diagonal entry takes the form path
        general = np.array([[0.6, 1e-300], [0.0, 0.8]])
        sums = metrics._branch_sums([general], ens)
        assert "features" in vars(ens)
        assert calls == []
        np.testing.assert_allclose(
            np.ravel(sums), dense_branch_sums(ens, general), rtol=POP_RTOL, atol=0
        )


def random_general_kraus(rng, dim, n_out):
    """Random complete non-diagonal set; the last outcome is 0.8 times a unitary."""
    G = rng.standard_normal((n_out - 1, dim, dim)) + 1j * rng.standard_normal((n_out - 1, dim, dim))
    S = np.einsum("kji,kjl->il", G.conj(), G)
    w, V = np.linalg.eigh(S)
    ops = [0.6 * g @ (V / np.sqrt(w)) @ V.conj().T for g in G]
    ops.append(0.8 * haar_unitary(rng, dim))
    return KrausSet(tuple(ops), tuple(range(n_out)))


def general_statistics(kraus, ens, dense_calls=None):
    """Every ensemble statistic of a general set and its two second stages."""
    n = len(kraus)
    s1 = stage_statistics(kraus, ens)
    out = {"p": s1.probability, "F": s1.fidelity, "I": s1.info_gain}
    expect_dense_calls(dense_calls, n)
    for key in ("p2", "F2", "I2", "Fopt_fn", "F_closed", "I_closed", "p_success"):
        out[key] = []
    for m in kraus.labels:
        for spec in (build_conjugate_minimal(kraus, m), build_reversing(kraus, m)):
            ts = two_stage_statistics(kraus, m, spec.kraus, ens)
            out["p2"] += list(ts.probability)
            out["F2"] += list(ts.fidelity)
            out["I2"] += list(ts.info_gain)
            expect_dense_calls(dense_calls, len(spec.kraus), means=1)
            out["p_success"].append(conditional_success_probability(kraus, m, ens, spec))
            expect_dense_calls(dense_calls, 0, means=2)
        f_closed, i_closed = conjugate_preferred_closed_form(kraus, m, ens)
        out["F_closed"].append(f_closed)
        out["I_closed"].append(i_closed)
        out["Fopt_fn"].append(optimal_fidelity(kraus, ens, m))
        expect_dense_calls(dense_calls, 2)
    return {k: np.asarray(v) for k, v in out.items()}


PROPERTY_ENSEMBLES = {d: sample_haar(d, 200, 50 + d) for d in (2, 3, 4)}


class TestFormKernel:
    """The quadratic-form path against the dense path on non-diagonal sets."""

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_random_general_sets(self, monkeypatch, dim):
        rng = np.random.default_rng(2000 + dim)
        kraus = random_general_kraus(rng, dim, 4)
        assert not any(linalg.is_diagonal(M) for M in kraus.operators)
        # the conjugate complement sqrt(I - |kappa|² N²) U† is singular, and
        # the unitary outcome has no complement at all
        conj = build_conjugate_minimal(kraus, 0.0)
        sv = np.linalg.svd(conj.kraus.operators[1], compute_uv=False)
        assert sv[-1] < 1e-6 * sv[0]
        assert len(build_reversing(kraus, 3.0).kraus) == 1
        ens = sample_haar(dim, 1500, 31 + dim)
        fast = general_statistics(kraus, ens)
        calls = use_dense_reference(monkeypatch)
        assert_close_to_dense(fast, general_statistics(kraus, ens, calls))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_null_states_give_zero_weight(self, dim):
        # every state lies in the kernel of A = I - v v†, where the form's
        # roundoff scatters around zero; w = ||A psi||² must not go negative
        rng = np.random.default_rng(70 + dim)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 200))
        ens = PureStateEnsemble(phases[:, None] * v[None, :], seed=0)
        p, _, w_log_w, _, root = metrics._branch_sums([np.eye(dim) - np.outer(v, v.conj())], ens)
        # a negative w would read NaN in both sums (log2 and sqrt of w < 0)
        assert abs(p[0]) < 1e-15
        assert -1e-11 < w_log_w[0] <= 0.0
        assert 0.0 <= root[0] < ens.n * 1e-15

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(2, 4),
        entries=st.lists(st.floats(-2.0, 2.0), min_size=32, max_size=32),
    )
    def test_property_against_dense(self, dim, entries):
        e = np.asarray(entries)
        op = (e[: dim * dim] + 1j * e[16 : 16 + dim * dim]).reshape(dim, dim)
        ens = PROPERTY_ENSEMBLES[dim]
        # the kernel's per-state rows [w; Re amp; Im amp] on the features
        w, re, im = metrics._branch_rows([op], diagonal=False)[0] @ ens.features.T
        amp2 = re**2 + im**2
        w_ref, amp_ref = branch_weights_and_amplitudes(ens.states, op)
        scale = max(1.0, float(np.sum(np.abs(op) ** 2)))
        # Cauchy-Schwarz: |<psi|A|psi>|² <= ||A psi||²
        assert np.all(amp2 <= w + 1e-14 * scale)
        np.testing.assert_allclose(w, w_ref, rtol=0, atol=1e-14 * scale)
        np.testing.assert_allclose(np.sqrt(amp2), np.abs(amp_ref), rtol=0, atol=1e-14 * scale)
        # and the kernel's sums: p, and Σ sqrt(v |amp_v|²) <= N·mean(v) of the
        # operator V on the branch's ray (V = A off the diagonal path); a zero
        # diagonal A is on the zero ray, with root 0
        p, _, _, p_ray, root = metrics._branch_sums([op], ens)
        assert abs(p[0] - w_ref.mean()) <= 1e-14 * scale
        assert 0.0 <= root[0] <= ens.n * p_ray[0] * (1 + 1e-14) + 1e-14 * scale


def spin_branches(j):
    """The s=1/2 probe's first-stage operators, then its unordered conjugate pairs."""
    ops = build_forward(SpinProbeConfig(s=0.5, j=j, g=0.25, theta=math.pi / 6)).operators
    n = len(ops)
    return list(ops) + [linalg.dagger(ops[k]) @ ops[i] for i in range(n) for k in range(i, n)]


class TestBranchBatching:
    """A branch's (p, I, F) are the same bits alone, inside a call of any size
    and for any block size.

    N = 100 is below one leaf, 1000 is three leaves and a partial one, and
    33037 is two blocks of states.
    """

    @staticmethod
    def assert_batch_equals_alone(ops, ens):
        batch = metrics.branch_statistics(ops, ens)
        alone = np.array([metrics.branch_statistics([op], ens) for op in ops])[:, :, 0].T
        for got, want in zip(batch, alone):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [100, 1000, 33_037])
    def test_headline_branches(self, n):
        ops = spin_branches(7)
        assert len(ops) == 135
        self.assert_batch_equals_alone(ops, sample_haar(2, n, 21))

    def test_block_size(self, monkeypatch):
        # the leaf sums do not depend on how the states are cut into blocks
        ops = spin_branches(7)
        ens = sample_haar(2, 33_037, 21)
        default = metrics.branch_statistics(ops, ens)
        monkeypatch.setattr(metrics, "_BLOCK", 2**12)
        for got, want in zip(metrics.branch_statistics(ops, ens), default):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [100, 1000])
    def test_wide_grid_branches(self, n):
        ops = spin_branches(40)
        assert len(ops) == 3402
        self.assert_batch_equals_alone(ops, sample_haar(2, n, 22))

    @pytest.mark.parametrize("n", [100, 1000, 33_037])
    def test_non_diagonal_branches(self, n):
        kraus = random_general_kraus(np.random.default_rng(23), 4, 6)
        ops = [C @ M for C in kraus.operators for M in kraus.operators]
        assert not any(linalg.is_diagonal(op) for op in ops)
        self.assert_batch_equals_alone(list(kraus.operators) + ops, sample_haar(4, n, 24))


def pair_groups(cfg, ens):
    """Per m + mu of the conjugate pair grid: (m, mu, û, ray keys) of its unordered pairs.

    û is each pair's snapped direction and the ray key (û, e) adds its
    snapped phase factors, as the kernel forms them.
    """
    forward = build_forward(cfg)
    m, mu = np.triu_indices(len(forward))
    pairs = np.array(
        [linalg.dagger(forward.operators[k]) @ forward.operators[i] for i, k in zip(m, mu)]
    )
    w = metrics._branch_rows(pairs, diagonal=True)[:, 0]
    p = np.sum(w * ens.population_means, axis=-1)
    u, e = metrics._ray_keys(np.diagonal(pairs, axis1=1, axis2=2), w, p)
    ray = np.hstack([u, *e])
    labels = np.asarray(forward.labels)
    km = labels[m] + labels[mu]
    return {v: (m[km == v], mu[km == v], u[km == v], ray[km == v]) for v in np.unique(km)}


def assert_ties_per_key(values, keys, spread):
    """Equal values on each key, and values within ``spread`` of each other across all."""
    _, point = np.unique(keys, axis=0, return_inverse=True)
    for k in range(point.max() + 1):
        assert len(np.unique(values[point == k])) == 1
    assert np.ptp(values) <= spread


class TestDirectionSharing:
    """Diagonal branches whose weights point one way share their information.

    I does not change when a branch weight is scaled, and the spin probe's
    pair weight |a_m|²|a_mu|² points in a direction set by m + mu alone: 29
    directions for the 120 pairs at j = 7.  The kernel rounds each branch's
    direction (its w row over p) to the grid ``TOL.direction_grid`` and
    gives every branch on one grid point the same I.  A direction within a
    few ulps of a grid midpoint can split its m + mu group over two grid
    points, so ties are asserted per grid point, and across a group to 1e-14.
    """

    @pytest.mark.parametrize("s", [0.5, 1.5])
    def test_ties_on_each_direction(self, s, ens2_big, paper_run):
        cfg = SpinProbeConfig(s=s, j=7, g=0.25, theta=math.pi / 6)
        if s == 0.5:
            ens, (_, grid) = ens2_big, paper_run
        else:
            ens = sample_haar(cfg.dim, N_BIG, SEED)
            _, grid = compute_spin_run(cfg, ens)
        groups = pair_groups(cfg, ens)
        assert len(groups) == 29
        for km, (m, mu, u, _) in groups.items():
            assert_ties_per_key(grid.info_gain[m, mu], u, 1e-14)

    def test_no_information_where_the_weight_is_flat(self, paper_run):
        # at s = 1/2 an m + mu = 0 pair weighs both sigma alike: I = 0 exactly
        _, grid = paper_run
        labels = np.asarray(grid.labels)
        flat = labels[:, None] + labels[None, :] == 0
        assert np.all(grid.info_gain[flat] <= 1e-15)


def count_passes(monkeypatch):
    """The (root passes, log passes) of each kernel call from now on."""
    calls = []
    real = metrics._pass_sums
    monkeypatch.setattr(
        metrics, "_pass_sums",
        lambda rows, n_log, *args, **kwargs: calls.append((len(rows), n_log))
        or real(rows, n_log, *args, **kwargs),
    )
    return calls


class TestRaySharing:
    """Diagonal branches that are complex multiples of one another share their fidelity.

    F does not change when a branch operator is scaled by a complex factor.
    At s = 1/2 the pair diagonal conj(a_mu) a_m is a complex multiple of one
    vector for each m + mu, since the relative phase of its two entries,
    (m - mu)(beta - alpha), vanishes there: the 120 pairs lie on 29 rays.
    The kernel keys each diagonal branch by its ray, its snapped direction
    and snapped relative phase factors, and takes one root pass per ray.
    As for directions, a key within a few ulps of a grid midpoint can split
    a group, so ties are asserted per ray, and across a group to 1e-14
    relative.
    """

    def test_ties_on_each_ray(self, ens2_big, paper_run):
        _, grid = paper_run
        groups = pair_groups(PAPER_CFG, ens2_big)
        assert len(groups) == 29
        for km, (m, mu, _, ray) in groups.items():
            fid = grid.fidelity[m, mu]
            assert_ties_per_key(fid, ray, 1e-14 * fid.max())

    def test_headline_passes(self, monkeypatch):
        # 15 first-stage rays and 29 pair rays; the first-stage directions
        # are among the 29 pair directions.  On this sample no key splits
        # (on the N = 10^5 fixture the m + mu = 5 direction does: 45 and 30)
        calls = count_passes(monkeypatch)
        compute_spin_run(PAPER_CFG, sample_haar(2, 20_000, SEED))
        assert calls == [(15 + 29, 29)]

    def test_nothing_shared_at_higher_spin(self, monkeypatch):
        # at s = 3/2 every pair has its own ray, and its own direction but
        # for m + mu: 15 first-stage and 29 pair directions
        cfg = SpinProbeConfig(s=1.5, j=7, g=0.25, theta=math.pi / 6)
        calls = count_passes(monkeypatch)
        compute_spin_run(cfg, sample_haar(cfg.dim, 2000, 26))
        assert calls == [(15 + 120, 15 + 29)]

    def test_no_merge_on_equal_weights(self, monkeypatch):
        # one direction, three rays: diag(1, -1), 0.5i·diag(1, -1) and
        # -diag(1, -1), whose relative phases read pi and -pi, share one
        ops = [np.diag(a) for a in ([1, 1], [1, -1], [1, 1j], [0.5j, -0.5j], [-1, 1])]
        ens = sample_haar(2, 1500, 27)
        calls = count_passes(monkeypatch)
        _, _, fid = metrics.branch_statistics(ops, ens)
        assert calls == [(3, 1)]
        assert len(np.unique(fid[:3])) == 3
        assert fid[3] == fid[4] == fid[1]
        dense = [root / ens.n / p for p, *_, root in (dense_branch_sums(ens, op) for op in ops)]
        np.testing.assert_allclose(fid, dense, rtol=POP_RTOL, atol=0)


@pytest.mark.parametrize("j", [7, 40])
def test_working_memory_does_not_grow_with_branches(j):
    # one kernel call on 135 or 3402 branches: the block buffers hold at most
    # 4·2^15 doubles (1 MiB) and the leaf sums 2·N/256 per branch of a
    # block; one block over all 3402 branches and 256 states would take 21 MB
    ops = spin_branches(j)
    ens = sample_haar(2, 20_000, 25)
    ens.population_means  # the cached populations are the ensemble's, not the call's
    tracemalloc.start()
    try:
        metrics.branch_statistics(ops, ens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_weight_only_means_pass_over_no_state(monkeypatch):
    # on a non-diagonal set a success probability makes no pass over the N
    # states, and a two-stage run one kernel pass over its branches: p(m)
    # reads the mean features
    calls = []
    real = metrics._branch_sums
    monkeypatch.setattr(metrics, "_branch_sums", lambda ops, ens: calls.append(len(ops)) or real(ops, ens))
    kraus = random_general_kraus(np.random.default_rng(4), 4, 4)
    ens = sample_haar(4, 500, 12)
    for m in kraus.labels:
        for spec in (build_conjugate_minimal(kraus, m), build_reversing(kraus, m)):
            conditional_success_probability(kraus, m, ens, spec)
            assert calls == []
            two_stage_statistics(kraus, m, spec.kraus, ens)
            assert calls == [len(spec.kraus)]
            calls.clear()


class TestEvaluatorDimensionCheck:
    """A d=2 operator on a d=3 ensemble is rejected by the evaluators themselves."""

    KRAUS = build_forward(SpinProbeConfig(s=0.5, j=2, g=0.3, theta=0.9))
    ENS = sample_haar(3, 1000, 1)

    def test_optimal_fidelity(self):
        with pytest.raises(DimensionMismatchError):
            optimal_fidelity(self.KRAUS, self.ENS, 0.0)

    def test_conjugate_preferred_closed_form(self):
        with pytest.raises(DimensionMismatchError):
            conjugate_preferred_closed_form(self.KRAUS, 0.0, self.ENS)

    def test_conditional_success_probability(self):
        spec = build_conjugate_minimal(self.KRAUS, 0.0)
        with pytest.raises(DimensionMismatchError):
            conditional_success_probability(self.KRAUS, 0.0, self.ENS, spec)

    def test_expectation_values(self):
        with pytest.raises(DimensionMismatchError):
            expectation_values(self.ENS, spin_z(0.5))


# The non-diagonal set of the benchmark's general_kraus workload, G_k S^{-1/2}
# with S = sum G_k† G_k, evaluated in a fresh interpreter; prints the repr of
# every field of a first stage and of a two-stage run, then per outcome the
# success probabilities and conditionals of both second stages.  At N = 2·10⁴
# each branch is one block of the kernel; at N = 40037 it is two blocks of
# states, the second one ending in a partial leaf.
NON_DIAGONAL_SCRIPT = """
import numpy as np
from conjmeas.ensemble import sample_haar
from conjmeas.measurement import KrausSet
from conjmeas.metrics import stage_statistics, two_stage_statistics
from conjmeas.reversal import build_conjugate_minimal, build_reversing, conditional_success_probability
rng = np.random.default_rng(1234)
G = (rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))) / np.sqrt(2)
w, V = np.linalg.eigh(np.einsum("kji,kjl->il", G.conj(), G))
kraus = KrausSet(tuple(g @ (V / np.sqrt(w)) @ V.conj().T for g in G), tuple(range(6)))
for n in (20000, 40037):
    ens = sample_haar(4, n, 99)
    for st in (stage_statistics(kraus, ens), two_stage_statistics(kraus, 2.0, kraus, ens)):
        fields = (st.probability, st.info_gain, st.fidelity, st.defined, st.conditional)
        print(repr([None if f is None else f.tolist() for f in fields]))
    for m in kraus.labels:
        specs = (build_conjugate_minimal(kraus, m), build_reversing(kraus, m))
        print(repr(
            [conditional_success_probability(kraus, m, ens, spec) for spec in specs]
            + [two_stage_statistics(kraus, m, spec.kraus, ens).conditional.tolist() for spec in specs]
        ))
"""


# The s = 15/2 (d = 16) spin run at the headline j, g and theta: first stage
# and pair grid: per block of the populations, each ray a (3×16)·(16×W)
# product (at s = 15/2 each of the 135 branches is its own ray) and each of
# the 44 directions a (1×16)·(16×W) one for its f row.
DIAGONAL_SCRIPT = """
import math
from conjmeas.ensemble import sample_haar
from conjmeas.runner import compute_spin_run
from conjmeas.spin_probe import SpinProbeConfig
cfg = SpinProbeConfig(s=7.5, j=7, g=0.25, theta=math.pi / 6)
for n in (20000, 40037):
    for st in compute_spin_run(cfg, sample_haar(16, n, 99)):
        fields = (st.probability, st.info_gain, st.fidelity, st.conditional)
        print(repr([None if f is None else f.tolist() for f in fields]))
"""


def outputs_at_thread_counts(script):
    """Standard output of ``script`` in a fresh interpreter at 1, 2 and 4 BLAS threads."""
    outs = []
    for threads in ("1", "2", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC_DIR, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env=env,
        )
        outs.append(proc.stdout)
    return outs


def test_non_diagonal_path_independent_of_thread_count():
    outs = outputs_at_thread_counts(NON_DIAGONAL_SCRIPT)
    assert outs[0].count("\n") == 2 * (2 + 6)
    assert outs[0] == outs[1] == outs[2]


def test_diagonal_path_independent_of_thread_count():
    outs = outputs_at_thread_counts(DIAGONAL_SCRIPT)
    assert outs[0].count("\n") == 2 * 2
    assert outs[0] == outs[1] == outs[2]


class TestStageStatisticsGet:
    @pytest.fixture(scope="class")
    def stats(self, ens2_small):
        cfg = SpinProbeConfig(s=0.5, j=2, g=0.3, theta=0.9)
        return stage_statistics(build_forward(cfg), ens2_small)

    def test_exact_and_rounded_labels(self, stats):
        i = stats.labels.index(2.0)
        expected = (stats.probability[i], stats.info_gain[i], stats.fidelity[i])
        assert stats.get(2) == expected
        assert stats.get(2 + 1e-12) == expected
        assert stats.get(np.float32(2.0)) == expected

    def test_unknown_label(self, stats):
        with pytest.raises(UnknownLabelError):
            stats.get(5)
        with pytest.raises(UnknownLabelError):
            stats.get(0.3)

    @pytest.mark.parametrize("label", [math.inf, -math.inf, math.nan, 1e308])
    def test_non_finite_label(self, stats, label):
        # 2 * 1e308 overflows to inf
        with pytest.raises(UnknownLabelError):
            stats.get(label)
