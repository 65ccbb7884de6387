"""End-to-end acceptance checks at the reference configuration.

Each test pins one externally stated guarantee at its stated tolerance.
The reference configuration throughout is s=1/2, j=7, g=1/4, theta=pi/6
with 10^5 Haar-uniform sample states.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import conjmeas
from conjmeas import linalg
from conjmeas.ensemble import sample_haar
from conjmeas.measurement import completeness_residual
from conjmeas.metrics import (
    branch_weights_and_amplitudes,
    likelihood_info_gain,
    stage_statistics,
    two_stage_statistics,
)
from conjmeas.reversal import build_conjugate_minimal
from conjmeas.runner import compute_spin_run, disturbance_outcomes, run_variances
from conjmeas.spin_probe import (
    SpinProbeConfig,
    build_forward,
    build_reversing_probe,
    conjugate_probe_set,
)

LN2 = math.log(2.0)

# the directory this process imports conjmeas from
SRC_DIR = os.path.dirname(os.path.dirname(conjmeas.__file__))


class TestCriterion1HeadlineScalars:
    def test_values_and_runtime(self, paper_cfg):
        start = time.perf_counter()
        ens = sample_haar(paper_cfg.dim, 100_000, 202408)
        first, _ = compute_spin_run(paper_cfg, ens)
        elapsed = time.perf_counter() - start
        assert 0.525 <= first.mean_fidelity <= 0.545
        assert 0.040 <= first.mean_info <= 0.050
        assert elapsed < 60.0


def conjugate_means(run):
    """The summary's F' and I': Σ_m p(m) F'(m) and Σ_m p(m) I'(m)."""
    first, grid = run
    return first.probability @ grid.mean_fidelity, first.probability @ grid.mean_info


class TestCriterion2PostConjugateScalars:
    def test_values(self, paper_run):
        f_prime, i_prime = conjugate_means(paper_run)
        assert 0.956 <= f_prime <= 0.976
        assert 0.073 <= i_prime <= 0.089

    def test_strict_improvement(self, paper_run):
        first, _ = paper_run
        f_prime, i_prime = conjugate_means(paper_run)
        assert f_prime > first.mean_fidelity
        assert i_prime > first.mean_info


class TestCriterion3PerfectReversal:
    def test_preferred_branch(self, paper_cfg, ens2_small):
        kraus = build_forward(paper_cfg)
        family = build_reversing_probe(paper_cfg)
        for m in kraus.labels:
            spec = family[m]
            ts = two_stage_statistics(kraus, m, spec.kraus, ens2_small)
            _, info, fid = ts.get(spec.preferred_label)
            assert fid == pytest.approx(1.0, abs=1e-8)
            assert info == pytest.approx(0.0, abs=1e-8)

    def test_constant_weights(self, paper_cfg, ens2_small):
        kraus = build_forward(paper_cfg)
        family = build_reversing_probe(paper_cfg)
        for m in kraus.labels:
            composed = family[m].preferred_operator @ kraus.operator(m)
            w, _ = branch_weights_and_amplitudes(ens2_small.states, composed)
            assert np.max(np.abs(w / w[0] - 1.0)) < 1e-10


class TestCriterion4FactorOfFour:
    def test_ratio_at_weak_coupling(self, weak_run):
        first, grid = weak_run
        labels = list(first.labels)
        for m in (1.0, 2.0, 3.0, -1.0, -2.0, -3.0):
            i = labels.index(m)
            ratio = grid.info_gain[i, i] / first.info_gain[i]
            assert 3.8 <= ratio <= 4.2

    def test_degenerate_center_outcome(self, weak_run):
        # at m = 0 the first stage is proportional to a unitary, so both
        # informations vanish identically and the ratio is vacuous (0/0)
        first, grid = weak_run
        i = list(first.labels).index(0.0)
        assert first.info_gain[i] < 1e-12
        assert grid.info_gain[i, i] < 1e-12


class TestCriterion5Moments:
    def test_within_four_standard_errors(self):
        table = run_variances([0.5, 1.0, 1.5], samples=100_000, seed=202408)
        for row in table.rows:
            _, name, est, target, se, z = row
            assert abs(z) < 4.0, f"{name}: z={z:.2f}"


class TestCriterion6StructuralIdentities:
    CONFIGS = (
        SpinProbeConfig(0.5, 7, 0.25, math.pi / 6),
        SpinProbeConfig(1.0, 3, 0.4, 1.1),
        SpinProbeConfig(1.5, 2, 0.1, 2.5),
    )

    def test_completeness(self):
        for cfg in self.CONFIGS:
            assert completeness_residual(build_forward(cfg)) < 1e-9
            assert completeness_residual(conjugate_probe_set(cfg)) < 1e-9

    def test_adjoint_identity(self):
        for cfg in self.CONFIGS:
            forward = build_forward(cfg)
            flipped = conjugate_probe_set(cfg)
            for m in cfg.outcome_labels:
                sign = (-1.0) ** int(round(cfg.j + m))
                np.testing.assert_allclose(
                    flipped.operator(m),
                    sign * forward.operator(m).conj().T,
                    atol=1e-10,
                )

    def test_conjugate_composition(self):
        for cfg in self.CONFIGS:
            kraus = build_forward(cfg)
            for m in cfg.outcome_labels:
                spec = build_conjugate_minimal(kraus, m)
                M = kraus.operator(m)
                _, N = linalg.polar_decompose(M)
                np.testing.assert_allclose(
                    spec.preferred_operator @ M, spec.scale * N @ N, atol=1e-10
                )

    def test_polar_reconstruction_bulk(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            d = int(rng.integers(2, 7))
            M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            U, N = linalg.polar_decompose(M)
            assert linalg.max_abs(U @ N - M) < 1e-9


class TestCriterion7RegimeCondition:
    def test_window(self, paper_cfg, ens2_big, paper_run):
        window = disturbance_outcomes(build_forward(paper_cfg), paper_run[0], ens2_big)
        assert window == tuple(float(m) for m in range(-5, 6))


class TestCriterion8OracleEquivalence:
    def test_info_kernel_vs_entropy(self):
        ens = sample_haar(2, 8, 5150)
        cfg = SpinProbeConfig(0.5, 2, 0.3, 0.9)
        kraus = build_forward(cfg)
        stats = stage_statistics(kraus, ens)
        for i, m in enumerate(kraus.labels):
            M = kraus.operator(m)
            w = np.array(
                [
                    float(np.real(psi.conj() @ M.conj().T @ M @ psi))
                    for psi in ens.states
                ]
            )
            post = w / w.sum()
            h = -sum(p * math.log2(p) for p in post if p > 0)
            assert abs(stats.info_gain[i] - (math.log2(len(w)) - h)) < 1e-10
            assert abs(likelihood_info_gain(w) - (math.log2(len(w)) - h)) < 1e-10

    def test_two_stage_vs_direct_enumeration(self):
        ens = sample_haar(2, 6, 6010)
        cfg = SpinProbeConfig(0.5, 2, 0.3, 0.9)
        kraus = build_forward(cfg)
        second = conjugate_probe_set(cfg)
        for m in kraus.labels:
            ts = two_stage_statistics(kraus, m, second, ens)
            M = kraus.operator(m)
            for k, mu in enumerate(second.labels):
                A = second.operator(mu) @ M
                w = np.empty(ens.n)
                f_each = np.empty(ens.n)
                for a, psi in enumerate(ens.states):
                    phi = A @ psi
                    w[a] = float(np.real(phi.conj() @ phi))
                    # overlap-amplitude fidelity between |psi> and A|psi>
                    f_each[a] = abs(psi.conj() @ phi) / math.sqrt(w[a])
                post = w / w.sum()
                h = -sum(p * math.log2(p) for p in post if p > 0)
                assert abs(ts.probability[k] - w.mean()) < 1e-10
                assert abs(ts.info_gain[k] - (math.log2(len(w)) - h)) < 1e-10
                assert abs(ts.fidelity[k] - float(post @ f_each)) < 1e-10


def exact_spin_half_info(b, c) -> float:
    """I in bits of the branch weight w = b + c·x, with x = |psi_+|² ~ U[0, 1].

    At s = 1/2 a Haar state's population x is uniform on [0, 1], so
    p = b + c/2 and ∫ w ln w dx = [w² (2 ln w - 1) / 4c] from w = b to b + c.
    Divided by b this depends on r = c/b alone: I ln 2 = h(r) / (1 + r/2) with
    h(r) = [(1+r)² (2 ln(1+r) - 1) + 1] / 4r - (1 + r/2) ln(1 + r/2).  h cancels
    for small r, so below |r| = 1e-2 its series Σ_k≥2 (-r)^k (1/(k+1) - 2^-k) / (k(k-1))
    is summed instead; the terms past k = 11 are below 1e-22 of the first.
    """
    r = c / b
    if abs(r) < 1e-2:
        h = sum((-r) ** k * (1.0 / (k + 1) - 0.5**k) / (k * (k - 1)) for k in range(2, 12))
    else:
        h = ((1.0 + r) ** 2 * (2.0 * math.log1p(r) - 1.0) + 1.0) / (4.0 * r)
        h -= (1.0 + r / 2.0) * math.log1p(r / 2.0)
    return h / ((1.0 + r / 2.0) * LN2)


class TestExactInformationAtSpinHalf:
    """Sampled I(m) and I(m, mu) against the exact s = 1/2 values."""

    CHUNKS = 20

    @pytest.mark.parametrize("r", [1e-2, -1e-2])
    def test_closed_form_meets_series(self, r):
        # the two branches of the oracle agree where it switches between them
        closed = exact_spin_half_info(1.0, r)
        series = exact_spin_half_info(1.0, r * (1.0 - 1e-12))
        assert closed == pytest.approx(series, rel=1e-10)

    @pytest.mark.parametrize("c, bits", [(0.0, 0.0), (-1.0 + 2.0**-40, 1.0 - 0.5 / LN2)])
    def test_limits(self, c, bits):
        # a constant w carries no information; w -> 1 - x carries 1 - 1/(2 ln 2) bits
        assert exact_spin_half_info(1.0, c) == pytest.approx(bits, abs=1e-10)

    def test_within_five_batch_standard_errors(self, paper_cfg, paper_run, ens2_big):
        first, grid = paper_run
        # |a_{m sigma}|² per outcome; a grid pair's weights are products of two rows
        a2 = np.abs([np.diagonal(M) for M in build_forward(paper_cfg).operators]) ** 2
        n = len(a2)
        weights = np.concatenate([a2, (a2[:, None, :] * a2[None, :, :]).reshape(n * n, 2)]).T
        sampled = np.concatenate([first.info_gain, grid.info_gain.ravel()])
        defined = np.concatenate([first.defined, grid.defined.ravel()])
        assert defined.sum() == n + n * n
        # batch means: the same plug-in estimator on contiguous chunks of the sample
        chunks = []
        for pops in np.split(ens2_big.populations, self.CHUNKS):
            w = pops @ weights
            p = w.mean(axis=0)
            chunks.append(((w * np.log2(w)).mean(axis=0) - p * np.log2(p)) / p)
        std_err = np.std(chunks, axis=0, ddof=1) / math.sqrt(self.CHUNKS)
        # column sigma = -1/2 is weighted by 1 - x, sigma = +1/2 by x
        exact = np.array([exact_spin_half_info(lo, hi - lo) for lo, hi in weights.T])
        gap = np.abs(sampled - exact)
        assert np.all(gap <= 5.0 * std_err + 1e-12)


def _perturbative_deviations(run, cfg, km_max):
    """Worst relative deviation of exact grid values from the O(g²) forms."""
    s, g, theta = float(cfg.s), cfg.g, cfg.theta
    _, grid = run
    labels = list(grid.labels)
    worst_i = worst_f = 0.0
    for i, m in enumerate(labels):
        for k, mu in enumerate(labels):
            km = mu + m
            if abs(km) > km_max:
                continue
            if km == 0:
                # formulas predict exactly zero effect; check absolutely
                assert grid.info_gain[i, k] < 1e-12
                assert 1.0 - grid.fidelity[i, k] < 1e-12
                continue
            base = g * g * s * km * km * math.sin(theta) ** 2
            pred_info = (4.0 / 3.0) * base / LN2
            pred_deficit = (1.0 / 3.0) * (2.0 * s + 1.0) * base
            worst_i = max(worst_i, abs(grid.info_gain[i, k] / pred_info - 1.0))
            worst_f = max(
                worst_f,
                abs((1.0 - grid.fidelity[i, k]) / pred_deficit - 1.0),
            )
    return worst_i, worst_f


class TestCriterion9PerturbativeAgreement:
    def test_weak_coupling_one_percent(self, weak_run, weak_cfg):
        worst_i, worst_f = _perturbative_deviations(weak_run, weak_cfg, km_max=4)
        assert worst_i < 0.01
        assert worst_f < 0.01

    def test_reference_coupling_fifteen_percent(self, paper_run, paper_cfg):
        # known shortfall: at g=1/4 the expansion parameter 2g(mu+m)sin(theta)
        # is order one for |mu+m| in {3, 4} and the O(g²) forms deviate by
        # ~25-40%, so this documented bound is not attainable there
        worst_i, worst_f = _perturbative_deviations(paper_run, paper_cfg, km_max=4)
        assert worst_i < 0.15
        assert worst_f < 0.15

    def test_reference_coupling_inner_band(self, paper_run, paper_cfg):
        # the same bound does hold on the |mu+m| <= 2 sub-band
        worst_i, worst_f = _perturbative_deviations(paper_run, paper_cfg, km_max=2)
        assert worst_i < 0.15
        assert worst_f < 0.15


class TestCriterion10Determinism:
    def test_byte_identical_across_thread_counts(self, tmp_path):
        outs = []
        for threads, name in (("1", "a"), ("4", "b")):
            out = tmp_path / name
            env = dict(os.environ)
            env["OMP_NUM_THREADS"] = threads
            env["OPENBLAS_NUM_THREADS"] = threads
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC_DIR, env.get("PYTHONPATH"))))
            subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "conjmeas.cli",
                    "figures",
                    "--j",
                    "3",
                    "--samples",
                    "2000",
                    "--seed",
                    "77",
                    "--out",
                    str(out),
                ],
                check=True,
                env=env,
            )
            outs.append(out)
        for name in ("fig1", "fig2", "fig3", "fig4"):
            a = (outs[0] / f"{name}.csv").read_bytes()
            b = (outs[1] / f"{name}.csv").read_bytes()
            assert a == b
