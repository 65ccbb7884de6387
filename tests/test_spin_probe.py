import math

import numpy as np
import pytest
from scipy.stats import binom

from conjmeas.errors import LabelOutOfRangeError
from conjmeas.measurement import completeness_residual
from conjmeas.spin_probe import (
    SpinProbeConfig,
    binomial_amplitude,
    build_forward,
    build_reversing_probe,
    coefficient,
    conjugate_probe_set,
    regime_diagnostics,
    weak_quantities,
)

REF = SpinProbeConfig(s=0.5, j=7, g=0.25, theta=math.pi / 6)


class TestConfig:
    def test_properties(self):
        assert REF.dim == 2
        assert REF.outcome_labels == tuple(float(m) for m in range(-7, 8))
        assert REF.sigma_values == (-0.5, 0.5)

    def test_half_integer_labels(self):
        cfg = SpinProbeConfig(s=1.5, j=2.5, g=0.1, theta=1.0)
        assert cfg.dim == 4
        assert cfg.outcome_labels == (-2.5, -1.5, -0.5, 0.5, 1.5, 2.5)
        assert cfg.sigma_values == (-1.5, -0.5, 0.5, 1.5)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            SpinProbeConfig(s=0.3, j=1, g=0.1, theta=1.0)
        with pytest.raises(ValueError):
            SpinProbeConfig(s=0.5, j=1, g=0.1, theta=4.0)
        with pytest.raises(ValueError):
            SpinProbeConfig(s=0.5, j=-1, g=0.1, theta=1.0)


class TestBinomialAmplitude:
    def test_known_values(self):
        assert binomial_amplitude(1, 0) == pytest.approx(math.sqrt(2) / 2, abs=1e-14)
        assert binomial_amplitude(7, 7) == pytest.approx(2.0**-7, rel=1e-12)
        assert binomial_amplitude(7, 0) == pytest.approx(
            math.sqrt(3432) / 2**7, abs=1e-14
        )

    def test_squares_sum_to_one(self):
        for j in (0.5, 1, 3.5, 7, 20):
            cfg = SpinProbeConfig(s=0.5, j=j, g=0.0, theta=0.0)
            total = sum(binomial_amplitude(j, m) ** 2 for m in cfg.outcome_labels)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_label(self):
        with pytest.raises(LabelOutOfRangeError):
            binomial_amplitude(1, 1.5)
        with pytest.raises(LabelOutOfRangeError):
            binomial_amplitude(1, 0.5)


class TestCoefficient:
    def test_moduli_follow_binomial_law(self):
        # independent route: |a_{m sigma}|² is the binomial pmf with
        # per-sigma success probability |e^{-ig s}cos - i e^{ig s}sin|² / 2
        for cfg in (REF, SpinProbeConfig(s=1.5, j=3, g=0.4, theta=1.1)):
            half = cfg.theta / 2.0
            for sig in cfg.sigma_values:
                p = (
                    abs(
                        np.exp(-1j * cfg.g * sig) * math.cos(half)
                        - 1j * np.exp(1j * cfg.g * sig) * math.sin(half)
                    )
                    ** 2
                    / 2.0
                )
                for m in cfg.outcome_labels:
                    k = int(round(cfg.j + m))
                    expected = binom.pmf(k, int(round(2 * cfg.j)), p)
                    assert abs(coefficient(cfg, m, sig)) ** 2 == pytest.approx(
                        expected, abs=1e-12
                    )

    def test_zero_coupling_reduces_to_binomial_times_phase(self):
        cfg = SpinProbeConfig(s=0.5, j=3, g=0.0, theta=0.7)
        for m in cfg.outcome_labels:
            for sig in cfg.sigma_values:
                expected = binomial_amplitude(cfg.j, m) * np.exp(
                    -1j * (cfg.j * math.pi / 2.0 + m * cfg.theta)
                )
                assert coefficient(cfg, m, sig) == pytest.approx(expected, abs=1e-12)

    def test_rejects_bad_sigma(self):
        with pytest.raises(LabelOutOfRangeError):
            coefficient(REF, 0.0, 1.5)


class TestForwardSet:
    def test_completeness_various_configs(self):
        configs = [
            REF,
            SpinProbeConfig(s=1.0, j=2, g=0.3, theta=1.3),
            SpinProbeConfig(s=2.5, j=4.5, g=0.7, theta=2.0),
            SpinProbeConfig(s=0.5, j=15, g=0.05, theta=math.pi / 2),
        ]
        for cfg in configs:
            assert completeness_residual(build_forward(cfg)) < 1e-9

    def test_operators_are_diagonal(self):
        kraus = build_forward(REF)
        for op in kraus.operators:
            np.testing.assert_allclose(op, np.diag(np.diag(op)), atol=0.0)

    def test_outcome_moments_at_zero_coupling(self):
        # bare binomial statistics: mean 0 and variance j/2 exactly
        cfg = SpinProbeConfig(s=0.5, j=7, g=0.0, theta=math.pi / 6)
        kraus = build_forward(cfg)
        p = np.array([abs(op[0, 0]) ** 2 for op in kraus.operators])
        m = np.array(kraus.labels)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert (m * p).sum() == pytest.approx(0.0, abs=1e-12)
        assert (m * m * p).sum() == pytest.approx(cfg.j / 2.0, abs=1e-10)


class TestAdjointIdentity:
    def test_tipped_complement_equals_adjoint(self):
        # T_m(pi - theta) = (-1)^{j+m} T_m(theta)† for every configuration
        for s, j in ((0.5, 1), (0.5, 7), (1.0, 3)):
            for g in (0.0, 0.1, 0.25):
                cfg = SpinProbeConfig(s=s, j=j, g=g, theta=math.pi / 6)
                forward = build_forward(cfg)
                flipped = conjugate_probe_set(cfg)
                for m in cfg.outcome_labels:
                    sign = (-1.0) ** int(round(j + m))
                    np.testing.assert_allclose(
                        flipped.operator(m),
                        sign * forward.operator(m).conj().T,
                        atol=1e-10,
                    )

    def test_self_adjoint_at_right_angle(self):
        # theta = pi/2 maps to itself, so each T_m is (anti-)Hermitian
        cfg = SpinProbeConfig(s=0.5, j=2, g=0.3, theta=math.pi / 2)
        kraus = build_forward(cfg)
        for m in cfg.outcome_labels:
            sign = (-1.0) ** int(round(cfg.j + m))
            op = kraus.operator(m)
            np.testing.assert_allclose(op, sign * op.conj().T, atol=1e-12)

class TestReversingProbe:
    def test_exact_proportionality_for_spin_half(self):
        cfg = SpinProbeConfig(s=0.5, j=3, g=0.4, theta=1.0)
        forward = build_forward(cfg)
        family = build_reversing_probe(cfg)
        for m, spec in family.items():
            assert spec.exact
            composed = spec.preferred_operator @ forward.operator(m)
            np.testing.assert_allclose(
                composed, spec.scale * np.eye(cfg.dim), atol=1e-9
            )

    def test_inexact_beyond_spin_half(self):
        def residual(g):
            cfg = SpinProbeConfig(s=1.0, j=2, g=g, theta=1.0)
            forward = build_forward(cfg)
            spec = build_reversing_probe(cfg)[1.0]
            assert not spec.exact
            composed = spec.preferred_operator @ forward.operator(1.0)
            dev = composed - spec.scale * np.eye(cfg.dim)
            return float(np.max(np.abs(dev)))

        r1, r2 = residual(0.02), residual(0.04)
        assert r1 > 1e-9  # genuinely not proportional
        assert r2 / r1 == pytest.approx(4.0, rel=0.2)  # O(g²) failure


class TestWeakQuantities:
    def test_reconstruction_is_exact(self):
        for m in REF.outcome_labels:
            wq = weak_quantities(REF, m)
            rebuilt = (
                wq.q
                * np.exp(1j * wq.gamma)
                * np.diag(np.exp(1j * wq.Gamma_diag))
                @ (np.eye(REF.dim) + wq.epsilon)
            )
            expected = np.diag(
                [coefficient(REF, m, sig) for sig in REF.sigma_values]
            )
            np.testing.assert_allclose(rebuilt, expected, atol=1e-12)

    def test_epsilon_slope(self):
        # leading order: epsilon ~ 2 g m sin(theta) S_z
        g = 1e-3
        cfg = SpinProbeConfig(s=0.5, j=7, g=g, theta=math.pi / 6)
        for m in (1.0, 3.0, -5.0):
            wq = weak_quantities(cfg, m)
            predicted = np.diag(
                [2.0 * g * m * math.sin(cfg.theta) * sig for sig in cfg.sigma_values]
            )
            np.testing.assert_allclose(wq.epsilon, predicted, atol=5e-5)

    def test_phase_slope(self):
        # leading order: Gamma ~ -2 g j cos(theta) S_z
        g = 1e-3
        cfg = SpinProbeConfig(s=0.5, j=7, g=g, theta=math.pi / 6)
        for m in (0.0, 2.0, -4.0):
            wq = weak_quantities(cfg, m)
            predicted = np.array(
                [-2.0 * g * cfg.j * math.cos(cfg.theta) * sig
                 for sig in cfg.sigma_values]
            )
            np.testing.assert_allclose(wq.Gamma_diag, predicted, atol=5e-5)

    def test_gamma_is_linear_in_m(self):
        base = -REF.j * math.pi / 2.0
        for m in REF.outcome_labels:
            assert weak_quantities(REF, m).gamma == pytest.approx(
                base - m * REF.theta, abs=1e-12
            )


class TestRegime:
    def test_reference_numbers(self):
        report = regime_diagnostics(REF)
        assert report.weakness == pytest.approx(0.0546875, abs=1e-10)
        assert report.phase == pytest.approx(3.5 * math.sqrt(3) / 2, abs=1e-10)
        assert report.weak_enough

    def test_disturbance_window(self, paper_run):
        # the window needs the sampled fidelities, so the run carries it
        assert paper_run.disturbance_outcomes == tuple(
            float(m) for m in range(-5, 6)
        )

    def test_strong_coupling_flagged(self):
        report = regime_diagnostics(SpinProbeConfig(s=0.5, j=7, g=1.0, theta=1.0))
        assert not report.weak_enough
