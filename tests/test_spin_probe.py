import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from conjmeas.ensemble import PureStateEnsemble, sample_haar
from conjmeas.errors import LabelOutOfRangeError
from conjmeas.measurement import completeness_residual
from conjmeas.metrics import stage_statistics
from conjmeas.runner import compute_spin_run, disturbance_outcomes
from conjmeas.spin_probe import (
    SpinProbeConfig,
    build_forward,
    build_reversing_probe,
    coefficient,
    conjugate_probe_set,
    regime_diagnostics,
)

REF = SpinProbeConfig(s=0.5, j=7, g=0.25, theta=math.pi / 6)

# s in 1/2..7/2, j in 1/2..10, g in [-1, 1], theta in [0, pi]
CONFIGS = st.builds(
    SpinProbeConfig,
    s=st.integers(1, 7).map(lambda k: k / 2),
    j=st.integers(1, 20).map(lambda k: k / 2),
    g=st.floats(-1.0, 1.0),
    theta=st.floats(0.0, math.pi),
)


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

    def test_near_half_integer_spins_are_snapped(self):
        # within TOL.half_integer of 1/2 and 7: stored as 1/2 and 7, so every
        # reader of the configuration sees the exact half-integer
        near = SpinProbeConfig(s=0.5 + 2e-10, j=7.0000000004, g=REF.g, theta=REF.theta)
        assert (near.s, near.j) == (0.5, 7.0)
        assert regime_diagnostics(near) == regime_diagnostics(REF)
        for a, b in zip(build_forward(near).operators, build_forward(REF).operators):
            np.testing.assert_array_equal(a, b)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            SpinProbeConfig(s=0.3, j=1, g=0.1, theta=1.0)
        with pytest.raises(ValueError):
            SpinProbeConfig(s=0.5, j=1, g=0.1, theta=4.0)
        with pytest.raises(ValueError):
            SpinProbeConfig(s=0.5, j=-1, g=0.1, theta=1.0)
        for s in (0, -0.5):
            with pytest.raises(ValueError, match="s must be a positive half-integer"):
                SpinProbeConfig(s=s, j=1, g=0.1, theta=1.0)

    def test_table_past_numpy_size_limit_rejected(self):
        # (2j+1)(2s+1) complex amplitudes against np.iinfo(np.intp).max = 2**63 - 1
        # bytes, checked on the configuration alone: no table is built here
        assert np.iinfo(np.intp).max == 2**63 - 1
        SpinProbeConfig(s=0.5, j=2.0**56, g=0.1, theta=1.0)
        for s, j in ((0.5, 2.0**57), (2.0**58, 0), (1e300, 7), (0.5, 1e20)):
            with pytest.raises(ValueError, match=r"s=.*, j=.*: probe table over numpy's"):
                SpinProbeConfig(s=s, j=j, g=0.1, theta=1.0)


def reference_amplitude(cfg, theta, m, sigma) -> complex:
    """a_{m sigma}(theta), one entry at a time: the formula the tables must match bit for bit."""
    two_j, two_m = round(2 * cfg.j), round(2 * m)
    jp, jm = (two_j + two_m) // 2, (two_j - two_m) // 2
    log_q = 0.5 * (
        math.lgamma(two_j + 1) - math.lgamma(jp + 1) - math.lgamma(jm + 1)
    ) - cfg.j * math.log(2.0)
    q = math.exp(log_q)
    half = theta / 2.0
    plus = np.exp(-1j * cfg.g * sigma) * math.cos(half)
    minus = 1j * np.exp(1j * cfg.g * sigma) * math.sin(half)
    phase = np.exp(-1j * cfg.j * math.pi / 2.0)
    return complex(phase * q * (plus + minus) ** jm * (plus - minus) ** jp)


def reference_table(cfg, theta) -> np.ndarray:
    return np.array(
        [[reference_amplitude(cfg, theta, m, sig) for sig in cfg.sigma_values]
         for m in cfg.outcome_labels]
    )


def diagonals(kraus) -> np.ndarray:
    return np.array([np.diagonal(op) for op in kraus.operators])


# j = 0 has one outcome; at j = 60 exponents above 100 take numpy's
# general-power branch; theta = 0 zeroes v and theta = pi zeroes u
EDGE_CONFIGS = [
    SpinProbeConfig(s=1.5, j=0, g=0.3, theta=1.0),
    SpinProbeConfig(s=0.5, j=60, g=0.25, theta=math.pi / 6),
    SpinProbeConfig(s=1.0, j=3.5, g=0.4, theta=0.0),
    SpinProbeConfig(s=2.5, j=4, g=-0.7, theta=math.pi),
]


class TestAmplitudeTable:
    """Every probe set and reversing scale is the per-entry formula, bit for bit."""

    @staticmethod
    def check(cfg):
        flipped = math.pi - cfg.theta
        assert np.array_equal(diagonals(build_forward(cfg)), reference_table(cfg, cfg.theta))
        assert np.array_equal(diagonals(conjugate_probe_set(cfg)), reference_table(cfg, flipped))
        sigma0 = cfg.sigma_values[0]
        family = build_reversing_probe(cfg)
        scales = [family[m].scale for m in cfg.outcome_labels]
        expected = [
            reference_amplitude(cfg, flipped, -m, sigma0) * reference_amplitude(cfg, cfg.theta, m, sigma0)
            for m in cfg.outcome_labels
        ]
        assert np.array_equal(scales, expected)
        assert all(type(scale) is complex for scale in scales)

    @settings(max_examples=60, deadline=None)
    @given(cfg=CONFIGS)
    def test_matches_reference_property(self, cfg):
        self.check(cfg)

    @pytest.mark.parametrize("cfg", EDGE_CONFIGS, ids=["j=0", "j=60", "theta=0", "theta=pi"])
    def test_matches_reference_at_edges(self, cfg):
        self.check(cfg)

    @pytest.mark.parametrize("cfg", [REF, *EDGE_CONFIGS])
    def test_coefficient_reads_the_table(self, cfg):
        table = diagonals(build_forward(cfg))
        for i, m in enumerate(cfg.outcome_labels):
            for k, sig in enumerate(cfg.sigma_values):
                assert coefficient(cfg, m, sig) == table[i, k]


def binomial_weights(j) -> np.ndarray:
    """q_m over m = -j..j, read as |a_{m sigma}| of the table at g = 0, theta = 0."""
    return np.abs(diagonals(build_forward(SpinProbeConfig(s=0.5, j=j, g=0.0, theta=0.0))))


class TestBinomialAmplitude:
    def test_known_values(self):
        assert binomial_weights(1)[1, 0] == pytest.approx(math.sqrt(2) / 2, abs=1e-14)
        assert binomial_weights(7)[14, 0] == pytest.approx(2.0**-7, rel=1e-12)
        assert binomial_weights(7)[7, 0] == pytest.approx(math.sqrt(3432) / 2**7, abs=1e-14)

    def test_squares_sum_to_one(self):
        for j in (0, 0.5, 1, 3.5, 7, 20, 60):
            assert (binomial_weights(j)[:, 0] ** 2).sum() == pytest.approx(1.0, abs=1e-12)

    def test_squares_are_the_binomial_pmf(self):
        # q_m² = P(j + m successes in 2j fair trials), on every sigma
        for j in (0, 0.5, 1, 3.5, 7, 20, 60):
            q = binomial_weights(j)
            assert np.all(q[:, 0] == q[:, 1])
            m = np.arange(-j, j + 1)
            np.testing.assert_allclose(q[:, 0] ** 2, binom.pmf(j + m, 2 * j, 0.5), rtol=1e-12)

    def test_rejects_bad_label(self):
        cfg = SpinProbeConfig(s=0.5, j=1, g=0.2, theta=0.4)
        with pytest.raises(LabelOutOfRangeError):
            coefficient(cfg, 1.5, 0.5)  # out of range
        with pytest.raises(LabelOutOfRangeError):
            coefficient(cfg, 0.5, 0.5)  # wrong parity
        with pytest.raises(ValueError, match="half-integer"):
            coefficient(cfg, 0.3, 0.5)


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
                expected = binomial_weights(cfg.j)[int(cfg.j + m), 0] * np.exp(
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

    @settings(max_examples=60, deadline=None)
    @given(cfg=CONFIGS)
    def test_completeness_property(self, cfg):
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


    def test_amplitude_overflow_names_the_configuration(self):
        # at the headline g and theta, u**(j - m) overflows between j = 6000 and
        # 6500: a ValueError that names j, g and theta, with no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(build_forward(SpinProbeConfig(0.5, 6000, 0.25, math.pi / 6)).labels) == 12001
            with pytest.raises(ValueError, match=r"overflow: j=8000\.0, g=0\.25, theta=0\.523"):
                build_forward(SpinProbeConfig(0.5, 8000, 0.25, math.pi / 6))

def probe_spin(j):
    """Eigenvalues m = j, j-1, ..., -j of J_z, and J_x in that basis, from the ladder elements."""
    m = j - np.arange(round(2 * j) + 1)
    raising = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), k=1)  # <m+1|J+|m>
    return m, (raising + raising.T) / 2


def hamiltonian_table(cfg, theta) -> np.ndarray:
    """(2j+1, 2s+1) Kraus amplitudes of the probe model, simulated on the probe's space.

    The probe starts in e^{-i theta J_x}|j, j> and couples to the system by
    exp(-i 2g S_z ⊗ J_z), which on the system state sigma is exp(-i 2g sigma J_z);
    it is then read out in the J_x eigenbasis, outcome m at J_x = m.  Entry
    (m, sigma) is <J_x = m| e^{-i 2g sigma J_z} e^{-i theta J_x} |j, j>, each
    exponential from ``np.linalg.eigh``, with m and sigma ascending.
    """
    m, jx = probe_spin(cfg.j)
    w, X = np.linalg.eigh(jx)  # column k: J_x = -j + k, the k-th outcome label
    probe = (X * np.exp(-1j * theta * w)) @ X[0].conj()
    coupled = np.exp(-2j * cfg.g * np.outer(m, cfg.sigma_values)) * probe[:, None]
    return X.conj().T @ coupled


def assert_equal_up_to_outcome_phases(table, kraus):
    """Each row of ``table`` is the diagonal of its outcome's operator, up to one phase."""
    diagonals = np.diagonal(kraus.operators, axis1=1, axis2=2)
    overlap = np.sum(table * diagonals.conj(), axis=1, keepdims=True)
    aligned = table * np.exp(-1j * np.angle(overlap))
    np.testing.assert_allclose(aligned, diagonals, rtol=0, atol=1e-12)


class TestProbeFromHamiltonian:
    """The closed-form amplitudes are the probe model's, to one phase per outcome.

    A phase per outcome changes no statistic.  The conjugate set is the same
    model at pi - theta.
    """

    @pytest.mark.parametrize(
        "s, j, g, theta",
        [
            (0.5, 0.5, 0.3, 1.0),
            (0.5, 1, 0.3, 1.0),
            (0.5, 7, 0.25, math.pi / 6),
            (1.5, 3, 0.4, 1.0),
            (7.5, 7, 0.25, math.pi / 2),
            (7.5, 25, 0.1, 0.3),
        ],
    )
    def test_matches_the_closed_form(self, s, j, g, theta):
        cfg = SpinProbeConfig(s=s, j=j, g=g, theta=theta)
        assert_equal_up_to_outcome_phases(hamiltonian_table(cfg, theta), build_forward(cfg))
        flipped = hamiltonian_table(cfg, math.pi - theta)
        assert_equal_up_to_outcome_phases(flipped, conjugate_probe_set(cfg))

    @settings(max_examples=40, deadline=None)
    @given(cfg=CONFIGS)
    def test_matches_the_closed_form_property(self, cfg):
        assert_equal_up_to_outcome_phases(hamiltonian_table(cfg, cfg.theta), build_forward(cfg))


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

    @settings(max_examples=60, deadline=None)
    @given(cfg=CONFIGS)
    def test_adjoint_identity_property(self, cfg):
        # T_mu(pi - theta) = (-1)^{j+mu} T_mu(theta)†
        forward = build_forward(cfg)
        flipped = conjugate_probe_set(cfg)
        for mu in cfg.outcome_labels:
            sign = (-1.0) ** int(round(cfg.j + mu))
            np.testing.assert_allclose(
                flipped.operator(mu), sign * forward.operator(mu).conj().T, rtol=0, atol=1e-12
            )

    def test_self_adjoint_at_right_angle(self):
        # theta = pi/2 maps to itself, so each T_m is (anti-)Hermitian
        cfg = SpinProbeConfig(s=0.5, j=2, g=0.3, theta=math.pi / 2)
        kraus = build_forward(cfg)
        for m in cfg.outcome_labels:
            sign = (-1.0) ** int(round(cfg.j + m))
            op = kraus.operator(m)
            np.testing.assert_allclose(op, sign * op.conj().T, atol=1e-12)

class TestReflectionSymmetry:
    """a_{-m,-sigma} = c_m conj(a_{m,sigma}) with |c_m| = 1.

    So outcome -m on an ensemble has the weights and amplitude moduli of
    outcome m on the ensemble in reversed basis order, and every statistic
    of -m (of (-m, -mu) in the grid) on one sample equals that of m (of
    (m, mu)) on the reflected sample, up to roundoff: an exact oracle at any
    s, where a single sample alone gives |I(m) - I(-m)| of 2e-4 to 3e-3.
    """

    @staticmethod
    def assert_mirrored(reflected, original, flip):
        """``reflected``'s fields with their outcome axes reversed by ``flip`` equal ``original``'s."""
        np.testing.assert_allclose(
            flip(reflected.probability), original.probability, rtol=1e-12, atol=0
        )
        for field in ("info_gain", "fidelity"):
            np.testing.assert_allclose(
                flip(getattr(reflected, field)), getattr(original, field), rtol=0, atol=1e-13
            )

    @pytest.mark.parametrize(
        "s, j, g, theta",
        [
            (0.5, 7, 0.25, math.pi / 6),
            (1.5, 3, 0.4, 1.0),
            (7.5, 7, 0.25, math.pi / 6),
            (1.0, 2.5, 0.1, 2.0),
        ],
    )
    def test_reflected_sample_mirrors_the_outcomes(self, s, j, g, theta):
        cfg = SpinProbeConfig(s=s, j=j, g=g, theta=theta)
        ens = sample_haar(cfg.dim, 20_000, 5)
        mirror = PureStateEnsemble(ens.states[:, ::-1], ens.seed)
        first, grid = compute_spin_run(cfg, ens)
        assert first.defined.all()
        forward = build_forward(cfg)
        self.assert_mirrored(stage_statistics(forward, mirror), first, lambda x: x[::-1])
        self.assert_mirrored(compute_spin_run(cfg, mirror)[1], grid, lambda x: x[::-1, ::-1])


class TestReflectionInExpectation:
    """Outcomes m and -m agree in expectation over Haar states.

    a_{-m,-sigma} = c_m conj(a_{m,sigma}), and the Haar measure is invariant
    under sigma -> -sigma, so p, I, F, F' and I' of m and of -m have the
    same expectation.  The sample is split into contiguous batches, each
    run on its own, and the batch mean of each difference between m and -m
    must lie within 5 of its standard errors.
    """

    BATCHES = 20

    @pytest.mark.parametrize("s, n", [(0.5, 100_000), (1.5, 20_000), (7.5, 20_000)])
    def test_mirror_outcomes_agree_within_batch_errors(self, s, n):
        cfg = SpinProbeConfig(s=s, j=7, g=0.25, theta=math.pi / 6)
        ens = sample_haar(cfg.dim, n, 202408)
        values = []
        for states in np.array_split(ens.states, self.BATCHES):
            first, grid = compute_spin_run(cfg, PureStateEnsemble(states, ens.seed))
            values.append(
                [first.probability, first.info_gain, first.fidelity, grid.mean_fidelity, grid.mean_info]
            )
        values = np.array(values)  # (batch, quantity, m), m ascending
        assert np.isfinite(values).all()
        positive = np.array(cfg.outcome_labels) > 0
        diff = (values - values[..., ::-1])[..., positive]
        mean = diff.mean(axis=0)
        stderr = diff.std(axis=0, ddof=1) / math.sqrt(self.BATCHES)
        assert (np.abs(mean) <= 5 * stderr).all(), np.max(np.abs(mean) / stderr)


class TestReversingProbe:
    def test_exact_proportionality_for_spin_half(self):
        cfg = SpinProbeConfig(s=0.5, j=3, g=0.4, theta=1.0)
        forward = build_forward(cfg)
        family = build_reversing_probe(cfg)
        for m, spec in family.items():
            composed = spec.preferred_operator @ forward.operator(m)
            np.testing.assert_allclose(
                composed, spec.scale * np.eye(cfg.dim), atol=1e-9
            )

    def test_inexact_beyond_spin_half(self):
        def residual(g):
            cfg = SpinProbeConfig(s=1.0, j=2, g=g, theta=1.0)
            forward = build_forward(cfg)
            spec = build_reversing_probe(cfg)[1.0]
            composed = spec.preferred_operator @ forward.operator(1.0)
            dev = composed - spec.scale * np.eye(cfg.dim)
            return float(np.max(np.abs(dev)))

        r1, r2 = residual(0.02), residual(0.04)
        assert r1 > 1e-9  # genuinely not proportional
        assert r2 / r1 == pytest.approx(4.0, rel=0.2)  # O(g²) failure


class TestWeakQuantities:
    """T_m = q_m e^{i gamma_m} e^{i Gamma_m} (I + epsilon_m), read off the amplitudes.

    T_m is diagonal, so epsilon_m = |a_m sigma| / q_m - 1 and Gamma_m is the
    phase of a_m sigma e^{-i gamma_m}, with gamma_m = -j pi/2 - m theta.
    """

    @staticmethod
    def parts(cfg, m):
        a = np.array([coefficient(cfg, m, sig) for sig in cfg.sigma_values])
        gamma = -cfg.j * math.pi / 2.0 - m * cfg.theta
        q = binomial_weights(cfg.j)[int(cfg.j + m), 0]
        return np.abs(a) / q - 1.0, np.angle(a * np.exp(-1j * gamma))

    def test_epsilon_slope(self):
        # leading order: epsilon ~ 2 g m sin(theta) S_z
        g = 1e-3
        cfg = SpinProbeConfig(s=0.5, j=7, g=g, theta=math.pi / 6)
        for m in (1.0, 3.0, -5.0):
            epsilon, _ = self.parts(cfg, m)
            predicted = [2.0 * g * m * math.sin(cfg.theta) * sig for sig in cfg.sigma_values]
            np.testing.assert_allclose(epsilon, predicted, atol=5e-5)

    def test_phase_slope(self):
        # leading order: Gamma ~ -2 g j cos(theta) S_z
        g = 1e-3
        cfg = SpinProbeConfig(s=0.5, j=7, g=g, theta=math.pi / 6)
        for m in (0.0, 2.0, -4.0):
            _, phases = self.parts(cfg, m)
            predicted = [-2.0 * g * cfg.j * math.cos(cfg.theta) * sig for sig in cfg.sigma_values]
            np.testing.assert_allclose(phases, predicted, atol=5e-5)


class TestRegime:
    def test_reference_numbers(self):
        report = regime_diagnostics(REF)
        assert report.weakness == pytest.approx(0.0546875, abs=1e-10)
        assert report.phase == pytest.approx(3.5 * math.sqrt(3) / 2, abs=1e-10)

    def test_disturbance_window(self, paper_run, ens2_big):
        # the window needs the sampled fidelities of the first stage
        assert disturbance_outcomes(build_forward(REF), ens2_big) == tuple(
            float(m) for m in range(-5, 6)
        )

    def test_strong_coupling_flagged(self):
        # weakness (2/3) g² s(s+1) j sin²θ is far from << 1 at g = 1
        report = regime_diagnostics(SpinProbeConfig(s=0.5, j=7, g=1.0, theta=1.0))
        assert report.weakness == pytest.approx(3.5 * math.sin(1.0) ** 2, rel=1e-12)
        assert report.weakness > 1.0
