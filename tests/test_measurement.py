import math

import numpy as np
import pytest

from conjmeas import linalg
from conjmeas.errors import (
    CompletenessError,
    DimensionMismatchError,
    NotDensityMatrixError,
    UnknownLabelError,
    ValidationError,
)
from conjmeas.measurement import (
    KrausSet,
    completeness_residual,
    optimal_part,
    outcome_distribution,
    sample_outcome,
)
from conjmeas.spin_probe import SpinProbeConfig, build_forward

from conftest import random_density_matrix

KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)
PROJECTIVE = KrausSet((KET0, KET1), (0.0, 1.0))


def test_completeness_identity():
    assert completeness_residual(KrausSet((np.eye(2),), (0.0,))) == 0.0


def test_completeness_projectors():
    assert completeness_residual(PROJECTIVE) < 1e-15


def test_completeness_spin_probe():
    cfg = SpinProbeConfig(s=0.5, j=7, g=0.25, theta=math.pi / 6)
    assert completeness_residual(build_forward(cfg)) < 1e-9


def test_incomplete_set_rejected():
    with pytest.raises(CompletenessError):
        KrausSet((0.5 * np.eye(2),), (0.0,))


@pytest.mark.parametrize("name", ["_index", "_effects"])
def test_derived_fields_are_not_arguments(name):
    # the constructor computes both; an argument would be silently overwritten
    with pytest.raises(TypeError):
        KrausSet((np.eye(2),), (0.0,), **{name: None})


def test_half_integer_labels():
    cfg = SpinProbeConfig(s=0.5, j=1.5, g=0.1, theta=math.pi / 4)
    kraus = build_forward(cfg)
    assert kraus.labels == (-1.5, -0.5, 0.5, 1.5)
    assert kraus.index_of(-1.5) == 0
    with pytest.raises(UnknownLabelError):
        kraus.index_of(0.0)


@pytest.mark.parametrize("labels", [(0.0, 0.0), (1.0, 1.0 + 1e-12)])
def test_duplicate_labels_rejected(labels):
    # both labels have the same half-integer key, so index_of would find the
    # last operator and StageStatistics.get the first
    with pytest.raises(ValidationError):
        KrausSet((KET0, KET1), labels)


@pytest.mark.parametrize("label", [math.inf, -math.inf, math.nan, 1e308])
def test_non_finite_labels_rejected(label):
    # 2 * 1e308 overflows to inf
    with pytest.raises(UnknownLabelError):
        KrausSet((np.eye(2),), (label,))
    with pytest.raises(UnknownLabelError):
        PROJECTIVE.index_of(label)


class TestOutcomeProbability:
    def test_trivial_set(self):
        rng = np.random.default_rng(3)
        rho = random_density_matrix(rng, 2)
        p = outcome_distribution(rho, KrausSet((np.eye(2),), (0.0,)))
        np.testing.assert_allclose(p, [1.0], rtol=0, atol=1e-12)

    def test_zero_coupling_is_state_independent(self):
        # with no interaction every state sees the bare binomial weights
        cfg = SpinProbeConfig(s=0.5, j=7, g=0.0, theta=math.pi / 6)
        kraus = build_forward(cfg)
        rng = np.random.default_rng(5)
        rho = random_density_matrix(rng, 2)
        p = outcome_distribution(rho, kraus)
        assert p[kraus.index_of(0.0)] == pytest.approx(3432 / 16384, abs=1e-12)
        assert p[kraus.index_of(7.0)] == pytest.approx(1 / 4**7, abs=1e-15)
        assert p[kraus.index_of(-7.0)] == pytest.approx(1 / 4**7, abs=1e-15)

    def test_distribution_sums_to_one(self):
        cfg = SpinProbeConfig(s=1.0, j=3, g=0.3, theta=1.0)
        kraus = build_forward(cfg)
        rng = np.random.default_rng(8)
        rho = random_density_matrix(rng, 3)
        assert outcome_distribution(rho, kraus).sum() == pytest.approx(1.0, abs=1e-8)


class TestOptimalPart:
    def test_positive_set_unchanged(self):
        out = optimal_part(PROJECTIVE)
        for a, b in zip(out.operators, PROJECTIVE.operators):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_unitary_becomes_identity(self):
        theta = 0.7
        U = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
            dtype=complex,
        )
        out = optimal_part(KrausSet((U,), (0.0,)))
        np.testing.assert_allclose(out.operators[0], np.eye(2), atol=1e-10)

    def test_spin_probe_moduli(self):
        from conjmeas.spin_probe import coefficient

        cfg = SpinProbeConfig(s=0.5, j=2, g=0.25, theta=math.pi / 6)
        out = optimal_part(build_forward(cfg))
        for i, m in enumerate(out.labels):
            expected = np.diag(
                [abs(coefficient(cfg, m, sig)) for sig in cfg.sigma_values]
            )
            np.testing.assert_allclose(out.operators[i], expected, atol=1e-10)

    def test_same_statistics_as_original(self):
        cfg = SpinProbeConfig(s=1.0, j=2, g=0.3, theta=0.9)
        kraus = build_forward(cfg)
        positive = optimal_part(kraus)
        rng = np.random.default_rng(21)
        for _ in range(100):
            rho = random_density_matrix(rng, 3)
            np.testing.assert_allclose(
                outcome_distribution(rho, kraus),
                outcome_distribution(rho, positive),
                atol=1e-10,
            )


def rotated_probe(rng):
    """The diagonal s=3/2 probe rotated into a non-diagonal set: V M V†."""
    probe = build_forward(SpinProbeConfig(s=1.5, j=2, g=0.3, theta=0.7))
    V, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    return KrausSet(tuple(V @ M @ V.conj().T for M in probe.operators), probe.labels)


def count_checks(monkeypatch) -> list:
    checks = []
    check = linalg.check_density_matrix
    monkeypatch.setattr(linalg, "check_density_matrix", lambda r: checks.append(1) or check(r))
    return checks


def test_distribution_is_one_product_and_one_check(monkeypatch):
    rng = np.random.default_rng(8)
    kraus = rotated_probe(rng)
    rho = random_density_matrix(rng, 4)
    # Born rule per label, Tr(M rho M†), one dense product each
    per_label = [np.trace(M @ rho @ M.conj().T).real for M in kraus.operators]
    checks = count_checks(monkeypatch)
    np.testing.assert_allclose(outcome_distribution(rho, kraus), per_label, rtol=0, atol=1e-15)
    assert len(checks) == 1
    with pytest.raises(DimensionMismatchError):
        outcome_distribution(np.eye(2) / 2, kraus)
    # trace 4: the one check rejects a state that is not a density matrix
    with pytest.raises(NotDensityMatrixError):
        outcome_distribution(np.eye(4), kraus)


class TestSampling:
    def test_single_outcome(self):
        rng = np.random.default_rng(1)
        label, _ = sample_outcome(np.eye(2) / 2, KrausSet((np.eye(2),), (42.0,)), rng)
        assert label == 42.0

    def test_deterministic_outcome(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            label, rng = sample_outcome(KET0, PROJECTIVE, rng)
            assert label == 0.0

    def test_frequencies_match_probabilities(self):
        cfg = SpinProbeConfig(s=0.5, j=2, g=0.3, theta=1.1)
        kraus = build_forward(cfg)
        rng = np.random.default_rng(33)
        rho = random_density_matrix(rng, 2)
        probs = outcome_distribution(rho, kraus)
        n = 20_000
        counts = {m: 0 for m in kraus.labels}
        for _ in range(n):
            label, rng = sample_outcome(rho, kraus, rng)
            counts[label] += 1
        for m, p in zip(kraus.labels, probs):
            se = math.sqrt(p * (1 - p) / n)
            assert abs(counts[m] / n - p) < 4 * se + 1e-12


def choice_draws(rho, kraus, seed, k):
    """Reference sampler: the Born distribution from one einsum over the
    stacked operators, then one ``rng.choice`` per draw."""
    rng = np.random.default_rng(seed)
    ops = np.stack(kraus.operators)
    p = np.clip(np.einsum("mij,jk,mik->m", ops, rho, ops.conj()).real, 0.0, 1.0)
    return tuple(kraus.labels[rng.choice(len(p), p=p / p.sum())] for _ in range(k))


class TestDrawStream:
    @pytest.fixture(params=["rotated", "spin"])
    def case(self, request):
        rng = np.random.default_rng(8)
        if request.param == "rotated":
            return rotated_probe(rng), random_density_matrix(rng, 4)
        cfg = SpinProbeConfig(s=0.5, j=7, g=0.25, theta=math.pi / 6)
        return build_forward(cfg), random_density_matrix(rng, 2)

    def test_same_labels_as_rng_choice(self, monkeypatch, case):
        kraus, rho = case
        expected = choice_draws(rho, kraus, 41, 300)
        assert len(set(expected)) > 1
        checks = count_checks(monkeypatch)
        rng = np.random.default_rng(41)
        draws = []
        for _ in range(300):
            label, rng = sample_outcome(rho, kraus, rng)
            draws.append(label)
        assert tuple(draws) == expected
        assert len(checks) == 300

    def test_cached_effects(self, case):
        kraus, _ = case
        effects = kraus._effects
        assert effects.shape == (len(kraus), kraus.dim, kraus.dim)
        assert not effects.flags.writeable
        dense = np.stack([M.conj().T @ M for M in kraus.operators])
        np.testing.assert_allclose(effects, dense, rtol=0, atol=1e-15)
        # effect(label) hands out a read-only view of the same stack
        for i, m in enumerate(kraus.labels):
            assert kraus.effect(m).base is effects and not kraus.effect(m).flags.writeable
            np.testing.assert_array_equal(kraus.effect(m), effects[i])
