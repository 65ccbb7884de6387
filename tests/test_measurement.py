import math

import numpy as np
import pytest

from conjmeas import linalg, metrics
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
    outcome_distribution,
    sample_outcome,
)
from conjmeas.ensemble import sample_haar
from conjmeas.metrics import stage_statistics, two_stage_statistics
from conjmeas.reversal import build_conjugate_minimal
from conjmeas.spin_probe import SpinProbeConfig, build_forward, conjugate_probe_set

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


def test_owns_read_only_copies_of_its_operators():
    M0, M1 = KET0.copy(), KET1.copy()
    kraus = KrausSet((M0, M1), (0.0, 1.0))
    M0 *= 3  # the caller's array, not the set's
    np.testing.assert_array_equal(kraus.operators[0], KET0)
    assert outcome_distribution(np.eye(2) / 2, kraus).sum() == 1.0
    assert completeness_residual(kraus) == 0.0
    assert not any(M.flags.writeable for M in kraus.operators)
    with pytest.raises(ValueError):
        kraus.operators[1][0, 0] = 1.0
    # one read-only (n, d, d) complex stack, whose rows unpack as the operators
    ops = kraus.operators
    assert isinstance(ops, np.ndarray) and ops.shape == (2, 2, 2) and ops.dtype == complex
    assert not ops.flags.writeable and ops.flags.c_contiguous
    first, second = ops
    assert first.base is ops and kraus.operator(1.0).base is ops
    # a stack passed in is copied as well
    stack = np.array([KET0, KET1])
    kraus = KrausSet(stack, (0.0, 1.0))
    stack[0] *= 3
    np.testing.assert_array_equal(kraus.operators, [KET0, KET1])


@pytest.mark.parametrize("operators", [(), np.zeros((0, 2, 2)), np.array([[np.eye(2)]])])
def test_empty_or_nested_operators_rejected(operators):
    with pytest.raises(ValueError):
        KrausSet(operators, ())


def test_mixed_dimensions_rejected():
    with pytest.raises(DimensionMismatchError):
        KrausSet((np.eye(2), np.zeros((3, 3))), (0.0, 1.0))


def test_array_holders_compare_by_identity():
    # their fields hold arrays, whose == has no single truth value
    ens = sample_haar(2, 10, 1)
    spec = build_conjugate_minimal(PROJECTIVE, 0.0)
    first = stage_statistics(PROJECTIVE, ens)
    for obj, twin in (
        (PROJECTIVE, KrausSet((KET0, KET1), (0.0, 1.0))),
        (ens, sample_haar(2, 10, 1)),
        (spec, build_conjugate_minimal(PROJECTIVE, 0.0)),
        (first, stage_statistics(PROJECTIVE, ens)),
    ):
        assert obj == obj and obj != twin
        assert hash(obj) == hash(obj)


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


def choice_draws(rhos, kraus, seed):
    """Reference sampler on one stream: for each state in turn, the Born
    distribution from one einsum over the stacked operators, then one
    ``rng.choice``."""
    rng = np.random.default_rng(seed)
    ops = np.stack(kraus.operators)
    draws = []
    for rho in rhos:
        p = np.clip(np.einsum("mij,jk,mik->m", ops, rho, ops.conj()).real, 0.0, 1.0)
        draws.append(kraus.labels[rng.choice(len(p), p=p / p.sum())])
    return tuple(draws)


def sampled_draws(rhos, kraus, seed):
    """``sample_outcome`` on each state in turn, on one stream."""
    rng = np.random.default_rng(seed)
    draws = []
    for rho in rhos:
        label, rng = sample_outcome(rho, kraus, rng)
        draws.append(label)
    return tuple(draws)


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
        expected = choice_draws([rho] * 300, kraus, 41)
        assert len(set(expected)) > 1
        checks = count_checks(monkeypatch)
        assert sampled_draws([rho] * 300, kraus, 41) == expected
        # 300 draws on one state validate it once
        assert len(checks) == 1

    def test_alternating_states_share_one_stream(self, monkeypatch, case):
        kraus, rho = case
        other = random_density_matrix(np.random.default_rng(9), kraus.dim)
        which = np.random.default_rng(3).integers(0, 2, 200)
        rhos = [(rho, other)[i] for i in which]
        expected = choice_draws(rhos, kraus, 41)
        assert len(set(expected)) > 1
        checks = count_checks(monkeypatch)
        assert sampled_draws(rhos, kraus, 41) == expected
        # one check per run of draws on one state
        assert len(checks) == 1 + np.count_nonzero(np.diff(which))

    def test_state_changed_in_place_is_validated_again(self, monkeypatch, case):
        kraus, rho = case
        checks = count_checks(monkeypatch)
        rng = np.random.default_rng(41)
        _, rng = sample_outcome(rho, kraus, rng)
        kept = kraus._last_draw
        rho *= 2  # trace 2
        with pytest.raises(NotDensityMatrixError):
            sample_outcome(rho, kraus, rng)
        assert kraus._last_draw is kept
        rho /= 2  # exact: the kept table serves it again
        sample_outcome(rho, kraus, rng)
        assert len(checks) == 2

    def test_kept_table_is_read_only(self, case):
        kraus, rho = case
        sample_outcome(rho, kraus, np.random.default_rng(41))
        _, cdf = kraus._last_draw
        assert not cdf.flags.writeable
        p = outcome_distribution(rho, kraus)
        np.testing.assert_allclose(cdf, np.cumsum(p) / p.sum(), rtol=0, atol=1e-15)

    def test_two_sets_on_one_state_read_their_own_effects(self):
        rng = np.random.default_rng(8)
        kraus_a, kraus_b = rotated_probe(rng), rotated_probe(rng)
        rho = random_density_matrix(rng, 4)
        expected_a = choice_draws([rho] * 100, kraus_a, 41)
        expected_b = choice_draws([rho] * 100, kraus_b, 41)
        assert expected_a != expected_b
        rng_a, rng_b = np.random.default_rng(41), np.random.default_rng(41)
        draws_a, draws_b = [], []
        for _ in range(100):
            label, rng_a = sample_outcome(rho, kraus_a, rng_a)
            draws_a.append(label)
            label, rng_b = sample_outcome(rho, kraus_b, rng_b)
            draws_b.append(label)
        assert (tuple(draws_a), tuple(draws_b)) == (expected_a, expected_b)

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


def reference_effects(operators):
    """The effects as the set formed them one operator at a time: M.conj().T @ M each."""
    return np.array([M.conj().T @ M for M in operators])


def reference_composed(first, second_operators):
    """The branches C·M of a second stage, one 2-D product each."""
    return np.array([C @ first for C in second_operators])


def random_dense_set(rng, dim, n):
    """n dense operators G_k S^{-1/2}, with S = Σ G_k†G_k: a complete set."""
    G = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    w, V = np.linalg.eigh(sum(g.conj().T @ g for g in G))
    root = (V / np.sqrt(w)) @ V.conj().T
    return tuple(g @ root for g in G)


class TestBatchedProductsKeepTheirBits:
    """The effects and the two-stage branches are batched products over the
    stack; each has the bytes of its own 2-D product."""

    @pytest.fixture(params=[2, 3, 4, 16])
    def dim(self, request):
        return request.param

    def sets(self, dim):
        rng = np.random.default_rng(dim)
        dense = [random_dense_set(rng, dim, n) for n in (1, 2, 6)]
        cfg = SpinProbeConfig(s=(dim - 1) / 2, j=2, g=0.3, theta=0.7)
        spin = [build_forward(cfg).operators, conjugate_probe_set(cfg).operators]
        return [(ops, tuple(range(len(ops)))) for ops in dense + spin]

    def test_effects(self, dim):
        for ops, labels in self.sets(dim):
            effects = KrausSet(ops, labels)._effects
            assert effects.tobytes() == reference_effects(ops).tobytes()

    def test_two_stage_branches(self, dim, monkeypatch):
        composed = []
        kernel = metrics.branch_statistics
        monkeypatch.setattr(
            metrics,
            "branch_statistics",
            lambda ops, ens, p_given=1.0: composed.append(ops) or kernel(ops, ens, p_given),
        )
        ens = sample_haar(dim, 64, 5)
        sets = self.sets(dim)
        for (first_ops, first_labels), (second_ops, second_labels) in zip(sets, sets[1:]):
            first = KrausSet(first_ops, first_labels)
            second = KrausSet(second_ops, second_labels)
            for i, label in enumerate(first_labels):
                composed.clear()
                two_stage_statistics(first, label, second, ens)
                expected = reference_composed(first_ops[i], second_ops)
                assert np.asarray(composed[0]).tobytes() == expected.tobytes()
