import math

import numpy as np
import pytest

from conjmeas import linalg
from conjmeas.ensemble import sample_haar
from conjmeas.errors import (
    DimensionMismatchError,
    NonInvertibleOperatorError,
    ZeroProbabilityOutcomeError,
)
from conjmeas.measurement import KrausSet, completeness_residual
from conjmeas.metrics import (
    branch_weights_and_amplitudes,
    stage_statistics,
    two_stage_statistics,
)
from conjmeas.reversal import (
    build_conjugate_minimal,
    build_reversing,
    conditional_success_probability,
    conjugate_preferred_closed_form,
)
from conjmeas.spin_probe import SpinProbeConfig, build_forward, build_reversing_probe


def two_outcome_set(M):
    """Complete a single contraction M to a two-outcome Kraus set."""
    M = np.asarray(M, dtype=complex)
    comp = linalg.positive_sqrt(np.eye(M.shape[0]) - M.conj().T @ M)
    return KrausSet((M, comp), (0.0, 1.0))

DIAG_SET = two_outcome_set(np.diag([0.5, 1.0 / 3.0]))
ZERO_SET = KrausSet((np.zeros((2, 2)), np.eye(2)), (0.0, 1.0))


def random_general_set(seed: int, dim: int = 4, n: int = 6) -> KrausSet:
    """Complete non-diagonal set G_k S^{-1/2} with S = sum G_k^dag G_k."""
    rng = np.random.default_rng(seed)
    G = (rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))) / math.sqrt(2)
    S = np.einsum("kji,kjl->il", G.conj(), G)
    w, V = np.linalg.eigh(S)
    return KrausSet(tuple(g @ (V / np.sqrt(w)) @ V.conj().T for g in G), tuple(range(n)))


@pytest.mark.parametrize("build", [build_reversing, build_conjugate_minimal])
def test_complement_annihilates_the_recovered_state(build):
    # the top eigenvector v of P†P succeeds with certainty, so the complement
    # must send it to zero; completeness alone only sees C†C, where an error
    # e in C shows as e²
    worst = 0.0
    for seed in range(20):
        kraus = random_general_set(seed)
        for m in kraus.labels:
            P, C = build(kraus, m).kraus.operators
            v = np.linalg.eigh(P.conj().T @ P)[1][:, -1]
            worst = max(worst, float(np.linalg.norm(C @ v)))
    assert worst <= 1e-12


class TestBuildReversing:
    def test_diagonal_example(self):
        spec = build_reversing(DIAG_SET, 0.0)
        assert spec.scale == pytest.approx(1.0 / 3.0, abs=1e-12)
        np.testing.assert_allclose(
            spec.preferred_operator, np.diag([2.0 / 3.0, 1.0]), atol=1e-12
        )

    def test_second_stage_is_complete(self):
        spec = build_reversing(DIAG_SET, 0.0)
        assert completeness_residual(spec.kraus) < 1e-10

    def test_unitary_first_stage_gives_single_outcome(self):
        theta = 0.4
        U = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
            dtype=complex,
        )
        spec = build_reversing(KrausSet((U,), (0.0,)), 0.0)
        assert len(spec.kraus.labels) == 1
        np.testing.assert_allclose(spec.preferred_operator @ U, np.eye(2), atol=1e-10)

    def test_composition_is_scalar(self):
        cfg = SpinProbeConfig(s=1.0, j=2, g=0.3, theta=0.9)
        kraus = build_forward(cfg)
        for m in kraus.labels:
            spec = build_reversing(kraus, m)
            composed = spec.preferred_operator @ kraus.operator(m)
            np.testing.assert_allclose(
                composed, spec.scale * np.eye(cfg.dim), atol=1e-10
            )

    def test_constant_weights_erase_information(self, ens2_small):
        cfg = SpinProbeConfig(s=0.5, j=3, g=0.4, theta=1.0)
        kraus = build_forward(cfg)
        spec = build_reversing(kraus, 1.0)
        composed = spec.preferred_operator @ kraus.operator(1.0)
        w, _ = branch_weights_and_amplitudes(ens2_small.states, composed)
        np.testing.assert_allclose(w, w[0], atol=1e-12)

    def test_recovered_branch_carries_no_information(self):
        # C·M = s_min·I weighs every state alike, so the preferred branch has
        # I = 0 exactly; its sums read x = w/p, of mean 1, so no p log2 p is
        # left to cancel and I stays at roundoff, not at 1e-15 and above
        worst = 0.0
        for seed in range(20):
            kraus = random_general_set(seed)
            ens = sample_haar(4, 2000, seed)
            for m in kraus.labels:
                spec = build_reversing(kraus, m)
                ts = two_stage_statistics(kraus, m, spec.kraus, ens)
                worst = max(worst, ts.get(spec.preferred_label)[1])
        assert worst <= 1e-15

    def test_maximal_scale(self):
        # any larger |lambda| would push an eigenvalue of R†R above one
        spec = build_reversing(DIAG_SET, 0.0)
        R = spec.preferred_operator
        top = float(np.linalg.eigvalsh(R.conj().T @ R)[-1])
        assert top == pytest.approx(1.0, abs=1e-12)

    def test_singular_operator_rejected(self):
        singular = two_outcome_set(np.diag([0.5, 0.0]))
        with pytest.raises(NonInvertibleOperatorError):
            build_reversing(singular, 0.0)

    def test_zero_operator_rejected(self):
        with pytest.raises(NonInvertibleOperatorError):
            build_reversing(ZERO_SET, 0.0)

    def test_conditional_success_probability(self, ens2_small):
        cfg = SpinProbeConfig(s=0.5, j=3, g=0.4, theta=1.0)
        kraus = build_forward(cfg)
        first = stage_statistics(kraus, ens2_small)
        for i, m in enumerate(kraus.labels):
            spec = build_reversing(kraus, m)
            p = conditional_success_probability(kraus, m, ens2_small, spec)
            assert p == pytest.approx(
                abs(spec.scale) ** 2 / first.probability[i], rel=1e-9
            )


def test_every_builder_stores_a_complex_scale():
    specs = [build_reversing(DIAG_SET, 0.0), build_conjugate_minimal(DIAG_SET, 0.0)]
    specs += build_reversing_probe(SpinProbeConfig(s=0.5, j=2, g=0.3, theta=0.9)).values()
    assert [type(spec.scale) for spec in specs] == [complex] * len(specs)


class TestConditionalSuccessProbability:
    """It rejects what two_stage_statistics rejects, before composing or dividing."""

    def test_second_stage_of_another_dimension(self, ens2_small):
        spec = build_conjugate_minimal(random_general_set(3, dim=3), 0.0)
        with pytest.raises(DimensionMismatchError):
            conditional_success_probability(DIAG_SET, 0.0, ens2_small, spec)
        with pytest.raises(DimensionMismatchError):
            two_stage_statistics(DIAG_SET, 0.0, spec.kraus, ens2_small)

    def test_first_outcome_of_zero_probability(self, ens2_small):
        kraus = KrausSet((np.eye(2), np.zeros((2, 2))), (0.0, 1.0))
        spec = build_conjugate_minimal(kraus, 0.0)
        with pytest.raises(ZeroProbabilityOutcomeError):
            conditional_success_probability(kraus, 1.0, ens2_small, spec)
        with pytest.raises(ZeroProbabilityOutcomeError):
            two_stage_statistics(kraus, 1.0, spec.kraus, ens2_small)


class TestBuildConjugateMinimal:
    def test_diagonal_example_auto_kappa(self):
        spec = build_conjugate_minimal(DIAG_SET, 0.0)
        assert spec.scale == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(
            spec.preferred_operator, np.diag([1.0, 2.0 / 3.0]), atol=1e-12
        )

    def test_second_stage_is_complete(self):
        for label in DIAG_SET.labels:
            spec = build_conjugate_minimal(DIAG_SET, label)
            assert completeness_residual(spec.kraus) < 1e-10

    def test_completeness_with_nontrivial_polar_phase(self):
        rng = np.random.default_rng(31)
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        M = 0.4 * A / np.linalg.norm(A, 2)
        spec = build_conjugate_minimal(two_outcome_set(M), 0.0)
        assert completeness_residual(spec.kraus) < 1e-10

    def test_zero_operator_rejected(self):
        with pytest.raises(ZeroProbabilityOutcomeError):
            build_conjugate_minimal(ZERO_SET, 0.0)

    def test_composition_is_squared_positive_part(self):
        cfg = SpinProbeConfig(s=1.0, j=2, g=0.3, theta=0.9)
        kraus = build_forward(cfg)
        for m in kraus.labels:
            spec = build_conjugate_minimal(kraus, m)
            M = kraus.operator(m)
            _, N = linalg.polar_decompose(M)
            composed = spec.preferred_operator @ M
            np.testing.assert_allclose(composed, spec.scale * N @ N, atol=1e-10)

    def test_closed_form_matches_two_stage(self, ens2_small):
        cfg = SpinProbeConfig(s=0.5, j=3, g=0.4, theta=1.0)
        kraus = build_forward(cfg)
        for m in kraus.labels:
            spec = build_conjugate_minimal(kraus, m)
            ts = two_stage_statistics(kraus, m, spec.kraus, ens2_small)
            _, info, fid = ts.get(spec.preferred_label)
            f_cf, i_cf = conjugate_preferred_closed_form(kraus, m, ens2_small)
            assert fid == pytest.approx(f_cf, abs=1e-9)
            assert info == pytest.approx(i_cf, abs=1e-9)

    def test_statistics_invariant_under_polar_phase(self, ens2_small):
        # replacing M by V M (V unitary) changes neither N nor the preferred
        # conjugate branch weights, so info and fidelity are unchanged
        rng = np.random.default_rng(37)
        M = np.diag([0.5, 1.0 / 3.0]).astype(complex)
        phases = np.exp(1j * rng.uniform(0, 2 * math.pi, 2))
        M_rot = np.diag(phases) @ M
        for ref, rot in ((M, M_rot),):
            f0, i0 = conjugate_preferred_closed_form(
                two_outcome_set(ref), 0.0, ens2_small
            )
            f1, i1 = conjugate_preferred_closed_form(
                two_outcome_set(rot), 0.0, ens2_small
            )
            assert f0 == pytest.approx(f1, abs=1e-12)
            assert i0 == pytest.approx(i1, abs=1e-12)


class TestFactorOfFour:
    def test_information_quadruples_in_weak_limit(self, ens2_big):
        # composing with the conjugate doubles the effective perturbation,
        # so the leading-order info gain is multiplied by four
        for g in (0.01, 0.02):
            cfg = SpinProbeConfig(s=0.5, j=7, g=g, theta=math.pi / 6)
            kraus = build_forward(cfg)
            first = stage_statistics(kraus, ens2_big)
            for m in (1.0, 2.0, 3.0, -2.0):
                i = kraus.index_of(m)
                _, info2 = conjugate_preferred_closed_form(kraus, m, ens2_big)
                ratio = info2 / first.info_gain[i]
                assert ratio == pytest.approx(4.0, rel=0.02)

    def test_ratio_converges_quadratically(self, ens2_big):
        # deviation from 4 shrinks ~g², so doubling g quadruples the error
        devs = []
        for g in (0.02, 0.04):
            cfg = SpinProbeConfig(s=0.5, j=7, g=g, theta=math.pi / 6)
            kraus = build_forward(cfg)
            first = stage_statistics(kraus, ens2_big)
            i = kraus.index_of(2.0)
            _, info2 = conjugate_preferred_closed_form(kraus, 2.0, ens2_big)
            devs.append(abs(info2 / first.info_gain[i] - 4.0))
        assert devs[1] / devs[0] == pytest.approx(4.0, rel=0.35)
