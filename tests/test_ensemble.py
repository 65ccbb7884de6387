import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from conjmeas.ensemble import (
    PureStateEnsemble,
    expectation_values,
    mean_expectation,
    sample_haar,
    spin_moments_closed_form,
    spin_z,
)
from conjmeas.errors import DimensionMismatchError, NotHermitianError
from conjmeas.runner import run_variances

from conftest import N_BIG, SEED


def test_states_are_normalized(ens2_big):
    norms = np.linalg.norm(ens2_big.states, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_deterministic_for_seed():
    a = sample_haar(3, 500, 7)
    b = sample_haar(3, 500, 7)
    np.testing.assert_array_equal(a.states, b.states)


def test_dimension_is_read_from_the_states():
    # no separate dim argument that could disagree with the states
    states = sample_haar(2, 10, 1).states
    assert PureStateEnsemble(states, 1).dim == 2
    with pytest.raises(TypeError):
        PureStateEnsemble(3, states, 1)


def test_chunked_sampling_matches_sequential():
    # contiguous blocks of the Philox stream reproduce the one-shot sample
    full = sample_haar(2, 1000, 12345)
    rng = np.random.Generator(np.random.Philox(key=12345))
    parts = [rng.standard_normal((400, 4)), rng.standard_normal((600, 4))]
    z = np.vstack(parts) * np.sqrt(0.5)
    states = z[:, :2] + 1j * z[:, 2:]
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    np.testing.assert_array_equal(full.states, states)


def test_mean_sz_vanishes(ens2_big):
    sz = spin_z(0.5)
    ev = np.real(np.einsum("ad,dc,ac->a", ens2_big.states.conj(), sz, ens2_big.states))
    se = ev.std(ddof=1) / math.sqrt(ens2_big.n)
    assert abs(ev.mean()) < 4 * se


def sz_variance(s, quantity: str, samples: int, seed: int) -> float:
    """V_I or V_F of S_z as ``run_variances`` estimates it on sample_haar(2s+1, samples, seed)."""
    rows = run_variances([s], samples, seed).rows
    return next(estimate for _, name, estimate, *_ in rows if name == quantity)


def test_variance_of_sz_expectation():
    # the ens2_big sample
    assert sz_variance(0.5, "V_I", N_BIG, SEED) == pytest.approx(1 / 12, abs=0.002)


class TestVariances:
    def test_identity_has_no_variance(self, ens2_big):
        # <I> = 1 on every state: no spread over the sample, none within a state
        np.testing.assert_allclose(expectation_values(ens2_big, np.eye(2)), 1.0, rtol=0, atol=1e-12)

    def test_vi_spin_one(self):
        assert sz_variance(1.0, "V_I", 100_000, 5) == pytest.approx(1 / 6, abs=0.004)

    def test_vf_spin_half(self):
        assert sz_variance(0.5, "V_F", N_BIG, SEED) == pytest.approx(1 / 6, abs=0.003)

    def test_vf_spin_three_halves(self):
        assert sz_variance(1.5, "V_F", 100_000, 6) == pytest.approx(1.0, abs=0.02)

    def test_law_of_total_variance(self, ens2_small):
        rng = np.random.default_rng(44)
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        A = 0.5 * (A + A.conj().T)
        ev = np.real(
            np.einsum("ad,dc,ac->a", ens2_small.states.conj(), A, ens2_small.states)
        )
        ev2 = np.real(
            np.einsum(
                "ad,dc,ac->a", ens2_small.states.conj(), A @ A, ens2_small.states
            )
        )
        total = ev2.mean() - ev.mean() ** 2
        # V_I + V_F from the form kernel's expectation values
        fast, fast2 = expectation_values(ens2_small, A), expectation_values(ens2_small, A @ A)
        v_i, v_f = np.mean((fast - fast.mean()) ** 2), np.mean(fast2 - fast**2)
        assert v_i + v_f == pytest.approx(total, abs=1e-12)

    def test_requires_hermitian(self, ens2_small):
        with pytest.raises(NotHermitianError):
            expectation_values(ens2_small, np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestClosedFormMoments:
    def test_spin_half_constants(self):
        m = spin_moments_closed_form(0.5)
        assert (m.C, m.D, m.E) == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
        assert m.v_i == Fraction(1, 12)
        assert m.v_f == Fraction(1, 6)

    def test_spin_one_constants(self):
        m = spin_moments_closed_form(1)
        assert (m.C, m.D, m.E) == (Fraction(1, 3), Fraction(1, 6), Fraction(1, 12))

    @pytest.mark.parametrize("function", [spin_moments_closed_form, spin_z])
    def test_rejects_non_half_integer_spin(self, function):
        # 0.7 is not within TOL.half_integer of a half-integer, so it must not
        # be rounded to 1/2 and reported under that spin
        with pytest.raises(ValueError):
            function(0.7)

    def test_moment_identity(self):
        # normalization forces D + 2s*E = C
        for s in (0.5, 1, 1.5, 2, 3.5):
            m = spin_moments_closed_form(s)
            assert m.D + 2 * m.s * m.E == m.C

    def test_sampled_constants_match(self):
        for s, seed in ((0.5, 1), (1.0, 2), (1.5, 3)):
            dim = int(2 * s) + 1
            ens = sample_haar(dim, 100_000, seed)
            m = spin_moments_closed_form(s)
            p = np.abs(ens.states) ** 2
            for sample, target in (
                (p[:, 0], float(m.C)),
                (p[:, 0] ** 2, float(m.D)),
                (p[:, 0] * p[:, 1], float(m.E)),
            ):
                se = sample.std(ddof=1) / math.sqrt(sample.size)
                assert abs(sample.mean() - target) < 4 * se


def test_haar_invariance_ks(ens2_small):
    # overlaps with a fixed reference state are distribution-invariant
    # under any fixed unitary rotation of the sample
    rng = np.random.default_rng(55)
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    Q, _ = np.linalg.qr(A)
    ens = sample_haar(2, 10_000, 77)
    phi = np.array([1.0, 0.0], dtype=complex)
    base = np.abs(ens.states @ phi.conj()) ** 2
    rotated = np.abs((ens.states @ Q.T) @ phi.conj()) ** 2
    d = stats.ks_2samp(base, rotated).statistic
    critical = 1.628 * math.sqrt(2 / 10_000)  # 1% level, equal sizes
    assert d < critical


def test_populations_cached_and_read_only(ens2_small):
    pops = ens2_small.populations
    np.testing.assert_allclose(pops, np.abs(ens2_small.states) ** 2, rtol=1e-15, atol=0)
    assert pops is ens2_small.populations
    assert not pops.flags.writeable


def test_features_cached_and_read_only():
    ens = sample_haar(3, 50, 9)
    feats = ens.features
    assert feats is ens.features
    assert feats.shape == (50, 9) and feats.flags.f_contiguous and not feats.flags.writeable
    np.testing.assert_array_equal(feats[:, :3], ens.populations)
    i, j = np.triu_indices(3, 1)
    z = ens.states[:, i].conj() * ens.states[:, j]
    np.testing.assert_allclose(feats[:, 3:], np.hstack([z.real, z.imag]), rtol=0, atol=1e-16)


@pytest.mark.parametrize("dim", [2, 3])
def test_expectation_values_match_dense_form(dim):
    rng = np.random.default_rng(dim)
    ens = sample_haar(dim, 300, 4)
    B = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    for A in (B + B.conj().T, np.diag(np.diagonal(B).real)):
        dense = np.einsum("ad,dc,ac->a", ens.states.conj(), A, ens.states).real
        np.testing.assert_allclose(expectation_values(ens, A), dense, rtol=0, atol=1e-14)


def dense_mean(ens, A):
    """The per-state reference: every <psi_a|A|psi_a>, then their mean."""
    return np.einsum("ai,ij,aj->a", ens.states.conj(), A, ens.states).real.mean()


@pytest.mark.parametrize("dim", [2, 3, 4, 16])
def test_mean_expectation_matches_dense_mean(dim):
    # positive A, as for every weight M†M the library reads this way, so the
    # mean has no cancellation and the bound is relative
    rng = np.random.default_rng(300 + dim)
    ens = sample_haar(dim, 3000, 60 + dim)
    B = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    for A in (np.diag(rng.uniform(0.1, 1.0, dim)), B.conj().T @ B):
        want = dense_mean(ens, A)
        assert abs(mean_expectation(ens, A) - want) <= 1e-15 * want
    # an indefinite A can cancel to near zero: bounded against its norm
    H = B + B.conj().T
    want = dense_mean(ens, H)
    assert abs(mean_expectation(ens, H) - want) <= 1e-15 * np.linalg.norm(H, 2)


def test_mean_expectation_of_diagonal_reads_populations_alone():
    ens = sample_haar(3, 200, 8)
    A = np.diag([0.2, 0.5, 0.3])
    assert mean_expectation(ens, A) == pytest.approx(dense_mean(ens, A), rel=1e-15)
    assert "features" not in ens.__dict__


def test_mean_expectation_checks_like_expectation_values(ens2_small):
    with pytest.raises(NotHermitianError):
        mean_expectation(ens2_small, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatchError):
        mean_expectation(ens2_small, np.eye(3))
