import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from conjmeas import ensemble
from conjmeas.ensemble import (
    PureStateEnsemble,
    expectation_values,
    form_coefficients,
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


def one_shot_haar(dim, n, seed):
    """The sampler's states as one formula on the whole Philox draw."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    z = rng.standard_normal((n, 2 * dim)) * np.sqrt(0.5)
    states = z[:, :dim] + 1j * z[:, dim:]
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    return states


@pytest.mark.parametrize("width", [*range(1, 21), 33])
def test_row_sums_are_numpys_reduce(width):
    # rows of fewer than 8 entries are summed down the columns, longer ones by
    # np.add.reduce: the bits of np.add.reduce(axis=1) either way, on
    # non-negative entries of mixed magnitude with exact zeros, read as the
    # sampler reads them (the real part of a complex array)
    rng = np.random.default_rng(width)
    z = rng.standard_normal((5000, width)) * 2.0 ** rng.integers(-30, 30, (5000, width))
    z[rng.random(z.shape) < 0.1] = 0.0
    a = z**2
    for x in (a, (a + 0j).real):
        assert ensemble._row_sums(x).tobytes() == np.add.reduce(x, axis=1).tobytes()


def test_chunked_sampling_matches_sequential():
    # the sampler's chunks, one state short of, at and past a chunk boundary,
    # reproduce the one-shot sample byte for byte (tobytes: a signed zero shows);
    # dims 7 and 8 lie on either side of the in-order row sum
    for dim in (2, 3, 7, 8, 16):
        c = max(1, ensemble._CHUNK // (2 * dim))
        for n in (1, c - 1, c, c + 1, 3 * c + 17):
            for seed in (12345, 2**40 + 3):
                chunked = sample_haar(dim, n, seed).states.tobytes()
                assert chunked == one_shot_haar(dim, n, seed).tobytes(), (dim, n, seed)


@pytest.mark.parametrize("dim, n", [(2, 10**5), (16, 20_000)])
def test_sampling_holds_no_full_size_temporary(dim, n):
    # chunks of 2^15 doubles: the working memory beyond the states themselves
    # is a few chunk buffers, not the one-shot draw's N·d-sized temporaries
    tracemalloc.start()
    try:
        states = sample_haar(dim, n, 31).states
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < states.nbytes + 2 * 2**20


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


def test_states_are_read_only():
    # the populations, the features and their means are cached from them
    assert not sample_haar(2, 10, 1).states.flags.writeable


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


def test_form_coefficients_of_a_stack_are_those_of_each_matrix():
    rng = np.random.default_rng(11)
    stack = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
    rows = form_coefficients(stack)
    assert rows.shape == (5, 2, 16)
    for B, row in zip(stack, rows):
        np.testing.assert_array_equal(row, form_coefficients(B))


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_form_coefficients_in_feature_order(dim):
    # row 0 and row 1 on [P | Re z | Im z] are Re and Im of <psi|B|psi>
    rng = np.random.default_rng(20 + dim)
    ens = sample_haar(dim, 300, 5)
    B = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    dense = np.einsum("ad,dc,ac->a", ens.states.conj(), B, ens.states)
    re, im = form_coefficients(B) @ ens.features.T
    np.testing.assert_allclose(re, dense.real, rtol=0, atol=1e-14)
    np.testing.assert_allclose(im, dense.imag, rtol=0, atol=1e-14)
