import math

import numpy as np
import pytest

from conjmeas import linalg
from conjmeas.errors import DimensionMismatchError, NotPositiveError
from conjmeas.spin_probe import SpinProbeConfig, build_forward, coefficient

from conftest import near_singular_set


def random_matrix(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


class TestPositiveSqrt:
    def test_identity(self):
        np.testing.assert_allclose(linalg.positive_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        S = linalg.positive_sqrt(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(S, np.diag([2.0, 3.0]), atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(11)
        A = random_matrix(rng, 5)
        P = A.conj().T @ A
        S = linalg.positive_sqrt(P)
        np.testing.assert_allclose(S @ S, P, atol=1e-9)

    def test_spectrum_is_sqrt_of_input(self):
        rng = np.random.default_rng(12)
        A = random_matrix(rng, 4)
        P = A.conj().T @ A
        S = linalg.positive_sqrt(P)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(S), np.sqrt(np.linalg.eigvalsh(P)), atol=1e-9
        )

    def test_rejects_negative(self):
        with pytest.raises(NotPositiveError):
            linalg.positive_sqrt(np.diag([1.0, -1e-6]))


class TestPolarDecompose:
    def test_identity(self):
        U, N = linalg.polar_decompose(np.eye(2))
        np.testing.assert_allclose(U, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(N, np.eye(2), atol=1e-12)

    def test_diagonal_with_phase(self):
        M = np.diag([2.0 * np.exp(1j * np.pi / 3), 1.0])
        U, N = linalg.polar_decompose(M)
        np.testing.assert_allclose(U, np.diag([np.exp(1j * np.pi / 3), 1.0]), atol=1e-12)
        np.testing.assert_allclose(N, np.diag([2.0, 1.0]), atol=1e-12)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(13)
        M = random_matrix(rng, 3)
        U, N = linalg.polar_decompose(M)
        np.testing.assert_allclose(U.conj().T @ U, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(U @ N, M, atol=1e-9)

    def test_property_over_many_matrices(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            d = int(rng.integers(2, 7))
            M = random_matrix(rng, d)
            U, N = linalg.polar_decompose(M)
            assert linalg.max_abs(U.conj().T @ U - np.eye(d)) < 1e-9
            assert linalg.max_abs(U @ N - M) < 1e-9
            assert np.linalg.eigvalsh(N)[0] > -1e-12

    def test_singular_completion(self):
        M = np.diag([1.0, 0.0])
        U, N = linalg.polar_decompose(M)
        np.testing.assert_allclose(U.conj().T @ U, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(U @ N, M, atol=1e-12)

    def test_positive_semidefinite_input_is_its_own_positive_part(self):
        rng = np.random.default_rng(14)
        A = random_matrix(rng, 3)
        for P in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), A.conj().T @ A):
            np.testing.assert_allclose(linalg.polar_decompose(P)[1], P, atol=1e-10)

    def test_unitary_has_identity_positive_part(self):
        theta = 0.7
        R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        U, N = linalg.polar_decompose(R.astype(complex))
        np.testing.assert_allclose(N, np.eye(2), atol=1e-10)
        np.testing.assert_allclose(U, R, atol=1e-10)

    def test_spin_probe_positive_parts_are_the_moduli(self):
        cfg = SpinProbeConfig(s=0.5, j=2, g=0.25, theta=math.pi / 6)
        kraus = build_forward(cfg)
        for m, M in zip(kraus.labels, kraus.operators):
            expected = np.diag([abs(coefficient(cfg, m, sig)) for sig in cfg.sigma_values])
            np.testing.assert_allclose(linalg.polar_decompose(M)[1], expected, atol=1e-10)

    def test_square_is_the_effect(self):
        # N² = M†M: a set of positive parts has the outcome statistics of the set
        kraus = build_forward(SpinProbeConfig(s=1.0, j=2, g=0.3, theta=0.9))
        for m, M in zip(kraus.labels, kraus.operators):
            N = linalg.polar_decompose(M)[1]
            np.testing.assert_allclose(N @ N, kraus.effect(m), atol=1e-10)

    def test_near_singular_operator_to_roundoff(self):
        # an SVD keeps the 1e-9 singular value; an eigh root of M†M misses N by about 3e-9
        kraus, N = near_singular_set()
        np.testing.assert_allclose(
            linalg.polar_decompose(kraus.operators[0])[1], N, rtol=0, atol=1e-14
        )


class TestIsDiagonalOnStacks:
    """One call decides a (K, d, d) stack: diagonal when each member is."""

    def test_diagonal_stack(self):
        rng = np.random.default_rng(1)
        diagonals = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        stack = np.array([np.diag(a) for a in diagonals])
        assert linalg.is_diagonal(stack)

    def test_one_off_diagonal_entry(self):
        stack = np.array([np.diag([1.0, 2.0, 3.0]).astype(complex)] * 4)
        stack[2, 0, 1] = 1e-300
        assert not linalg.is_diagonal(stack)

    def test_matches_each_member(self):
        # members that are diagonal, or zero but for one entry, in every mix
        rng = np.random.default_rng(2)
        for _ in range(200):
            k, d = rng.integers(1, 5), rng.integers(2, 5)
            stack = np.zeros((k, d, d), dtype=complex)
            for M in stack:
                M[np.diag_indices(d)] = rng.standard_normal(d) * (rng.random(d) < 0.7)
                if rng.random() < 0.3:
                    M[rng.integers(d), rng.integers(d)] = 1.0 + 1j
            assert linalg.is_diagonal(stack) == all(linalg.is_diagonal(M) for M in stack)


class TestStacks:
    """A set of operators is one (K, d, d) stack: checked and adjoined in one call each."""

    def stack(self, k=5, d=3, seed=3):
        rng = np.random.default_rng(seed)
        return np.array([random_matrix(rng, d) for _ in range(k)])

    def test_as_operator_takes_a_matrix_or_a_stack(self):
        A = self.stack()
        assert linalg.as_operator(A) is A
        B = linalg.as_operator(tuple(A))
        assert B.dtype == complex and B.tobytes() == A.tobytes()
        assert linalg.as_operator([[1, 0], [0, 1]]).dtype == complex

    def test_operators_of_different_shapes_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linalg.as_operator((np.eye(2), np.eye(3)))

    @pytest.mark.parametrize(
        "entries", ["abc", [["1", "x"], ["0", "1"]], (np.eye(2), [["a", 0], [0, 1]])]
    )
    def test_text_is_not_a_dimension_mismatch(self, entries):
        with pytest.raises(ValueError) as exc:
            linalg.as_operator(entries)
        assert not isinstance(exc.value, DimensionMismatchError)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3)])
    def test_not_square_rejected(self, shape):
        with pytest.raises(ValueError, match="square"):
            linalg.as_operator(np.ones(shape))

    def test_non_finite_stack_rejected(self):
        A = self.stack()
        A[3, 1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            linalg.as_operator(A)

    def test_dagger_of_a_stack_is_each_adjoint(self):
        A = self.stack()
        adjoints = linalg.dagger(A)
        assert adjoints.shape == A.shape
        for M, Md in zip(A, adjoints):
            assert Md.tobytes() == np.ascontiguousarray(M.conj().T).tobytes()

    def test_decompositions_of_a_stack_are_each_one(self):
        A = self.stack()
        U, N = linalg.polar_decompose(A)
        P = linalg.dagger(A) @ A
        roots = linalg.positive_sqrt(P)
        for k, M in enumerate(A):
            Uk, Nk = linalg.polar_decompose(M)
            np.testing.assert_allclose(U[k], Uk, rtol=0, atol=1e-14)
            np.testing.assert_allclose(N[k], Nk, rtol=0, atol=1e-14)
            np.testing.assert_allclose(roots[k], linalg.positive_sqrt(P[k]), rtol=0, atol=1e-13)
        np.testing.assert_allclose(U @ N, A, rtol=0, atol=1e-13)

    def test_density_matrix_check_takes_one_state(self):
        with pytest.raises(ValueError, match="one density matrix"):
            linalg.check_density_matrix(np.array([np.eye(2) / 2] * 2))
