import numpy as np
import pytest

from conjmeas import linalg
from conjmeas.errors import (
    NotDensityMatrixError,
    NotPositiveError,
    SingularPolarError,
)

from conftest import random_density_matrix


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

    def test_singular_rejected_when_disallowed(self):
        with pytest.raises(SingularPolarError):
            linalg.polar_decompose(np.diag([1.0, 0.0]), allow_singular=False)


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(17)
        rho = random_density_matrix(rng, 3)
        assert linalg.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_pure_states(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        sigma = np.diag([0.0, 1.0]).astype(complex)
        assert linalg.fidelity(rho, sigma) == pytest.approx(0.0, abs=1e-9)

    def test_pure_vs_maximally_mixed(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        sigma = np.eye(2) / 2
        assert linalg.fidelity(rho, sigma) == pytest.approx(1 / np.sqrt(2), abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            rho = random_density_matrix(rng, 3)
            sigma = random_density_matrix(rng, 3)
            assert abs(linalg.fidelity(rho, sigma) - linalg.fidelity(sigma, rho)) < 1e-9

    def test_unity_iff_equal(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            rho = random_density_matrix(rng, 3)
            sigma = random_density_matrix(rng, 3)
            f = linalg.fidelity(rho, sigma)
            close = linalg.max_abs(rho - sigma) < 1e-7
            assert (f > 1 - 1e-9) == close

    def test_rejects_non_density(self):
        with pytest.raises(NotDensityMatrixError):
            linalg.fidelity(np.eye(2), np.eye(2) / 2)
