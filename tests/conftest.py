import math

import numpy as np
import pytest

from conjmeas.ensemble import sample_haar
from conjmeas.measurement import KrausSet
from conjmeas.runner import compute_spin_run
from conjmeas.spin_probe import SpinProbeConfig

SEED = 202408
N_BIG = 100_000

PAPER_CFG = SpinProbeConfig(s=0.5, j=7, g=0.25, theta=math.pi / 6)


@pytest.fixture(scope="session")
def ens2_big():
    return sample_haar(2, N_BIG, SEED)


@pytest.fixture(scope="session")
def ens2_small():
    return sample_haar(2, 2000, SEED + 1)


@pytest.fixture(scope="session")
def paper_cfg():
    return PAPER_CFG


@pytest.fixture(scope="session")
def paper_run(ens2_big):
    return compute_spin_run(PAPER_CFG, ens2_big)


@pytest.fixture(scope="session")
def weak_cfg():
    return SpinProbeConfig(s=0.5, j=7, g=0.01, theta=math.pi / 6)


@pytest.fixture(scope="session")
def weak_run(ens2_big, weak_cfg):
    return compute_spin_run(weak_cfg, ens2_big)


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    Z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def near_singular_set():
    """``(kraus, N)``: M0 = W·diag(s)·X† with s_min = 1e-9, and N = X·diag(s)·X†.

    N is the positive part of M0; W and X are Haar (d = 4), and the second
    operator X·diag(sqrt(1 - s²))·X† completes the set.  An eigh root of
    M0†M0 = X·diag(s²)·X† squares the condition number and misses N by
    about 3e-9.
    """
    rng = np.random.default_rng(0)
    W, X = haar_unitary(rng, 4), haar_unitary(rng, 4)
    s = np.array([0.9, 0.5, 0.1, 1e-9])
    Xh = X.conj().T
    kraus = KrausSet(((W * s) @ Xh, (X * np.sqrt(1.0 - s * s)) @ Xh), (0.0, 1.0))
    return kraus, (X * s) @ Xh
