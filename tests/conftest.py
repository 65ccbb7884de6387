import math

import numpy as np
import pytest

from conjmeas.ensemble import sample_haar
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
