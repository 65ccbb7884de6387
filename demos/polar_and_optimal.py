"""Walkthrough: splitting a measurement operator into "useful" and "useless"
disturbance.

Every measurement operator factors as M = U N with N positive (the part that
actually extracts information) and U unitary (pure disturbance that carries
no information at all).  Replacing each M by its N gives a measurement with
identical outcome statistics but minimal state damage.

Run:  python demos/polar_and_optimal.py
"""

import numpy as np

from conjmeas import (
    KrausSet,
    outcome_distribution,
    polar_decompose,
    positive_sqrt,
)

SEED = 7
DIM = 3

rng = np.random.default_rng(SEED)

# a random two-outcome measurement: contraction + positive-root complement
A = rng.standard_normal((DIM, DIM)) + 1j * rng.standard_normal((DIM, DIM))
M0 = 0.6 * A / np.linalg.norm(A, 2)
M1 = positive_sqrt(np.eye(DIM) - M0.conj().T @ M0)
kraus = KrausSet((M0, M1), (0.0, 1.0))

print("=== polar split of M0 ===")
U, N = polar_decompose(M0)
print("||UN - M0|| =", np.max(np.abs(U @ N - M0)))
print("U unitary?  ||U+U - I|| =", np.max(np.abs(U.conj().T @ U - np.eye(DIM))))
print("N eigenvalues (all >= 0):", np.round(np.linalg.eigvalsh(N), 6))

print()
print("=== optimal (positive-part) measurement ===")
positive = KrausSet(tuple(polar_decompose(M)[1] for M in kraus.operators), kraus.labels)

# same statistics on a batch of random states, less disturbance
rho = rng.standard_normal((DIM, DIM)) + 1j * rng.standard_normal((DIM, DIM))
rho = rho @ rho.conj().T
rho /= np.trace(rho).real

p_orig = outcome_distribution(rho, kraus)
p_opt = outcome_distribution(rho, positive)
print("p(m) original:", np.round(p_orig, 6))
print("p(m) optimal :", np.round(p_opt, 6))
print("max difference:", np.max(np.abs(p_orig - p_opt)))
