"""Independent first-stage statistics for the spin-probe workloads.

The probe operators are diagonal, so every first-stage quantity follows from
the populations P[a, sigma] = |psi_a(sigma)|^2 and the probe diagonals
a[m, sigma]: the branch weight is P @ |a_m|^2 and the transition amplitude
is P @ a_m.  None of this calls the library; it re-derives the Haar sample
from the documented Philox stream and the probe amplitudes from their
defining formula, then evaluates p(m), F(m) and I(m) from their definitions
(I as log2 N minus the Shannon entropy of the posterior).
"""

from __future__ import annotations

import math

import numpy as np


def haar_populations(dim: int, n: int, seed: int) -> np.ndarray:
    """|psi|^2 for the sample ``conjmeas.sample_haar(dim, n, seed)`` draws."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    z = rng.standard_normal((n, 2 * dim))
    pops = z[:, :dim] ** 2 + z[:, dim:] ** 2
    return pops / pops.sum(axis=1, keepdims=True)


def probe_diagonals(s: float, j: float, g: float, theta: float) -> np.ndarray:
    """(2j+1, 2s+1) complex array a[m, sigma], m and sigma ascending.

    a = e^{-i j pi/2} q_m (u + v)^{j-m} (u - v)^{j+m} with
    u = e^{-i g sigma} cos(theta/2), v = i e^{i g sigma} sin(theta/2) and
    q_m^2 the binomial weight C(2j, j+m) / 4^j.
    """
    two_j = round(2 * j)
    two_s = round(2 * s)
    up = np.arange(two_j + 1, dtype=float)             # j + m
    sigma = np.arange(-two_s, two_s + 1, 2) / 2.0
    log_q = 0.5 * np.array(
        [math.lgamma(two_j + 1) - math.lgamma(k + 1) - math.lgamma(two_j - k + 1) for k in up]
    ) - j * math.log(2.0)
    u = np.exp(-1j * g * sigma) * math.cos(theta / 2)
    v = 1j * np.exp(1j * g * sigma) * math.sin(theta / 2)
    down = two_j - up                                  # j - m
    return (
        np.exp(-1j * j * math.pi / 2)
        * np.exp(log_q)[:, None]
        * (u + v)[None, :] ** down[:, None]
        * (u - v)[None, :] ** up[:, None]
    )


def _info_bits(w: np.ndarray) -> float:
    post = w / w.sum()
    nz = post[post > 0]
    return max(math.log2(w.size) + float(np.sum(nz * np.log2(nz))), 0.0)


def spin_first_stage(s, j, g, theta, n, seed):
    """Arrays p(m), F(m), I(m) for the spin probe on the seeded Haar sample."""
    pops = haar_populations(round(2 * s) + 1, n, seed)
    diags = probe_diagonals(s, j, g, theta)
    p = np.empty(len(diags))
    fid = np.empty(len(diags))
    info = np.empty(len(diags))
    for k, a in enumerate(diags):
        w = pops @ (np.abs(a) ** 2)
        amp = pops @ a
        p[k] = w.mean()
        fid[k] = np.mean(np.abs(amp) * np.sqrt(w)) / p[k]
        info[k] = _info_bits(w)
    return p, fid, info
