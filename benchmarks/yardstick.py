"""A fixed reference computation, timed right after every operation.

The speed of the benchmark machine drifts by 10-25% over tens of seconds to
minutes (README "Noise"), and every operation time moves with it.  The
yardstick is numpy work of the same kind and size as the operation it
follows: dense d x d branch evaluations over N random states (weight,
transition amplitude, fidelity and posterior entropy, as the statistics
kernels compute them) and, for sampling workloads, a loop of small-matrix
Born-rule draws.  It is the benchmark's own code, calls nothing of the
library and does the same work on every call, so the ratio of an
operation's time to the yardstick's cancels the machine's drift, while a
change to the library moves only the operation's time.
"""

from __future__ import annotations

import numpy as np

SEED = 20240601


def yardstick(n: int, dim: int, branches: int, draws: int = 0) -> float:
    rng = np.random.Generator(np.random.Philox(key=SEED))
    z = rng.standard_normal((n, 2 * dim))
    states = z[:, :dim] + 1j * z[:, dim:]
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    g = rng.standard_normal((branches, dim, dim)) + 1j * rng.standard_normal((branches, dim, dim))
    total = 0.0
    for op in g:
        phi = states @ op.T
        w = (phi.real ** 2 + phi.imag ** 2).sum(axis=1)
        amp = np.einsum("ni,ni->n", states.conj(), phi)
        p = w.mean()
        post = w / w.sum()
        nz = post[post > 0]
        total += np.mean(np.abs(amp) * np.sqrt(w)) / p - float(np.sum(nz * np.log2(nz)))
    rho = np.outer(states[0], states[0].conj())
    few = g[: min(branches, 6)]
    for _ in range(draws):
        q = np.array([np.trace(k @ rho @ k.conj().T).real for k in few])
        total += rng.choice(len(q), p=q / q.sum())
    return total
