"""Reference tensor operations on plain (d, d, d) arrays, used only by the tests."""

import numpy as np


def outer3(v) -> np.ndarray:
    """Symmetric rank-1 tensor v (x) v (x) v."""
    v = np.asarray(v, dtype=float).reshape(-1)
    return np.einsum("i,j,k->ijk", v, v, v)


def contract(M, a, b, c) -> float:
    """Trilinear form M(a, b, c) = sum_ijk M_ijk a_i b_j c_k."""
    return float(np.einsum("ijk,i,j,k->", M, a, b, c))


def power_update(M, u) -> np.ndarray:
    """One normalized step u -> M(I, u, u) / ||M(I, u, u)||; a zero update raises ValueError."""
    u = np.asarray(u, dtype=float).reshape(-1)
    w = np.einsum("ijk,j,k->i", M, u, u)
    nrm = float(np.linalg.norm(w))
    if nrm == 0.0:
        raise ValueError("power update produced the zero vector")
    return w / nrm


def op_norm_estimate(M, n_restarts: int = 50, n_iters: int = 100, seed: int = 0) -> float:
    """Lower estimate of sup |M(u, u, u)| over the unit sphere via restarted power iterations."""
    M = np.asarray(M, dtype=float)
    best = 0.0
    for restart in range(n_restarts):
        rng = np.random.default_rng(np.random.SeedSequence((seed, restart + 1)))
        u = rng.normal(size=M.shape[0])
        while np.linalg.norm(u) == 0.0:
            u = rng.normal(size=M.shape[0])
        u = u / np.linalg.norm(u)
        for _ in range(n_iters):
            try:
                u = power_update(M, u)
            except ValueError:
                break
        best = max(best, abs(contract(M, u, u, u)))
    return best
