"""Symmetric (d, d, d) arrays and a restart-robust tensor power method."""

from __future__ import annotations

import numpy as np

from .errors import DecompositionError
from .util import child_generators

_PERMS = ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
_SYM_RTOL = 1e-12


def symmetrize(values) -> np.ndarray:
    """Average of the six index permutations of a (d, d, d) array."""
    values = np.asarray(values, dtype=float)
    out = values.copy()
    for perm in _PERMS:
        out += values.transpose(perm)
    return out / 6.0


def _check_symmetric(values) -> np.ndarray:
    # tensors from outside the package must be finite, (d, d, d) and invariant under index permutations
    values = np.asarray(values, dtype=float)
    if values.ndim != 3 or values.shape[0] < 1 or len(set(values.shape)) != 1:
        raise ValueError(f"expected a (d, d, d) array with d >= 1, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError("tensor entries must be finite")
    scale = float(np.abs(values).max())
    if scale > 0.0:
        defect = max(float(np.abs(values - values.transpose(p)).max()) for p in _PERMS)
        if defect > _SYM_RTOL * scale:
            raise ValueError(
                f"asymmetric entries: relative defect {defect / scale:.3e} exceeds {_SYM_RTOL:.0e}"
            )
    return values


def _apply(mat2, U, outer=None):
    # row r is M(I, u_r, u_r) for the tensor pre-reshaped to (d, d*d), the
    # outer products u_r u_r' going to the (R, d, d) buffer outer if given;
    # the stacked matmul calls the same per-row gemv as mat2 @ vector would
    outer = np.multiply(U[:, :, None], U[:, None, :], out=outer)
    return np.matmul(mat2, outer.reshape(U.shape[0], -1, 1))[:, :, 0]


def _row_dots(A, B):
    # per-row dot products through the same ddot kernel as a 1-d a @ b
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


def _cubic(mat2, U):
    # M(u_r, u_r, u_r) for every row of U
    return _row_dots(_apply(mat2, U), U)


def _power_iterations(mat2, U, n_iters):
    # n_iters normalized updates of every row of U (R, d); a row whose update
    # is zero keeps its last nonzero iterate, is flagged as collapsed, and
    # stays put because its update stays zero (until a row collapses, a plain
    # division gives the same bits). Each row's update depends on that row
    # alone, so once every row has the bits of its iterate two steps back
    # (compared as bytes, since -0.0 == 0.0 although their bits and those of
    # later iterates differ), the rows cycle with period two and no flag can
    # change; the parity of the remaining steps then picks the result
    outer = np.empty((U.shape[0], U.shape[1], U.shape[1]))
    older = old = None
    collapsed = np.zeros(U.shape[0], dtype=bool)
    for step in range(n_iters):
        W = _apply(mat2, U, outer)
        nrm = np.sqrt(_row_dots(W, W))
        collapsed |= nrm == 0.0
        older, old = old, U
        if collapsed.any():
            U = np.divide(W, nrm[:, None], out=old.copy(), where=~collapsed[:, None])
        else:
            U = W / nrm[:, None]
        if older is not None and U.tobytes() == older.tobytes():
            return (U if (n_iters - step) % 2 else old), collapsed
    return U, collapsed


def _unit_sphere(rng, d):
    while True:
        v = rng.normal(size=d)
        nrm = np.linalg.norm(v)
        if nrm > 0.0:
            return v / nrm


def robust_tpm(T, K: int, n_restarts=None, n_iters: int = 100, seed: int = 0):
    """Greedy rank-K decomposition of a symmetric (d, d, d) array by restarted power iteration with deflation.

    Each round runs n_iters power updates from n_restarts random unit starts
    (stream derived from (seed, round, restart), so restarts are order free),
    keeps the start with the largest T(u, u, u) (ties go to the lowest restart
    index), polishes it with n_iters further updates, records T(u, u, u) with
    its sign and u, and deflates. Restarts that collapse to a zero update are
    skipped; if every restart in a round collapses, a DecompositionError
    carrying the round index is raised. The restarts of a round advance
    together as one (n_restarts, d) array through the same per-restart gemv
    and dot kernels as one restart at a time, so the result has the same bits.

    Returns (lams, vecs): lams has shape (K,) and row k of vecs (K, d) is the
    unit vector extracted in round k.
    """
    T = _check_symmetric(T)
    if K < 1:
        raise ValueError("K must be >= 1")
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    if n_restarts is None:
        n_restarts = 20 * K
    if n_restarts < 1:
        raise ValueError("n_restarts must be >= 1")
    d = T.shape[0]
    lams = np.empty(K)
    vecs = np.empty((K, d))
    for rnd in range(K):
        mat2 = T.reshape(d, -1)
        starts = np.stack([_unit_sphere(rng, d) for rng in child_generators((seed, rnd + 1), n_restarts)])
        U, collapsed = _power_iterations(mat2, starts, n_iters)
        alive = np.flatnonzero(~collapsed)
        if alive.size == 0:
            raise DecompositionError(rnd, f"every restart collapsed to a zero update in round {rnd}")
        best = U[alive[np.argmax(_cubic(mat2, U[alive]))]]
        U, _ = _power_iterations(mat2, best[None, :], n_iters)
        lam, u = float(_cubic(mat2, U)[0]), U[0]
        lams[rnd], vecs[rnd] = lam, u
        T = T - lam * np.einsum("i,j,k->ijk", u, u, u)
    return lams, vecs
