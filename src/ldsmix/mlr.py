"""Moment estimators and spectral decomposition for mixtures of linear regressions.

Covariates are assumed isotropic standard Gaussian; callers rescale by their
known input scale before stacking the rows of X.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateMixtureError
from .tensor3 import robust_tpm, symmetrize

_WEIGHT_CLAMP = 1e-6
# the K-th retained eigenvalue of M2 must clear this for whitening
_SIGMA_K_FLOOR = 1e-10


@dataclass
class MixtureEstimate:
    """Estimated mixture: weights[k] goes with coefficient row coeffs[k]."""

    weights: np.ndarray
    coeffs: np.ndarray
    warnings: tuple = ()

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.ndim != 2 or self.coeffs.shape[0] != self.weights.shape[0]:
            raise ValueError("coeffs must be (K, d) matching the weights")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.coeffs).all()):
            raise ValueError("estimated weights and coefficients must be finite")
        if np.any(self.weights <= 0.0):
            raise ValueError("estimated weights must be strictly positive")

    @property
    def K(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]


def estimate_m2(X, y) -> np.ndarray:
    """Average of y^2 (x x' - I) / 2 over the rows of X; unbiased for sum_k p_k b_k b_k'."""
    n = y.shape[0]
    w = y * y
    M = (X * w[:, None]).T @ X / (2.0 * n)
    M -= (float(w.sum()) / (2.0 * n)) * np.eye(X.shape[1])
    return (M + M.T) / 2


def whitening_from_m2(M2, K: int):
    """Top-K spectral whitening of a symmetric second-moment estimate.

    Returns (W, P), both (d, K): W' M2 W = I_K, and P = U_K Sigma_K^(1/2) =
    pinv(W') undoes the whitening. Raises DegenerateMixtureError when the
    K-th retained eigenvalue does not clear 1e-10 (the mixture is rank
    deficient at this horizon).
    """
    M2 = np.asarray(M2, dtype=float)
    if M2.ndim != 2 or M2.shape[0] != M2.shape[1]:
        raise ValueError(f"M2 must be square, got shape {M2.shape}")
    if not 1 <= K <= M2.shape[0]:
        raise ValueError(f"K must be in [1, {M2.shape[0]}]")
    evals, vecs = np.linalg.eigh((M2 + M2.T) / 2)
    sig = evals[-K:][::-1].copy()
    if not sig[-1] > _SIGMA_K_FLOOR:
        raise DegenerateMixtureError(
            f"whitening needs sigma_K > {_SIGMA_K_FLOOR:g}, got sigma_{K} = {sig[-1]:.6e}",
            sigma=float(sig[-1]),
        )
    U = vecs[:, -K:][:, ::-1]
    root = np.sqrt(sig)
    return U / root, U * root


def estimate_whitened_m3(X, y, W) -> np.ndarray:
    """Whitened third-moment estimate over the rows of X, a symmetric (K, K, K) array built directly in the whitened basis.

    Each sample contributes y^3 [(W'x)^(x3) - sym3(W'x, W'W)] / (6 n3), where
    sym3(z, G)_{abc} = z_a G_bc + z_b G_ac + z_c G_ab is the Gaussian
    correction pushed through the whitening map. Because the correction is
    linear in z, it collapses to three rank-1 terms of the weighted mean.
    """
    n = y.shape[0]
    Z = X @ W
    w = (y ** 3) / (6.0 * n)
    cube = np.einsum("i,ia,ib,ic->abc", w, Z, Z, Z, optimize=True)
    s = w @ Z
    G = W.T @ W
    G = (G + G.T) / 2
    corr = (
        np.einsum("a,bc->abc", s, G)
        + np.einsum("b,ac->abc", s, G)
        + np.einsum("c,ab->abc", s, G)
    )
    return symmetrize(cube - corr)


def mlr_fit(M3w, P, K: int, n_restarts=None, n_iters: int = 100, seed: int = 0) -> MixtureEstimate:
    """Decompose a whitened third moment and undo the whitening.

    M3w is the (K, K, K) third moment in the whitened basis and P the (d, K)
    map from whitening_from_m2 that undoes it. Each tensor eigenvalue
    estimates 1/sqrt(p); a negative one flips its sign into the vector, and
    one below 1e-6 (heavy noise) is clamped and flagged as low confidence.
    """
    lams, vecs = robust_tpm(M3w, K, n_restarts=n_restarts, n_iters=n_iters, seed=seed)
    weights = np.empty(K)
    coeffs = np.empty((K, P.shape[0]))
    notes = []
    for k, v in enumerate(vecs):
        lam = float(lams[k])
        if lam < 0.0:
            lam, v = -lam, -v
        if lam < _WEIGHT_CLAMP:
            notes.append(f"component {k}: eigenvalue {lam:.3e} clamped to {_WEIGHT_CLAMP:g} (low confidence)")
            lam = _WEIGHT_CLAMP
        weights[k] = 1.0 / (lam * lam)
        coeffs[k] = lam * (P @ v)
    return MixtureEstimate(weights, coeffs, tuple(notes))


def refine_first_moment(est: MixtureEstimate, m1) -> MixtureEstimate:
    """Re-solve the weights against the empirical first moment m1 = X'y / n, coefficients fixed.

    Minimizes ||sum_k p_k b_k - m1|| subject to sum_k p_k = 1 through the KKT
    system, then clamps the weights at 1e-6 and renormalizes. When the
    coefficient matrix is rank deficient the input is returned unchanged,
    with a note appended.
    """
    B = est.coeffs  # (K, d)
    K = est.K
    if np.linalg.matrix_rank(B) < K:
        return replace(est, warnings=est.warnings + ("refine skipped: rank-deficient coefficient matrix",))
    kkt = np.zeros((K + 1, K + 1))
    kkt[:K, :K] = B @ B.T
    kkt[:K, K] = 1.0
    kkt[K, :K] = 1.0
    rhs = np.append(B @ m1, 1.0)
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return replace(est, warnings=est.warnings + ("refine skipped: singular KKT system",))
    p = np.maximum(sol[:K], _WEIGHT_CLAMP)
    p = p / p.sum()
    return replace(est, weights=p)
