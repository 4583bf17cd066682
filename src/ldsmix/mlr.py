"""Moment estimators and spectral decomposition for mixtures of linear regressions.

Covariates are assumed isotropic standard Gaussian; callers rescale by their
known input scale before building a RegressionDataset.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateMixtureError
from .tensor3 import apply_matrix3, robust_tpm, symmetrize

_WEIGHT_CLAMP = 1e-6


@dataclass
class RegressionDataset:
    """Samples (x_i, y_i) with a fixed split into the M2 half and the M3 half."""

    X: np.ndarray
    y: np.ndarray
    idx_m2: np.ndarray
    idx_m3: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float).reshape(-1)
        self.idx_m2 = np.asarray(self.idx_m2, dtype=np.intp).reshape(-1)
        self.idx_m3 = np.asarray(self.idx_m3, dtype=np.intp).reshape(-1)
        if self.X.ndim != 2 or self.X.shape[0] != self.y.shape[0]:
            raise ValueError("X must be (N, d) with one response per row")
        if not (np.isfinite(self.X).all() and np.isfinite(self.y).all()):
            raise ValueError("X and y must be finite")
        N = self.y.shape[0]
        if self.idx_m2.size == 0 or self.idx_m3.size == 0:
            raise ValueError("both moment halves must be non-empty")
        both = np.concatenate([self.idx_m2, self.idx_m3])
        # N in-range indices with no index counted twice cover range(N) exactly
        if (both.size != N or both.min() < 0 or both.max() >= N
                or np.bincount(both, minlength=N).max() > 1):
            raise ValueError("idx_m2 and idx_m3 must partition range(N)")

    @classmethod
    def split_halves(cls, X, y) -> "RegressionDataset":
        """Default split: the first ceil(N/2) samples feed M2, the rest feed M3."""
        y = np.asarray(y, dtype=float).reshape(-1)
        cut = (y.shape[0] + 1) // 2
        return cls(X, y, np.arange(cut), np.arange(cut, y.shape[0]))

    @property
    def dim(self) -> int:
        return self.X.shape[1]


@dataclass
class WhiteningMatrix:
    """W with W' M2 W = I_K, plus the pseudo-inverse of W' that undoes it."""

    W: np.ndarray                # (d, K)
    pinv_wt: np.ndarray          # (d, K), equals U_K Sigma_K^(1/2)
    singular_values: np.ndarray  # (K,) retained spectrum of M2, descending


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


def estimate_m2(data: RegressionDataset) -> np.ndarray:
    """Average of y^2 (x x' - I) / 2 over the M2 half; unbiased for sum_k p_k b_k b_k'."""
    X = data.X[data.idx_m2]
    y = data.y[data.idx_m2]
    n = y.shape[0]
    w = y * y
    M = (X * w[:, None]).T @ X / (2.0 * n)
    M -= (float(w.sum()) / (2.0 * n)) * np.eye(data.dim)
    return (M + M.T) / 2


def whitening_from_m2(M2, K: int, threshold: float = 1e-10) -> WhiteningMatrix:
    """Top-K spectral whitening of a symmetric second-moment estimate.

    Raises DegenerateMixtureError when the K-th retained eigenvalue does not
    clear the threshold (the mixture is rank deficient at this horizon).
    """
    M2 = np.asarray(M2, dtype=float)
    if M2.ndim != 2 or M2.shape[0] != M2.shape[1]:
        raise ValueError(f"M2 must be square, got shape {M2.shape}")
    if not 1 <= K <= M2.shape[0]:
        raise ValueError(f"K must be in [1, {M2.shape[0]}]")
    evals, vecs = np.linalg.eigh((M2 + M2.T) / 2)
    sig = evals[-K:][::-1].copy()
    if not sig[-1] > threshold:
        raise DegenerateMixtureError(
            f"whitening needs sigma_K > {threshold:g}, got sigma_{K} = {sig[-1]:.6e}",
            sigma=float(sig[-1]),
        )
    U = vecs[:, -K:][:, ::-1]
    root = np.sqrt(sig)
    return WhiteningMatrix(W=U / root, pinv_wt=U * root, singular_values=sig)


def estimate_whitened_m3(data: RegressionDataset, wh: WhiteningMatrix) -> np.ndarray:
    """Whitened third-moment estimate, a symmetric (K, K, K) array built directly in the whitened basis.

    Each sample contributes y^3 [(W'x)^(x3) - sym3(W'x, W'W)] / (6 n3), where
    sym3(z, G)_{abc} = z_a G_bc + z_b G_ac + z_c G_ab is the Gaussian
    correction pushed through the whitening map. Because the correction is
    linear in z, it collapses to three rank-1 terms of the weighted mean.
    """
    X = data.X[data.idx_m3]
    y = data.y[data.idx_m3]
    n = y.shape[0]
    Z = X @ wh.W
    w = (y ** 3) / (6.0 * n)
    cube = np.einsum("i,ia,ib,ic->abc", w, Z, Z, Z, optimize=True)
    s = w @ Z
    G = wh.W.T @ wh.W
    G = (G + G.T) / 2
    corr = (
        np.einsum("a,bc->abc", s, G)
        + np.einsum("b,ac->abc", s, G)
        + np.einsum("c,ab->abc", s, G)
    )
    return symmetrize(cube - corr)


def _dewhiten(lams, vecs, wh: WhiteningMatrix) -> MixtureEstimate:
    # each eigenvalue estimates 1/sqrt(p); flip negative signs into the vector,
    # clamp tiny values (heavy noise) and flag the result as low confidence
    K = lams.shape[0]
    d = wh.W.shape[0]
    weights = np.empty(K)
    coeffs = np.empty((K, d))
    notes = []
    for k, v in enumerate(vecs):
        lam = float(lams[k])
        if lam < 0.0:
            lam, v = -lam, -v
        if lam < _WEIGHT_CLAMP:
            notes.append(f"component {k}: eigenvalue {lam:.3e} clamped to {_WEIGHT_CLAMP:g} (low confidence)")
            lam = _WEIGHT_CLAMP
        weights[k] = 1.0 / (lam * lam)
        coeffs[k] = lam * (wh.pinv_wt @ v)
    return MixtureEstimate(weights, coeffs, tuple(notes))


def mlr_fit(data: RegressionDataset, K: int, n_restarts=None, n_iters: int = 100,
            seed: int = 0, threshold: float = 1e-10) -> MixtureEstimate:
    """Whiten the second moment, decompose the whitened third moment, undo the whitening."""
    M2 = estimate_m2(data)
    wh = whitening_from_m2(M2, K, threshold)
    M3w = estimate_whitened_m3(data, wh)
    lams, vecs = robust_tpm(M3w, K, n_restarts=n_restarts, n_iters=n_iters, seed=seed)
    return _dewhiten(lams, vecs, wh)


def fit_from_moments(M2, M3, K: int, n_restarts=None, n_iters: int = 100,
                     seed: int = 0, threshold: float = 1e-10) -> MixtureEstimate:
    """The same whiten/decompose/dewhiten pipeline driven by externally supplied moments.

    M3 is a symmetric (d, d, d) array; other shapes and asymmetric entries are rejected.
    """
    wh = whitening_from_m2(M2, K, threshold)
    M3w = apply_matrix3(M3, wh.W)
    lams, vecs = robust_tpm(M3w, K, n_restarts=n_restarts, n_iters=n_iters, seed=seed)
    return _dewhiten(lams, vecs, wh)


def refine_first_moment(est: MixtureEstimate, data: RegressionDataset) -> MixtureEstimate:
    """Re-solve the weights against the empirical first moment, coefficients fixed.

    Minimizes ||sum_k p_k b_k - m1|| subject to sum_k p_k = 1 through the KKT
    system, then clamps the weights at 1e-6 and renormalizes. When the
    coefficient matrix is rank deficient the input is returned unchanged,
    with a note appended.
    """
    m1 = data.X.T @ data.y / data.y.shape[0]
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
