"""Lag stacking from trajectories to regression samples, the end-to-end fit, and realization."""

from __future__ import annotations

import warnings as _warnings
from dataclasses import replace

import numpy as np

from .errors import InsufficientLengthError
from .lds import StateSpace, TrajectoryDataset
from .mlr import (MixtureEstimate, estimate_m2, estimate_whitened_m3, mlr_fit, refine_first_moment,
                  whitening_from_m2)
from .util import fmt, format_rows, parse_rows, parse_weight, read_text

# lag rows per block of the moment passes in mlds_fit: at N=1e4, T=96, L=7
# every pass, the refine pass over all 130 000 rows included, is one block
_ROW_BUDGET = 1 << 17


def stack_times(T: int, L: int) -> np.ndarray:
    """Subsampled times t = L, 2L, ..., floor(T/L)*L; leftover steps are discarded."""
    if L < 1:
        raise ValueError("L must be >= 1")
    if T < L:
        raise InsufficientLengthError(f"trajectory length T={T} is shorter than the horizon L={L}")
    return np.arange(L, T + 1, L)


def _lag_rows(inputs, L, times):
    # one row (u_{t-1}, u_{t-2}, ..., u_{t-L}) flattened per time t, for every
    # trajectory along the leading axes of inputs (trajectory-major order);
    # take() returns a C-ordered array, so the reshape is a view, not a copy
    lags = times[:, None] - 1 - np.arange(L)
    return np.take(inputs, lags, axis=-2).reshape(-1, L * inputs.shape[-1])


def build_stacked(dataset: TrajectoryDataset, L: int, sigma_u: float = 1.0, start: int = 0, stop=None):
    """Stack trajectories [start, stop) at the subsampled times; covariates are scaled by 1/sigma_u.

    stop=None means through the last trajectory. Returns (X, y): row
    (i - start)*S + s comes from trajectory i at time times[s], where
    times = stack_times(T, L) has S entries.
    """
    if not sigma_u > 0.0:
        raise ValueError(f"sigma_u must be positive, got {sigma_u!r}")
    times = stack_times(dataset.T, L)
    X = _lag_rows(dataset.inputs[start:stop], L, times)
    with np.errstate(over="ignore"):  # an overflow is reported by the check below
        X /= sigma_u
    if not np.isfinite(X).all():
        raise ValueError("X and y must be finite")
    return X, dataset.outputs[start:stop, times - 1].reshape(-1)


def trajectory_blocks(start: int, stop: int, rows_per_trajectory: int, budget: int):
    """Consecutive (a, b) ranges covering trajectories [start, stop) under a row budget.

    Each range holds max(1, budget // rows_per_trajectory) trajectories (the
    last one may hold fewer), so it has at most budget rows unless a single
    trajectory exceeds the budget.
    """
    step = max(1, budget // max(1, rows_per_trajectory))
    for a in range(start, stop, step):
        yield a, min(a + step, stop)


def _block_sum(name, stage, dataset, L, sigma_u, start, stop):
    # the sum of share * stage(X, y) over the stacked (X, y) of trajectories
    # [start, stop) in blocks of at most _ROW_BUDGET rows, share being the
    # block's fraction of the range's rows; a lone block has share 1.0 and so
    # gives stage(X, y) bit for bit. Finite data too large for its powers
    # overflows the moment, which is reported by name with the data's scale.
    total = None
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in trajectory_blocks(start, stop, dataset.T // L, _ROW_BUDGET):
            term = (b - a) / (stop - start) * stage(*build_stacked(dataset, L, sigma_u, a, b))
            total = term if total is None else total + term
    if not np.isfinite(total).all():
        raise ValueError(f"{name} overflows float64: the outputs reach |y| = {np.abs(dataset.outputs).max():.3g} "
                         f"and the scaled inputs |u|/sigma_u = {np.abs(dataset.inputs).max() / sigma_u:.3g}; "
                         "rescale the data")
    return total


def mlds_fit(dataset: TrajectoryDataset, L: int, K: int, sigma_u: float = 1.0,
             n_restarts=None, n_iters: int = 100, seed: int = 0, refine: bool = False) -> MixtureEstimate:
    """Estimate K horizon-L Markov vectors and mixture weights from unlabeled trajectories.

    The rows of the first ceil(N/2) trajectories feed M2 and the rest the
    whitened M3. With refine=True the weights are then re-solved against the
    first moment of all rows (refine_first_moment). Each moment sums its
    blocks of at most _ROW_BUDGET rows, weighted by row share, so the stacked
    X of all trajectories never exists; the M3 blocks come after whitening.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    stack_times(dataset.T, L)  # checks L and T before L*m is read
    if K > L * dataset.m:
        raise ValueError(f"K={K} exceeds the covariate dimension L*m={L * dataset.m}")
    N, n2 = dataset.N, (dataset.N + 1) // 2
    if n2 == N:
        raise ValueError("both moment halves must be non-empty")
    W, P = whitening_from_m2(_block_sum("M2", estimate_m2, dataset, L, sigma_u, 0, n2), K)
    M3w = _block_sum("the whitened M3", lambda X, y: estimate_whitened_m3(X, y, W), dataset, L, sigma_u, n2, N)
    est = mlr_fit(M3w, P, K, n_restarts=n_restarts, n_iters=n_iters, seed=seed)
    if refine:
        m1 = _block_sum("the first moment", lambda X, y: X.T @ y / y.shape[0], dataset, L, sigma_u, 0, N)
        est = refine_first_moment(est, m1)
    return replace(est, coeffs=est.coeffs / sigma_u)


def ols_markov(inputs, outputs, L: int) -> np.ndarray:
    """Per-trajectory least squares over every time t in [L, T] (overlapping windows).

    inputs (T, m) with outputs (T,) give the (L, m) Markov parameter
    estimate, row t-1 being g(t); inputs (..., T, m) with outputs (..., T)
    fit every trajectory along the leading axes and give (..., L, m). Each
    trajectory is solved by QR. A rank-deficient one (fewer rows than L*m
    unknowns, or an R diagonal at or below lstsq's cutoff) gets lstsq's
    minimum-norm solution instead, with one warning per call.
    """
    inputs = np.asarray(inputs, dtype=float)
    outputs = np.asarray(outputs, dtype=float)
    if inputs.ndim < 2:
        raise ValueError(f"inputs must have shape (..., T, m), got {inputs.shape}")
    *lead, T, m = inputs.shape
    if L < 1:
        raise ValueError("L must be >= 1")
    if outputs.shape != inputs.shape[:-1]:
        raise ValueError("inputs and outputs must cover the same T steps")
    if T < L:
        raise InsufficientLengthError(f"trajectory length T={T} is shorter than the horizon L={L}")
    times = np.arange(L, T + 1)
    rows, dim = times.shape[0], L * m
    A = _lag_rows(inputs, L, times).reshape(-1, rows, dim)
    b = outputs[..., times - 1].reshape(-1, rows, 1)
    if rows < dim:
        _warnings.warn("ols_markov: fewer rows than unknowns; returning the minimum-norm solution",
                       RuntimeWarning, stacklevel=2)
        g = np.empty((A.shape[0], dim, 1))
        deficient = np.arange(A.shape[0])
    else:
        Q, R = np.linalg.qr(A)
        diag = np.abs(np.diagonal(R, axis1=-2, axis2=-1))
        # lstsq's rank cutoff eps * max(rows, dim) * s_max, read on R's diagonal
        cutoff = np.finfo(float).eps * rows * diag.max(axis=-1)
        deficient = np.flatnonzero((diag <= cutoff[:, None]).any(axis=-1))
        if deficient.size:
            _warnings.warn(f"ols_markov: {deficient.size} of {A.shape[0]} trajectories have rank-deficient "
                           "lag rows; returning the minimum-norm solution for them", RuntimeWarning, stacklevel=2)
            R[deficient] = np.eye(dim)  # solved by lstsq below
        g = np.linalg.solve(R, Q.transpose(0, 2, 1) @ b)
    for i in deficient:
        g[i], *_ = np.linalg.lstsq(A[i], b[i], rcond=None)
    return g.reshape(*lead, L, m)


def ho_kalman(g, n: int) -> StateSpace:
    """Balanced realization of order n from the (L, m) Markov parameters g, row t-1 being g(t).

    Layout: the Hankel has blocks H[i, j] = g(i + j + 1) for 0-based (i, j)
    with n1 = n2 = floor(L/2), so it starts at g(1) and the shifted Hankel at
    g(2); C B then reproduces g(1) by construction. When the numerical rank r
    of the Hankel falls below n (over-parameterized request), the realization
    is computed at rank r and zero-padded to order n, which keeps it stable
    and exact instead of amplifying null directions through pseudo-inverses.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2:
        raise ValueError(f"g must be an (L, m) array, got shape {g.shape}")
    if n < 1:
        raise ValueError("n must be >= 1")
    L, m = g.shape
    if L < 2 * n + 1:
        raise InsufficientLengthError(f"need L >= 2n+1 = {2 * n + 1} Markov parameters for order n={n}, got L={L}")
    n1 = L // 2
    blocks = np.add.outer(np.arange(n1), np.arange(n1))  # 0-based row of g(i + j + 1)
    H = g[blocks].reshape(n1, n1 * m)
    Hs = g[blocks + 1].reshape(n1, n1 * m)
    U, s, Vt = np.linalg.svd(H, full_matrices=False)
    if s.shape[0] > n and s[n] > 0.1 * s[n - 1]:
        _warnings.warn(f"ho_kalman: sigma_{n + 1} = {s[n]:.3e} exceeds 0.1 * sigma_{n} = {0.1 * s[n - 1]:.3e}; "
                       "the data suggests a higher order", RuntimeWarning, stacklevel=2)
    tol = 1e-10 * s[0] if s[0] > 0.0 else 0.0
    r = int(np.sum(s[:n] > tol))
    if r < n:
        _warnings.warn(f"ho_kalman: Hankel numerical rank {r} is below the requested order {n}",
                       RuntimeWarning, stacklevel=2)
    A = np.zeros((n, n))
    B = np.zeros((n, m))
    C = np.zeros(n)
    if r > 0:
        root = np.sqrt(s[:r])
        Ur = U[:, :r]
        Vr = Vt[:r]
        C[:r] = Ur[0] * root
        B[:r] = (root[:, None] * Vr)[:, :m]
        A[:r, :r] = (Ur.T @ Hs @ Vr.T) / np.outer(root, root)
    return StateSpace(A, B, C)


def estimate_text(est: MixtureEstimate, L: int, m: int) -> str:
    """Render the mlds-estimate v1 text format."""
    if est.dim != L * m:
        raise ValueError(f"coefficient length {est.dim} does not match L*m = {L * m}")
    lines = [f"mlds-estimate v1, K={est.K}, L={L}, m={m}"]
    for k in range(est.K):
        lines += [f"weight {fmt(est.weights[k])}", format_rows(est.coeffs[k].reshape(L, m))]
    return "\n".join(lines) + "\n"


def load_estimate(path):
    """Read the mlds-estimate v1 format; returns (MixtureEstimate, L, m).

    Lines after the K components (e.g. appended realizations) are ignored.
    """
    lines, (K, L, m) = read_text(path, "mlds-estimate", ("K", "L", "m"))
    needed = 1 + K * (1 + L)
    if len(lines) < needed:
        raise ValueError(f"expected at least {needed} lines for K={K}, L={L}, got {len(lines)}")
    weights, coeffs = [], []
    for pos in range(1, needed, 1 + L):  # 0-based index of each component's weight line
        weights.append(parse_weight(lines[pos], pos + 1))
        coeffs.append(parse_rows(lines[pos + 1 : pos + 1 + L], m, pos + 2).ravel())
    return MixtureEstimate(weights, coeffs), L, m
