"""Lag stacking from trajectories to regression samples, the end-to-end fit, and realization."""

from __future__ import annotations

import warnings as _warnings
from dataclasses import replace

import numpy as np

from .errors import DegenerateMixtureError, InsufficientLengthError
from .lds import StateSpace, TrajectoryDataset
from .mlr import (_SIGMA_K_FLOOR, MixtureEstimate, estimate_m2, estimate_whitened_m3, mlr_fit,
                  refine_first_moment, whitening_from_m2)
from .util import cpu_count, fmt, format_rows, parse_rows, parse_weight, read_text

# a moment pass of mlds_fit of at most _ROW_BUDGET lag rows is one block (every
# pass at N=1e4, T=96, L=7); a longer one sums blocks of _CACHE_ROWS rows, whose
# X (0.9 MB at L*m=7) and the stage's copies of it fit in a 2 MB L2 cache
_ROW_BUDGET = 1 << 17
_CACHE_ROWS = 1 << 14


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
    times = stack_times(T, L) has S entries. A non-finite value in X or y
    (an input that overflows when scaled, or an array changed after the
    dataset was checked) is a ValueError.
    """
    if not sigma_u > 0.0:
        raise ValueError(f"sigma_u must be positive, got {sigma_u!r}")
    if sigma_u == np.inf:  # it would make every lag row 0
        raise ValueError("sigma_u must be finite, got inf")
    times = stack_times(dataset.T, L)
    X = _lag_rows(dataset.inputs[start:stop], L, times)
    if sigma_u != 1.0:  # a division by 1.0 changes no value
        with np.errstate(over="ignore"):  # an overflow is reported by the check below
            X /= sigma_u
    y = dataset.outputs[start:stop, L - 1:times[-1]:L].flatten()  # a copy of the outputs at steps times - 1
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("X and y must be finite")
    return X, y


def trajectory_blocks(start: int, stop: int, rows_per_trajectory: int, budget: int):
    """Consecutive (a, b) ranges covering trajectories [start, stop) under a row budget.

    Each range holds max(1, budget // rows_per_trajectory) trajectories (the
    last one may hold fewer), so it has at most budget rows unless a single
    trajectory exceeds the budget. mlds_fit's passes are one range under
    _ROW_BUDGET or ranges under min(_ROW_BUDGET, _CACHE_ROWS).
    """
    step = max(1, budget // max(1, rows_per_trajectory))
    for a in range(start, stop, step):
        yield a, min(a + step, stop)


def _block_sum(name, stage, dataset, L, sigma_u, start, stop):
    # the sum of share * stage(X, y, blocked) over the stacked (X, y) of
    # trajectories [start, stop), share being the block's fraction of the
    # range's rows and blocked whether the pass has more than _ROW_BUDGET rows
    # (a property of the input, so a stage may trade bits for speed only where
    # the sum rounds differently anyway). Such a pass is cut into blocks of at
    # most min(_ROW_BUDGET, _CACHE_ROWS) rows; any other is one block, whose
    # share 1.0 gives stage(X, y, False) bit for bit.
    # A pass of several blocks on two CPUs or more sums its first half of the
    # blocks on the calling thread and the second half on one pool thread
    # (numpy releases the GIL in the block work), so at most two blocks, each
    # holding its stacked X and the stage's copies of it, are in flight on any
    # host. The terms are added in block order, so the sum has the same bits
    # on any CPU count, and an error in the first half, raised first, precedes
    # any in the second. Finite data too large for its powers overflows the
    # moment, which is reported by name with the data's scale.
    S = len(stack_times(dataset.T, L))
    blocks = list(trajectory_blocks(start, stop, S, _ROW_BUDGET))
    if blocked := len(blocks) > 1:
        blocks = list(trajectory_blocks(start, stop, S, min(_ROW_BUDGET, _CACHE_ROWS)))

    def terms(part):
        # errstate is per thread, and a new thread starts from numpy's defaults
        with np.errstate(over="ignore", invalid="ignore"):
            return [(b - a) / (stop - start) * stage(*build_stacked(dataset, L, sigma_u, a, b), blocked)
                    for a, b in part]

    if blocked and cpu_count() > 1:
        from concurrent.futures import ThreadPoolExecutor  # only multi-block passes pay for the import

        half = (len(blocks) + 1) // 2
        with ThreadPoolExecutor(1) as pool:
            second = pool.submit(terms, blocks[half:])
            parts = terms(blocks[:half]) + second.result()
    else:
        parts = terms(blocks)
    with np.errstate(over="ignore", invalid="ignore"):
        total = sum(parts[1:], parts[0])
    if not np.isfinite(total).all():
        raise ValueError(f"{name} overflows float64: the outputs reach |y| = {np.abs(dataset.outputs).max():.3g} "
                         f"and the scaled inputs |u|/sigma_u = {np.abs(dataset.inputs).max() / sigma_u:.3g}; "
                         "rescale the data")
    return total


def _negative_sigma_hint(dataset, sigma_u, stop):
    # sum_k p_k b_k b_k' has no negative eigenvalue, so a negative sigma_K of
    # the sampled M2 of trajectories [0, stop) comes from inputs off their
    # assumed scale or from a mixture too ill-conditioned for this sample. The
    # scaled inputs tell them apart: standard Gaussian values have mean square
    # 1 (standard error sqrt(2/n)) and mean fourth power 3 (sqrt(96/n)); both
    # are summed over blocks of at most _ROW_BUDGET values
    s2 = s4 = 0.0
    for a, b in trajectory_blocks(0, stop, dataset.T * dataset.m, _ROW_BUDGET):
        sq = np.square(dataset.inputs[a:b] / sigma_u)
        s2, s4 = s2 + float(sq.sum()), s4 + float(np.vdot(sq, sq))
    n = stop * dataset.T * dataset.m
    if abs(s2 / n - 1.0) > 5.0 * np.sqrt(2.0 / n) or abs(s4 / n - 3.0) > 5.0 * np.sqrt(96.0 / n):
        return ("the inputs do not look standard Gaussian at sigma_u, so the input scale (--sigma-u) "
                "is the first thing to check")
    return (f"the inputs look standard Gaussian at sigma_u (mean square {s2 / n:.5f}, mean fourth power "
            f"{s4 / n:.4f}), so the mixture is ill-conditioned at this horizon for this N")


def mlds_fit(dataset: TrajectoryDataset, L: int, K: int, sigma_u: float = 1.0,
             n_restarts=None, n_iters: int = 100, seed: int = 0, refine: bool = False) -> MixtureEstimate:
    """Estimate K horizon-L Markov vectors and mixture weights from unlabeled trajectories.

    The rows of the first ceil(N/2) trajectories feed M2 and the rest the
    whitened M3. With refine=True the weights are then re-solved against the
    first moment of all rows (refine_first_moment). A moment over at most
    _ROW_BUDGET rows is one block; a longer one sums its L2-sized blocks of at
    most _CACHE_ROWS rows, weighted by row share, so the stacked X of all
    trajectories never exists. The M3 blocks come after whitening.
    Where the process has two CPUs or more, a pass of several blocks sums
    its first half of the blocks on the calling thread and the second half on
    one pool thread, so at most two blocks are in flight, and adds the terms
    in block order, so the estimate's bits do not depend on the CPU count.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    stack_times(dataset.T, L)  # checks L and T before L*m is read
    if K > L * dataset.m:
        raise ValueError(f"K={K} exceeds the covariate dimension L*m={L * dataset.m}")
    N, n2 = dataset.N, (dataset.N + 1) // 2
    if n2 == N:
        raise ValueError("both moment halves must be non-empty")
    M2 = _block_sum("M2", lambda X, y, _: estimate_m2(X, y), dataset, L, sigma_u, 0, n2)
    try:
        W, P = whitening_from_m2(M2, K)
    except DegenerateMixtureError as exc:
        if not exc.sigma < -_SIGMA_K_FLOOR:
            raise
        raise DegenerateMixtureError(f"{exc}; {_negative_sigma_hint(dataset, sigma_u, n2)}", exc.sigma) from None
    M3w = _block_sum("the whitened M3", lambda X, y, blocked: estimate_whitened_m3(X, y, W, blocked),
                     dataset, L, sigma_u, n2, N)
    est = mlr_fit(M3w, P, K, n_restarts=n_restarts, n_iters=n_iters, seed=seed)
    if refine:
        m1 = _block_sum("the first moment", lambda X, y, _: X.T @ y / y.shape[0], dataset, L, sigma_u, 0, N)
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
    if outputs.shape != inputs.shape[:-1]:
        raise ValueError("inputs and outputs must cover the same T steps")
    stack_times(T, L)  # checks L, then T
    times = np.arange(L, T + 1)
    rows, dim = times.shape[0], L * m
    A = _lag_rows(inputs, L, times).reshape(-1, rows, dim)
    b = outputs[..., times - 1].reshape(-1, rows, 1)
    if rows < dim:
        _warnings.warn("ols_markov: fewer rows than unknowns; returning the minimum-norm solution",
                       RuntimeWarning, stacklevel=2)
        g = np.empty((A.shape[0], dim, 1))
        deficient = np.ones(A.shape[0], dtype=bool)
    else:
        Q, R = np.linalg.qr(A)
        diag = np.abs(np.diagonal(R, axis1=-2, axis2=-1))
        # lstsq's rank cutoff eps * max(rows, dim) * s_max, read on R's diagonal
        cutoff = np.finfo(float).eps * rows * diag.max(axis=-1)
        deficient = (diag <= cutoff[:, None]).any(axis=-1)
        if deficient.any():
            _warnings.warn(f"ols_markov: {deficient.sum()} of {A.shape[0]} trajectories have rank-deficient "
                           "lag rows; returning the minimum-norm solution for them", RuntimeWarning, stacklevel=2)
            R[deficient] = np.eye(dim)  # solved by pinv below
        g = np.linalg.solve(R, Q.transpose(0, 2, 1) @ b)
    if deficient.any():  # lstsq's minimum-norm solution, with lstsq's cutoff
        g[deficient] = np.linalg.pinv(A[deficient], rcond=np.finfo(float).eps * max(rows, dim)) @ b[deficient]
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
        try:
            MixtureEstimate(weights[-1:], coeffs[-1:])  # checks this component alone
        except ValueError as exc:
            raise ValueError(f"line {pos + 1}: {exc}") from None
    return MixtureEstimate(weights, coeffs), L, m
