"""Reference implementations used only by the tests: tensor operations, the per-item loops, the moment and power-step kernels in their earlier forms, the fits from given moments or one array, a whole-file dataset reader, and an estimate file writer."""

import warnings
from dataclasses import replace

import numpy as np

from ldsmix import mlr
from ldsmix.lds import _DATASET_KEYS, TrajectoryDataset, _head_label
from ldsmix.pipeline import build_stacked, estimate_text
from ldsmix.tensor3 import symmetrize
from ldsmix.util import header_values, parse_rows


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


def change_basis3(M, V) -> np.ndarray:
    """Symmetrized multilinear change of basis: entry (a, b, c) = sum_ijk M_ijk V_ia V_jb V_kc."""
    return symmetrize(np.einsum("ijk,ia,jb,kc->abc", M, V, V, V, optimize=True))


def fit_from_moments(M2, M3, K, n_restarts=None, n_iters=100, seed=0):
    """The package's whiten/decompose/dewhiten pipeline driven by given population moments M2 and M3."""
    W, P = mlr.whitening_from_m2(M2, K)
    return mlr.mlr_fit(change_basis3(M3, W), P, K, n_restarts=n_restarts, n_iters=n_iters, seed=seed)


# Per-item loops that the package's batched kernels replace. Each batched
# kernel must reproduce them bit for bit (array_equal), not just closely.

def simulate_loop(ss, inputs, process_noise=None, measurement_noise=None) -> np.ndarray:
    """One trajectory, one time step at a time: x <- A x + B (u + w1), y = C x + w2."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim == 1:
        inputs = inputs[:, None]
    drive = inputs if process_noise is None else inputs + np.asarray(process_noise, dtype=float)
    x = np.zeros(ss.order)
    out = np.empty(inputs.shape[0])
    for t in range(inputs.shape[0]):
        x = ss.A @ x + ss.B @ drive[t]
        out[t] = ss.C @ x
    if measurement_noise is not None:
        out = out + np.asarray(measurement_noise, dtype=float).reshape(-1)
    return out


def generate_dataset_loop(model, N, T, noise, seed=0):
    """Labels, then one rollout per trajectory from SeedSequence((seed, 2, i + 1)); returns (U, Y, labels)."""
    labels = np.random.default_rng(np.random.SeedSequence((seed, 1))).choice(model.K, size=N, p=model.weights)
    m = model.input_dim
    U = np.empty((N, T, m))
    Y = np.empty((N, T))
    for i in range(N):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 2, i + 1)))
        U[i] = rng.normal(0.0, noise.sigma_u, size=(T, m))
        w1 = rng.normal(0.0, noise.sigma_w1, size=(T, m))
        w2 = rng.normal(0.0, noise.sigma_w2, size=T)
        Y[i] = simulate_loop(model.systems[labels[i]], U[i], w1, w2)
    return U, Y, labels


def power_loop(mat2, u, n_iters):
    """n_iters updates against the (d, d*d) reshaped tensor; returns (u, collapsed) at the first zero update."""
    for _ in range(n_iters):
        w = mat2 @ np.multiply.outer(u, u).ravel()
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return u, True
        u = w / nrm
    return u, False


def robust_tpm_loop(T, K, n_restarts=None, n_iters=100, seed=0):
    """Restarts one after another; the first strictly largest T(u, u, u) wins, collapsed restarts are skipped.

    Returns (lams, vecs), or the round index of the first round in which every restart collapsed.
    """
    T = np.asarray(T, dtype=float)
    n_restarts = 20 * K if n_restarts is None else n_restarts
    d = T.shape[0]
    lams, vecs = np.empty(K), np.empty((K, d))
    for rnd in range(K):
        mat2 = T.reshape(d, -1)
        best_u, best_val = None, -np.inf
        for restart in range(n_restarts):
            rng = np.random.default_rng(np.random.SeedSequence((seed, rnd + 1, restart + 1)))
            u = rng.normal(size=d)
            while np.linalg.norm(u) == 0.0:
                u = rng.normal(size=d)
            u, collapsed = power_loop(mat2, u / np.linalg.norm(u), n_iters)
            if collapsed:
                continue
            val = float(mat2 @ np.multiply.outer(u, u).ravel() @ u)
            if best_u is None or val > best_val:
                best_u, best_val = u, val
        if best_u is None:
            return rnd
        u, _ = power_loop(mat2, best_u, n_iters)
        lams[rnd] = float(mat2 @ np.multiply.outer(u, u).ravel() @ u)
        vecs[rnd] = u
        T = T - lams[rnd] * np.einsum("i,j,k->ijk", u, u, u)
    return lams, vecs


# The moment-pass and power-step kernels before the passes that change no
# value were cut from them. The package's kernels must give the same bytes.

def build_stacked_divide(dataset, L, sigma_u=1.0, start=0, stop=None):
    """Lag rows of trajectories [start, stop) divided by sigma_u, 1.0 included, and y gathered by the index times - 1."""
    times = np.arange(L, dataset.T + 1, L)
    lags = times[:, None] - 1 - np.arange(L)
    X = np.take(dataset.inputs[start:stop], lags, axis=-2).reshape(-1, L * dataset.m)
    X /= sigma_u
    return X, dataset.outputs[start:stop, times - 1].reshape(-1)


def whitened_m3_broadcast(X, y, W):
    """estimate_whitened_m3(X, y, W, blas=True) with each product of the cube's K gemm calls formed as Z * t[:, None]."""
    n = y.shape[0]
    Z = X @ W
    w = y * y * y / (6.0 * n)
    K = Z.shape[1]
    buf = np.empty_like(Z)
    cube = np.empty((K, K, K))
    for b in range(K):
        cube[:, b, :] = np.multiply(Z, (w * Z[:, b])[:, None], out=buf).T @ Z
    s = w @ Z
    G = W.T @ W
    corr = np.einsum("a,bc->abc", s, G) + np.einsum("b,ac->abc", s, G) + np.einsum("c,ab->abc", s, G)
    return symmetrize(cube - corr)


def power_iterations_divide(mat2, U, n_iters):
    """tensor3._power_iterations with a masked division on every step and the two-step test on uint64 views."""
    U = U.copy()
    older = old = None
    collapsed = np.zeros(U.shape[0], dtype=bool)
    for step in range(n_iters):
        outer = (U[:, :, None] * U[:, None, :]).reshape(U.shape[0], -1)
        W = np.matmul(mat2, outer[:, :, None])[:, :, 0]
        nrm = np.sqrt(np.matmul(W[:, None, :], W[:, :, None])[:, 0, 0])
        collapsed |= nrm == 0.0
        older, old = old, U
        U = np.divide(W, nrm[:, None], out=old.copy(), where=~collapsed[:, None])
        if older is not None and np.array_equal(U.view(np.uint64), older.view(np.uint64)):
            return (U if (n_iters - step) % 2 else old), collapsed
    return U, collapsed


def dataset_text_loop(inputs, outputs, labels=None) -> str:
    """The mlds-dataset v1 text, formatted one value at a time with '%.17g'."""
    N, T, m = inputs.shape
    lines = [f"mlds-dataset v1, N={N}, T={T}, m={m}, labeled={0 if labels is None else 1}"]
    for i in range(N):
        lines.append(f"traj {i} label {'-' if labels is None else int(labels[i])}")
        for t in range(T):
            lines.append(" ".join(f"{float(v):.17g}" for v in [*inputs[i, t], outputs[i, t]]))
    return "\n".join(lines) + "\n"


def ols_markov_lstsq(inputs, outputs, L) -> np.ndarray:
    """One trajectory's least squares over every time t in [L, T] by np.linalg.lstsq; returns (L, m)."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim == 1:
        inputs = inputs[:, None]
    outputs = np.asarray(outputs, dtype=float).reshape(-1)
    T, m = inputs.shape
    times = np.arange(L, T + 1)
    A = np.stack([inputs[t - 1 - np.arange(L)].ravel() for t in times])
    g, *_ = np.linalg.lstsq(A, outputs[times - 1], rcond=None)
    return g.reshape(L, m)


def baseline_error_loop(dataset, truth, L) -> float:
    """Mean over labeled trajectories of ||g_label - per-trajectory OLS estimate||, one trajectory at a time."""
    G = truth.markov_matrix(L)
    total = 0.0
    for i in range(dataset.N):
        g_hat = ols_markov_lstsq(dataset.inputs[i], dataset.outputs[i], L)
        total += float(np.linalg.norm(G[dataset.labels[i]] - g_hat.ravel()))
    return total / dataset.N


def lag_windows_loop(inputs, L):
    """One trajectory's non-overlapping lag windows, one window and one lag at a time.

    Returns (times, rows) with times = L, 2L, ... <= T and rows[s] = (u_{t-1},
    u_{t-2}, ..., u_{t-L}) for t = times[s]; steps after the last window are dropped.
    """
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim == 1:
        inputs = inputs[:, None]
    T, m = inputs.shape
    times = list(range(L, T + 1, L))
    rows = np.empty((len(times), L * m))
    for s, t in enumerate(times):
        for j in range(L):
            rows[s, j * m : (j + 1) * m] = inputs[t - 1 - j]
    return np.array(times), rows


def mlds_fit_one_array(dataset, L, K, sigma_u=1.0, n_restarts=None, n_iters=100, seed=0, refine=False):
    """mlds_fit on one stacked X of all trajectories, each stage called once.

    M2 reads rows [:n_m2] (the first ceil(N/2) trajectories) and M3 the rest;
    the refine pass reads the first moment X'y / n of all rows.
    """
    X, y = build_stacked(dataset, L, sigma_u)
    n_m2 = (dataset.N + 1) // 2 * (dataset.T // L)
    W, P = mlr.whitening_from_m2(mlr.estimate_m2(X[:n_m2], y[:n_m2]), K)
    M3w = mlr.estimate_whitened_m3(X[n_m2:], y[n_m2:], W)
    est = mlr.mlr_fit(M3w, P, K, n_restarts=n_restarts, n_iters=n_iters, seed=seed)
    if refine:
        est = mlr.refine_first_moment(est, X.T @ y / y.shape[0])
    return replace(est, coeffs=est.coeffs / sigma_u)


def save_estimate(path, est, L, m):
    """Write est as an mlds-estimate v1 file, the text that fit writes before any realization."""
    with open(path, "w") as fh:
        fh.write(estimate_text(est, L, m))


def _parse_body(rows, m: int, T: int) -> np.ndarray:
    # trajectory i's T numeric rows are rows[i*T:(i+1)*T], from file line 3 + i * (T + 1)
    return np.array([parse_rows(rows[j:j + T], m + 1, 3 + j // T * (T + 1)) for j in range(0, len(rows), T)])


def _loadtxt(rows) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt warns when every row is blank
        return np.loadtxt(rows, comments=None, ndmin=2)


def _load_whole(path) -> TrajectoryDataset:
    # the exact reader: the whole file's lines at once. Numeric rows are converted in
    # one np.loadtxt pass. loadtxt accepts a subset of what float() accepts (no '1_0',
    # no non-ASCII digits) and skips blank rows, so when it fails or returns another
    # shape the rows are parsed again one by one, which gives float()'s values or the
    # first bad line
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("line 1: empty file")
    N, T, m, labeled = header_values(lines[0], "mlds-dataset", _DATASET_KEYS, flags=("labeled",))
    expected = 1 + N * (T + 1)
    if len(lines) != expected:
        raise ValueError(f"expected {expected} lines for N={N}, T={T}, got {len(lines)}")
    body = lines[1:]
    heads = body[::T + 1]
    del body[::T + 1]
    labels = np.empty(N, dtype=int) if labeled else None
    for i, line in enumerate(heads):
        try:
            label = _head_label(line, i, labeled)
        except ValueError as exc:
            _parse_body(body[:i * T], m, T)  # a bad numeric row above trajectory i's line is reported first
            raise ValueError(f"line {2 + i * (T + 1)}: {exc}") from None
        if labeled:
            labels[i] = label
    try:
        rows = _loadtxt(body)
    except ValueError:
        rows = None
    if rows is None or rows.shape != (N * T, m + 1):
        rows = _parse_body(body, m, T)
    rows = rows.reshape(N, T, m + 1)
    U = np.ascontiguousarray(rows[:, :, :m])
    Y = np.ascontiguousarray(rows[:, :, m])
    bad = ~np.isfinite(rows).all(axis=2)
    if bad.any():
        i, t = divmod(int(np.argmax(bad)), T)
        lineno = 3 + i * (T + 1) + t
        raise ValueError(f"line {lineno}: non-finite value in {lines[lineno - 1]!r}")
    return TrajectoryDataset(U, Y, labels)
