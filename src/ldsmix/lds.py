"""Stable LTI systems, mixtures of them, trajectory simulation, and text file formats."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMixtureError
from .util import atomic_write_text, child_generators, fmt, format_rows, parse_rows, parse_weight, read_text

# trajectories whose draws generate_dataset holds in its scratch block at a time
_DRAW_BLOCK = 64
# random_mixture's floor on sigma_K and its number of draws
_SIGMA_MIN = 1e-8
_MAX_ATTEMPTS = 20


def _spectral_radius(A) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(A))))


@dataclass
class StateSpace:
    """x_{t+1} = A x_t + B u_t, y_t = C x_t, scalar output, strictly stable."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.B = np.asarray(self.B, dtype=float)
        if self.B.ndim == 1:
            self.B = self.B[:, None]
        self.C = np.asarray(self.C, dtype=float).reshape(-1)
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError(f"A must be square, got shape {self.A.shape}")
        if self.B.ndim != 2 or self.B.shape[0] != n:
            raise ValueError(f"B must have {n} rows, got shape {self.B.shape}")
        if self.C.shape[0] != n:
            raise ValueError(f"C must have length {n}, got {self.C.shape[0]}")
        for name in ("A", "B", "C"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"StateSpace matrix {name} must be finite")
        rho = _spectral_radius(self.A)
        if not rho < 1.0:
            raise ValueError(f"unstable system: spectral radius {rho:.6g} >= 1")

    @property
    def order(self) -> int:
        return self.A.shape[0]

    @property
    def input_dim(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class NoiseConfig:
    """Input scale and the two noise scales, finite and nonnegative; zeros are allowed (noiseless runs)."""

    sigma_u: float = 1.0
    sigma_w1: float = 0.01
    sigma_w2: float = 0.01

    def __post_init__(self):
        for name in ("sigma_u", "sigma_w1", "sigma_w2"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {getattr(self, name)!r}")


@dataclass
class MixtureModel:
    """K strictly stable components with finite, strictly positive weights summing to one."""

    weights: np.ndarray
    systems: list

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        K = self.weights.shape[0]
        if K < 1 or len(self.systems) != K:
            raise ValueError("need one system per weight")
        if not np.isfinite(self.weights).all():
            raise ValueError("mixture weights must be finite")
        if np.any(self.weights <= 0.0):
            raise ValueError("mixture weights must be strictly positive")
        if abs(float(self.weights.sum()) - 1.0) > 1e-12:
            raise ValueError(f"mixture weights must sum to 1, got {self.weights.sum()!r}")
        if len({s.order for s in self.systems}) != 1 or len({s.input_dim for s in self.systems}) != 1:
            raise ValueError("all components must share state and input dimensions")

    @property
    def K(self) -> int:
        return self.weights.shape[0]

    @property
    def order(self) -> int:
        return self.systems[0].order

    @property
    def input_dim(self) -> int:
        return self.systems[0].input_dim

    def markov_matrix(self, L: int) -> np.ndarray:
        """Row k is the horizon-L Markov vector of component k, shape (K, L*m)."""
        return np.stack([impulse_response(s, L).ravel() for s in self.systems])


@dataclass
class TrajectoryDataset:
    """N trajectories of length T: inputs (N, T, m), outputs (N, T), optional labels."""

    inputs: np.ndarray
    outputs: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=float)
        self.outputs = np.asarray(self.outputs, dtype=float)
        if self.inputs.ndim != 3:
            raise ValueError(f"inputs must be (N, T, m), got shape {self.inputs.shape}")
        if self.outputs.shape != self.inputs.shape[:2]:
            raise ValueError("outputs must be (N, T) matching inputs")
        if not (np.isfinite(self.inputs).all() and np.isfinite(self.outputs).all()):
            raise ValueError("inputs and outputs must be finite")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=int).reshape(-1)
            if self.labels.shape[0] != self.inputs.shape[0]:
                raise ValueError("labels must have one entry per trajectory")

    @property
    def N(self) -> int:
        return self.inputs.shape[0]

    @property
    def T(self) -> int:
        return self.inputs.shape[1]

    @property
    def m(self) -> int:
        return self.inputs.shape[2]


def random_stable_system(n: int, m: int, target_radius: float, seed=0) -> StateSpace:
    """Gaussian (A, B, C) with A rescaled so its spectral radius equals target_radius.

    Same seed, same system. A Generator may be passed instead of a seed, in
    which case its stream is advanced in place.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    if not 0.0 < target_radius < 1.0:
        raise ValueError("target_radius must lie strictly inside (0, 1)")
    rng = np.random.default_rng(seed)
    for _ in range(10):
        A = rng.normal(size=(n, n))
        rho = _spectral_radius(A)
        if rho > 0.0:
            break
    else:
        raise RuntimeError("drew a nilpotent A ten times in a row")
    A *= target_radius / rho
    B = rng.normal(size=(n, m))
    C = rng.normal(size=n)
    return StateSpace(A, B, C)


def impulse_response(ss: StateSpace, L: int) -> np.ndarray:
    """Markov parameters as an (L, m) array whose row t-1 is g(t) = C A^(t-1) B, t = 1..L."""
    if L < 1:
        raise ValueError("L must be >= 1")
    g = np.empty((L, ss.input_dim))
    for t in range(1, L + 1):
        g[t - 1] = ss.C @ np.linalg.matrix_power(ss.A, t - 1) @ ss.B
    return g


def simulate(ss: StateSpace, inputs, process_noise=None, measurement_noise=None) -> np.ndarray:
    """Run x_{t+1} = A x_t + B (u_t + w1_t), y_{t+1} = C x_{t+1} + w2_{t+1} from x_0 = 0.

    inputs has shape (..., T, m); leading axes index independent
    trajectories. Returns outputs of shape (..., T) with outputs[..., i] =
    y_{i+1} for i = 0..T-1. Each step applies A, B and
    C with stacked matmuls, which run the same per-trajectory gemv/dot kernels
    as a single trajectory does, so a batch gives the same bits as one call
    per trajectory.
    """
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim < 2 or inputs.shape[-1] != ss.input_dim:
        raise ValueError(f"inputs must have shape (..., T, {ss.input_dim}), got {inputs.shape}")
    drive = inputs if process_noise is None else inputs + np.asarray(process_noise, dtype=float)
    x = np.zeros(inputs.shape[:-2] + (ss.order, 1))
    out = np.empty(inputs.shape[:-1])
    for t in range(inputs.shape[-2]):
        x = np.matmul(ss.A, x) + np.matmul(ss.B, drive[..., t, :, None])
        out[..., t] = np.matmul(ss.C, x)[..., 0]
    if measurement_noise is not None:
        out = out + np.asarray(measurement_noise, dtype=float).reshape(out.shape)
    return out


def rollout(ss: StateSpace, T: int, noise: NoiseConfig = NoiseConfig(), seed=0):
    """One trajectory with Gaussian inputs and noise; returns (inputs, outputs).

    Draw order is fixed (inputs, then process noise, then measurement noise),
    so a seed fully determines the trajectory.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    rng = np.random.default_rng(seed)
    u = rng.normal(0.0, noise.sigma_u, size=(T, ss.input_dim))
    w1 = rng.normal(0.0, noise.sigma_w1, size=(T, ss.input_dim))
    w2 = rng.normal(0.0, noise.sigma_w2, size=T)
    return u, simulate(ss, u, w1, w2)


def generate_dataset(model: MixtureModel, N: int, T: int, noise: NoiseConfig = NoiseConfig(), seed: int = 0) -> TrajectoryDataset:
    """Labels from the mixture, then one independent rollout per trajectory.

    Trajectory i draws from the stream of SeedSequence((seed, 2, i + 1)), as
    rollout would with that seed, so the result is independent of generation
    order. Each component then simulates all of its trajectories in one batch,
    with the same outputs as rollout.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if T < 1:
        raise ValueError("T must be >= 1")
    labels = np.random.default_rng(np.random.SeedSequence((seed, 1))).choice(model.K, size=N, p=model.weights)
    m = model.input_dim
    U = np.empty((N, T, m))
    drive = np.empty((N, T, m))
    Y = np.empty((N, T))
    # standard_normal keeps no state between calls, so one call per trajectory
    # filling a row of inputs, process noise and measurement noise draws what
    # three calls in that order would; rows are filled in a reused block
    width = T * m
    scratch = np.empty((min(N, _DRAW_BLOCK), 2 * width + T))
    streams = child_generators((seed, 2), N)
    for lo in range(0, N, scratch.shape[0]):
        block = scratch[: N - lo]
        for row, rng in zip(block, streams):
            rng.standard_normal(out=row)
        hi = lo + block.shape[0]
        U[lo:hi] = block[:, :width].reshape(-1, T, m)
        drive[lo:hi] = block[:, width : 2 * width].reshape(-1, T, m)
        Y[lo:hi] = block[:, 2 * width :]
    # normal(0.0, sigma) is 0.0 + sigma * z; adding 0.0 turns the -0.0 of a zero sigma into +0.0
    for arr, sigma in ((U, noise.sigma_u), (drive, noise.sigma_w1), (Y, noise.sigma_w2)):
        arr *= sigma
        arr += 0.0
    # drive = process noise + inputs and Y = measurement noise + noise-free outputs, formed
    # in place: float addition commutes bitwise, so this equals simulate(ss, u, w1, w2)
    drive += U
    for k, ss in enumerate(model.systems):
        rows = np.flatnonzero(labels == k)
        Y[rows] += simulate(ss, drive[rows])
    return TrajectoryDataset(U, Y, labels)


def mixture_sigma_k(model: MixtureModel, L: int) -> float:
    """K-th largest eigenvalue of the population second moment sum_k p_k g_k g_k' of the horizon-L Markov vectors.

    Whitening needs this positive. Raises ValueError when K exceeds L*m, the
    dimension of the Markov vectors.
    """
    G = model.markov_matrix(L)
    if model.K > G.shape[1]:
        raise ValueError(f"K={model.K} exceeds the covariate dimension L*m={G.shape[1]}")
    M = G.T @ (model.weights[:, None] * G)
    evals = np.linalg.eigvalsh((M + M.T) / 2)
    return float(evals[-model.K])


def random_mixture(K: int, n: int, m: int, L: int, radius_range=(0.6, 0.9), seed=0) -> MixtureModel:
    """Random K-component mixture with uniform weights and per-component radii drawn from radius_range.

    Component systems are redrawn (up to _MAX_ATTEMPTS = 20 times) until the
    K-th eigenvalue of the horizon-L second moment clears _SIGMA_MIN = 1e-8,
    so whitening is well posed.
    """
    lo, hi = float(radius_range[0]), float(radius_range[1])
    if not (0.0 < lo <= hi < 1.0):
        raise ValueError("radius_range must satisfy 0 < lo <= hi < 1")
    if K < 1:
        raise ValueError("K must be >= 1")
    rng = np.random.default_rng(seed)
    last = 0.0
    for _ in range(_MAX_ATTEMPTS):
        systems = [random_stable_system(n, m, rng.uniform(lo, hi), rng) for _ in range(K)]
        model = MixtureModel(np.full(K, 1.0 / K), systems)
        last = mixture_sigma_k(model, L)
        if last > _SIGMA_MIN:
            return model
    raise DegenerateMixtureError(
        f"sigma_K stayed at or below {_SIGMA_MIN:g} for {_MAX_ATTEMPTS} draws (last {last:.3e})",
        sigma=last,
    )


def save_dataset(path, ds: TrajectoryDataset) -> None:
    """Write the mlds-dataset v1 text format (17 significant digits, atomic)."""
    labeled = 1 if ds.labels is not None else 0
    labs = ds.labels.tolist() if labeled else ["-"] * ds.N
    rows = np.concatenate([ds.inputs, ds.outputs[:, :, None]], axis=2)
    parts = [f"mlds-dataset v1, N={ds.N}, T={ds.T}, m={ds.m}, labeled={labeled}"]
    parts += [f"traj {i} label {lab}\n" + format_rows(r) for i, (lab, r) in enumerate(zip(labs, rows))]
    atomic_write_text(path, "\n".join(parts) + "\n")


def _parse_body(rows, m: int, T: int) -> np.ndarray:
    # trajectory i's T numeric rows are rows[i*T:(i+1)*T], from file line 3 + i * (T + 1)
    return np.array([parse_rows(rows[j:j + T], m + 1, 3 + j // T * (T + 1)) for j in range(0, len(rows), T)])


def load_dataset(path) -> TrajectoryDataset:
    """Read the mlds-dataset v1 text format; parse errors and non-finite values report line numbers.

    Numeric rows are converted in one np.loadtxt pass. loadtxt accepts a
    subset of what float() accepts (no '1_0', no non-ASCII digits) and skips
    blank rows, so when it fails or returns another shape the rows are parsed
    again one by one, which gives float()'s values or the first bad line.
    """
    lines, (N, T, m, labeled) = read_text(path, "mlds-dataset", ("N", "T", "m", "labeled"),
                                          flags=("labeled",))
    expected = 1 + N * (T + 1)
    if len(lines) != expected:
        raise ValueError(f"expected {expected} lines for N={N}, T={T}, got {len(lines)}")
    body = lines[1:]
    heads = body[::T + 1]
    del body[::T + 1]
    labels = np.empty(N, dtype=int) if labeled else None

    def fail(message):
        _parse_body(body[:i * T], m, T)  # a bad numeric row above trajectory i's line is reported first
        raise ValueError(f"line {2 + i * (T + 1)}: {message}") from None

    for i, line in enumerate(heads):
        toks = line.split()
        if len(toks) != 4 or toks[0] != "traj" or toks[2] != "label" or toks[1] != str(i):
            fail(f"expected 'traj {i} label <k|->', got {line!r}")
        if labeled:
            try:
                labels[i] = int(toks[3])
            except ValueError:
                fail("labeled dataset needs an integer label")
        elif toks[3] != "-":
            fail("unlabeled dataset must use '-' labels")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # loadtxt warns when every row is blank
            rows = np.loadtxt(body, comments=None, ndmin=2)
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


def save_mixture(path, model: MixtureModel) -> None:
    """Write the mlds-mixture v1 text format (17 significant digits, atomic)."""
    lines = [f"mlds-mixture v1, K={model.K}, n={model.order}, m={model.input_dim}"]
    for p, s in zip(model.weights, model.systems):
        lines += [f"weight {fmt(p)}", format_rows(s.A), format_rows(s.B), format_rows(s.C)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_mixture(path) -> MixtureModel:
    """Read the mlds-mixture v1 text format; components are validated on load."""
    lines, (K, n, m) = read_text(path, "mlds-mixture", ("K", "n", "m"))
    expected = 1 + K * (2 * n + 2)
    if len(lines) != expected:
        raise ValueError(f"expected {expected} lines for K={K}, n={n}, got {len(lines)}")
    weights, systems = [], []
    for pos in range(1, expected, 2 * n + 2):  # 0-based index of each component's weight line
        weights.append(parse_weight(lines[pos], pos + 1))
        A = parse_rows(lines[pos + 1 : pos + 1 + n], n, pos + 2)
        B = parse_rows(lines[pos + 1 + n : pos + 1 + 2 * n], m, pos + 2 + n)
        C = parse_rows(lines[pos + 1 + 2 * n : pos + 2 + 2 * n], n, pos + 2 + 2 * n)
        try:
            systems.append(StateSpace(A, B, C))
        except ValueError as exc:
            raise ValueError(f"line {pos + 1}: {exc}") from None
    return MixtureModel(weights, systems)
