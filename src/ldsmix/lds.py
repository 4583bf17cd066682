"""Stable LTI systems, mixtures of them, trajectory simulation, and text file formats."""

from __future__ import annotations

import contextlib
import itertools
import os
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMixtureError
from .util import (atomic_write_text, child_generators, fan_out, fmt, format_rows, header_values, parse_rows,
                   parse_weight, read_text)

# trajectories whose draws generate_dataset holds in its scratch block at a time
_DRAW_BLOCK = 64
# trajectories that generate_dataset simulates at a time: its peak is its arrays plus one such block
_SIM_BLOCK = 1024
# values of trajectories that save_dataset formats and writes at a time (about 1.5 MB of text),
# and characters that load_dataset reads at a time
_TEXT_BLOCK = 1 << 16
_DATASET_KEYS = ("N", "T", "m", "labeled")
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
    order. Each block of _SIM_BLOCK trajectories is simulated once drawn, in
    one batch per component, with the same outputs as rollout.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if T < 1:
        raise ValueError("T must be >= 1")
    labels = np.random.default_rng(np.random.SeedSequence((seed, 1))).choice(model.K, size=N, p=model.weights)
    m = model.input_dim
    U = np.empty((N, T, m))
    Y = np.empty((N, T))
    # standard_normal keeps no state between calls, so one call per trajectory
    # filling a row of inputs, process noise and measurement noise draws what
    # three calls in that order would; rows are filled in a reused block of
    # _DRAW_BLOCK rows, and each _SIM_BLOCK trajectories are simulated once drawn
    width = T * m
    scratch = np.empty((min(N, _DRAW_BLOCK), 2 * width + T))
    drive = np.empty((min(N, _SIM_BLOCK), T, m))
    streams = child_generators((seed, 2), N)
    for lo in range(0, N, _SIM_BLOCK):
        hi = min(N, lo + _SIM_BLOCK)
        for a in range(lo, hi, _DRAW_BLOCK):
            block = scratch[: min(hi - a, _DRAW_BLOCK)]
            for row, rng in zip(block, streams):
                rng.standard_normal(out=row)
            b = a + block.shape[0]
            U[a:b] = block[:, :width].reshape(-1, T, m)
            drive[a - lo:b - lo] = block[:, width:2 * width].reshape(-1, T, m)
            Y[a:b] = block[:, 2 * width:]
        w1 = drive[:hi - lo]
        # normal(0.0, sigma) is 0.0 + sigma * z; adding 0.0 turns the -0.0 of a zero sigma into +0.0
        for arr, sigma in ((U[lo:hi], noise.sigma_u), (w1, noise.sigma_w1), (Y[lo:hi], noise.sigma_w2)):
            arr *= sigma
            arr += 0.0
        # drive = process noise + inputs and Y = measurement noise + noise-free outputs, formed
        # in place: float addition commutes bitwise, so this equals simulate(ss, u, w1, w2)
        w1 += U[lo:hi]
        for k, ss in enumerate(model.systems):
            rows = np.flatnonzero(labels[lo:hi] == k)
            Y[lo + rows] += simulate(ss, w1[rows])
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


def _block_trajectories(T: int, m: int) -> int:
    # trajectories of T rows of m + 1 values that make up one block of _TEXT_BLOCK values
    return max(1, _TEXT_BLOCK // (T * (m + 1)))


def save_dataset(path, ds: TrajectoryDataset) -> None:
    """Write the mlds-dataset v1 text format (17 significant digits, atomic), one block of trajectories at a time.

    util.fan_out splits the blocks into contiguous runs; each run's worker
    writes the text of its blocks to its own part file in a scratch directory
    beside the target, and the header and the parts are then joined, in file
    order, through atomic_write_text.
    """
    labs = ds.labels.tolist() if ds.labels is not None else ["-"] * ds.N
    step = _block_trajectories(ds.T, ds.m)

    def block_text(lo):
        # the text of the block's trajectories, one at a time; the block's rows go once the last is taken
        rows = np.concatenate([ds.inputs[lo:lo + step], ds.outputs[lo:lo + step, :, None]], axis=2)
        for i, r in enumerate(rows, lo):
            yield f"traj {i} label {labs[i]}\n{format_rows(r)}\n"

    def write_part(starts):
        part = os.path.join(scratch, str(starts.start))
        with open(part, "w") as fh:
            for lo in starts:
                fh.writelines(block_text(lo))
        return part

    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=os.path.dirname(os.path.realpath(path))) as scratch:
        parts = fan_out(write_part, range(0, ds.N, step))
        head = f"mlds-dataset v1, N={ds.N}, T={ds.T}, m={ds.m}, labeled={int(ds.labels is not None)}\n"
        atomic_write_text(path, itertools.chain([head], *map(_file_text, parts)))


def _file_text(path):
    # the text of the file at path, _TEXT_BLOCK characters at a time
    with open(path) as fh:
        while chunk := fh.read(_TEXT_BLOCK):
            yield chunk


def _head_label(line: str, i: int, labeled: int):
    # the label on trajectory i's 'traj i label <k|->' line, None in an unlabeled file; errors lack the line number
    toks = line.split()
    if len(toks) != 4 or toks[0] != "traj" or toks[2] != "label" or toks[1] != str(i):
        raise ValueError(f"expected 'traj {i} label <k|->', got {line!r}")
    if not labeled:
        if toks[3] != "-":
            raise ValueError("unlabeled dataset must use '-' labels")
        return None
    try:
        label = int(toks[3])
    except ValueError:
        raise ValueError("labeled dataset needs an integer label") from None
    if not -(1 << 63) <= label < 1 << 63:
        raise ValueError(f"label {toks[3]} does not fit a 64-bit integer")
    return label


def _text_blocks(fh):
    # the lines of fh.read().splitlines() in lists, read _TEXT_BLOCK characters at a time; each
    # read is split after its last '\n', which no line break spans, and the rest carried over
    tail = ""
    while chunk := fh.read(_TEXT_BLOCK):
        done, sep, tail = (tail + chunk).rpartition("\n")
        yield (done + sep).splitlines()
    yield tail.splitlines()


def load_dataset(path) -> TrajectoryDataset:
    """Read the mlds-dataset v1 text format as a stream, one trajectory's lines at a time.

    Parse errors and non-finite values name their line. Of several faults the
    first of these is reported: an undecodable byte, a bad header, a line count
    that is off, the first bad head or numeric line, the first non-finite value.

    util.fan_out splits the blocks of trajectories into contiguous runs. Each
    run's worker streams the whole file, whose line count every run checks,
    and parses the rows of its own trajectories only; a forked worker writes
    them to a part file, which is read back into the arrays here. A header that
    does not parse, or that claims more values than the file has bytes, makes
    one run, which finds the file's first fault.
    """
    try:
        with open(path) as fh:
            header = next(itertools.chain.from_iterable(_text_blocks(fh)), "")
            size = os.fstat(fh.fileno()).st_size
        N, T, m, labeled = header_values(header, "mlds-dataset", _DATASET_KEYS, flags=("labeled",))
        # every value takes a byte at least: a header larger than its file allocates nothing
        fits = size >= N * T * (m + 1)
    except ValueError:  # an undecodable byte included
        N = T = m = labeled = 0
        fits = False
    U, Y = (np.empty((N, T, m)), np.empty((N, T))) if fits else (None, None)
    parent = os.getpid()

    def read_run(starts):
        lo, hi = starts.start, min(starts.stop, N)
        outcome = _read_dataset(path, lo, hi, U, Y)
        if os.getpid() == parent:
            return outcome, None
        part = os.path.join(scratch, str(lo))
        with open(part, "wb") as fh:
            fh.write(U[lo:hi])
            fh.write(Y[lo:hi])
        return outcome, (lo, hi, part)

    blocks = range(0, N, _block_trajectories(T, m) if fits else max(N, 1))
    try:
        # a file of one block is read in-process and needs no scratch directory
        with tempfile.TemporaryDirectory(prefix="ldsmix-") if len(blocks) > 1 else contextlib.nullcontext() as scratch:
            runs = fan_out(read_run, blocks)
            for k in range(3):  # the line count, then the first bad line, then the first non-finite value
                for outcome, _ in runs:
                    if outcome[k] is not None:
                        raise outcome[k]
            for _, forked in runs:
                if forked:
                    lo, hi, part = forked
                    with open(part, "rb") as fh:
                        fh.readinto(U[lo:hi])
                        fh.readinto(Y[lo:hi])
    except UnicodeDecodeError:
        with open(path) as fh:
            fh.read()  # the error names an offset in the block decoded last; raise it with the offset in the file
        raise
    return TrajectoryDataset(U, Y, [label for outcome, _ in runs for label in outcome[3]] if labeled else None)


def _read_dataset(path, lo: int, hi: int, U, Y):
    # load_dataset's parse of the file at path, which stores the rows of trajectories lo..hi-1 in U and Y
    # (when U is not None); returns (line-count error, first bad line error, first non-finite error, labels)
    count, expected, error, non_finite, labels = 1, None, None, None, []
    with open(path) as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # np.loadtxt warns when every row is blank
        lines = itertools.chain.from_iterable(_text_blocks(fh))
        try:
            header = next(lines, None)
            if header is None:
                raise ValueError("line 1: empty file")
            N, T, m, labeled = header_values(header, "mlds-dataset", _DATASET_KEYS, flags=("labeled",))
            expected = 1 + N * (T + 1)
            count += sum(1 for _ in itertools.islice(lines, lo * (T + 1)))
            for i in range(lo, hi):
                lineno = 2 + i * (T + 1)  # trajectory i's head line
                text = list(itertools.islice(lines, T + 1))
                count += len(text)
                if len(text) != T + 1:
                    break
                try:
                    labels.append(_head_label(text[0], i, labeled))
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None
                del text[0]
                # np.loadtxt accepts a subset of what float() accepts (no '1_0', no non-ASCII digits)
                # and skips blank rows; parse_rows gives float()'s values or the first bad line
                try:
                    rows = np.loadtxt(text, comments=None, ndmin=2)
                except ValueError:
                    rows = None
                if rows is None or rows.shape != (T, m + 1):
                    rows = parse_rows(text, m + 1, lineno + 1)
                if non_finite is None and not np.isfinite(rows).all():
                    t = int(np.argmin(np.isfinite(rows).all(axis=1)))
                    non_finite = ValueError(f"line {lineno + 1 + t}: non-finite value in {text[t]!r}")
                if U is not None:
                    U[i], Y[i] = rows[:, :m], rows[:, m]
        except UnicodeDecodeError:
            raise
        except ValueError as exc:  # reported after the rest of the file is read, unless its line count is off
            error = exc
        count += sum(1 for _ in lines)
    if expected in (None, count):
        return None, error, non_finite, labels
    return ValueError(f"expected {expected} lines for N={N}, T={T}, got {count}"), error, non_finite, labels


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
