"""Permutation-matched evaluation and the N x T sweep harness with CSV output."""

from __future__ import annotations

import itertools
import math
import os
import pickle
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DecompositionError, DegenerateMixtureError, InsufficientLengthError
from .lds import MixtureModel, NoiseConfig, TrajectoryDataset, generate_dataset, random_mixture
from .mlr import MixtureEstimate
from .pipeline import mlds_fit, ols_markov, trajectory_blocks
from .util import atomic_write_text, derive_seed

CSV_HEADER = "N,T,K,L,seed,method,error,weight_error,wall_ms,status"
# lag rows per batched ols_markov call in baseline_error; small, because one
# call over every trajectory raised the study sweep's peak RSS by half
_OLS_ROW_BUDGET = 4096


@dataclass
class MatchResult:
    """Best assignment of estimated to true components and the errors under it."""

    permutation: tuple            # permutation[k] = estimate index paired with truth k
    component_errors: np.ndarray  # (K,) l2 coefficient error per truth component
    weight_errors: np.ndarray    # (K,) |p_hat - p| under the assignment
    mean_error: float
    mean_weight_error: float


def match_components(est: MixtureEstimate, truth: MixtureModel, L: int) -> MatchResult:
    """Exhaustive assignment (K <= 8) minimizing the summed l2 coefficient error.

    Weights are reported under the chosen assignment but do not enter the
    matching cost. Ties go to the lexicographically first permutation.
    Raises ValueError when no permutation has a finite cost.
    """
    K = truth.K
    if est.K != K:
        raise ValueError(f"estimate has {est.K} components, truth has {K}")
    if K > 8:
        raise ValueError("exhaustive matching is limited to K <= 8")
    G = truth.markov_matrix(L)
    if est.dim != G.shape[1]:
        raise ValueError(f"coefficient length {est.dim} does not match L*m = {G.shape[1]}")
    with np.errstate(over="ignore"):  # an overflowed cost is inf and reported below
        D = np.linalg.norm(est.coeffs[:, None, :] - G[None, :, :], axis=2)
    best = None
    best_cost = math.inf
    for perm in itertools.permutations(range(K)):
        cost = sum(D[perm[k], k] for k in range(K))
        if cost < best_cost:
            best, best_cost = perm, cost
    if best is None:
        raise ValueError("no assignment of estimated to true components has a finite cost")
    errs = np.array([D[best[k], k] for k in range(K)])
    werrs = np.abs(est.weights[list(best)] - truth.weights)
    return MatchResult(best, errs, werrs, float(errs.mean()), float(werrs.mean()))


def baseline_error(dataset: TrajectoryDataset, truth: MixtureModel, L: int) -> float:
    """Mean over labeled trajectories of ||g_label - per-trajectory OLS estimate||."""
    if dataset.labels is None:
        raise ValueError("baseline_error needs a labeled dataset")
    bad = np.flatnonzero((dataset.labels < 0) | (dataset.labels >= truth.K))
    if bad.size:
        raise ValueError(f"trajectory {bad[0]} has label {dataset.labels[bad[0]]} outside range({truth.K})")
    G = truth.markov_matrix(L)
    errs = np.empty(dataset.N)
    for lo, hi in trajectory_blocks(0, dataset.N, dataset.T - L + 1, _OLS_ROW_BUDGET):
        g_hat = ols_markov(dataset.inputs[lo:hi], dataset.outputs[lo:hi], L)
        errs[lo:hi] = np.linalg.norm(G[dataset.labels[lo:hi]] - g_hat.reshape(hi - lo, -1), axis=1)
    return float(errs.sum()) / dataset.N


@dataclass(frozen=True, kw_only=True)
class SweepConfig:
    """Grid description for run_sweep, checked on construction (ValueError).

    Methods come from METHODS; seeds, N_values, T_values and methods are non-empty without repeats
    (aggregate() would count a repeat's records as replicates); N and T entries are >= 1, seeds
    >= 0, and n_iters and n_restarts (when given) >= 1, so a sweep whose methods do not use them,
    or whose forked workers would see them first, fails before it starts.
    """

    K: int
    n: int
    m: int
    L: int
    N_values: tuple
    T_values: tuple
    seeds: tuple
    methods: tuple
    noise: NoiseConfig = NoiseConfig()
    radius_range: tuple = (0.6, 0.9)
    n_restarts: int | None = None
    n_iters: int = 100

    def __post_init__(self):
        for meth in self.methods:
            if meth not in METHODS:
                raise ValueError(f"unknown method {meth!r}; choose from {METHODS}")
        for name in ("seeds", "N_values", "T_values", "methods"):
            values = tuple(getattr(self, name))
            if not values:
                raise ValueError(f"{name} must be non-empty")
            if len(set(values)) != len(values):
                raise ValueError(f"{name} has duplicate entries: {values}")
            if name.endswith("_values") and min(values) < 1:
                raise ValueError(f"{name} entries must be >= 1")
        if min(self.seeds) < 0:
            raise ValueError("seeds entries must be >= 0")
        for name in ("n_restarts", "n_iters"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class SweepRecord:
    N: int
    T: int
    K: int
    L: int
    seed: int
    method: str
    error: float
    weight_error: float
    wall_ms: float
    status: str


def _tensor_errors(cfg, model, data, fit_seed, refine=False):
    est = mlds_fit(data, cfg.L, cfg.K, sigma_u=cfg.noise.sigma_u, n_restarts=cfg.n_restarts,
                   n_iters=cfg.n_iters, seed=fit_seed, refine=refine)
    mr = match_components(est, model, cfg.L)
    return mr.mean_error, mr.mean_weight_error


def _baseline_errors(cfg, model, data, fit_seed):
    return baseline_error(data, model, cfg.L), math.nan


# method -> f(cfg, model, data, fit_seed) -> (error, weight_error). The entries look
# mlds_fit and baseline_error up by name when called, so patched bindings apply.
_METHOD_ERRORS = {
    "tensor": _tensor_errors,
    "tensor_refine": partial(_tensor_errors, refine=True),
    "baseline": _baseline_errors,
}
METHODS = tuple(_METHOD_ERRORS)  # METHODS[0] is the paper's estimator
DEFAULT_METHODS = ("tensor", "baseline")  # `ldsmix sweep` without --methods


def _seed_records(cfg: SweepConfig, seed: int, timer):
    """The records of one seed's cells, in (N, T, method) order."""
    try:
        model = random_mixture(cfg.K, cfg.n, cfg.m, cfg.L, cfg.radius_range, seed=seed)
    except DegenerateMixtureError as exc:
        status = f"failed:{type(exc).__name__}"
        return [SweepRecord(N, T, cfg.K, cfg.L, seed, meth, math.nan, math.nan, 0.0, status)
                for N in cfg.N_values for T in cfg.T_values for meth in cfg.methods]
    records = []
    for N in cfg.N_values:
        for T in cfg.T_values:
            data = generate_dataset(model, N, T, cfg.noise, derive_seed(seed, N, T, 1))
            fit_seed = derive_seed(seed, N, T, 2)
            for meth in cfg.methods:
                t0 = timer()
                try:
                    err, werr = _METHOD_ERRORS[meth](cfg, model, data, fit_seed)
                    status = "ok"
                except (DegenerateMixtureError, DecompositionError,
                        InsufficientLengthError, np.linalg.LinAlgError) as exc:
                    err, werr, status = math.nan, math.nan, f"failed:{type(exc).__name__}"
                wall = (timer() - t0) * 1000.0
                records.append(SweepRecord(N, T, cfg.K, cfg.L, seed, meth,
                                           float(err), float(werr), float(wall), status))
    return records


def _fork_seeds(cfg: SweepConfig, seeds, timer):
    """Fork a child that runs seeds; return (its pid, the read end of its pipe).

    The child pickles ("ok", records) or ("error", exception) into the pipe and
    leaves by os._exit, exit status 0 only once the outcome is written. It never
    returns into the caller, whose teardown (pytest's, a tracer's) must run once.
    """
    parent = os.getpid()
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, r
    code = 1
    try:
        os.close(r)
        try:
            records = []
            for seed in seeds:
                if os.getppid() != parent:  # orphaned: nobody will read the records
                    os._exit(1)
                records += _seed_records(cfg, seed, timer)
            outcome = ("ok", records)
        except Exception as exc:
            outcome = ("error", exc)
        with open(w, "wb") as fh:
            pickle.dump(outcome, fh)
        code = 0
    finally:
        os._exit(code)


def _collect(pid: int, fd: int, seeds):
    """The records a forked child sent, or its exception re-raised; reaps the child."""
    try:
        with open(fd, "rb") as fh:
            payload = fh.read()
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"sweep worker for seeds {list(seeds)} exited with status {code} "
                           "without sending its records")
    kind, value = pickle.loads(payload)
    if kind == "error":
        raise value
    return value


def run_sweep(cfg: SweepConfig, timer=time.perf_counter):
    """Run every (seed, N, T, method) cell; failures become records, not exceptions.

    The mixture for a seed is shared across all of its cells (so comparisons
    across N or T are paired), while dataset and fit streams also mix in
    (N, T), keeping cells independent and order free. A custom timer can be
    injected to make the wall_ms column deterministic.

    The seeds are split into W contiguous runs, W being the number of CPUs in
    the process's affinity mask but at most the number of seeds (1 where
    os.fork or os.sched_getaffinity is missing). Each run but the last goes to
    a forked child; the calling process runs the last one, and any run whose
    fork failed. Records come back in seed order, as from one process. An
    exception in a child is re-raised here with its type and message, and no
    child outlives the call.
    """
    seeds = tuple(cfg.seeds)
    W = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        W = min(len(os.sched_getaffinity(0)), len(seeds))
    runs = [seeds[i * len(seeds) // W:(i + 1) * len(seeds) // W] for i in range(W)]
    pending = {}  # run index -> (pid, read end) of a forked child not yet reaped
    try:
        for i, run in enumerate(runs[:-1]):
            try:
                pending[i] = _fork_seeds(cfg, run, timer)
            except OSError:  # no process to spare: the caller runs these seeds too
                pass
        parts = [None if i in pending else
                 [rec for seed in run for rec in _seed_records(cfg, seed, timer)]
                 for i, run in enumerate(runs)]
        for i in list(pending):
            parts[i] = _collect(*pending.pop(i), runs[i])
    finally:
        for pid, fd in pending.values():  # left by an error: stop and reap them
            os.kill(pid, 9)  # SIGKILL; importing signal would add ~50 KB to every ldsmix process
            os.close(fd)
            os.waitpid(pid, 0)
    return [rec for part in parts for rec in part]


def _f9(x) -> str:
    return f"{float(x):.9g}"


def write_records_csv(path, records) -> None:
    """One row per record, floats at 9 significant digits, atomic write."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(f"{r.N},{r.T},{r.K},{r.L},{r.seed},{r.method},"
                     f"{_f9(r.error)},{_f9(r.weight_error)},{_f9(r.wall_ms)},{r.status}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_records_csv(path):
    """Inverse of write_records_csv (used for aggregation checks)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"line 1: expected header {CSV_HEADER!r}")
    records = []
    for i, line in enumerate(lines[1:], start=2):
        toks = line.split(",")
        if len(toks) != 10:
            raise ValueError(f"line {i}: expected 10 fields, got {len(toks)}")
        try:
            records.append(SweepRecord(*map(int, toks[:5]), toks[5], *map(float, toks[6:9]), toks[9]))
        except ValueError as exc:
            raise ValueError(f"line {i}: {exc}") from None
    return records


def aggregate(records):
    """Per (method, N, T): median/mean/stderr of the error over ok runs, plus counts."""
    cells = {}
    for r in records:
        cells.setdefault((r.method, r.N, r.T), []).append(r)
    out = {}
    for key, rs in sorted(cells.items()):
        vals = np.array([r.error for r in rs if r.status == "ok"])
        n_ok = vals.shape[0]
        if n_ok:
            med, mean = float(np.median(vals)), float(np.mean(vals))
            se = float(np.std(vals, ddof=1) / math.sqrt(n_ok)) if n_ok > 1 else math.nan
        else:
            med = mean = se = math.nan
        out[key] = {"median": med, "mean": mean, "stderr": se,
                    "n_ok": n_ok, "n_failed": len(rs) - n_ok}
    return out


def write_series(path, records) -> None:
    """Error-versus-N series, one block per (method, T), columnar text."""
    agg = aggregate(records)
    blocks = []
    for method, T in sorted({(k[0], k[2]) for k in agg}):
        lines = [f"# series method={method} T={T}",
                 "# N median mean stderr n_ok n_failed"]
        for (meth, N, TT), st in sorted(agg.items(), key=lambda kv: kv[0][1]):
            if meth == method and TT == T:
                lines.append(f"{N} {_f9(st['median'])} {_f9(st['mean'])} {_f9(st['stderr'])} "
                             f"{st['n_ok']} {st['n_failed']}")
        blocks.append("\n".join(lines))
    atomic_write_text(path, "\n\n".join(blocks) + "\n")


def write_levels(path, records, method: str = "tensor") -> None:
    """(N, T, median error) grid for one method, for level-set plots."""
    agg = aggregate(records)
    lines = [f"# levels method={method}", "# N T median"]
    for meth, N, T in sorted(agg):
        if meth == method:
            lines.append(f"{N} {T} {_f9(agg[(meth, N, T)]['median'])}")
    atomic_write_text(path, "\n".join(lines) + "\n")
