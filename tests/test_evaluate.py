"""Tests for permutation matching, the labeled baseline metric, and the sweep harness."""

import itertools
import math
import os
import pickle
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

import ldsmix.evaluate
import ldsmix.lds
from ldsmix.errors import DecompositionError, DegenerateMixtureError
from ldsmix.evaluate import (_OLS_ROW_BUDGET, CSV_HEADER, METHODS, SweepConfig, SweepRecord,
                             aggregate, baseline_error, load_records_csv,
                             match_components, run_sweep, write_levels,
                             write_records_csv, write_series)
from ldsmix.lds import (MixtureModel, NoiseConfig, StateSpace, TrajectoryDataset,
                        generate_dataset, random_mixture)
from ldsmix.mlr import MixtureEstimate
from ldsmix.util import derive_seed
from forking import assert_no_children, count_forks, forbid_forks, set_cpus
from oracles import baseline_error_loop


def scalar_mixture(values, weights):
    """Mixture of order-1 scalar systems A=a, B=C=1; g(t) = a^(t-1)."""
    systems = [StateSpace([[a]], [[1.0]], [1.0]) for a in values]
    return MixtureModel(np.asarray(weights, dtype=float), systems)


def estimate_of(model, L, perm=None, jitter=None):
    G = model.markov_matrix(L)
    w = model.weights.copy()
    if jitter is not None:
        G = G + jitter
    if perm is not None:
        G, w = G[list(perm)], w[list(perm)]
    return MixtureEstimate(w, G)


def oracle_match(est, truth, L):
    """Independent K! enumeration of the minimal summed coefficient error."""
    G = truth.markov_matrix(L)
    best, best_cost = None, math.inf
    for perm in itertools.permutations(range(truth.K)):
        cost = sum(np.linalg.norm(est.coeffs[perm[k]] - G[k]) for k in range(truth.K))
        if cost < best_cost:
            best, best_cost = perm, cost
    return best, best_cost


def test_match_identity():
    model = scalar_mixture([0.3, -0.5], [0.6, 0.4])
    mr = match_components(estimate_of(model, 4), model, 4)
    assert mr.permutation == (0, 1)
    assert np.allclose(mr.component_errors, 0.0, atol=0)
    assert np.allclose(mr.weight_errors, 0.0, atol=0)
    assert mr.mean_error == 0.0 and mr.mean_weight_error == 0.0


def test_match_swapped_components():
    model = scalar_mixture([0.3, -0.5], [0.6, 0.4])
    mr = match_components(estimate_of(model, 4, perm=(1, 0)), model, 4)
    assert mr.permutation == (1, 0)
    assert np.allclose(mr.component_errors, 0.0, atol=0)
    assert np.allclose(mr.weight_errors, 0.0, atol=0)


def test_match_against_enumeration_oracle():
    rng = np.random.default_rng(0)
    model = scalar_mixture([0.2, 0.5, -0.4], [0.3, 0.3, 0.4])
    for trial in range(20):
        est = MixtureEstimate(np.full(3, 1.0 / 3.0), rng.normal(size=(3, 4)))
        mr = match_components(est, model, 4)
        perm, cost = oracle_match(est, model, 4)
        assert mr.component_errors.sum() == pytest.approx(cost, abs=1e-12), f"trial {trial}"
        assert mr.permutation == perm


def test_match_permutation_invariance():
    rng = np.random.default_rng(1)
    model = scalar_mixture([0.2, 0.5, -0.4, 0.7], [0.25, 0.25, 0.25, 0.25])
    for trial in range(10):
        est = MixtureEstimate(rng.uniform(0.1, 1.0, size=4), rng.normal(size=(4, 5)))
        base = match_components(est, model, 5).mean_error
        perm = rng.permutation(4)
        shuffled = MixtureEstimate(est.weights[perm], est.coeffs[perm])
        assert match_components(shuffled, model, 5).mean_error == base


def test_match_weights_do_not_drive_assignment():
    # coefficients decide the pairing even when weights would prefer the swap
    model = scalar_mixture([0.5, -0.5], [0.9, 0.1])
    est = MixtureEstimate(np.array([0.1, 0.9]),
                          model.markov_matrix(3))
    mr = match_components(est, model, 3)
    assert mr.permutation == (0, 1)
    assert np.allclose(mr.component_errors, 0.0, atol=0)
    assert np.allclose(mr.weight_errors, 0.8, atol=1e-12)


def test_match_components_rejects_infinite_costs():
    # finite coefficients whose distance to the truth overflows to inf
    model = scalar_mixture([0.5, -0.4, 0.2], np.full(3, 1.0 / 3.0))
    est = MixtureEstimate(np.full(3, 1.0 / 3.0), np.full((3, 7), 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow must not surface as a numpy warning
        with pytest.raises(ValueError, match="no assignment .* has a finite cost"):
            match_components(est, model, 7)


def test_match_validation():
    model = scalar_mixture([0.5, -0.5], [0.5, 0.5])
    with pytest.raises(ValueError):
        match_components(MixtureEstimate(np.ones(1), np.zeros((1, 3))), model, 3)
    big = scalar_mixture([0.05 * k + 0.01 for k in range(9)], np.full(9, 1.0 / 9.0))
    est9 = MixtureEstimate(np.full(9, 1.0 / 9.0), np.zeros((9, 3)))
    with pytest.raises(ValueError, match="K <= 8"):
        match_components(est9, big, 3)


def test_baseline_error_noiseless_fir():
    fir = StateSpace(np.zeros((1, 1)), [[1.0]], [1.0])
    model = MixtureModel(np.array([1.0]), [fir])
    ds = generate_dataset(model, 5, 60, NoiseConfig(1.0, 0.0, 0.0), seed=2)
    assert baseline_error(ds, model, 4) <= 1e-6


def test_baseline_error_zero_estimates():
    model = scalar_mixture([0.5, -0.4], [0.5, 0.5])
    rng = np.random.default_rng(3)
    N, T, L = 6, 30, 3
    inputs = rng.normal(size=(N, T, 1))
    labels = np.array([0, 1, 0, 1, 1, 0])
    ds = TrajectoryDataset(inputs, np.zeros((N, T)), labels)
    G = model.markov_matrix(L)
    expect = np.mean([np.linalg.norm(G[k]) for k in labels])
    assert baseline_error(ds, model, L) == pytest.approx(expect, abs=1e-12)


def test_baseline_error_matches_direct_oracle():
    from ldsmix.pipeline import ols_markov
    model = scalar_mixture([0.6, -0.3], [0.5, 0.5])
    ds = generate_dataset(model, 8, 40, seed=4)
    L = 4
    G = model.markov_matrix(L)
    total = 0.0
    for i in range(ds.N):
        g_hat = ols_markov(ds.inputs[i], ds.outputs[i], L).ravel()
        total += np.linalg.norm(G[ds.labels[i]] - g_hat)
    assert baseline_error(ds, model, L) == pytest.approx(total / ds.N, abs=1e-12)


@pytest.mark.parametrize("N,T", [(1, 96), (45, 96), (100, 96), (500, 24)])
def test_baseline_error_matches_loop(N, T):
    # chunks of 45 trajectories at T=96 and 227 at T=24 (L=7): one chunk,
    # exactly one full chunk, and three chunks with a short last one
    model = random_mixture(3, 2, 1, 7, seed=5)
    ds = generate_dataset(model, N, T, seed=N + T)
    expect = baseline_error_loop(ds, model, 7)
    assert baseline_error(ds, model, 7) == pytest.approx(expect, rel=1e-12)


def test_baseline_error_batches_trajectories(monkeypatch):
    calls = []
    real = ldsmix.evaluate.ols_markov

    def counting(inputs, outputs, L):
        calls.append(inputs.shape[0])
        return real(inputs, outputs, L)

    monkeypatch.setattr(ldsmix.evaluate, "ols_markov", counting)
    model = random_mixture(3, 3, 1, 7, seed=1)
    N, T, L = 1000, 96, 7
    ds = generate_dataset(model, N, T, seed=3)
    baseline_error(ds, model, L)
    assert sum(calls) == N
    assert len(calls) <= math.ceil(N * (T - L + 1) / _OLS_ROW_BUDGET) + 1
    # each trajectory is solved on its own, so the value does not depend on the chunks; their size
    # is pinned for memory and speed (16 384-row chunks made the study sweep slower and its peak
    # RSS larger): 45 trajectories of 90 lag rows per chunk, the last chunk holding the remaining 10
    step = _OLS_ROW_BUDGET // (T - L + 1)
    assert calls == [step] * (N // step) + [N % step]


def test_baseline_error_requires_labels():
    model = scalar_mixture([0.5], [1.0])
    ds = TrajectoryDataset(np.zeros((2, 10, 1)), np.zeros((2, 10)), None)
    with pytest.raises(ValueError, match="label"):
        baseline_error(ds, model, 3)


@pytest.mark.parametrize("bad", [-1, 2])
def test_baseline_error_rejects_out_of_range_labels(bad):
    # a label of -1 would silently score against the last component
    model = scalar_mixture([0.6, -0.3], [0.5, 0.5])
    ds = generate_dataset(model, 4, 30, seed=4)
    labels = ds.labels.copy()
    labels[2] = bad
    ds = TrajectoryDataset(ds.inputs, ds.outputs, labels)
    with pytest.raises(ValueError) as exc:
        baseline_error(ds, model, 3)
    assert str(exc.value) == f"trajectory 2 has label {bad} outside range(2)"


def tiny_config(**kw):
    base = dict(K=1, n=1, m=1, L=2, N_values=(6,), T_values=(8,),
                seeds=(0,), methods=("tensor", "baseline"))
    base.update(kw)
    return SweepConfig(**base)


def fake_timer():
    state = {"t": 0.0}

    def tick():
        state["t"] += 0.001
        return state["t"]

    return tick


def test_run_sweep_single_cell():
    records = run_sweep(tiny_config(), timer=fake_timer())
    assert len(records) == 2
    assert {r.method for r in records} == {"tensor", "baseline"}
    for r in records:
        assert (r.N, r.T, r.K, r.L, r.seed) == (6, 8, 1, 2, 0)
        assert r.status == "ok"
        assert r.error >= 0.0
        assert r.wall_ms > 0.0
    base = next(r for r in records if r.method == "baseline")
    assert math.isnan(base.weight_error)


def test_run_sweep_bookkeeping():
    cfg = tiny_config(N_values=(6, 9), seeds=tuple(range(15)))
    records = run_sweep(cfg, timer=fake_timer())
    per_method = {}
    for r in records:
        per_method.setdefault(r.method, []).append(r)
    for meth in ("tensor", "baseline"):
        assert len(per_method[meth]) == 30
        # every (seed, N) pair appears exactly once: comparisons stay paired
        pairs = sorted((r.seed, r.N) for r in per_method[meth])
        assert pairs == sorted((s, N) for s in range(15) for N in (6, 9))


def test_run_sweep_failed_mixture_records(monkeypatch):
    # the patched module constant reaches the forked worker of seed 0
    monkeypatch.setattr(ldsmix.lds, "_SIGMA_MIN", 1e6)
    set_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    cfg = tiny_config(N_values=(6, 9), seeds=(0, 1))
    records = run_sweep(cfg, timer=fake_timer())
    assert len(forks) == 1
    assert len(records) == 8
    for r in records:
        assert r.status == "failed:DegenerateMixtureError"
        assert math.isnan(r.error)


def test_run_sweep_validation():
    with pytest.raises(ValueError, match="unknown method"):
        run_sweep(tiny_config(methods=("tensor", "ridge")))
    with pytest.raises(ValueError):
        run_sweep(tiny_config(seeds=()))


@pytest.mark.parametrize("field,values", [("N_values", (6, 9, 6)), ("T_values", (8, 8)),
                                          ("methods", ("tensor", "tensor")), ("seeds", (0, 1, 0))])
def test_run_sweep_rejects_duplicates(field, values):
    # a repeated entry would write identical records that aggregate() counts as replicates
    with pytest.raises(ValueError) as exc:
        run_sweep(tiny_config(**{field: values}))
    assert str(exc.value) == f"{field} has duplicate entries: {values}"


@pytest.mark.parametrize("field,values,message", [
    ("methods", ("tensor", "ridge"), f"unknown method 'ridge'; choose from {METHODS}"),
    *[(field, (), f"{field} must be non-empty") for field in ("seeds", "N_values", "T_values", "methods")],
    ("seeds", (3, 4, 3), "seeds has duplicate entries: (3, 4, 3)"),
    ("N_values", (6, 6), "N_values has duplicate entries: (6, 6)"),
    ("T_values", (8, 9, 8), "T_values has duplicate entries: (8, 9, 8)"),
    ("methods", ("baseline", "baseline"), "methods has duplicate entries: ('baseline', 'baseline')"),
    ("N_values", (6, 0), "N_values entries must be >= 1"),
    ("T_values", (-8,), "T_values entries must be >= 1"),
    ("seeds", (3, -1), "seeds entries must be >= 0"),
    ("n_restarts", 0, "n_restarts must be >= 1"),
    ("n_iters", 0, "n_iters must be >= 1"),
    ("K", 9, "exhaustive matching is limited to K <= 8, got K=9 for methods ('tensor',)"),
])
def test_sweep_config_checks_itself(field, values, message):
    with pytest.raises(ValueError) as exc:
        tiny_config(**{field: values})
    assert str(exc.value) == message


def test_only_matched_methods_limit_the_sweep_k():
    # baseline_error compares each trajectory with its own label, so it matches no components
    assert tiny_config(K=9, methods=("baseline",)).K == 9
    with pytest.raises(ValueError) as exc:
        tiny_config(K=9, methods=("baseline", "tensor_refine"))
    assert str(exc.value) == "exhaustive matching is limited to K <= 8, got K=9 for methods ('tensor_refine',)"


def test_sweep_config_is_frozen_and_keyword_only():
    cfg = tiny_config()
    with pytest.raises(FrozenInstanceError):
        cfg.N_values = (6, 6)
    assert cfg.N_values == (6,)
    with pytest.raises(TypeError):
        SweepConfig(1, 1, 1, 2, (6,), (8,), (0,), ("tensor",))
    with pytest.raises(TypeError, match="missing 1 required keyword-only argument: 'methods'"):
        SweepConfig(K=1, n=1, m=1, L=2, N_values=(6,), T_values=(8,), seeds=(0,))


def forked_grid(monkeypatch):
    """A 4-seed grid with a degenerate seed (2) and one failing tensor fit (seed 1, N=9)."""
    real_mixture, real_fit = ldsmix.evaluate.random_mixture, ldsmix.evaluate.mlds_fit

    def mixture(*args, seed, **kw):
        if seed == 2:
            raise DegenerateMixtureError("forced degenerate mixture")
        return real_mixture(*args, seed=seed, **kw)

    def fit(data, *args, seed, **kw):
        if seed == derive_seed(1, 9, 8, 2):
            raise DecompositionError(0, "forced decomposition failure")
        return real_fit(data, *args, seed=seed, **kw)

    monkeypatch.setattr(ldsmix.evaluate, "random_mixture", mixture)
    monkeypatch.setattr(ldsmix.evaluate, "mlds_fit", fit)
    return tiny_config(N_values=(6, 9), seeds=(0, 1, 2, 3),
                       methods=("tensor", "tensor_refine", "baseline"))


def test_run_sweep_workers_write_identical_csv(tmp_path, monkeypatch):
    cfg = forked_grid(monkeypatch)
    forks = count_forks(monkeypatch)
    out = {}
    for cpus in (1, 3):
        set_cpus(monkeypatch, cpus)
        out[cpus] = tmp_path / f"w{cpus}.csv"
        write_records_csv(out[cpus], run_sweep(cfg, timer=fake_timer()))
        assert_no_children()
    assert forks == [os.getpid()] * 2  # none for one CPU, two for three
    assert out[1].read_bytes() == out[3].read_bytes()
    records = load_records_csv(out[3])
    assert [r.seed for r in records] == [s for s in (0, 1, 2, 3) for _ in range(6)]
    assert {r.status for r in records if r.seed == 2} == {"failed:DegenerateMixtureError"}
    assert [(r.N, r.method) for r in records if r.status == "failed:DecompositionError"] == \
        [(9, "tensor"), (9, "tensor_refine")]


@pytest.mark.parametrize("cpus,seeds", [(1, (0, 1, 2)), (3, (0,))])
def test_run_sweep_one_worker_never_forks(monkeypatch, cpus, seeds):
    set_cpus(monkeypatch, cpus)
    forbid_forks(monkeypatch)
    assert len(run_sweep(tiny_config(seeds=seeds), timer=fake_timer())) == 2 * len(seeds)


def test_run_sweep_failed_fork_runs_in_process(tmp_path, monkeypatch):
    cfg = tiny_config(seeds=(0, 1, 2))
    serial, failed = tmp_path / "serial.csv", tmp_path / "failed.csv"
    write_records_csv(serial, run_sweep(cfg, timer=fake_timer()))
    set_cpus(monkeypatch, 3)

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    write_records_csv(failed, run_sweep(cfg, timer=fake_timer()))
    assert failed.read_bytes() == serial.read_bytes()


def test_run_sweep_child_exception_reaches_parent(monkeypatch):
    set_cpus(monkeypatch, 2)
    parent = os.getpid()
    real = ldsmix.evaluate.random_mixture
    seen = []

    def mixture(*args, seed, **kw):
        if os.getpid() == parent:
            seen.append(seed)
        if seed == 0:
            raise ArithmeticError("seed 0 broke")
        return real(*args, seed=seed, **kw)

    monkeypatch.setattr(ldsmix.evaluate, "random_mixture", mixture)
    with pytest.raises(ArithmeticError) as exc:
        run_sweep(tiny_config(seeds=(0, 1)), timer=fake_timer())
    assert type(exc.value) is ArithmeticError and str(exc.value) == "seed 0 broke"
    assert seen == [1]  # seed 0 ran in the child
    assert_no_children()


@pytest.mark.parametrize("exc", [DecompositionError(2, "round 2 collapsed"),
                                 DegenerateMixtureError("sigma_K too small", sigma=1e-12)])
def test_errors_survive_a_pickle_round_trip(exc):
    # a sweep worker sends its exception to the parent pickled
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc) and back.args == exc.args and str(back) == str(exc)
    assert vars(back) == vars(exc)  # round_index, sigma


def test_run_sweep_child_decomposition_error_reaches_parent(monkeypatch):
    # raised outside a cell, so the worker sends it to the parent pickled
    set_cpus(monkeypatch, 2)
    parent = os.getpid()
    real = ldsmix.evaluate._seed_records

    def seed_records(cfg, seed, timer):
        if os.getpid() != parent:
            raise DecompositionError(2, "worker round 2 collapsed")
        return real(cfg, seed, timer)

    monkeypatch.setattr(ldsmix.evaluate, "_seed_records", seed_records)
    with pytest.raises(DecompositionError) as exc:
        run_sweep(tiny_config(seeds=(0, 1)), timer=fake_timer())
    assert str(exc.value) == "worker round 2 collapsed" and exc.value.round_index == 2
    assert_no_children()


def test_run_sweep_silent_child_death(monkeypatch):
    set_cpus(monkeypatch, 3)
    real = ldsmix.evaluate.random_mixture

    def mixture(*args, seed, **kw):
        if seed == 0:
            os._exit(7)
        return real(*args, seed=seed, **kw)

    monkeypatch.setattr(ldsmix.evaluate, "random_mixture", mixture)
    with pytest.raises(RuntimeError) as exc:
        run_sweep(tiny_config(seeds=(0, 1, 2, 3)), timer=fake_timer())
    assert str(exc.value) == "worker for (0,) exited with status 7 without sending its result"
    assert_no_children()  # the worker of seed 1, still unread, was stopped and reaped too


def test_run_sweep_parent_error_reaps_workers(monkeypatch):
    set_cpus(monkeypatch, 3)
    parent = os.getpid()
    real = ldsmix.evaluate.random_mixture

    def mixture(*args, seed, **kw):
        if os.getpid() == parent:
            raise KeyError("parent share failed")
        return real(*args, seed=seed, **kw)

    monkeypatch.setattr(ldsmix.evaluate, "random_mixture", mixture)
    with pytest.raises(KeyError):
        run_sweep(tiny_config(seeds=(0, 1, 2)), timer=fake_timer())
    assert_no_children()


def test_run_sweep_error_trend_single_component():
    # one-component mixtures make the 1/sqrt(samples) trend cheap to see
    cfg = SweepConfig(K=1, n=1, m=1, L=3, N_values=(50, 5000), T_values=(30,),
                      seeds=tuple(range(8)), methods=("tensor",))
    agg = aggregate(run_sweep(cfg, timer=fake_timer()))
    small = agg[("tensor", 50, 30)]["median"]
    large = agg[("tensor", 5000, 30)]["median"]
    assert large < small


def test_csv_round_trip(tmp_path):
    records = [
        SweepRecord(100, 96, 3, 7, 0, "baseline", 1.0 / 3.0, math.nan, 12.5, "ok"),
        SweepRecord(100, 96, 3, 7, 0, "tensor", 0.25, 0.125, 40.0, "ok"),
        SweepRecord(1000, 96, 3, 7, 1, "tensor", math.nan, math.nan, 0.0,
                    "failed:DecompositionError"),
    ]
    path = tmp_path / "records.csv"
    write_records_csv(path, records)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "100,96,3,7,0,baseline,0.333333333,nan,12.5,ok"
    loaded = load_records_csv(path)
    assert len(loaded) == 3
    assert loaded[0].error == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert math.isnan(loaded[0].weight_error)
    assert loaded[2].status == "failed:DecompositionError"


def test_csv_rejects_corruption(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wrong header\n")
    with pytest.raises(ValueError, match="line 1"):
        load_records_csv(path)
    path.write_text(CSV_HEADER + "\n1,2,3\n")
    with pytest.raises(ValueError, match="line 2"):
        load_records_csv(path)


def test_csv_malformed_field_names_the_line(tmp_path):
    path = tmp_path / "bad.csv"
    good = "100,96,3,7,0,tensor,0.25,0.125,40,ok"
    path.write_text(f"{CSV_HEADER}\n{good}\n100,96,3,7,x,tensor,0.25,0.125,40,ok\n")
    with pytest.raises(ValueError) as exc:
        load_records_csv(path)
    assert str(exc.value) == "line 3: invalid literal for int() with base 10: 'x'"
    path.write_text(f"{CSV_HEADER}\n100,96,3,7,0,tensor,0.25,half,40,ok\n")
    with pytest.raises(ValueError) as exc:
        load_records_csv(path)
    assert str(exc.value) == "line 2: could not convert string to float: 'half'"


def test_sweep_csv_determinism(tmp_path):
    cfg = tiny_config(N_values=(6, 9), seeds=(0, 1))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_records_csv(a, run_sweep(cfg, timer=fake_timer()))
    write_records_csv(b, run_sweep(cfg, timer=fake_timer()))
    assert a.read_bytes() == b.read_bytes()


def test_aggregate_medians_and_counts():
    rec = lambda N, seed, err, status="ok": SweepRecord(N, 5, 1, 2, seed, "tensor",
                                                        err, 0.0, 1.0, status)
    records = [rec(10, 0, 0.5), rec(10, 1, 0.1), rec(10, 2, 0.3),
               rec(20, 0, 0.2), rec(20, 1, math.nan, "failed:DecompositionError")]
    agg = aggregate(records)
    cell10 = agg[("tensor", 10, 5)]
    assert cell10["median"] == pytest.approx(0.3)
    assert cell10["mean"] == pytest.approx(0.3)
    expected_se = np.std([0.5, 0.1, 0.3], ddof=1) / math.sqrt(3)
    assert cell10["stderr"] == pytest.approx(expected_se, abs=1e-12)
    assert (cell10["n_ok"], cell10["n_failed"]) == (3, 0)
    cell20 = agg[("tensor", 20, 5)]
    assert cell20["median"] == pytest.approx(0.2)
    assert math.isnan(cell20["stderr"])  # single ok run
    assert (cell20["n_ok"], cell20["n_failed"]) == (1, 1)


def test_aggregate_all_failed_cell():
    records = [SweepRecord(10, 5, 1, 2, 0, "tensor", math.nan, math.nan, 0.0, "failed:X")]
    cell = aggregate(records)[("tensor", 10, 5)]
    assert math.isnan(cell["median"]) and cell["n_ok"] == 0 and cell["n_failed"] == 1


def test_write_series_exact_text(tmp_path):
    records = [
        SweepRecord(10, 5, 1, 2, 0, "tensor", 0.5, 0.0, 1.0, "ok"),
        SweepRecord(20, 5, 1, 2, 0, "tensor", 0.25, 0.0, 1.0, "ok"),
        SweepRecord(20, 5, 1, 2, 1, "tensor", math.nan, math.nan, 0.0, "failed:X"),
        SweepRecord(10, 5, 1, 2, 0, "baseline", 0.125, math.nan, 1.0, "ok"),
    ]
    path = tmp_path / "series.txt"
    write_series(path, records)
    expect = (
        "# series method=baseline T=5\n"
        "# N median mean stderr n_ok n_failed\n"
        "10 0.125 0.125 nan 1 0\n"
        "\n"
        "# series method=tensor T=5\n"
        "# N median mean stderr n_ok n_failed\n"
        "10 0.5 0.5 nan 1 0\n"
        "20 0.25 0.25 nan 1 1\n"
    )
    assert path.read_text() == expect


def test_write_levels_exact_text(tmp_path):
    records = [
        SweepRecord(10, 5, 1, 2, 0, "tensor", 0.5, 0.0, 1.0, "ok"),
        SweepRecord(10, 8, 1, 2, 0, "tensor", 0.4, 0.0, 1.0, "ok"),
        SweepRecord(20, 5, 1, 2, 0, "tensor", 0.25, 0.0, 1.0, "ok"),
        SweepRecord(10, 5, 1, 2, 0, "baseline", 0.1, math.nan, 1.0, "ok"),
    ]
    path = tmp_path / "levels.txt"
    write_levels(path, records, method="tensor")
    expect = (
        "# levels method=tensor\n"
        "# N T median\n"
        "10 5 0.5\n"
        "10 8 0.4\n"
        "20 5 0.25\n"
    )
    assert path.read_text() == expect


def test_sweep_records_share_mixture_across_cells():
    # the same seed at different N draws the same mixture, so a fit with huge
    # samples and one with tiny samples are graded against identical truth;
    # verified structurally: regenerating the mixture from the seed matches
    model_a = random_mixture(2, 2, 1, 4, seed=7)
    model_b = random_mixture(2, 2, 1, 4, seed=7)
    assert all(np.array_equal(x.A, y.A) for x, y in zip(model_a.systems, model_b.systems))
    assert np.array_equal(model_a.weights, model_b.weights)
