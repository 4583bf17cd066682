"""Tests for trajectory stacking, the end-to-end fit, OLS baseline, and realization."""

import hashlib
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from ldsmix import mlr, pipeline
from ldsmix.errors import DegenerateMixtureError, InsufficientLengthError
from ldsmix.lds import (MixtureModel, NoiseConfig, StateSpace, TrajectoryDataset,
                        generate_dataset, impulse_response, random_mixture,
                        random_stable_system)
from ldsmix.mlr import MixtureEstimate
from ldsmix.pipeline import (build_stacked, estimate_text, ho_kalman, load_estimate,
                             mlds_fit, ols_markov, stack_times)
from forking import forbid_threads, set_cpus
from oracles import lag_windows_loop, mlds_fit_one_array, ols_markov_lstsq, save_estimate


def fir_system(m=1, gain=1.0):
    """Order-1 system with A=0: impulse response is (gain, 0, 0, ...)."""
    return StateSpace(np.zeros((1, 1)), np.full((1, m), 1.0), np.array([gain]))


def noiseless(sigma_u=1.0):
    return NoiseConfig(sigma_u=sigma_u, sigma_w1=0.0, sigma_w2=0.0)


def test_stack_times_basic():
    assert np.array_equal(stack_times(2, 2), [2])
    assert np.array_equal(stack_times(5, 2), [2, 4])
    assert np.array_equal(stack_times(20, 4), [4, 8, 12, 16, 20])
    assert np.array_equal(stack_times(7, 7), [7])


def test_stack_times_too_short():
    with pytest.raises(InsufficientLengthError):
        stack_times(3, 4)


def stack_one(u, L):
    """build_stacked on a one-trajectory dataset; returns (times, X)."""
    u = np.asarray(u, dtype=float).reshape(1, len(u), -1)
    X, _ = build_stacked(TrajectoryDataset(u, np.zeros(u.shape[:2])), L)
    return stack_times(u.shape[1], L), X


def test_stack_inputs_smallest_case():
    u = np.array([[10.0], [20.0]])
    times, rows = stack_one(u, 2)
    assert np.array_equal(times, [2])
    assert np.array_equal(rows, [[20.0, 10.0]])  # (u_1, u_0)


def test_stack_inputs_discards_remainder():
    u = np.arange(5, dtype=float)[:, None]  # u_t = t
    times, rows = stack_one(u, 2)
    assert np.array_equal(times, [2, 4])
    assert np.array_equal(rows, [[1.0, 0.0], [3.0, 2.0]])  # u_4 dropped


def test_stack_inputs_index_oracle():
    rng = np.random.default_rng(0)
    for trial in range(10):
        T = int(rng.integers(4, 30))
        L = int(rng.integers(1, T + 1))
        m = int(rng.integers(1, 4))
        u = rng.normal(size=(T, m))
        times, rows = stack_one(u, L)
        assert len(times) == T // L
        for s, t in enumerate(times):
            expect = np.concatenate([u[t - 1 - j] for j in range(L)])
            assert np.array_equal(rows[s], expect), f"trial {trial} t={t}"


def test_stack_inputs_accepts_flat_vector():
    times, rows = stack_one(np.array([1.0, 2.0, 3.0, 4.0]), 2)
    assert np.array_equal(times, [2, 4])
    assert np.array_equal(rows, [[1.0, 1.0], [3.0, 3.0]]) is False
    assert np.array_equal(rows, [[2.0, 1.0], [4.0, 3.0]])


def make_dataset(N=4, T=8, m=1, seed=0):
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(N, T, m))
    outputs = rng.normal(size=(N, T))
    return TrajectoryDataset(inputs, outputs)


def test_build_stacked_shapes_and_provenance():
    # provenance is the layout: row i*S + s is trajectory i at time times[s]
    N, T, m, L = 4, 9, 2, 3
    ds = make_dataset(N, T, m)
    X, y = build_stacked(ds, L)
    times = stack_times(T, L)
    S = times.shape[0]
    assert np.array_equal(times, np.arange(L, T + 1, L))
    assert X.shape == (N * S, L * m)
    assert y.shape == (N * S,)
    for i in range(N):
        _, rows = lag_windows_loop(ds.inputs[i], L)
        for s in range(S):
            assert np.array_equal(X[i * S + s], rows[s])
            assert y[i * S + s] == ds.outputs[i, times[s] - 1]


def test_build_stacked_raw_index_disjointness():
    # distinct stacked covariates within a trajectory touch disjoint raw inputs;
    # each input is coded 100*i + t, so X shows which raw inputs a row read
    N, T, L = 3, 17, 4
    code = 100.0 * np.arange(N)[:, None] + np.arange(T)
    X, _ = build_stacked(TrajectoryDataset(code[:, :, None], np.zeros((N, T))), L)
    S = T // L
    for i in range(N):
        rows = X[i * S : (i + 1) * S]
        assert np.all(rows // 100 == i)
        windows = [set(r.tolist()) for r in rows]
        for a in range(S):
            for b in range(a + 1, S):
                assert not (windows[a] & windows[b])


def test_build_stacked_rejects_a_sigma_u_that_is_not_positive():
    ds = make_dataset(2, 6, 1, seed=3)
    for sigma_u in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match=f"^sigma_u must be positive, got {sigma_u!r}$"):
            build_stacked(ds, 3, sigma_u=sigma_u)


def test_build_stacked_response_and_scaling():
    ds = make_dataset(2, 6, 1, seed=3)
    X, y = build_stacked(ds, 3, sigma_u=2.0)
    # responses are the raw outputs at the subsampled times
    assert y[0] == ds.outputs[0, 2]
    assert y[1] == ds.outputs[0, 5]
    # covariates divided by sigma_u
    _, raw = lag_windows_loop(ds.inputs[0], 3)
    assert np.allclose(X[:2], raw / 2.0, atol=0)


def test_build_stacked_partition_by_trajectory(monkeypatch):
    # S = 2 rows per trajectory: the first ceil(N/2) = 3 trajectories feed M2
    # and the other 2 feed M3. Whether each half is one block (the default
    # budget) or one block per trajectory (2 rows), the rows each stage sees,
    # concatenated in order, are X[:6] and X[6:] of the full stacked X. On 3
    # CPUs a pass's blocks reach the stage from threads in any order, so there
    # they are put in the order of their first trajectory
    ds = make_dataset(5, 4, 1)
    X, y = build_stacked(ds, 2)
    starts = {}  # id of a stacked block's X -> its first trajectory
    build = pipeline.build_stacked

    def stack(dataset, L, sigma_u, start, stop):
        Xb, yb = build(dataset, L, sigma_u, start, stop)
        starts[id(Xb)] = start
        return Xb, yb

    monkeypatch.setattr(pipeline, "build_stacked", stack)
    budgets = ((pipeline._ROW_BUDGET, (1, 1)), (2, (3, 2)))
    for cpus in (1, 3):
        set_cpus(monkeypatch, cpus)
        for budget, blocks in budgets:
            monkeypatch.setattr(pipeline, "_ROW_BUDGET", budget)
            seen = {"estimate_m2": [], "estimate_whitened_m3": []}
            # the stand-in moments whiten and decompose cleanly: M2 = I, M3w = 1
            for name, moment in (("estimate_m2", np.eye(2)), ("estimate_whitened_m3", np.ones((1, 1, 1)))):
                def record(Xh, yh, *rest, _name=name, _moment=moment):
                    seen[_name].append((starts[id(Xh)], Xh, yh))
                    return _moment
                monkeypatch.setattr(pipeline, name, record)
            mlds_fit(ds, L=2, K=1)
            for name, rows, count in zip(seen, (slice(None, 6), slice(6, None)), blocks):
                if cpus > 1:
                    seen[name].sort(key=lambda block: block[0])
                _, Xs, ys = zip(*seen[name])
                assert len(Xs) == count
                assert np.array_equal(np.concatenate(Xs), X[rows]) and np.array_equal(np.concatenate(ys), y[rows])


def test_trajectory_blocks_cover_the_range_under_the_budget():
    for start, stop, rows, budget in ((0, 10, 3, 9), (5, 6, 3, 9), (3, 40, 13, 100), (0, 7, 50, 10),
                                      (2, 2, 4, 8), (0, 5, 0, 2), (0, 5, -3, 2)):
        blocks = list(pipeline.trajectory_blocks(start, stop, rows, budget))
        step = max(1, budget // max(1, rows))
        assert [a for a, _ in blocks] == list(range(start, stop, step))
        assert [b for _, b in blocks] == [min(a + step, stop) for a, _ in blocks]
        assert all(b - a == 1 or (b - a) * rows <= budget for a, b in blocks)


def fit_case(N, T=96, seed=0):
    model = random_mixture(3, 3, 1, 7, (0.6, 0.9), seed=seed)
    return generate_dataset(model, N, T, seed=seed + 1)


@pytest.mark.parametrize("refine", [False, True])
def test_mlds_fit_matches_one_array_oracle(refine):
    # at the default budget each pass is one block, so the fit has the bits of
    # the fit on one stacked X
    ds = fit_case(400)
    est = mlds_fit(ds, 7, 3, seed=2, refine=refine)
    ref = mlds_fit_one_array(ds, 7, 3, seed=2, refine=refine)
    assert np.array_equal(est.weights, ref.weights)
    assert np.array_equal(est.coeffs, ref.coeffs)


def block_budget(per_block, S):
    # one trajectory per block, or 7 from a budget that is no multiple of S,
    # so each pass ends in a short block
    return S if per_block == 1 else 7 * S + 5


@pytest.mark.parametrize("per_block", [1, 7])
def test_blocked_moments_stay_within_1e_12(monkeypatch, per_block):
    # N=301 splits into halves of 151 and 150 trajectories; M2, the whitened M3
    # and the refine pass's first moment, as mlds_fit sums them over blocks,
    # stay within 1e-12 normwise of the same moments on one stacked X
    ds = fit_case(301)
    L, S = 7, 96 // 7
    X, y = build_stacked(ds, L)
    n2 = 151 * S
    sums = []
    block_sum = pipeline._block_sum

    def record(*args):
        sums.append(block_sum(*args))
        return sums[-1]

    monkeypatch.setattr(pipeline, "_block_sum", record)
    monkeypatch.setattr(pipeline, "_ROW_BUDGET", block_budget(per_block, S))
    mlds_fit(ds, L, 3, seed=2, refine=True)
    M2, M3w, m1 = sums
    W, _ = mlr.whitening_from_m2(mlr.estimate_m2(X[:n2], y[:n2]), 3)
    for got, want in ((M2, mlr.estimate_m2(X[:n2], y[:n2])),
                      (M3w, mlr.estimate_whitened_m3(X[n2:], y[n2:], W)),
                      (m1, X.T @ y / len(y))):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("per_block", [1, 7])
def test_blocked_moments_and_fit_have_the_same_bits_on_any_cpu_count(monkeypatch, per_block):
    # the blocks' terms are added in block order whatever thread computed
    # them, so M2, the whitened M3, the refine pass's first moment and the
    # estimate keep their bits on 1, 2 and 3 CPUs
    ds = fit_case(301)
    sums, ests = {}, {}
    block_sum = pipeline._block_sum

    def record(*args):
        sums[cpus].append(block_sum(*args))
        return sums[cpus][-1]

    monkeypatch.setattr(pipeline, "_block_sum", record)
    monkeypatch.setattr(pipeline, "_ROW_BUDGET", block_budget(per_block, 96 // 7))
    for cpus in (1, 2, 3):
        set_cpus(monkeypatch, cpus)
        sums[cpus] = []
        ests[cpus] = mlds_fit(ds, 7, 3, seed=2, refine=True)
    assert len(sums[1]) == 3
    for cpus in (2, 3):
        assert all(np.array_equal(got, want) for got, want in zip(sums[cpus], sums[1], strict=True))
        assert np.array_equal(ests[cpus].weights, ests[1].weights)
        assert np.array_equal(ests[cpus].coeffs, ests[1].coeffs)


def numbered_trajectories(N):
    """N trajectories of T=4 whose responses are all the trajectory's index: at L=2, S = 2 rows each."""
    inputs = np.random.default_rng(0).normal(size=(N, 4, 1))
    return TrajectoryDataset(inputs, np.repeat(np.arange(float(N))[:, None], 4, axis=1))


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
def test_block_sum_deals_the_blocks_to_at_most_two_threads(monkeypatch, cpus):
    # five one-trajectory blocks on W = min(5, cpus, 2) threads: thread w sums
    # blocks w, w + W, ..., and the calling thread is thread 0
    ds = numbered_trajectories(5)
    ran = {}  # block -> the thread that ran its stage

    def stage(X, y):
        ran[int(y[0])] = threading.current_thread()
        return np.ones(1)

    monkeypatch.setattr(pipeline, "_ROW_BUDGET", 2)
    set_cpus(monkeypatch, cpus)
    assert np.allclose(pipeline._block_sum("M2", stage, ds, 2, 1.0, 0, 5), 1.0, rtol=0, atol=1e-15)
    W = min(5, cpus, 2)
    assert ran[0] is threading.current_thread()
    assert len(set(ran.values())) == W
    assert all(ran[i] is ran[i % W] for i in range(5))


def test_block_sum_raises_the_first_error_in_block_order(monkeypatch):
    # five one-trajectory blocks; the stages of blocks 1 and 3 raise, block
    # 1's after a pause, so on 3 CPUs block 3 (on the calling thread) fails
    # first in time. Block 1's error is raised on any CPU count, and every
    # started thread has ended
    ds = numbered_trajectories(5)

    def stage(X, y):
        block = int(y[0])
        if block == 1:
            time.sleep(0.05)
            raise LookupError("block 1 broke")
        if block == 3:
            raise ValueError("block 3 broke")
        return np.zeros(1)

    monkeypatch.setattr(pipeline, "_ROW_BUDGET", 2)  # one trajectory per block
    threads = threading.active_count()
    for cpus in (1, 2, 3):
        set_cpus(monkeypatch, cpus)
        with pytest.raises(LookupError, match="block 1 broke"):
            pipeline._block_sum("M2", stage, ds, 2, 1.0, 0, 5)
        assert threading.active_count() == threads


def test_threaded_blocks_report_an_overflow_by_name(monkeypatch):
    # outputs at 1e103 overflow their cubes in every block of the M3 half. Each
    # thread ignores the overflow as the calling thread does, so on 3 CPUs the
    # moment is named in one error and no RuntimeWarning is raised
    ds = fit_case(301)
    big = TrajectoryDataset(ds.inputs, ds.outputs * 1e103)
    monkeypatch.setattr(pipeline, "_ROW_BUDGET", block_budget(7, 96 // 7))
    set_cpus(monkeypatch, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^the whitened M3 overflows float64"):
            mlds_fit(big, 7, 3)


def test_one_block_passes_start_no_thread(monkeypatch):
    # at the default budget every pass of an N=400 fit, refine included, is
    # one block, which the calling thread sums whatever the CPU count
    set_cpus(monkeypatch, 3)
    forbid_threads(monkeypatch)
    ds = fit_case(400)
    est = mlds_fit(ds, 7, 3, seed=2, refine=True)
    ref = mlds_fit_one_array(ds, 7, 3, seed=2, refine=True)
    assert np.array_equal(est.weights, ref.weights) and np.array_equal(est.coeffs, ref.coeffs)


def test_mlds_fit_rejects_an_empty_half(monkeypatch):
    # N=1 leaves the M3 half empty, which is reported before any stage runs
    def stage(*args, **kw):
        raise AssertionError("a fit stage ran")

    for name in ("build_stacked", "estimate_m2", "whitening_from_m2", "estimate_whitened_m3", "mlr_fit"):
        monkeypatch.setattr(pipeline, name, stage)
    with pytest.raises(ValueError, match="both moment halves must be non-empty"):
        mlds_fit(TrajectoryDataset(np.ones((1, 4, 1)), np.ones((1, 4))), L=2, K=1)


def test_mlds_fit_stacks_the_m3_blocks_after_whitening(monkeypatch):
    # every lag row is e1 = (u_2, u_1, u_0) = (1, 0, 0) with a unit response,
    # so M2 = (e1 e1' - I) / 2 is degenerate for K=2: whitening fails after the
    # M2 half's two one-trajectory blocks and before any M3 block is stacked
    inputs = np.zeros((4, 6, 1))
    inputs[:, [2, 5]] = 1.0
    outputs = np.zeros((4, 6))
    outputs[:, [2, 5]] = 1.0
    stacked = []
    build = pipeline.build_stacked

    def record(dataset, L, sigma_u, start, stop):
        stacked.append((start, stop))
        return build(dataset, L, sigma_u, start, stop)

    monkeypatch.setattr(pipeline, "build_stacked", record)
    monkeypatch.setattr(pipeline, "_ROW_BUDGET", 2)
    set_cpus(monkeypatch, 1)
    with pytest.raises(DegenerateMixtureError):
        mlds_fit(TrajectoryDataset(inputs, outputs), L=3, K=2)
    assert stacked == [(0, 1), (1, 2)]
    # on 3 CPUs the two M2 blocks are stacked by two threads in either order,
    # and still no M3 block is stacked
    stacked.clear()
    set_cpus(monkeypatch, 3)
    with pytest.raises(DegenerateMixtureError):
        mlds_fit(TrajectoryDataset(inputs, outputs), L=3, K=2)
    assert sorted(stacked) == [(0, 1), (1, 2)]


def orthogonal_fir_mixture():
    """Two order-2 components with Markov vectors g = (1, 0) and (0, 1) at L=2, weights 1/2 each."""
    B, A = np.array([[1.0], [0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])
    return MixtureModel(np.array([0.5, 0.5]), [StateSpace(np.zeros((2, 2)), B, np.array([1.0, 0.0])),
                                               StateSpace(A, B, np.array([0.0, 1.0]))])


def test_mlds_fit_weights_blocks_by_row_share(monkeypatch):
    # halves of 300 trajectories (3000 rows each) cut into 130 + 130 + 40
    # trajectories reproduce the one-block fit; equal block weights would not
    ds = generate_dataset(orthogonal_fir_mixture(), 600, 20, noiseless(), seed=17)
    whole = mlds_fit(ds, 2, 2, seed=4)
    monkeypatch.setattr(pipeline, "_ROW_BUDGET", 130 * 10 + 5)
    blocked = mlds_fit(ds, 2, 2, seed=4)
    assert np.allclose(blocked.weights, whole.weights, rtol=0, atol=1e-12)
    assert np.allclose(blocked.coeffs, whole.coeffs, rtol=0, atol=1e-12)


def test_refine_blocks_weight_the_first_moment(monkeypatch):
    # one lag row (u_1, u_0) per trajectory: (3, 0), (0, 3), (3, 0) with
    # responses 0.4, 0.3, 0.3. Refine blocks of 2 and 1 trajectories, weighted
    # 2/3 and 1/3, give m1 = (0.7, 0.3), and with unit-basis coefficients the
    # re-solved weights are m1 itself (the separable case of refine_first_moment)
    inputs = np.array([[0.0, 3.0], [3.0, 0.0], [0.0, 3.0]])[:, :, None]
    outputs = np.array([[0.0, 0.4], [0.0, 0.3], [0.0, 0.3]])
    fixed = MixtureEstimate(np.array([0.5, 0.5]), np.eye(2))
    monkeypatch.setattr(pipeline, "mlr_fit", lambda *args, **kw: fixed)
    monkeypatch.setattr(pipeline, "_ROW_BUDGET", 2)
    out = mlds_fit(TrajectoryDataset(inputs, outputs), L=2, K=2, refine=True)
    assert np.allclose(out.weights, [0.7, 0.3], rtol=0, atol=1e-10)
    assert np.array_equal(out.coeffs, fixed.coeffs)


def test_mlds_fit_blocks_stay_within_1e_12(monkeypatch):
    # the fit itself, with 7 trajectories per block, at N=2e4 where the tensor
    # power method is stable: on these mixtures at N <= 1e4 a 1e-14 change of
    # the moments can move the winning restart, and with it the whole estimate
    ds = fit_case(20_000)
    ref = mlds_fit_one_array(ds, 7, 3, seed=2, refine=True)
    monkeypatch.setattr(pipeline, "_ROW_BUDGET", block_budget(7, 96 // 7))
    est = mlds_fit(ds, 7, 3, seed=2, refine=True)
    for got, want in ((est.weights, ref.weights), (est.coeffs, ref.coeffs)):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_mlds_fit_never_holds_the_stacked_x(monkeypatch):
    # with 4096-row blocks the fit's allocations peak well below the stacked X
    # of all trajectories, which a return to one X would exceed
    monkeypatch.setattr(pipeline, "_ROW_BUDGET", 4096)
    N, T, L = 4000, 96, 7
    ds = fit_case(N, T)
    full_nbytes = N * (T // L) * L * ds.m * 8
    tracemalloc.start()
    try:
        mlds_fit(ds, L, 3, seed=2, refine=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full_nbytes / 2


@pytest.mark.parametrize("cpus", [3, 8])
def test_mlds_fit_never_holds_the_stacked_x_on_many_cpus(monkeypatch, cpus):
    # each pass of the test above has 7 to 13 blocks, which 3 or 8 threads
    # would hold several at a time; the block threads stop at two, so its
    # bound holds whatever the host's CPU count
    set_cpus(monkeypatch, cpus)
    test_mlds_fit_never_holds_the_stacked_x(monkeypatch)


def test_mlds_fit_fir_single_component():
    # moment noise at 1000 samples per half sits near 0.2 for this estimator
    # (sixth-moment constants), so the small configuration gets a calibrated
    # bound and the strict 0.05 check runs at a sample count that supports it
    ss = fir_system()
    model = MixtureModel(np.array([1.0]), [ss])
    g_true = impulse_response(ss, 3).ravel()
    ds = generate_dataset(model, 200, 30, noiseless(), seed=1)
    est = mlds_fit(ds, L=3, K=1, seed=0)
    assert np.linalg.norm(est.coeffs[0] - g_true) < 0.5
    assert abs(est.weights[0] - 1.0) < 0.6


def test_mlds_fit_fir_large_sample_accuracy():
    ss = fir_system()
    model = MixtureModel(np.array([1.0]), [ss])
    g_true = impulse_response(ss, 3).ravel()
    ds = generate_dataset(model, 6400, 120, noiseless(), seed=0)
    est = mlds_fit(ds, L=3, K=1, seed=0)
    assert np.linalg.norm(est.coeffs[0] - g_true) < 0.05
    assert abs(est.weights[0] - 1.0) < 0.1


def test_mlds_fit_study_configuration_runs():
    # three order-3 scalar systems at horizon 7: returns 3 weighted components
    systems = [random_stable_system(3, 1, 0.7, seed=s) for s in (1, 2, 3)]
    model = MixtureModel(np.full(3, 1.0 / 3.0), systems)
    ds = generate_dataset(model, 120, 28, seed=5)
    est = mlds_fit(ds, L=7, K=3, seed=0)
    assert est.K == 3
    assert est.coeffs.shape == (3, 7)
    assert (est.weights > 0).all()


def test_mlds_fit_too_short():
    ds = make_dataset(4, 5, 1)
    with pytest.raises(InsufficientLengthError):
        mlds_fit(ds, L=6, K=1)


def test_mlds_fit_k_exceeds_dimension():
    ds = make_dataset(4, 8, 1)
    with pytest.raises(ValueError):
        mlds_fit(ds, L=2, K=3)


def test_mlds_fit_scaling_round_trip():
    # scaling sigma_u and the inputs together leaves the Markov estimates fixed
    ss = random_stable_system(2, 1, 0.7, seed=7)
    model = MixtureModel(np.array([1.0]), [ss])
    ds1 = generate_dataset(model, 60, 24, noiseless(sigma_u=1.0), seed=2)
    c = 2.5
    ds2 = TrajectoryDataset(ds1.inputs * c, ds1.outputs * c, ds1.labels)
    est1 = mlds_fit(ds1, L=4, K=1, sigma_u=1.0, seed=3)
    est2 = mlds_fit(ds2, L=4, K=1, sigma_u=c, seed=3)
    assert np.allclose(est1.coeffs, est2.coeffs, atol=1e-10)
    assert np.allclose(est1.weights, est2.weights, atol=1e-10)


def test_ols_markov_noiseless_exact():
    ss = random_stable_system(2, 1, 0.6, seed=4)
    model = MixtureModel(np.array([1.0]), [ss])
    ds = generate_dataset(model, 1, 40, noiseless(), seed=8)
    g = ols_markov(ds.inputs[0], ds.outputs[0], 4)
    # the horizon-4 fit sees truncation error only through omitted lags,
    # so compare against a long-memory FIR system where truncation is zero
    fir = fir_system()
    ds_fir = generate_dataset(MixtureModel(np.array([1.0]), [fir]), 1, 40, noiseless(), seed=8)
    g_fir = ols_markov(ds_fir.inputs[0], ds_fir.outputs[0], 4)
    assert np.allclose(g_fir, impulse_response(fir, 4), atol=1e-8)
    assert g.shape == (4, 1)


def test_ols_markov_zero_outputs():
    rng = np.random.default_rng(9)
    g = ols_markov(rng.normal(size=(30, 1)), np.zeros(30), 3)
    assert np.allclose(g, 0.0, atol=1e-12)


def test_ols_markov_small_noise_accuracy():
    errs = []
    for seed in range(10):
        ss = random_stable_system(3, 1, 0.75, seed=100 + seed)
        model = MixtureModel(np.array([1.0]), [ss])
        ds = generate_dataset(model, 1, 960, seed=seed)
        g = ols_markov(ds.inputs[0], ds.outputs[0], 7)
        errs.append(np.linalg.norm(g - impulse_response(ss, 7)))
    assert np.mean(errs) < 0.1


def test_ols_markov_rank_deficient_warns():
    rng = np.random.default_rng(10)
    with pytest.warns(RuntimeWarning, match="minimum-norm"):
        g = ols_markov(rng.normal(size=(6, 1)), rng.normal(size=6), 5)
    assert g.shape == (5, 1)


def test_ols_markov_too_short():
    with pytest.raises(InsufficientLengthError):
        ols_markov(np.zeros((3, 1)), np.zeros(3), 4)


@pytest.mark.parametrize("L", [0, -1])
def test_ols_markov_rejects_nonpositive_horizon(L):
    with pytest.raises(ValueError, match="L must be >= 1"):
        ols_markov(np.zeros((5, 1)), np.zeros(5), L)


def assert_matches_lstsq(g, inputs, outputs, L):
    # every trajectory along the leading axes against its own np.linalg.lstsq
    lead = inputs.shape[:-2]
    assert g.shape == lead + (L, inputs.shape[-1])
    for idx in np.ndindex(*lead):
        ref = ols_markov_lstsq(inputs[idx], outputs[idx], L)
        assert np.linalg.norm(g[idx] - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("lead", [(5,), (2, 3), (1,)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_ols_markov_batch_matches_lstsq(lead, m):
    L = 4
    rng = np.random.default_rng(20 + m)
    # 40 steps, and L*m + L - 1: the shortest trajectory whose lag rows can have full rank
    for T in (40, L * m + L - 1):
        inputs = rng.normal(size=lead + (T, m))
        outputs = rng.normal(size=lead + (T,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = ols_markov(inputs, outputs, L)
        assert_matches_lstsq(g, inputs, outputs, L)
        # the single-trajectory call agrees with the batch
        one = ols_markov(inputs.reshape(-1, T, m)[0], outputs.reshape(-1, T)[0], L)
        assert np.linalg.norm(one - g.reshape(-1, L, m)[0]) <= 1e-12 * np.linalg.norm(one)


@pytest.mark.parametrize("lead", [(), (4,), (2, 3)])
def test_ols_markov_batch_fewer_rows_than_unknowns(lead):
    L, m, T = 4, 2, 9  # 6 rows, 8 unknowns
    rng = np.random.default_rng(30)
    inputs = rng.normal(size=lead + (T, m))
    inputs[..., 1] *= 1e-5  # small singular values that lstsq's cutoff keeps
    outputs = rng.normal(size=lead + (T,))
    with pytest.warns(RuntimeWarning, match="fewer rows than unknowns") as record:
        g = ols_markov(inputs, outputs, L)
    assert len(record) == 1
    assert_matches_lstsq(g, inputs, outputs, L)


def test_ols_markov_batch_badly_scaled_full_rank():
    # R diagonals near 1e-9 * max sit far above lstsq's cutoff: solved by QR, no warning
    L, m, T = 3, 2, 40
    rng = np.random.default_rng(32)
    inputs = rng.normal(size=(4, T, m))
    inputs[..., 1] *= 1e-9
    g_true = rng.normal(size=(L, m))
    times = np.arange(L, T + 1)
    outputs = np.zeros((4, T))
    outputs[:, times - 1] = np.einsum("nslm,lm->ns", inputs[:, times[:, None] - 1 - np.arange(L)], g_true)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = ols_markov(inputs, outputs, L)
    assert np.allclose(g, g_true, rtol=0.0, atol=1e-5)


def test_ols_markov_batch_zero_input_trajectory():
    L, m = 3, 2
    rng = np.random.default_rng(31)
    inputs = rng.normal(size=(5, 30, m))
    outputs = rng.normal(size=(5, 30))
    inputs[1] = 0.0
    inputs[3] = 0.0
    with pytest.warns(RuntimeWarning, match="2 of 5 trajectories") as record:
        g = ols_markov(inputs, outputs, L)
    assert len(record) == 1
    assert np.array_equal(g[[1, 3]], np.zeros((2, L, m)))
    assert_matches_lstsq(g, inputs, outputs, L)


def test_ols_markov_batch_rejects_mismatched_outputs():
    inputs = np.zeros((3, 10, 1))
    for outputs in (np.zeros((3, 9)), np.zeros((2, 10)), np.zeros(10)):
        with pytest.raises(ValueError, match="same T steps"):
            ols_markov(inputs, outputs, 2)
    with pytest.raises(InsufficientLengthError):
        ols_markov(np.zeros((3, 3, 1)), np.zeros((3, 3)), 4)


def test_ols_markov_takes_only_trajectory_major_arrays():
    with pytest.raises(ValueError, match=r"inputs must have shape \(\.\.\., T, m\)"):
        ols_markov(np.zeros(10), np.zeros(10), 2)
    with pytest.raises(ValueError, match="same T steps"):
        ols_markov(np.zeros((10, 1)), np.zeros((10, 1)), 2)


def test_ho_kalman_scalar_geometric():
    g = impulse_response(StateSpace([[0.5]], [[1.0]], [1.0]), 5)
    assert np.allclose(g.ravel(), [1.0, 0.5, 0.25, 0.125, 0.0625], atol=0)
    ss = ho_kalman(g, 1)
    assert ss.A[0, 0] == pytest.approx(0.5, abs=1e-10)
    assert (ss.C @ ss.B)[0] == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(impulse_response(ss, 5), g, atol=1e-10)


def test_ho_kalman_round_trip_order3():
    for seed in range(8):
        ss = random_stable_system(3, 1, 0.8, seed=20 + seed)
        g = impulse_response(ss, 7)
        hat = ho_kalman(g, 3)
        assert np.allclose(impulse_response(hat, 7), g, atol=1e-8), f"seed {seed}"


def test_ho_kalman_multi_input_round_trip():
    for seed in range(5):
        ss = random_stable_system(2, 2, 0.7, seed=40 + seed)
        g = impulse_response(ss, 5)
        hat = ho_kalman(g, 2)
        assert np.allclose(impulse_response(hat, 5), g, atol=1e-8)


def test_ho_kalman_overparameterized_order():
    # order-1 data fitted at n=3: rank warning, parameters still reproduced
    g = impulse_response(StateSpace([[0.5]], [[1.0]], [2.0]), 7)
    with pytest.warns(RuntimeWarning, match="rank"):
        ss = ho_kalman(g, 3)
    assert ss.A.shape == (3, 3)
    assert np.allclose(impulse_response(ss, 7), g, atol=1e-8)


def test_ho_kalman_order_mismatch_warning():
    # order-2 data with well-separated mixed-sign modes fitted at n=1 trips
    # the sigma_{n+1} check while the truncated realization stays stable
    ss = StateSpace(np.diag([0.8, -0.7]), np.array([[1.0], [1.0]]), np.array([1.0, 1.0]))
    g = impulse_response(ss, 7)
    with pytest.warns(RuntimeWarning, match="higher order"):
        hat = ho_kalman(g, 1)
    assert hat.A.shape == (1, 1)


def test_ho_kalman_insufficient_horizon():
    g = impulse_response(random_stable_system(3, 1, 0.7, seed=61), 6)
    with pytest.raises(InsufficientLengthError):
        ho_kalman(g, 3)  # needs L >= 7


def test_ho_kalman_rejects_non_matrix_markov_parameters():
    g = impulse_response(random_stable_system(3, 1, 0.7, seed=61), 7)
    for bad in (g.ravel(), g[None], g[0, 0]):
        with pytest.raises(ValueError, match="must be an \\(L, m\\) array"):
            ho_kalman(bad, 3)


def test_ho_kalman_similarity_invariance():
    # similarity-transformed systems share Markov parameters; realizations
    # from either reproduce them even though (A, B, C) differ
    rng = np.random.default_rng(11)
    ss = random_stable_system(3, 1, 0.8, seed=62)
    P = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
    Pinv = np.linalg.inv(P)
    ss2 = StateSpace(P @ ss.A @ Pinv, P @ ss.B, Pinv.T @ ss.C)
    g1 = impulse_response(ss, 7)
    g2 = impulse_response(ss2, 7)
    assert np.allclose(g1, g2, atol=1e-8)
    hat1 = ho_kalman(g1, 3)
    hat2 = ho_kalman(g2, 3)
    assert np.allclose(impulse_response(hat1, 7), impulse_response(hat2, 7), atol=1e-8)


def test_mlds_fit_refined_weights_sum():
    systems = [random_stable_system(2, 1, 0.7, seed=s) for s in (70, 71)]
    model = MixtureModel(np.array([0.5, 0.5]), systems)
    ds = generate_dataset(model, 200, 24, seed=12)
    plain = mlds_fit(ds, L=4, K=2, seed=0)
    refined = mlds_fit(ds, L=4, K=2, seed=0, refine=True)
    assert refined.weights.sum() == pytest.approx(1.0, abs=1e-12)
    # refinement only reweights; the Markov estimates are untouched
    assert np.allclose(refined.coeffs, plain.coeffs, atol=1e-12)


@pytest.mark.parametrize("refine, digest", [
    (False, "269727b9b252206376d4717e05ae05593919adf0f3d048a0aa935f089f918742"),
    (True, "0718a11a1eac11eb3dfe477cf306cee56271576a63d845b8de10389fbce460f6"),
])
def test_estimate_text_golden(refine, digest):
    # pins every bit of two seeded fits, so a rewrite of any stage that moves
    # a last digit shows here; a different BLAS build may move them legitimately
    model = random_mixture(3, 3, 1, 7, seed=0)
    data = generate_dataset(model, 200, 96, NoiseConfig(), seed=1)
    est = mlds_fit(data, L=7, K=3, seed=2, refine=refine)
    assert hashlib.sha256(estimate_text(est, 7, 1).encode()).hexdigest() == digest


def test_estimate_file_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    from ldsmix.mlr import MixtureEstimate
    est = MixtureEstimate(np.array([0.25, 0.75]), rng.normal(size=(2, 6)))
    path = tmp_path / "est.txt"
    save_estimate(path, est, L=3, m=2)
    loaded, L, m = load_estimate(path)
    assert (L, m) == (3, 2)
    assert np.array_equal(loaded.weights, est.weights)
    assert np.array_equal(loaded.coeffs, est.coeffs)


def test_estimate_file_tolerates_trailing_lines(tmp_path):
    from ldsmix.mlr import MixtureEstimate
    est = MixtureEstimate(np.array([1.0]), np.array([[1.0, 2.0]]))
    path = tmp_path / "est.txt"
    text = estimate_text(est, L=2, m=1) + "realization 0 order 1\n0.5\n"
    path.write_text(text)
    loaded, L, m = load_estimate(path)
    assert np.array_equal(loaded.coeffs, est.coeffs)


def test_estimate_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a header\n")
    with pytest.raises(ValueError, match="line 1"):
        load_estimate(path)
    path.write_text("mlds-estimate v1, K=1, L=2, m=1\nweight 0.5\n1.0\n")
    with pytest.raises(ValueError):
        load_estimate(path)  # truncated coefficient block


def test_estimate_text_dimension_check():
    from ldsmix.mlr import MixtureEstimate
    est = MixtureEstimate(np.array([1.0]), np.array([[1.0, 2.0, 3.0]]))
    with pytest.raises(ValueError):
        estimate_text(est, L=2, m=2)
