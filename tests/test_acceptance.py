"""Acceptance suite: eight criteria, one printed PASS/FAIL line each.

Run with -s to see every criterion line; failing criteria also show their
line in the captured-output section of the pytest report.
"""

import itertools
import time

import numpy as np

from ldsmix.evaluate import SweepConfig, aggregate, match_components, run_sweep
from ldsmix.lds import (NoiseConfig, TrajectoryDataset, generate_dataset,
                        impulse_response, random_mixture, random_stable_system)
from ldsmix.mlr import estimate_m2
from ldsmix.pipeline import build_stacked, ho_kalman, mlds_fit, stack_times
from ldsmix.tensor3 import robust_tpm, symmetrize
from ldsmix.util import derive_seed
from oracles import fit_from_moments, lag_windows_loop, outer3


def report(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def spread_weights(raw: np.ndarray, floor: float = 0.1) -> np.ndarray:
    """Map a simplex point to one with every coordinate >= floor."""
    K = raw.shape[0]
    return floor + (1.0 - floor * K) * raw


def test_criterion_1_exact_moment_recovery():
    rng = np.random.default_rng(2024)
    grid = list(itertools.product((2, 3, 4), (5, 7, 10)))
    failures = []
    t0 = time.perf_counter()
    for i in range(50):
        K, d = grid[i % len(grid)]
        betas = rng.normal(size=(K, d))
        weights = spread_weights(rng.dirichlet(np.ones(K)))
        M2 = (betas.T * weights) @ betas
        M3 = symmetrize(
            sum(w * outer3(b) for w, b in zip(weights, betas)))
        est = fit_from_moments(M2, M3, K, seed=i)
        worst = 0.0
        used = set()
        for k in range(K):
            dists = np.linalg.norm(est.coeffs - betas[k], axis=1)
            j = int(np.argmin(dists))
            worst = max(worst, dists[j], abs(est.weights[j] - weights[k]))
            used.add(j)
        if worst > 1e-6 or len(used) != K:
            failures.append((i, K, d, worst))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    report(1, ok, f"{50 - len(failures)}/50 exact-moment recoveries within 1e-6 "
                  f"in {elapsed:.1f}s (budget 10s)")
    assert not failures, f"instances beyond 1e-6: {failures}"
    assert elapsed < 10.0


def test_criterion_2_tpm_oracle_equivalence():
    rng = np.random.default_rng(7)
    failures = []
    for i in range(50):
        K = int(rng.integers(1, 6))
        d = K + int(rng.integers(0, 3))
        Q, _ = np.linalg.qr(rng.normal(size=(d, K)))
        lams = rng.uniform(0.5, 2.0, size=K)
        T = symmetrize(
            sum(l * outer3(Q[:, k]) for k, l in enumerate(lams)))
        est_lams, est_vecs = robust_tpm(T, K, seed=i)
        worst = 0.0
        used = set()
        for k in range(K):
            # compare component reconstructions: sign ambiguity cancels there
            target = lams[k] * outer3(Q[:, k])
            dists = [np.linalg.norm(lam * outer3(v) - target)
                     for lam, v in zip(est_lams, est_vecs)]
            j = int(np.argmin(dists))
            worst = max(worst, dists[j])
            used.add(j)
        if worst > 1e-6 or len(used) != K:
            failures.append((i, K, worst))
    ok = not failures
    report(2, ok, f"{50 - len(failures)}/50 orthogonal-tensor decompositions "
                  "match the construction within 1e-6")
    assert not failures, f"instances beyond 1e-6: {failures}"


def test_criterion_3_moment_error_shrinks_in_n():
    rng = np.random.default_rng(11)
    K, d = 3, 7
    betas = rng.normal(size=(K, d))
    weights = np.array([0.5, 0.3, 0.2])
    M2 = (betas.T * weights) @ betas
    wins = 0
    for seed in range(20):
        errs = {}
        for N in (10_000, 40_000):
            srng = np.random.default_rng((seed, N))
            labels = srng.choice(K, size=N + 1, p=weights)
            X = srng.normal(size=(N + 1, d))
            y = np.einsum("ij,ij->i", X, betas[labels])
            errs[N] = np.linalg.norm(estimate_m2(X[:N], y[:N]) - M2, 2)
        wins += errs[40_000] < errs[10_000]
    ok = wins >= 18
    report(3, ok, f"operator-norm M2 error smaller at N=40000 than N=10000 "
                  f"for {wins}/20 seeds (need >= 18)")
    assert wins >= 18


def test_criterion_4_study_reproduction():
    cfg = SweepConfig(K=3, n=3, m=1, L=7, N_values=(100, 1000, 10_000),
                      T_values=(96,), seeds=tuple(range(10)),
                      methods=("tensor", "baseline"))
    agg = aggregate(run_sweep(cfg))
    med = {N: agg[("tensor", N, 96)]["median"] for N in cfg.N_values}
    base = agg[("baseline", 10_000, 96)]["median"]
    decreasing = med[100] > med[1000] > med[10_000]
    beats_baseline = med[10_000] < base
    ok = decreasing and beats_baseline
    report(4, ok,
           f"median tensor error N=100: {med[100]:.4f}, N=1000: {med[1000]:.4f}, "
           f"N=10000: {med[10_000]:.4f} (want strictly decreasing: {decreasing}); "
           f"baseline at N=10000: {base:.4f} (want tensor below it: {beats_baseline})")
    assert decreasing, (
        "median tensor error is not strictly decreasing in N: "
        f"{med[100]:.4f} -> {med[1000]:.4f} -> {med[10_000]:.4f}")
    assert beats_baseline, (
        f"median tensor error {med[10_000]:.4f} does not beat the per-trajectory "
        f"OLS baseline {base:.4f} at N=10000, T=96")


def test_criterion_5_nt_tradeoff():
    meds = {}
    for N, T in ((4000, 24), (1000, 96)):
        cfg = SweepConfig(K=3, n=3, m=1, L=7, N_values=(N,), T_values=(T,),
                          seeds=tuple(range(10)), methods=("tensor",))
        meds[(N, T)] = aggregate(run_sweep(cfg))[("tensor", N, T)]["median"]
    ratio = meds[(4000, 24)] / meds[(1000, 96)]
    ok = 1.0 / 3.0 <= ratio <= 3.0
    report(5, ok, f"median error (N=4000,T=24): {meds[(4000, 24)]:.4f}, "
                  f"(N=1000,T=96): {meds[(1000, 96)]:.4f}, ratio {ratio:.3f} "
                  "(need within a factor of 3)")
    assert ok, f"ratio {ratio:.3f} outside [1/3, 3]"


def test_criterion_6_ho_kalman_round_trip():
    rng = np.random.default_rng(13)
    failures = []
    for i in range(100):
        n = (i % 3) + 1
        L = 2 * n + 1
        ss = random_stable_system(n, 1, float(rng.uniform(0.3, 0.95)), seed=1000 + i)
        g = impulse_response(ss, L)
        hat = ho_kalman(g, n)
        err = float(np.max(np.abs(impulse_response(hat, L) - g)))
        if err > 1e-8:
            failures.append((i, n, err))
    ok = not failures
    report(6, ok, f"{100 - len(failures)}/100 realizations reproduce all "
                  "Markov parameters within 1e-8")
    assert not failures, f"round-trip misses: {failures}"


def test_criterion_7_rollout_and_stacking_properties():
    rng = np.random.default_rng(17)
    conv_bad = 0
    for i in range(1000):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        T = int(rng.integers(2, 24))
        ss = random_stable_system(n, m, float(rng.uniform(0.2, 0.9)), seed=2000 + i)
        u = rng.normal(size=(T, m))
        x = np.zeros(n)
        outputs = np.empty(T)
        for t in range(T):
            x = ss.A @ x + ss.B @ u[t]
            outputs[t] = ss.C @ x
        g = impulse_response(ss, T)
        conv = np.array([sum(g[j] @ u[t - j] for j in range(t + 1)) for t in range(T)])
        if np.max(np.abs(outputs - conv)) > 1e-10:
            conv_bad += 1
    stack_bad = 0
    for i in range(1000):
        T = int(rng.integers(1, 40))
        L = int(rng.integers(1, T + 1))
        m = int(rng.integers(1, 3))
        u = rng.normal(size=(T, m))
        times = stack_times(T, L)
        rows, _ = build_stacked(TrajectoryDataset(u[None], np.zeros((1, T))), L)
        want_times, want_rows = lag_windows_loop(u, L)
        if (len(times) != T // L or not np.array_equal(times, want_times)
                or not np.array_equal(rows, want_rows)):
            stack_bad += 1
            continue
        seen = set()
        okay = True
        for t in times:
            window = set(range(t - L, t))
            if window & seen:
                okay = False
            seen |= window
        if not okay:
            stack_bad += 1
    ok = conv_bad == 0 and stack_bad == 0
    report(7, ok, f"rollout equals convolution in {1000 - conv_bad}/1000 cases "
                  f"(1e-10); stacking indices correct in {1000 - stack_bad}/1000 cases")
    assert conv_bad == 0 and stack_bad == 0


def test_criterion_8_refinement_contract():
    noise = NoiseConfig()
    diffs = []
    worst_sum = 0.0
    for seed in range(20):
        model = random_mixture(3, 3, 1, 7, (0.6, 0.9), seed=seed)
        data = generate_dataset(model, 1000, 96, noise, derive_seed(seed, 1000, 96, 1))
        fit_seed = derive_seed(seed, 1000, 96, 2)
        plain = mlds_fit(data, 7, 3, sigma_u=noise.sigma_u, seed=fit_seed)
        refined = mlds_fit(data, 7, 3, sigma_u=noise.sigma_u, seed=fit_seed, refine=True)
        worst_sum = max(worst_sum, abs(refined.weights.sum() - 1.0))
        e_plain = match_components(plain, model, 7).mean_error
        e_refined = match_components(refined, model, 7).mean_error
        diffs.append(e_refined - e_plain)
    mean_diff = float(np.mean(diffs))
    ok = worst_sum <= 1e-12 and mean_diff <= 0.02
    report(8, ok, f"refined weight sums within {worst_sum:.2e} of 1 (need 1e-12); "
                  f"mean error change {mean_diff:+.4f} (allowed +0.02)")
    assert worst_sum <= 1e-12
    assert mean_diff <= 0.02
