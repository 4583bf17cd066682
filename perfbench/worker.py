"""Child processes of the benchmark; run.py starts them, one at a time.

    worker.py cli --spans OUT.json -- <ldsmix arguments>
        Runs ldsmix.cli.main with per-layer tracing installed and writes the
        spans, the import time and the exit code to OUT.json.

    worker.py fit --seed S --seconds X --N N --T T --setups R --trace 0|1 --out OUT.json
        The fit_1e5 workload: R set-ups (random_mixture plus the batched
        generator below), then mlds_fit and match_components repeated for
        about X seconds; with --trace 1 each timed fit is paired with a traced one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time

import numpy as np

K, N_STATE, M_IN, L = 3, 3, 1, 7
CHUNK = 8192  # trajectories drawn per block, which bounds the set-up's temporaries


def simulate_batch(model, labels, drive):
    """Noise-free outputs of x_{t+1} = A x_t + B drive_t, y = C x for each labelled row.

    The same recursion as ldsmix.lds.simulate, run for all trajectories of one
    component at once instead of one trajectory at a time.
    """
    N, T, _ = drive.shape
    Y = np.empty((N, T))
    for k, ss in enumerate(model.systems):
        idx = np.nonzero(labels == k)[0]
        x = np.zeros((idx.size, ss.order))
        dk = drive[idx]
        yk = np.empty((idx.size, T))
        for t in range(T):
            x = x @ ss.A.T + dk[:, t] @ ss.B.T
            yk[:, t] = x @ ss.C
        Y[idx] = yk
    return Y


def batched_dataset(model, N, T, seed, chunk=CHUNK):
    """N labelled trajectories from the model, drawn from one stream of seed.

    Noise levels are the CLI defaults. Draw order: labels, then per block of
    trajectories the inputs, the process noise and the measurement noise, as
    in ldsmix.lds.rollout.
    """
    from ldsmix.lds import NoiseConfig, TrajectoryDataset

    noise = NoiseConfig()
    rng = np.random.default_rng(seed)
    labels = rng.choice(model.K, size=N, p=model.weights)
    m = model.input_dim
    U = np.empty((N, T, m))
    Y = np.empty((N, T))
    for lo in range(0, N, chunk):
        hi = min(N, lo + chunk)
        u = rng.normal(0.0, noise.sigma_u, size=(hi - lo, T, m))
        w1 = rng.normal(0.0, noise.sigma_w1, size=(hi - lo, T, m))
        w2 = rng.normal(0.0, noise.sigma_w2, size=(hi - lo, T))
        U[lo:hi] = u
        Y[lo:hi] = simulate_batch(model, labels[lo:hi], u + w1) + w2
    return TrajectoryDataset(U, Y, labels)


def estimate_digest(est) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(est.weights, dtype=float).tobytes())
    h.update(np.ascontiguousarray(est.coeffs, dtype=float).tobytes())
    return h.hexdigest()


def estimate_is_finite(est) -> bool:
    return bool(np.all(np.isfinite(est.weights)) and np.all(est.weights > 0)
                and np.all(np.isfinite(est.coeffs)))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fit_once(model, data, seed):
    from ldsmix import evaluate, pipeline

    t0 = time.perf_counter()
    est = pipeline.mlds_fit(data, L, K, seed=seed)
    t1 = time.perf_counter()
    mr = evaluate.match_components(est, model, L)
    t2 = time.perf_counter()
    return {"fit_s": t1 - t0, "wall_s": t2 - t0, "digest": estimate_digest(est),
            "finite": estimate_is_finite(est),
            "est_err": mr.mean_error, "weight_err": mr.mean_weight_error}


def run_fit(args) -> dict:
    import ldsmix
    from tracing import Tracer

    setups = []
    model = data = None
    for _ in range(args.setups):
        data = None  # drop the previous copy before drawing the next
        t0 = time.perf_counter()
        model = ldsmix.random_mixture(K, N_STATE, M_IN, L, seed=args.seed)
        data = batched_dataset(model, args.N, args.T, args.seed)
        setups.append(time.perf_counter() - t0)

    iters, traces = [], []
    start = time.perf_counter()
    while not iters or time.perf_counter() - start < args.seconds:
        iters.append(_fit_once(model, data, args.seed))
        if args.trace:
            with Tracer() as tracer:
                traced = _fit_once(model, data, args.seed)
            traces.append({"result": traced, "stats": tracer.stats,
                           "missing": tracer.missing, "top_s": tracer.top_s})
    return {"setup_s": setups, "iters": iters, "traces": traces, "peak_rss_mb": peak_rss_mb()}


def run_cli(args) -> int:
    t0 = time.perf_counter()
    import ldsmix.cli
    import_s = time.perf_counter() - t0
    from tracing import Tracer

    with Tracer() as tracer:
        rc = ldsmix.cli.main(args.argv)
    with open(args.spans, "w") as fh:
        json.dump({"rc": rc, "import_s": import_s, "stats": tracer.stats,
                   "missing": tracer.missing, "top_s": tracer.top_s}, fh)
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    subs = parser.add_subparsers(dest="mode", required=True)
    cli = subs.add_parser("cli")
    cli.add_argument("--spans", required=True)
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    fit = subs.add_parser("fit")
    for name in ("seed", "N", "T", "setups", "trace"):
        fit.add_argument(f"--{name}", type=int, required=True)
    fit.add_argument("--seconds", type=float, required=True)
    fit.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.mode == "cli":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return run_cli(args)
    result = run_fit(args)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
