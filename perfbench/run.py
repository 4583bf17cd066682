"""The ldsmix benchmark: three workloads, end-to-end metrics, and a traced run per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli_1e4 --seed 0 --seconds 30 --trace 0

Workloads (the seed is S = --seed; K=3, n=3, m=1, L=7 throughout):

  cli_1e4  simulate (N=1e4, T=96), fit --refine --ho-kalman 3, eval, as three
           ldsmix processes in a fresh directory. Text save/load and
           per-trajectory rollouts dominate; the tensor power method is ~4%.
  study    one `ldsmix sweep --N 100,1000 --T 24,96 --num-seeds 10
           --methods tensor,baseline` process (80 records): many small fits,
           so the tensor power method, rollouts and the OLS baseline carry it.
  fit_1e5  set-up draws 1e5 x 96 trajectories with the batched generator in
           worker.py; the timed part is mlds_fit plus match_components in one
           process. Stacking dominates; no text I/O and no lds.generate.

With --trace 0 each run repeats the workload until --seconds seconds have
passed (at least twice) and reports medians of setup_s, wall_s and peak_rss_mb. With
--trace 1 each repetition is run once plain and once with tracing.Tracer
installed, and the per-layer spans are reported. Outputs are checked after
every repetition; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = 1      # explicit, so estimates and timings do not depend on the core count
RUN_LIMIT_S = 165.0   # a run must end within 180 s, child processes included
SETUPS = 3
MIN_REPS = 2          # untraced repetitions per run, even when they overrun --seconds
K, N_STATE, L = 3, 3, 7

SIZES = {
    "full": {"cli_1e4": {"N": 10000, "T": 96},
             "study": {"N": (100, 1000), "T": (24, 96), "num_seeds": 10},
             "fit_1e5": {"N": 100000, "T": 96}},
    "tiny": {"cli_1e4": {"N": 300, "T": 48},
             "study": {"N": (200,), "T": (48,), "num_seeds": 2},
             "fit_1e5": {"N": 2000, "T": 48}},
}

# Layers each workload must call when traced; a layer left at zero calls is flagged.
EXPECTED = {
    "cli_1e4": ("lds.save", "lds.load", "lds.generate", "lds.rollout", "pipeline.stack",
                "mlr.m2", "mlr.whiten", "mlr.m3", "mlr.fit", "mlr.refine", "tensor3.tpm",
                "pipeline.fit", "pipeline.ho_kalman", "pipeline.estimate_io",
                "evaluate.match", "cli"),
    "study": ("lds.generate", "lds.rollout", "pipeline.stack", "mlr.m2", "mlr.whiten",
              "mlr.m3", "mlr.fit", "tensor3.tpm", "pipeline.fit", "pipeline.ols",
              "evaluate.baseline", "evaluate.match", "evaluate.sweep", "cli"),
    "fit_1e5": ("pipeline.stack", "mlr.m2", "mlr.whiten", "mlr.m3", "mlr.fit",
                "tensor3.tpm", "pipeline.fit", "evaluate.match"),
}

LDSMIX = [sys.executable, "-c", "import sys; from ldsmix.cli import main; sys.exit(main())"]
TRACED_LDSMIX = [sys.executable, str(HERE / "worker.py"), "cli"]


class BenchmarkError(Exception):
    """The program under test cannot be run at all; no result is printed."""


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    path = [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env.update(PYTHONPATH=os.pathsep.join(path), TMPDIR=str(work), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=str(BLAS_THREADS), OMP_NUM_THREADS=str(BLAS_THREADS),
               MKL_NUM_THREADS=str(BLAS_THREADS))
    return env


@dataclass
class Step:
    rc: int
    wall: float
    rss_mb: float
    stdout: str
    stderr: str


class Runner:
    """Runs one child process at a time and reaps it with its resource usage."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = child_env(work)
        self.count = 0

    def run(self, argv, cwd: Path) -> Step:
        self.count += 1
        out, err = self.work / f"step{self.count}.out", self.work / f"step{self.count}.err"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=fo, stderr=fe)
            # a blocking wait, so the benchmark takes no CPU from the child while it runs
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                rc, rss_mb = os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0
            except ChildProcessError:  # reaped by the timer's kill at the deadline
                rc, rss_mb = proc.returncode, 0.0
            except BaseException:  # interrupted or terminated: stop the child before leaving
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = rc
        return Step(rc, wall, rss_mb, out.read_text(errors="replace"), err.read_text(errors="replace"))


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failures.append(what)
        return ok


# ---------------------------------------------------------------------------
# workloads: each repetition returns timings, accuracy figures and a digest


def fresh_dir(work: Path, name: str) -> Path:
    d = work / name
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    return d


def setup_cli(runner: Runner, work: Path) -> float:
    """Fresh directory plus one interpreter that imports the package: what a CLI user pays first."""
    t0 = time.perf_counter()
    d = fresh_dir(work, "setup")
    step = runner.run([sys.executable, "-c", "import ldsmix.cli"], d)
    if step.rc != 0:
        raise BenchmarkError(f"cannot import ldsmix from {SRC}: {step.stderr.strip()}")
    return time.perf_counter() - t0


def _ldsmix_step(runner, d, args, traced, spans) -> Step:
    """One ldsmix process; a traced one appends (step, its spans) to spans."""
    if not traced:
        return runner.run(LDSMIX + args, d)
    path = d / f"spans{len(spans)}.json"
    step = runner.run(TRACED_LDSMIX + ["--spans", str(path), "--"] + args, d)
    if path.exists():
        spans.append((step, json.loads(path.read_text())))
    return step


def run_cli_1e4(runner, work, seed, size, traced, tally, rep):
    d = fresh_dir(work, f"rep{rep}")
    steps = {
        "simulate": ["simulate", "--K", str(K), "--n", str(N_STATE), "--m", "1", "--L", str(L),
                     "--N", str(size["N"]), "--T", str(size["T"]), "--seed", str(seed), "--out", "w"],
        "fit": ["fit", "--data", "w.dataset.txt", "--out", "w.estimate.txt", "--L", str(L),
                "--K", str(K), "--refine", "--ho-kalman", "3", "--seed", str(seed)],
        "eval": ["eval", "--estimate", "w.estimate.txt", "--mixture", "w.mixture.txt", "--L", str(L)],
    }
    times, rss, spans, outs = {}, [], [], {}
    t0 = time.perf_counter()
    for name, args in steps.items():
        tally.attempted += 1
        step = _ldsmix_step(runner, d, args, traced, spans)
        times[name] = step.wall
        rss.append(step.rss_mb)
        outs[name] = step.stdout
        if not tally.check(step.rc == 0, f"ldsmix {name} exited {step.rc}: {step.stderr.strip()[-300:]}"):
            return None
    wall = time.perf_counter() - t0

    from ldsmix.evaluate import match_components
    from ldsmix.lds import load_mixture
    from ldsmix.pipeline import load_estimate
    from worker import estimate_is_finite

    rec = {"wall_s": wall, "simulate_s": times["simulate"], "fit_s": times["fit"],
           "peak_rss_mb": max(rss), "spans": spans}
    tally.attempted += 1
    try:
        est, est_L, _ = load_estimate(d / "w.estimate.txt")
        truth = load_mixture(d / "w.mixture.txt")
    except (OSError, ValueError) as exc:
        tally.check(False, f"cannot read the simulate/fit outputs: {exc}")
        return rec
    tally.check(est_L == L and estimate_is_finite(est), "estimate weights/coefficients not finite and positive")
    mr = match_components(est, truth, L)
    printed = dict(line.split()[:2] for line in outs["eval"].splitlines()
                   if line.startswith("mean_"))
    tally.check(printed.get("mean_error") == f"{mr.mean_error:.9g}",
                f"eval printed mean_error {printed.get('mean_error')}, benchmark got {mr.mean_error:.9g}")
    rec.update(est_err=mr.mean_error, weight_err=mr.mean_weight_error,
               digest=hashlib.sha256((d / "w.estimate.txt").read_bytes()).hexdigest())
    shutil.rmtree(d, ignore_errors=True)
    return rec


def run_study(runner, work, seed, size, traced, tally, rep):
    import numpy as np
    from ldsmix.evaluate import load_records_csv

    d = fresh_dir(work, f"rep{rep}")
    args = ["sweep", "--K", str(K), "--n", str(N_STATE), "--L", str(L),
            "--N", ",".join(map(str, size["N"])), "--T", ",".join(map(str, size["T"])),
            "--num-seeds", str(size["num_seeds"]), "--seed", str(seed),
            "--methods", "tensor,baseline", "--out", "s"]
    spans = []
    tally.attempted += 1
    step = _ldsmix_step(runner, d, args, traced, spans)
    if not tally.check(step.rc == 0, f"ldsmix sweep exited {step.rc}: {step.stderr.strip()[-300:]}"):
        return None
    rec = {"wall_s": step.wall, "study_s": step.wall, "peak_rss_mb": step.rss_mb, "spans": spans}
    tally.attempted += 1
    expected = len(size["N"]) * len(size["T"]) * size["num_seeds"] * 2
    try:
        records = load_records_csv(d / "s.csv")
    except (OSError, ValueError) as exc:
        tally.check(False, f"cannot read the sweep records: {exc}")
        return rec
    if not tally.check(len(records) == expected, f"sweep wrote {len(records)} records, expected {expected}"):
        return rec
    ok = [r for r in records if r.status == "ok"]
    tally.check(all(np.isfinite(r.error) for r in ok), "an ok sweep record has a non-finite error")
    tensor = [r.error for r in ok if r.method == "tensor"]
    baseline = [r.error for r in ok if r.method == "baseline"]
    key = "\n".join(f"{r.N},{r.T},{r.seed},{r.method},{r.error!r},{r.weight_error!r},{r.status}"
                    for r in records)  # wall_ms left out: it is a timing
    rec.update(tensor_err_med=statistics.median(tensor) if tensor else float("nan"),
               baseline_err_med=statistics.median(baseline) if baseline else float("nan"),
               failed_records=len(records) - len(ok), records=len(records),
               digest=hashlib.sha256(key.encode()).hexdigest())
    shutil.rmtree(d, ignore_errors=True)
    return rec


def run_fit_1e5(runner, work, seed, size, seconds, trace, tally):
    """fit_1e5 runs set-up and repetitions inside one worker process; returns (setups, reps)."""
    out = work / "fit.json"
    args = [sys.executable, str(HERE / "worker.py"), "fit", "--seed", str(seed),
            "--N", str(size["N"]), "--T", str(size["T"]), "--setups", str(SETUPS),
            "--trace", str(trace), "--seconds", repr(seconds), "--out", str(out)]
    step = runner.run(args, work)
    if not tally.check(step.rc == 0, f"fit worker exited {step.rc}: {step.stderr.strip()[-300:]}"):
        tally.attempted += 1
        return [], []
    res = json.loads(out.read_text())
    reps = []
    for i, plain in enumerate(res["iters"]):
        plain["peak_rss_mb"] = res["peak_rss_mb"]
        traced = None
        if trace:
            tr = res["traces"][i]
            traced = dict(tr["result"], trace=tr)
        for rec in filter(None, (plain, traced)):
            tally.attempted += 1
            tally.check(rec["finite"], "mlds_fit returned non-finite or non-positive estimates")
        reps.append((plain, traced))
    return res["setup_s"], reps


# ---------------------------------------------------------------------------
# reporting


def percentile_note(values) -> str:
    """The median, and the highest of p90/p99/p99.9 that has at least ten samples beyond it."""
    n = len(values)
    note = f"median of n={n}"
    for p in (0.999, 0.99, 0.9):
        if n * (1.0 - p) >= 10:
            q = statistics.quantiles(values, n=1000, method="inclusive")[round(p * 1000) - 1]
            return f"{note}, p{p * 100:g}={q:.6g}"
    return note + ", no percentile with >= 10 samples beyond it"


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.exists():
        ref = head.read_text().strip()
        commit = (ROOT / ".git" / ref[5:]).read_text().strip() if ref.startswith("ref: ") and \
            (ROOT / ".git" / ref[5:]).exists() else ref
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "commit": commit, "src_sha256": src.hexdigest()}


def per_layer_names() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    from tracing import EXTRA_COUNTS, LAYERS

    names = {}
    for layer in list(LAYERS) + ["cli"]:
        names.update({f"{layer}.s": "s", f"{layer}.self_s": "s", f"{layer}.calls": "count"})
        for extra in EXTRA_COUNTS.get(layer, ()):
            names[f"{layer}.{extra}"] = "bytes" if extra == "bytes" else "count"
    names["cli.import_s"] = "s"
    names.update({"trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
                  "trace.remainder_s": "s", "trace.missing_spans": "count",
                  "trace.flagged_layers": "count"})
    return names


def layer_metrics(workload, plain, traced) -> tuple[dict, list, list]:
    """Flat per-layer metrics of one traced repetition, its missing spans and flagged layers."""
    from tracing import empty_stats

    stats = empty_stats()
    cli = {"s": 0.0, "self_s": 0.0, "calls": 0, "import_s": 0.0}
    missing = set()
    if "trace" in traced:
        parts = [traced["trace"]]
    else:
        parts = [sp for _, sp in traced["spans"]]
        for step, sp in traced["spans"]:
            cli["s"] += step.wall
            cli["self_s"] += step.wall - sp["top_s"]
            cli["calls"] += 1
            cli["import_s"] += sp["import_s"]
    for part in parts:
        missing.update(part["missing"])
        for layer, st in part["stats"].items():
            for key, value in st.items():
                stats[layer][key] += value
    stats["cli"] = cli
    flat = {f"{layer}.{key}": value for layer, st in stats.items() for key, value in st.items()}
    flagged = [layer for layer in EXPECTED[workload] if stats[layer]["calls"] == 0]
    self_total = sum(st["self_s"] for st in stats.values())
    flat.update({"trace.wall_s": traced["wall_s"], "trace.untraced_wall_s": plain["wall_s"],
                 "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
                 "trace.remainder_s": traced["wall_s"] - self_total,
                 "trace.missing_spans": len(missing), "trace.flagged_layers": len(flagged)})
    return flat, sorted(missing), flagged


DETAIL = (  # the ten end-to-end figures, printed by name for every workload that has them
    ("setup_s", "s"), ("simulate_s", "s"), ("fit_s", "s"), ("study_s", "s"),
    ("peak_rss_mb", "MB"), ("est_err", "l2"), ("weight_err", "abs"),
    ("tensor_err_med", "l2"), ("baseline_err_med", "l2"), ("fail_frac", "ratio"),
)


def measure(workload, seed, seconds, trace, size_name):
    start = time.monotonic()
    sys.path[:0] = [str(SRC)]
    if not (SRC / "ldsmix" / "__init__.py").exists():
        raise BenchmarkError(f"no ldsmix package under {SRC}")
    try:
        import ldsmix  # noqa: F401
    except ImportError as exc:
        raise BenchmarkError(f"cannot import ldsmix: {exc}") from None
    size = SIZES[size_name][workload]
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, start + RUN_LIMIT_S)
    tally = Tally()
    try:
        if workload == "fit_1e5":
            setups, reps = run_fit_1e5(runner, work, seed, size, seconds, trace, tally)
        else:
            fn = run_cli_1e4 if workload == "cli_1e4" else run_study
            setups = [setup_cli(runner, work) for _ in range(SETUPS)]
            reps, longest = [], 0.0
            min_reps = 1 if trace else MIN_REPS
            t_start = time.perf_counter()
            while not reps or (time.monotonic() + longest < runner.deadline and (
                    len(reps) < min_reps or time.perf_counter() - t_start < seconds)):
                t0 = time.perf_counter()
                plain = fn(runner, work, seed, size, False, tally, len(reps))
                traced = fn(runner, work, seed, size, True, tally, len(reps)) if trace and plain else None
                if plain is None or (trace and traced is None):
                    break
                reps.append((plain, traced))
                longest = max(longest, time.perf_counter() - t0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return setups, reps, tally


def check_digest_ledger(key: str, digest: str, tally: Tally) -> None:
    """Compare the estimate digest with the one an earlier run of the same source and inputs left."""
    path = WORK / "digests.json"
    try:
        ledger = json.loads(path.read_text())
    except (OSError, ValueError):
        ledger = {}
    seen = ledger.setdefault(key, digest)
    tally.check(seen == digest, f"estimate digest {digest} differs from {seen} of an earlier run of this source")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, path)


def report(workload, seed, seconds, trace, size_name) -> dict:
    facts = machine_facts()
    setups, reps, tally = measure(workload, seed, seconds, trace, size_name)
    print(f"machine {json.dumps(facts)}")
    print(f"workload {workload} seed {seed} seconds {seconds} trace {trace} "
          f"size {json.dumps(SIZES[size_name][workload])} repetitions {len(reps)}")
    plain = [p for p, _ in reps]
    runs = plain + [t for _, t in reps if t]
    digests = {r["digest"] for r in runs if "digest" in r}
    tally.check(len(digests) <= 1, f"estimate digest differs between repetitions: {sorted(digests)}")
    if len(digests) == 1:
        check_digest_ledger(f"{workload} {size_name} seed={seed} src={facts['src_sha256']}",
                            next(iter(digests)), tally)
    tally.check(bool(plain), "no repetition completed")

    series = {"setup_s": setups}
    for name, _ in DETAIL[1:-1]:
        vals = [p[name] for p in plain if name in p]
        if vals:
            series[name] = vals
    records = sum(p.get("records", 0) for p in plain)
    bad_records = sum(p.get("failed_records", 0) for p in plain)
    series["fail_frac"] = [(len(tally.failures) + bad_records) / max(1, tally.attempted + records)]
    for name, unit in DETAIL:
        if name in series:
            print(f"  {name:17s} {statistics.median(series[name]):.6g} {unit}  ({percentile_note(series[name])})")
    if digests:
        print(f"  estimate digest   {sorted(digests)[0]}")
    for what in tally.failures:
        print(f"  FAILED: {what}")

    correct = not tally.failures
    if trace:
        units = per_layer_names()
        rows, missing, flagged = [], set(), set()
        for p, t in reps:
            flat, miss, flag = layer_metrics(workload, p, t)
            rows.append(flat)
            missing.update(miss)
            flagged.update(flag)
        for what, names in (("missing spans", missing), ("flagged layers (0 calls)", flagged)):
            if names:
                print(f"  {what}: {', '.join(sorted(names))}")
        metrics = {name: {"value": statistics.median(r[name] for r in rows) if rows else 0.0,
                          "unit": unit} for name, unit in units.items()}
        over = metrics["trace.overhead_s"]["value"]
        base = metrics["trace.untraced_wall_s"]["value"]
        print(f"  tracing overhead  {over:.6g} s on {base:.6g} s untraced "
              f"({100.0 * over / base if base else 0.0:.2f}%)")
    else:
        metrics = {"setup_s": {"value": statistics.median(setups) if setups else 0.0, "unit": "s"},
                   "wall_s": {"value": statistics.median(p["wall_s"] for p in plain) if plain else 0.0,
                              "unit": "s"},
                   "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in plain)
                                   if plain else 0.0, "unit": "MB"}}
    return {"correct": correct, "attempted": max(1, tally.attempted),
            "failed": len(tally.failures), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(EXPECTED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="tiny runs every workload at smoke-test sizes")
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy is first imported
    # SIGTERM unwinds like an interrupt, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = report(args.workload, args.seed, args.seconds, args.trace, args.size)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
