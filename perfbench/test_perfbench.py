"""Self-tests of the benchmark: python3 -m pytest perfbench -q (from the repository root)."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracing
import worker

sys.path.insert(0, str(run.SRC))

from ldsmix.lds import NoiseConfig, random_mixture, simulate  # noqa: E402
from ldsmix.pipeline import mlds_fit  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run_bench(*args, cwd=run.ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_smoke_run(workload, trace):
    proc = _run_bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                      "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if trace:
        assert result["metrics"]["trace.missing_spans"]["value"] == 0
        assert result["metrics"]["trace.flagged_layers"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_names_match_benchmark_json():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.per_layer_names())


def test_batched_generator_matches_simulate():
    model = random_mixture(3, 3, 1, 7, seed=5)
    noise = NoiseConfig()
    N, T, seed = 6, 40, 11
    data = worker.batched_dataset(model, N, T, seed, chunk=4)
    # replay the generator's draws: labels, then inputs and noises per block
    rng = np.random.default_rng(seed)
    labels = rng.choice(model.K, size=N, p=model.weights)
    assert np.array_equal(labels, data.labels)
    for lo in range(0, N, 4):
        hi = min(N, lo + 4)
        u = rng.normal(0.0, noise.sigma_u, size=(hi - lo, T, 1))
        w1 = rng.normal(0.0, noise.sigma_w1, size=(hi - lo, T, 1))
        w2 = rng.normal(0.0, noise.sigma_w2, size=(hi - lo, T))
        for j, i in enumerate(range(lo, hi)):
            y = simulate(model.systems[labels[i]], u[j], w1[j], w2[j])
            assert np.array_equal(data.inputs[i], u[j])
            np.testing.assert_allclose(data.outputs[i], y, rtol=0, atol=1e-12)


def test_tracing_leaves_fit_bit_identical():
    model = random_mixture(3, 3, 1, 7, seed=2)
    data = worker.batched_dataset(model, 3000, 48, seed=2)
    plain = mlds_fit(data, 7, 3, seed=4)
    import ldsmix.pipeline

    original = ldsmix.pipeline.mlds_fit
    with tracing.Tracer() as tracer:
        traced = ldsmix.pipeline.mlds_fit(data, 7, 3, seed=4)
    assert ldsmix.pipeline.mlds_fit is original
    assert worker.estimate_digest(traced) == worker.estimate_digest(plain)
    assert tracer.stats["pipeline.fit"]["calls"] == 1
    assert tracer.stats["tensor3.tpm"]["power_steps"] == 3 * (60 + 1) * 100
    assert tracer.top_s == pytest.approx(sum(st["self_s"] for st in tracer.stats.values()))


def test_missing_function_is_reported_not_raised(monkeypatch):
    layers = dict(tracing.LAYERS, **{"pipeline.fit": [("ldsmix.pipeline", "no_such_fit", None)]})
    monkeypatch.setattr(tracing, "LAYERS", layers)
    with tracing.Tracer() as tracer:
        pass
    assert tracer.missing == ["ldsmix.pipeline.no_such_fit"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench("--workload", "cli_1e4", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_digest_ledger_flags_a_changed_estimate(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    tally = run.Tally()
    run.check_digest_ledger("fit_1e5 full seed=0 src=x", "aa", tally)
    run.check_digest_ledger("fit_1e5 full seed=0 src=x", "aa", tally)
    assert tally.failures == []
    run.check_digest_ledger("fit_1e5 full seed=0 src=x", "bb", tally)
    assert len(tally.failures) == 1
