"""End-to-end tests for the command line interface via main(argv)."""

import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ldsmix import pipeline
from ldsmix.cli import _build_parser, main
from ldsmix.evaluate import METHODS, aggregate, load_records_csv, match_components
from ldsmix.lds import (TrajectoryDataset, generate_dataset, load_mixture, random_mixture, save_dataset,
                        save_mixture)
from ldsmix.mlr import MixtureEstimate
from ldsmix.pipeline import load_estimate
from oracles import save_estimate


SRC = Path(__file__).resolve().parents[1] / "src"


def run(*argv):
    return main(list(argv))


def run_process(*argv):
    """The CLI in a fresh interpreter, where a numpy warning reaches stderr; returns (code, stderr, stdout)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "ldsmix.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stderr, proc.stdout


def test_importing_the_cli_loads_no_process_pool_module():
    # every ldsmix process pays for its imports at start-up; the threads of the
    # moment passes come from threading, which the CLI loads anyway, and not
    # from concurrent.futures or multiprocessing, which would add to that cost
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = ("import sys, ldsmix.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_no_command_prints_help(capsys):
    assert run() == 2
    assert "simulate" in capsys.readouterr().out


def test_simulate_defaults_shape(tmp_path, capsys):
    prefix = str(tmp_path / "sim")
    rc = run("simulate", "--out", prefix, "--N", "5", "--T", "8")
    assert rc == 0
    out = capsys.readouterr().out
    assert "sigma_K" in out
    model = load_mixture(prefix + ".mixture.txt")
    assert (model.K, model.order, model.input_dim) == (3, 3, 1)
    for ss in model.systems:
        rho = max(abs(np.linalg.eigvals(ss.A)))
        assert 0.6 - 1e-9 <= rho <= 0.9 + 1e-9
    head = Path(prefix + ".dataset.txt").read_text().splitlines()[0]
    assert head.startswith("mlds-dataset v1, N=5, T=8, m=1")


def test_simulate_deterministic(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for prefix in (a, b):
        assert run("simulate", "--out", prefix, "--N", "4", "--T", "6", "--seed", "9") == 0
    for suffix in (".mixture.txt", ".dataset.txt"):
        assert Path(a + suffix).read_bytes() == Path(b + suffix).read_bytes()


def test_simulate_validation_errors(tmp_path, capsys):
    prefix = str(tmp_path / "x")
    assert run("simulate", "--N", "4", "--T", "6") == 2  # missing --out
    capsys.readouterr()
    assert run("simulate", "--out", prefix, "--K", "4", "--L", "3", "--N", "5", "--T", "8") == 2
    assert capsys.readouterr().err == "error: K=4 exceeds the covariate dimension L*m=3\n"
    assert list(tmp_path.iterdir()) == []


RADIUS_MESSAGE = "radius_range must satisfy 0 < lo <= hi < 1"
SEED_MESSAGE = "expected non-negative integer"  # numpy's own, from the first generator seeded


@pytest.mark.parametrize("command,flags,message", [
    *[("simulate", (flag, "0"), message) for flag, message in (
        ("--K", "K must be >= 1"), ("--n", "n and m must be >= 1"), ("--m", "n and m must be >= 1"),
        ("--L", "L must be >= 1"), ("--N", "N must be >= 1"), ("--T", "T must be >= 1"))],
    ("simulate", ("--seed", "-1"), SEED_MESSAGE),
    ("simulate", ("--radius-min", "0.9", "--radius-max", "0.5"), RADIUS_MESSAGE),
    ("simulate", ("--sigma-w1", "inf"), "sigma_w1 must be finite and nonnegative, got inf"),
    ("fit", ("--K", "0"), "K must be >= 1"),
    ("fit", ("--L", "0"), "L must be >= 1"),
    ("fit", ("--seed", "-1"), SEED_MESSAGE),
    ("fit", ("--restarts", "0"), "n_restarts must be >= 1"),
    ("fit", ("--iters", "0"), "n_iters must be >= 1"),
    ("fit", ("--sigma-u", "nan"), "sigma_u must be positive, got nan"),
    ("fit", ("--sigma-u", "-1"), "sigma_u must be positive, got -1.0"),
    ("sweep", ("--K", "0"), "K must be >= 1"),
    ("sweep", ("--n", "0"), "n and m must be >= 1"),
    ("sweep", ("--L", "0"), "L must be >= 1"),
    ("sweep", ("--seed", "-1"), "seeds entries must be >= 0"),
    ("sweep", ("--restarts", "0", "--methods", "baseline"), "n_restarts must be >= 1"),
    ("sweep", ("--iters", "0"), "n_iters must be >= 1"),
    ("sweep", ("--radius-min", "0.9", "--radius-max", "0.5"), RADIUS_MESSAGE),
])
def test_bad_flag_value_fails_in_the_library(tmp_path, capsys, command, flags, message):
    # the CLI keeps no copy of these rules: the function that takes the value rejects it
    if command == "fit":
        data_path, _ = fit_workspace(tmp_path)
        base = ("--data", data_path, "--out", str(tmp_path / "est.txt"))
    else:
        base = ("--out", str(tmp_path / "x"), "--N", "6", "--T", "8")
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(command, *base, *flags) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(tmp_path.iterdir()) == before


def test_simulate_unwritable_path(tmp_path):
    assert run("simulate", "--out", str(tmp_path / "no" / "such" / "dir" / "x"),
               "--N", "4", "--T", "6") == 5


def fit_workspace(tmp_path, N=80, T=28, seed=1):
    prefix = str(tmp_path / "sim")
    assert run("simulate", "--out", prefix, "--N", str(N), "--T", str(T),
               "--seed", str(seed)) == 0
    return prefix + ".dataset.txt", prefix + ".mixture.txt"


def test_fit_writes_three_components(tmp_path, capsys):
    data_path, _ = fit_workspace(tmp_path)
    out = str(tmp_path / "est.txt")
    rc = run("fit", "--data", data_path, "--out", out, "--L", "7", "--K", "3")
    assert rc == 0
    assert "weights:" in capsys.readouterr().out
    est, L, m = load_estimate(out)
    assert (est.K, L, m) == (3, 7, 1)


def test_fit_deterministic(tmp_path):
    data_path, _ = fit_workspace(tmp_path, N=30, T=14)
    a, b = str(tmp_path / "e1.txt"), str(tmp_path / "e2.txt")
    for out in (a, b):
        assert run("fit", "--data", data_path, "--out", out, "--L", "4", "--K", "2",
                   "--seed", "5") == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_rewritten_outputs_stay_private(tmp_path):
    # a 0600 output rewritten under umask 022 stays 0600, as open(path, "w") leaves it
    data_path, mix_path = fit_workspace(tmp_path, N=30, T=14)
    out = tmp_path / "e.txt"
    out.write_text("old\n")
    for path in (mix_path, out):
        os.chmod(path, 0o600)
    old = os.umask(0o022)
    try:
        save_mixture(mix_path, load_mixture(mix_path))
        assert run("fit", "--data", data_path, "--out", str(out), "--L", "4", "--K", "2") == 0
    finally:
        os.umask(old)
    for path in (mix_path, out):
        assert os.stat(path).st_mode & 0o777 == 0o600, path
    assert load_estimate(out)[1:] == (4, 1)


def test_fit_insufficient_length(tmp_path):
    data_path, _ = fit_workspace(tmp_path, N=10, T=14)
    assert run("fit", "--data", data_path, "--out", str(tmp_path / "e.txt"),
               "--L", "50", "--K", "2") == 2


def test_fit_missing_data_file(tmp_path):
    assert run("fit", "--data", str(tmp_path / "nope.txt"),
               "--out", str(tmp_path / "e.txt")) == 5


def test_fit_refine_weight_sum(tmp_path):
    data_path, _ = fit_workspace(tmp_path, N=60, T=21)
    out = str(tmp_path / "est.txt")
    assert run("fit", "--data", data_path, "--out", out, "--L", "7", "--K", "3",
               "--refine") == 0
    est, _, _ = load_estimate(out)
    assert est.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_fit_ho_kalman_appends_realizations(tmp_path):
    data_path, _ = fit_workspace(tmp_path, N=60, T=21)
    out = str(tmp_path / "est.txt")
    assert run("fit", "--data", data_path, "--out", out, "--L", "7", "--K", "3",
               "--ho-kalman", "3") == 0
    text = Path(out).read_text()
    for k in range(3):
        assert f"realization {k}" in text
    # the estimate block still parses; realization lines are trailing extras
    est, L, m = load_estimate(out)
    assert est.K == 3


def test_fit_ho_kalman_estimate_golden(tmp_path):
    # pins every byte of a refined m=2 estimate file with its realization
    # appendix (one realization fails, two are written); a different BLAS
    # build may move the digits legitimately
    prefix = str(tmp_path / "w")
    assert run("simulate", "--N", "300", "--T", "48", "--m", "2", "--seed", "3", "--out", prefix) == 0
    out = tmp_path / "est.txt"
    assert run("fit", "--data", prefix + ".dataset.txt", "--out", str(out), "--refine",
               "--ho-kalman", "3", "--seed", "4") == 0
    text = out.read_text()
    assert text.count("realization") == 3 and "realization 1 failed" in text
    digest = "3716845f65e290b0b9cbf65b1a5579eaf7a1327834d506b5c499faf668c9c483"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_fit_ho_kalman_warnings_name_the_realization(tmp_path, capsys):
    # order 1 is too low for these components: each realization warns, and the warnings
    # print as warning lines, not raw to stderr; in process, where the test settings turn
    # warnings into errors, the run prints the same
    data_path, _ = fit_workspace(tmp_path, N=300, T=48)
    out = str(tmp_path / "est.txt")
    code, err, stdout = run_process("fit", "--data", data_path, "--out", out, "--ho-kalman", "1")
    assert (code, err) == (0, "")
    capsys.readouterr()
    assert run("fit", "--data", data_path, "--out", str(tmp_path / "again.txt"), "--ho-kalman", "1") == 0
    assert capsys.readouterr() == (stdout.replace(out, str(tmp_path / "again.txt")), "")
    assert Path(out).read_bytes() == (tmp_path / "again.txt").read_bytes()
    est, L, m = load_estimate(out)
    expected = []
    for k in range(est.K):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pipeline.ho_kalman(est.coeffs[k].reshape(L, m), 1)
        expected += [f"warning: realization {k}: {w.message}" for w in caught]
    assert expected
    assert [line for line in stdout.splitlines() if line.startswith("warning: realization")] == expected


def test_fit_oversized_label_names_the_line(tmp_path, capsys):
    data_path, _ = fit_workspace(tmp_path, N=10, T=14)
    lines = Path(data_path).read_text().splitlines()
    lines[1] = "traj 0 label 99999999999999999999"
    Path(data_path).write_text("\n".join(lines) + "\n")
    assert run("fit", "--data", data_path, "--out", str(tmp_path / "e.txt"), "--L", "4", "--K", "2") == 2
    assert capsys.readouterr().err == "error: line 2: label 99999999999999999999 does not fit a 64-bit integer\n"


def test_fit_huge_row_width_names_the_line(tmp_path, capsys):
    # the header's m is checked against each row before any array of that width is allocated
    path = tmp_path / "wide.dataset.txt"
    path.write_text("mlds-dataset v1, N=1, T=1, m=100000000000, labeled=0\ntraj 0 label -\n1 2\n")
    assert run("fit", "--data", str(path), "--out", str(tmp_path / "e.txt"), "--L", "1", "--K", "1") == 2
    assert capsys.readouterr().err == "error: line 3: expected 100000000001 numbers, got 2\n"


def test_fit_ho_kalman_horizon_check(tmp_path):
    data_path, _ = fit_workspace(tmp_path, N=10, T=14)
    assert run("fit", "--data", data_path, "--out", str(tmp_path / "e.txt"),
               "--L", "6", "--K", "2", "--ho-kalman", "3") == 2


def test_fit_degenerate_exit_code(tmp_path):
    # constant inputs make every stacked covariate identical: rank-1 M2
    ds = TrajectoryDataset(np.ones((4, 8, 1)), np.ones((4, 8)), None)
    path = str(tmp_path / "flat.dataset.txt")
    save_dataset(path, ds)
    assert run("fit", "--data", path, "--out", str(tmp_path / "e.txt"),
               "--L", "2", "--K", "2") == 3


def test_fit_wrong_input_scale_names_sigma_u(tmp_path, capsys):
    # at --sigma-u 2 on unit-scale inputs, M2 estimates about sum_k p_k (b_k b_k' / 4 - 3/8 |b_k|^2 I),
    # whose K-th eigenvalue is negative, which the mixture's own M2 never is
    data_path, _ = fit_workspace(tmp_path, N=200, T=28, seed=3)
    capsys.readouterr()
    out = tmp_path / "e.txt"
    assert run("fit", "--data", data_path, "--out", str(out), "--sigma-u", "2") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: whitening needs sigma_K > 1e-10, got sigma_3 = -")
    assert "do not look standard Gaussian at sigma_u" in err and "(--sigma-u)" in err
    assert not out.exists()


def test_fit_decomposition_exit_code(tmp_path):
    # first half of the trajectories gives a positive definite M2; second half
    # has zero outputs, so the whitened third moment vanishes and every
    # power-method restart dies at the zero tensor
    inputs = np.zeros((4, 2, 1))
    outputs = np.zeros((4, 2))
    inputs[0, :, 0] = (0.0, 2.0)   # window at t=2 is (u_1, u_0) = (2, 0)
    inputs[1, :, 0] = (2.0, 0.0)   # window (0, 2)
    outputs[0, 1] = 1.0
    outputs[1, 1] = 1.0
    inputs[2:, :, 0] = 1.0
    path = str(tmp_path / "dead.dataset.txt")
    save_dataset(path, TrajectoryDataset(inputs, outputs, None))
    assert run("fit", "--data", path, "--out", str(tmp_path / "e.txt"),
               "--L", "2", "--K", "2") == 4


def test_fit_single_trajectory_exit_code(tmp_path, capsys):
    # one trajectory leaves the M3 half empty; this is a validation error,
    # not a degenerate whitening
    data_path, _ = fit_workspace(tmp_path, N=1)
    out = tmp_path / "est.txt"
    assert run("fit", "--data", data_path, "--out", str(out)) == 2
    assert "error: both moment halves must be non-empty" in capsys.readouterr().err
    assert not out.exists()


def test_fit_overflowing_sigma_u_exit_code(tmp_path, capsys):
    # dividing the inputs by a subnormal sigma_u overflows the stacked covariates
    data_path, _ = fit_workspace(tmp_path, N=4)
    out = tmp_path / "est.txt"
    assert run("fit", "--data", data_path, "--out", str(out), "--sigma-u", "1e-320") == 2
    assert "error: X and y must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_fit_non_finite_last_block_exit_code(tmp_path, capsys, monkeypatch):
    # with 8-trajectory blocks, a 1e300 input of the last trajectory overflows
    # under --sigma-u 1e-10 only in the last block of the M3 half; the fit
    # stops there with one error line and writes no estimate
    monkeypatch.setattr(pipeline, "_ROW_BUDGET", 8 * (28 // 7))
    data_path, _ = fit_workspace(tmp_path)
    fit = ("fit", "--data", data_path, "--out", str(tmp_path / "est.txt"), "--L", "7", "--K", "3", "--sigma-u", "1e-10")
    assert run(*fit) == 0  # the unedited data fits at this scale
    os.remove(tmp_path / "est.txt")
    capsys.readouterr()
    T = 28
    lineno = 3 + 79 * (T + 1) + 3  # trajectory 79, t = 4
    lines = Path(data_path).read_text().splitlines()
    lines[lineno - 1] = "1e300 " + lines[lineno - 1].split()[1]
    with open(data_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*fit) == 2
    assert capsys.readouterr().err == "error: X and y must be finite\n"
    assert not (tmp_path / "est.txt").exists()


@pytest.mark.parametrize("scale, moment", [(1e103, "the whitened M3"), (1e160, "M2")])
def test_fit_overflowing_outputs_name_the_scale(tmp_path, capsys, scale, moment):
    # finite outputs whose cubes (1e103) or squares (1e160) overflow float64
    model = random_mixture(3, 3, 1, 7, seed=0)
    data = generate_dataset(model, 400, 48, seed=1)
    path = str(tmp_path / "big.dataset.txt")
    save_dataset(path, TrajectoryDataset(data.inputs, data.outputs * scale, data.labels))
    out = tmp_path / "est.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("fit", "--data", path, "--out", str(out), "--L", "7", "--K", "3") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {moment} overflows float64: the outputs reach |y| = ")
    assert "rescale the data" in err
    assert not out.exists()


def eval_workspace(tmp_path, L=4):
    from ldsmix.lds import MixtureModel, StateSpace
    systems = [StateSpace([[0.5]], [[1.0]], [1.0]), StateSpace([[-0.4]], [[1.0]], [1.0])]
    model = MixtureModel(np.array([0.6, 0.4]), systems)
    mix_path = str(tmp_path / "true.mixture.txt")
    save_mixture(mix_path, model)
    return model, mix_path


@pytest.mark.parametrize("traj", [10, 70])
def test_fit_non_finite_sample_exit_code(tmp_path, capsys, traj):
    # one nan in a stacked output (y_7) of a trajectory in the M2 half (10)
    # or the M3 half (70) of N=80 fails validation and writes no estimate
    data_path, _ = fit_workspace(tmp_path)
    T = 28
    lineno = 3 + traj * (T + 1) + 6
    lines = Path(data_path).read_text().splitlines()
    lines[lineno - 1] = lines[lineno - 1].split()[0] + " nan"
    with open(data_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    out = tmp_path / "est.txt"
    assert run("fit", "--data", data_path, "--out", str(out), "--L", "7", "--K", "3") == 2
    assert f"error: line {lineno}: non-finite value" in capsys.readouterr().err
    assert not out.exists()


def test_eval_exact_estimate(tmp_path, capsys):
    model, mix_path = eval_workspace(tmp_path)
    est = MixtureEstimate(model.weights, model.markov_matrix(4))
    est_path = str(tmp_path / "est.txt")
    save_estimate(est_path, est, 4, 1)
    assert run("eval", "--estimate", est_path, "--mixture", mix_path) == 0
    out = capsys.readouterr().out
    assert "mean_error 0\n" in out
    assert "mean_weight_error 0\n" in out


def test_eval_non_finite_weight_exit_code(tmp_path, capsys):
    model, mix_path = eval_workspace(tmp_path)
    est_path = str(tmp_path / "est.txt")
    save_estimate(est_path, MixtureEstimate(model.weights, model.markov_matrix(4)), 4, 1)
    lines = Path(mix_path).read_text().splitlines()
    lines[1] = "weight nan"
    with open(mix_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert run("eval", "--estimate", est_path, "--mixture", mix_path) == 2
    assert "mixture weights must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("line,text,message", [
    (1, "weight -0.5", "line 2: estimated weights must be strictly positive"),
    (8, "nan", "line 7: estimated weights and coefficients must be finite"),
])
def test_eval_bad_estimate_component_names_its_weight_line(tmp_path, capsys, line, text, message):
    # K=2, L=4: lines 2-6 hold the first component's weight and coefficients, lines 7-11 the second's
    model, mix_path = eval_workspace(tmp_path)
    est_path = tmp_path / "est.txt"
    save_estimate(est_path, MixtureEstimate(model.weights, model.markov_matrix(4)), 4, 1)
    lines = est_path.read_text().splitlines()
    lines[line] = text
    est_path.write_text("\n".join(lines) + "\n")
    assert run("eval", "--estimate", str(est_path), "--mixture", mix_path) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("line,text,name", [(4, "nan", "C"), (7, "inf", "B")])
def test_eval_non_finite_system_exit_code(tmp_path, capsys, line, text, name):
    # lines 2-4 hold A, B, C of the first component, lines 6-8 of the second
    model, mix_path = eval_workspace(tmp_path)
    est_path = str(tmp_path / "est.txt")
    save_estimate(est_path, MixtureEstimate(model.weights, model.markov_matrix(4)), 4, 1)
    lines = Path(mix_path).read_text().splitlines()
    lines[line] = text
    with open(mix_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert run("eval", "--estimate", est_path, "--mixture", mix_path) == 2
    weight_line = 2 if line < 5 else 6
    assert f"error: line {weight_line}: StateSpace matrix {name} must be finite" in capsys.readouterr().err


def test_eval_overflowing_estimate_exit_code(tmp_path, capsys):
    # finite coefficients, but every distance to the truth overflows to inf
    model, mix_path = eval_workspace(tmp_path)
    est_path = str(tmp_path / "est.txt")
    save_estimate(est_path, MixtureEstimate(model.weights, np.full((2, 4), 1e308)), 4, 1)
    assert run("eval", "--estimate", est_path, "--mixture", mix_path) == 2
    assert "has a finite cost" in capsys.readouterr().err


def test_overflow_error_paths_print_only_the_error(tmp_path):
    # an overflow that ends in a documented error prints that error and no numpy warning
    data_path, _ = fit_workspace(tmp_path, N=4)
    code, err, _ = run_process("fit", "--data", data_path, "--out", str(tmp_path / "e.txt"), "--sigma-u", "1e-320")
    assert (code, err) == (2, "error: X and y must be finite\n")
    model, mix_path = eval_workspace(tmp_path)
    est_path = str(tmp_path / "est.txt")
    save_estimate(est_path, MixtureEstimate(model.weights, np.full((2, 4), 1e308)), 4, 1)
    code, err, _ = run_process("eval", "--estimate", est_path, "--mixture", mix_path)
    assert (code, err) == (2, "error: no assignment of estimated to true components has a finite cost\n")


def test_eval_swapped_matches_unswapped(tmp_path, capsys):
    model, mix_path = eval_workspace(tmp_path)
    G = model.markov_matrix(4)
    rng = np.random.default_rng(0)
    noisy = G + 0.1 * rng.normal(size=G.shape)
    paths = []
    for name, order in (("a", [0, 1]), ("b", [1, 0])):
        p = str(tmp_path / f"{name}.txt")
        save_estimate(p, MixtureEstimate(model.weights[order], noisy[order]), 4, 1)
        paths.append(p)
    means = []
    for p in paths:
        assert run("eval", "--estimate", p, "--mixture", mix_path) == 0
        out = capsys.readouterr().out
        means.append([ln for ln in out.splitlines() if ln.startswith("mean_error")][0])
    assert means[0] == means[1]


def test_eval_matches_library_oracle(tmp_path, capsys):
    model, mix_path = eval_workspace(tmp_path)
    rng = np.random.default_rng(1)
    est = MixtureEstimate(np.array([0.5, 0.5]), rng.normal(size=(2, 4)))
    est_path = str(tmp_path / "est.txt")
    save_estimate(est_path, est, 4, 1)
    assert run("eval", "--estimate", est_path, "--mixture", mix_path) == 0
    out = capsys.readouterr().out
    printed = float([ln for ln in out.splitlines() if ln.startswith("mean_error")][0].split()[1])
    expect = match_components(est, model, 4).mean_error
    assert printed == pytest.approx(expect, rel=1e-8)


def test_eval_horizon_check_and_csv(tmp_path, capsys):
    model, mix_path = eval_workspace(tmp_path)
    est = MixtureEstimate(model.weights, model.markov_matrix(4))
    est_path = str(tmp_path / "est.txt")
    save_estimate(est_path, est, 4, 1)
    assert run("eval", "--estimate", est_path, "--mixture", mix_path, "--L", "5") == 2
    capsys.readouterr()
    csv_path = str(tmp_path / "scores.csv")
    for _ in range(2):
        assert run("eval", "--estimate", est_path, "--mixture", mix_path,
                   "--csv", csv_path) == 0
    lines = Path(csv_path).read_text().splitlines()
    assert lines[0] == "K,L,mean_error,mean_weight_error"
    assert len(lines) == 3
    assert lines[1] == lines[2] == "2,4,0,0"
    # a sweep's CSV is another table: eval refuses to append its row to it
    sweep = str(tmp_path / "sweep")
    assert run("sweep", "--out", sweep, "--K", "1", "--n", "1", "--L", "2", "--N", "4", "--T", "8",
               "--num-seeds", "1", "--methods", "baseline") == 0
    before = Path(sweep + ".csv").read_bytes()
    capsys.readouterr()
    assert run("eval", "--estimate", est_path, "--mixture", mix_path, "--csv", sweep + ".csv") == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert Path(sweep + ".csv").read_bytes() == before


def test_eval_input_dimension_mismatch(tmp_path, capsys):
    # match_components rejects an estimate of another input dimension; no row is appended
    model, mix_path = eval_workspace(tmp_path)
    est_path = str(tmp_path / "est.txt")
    save_estimate(est_path, MixtureEstimate(model.weights, np.ones((model.K, 8))), 4, 2)
    csv_path = tmp_path / "scores.csv"
    assert run("eval", "--estimate", est_path, "--mixture", mix_path, "--csv", str(csv_path)) == 2
    assert capsys.readouterr().err == "error: coefficient length 8 does not match L*m = 4\n"
    assert not csv_path.exists()


def test_eval_csv_appends_after_a_last_line_without_newline(tmp_path):
    model, mix_path = eval_workspace(tmp_path)
    est_path = str(tmp_path / "est.txt")
    save_estimate(est_path, MixtureEstimate(model.weights, model.markov_matrix(4)), 4, 1)
    csv_path = tmp_path / "scores.csv"
    for text in ("K,L,mean_error,mean_weight_error", "K,L,mean_error,mean_weight_error\n2,4,0,0"):
        csv_path.write_text(text)
        for _ in range(2):  # the second run reads the file the first one appended to
            assert run("eval", "--estimate", est_path, "--mixture", mix_path, "--csv", str(csv_path)) == 0
        assert csv_path.read_text() == text + "\n2,4,0,0\n2,4,0,0\n"


def test_sweep_grid_counts_and_files(tmp_path):
    prefix = str(tmp_path / "sweep")
    rc = run("sweep", "--out", prefix, "--K", "1", "--n", "1", "--L", "2",
             "--N", "4,6", "--T", "8,12", "--num-seeds", "2",
             "--methods", "tensor,baseline")
    assert rc == 0
    records = load_records_csv(prefix + ".csv")
    assert len(records) == 16  # 2 N x 2 T x 2 seeds x 2 methods
    series = Path(prefix + "_series.txt").read_text()
    assert series.count("# series method=tensor") == 2  # one block per T
    assert series.count("# series method=baseline") == 2
    levels = Path(prefix + "_levels.txt").read_text().splitlines()
    assert levels[0] == "# levels method=tensor"


def test_sweep_levels_match_csv_medians(tmp_path):
    prefix = str(tmp_path / "sweep")
    assert run("sweep", "--out", prefix, "--K", "1", "--n", "1", "--L", "2",
               "--N", "4,6", "--T", "8", "--num-seeds", "3",
               "--methods", "tensor") == 0
    agg = aggregate(load_records_csv(prefix + ".csv"))
    for line in Path(prefix + "_levels.txt").read_text().splitlines():
        if line.startswith("#"):
            continue
        N, T, med = line.split()
        expect = agg[("tensor", int(N), int(T))]["median"]
        assert float(med) == pytest.approx(expect, rel=1e-8)


def test_sweep_validation(tmp_path, capsys):
    prefix = str(tmp_path / "s")
    assert run("sweep", "--out", prefix, "--num-seeds", "0") == 2
    assert run("sweep", "--out", prefix, "--methods", "ridge") == 2
    assert run("sweep", "--K", "1") == 2  # missing --out
    capsys.readouterr()
    assert run("sweep", "--out", prefix, "--K", "4", "--L", "3", "--N", "5", "--T", "8") == 2
    assert capsys.readouterr().err == "error: K=4 exceeds the covariate dimension L*m=3\n"
    # SweepConfig's messages name the library field that holds the flag's list
    for flag, value, message in (("--N", "50,50", "N_values has duplicate entries: (50, 50)"),
                                 ("--T", "8,12,8", "T_values has duplicate entries: (8, 12, 8)"),
                                 ("--methods", "tensor,tensor",
                                  "methods has duplicate entries: ('tensor', 'tensor')"),
                                 ("--N", "0,100", "N_values entries must be >= 1"),
                                 ("--num-seeds", "0", "seeds must be non-empty")):
        assert run("sweep", "--out", prefix, flag, value) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_sweep_methods_help_names_every_method():
    _, subparsers = _build_parser()
    action = next(a for a in subparsers["sweep"]._actions if a.dest == "methods")
    assert action.help.split()[-1].split(",") == list(METHODS)


def test_config_file_merge(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nK=2\nseed=3\nN=5\nT=9\n")
    a = str(tmp_path / "a")
    assert run("simulate", "--out", a, "--config", str(cfg), "--K", "4") == 0
    b = str(tmp_path / "b")
    assert run("simulate", "--out", b, "--K", "4", "--seed", "3", "--N", "5", "--T", "9") == 0
    assert Path(a + ".mixture.txt").read_bytes() == Path(b + ".mixture.txt").read_bytes()
    model = load_mixture(a + ".mixture.txt")
    assert model.K == 4  # explicit flag beat the config value


def test_config_file_equals_form_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=3\n")
    a = str(tmp_path / "a")
    assert run("simulate", "--out", a, "--config", str(cfg), "--seed=7",
               "--N", "4", "--T", "6") == 0
    b = str(tmp_path / "b")
    assert run("simulate", "--out", b, "--seed", "7", "--N", "4", "--T", "6") == 0
    assert Path(a + ".mixture.txt").read_bytes() == Path(b + ".mixture.txt").read_bytes()


def test_config_file_boolean_and_rejects(tmp_path, capsys):
    data_path, _ = fit_workspace(tmp_path, N=30, T=14)
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("refine=true\nL=4\nK=2\n")
    out = str(tmp_path / "est.txt")
    assert run("fit", "--data", data_path, "--out", out, "--config", str(cfg)) == 0
    est, _, _ = load_estimate(out)
    assert est.weights.sum() == pytest.approx(1.0, abs=1e-12)
    bad = tmp_path / "bad.cfg"
    bad.write_text("frobnicate=1\n")
    assert run("fit", "--data", data_path, "--out", out, "--config", str(bad)) == 2
    assert "unknown config key" in capsys.readouterr().err
    worse = tmp_path / "worse.cfg"
    worse.write_text("just a line\n")
    assert run("fit", "--data", data_path, "--out", out, "--config", str(worse)) == 2


def test_config_file_rejects_duplicate_keys(tmp_path, capsys):
    # keeping the last of two values would run with a setting nobody sees
    cfg = tmp_path / "run.cfg"
    cfg.write_text("K=2\n# comment\n K = 5\n")
    assert run("simulate", "--out", str(tmp_path / "a"), "--config", str(cfg)) == 2
    assert capsys.readouterr() == ("", f"error: {cfg}:3: duplicate key 'K'\n")
    assert list(tmp_path.iterdir()) == [cfg]


def test_fit_takes_sigma_u_but_no_noise_flags(tmp_path, capsys):
    # fit scales its covariates by sigma_u; the process and measurement noise
    # levels are settings of simulate and sweep only
    data_path, _ = fit_workspace(tmp_path, N=30, T=14)
    out = str(tmp_path / "est.txt")
    with pytest.raises(SystemExit) as exc:
        run("fit", "--data", data_path, "--out", out, "--sigma-w1", "0.1")
    assert exc.value.code == 2
    assert "unrecognized arguments: --sigma-w1 0.1" in capsys.readouterr().err
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("sigma_w1=0.1\n")
    assert run("fit", "--data", data_path, "--out", out, "--config", str(cfg)) == 2
    assert capsys.readouterr().err == "error: unknown config key 'sigma_w1'\n"
    assert not os.path.exists(out)
    cfg.write_text("sigma_u=1\nL=4\nK=2\n")
    assert run("fit", "--data", data_path, "--out", out, "--config", str(cfg)) == 0
    _, subs = _build_parser()
    for name in ("simulate", "sweep"):
        flags = {opt for action in subs[name]._actions for opt in action.option_strings}
        assert {"--sigma-u", "--sigma-w1", "--sigma-w2"} <= flags, name


def test_config_file_rejects_help_key(tmp_path, capsys):
    # argparse's -h/--help action has dest 'help', which is not a setting
    model, mix_path = eval_workspace(tmp_path)
    est_path = str(tmp_path / "est.txt")
    save_estimate(est_path, MixtureEstimate(model.weights, model.markov_matrix(4)), 4, 1)
    cfg = tmp_path / "h.cfg"
    cfg.write_text("help=1\n")
    assert run("eval", "--estimate", est_path, "--mixture", mix_path, "--config", str(cfg)) == 2
    assert capsys.readouterr() == ("", "error: unknown config key 'help'\n")


def test_config_file_boolean_typo(tmp_path, capsys):
    data_path, _ = fit_workspace(tmp_path, N=30, T=14)
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("refine=ture\nL=4\nK=2\n")
    out = str(tmp_path / "est.txt")
    assert run("fit", "--data", data_path, "--out", out, "--config", str(cfg)) == 2
    assert "config key 'refine'" in capsys.readouterr().err
    assert not os.path.exists(out)
    cfg.write_text("refine=OFF\nL=4\nK=2\n")  # the explicit flag beats 'OFF'
    assert run("fit", "--data", data_path, "--out", out, "--config", str(cfg), "--refine") == 0
    assert load_estimate(out)[0].weights.sum() == pytest.approx(1.0, abs=1e-12)
