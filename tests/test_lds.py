"""Tests for system generation, simulation, mixtures, and dataset files."""

import hashlib
import itertools
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest

from ldsmix import lds
from ldsmix.errors import DegenerateMixtureError
from ldsmix.lds import (MixtureModel, NoiseConfig, StateSpace,
                        TrajectoryDataset, generate_dataset, impulse_response,
                        load_dataset, load_mixture, mixture_sigma_k,
                        random_mixture, random_stable_system, rollout,
                        save_dataset, save_mixture, simulate)
from ldsmix.util import derive_seed
from forking import assert_no_children, count_forks, forbid_forks, set_cpus
from oracles import _load_whole, dataset_text_loop, generate_dataset_loop, simulate_loop


def scalar_system(a, b=1.0, c=1.0):
    return StateSpace(np.array([[a]]), np.array([[b]]), np.array([c]))


def impulse_oracle(ss, L):
    """State recursion x <- A x, independent of the matrix_power implementation."""
    out = np.zeros((L, ss.input_dim))
    for col in range(ss.input_dim):
        x = ss.B[:, col].copy()
        for t in range(L):
            out[t, col] = ss.C @ x
            x = ss.A @ x
    return out.reshape(-1)


def two_scalar_mixture(w0=0.6):
    systems = [scalar_system(0.3), scalar_system(-0.5)]
    return MixtureModel(np.array([w0, 1.0 - w0]), systems)


def test_statespace_coercion_and_props():
    ss = scalar_system(0.5)
    assert ss.order == 1
    assert ss.input_dim == 1
    assert max(abs(np.linalg.eigvals(ss.A))) == pytest.approx(0.5)
    # B given 1-D becomes a column, C flattens
    ss2 = StateSpace(np.array([[0.1, 0.0], [0.0, 0.2]]), np.array([1.0, 2.0]),
                     np.array([[3.0, 4.0]]))
    assert ss2.B.shape == (2, 1)
    assert ss2.C.shape == (2,)


def test_statespace_rejects_unstable():
    with pytest.raises(ValueError, match="spectral radius"):
        scalar_system(1.0)
    with pytest.raises(ValueError, match="spectral radius"):
        scalar_system(-1.3)


def test_statespace_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        StateSpace(np.zeros((2, 3)), np.ones((2, 1)), np.ones(2))
    with pytest.raises(ValueError):
        StateSpace(np.zeros((2, 2)), np.ones((3, 1)), np.ones(2))
    with pytest.raises(ValueError):
        StateSpace(np.zeros((2, 2)), np.ones((2, 1)), np.ones(3))


@pytest.mark.parametrize("name", ["A", "B", "C"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_statespace_rejects_non_finite(name, bad):
    mats = {"A": np.array([[0.5, 0.0], [0.1, 0.2]]), "B": np.ones((2, 1)), "C": np.ones(2)}
    mats[name] = mats[name].copy()
    mats[name].flat[-1] = bad
    with pytest.raises(ValueError, match=f"^StateSpace matrix {name} must be finite$"):
        StateSpace(mats["A"], mats["B"], mats["C"])


def test_random_stable_scalar_is_exact():
    for seed in range(6):
        ss = random_stable_system(1, 1, 0.5, seed=seed)
        assert abs(ss.A[0, 0]) == pytest.approx(0.5, abs=1e-15)


def test_random_stable_radius_hits_target():
    for seed in range(8):
        ss = random_stable_system(3, 1, 0.9, seed=seed)
        assert max(abs(np.linalg.eigvals(ss.A))) == pytest.approx(0.9, abs=1e-9)
        assert ss.B.shape == (3, 1)
        assert ss.C.shape == (3,)


def test_random_stable_deterministic():
    a = random_stable_system(3, 2, 0.7, seed=42)
    b = random_stable_system(3, 2, 0.7, seed=42)
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.B, b.B)
    assert np.array_equal(a.C, b.C)


def test_random_stable_rejects_bad_radius():
    with pytest.raises(ValueError):
        random_stable_system(2, 1, 0.0, seed=0)
    with pytest.raises(ValueError):
        random_stable_system(2, 1, 1.0, seed=0)


def test_impulse_scalar_geometric():
    g = impulse_response(scalar_system(0.5), 4)
    assert g.shape == (4, 1)
    assert np.allclose(g.ravel(), [1.0, 0.5, 0.25, 0.125], atol=1e-15)


def test_impulse_zero_readout():
    ss = StateSpace(np.array([[0.5]]), np.array([[1.0]]), np.array([0.0]))
    assert np.array_equal(impulse_response(ss, 5), np.zeros((5, 1)))


def test_impulse_matches_recursion_oracle():
    rng = np.random.default_rng(17)
    for seed in range(10):
        m = int(rng.integers(1, 3))
        ss = random_stable_system(3, m, 0.8, seed=seed)
        g = impulse_response(ss, 7)
        assert g.shape == (7, m)
        assert np.allclose(g.ravel(), impulse_oracle(ss, 7), atol=1e-12)


def test_markov_decay_bound():
    # ||g(t)|| <= C rho^t with rho = target + 0.05: ratio peaks early, decays after
    for seed in range(5):
        ss = random_stable_system(3, 1, 0.9, seed=seed)
        g = impulse_response(ss, 100).ravel()
        rho = 0.95
        ratios = np.abs(g) / rho ** np.arange(1, 101)
        assert np.all(np.isfinite(ratios))
        assert ratios.max() == ratios[:60].max()


def test_noise_config_defaults_and_validation():
    nc = NoiseConfig()
    assert (nc.sigma_u, nc.sigma_w1, nc.sigma_w2) == (1.0, 0.01, 0.01)
    for name in ("sigma_u", "sigma_w1", "sigma_w2"):
        for value in (-0.1, float("inf"), float("nan")):
            with pytest.raises(ValueError, match=f"^{name} must be finite and nonnegative, got {value!r}$"):
                NoiseConfig(**{name: value})


def test_mixture_model_validation():
    s = [scalar_system(0.3), scalar_system(-0.5)]
    with pytest.raises(ValueError):
        MixtureModel(np.array([0.6, 0.5]), s)
    with pytest.raises(ValueError):
        MixtureModel(np.array([1.0, 0.0]), s)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            MixtureModel(np.array([bad, 0.5]), s)
    hetero = [scalar_system(0.3), random_stable_system(2, 1, 0.5, seed=0)]
    with pytest.raises(ValueError):
        MixtureModel(np.array([0.5, 0.5]), hetero)


def test_mixture_markov_matrix():
    model = two_scalar_mixture()
    G = model.markov_matrix(4)
    assert G.shape == (2, 4)
    assert np.allclose(G[0], [1.0, 0.3, 0.09, 0.027], atol=1e-15)
    assert np.allclose(G[1], [1.0, -0.5, 0.25, -0.125], atol=1e-15)


def test_mixture_m2_oracle():
    model = two_scalar_mixture()
    G = model.markov_matrix(3)
    expected = 0.6 * np.outer(G[0], G[0]) + 0.4 * np.outer(G[1], G[1])
    ev = np.linalg.eigvalsh(expected)
    assert mixture_sigma_k(model, 3) == pytest.approx(ev[-2], abs=1e-12)
    with pytest.raises(ValueError, match=r"K=2 exceeds the covariate dimension L\*m=1"):
        mixture_sigma_k(model, 1)


def test_sample_mixture_single_component():
    model = MixtureModel(np.array([1.0]), [scalar_system(0.3)])
    labels = generate_dataset(model, 20, 1, seed=0).labels
    assert np.array_equal(labels, np.zeros(20, dtype=int))


def test_sample_mixture_frequencies():
    model = two_scalar_mixture(0.5)
    labels = generate_dataset(model, 100_000, 1, seed=1).labels
    assert abs(np.mean(labels == 0) - 0.5) < 0.01


def test_sample_mixture_deterministic():
    model = two_scalar_mixture()
    assert np.array_equal(generate_dataset(model, 50, 1, seed=3).labels,
                          generate_dataset(model, 50, 1, seed=3).labels)


def test_rollout_all_zero():
    ss = random_stable_system(2, 1, 0.6, seed=0)
    # sigma_u = 0 is rejected by NoiseConfig, so build the zero-input run directly
    inputs = np.zeros((10, 1))
    outputs = simulate(ss, inputs)
    assert np.array_equal(outputs, np.zeros(10))


def test_simulate_takes_only_trajectory_major_inputs():
    ss = random_stable_system(2, 1, 0.6, seed=0)
    for inputs in (np.zeros(10), np.zeros(()), np.zeros((10, 2))):
        with pytest.raises(ValueError, match=r"inputs must have shape \(\.\.\., T, 1\)"):
            simulate(ss, inputs)


def test_simulate_impulse_reproduces_markov():
    for seed in range(5):
        ss = random_stable_system(3, 1, 0.8, seed=seed)
        T = 12
        inputs = np.zeros((T, 1))
        inputs[0, 0] = 1.0
        outputs = simulate(ss, inputs)
        g = impulse_response(ss, T).ravel()
        assert np.allclose(outputs, g, atol=1e-12)


def test_rollout_convolution_oracle():
    rng = np.random.default_rng(83)
    for seed in range(10):
        m = int(rng.integers(1, 3))
        ss = random_stable_system(3, m, 0.85, seed=seed)
        T = 20
        noise = NoiseConfig(sigma_u=1.0, sigma_w1=0.0, sigma_w2=0.0)
        inputs, outputs = rollout(ss, T, noise, seed=seed + 100)
        g = impulse_response(ss, T)
        for t in range(1, T + 1):
            conv = sum(np.dot(g[j - 1], inputs[t - j]) for j in range(1, t + 1))
            assert outputs[t - 1] == pytest.approx(conv, abs=1e-10)


def test_rollout_deterministic():
    ss = random_stable_system(2, 1, 0.7, seed=1)
    a = rollout(ss, 15, NoiseConfig(), seed=5)
    b = rollout(ss, 15, NoiseConfig(), seed=5)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_simulate_measurement_noise_is_additive():
    ss = random_stable_system(2, 1, 0.7, seed=2)
    inputs = np.random.default_rng(0).normal(size=(8, 1))
    w2 = np.arange(1.0, 9.0)
    clean = simulate(ss, inputs)
    noisy = simulate(ss, inputs, measurement_noise=w2)
    assert np.allclose(noisy - clean, w2, atol=1e-14)


def test_simulate_batch_matches_loop():
    # leading axes are independent trajectories; each must get the bits of a single run
    rng = np.random.default_rng(89)
    for n in range(1, 5):
        for m in range(1, 4):
            ss = random_stable_system(n, m, 0.8, seed=10 * n + m)
            u = rng.normal(size=(2, 3, 17, m))
            w1 = 0.1 * rng.normal(size=(2, 3, 17, m))
            w2 = 0.1 * rng.normal(size=(2, 3, 17))
            noisy = simulate(ss, u, w1, w2)
            clean = simulate(ss, u)
            assert noisy.shape == clean.shape == (2, 3, 17)
            for idx in np.ndindex(2, 3):
                assert np.array_equal(noisy[idx], simulate_loop(ss, u[idx], w1[idx], w2[idx]))
                assert np.array_equal(clean[idx], simulate_loop(ss, u[idx]))


def assert_same_dataset_as_loop(model, N, T, noise, seed):
    data = generate_dataset(model, N, T, noise, seed=seed)
    U, Y, labels = generate_dataset_loop(model, N, T, noise, seed=seed)
    assert np.array_equal(data.labels, labels)
    for got, want in ((data.inputs, U), (data.outputs, Y)):
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    # rollout on trajectory 0's stream reproduces trajectory 0
    u, y = rollout(model.systems[labels[0]], T, noise, np.random.SeedSequence((seed, 2, 1)))
    assert np.array_equal(u, U[0]) and np.array_equal(y, Y[0])
    return labels


def test_generate_dataset_matches_rollout_loop():
    # seeds above 2**32 split into two entropy words; a zero sigma must give +0.0 as normal() does
    noises = (NoiseConfig(), NoiseConfig(1, 0, 0), NoiseConfig(0, 0, 0))
    for K, n, m, N in ((3, 3, 1, 25), (2, 4, 2, 25), (4, 2, 3, 25), (2, 3, 2, 1), (4, 2, 1, 2)):
        model = random_mixture(K, n, m, 5, seed=K + n + m)
        for seed in (0, 3, derive_seed(K, n)):
            for noise in noises:
                labels = assert_same_dataset_as_loop(model, N, 19, noise, seed)
    assert len(set(labels)) < K  # the last case leaves a component without trajectories


def test_generate_dataset_checks_sizes_first():
    # N, then T, before any array is allocated
    model = two_scalar_mixture()
    for N, T, message in ((0, 5, "N must be >= 1"), (-1, -1, "N must be >= 1"),
                          (3, 0, "T must be >= 1"), (3, -1, "T must be >= 1")):
        with pytest.raises(ValueError) as exc:
            generate_dataset(model, N, T, NoiseConfig(), seed=1)
        assert str(exc.value) == message
    with pytest.raises(ValueError, match="T must be >= 1"):
        rollout(scalar_system(0.5), 0)


def test_generate_dataset_shapes_and_labels():
    model = two_scalar_mixture()
    data = generate_dataset(model, 7, 11, NoiseConfig(), seed=2)
    assert data.N == 7 and data.T == 11 and data.m == 1
    assert data.inputs.shape == (7, 11, 1)
    assert data.outputs.shape == (7, 11)
    assert data.labels.shape == (7,)
    assert set(np.unique(data.labels)) <= {0, 1}


def test_generate_dataset_deterministic():
    model = two_scalar_mixture()
    a = generate_dataset(model, 5, 9, NoiseConfig(), seed=8)
    b = generate_dataset(model, 5, 9, NoiseConfig(), seed=8)
    assert a.inputs.tobytes() == b.inputs.tobytes()
    assert a.outputs.tobytes() == b.outputs.tobytes()
    assert np.array_equal(a.labels, b.labels)
    c = generate_dataset(model, 5, 9, NoiseConfig(), seed=9)
    assert a.inputs.tobytes() != c.inputs.tobytes()


def test_generate_dataset_trajectories_consistent_with_labels():
    # noiseless: each trajectory must satisfy its label's convolution exactly
    model = two_scalar_mixture()
    noise = NoiseConfig(sigma_u=1.0, sigma_w1=0.0, sigma_w2=0.0)
    data = generate_dataset(model, 6, 10, noise, seed=4)
    for i in range(6):
        g = impulse_response(model.systems[data.labels[i]], 10)
        for t in range(1, 11):
            conv = sum(np.dot(g[j - 1], data.inputs[i, t - j]) for j in range(1, t + 1))
            assert data.outputs[i, t - 1] == pytest.approx(conv, abs=1e-10)


def test_random_mixture_basic():
    model = random_mixture(3, 3, 1, 7, seed=0)
    assert model.K == 3
    assert model.order == 3
    assert np.allclose(model.weights, [1 / 3] * 3)
    for ss in model.systems:
        assert 0.6 - 1e-9 <= max(abs(np.linalg.eigvals(ss.A))) <= 0.9 + 1e-9
    assert mixture_sigma_k(model, 7) > 1e-8


def test_random_mixture_deterministic():
    a = random_mixture(2, 2, 1, 5, seed=6)
    b = random_mixture(2, 2, 1, 5, seed=6)
    for sa, sb in zip(a.systems, b.systems):
        assert np.array_equal(sa.A, sb.A)


def test_random_mixture_degenerate_raises(monkeypatch):
    monkeypatch.setattr(lds, "_SIGMA_MIN", 1e6)
    monkeypatch.setattr(lds, "_MAX_ATTEMPTS", 3)
    with pytest.raises(DegenerateMixtureError, match="for 3 draws"):
        random_mixture(2, 2, 1, 5, seed=0)


def test_dataset_file_round_trip(tmp_path):
    model = two_scalar_mixture()
    data = generate_dataset(model, 4, 6, NoiseConfig(), seed=11)
    path = tmp_path / "d.txt"
    save_dataset(path, data)
    back = load_dataset(path)
    assert back.inputs.tobytes() == data.inputs.tobytes()
    assert back.outputs.tobytes() == data.outputs.tobytes()
    assert np.array_equal(back.labels, data.labels)


def test_dataset_file_unlabeled_round_trip(tmp_path):
    data = TrajectoryDataset(np.random.default_rng(1).normal(size=(3, 5, 2)),
                             np.random.default_rng(2).normal(size=(3, 5)), None)
    path = tmp_path / "d.txt"
    save_dataset(path, data)
    back = load_dataset(path)
    assert back.labels is None
    assert back.inputs.tobytes() == data.inputs.tobytes()


def test_save_dataset_matches_per_value_format(tmp_path):
    rng = np.random.default_rng(97)
    inputs = rng.normal(size=(3, 4, 2)) * np.exp(rng.uniform(-300, 300, size=(3, 4, 2)))
    outputs = rng.normal(size=(3, 4))
    inputs[0, 0] = [-0.0, 5e-324]
    inputs[1, 2] = [1e308, -1e308]
    outputs[2, 3] = -0.0
    outputs[0, 1] = 2.2250738585072014e-308
    path = tmp_path / "d.txt"
    for labels in (None, np.array([2, 0, 1])):
        save_dataset(path, TrajectoryDataset(inputs, outputs, labels))
        assert path.read_bytes() == dataset_text_loop(inputs, outputs, labels).encode()


def test_save_mixture_golden(tmp_path):
    # pins the mlds-mixture bytes of a seeded m=2 draw (taken before the
    # writer moved to util.format_rows); a different BLAS build may move them
    path = tmp_path / "mix.txt"
    save_mixture(path, random_mixture(3, 3, 2, 7, seed=0))
    digest = "3d9686dd0af8d6642abff319453e1e3590dbf016e67cbe08a8889f7d38da3046"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


LOAD_BASE = ["mlds-dataset v1, N=2, T=3, m=1, labeled=1",
             "traj 0 label 1", "1 2", "3 4", "5 6",
             "traj 1 label 0", "7 8", "9 10", "11 12"]


@pytest.mark.parametrize("edits, expected", [
    # accepted rows give float()'s value; 1-based line 4 is trajectory 0, step 1
    ({4: "1_0 4"}, (10.0, 4.0)),
    ({4: "\uff11 4"}, (1.0, 4.0)),
    ({4: "  3 4   "}, (3.0, 4.0)),
    ({4: "3e0\t4."}, (3.0, 4.0)),
    # rejected rows name the first bad line in file order
    ({4: ""}, "line 4: expected 2 numbers, got 0"),
    ({4: "# 1"}, "line 4: malformed float in '# 1'"),
    ({4: "3 4 5"}, "line 4: expected 2 numbers, got 3"),
    ({4: "0x3 4"}, "line 4: malformed float in '0x3 4'"),
    ({4: "nan 4"}, "line 4: non-finite value in 'nan 4'"),
    ({8: "9 -inf", 4: "3 1e999"}, "line 4: non-finite value in '3 1e999'"),
    ({6: "traj 2 label 0"}, "line 6: expected 'traj 1 label <k|->', got 'traj 2 label 0'"),
    ({6: "traj 1 label x"}, "line 6: labeled dataset needs an integer label"),
    ({6: "traj 2 label 0", 4: "3 x"}, "line 4: malformed float in '3 x'"),
    ({6: "traj 2 label 0", 4: "nan 4"}, "line 6: expected 'traj 1 label <k|->', got 'traj 2 label 0'"),
    ({9: "11"}, "line 9: expected 2 numbers, got 1"),
])
def test_load_dataset_rows_accept_set(tmp_path, edits, expected):
    lines = list(LOAD_BASE)
    for lineno, text in edits.items():
        lines[lineno - 1] = text
    path = tmp_path / "d.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if isinstance(expected, str):
        with pytest.raises(ValueError) as exc:
            load_dataset(path)
        assert str(exc.value) == expected
    else:
        data = load_dataset(path)
        assert (data.inputs[0, 1, 0], data.outputs[0, 1]) == expected
        assert data.outputs.tolist() == [[2.0, 4.0, 6.0], [8.0, 10.0, 12.0]]


def test_dataset_file_header_content(tmp_path):
    model = two_scalar_mixture()
    data = generate_dataset(model, 2, 3, NoiseConfig(), seed=0)
    path = tmp_path / "d.txt"
    save_dataset(path, data)
    lines = path.read_text().splitlines()
    assert lines[0] == "mlds-dataset v1, N=2, T=3, m=1, labeled=1"
    assert lines[1].startswith("traj 0 label ")


def test_dataset_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a dataset\n")
    with pytest.raises(ValueError, match="line 1"):
        load_dataset(path)


def test_dataset_rejects_non_finite(tmp_path):
    inputs, outputs = np.zeros((2, 3, 1)), np.zeros((2, 3))
    inputs[1, 2, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        TrajectoryDataset(inputs, outputs)
    outputs[0, 1] = -np.inf
    with pytest.raises(ValueError, match="finite"):
        TrajectoryDataset(np.zeros((2, 3, 1)), outputs)
    # the loader names the file line of the first non-finite value
    path = tmp_path / "d.txt"
    save_dataset(path, TrajectoryDataset(np.ones((2, 3, 1)), np.ones((2, 3))))
    lines = path.read_text().splitlines()
    lines[6] = "inf 1"  # trajectory 1, first step
    lines[7] = "1 nan"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"^line 7: non-finite value in 'inf 1'$"):
        load_dataset(path)


def test_dataset_file_rejects_truncation(tmp_path):
    model = two_scalar_mixture()
    data = generate_dataset(model, 3, 4, NoiseConfig(), seed=1)
    path = tmp_path / "d.txt"
    save_dataset(path, data)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(ValueError):
        load_dataset(path)


def test_save_dataset_blocks_match_per_value_format(tmp_path, monkeypatch):
    # two trajectories per block, so N runs through one, two and three blocks with a partial last one,
    # written by one, two or three workers
    T, m = 3, 2
    monkeypatch.setattr(lds, "_TEXT_BLOCK", 2 * T * (m + 1))
    rng = np.random.default_rng(5)
    path = tmp_path / "d.txt"
    for N in (1, 2, 3, 5):
        inputs, outputs = rng.normal(size=(N, T, m)), rng.normal(size=(N, T))
        for labels, cpus in itertools.product((None, rng.integers(0, 3, size=N)), (1, 2, 3)):
            set_cpus(monkeypatch, cpus)
            save_dataset(path, TrajectoryDataset(inputs, outputs, labels))
            assert path.read_bytes() == dataset_text_loop(inputs, outputs, labels).encode(), (N, labels, cpus)


def load_corpus():
    """LOAD_BASE under every edit of test_load_dataset_rows_accept_set, then line-level faults, as bytes."""
    [mark] = test_load_dataset_rows_accept_set.pytestmark
    files = []
    for edits, _ in mark.args[1]:
        lines = list(LOAD_BASE)
        for lineno, text in edits.items():
            lines[lineno - 1] = text
        files.append("\n".join(lines) + "\n")
    text = "\n".join(LOAD_BASE) + "\n"
    # str.splitlines breaks lines at these; file iteration does not, and np.loadtxt reads them as spaces
    files += [text.replace("3 4", f"3{sep}4") for sep in ("\x0c", "\x85", "\u2028")]
    files.append(text.replace("labeled=1", "labeled=1\x1c"))
    # every row of trajectory 0 one number too wide: a block np.loadtxt reads without complaint
    files.append(text.replace("1 2\n3 4\n5 6", "1 2 0\n3 4 0\n5 6 0"))
    files += [text.replace("\n", "\r\n"), text.replace("\n", "\r"), text[:-1], text + "\n", text + "13 14\n",
              "\n".join(LOAD_BASE[:-1]) + "\n", text.replace("N=2", "N=1000000000000"), text]
    files.append(text.replace("label 1", "label 99999999999999999999"))  # past int64
    # a row width that no array of that many rows could hold: the first short row is reported
    files.append("mlds-dataset v1, N=1, T=1, m=100000000000, labeled=0\ntraj 0 label -\n1 2\n")
    files = [f.encode() for f in files] + [text.encode().replace(b"3 4", b"3 \xff4")]
    # past the 8 KiB that a text file decodes at a time: an undecodable byte in the last row,
    # alone, after a bad row in trajectory 0 and after a bad header
    N = 400
    long = "".join([f"mlds-dataset v1, N={N}, T=3, m=1, labeled=1\n"]
                   + [f"traj {i} label 0\n1 2\n3 4\n5 6\n" for i in range(N)]).encode()
    assert len(long) > 8192
    late = long[:-3] + b"\xff6\n"
    return files + [late, late.replace(b"3 4", b"3 x", 1), late.replace(b"v1", b"v2", 1)]


def load_outcome(load, path):
    try:
        data = load(path)
    except ValueError as exc:  # UnicodeDecodeError included
        return type(exc), str(exc)
    labels = None if data.labels is None else data.labels.tolist()
    return data.inputs.tobytes(), data.outputs.tobytes(), labels


@pytest.mark.parametrize("trajectories_per_block", [1, None])
def test_load_dataset_blocks_agree_with_the_whole_file_reader(tmp_path, monkeypatch, trajectories_per_block):
    # LOAD_BASE has T=3, m=1: one trajectory per block, or both in one block by default;
    # files of several blocks are parsed by one, two or three workers
    if trajectories_per_block:
        monkeypatch.setattr(lds, "_TEXT_BLOCK", trajectories_per_block * 3 * 2)
    path = tmp_path / "d.txt"
    for raw in load_corpus():
        path.write_bytes(raw)
        expected = load_outcome(_load_whole, path)
        for cpus in (1, 2, 3):
            set_cpus(monkeypatch, cpus)
            assert load_outcome(load_dataset, path) == expected, (cpus, raw)


def corrupted_files(count, seed):
    """count small dataset files as bytes, each with one or two random byte-level faults."""
    rng = np.random.default_rng(seed)
    pieces = [b"\n", b"\r", b"\r\n", b" ", b"\t", b"x", b"-", b"#", b"nan", b"inf", b"1e999", b"1_0", b"0x3",
              "\uff11".encode(), b"\x0c", "\x85".encode(), "\u2028".encode(), b"\x1c", b"\xff",
              b"traj 1 label 0\n", b"99999999999999999999", b"3 4\n"]
    files = []
    for _ in range(count):
        N, T, m = rng.integers(1, 4, size=3)
        labels = rng.integers(0, 3, size=N) if rng.random() < 0.5 else None
        outputs = rng.choice([0.5, -2.0, np.nan, np.inf], p=[0.45, 0.45, 0.05, 0.05], size=(N, T))
        raw = dataset_text_loop(rng.integers(-9, 10, size=(N, T, m)) / 4, outputs, labels).encode()
        for _ in range(rng.integers(1, 3)):
            start = max(raw.find(b"\n"), 0) if rng.random() < 0.9 else 0  # mostly past the header
            at = int(rng.integers(start, len(raw) + 1))
            kind = rng.choice(4, p=[0.45, 0.3, 0.2, 0.05])
            if kind == 0:  # insert
                raw = raw[:at] + pieces[rng.integers(len(pieces))] + raw[at:]
            elif kind == 1:  # replace a byte
                raw = raw[:at] + pieces[rng.integers(len(pieces))] + raw[at + 1:]
            elif kind == 2:  # delete a few bytes
                raw = raw[:at] + raw[at + int(rng.integers(1, 6)):]
            else:  # truncate
                raw = raw[:at]
        files.append(raw)
    return files


def test_load_dataset_agrees_with_the_whole_file_reader_on_corrupted_files(tmp_path, monkeypatch):
    # 1 and 7 characters make a block of each trajectory, so files of 2 and 3 trajectories
    # are parsed by as many workers as there are CPUs, up to one per trajectory
    path = tmp_path / "d.txt"
    outcomes = []
    default = lds._TEXT_BLOCK
    for raw in corrupted_files(300, seed=17):
        path.write_bytes(raw)
        expected = load_outcome(_load_whole, path)
        outcomes.append(expected[0] if isinstance(expected[0], type) else "loaded")
        for chars, cpus in itertools.product((1, 7, default), (1, 2, 3)):
            monkeypatch.setattr(lds, "_TEXT_BLOCK", chars)
            set_cpus(monkeypatch, cpus)
            assert load_outcome(load_dataset, path) == expected, (chars, cpus, raw)
    # the faults reach every kind of outcome: loaded files, parse errors and undecodable bytes
    assert {"loaded", ValueError, UnicodeDecodeError} <= set(outcomes)


def test_dataset_codec_forks_one_worker_per_cpu_but_one(tmp_path, monkeypatch):
    data = generate_dataset(two_scalar_mixture(), 9, 4, NoiseConfig(), seed=3)
    path = tmp_path / "d.txt"
    monkeypatch.setattr(lds, "_TEXT_BLOCK", 2 * 4 * 2)  # two trajectories per block: five blocks
    set_cpus(monkeypatch, 3)
    forks = count_forks(monkeypatch)
    save_dataset(path, data)
    assert path.read_bytes() == dataset_text_loop(data.inputs, data.outputs, data.labels).encode()
    back = load_dataset(path)
    assert back.inputs.tobytes() == data.inputs.tobytes() and back.outputs.tobytes() == data.outputs.tobytes()
    assert np.array_equal(back.labels, data.labels)
    assert forks == [os.getpid()] * 4
    assert_no_children()
    assert sorted(os.listdir(tmp_path)) == ["d.txt"]


@pytest.mark.parametrize("cpus,N", [(1, 9), (3, 2)])
def test_dataset_codec_one_worker_never_forks(tmp_path, monkeypatch, cpus, N):
    # one CPU, or a file of one block
    data = generate_dataset(two_scalar_mixture(), N, 4, NoiseConfig(), seed=3)
    path = tmp_path / "d.txt"
    monkeypatch.setattr(lds, "_TEXT_BLOCK", 2 * 4 * 2)
    set_cpus(monkeypatch, cpus)
    forbid_forks(monkeypatch)
    save_dataset(path, data)
    assert path.read_bytes() == dataset_text_loop(data.inputs, data.outputs, data.labels).encode()
    assert load_dataset(path).outputs.tobytes() == data.outputs.tobytes()


@pytest.mark.parametrize("N", [2, 9])
def test_load_dataset_needs_no_temp_directory(tmp_path, monkeypatch, N):
    # one block, or five blocks read by three workers, which parse straight into the caller's arrays
    data = generate_dataset(two_scalar_mixture(), N, 4, NoiseConfig(), seed=3)
    path = tmp_path / "d.txt"
    save_dataset(path, data)
    monkeypatch.setattr(lds, "_TEXT_BLOCK", 2 * 4 * 2)
    set_cpus(monkeypatch, 3)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    back = load_dataset(path)
    assert back.inputs.tobytes() == data.inputs.tobytes() and back.outputs.tobytes() == data.outputs.tobytes()
    assert np.array_equal(back.labels, data.labels)
    assert_no_children()
    assert sorted(os.listdir(tmp_path)) == ["d.txt"]


def test_load_dataset_rejects_a_pipe_and_follows_a_symlink(tmp_path):
    # each worker re-opens the path, which a pipe's reader cannot; the check comes before open, so no writer is needed
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    with pytest.raises(ValueError, match=f"^{re.escape(str(fifo))}: not a regular file$"):
        load_dataset(fifo)
    data = generate_dataset(two_scalar_mixture(), 3, 4, NoiseConfig(), seed=3)
    save_dataset(tmp_path / "d.txt", data)
    (tmp_path / "link.txt").symlink_to(tmp_path / "d.txt")
    assert load_dataset(tmp_path / "link.txt").outputs.tobytes() == data.outputs.tobytes()


def test_load_dataset_runs_before_the_last_stop_at_their_range(tmp_path, monkeypatch):
    # an undecodable byte in trajectory 2's last row, more than a decoded chunk (8 KiB) past trajectory 0:
    # the run of trajectory 0 alone never reaches it, and the last run, which reads the whole file, does
    T = 3000
    rows = "".join(f"{t} 0.5\n" for t in range(T))
    raw = ("mlds-dataset v1, N=3, T=3000, m=1, labeled=0\n"
           + "".join(f"traj {i} label -\n{rows}" for i in range(3))).encode()
    raw = raw[:-2] + b"\xff\n"
    path = tmp_path / "d.txt"
    path.write_bytes(raw)
    monkeypatch.setattr(lds, "_TEXT_BLOCK", T * 2)  # one trajectory per block
    assert lds._read_dataset(path, 0, 1, None, None) == (None, None, None, [None])
    for cpus in (1, 2, 3):
        set_cpus(monkeypatch, cpus)
        with pytest.raises(UnicodeDecodeError) as info:
            load_dataset(path)
        assert info.value.start == raw.index(b"\xff"), cpus


def codec_fault(monkeypatch, name, fault, in_worker):
    """Patch lds.<name> to call fault() in the forked workers, or in the caller; three CPUs, five blocks."""
    parent = os.getpid()
    real = getattr(lds, name)

    def patched(*args, **kw):
        if (os.getpid() != parent) == in_worker:
            fault()
        return real(*args, **kw)

    monkeypatch.setattr(lds, name, patched)
    monkeypatch.setattr(lds, "_TEXT_BLOCK", 2 * 4 * 2)
    set_cpus(monkeypatch, 3)


def run_error():
    raise ArithmeticError("run broke")


def silent_exit():
    os._exit(7)


@pytest.mark.parametrize("fault,in_worker,error,message", [
    (run_error, True, ArithmeticError, "^run broke$"),
    (silent_exit, True, RuntimeError, "exited with status 7 without sending its result$"),
    (run_error, False, ArithmeticError, "^run broke$"),  # the caller's own run: its workers are reaped
])
@pytest.mark.parametrize("step,name", [("save", "format_rows"), ("load", "_head_label")])
def test_dataset_codec_fault_reaches_caller(tmp_path, monkeypatch, fault, in_worker, error, message, step, name):
    # the exception arrives with its type and message, and no worker or part file outlives it
    data = generate_dataset(two_scalar_mixture(), 9, 4, NoiseConfig(), seed=3)
    path = tmp_path / "out" / "d.txt"
    path.parent.mkdir()
    save_dataset(path, data)
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))  # neither step leaves a file there either
    codec_fault(monkeypatch, name, fault, in_worker)
    with pytest.raises(error, match=message):
        save_dataset(path, data) if step == "save" else load_dataset(path)
    assert_no_children()
    assert os.listdir(path.parent) == ["d.txt"] and os.listdir(scratch) == []


def test_generate_dataset_peak_memory_is_its_arrays():
    # each block of _SIM_BLOCK trajectories is simulated once drawn, so the peak is the returned arrays plus a block
    model = random_mixture(3, 3, 1, 7, seed=5)
    tracemalloc.start()
    try:
        data = generate_dataset(model, 20000, 48, NoiseConfig(), seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = data.inputs.nbytes + data.outputs.nbytes + data.labels.nbytes
    assert peak <= 1.2 * arrays, (peak, arrays)


def test_load_dataset_reads_a_clean_file_by_blocks(tmp_path, monkeypatch):
    data = generate_dataset(two_scalar_mixture(), 9, 4, NoiseConfig(), seed=3)
    path = tmp_path / "d.txt"
    save_dataset(path, data)
    monkeypatch.setattr(lds, "_TEXT_BLOCK", 2 * 4 * 2)
    back = load_dataset(path)
    assert back.inputs.tobytes() == data.inputs.tobytes()
    assert back.outputs.tobytes() == data.outputs.tobytes()
    assert np.array_equal(back.labels, data.labels)


def test_load_dataset_allocates_nothing_for_a_header_larger_than_its_file(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("\n".join(LOAD_BASE).replace("N=2", "N=1000000000000") + "\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^expected 4000000000001 lines for N=1000000000000, T=3, got 9$"):
            load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_dataset_codec_memory_does_not_grow_with_n(tmp_path):
    # the codec holds one block of text at a time, never the file's; at T=48 a block is
    # 682 trajectories, so both files fill at least one block, and the second spans three
    T = 48
    rng = np.random.default_rng(0)
    save_peaks = []
    for N in (1000, 2000):
        data = TrajectoryDataset(rng.normal(size=(N, T, 1)), rng.normal(size=(N, T)), rng.integers(0, 3, size=N))
        path = tmp_path / f"d{N}.txt"
        tracemalloc.start()
        try:
            save_dataset(path, data)
            save_peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(save_peaks[1] - save_peaks[0]) < 0.5 * 2**20, save_peaks
    block_text = path.stat().st_size / N * lds._block_trajectories(T, 1)
    tracemalloc.start()
    try:
        back = load_dataset(path)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the inputs and outputs live in a shared mapping, which tracemalloc does not see
    assert load_peak - back.labels.nbytes < block_text, (load_peak, block_text)


def test_mixture_file_round_trip(tmp_path):
    model = random_mixture(2, 3, 2, 5, seed=7)
    path = tmp_path / "m.txt"
    save_mixture(path, model)
    back = load_mixture(path)
    assert np.array_equal(back.weights, model.weights)
    for sa, sb in zip(back.systems, model.systems):
        assert np.array_equal(sa.A, sb.A)
        assert np.array_equal(sa.B, sb.B)
        assert np.array_equal(sa.C, sb.C)


def test_mixture_file_header(tmp_path):
    model = random_mixture(2, 3, 1, 5, seed=3)
    path = tmp_path / "m.txt"
    save_mixture(path, model)
    assert path.read_text().splitlines()[0] == "mlds-mixture v1, K=2, n=3, m=1"


def test_mixture_file_rejects_unstable(tmp_path):
    model = random_mixture(2, 1, 1, 3, seed=2)
    path = tmp_path / "m.txt"
    save_mixture(path, model)
    text = path.read_text().splitlines()
    # scalar A value lives two lines below each weight line; corrupt the first
    idx = next(i for i, ln in enumerate(text) if ln.startswith("weight")) + 1
    text[idx] = "1.5"
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(ValueError, match="spectral radius"):
        load_mixture(path)


@pytest.mark.parametrize("row,name", [(1, "A"), (3, "B"), (5, "C")])
def test_mixture_file_names_the_line_of_a_bad_component(tmp_path, row, name):
    # n=2, m=1: rows 1-2 after a weight line are A, rows 3-4 are B, row 5 is C;
    # corrupt the second component, whose weight sits on file line 8
    model = random_mixture(2, 2, 1, 5, seed=7)
    path = tmp_path / "m.txt"
    save_mixture(path, model)
    text = path.read_text().splitlines()
    assert text[7].startswith("weight")
    text[7 + row] = " ".join(["nan"] + text[7 + row].split()[1:])
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(ValueError, match=f"^line 8: StateSpace matrix {name} must be finite$"):
        load_mixture(path)
