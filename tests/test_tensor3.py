"""Tests for symmetric (d, d, d) array ops, the reference oracles, and the robust power method."""

import itertools

import numpy as np
import pytest

from ldsmix.errors import DecompositionError
from ldsmix.tensor3 import robust_tpm, symmetrize
from ldsmix.util import derive_seed
from oracles import contract, op_norm_estimate, outer3, power_loop, power_update, robust_tpm_loop


def contract_oracle(values, a, b, c):
    """Literal triple loop, kept independent of the einsum implementation."""
    d = values.shape[0]
    total = 0.0
    for i in range(d):
        for j in range(d):
            for k in range(d):
                total += values[i, j, k] * a[i] * b[j] * c[k]
    return total


def random_sym(rng, d):
    return symmetrize(rng.normal(size=(d, d, d)))


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def orthonormal(rng, d, K):
    return np.linalg.qr(rng.normal(size=(d, d)))[0][:, :K]


def test_outer3_basis_vector():
    t = outer3([1.0, 0.0])
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = 1.0
    assert np.array_equal(t, expected)


def test_outer3_zero_vector():
    assert np.array_equal(outer3([0.0, 0.0, 0.0]), np.zeros((3, 3, 3)))


def test_outer3_hand_entry():
    # v = (1,2): entry (0,1,1) = 1*2*2
    t = outer3([1.0, 2.0])
    assert t[0, 1, 1] == 4.0
    assert t[1, 1, 1] == 8.0
    assert t[0, 0, 1] == 2.0


def test_outer3_matches_triple_loop():
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = rng.normal(size=4)
        t = outer3(v)
        i, j, k = rng.integers(0, 4, size=3)
        assert t[i, j, k] == pytest.approx(v[i] * v[j] * v[k], abs=1e-14)


def test_tensor_inputs_reject_bad_shape():
    for shape in ((2, 3, 2), (2, 2), (0, 0, 0)):
        with pytest.raises(ValueError, match="expected a"):
            robust_tpm(np.zeros(shape), 1)


def test_tensor_inputs_reject_asymmetric():
    values = np.zeros((2, 2, 2))
    values[0, 1, 0] = 1.0
    with pytest.raises(ValueError, match="asymmetric"):
        robust_tpm(values, 1)


def test_tensor_inputs_reject_non_finite():
    for bad in (np.nan, np.inf):
        values = np.zeros((2, 2, 2))
        values[1, 1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            robust_tpm(values, 1)


def test_symmetrize_fixes_random_tensor():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(4, 4, 4))
    sym = symmetrize(raw)
    # brute-force average over the 6 permutations
    expected = np.zeros_like(raw)
    for perm in itertools.permutations(range(3)):
        expected += np.transpose(raw, perm)
    expected /= 6.0
    assert np.allclose(sym, expected, atol=1e-14)


def test_contract_rank1_identity():
    rng = np.random.default_rng(7)
    for _ in range(10):
        v = rng.normal(size=5)
        a = rng.normal(size=5)
        assert contract(outer3(v), a, a, a) == pytest.approx(np.dot(v, a) ** 3, rel=1e-10)


def test_contract_basis_extraction():
    t = random_sym(np.random.default_rng(3), 3)
    e1 = np.array([1.0, 0.0, 0.0])
    assert contract(t, e1, e1, e1) == t[0, 0, 0]


def test_contract_matches_triple_loop():
    rng = np.random.default_rng(19)
    for _ in range(10):
        t = random_sym(rng, 3)
        a, b, c = rng.normal(size=(3, 3))
        assert contract(t, a, b, c) == pytest.approx(
            contract_oracle(t, a, b, c), abs=1e-12)


def test_contract_dimension_mismatch():
    t = random_sym(np.random.default_rng(1), 3)
    with pytest.raises(ValueError):
        contract(t, np.ones(4), np.ones(3), np.ones(3))


def test_contract_multilinearity():
    rng = np.random.default_rng(23)
    for _ in range(25):
        t = random_sym(rng, 4)
        a, b, c, d = rng.normal(size=(4, 4))
        alpha = rng.normal()
        lhs = contract(t, alpha * a + b, c, d)
        rhs = alpha * contract(t, a, c, d) + contract(t, b, c, d)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_symmetry_closure():
    # outer3 and deflation land inside the symmetry check that robust_tpm
    # runs on its input
    rng = np.random.default_rng(31)
    for _ in range(10):
        t = random_sym(rng, 5)
        v = unit(rng.normal(size=5))
        robust_tpm(t - 0.3 * outer3(v), 1, n_restarts=1, n_iters=1)


def test_power_update_rank1_fixed_point():
    t = outer3([1.0, 0.0])
    for theta in (0.1, 0.7, 1.2):
        u = np.array([np.cos(theta), np.sin(theta)])
        out = power_update(t, u)
        assert np.allclose(out, [1.0, 0.0], atol=1e-12)


def test_power_update_orthogonal_start_raises():
    t = outer3([1.0, 0.0])
    with pytest.raises(ValueError, match="zero vector"):
        power_update(t, np.array([0.0, 1.0]))


def test_power_update_two_component_oracle():
    # M(I,u,u) = (0.6 u1^2, 0.4 u2^2) for the orthogonal basis tensor
    t = 0.6 * outer3([1.0, 0.0]) + 0.4 * outer3([0.0, 1.0])
    u = unit([0.8, 0.6])
    raw = np.array([0.6 * 0.64, 0.4 * 0.36])
    expected = raw / np.linalg.norm(raw)
    assert np.allclose(power_update(t, u), expected, atol=1e-12)


def test_power_update_converges_fast_on_rank1():
    rng = np.random.default_rng(37)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        v = unit(rng.normal(size=d))
        lam = float(rng.uniform(0.2, 3.0))
        t = lam * outer3(v)
        u = unit(rng.normal(size=d))
        if abs(np.dot(u, v)) < 1e-3:
            continue
        for _ in range(3):
            u = power_update(t, u)
        assert min(np.linalg.norm(u - v), np.linalg.norm(u + v)) < 1e-10


def test_op_norm_rank1():
    assert op_norm_estimate(outer3([1.0, 0.0, 0.0])) == pytest.approx(1.0, abs=1e-9)


def test_op_norm_zero_tensor():
    assert op_norm_estimate(np.zeros((3, 3, 3))) == 0.0


def test_op_norm_orthogonal_pair():
    t = 0.6 * outer3([1.0, 0.0]) + 0.4 * outer3([0.0, 1.0])
    assert op_norm_estimate(t, n_restarts=50, n_iters=100, seed=2) == pytest.approx(0.6, abs=1e-6)


def test_op_norm_matches_dense_grid_on_circle():
    # d=2 lets us check the sup over the sphere by brute force
    rng = np.random.default_rng(41)
    t = random_sym(rng, 2)
    grid = np.linspace(0.0, 2.0 * np.pi, 20001)
    vals = [abs(contract(t, u, u, u)) for u in np.column_stack([np.cos(grid), np.sin(grid)])]
    dense = max(vals)
    est = op_norm_estimate(t, n_restarts=100, n_iters=200, seed=3)
    assert est <= dense + 1e-6
    assert est == pytest.approx(dense, abs=1e-4)


def test_norm_sandwich_flag_only():
    # the estimate is a lower bound, so violations are flagged, not failed
    rng = np.random.default_rng(43)
    flagged = 0
    for _ in range(20):
        t = random_sym(rng, 4)
        bound = 5.0 * op_norm_estimate(t, n_restarts=50, n_iters=100, seed=7)
        for _ in range(10):
            a, b, c = (unit(rng.normal(size=4)) for _ in range(3))
            if abs(contract(t, a, b, c)) > bound:
                flagged += 1
    if flagged:
        print(f"norm sandwich flagged {flagged} violations")


def test_robust_tpm_single_component():
    lams, vecs = robust_tpm(outer3([1.0, 0.0]), 1, seed=0)
    assert len(lams) == 1
    lam, v = lams[0], vecs[0]
    assert lam == pytest.approx(1.0, abs=1e-9)
    assert min(np.linalg.norm(v - [1, 0]), np.linalg.norm(v + [1, 0])) < 1e-9


def test_robust_tpm_two_components():
    t = 0.6 * outer3([1.0, 0.0]) + 0.4 * outer3([0.0, 1.0])
    lams, vecs = robust_tpm(t, 2, seed=0)
    # canonicalized: weights {0.6, 0.4}, vectors {e1, e2}
    assert sorted(np.abs(lams)) == pytest.approx([0.4, 0.6], abs=1e-6)
    for v in vecs:
        axis = np.argmax(np.abs(v))
        assert abs(abs(v[axis]) - 1.0) < 1e-6


def match_factors(factors, V, p):
    """Brute-force permutation/sign match; returns worst deviation."""
    K = len(p)
    best = np.inf
    for perm in itertools.permutations(range(K)):
        worst = 0.0
        for k, j in enumerate(perm):
            lam, v = factors[0][j], factors[1][j]
            if lam < 0:
                lam, v = -lam, -v
            dv = min(np.linalg.norm(v - V[:, k]), np.linalg.norm(v + V[:, k]))
            worst = max(worst, abs(lam - p[k]), dv)
        best = min(best, worst)
    return best


def test_robust_tpm_three_random_orthonormal():
    rng = np.random.default_rng(47)
    V = orthonormal(rng, 3, 3)
    p = np.array([0.5, 0.3, 0.2])
    t = sum(p[k] * outer3(V[:, k]) for k in range(3))
    assert match_factors(robust_tpm(t, 3, seed=1), V, p) < 1e-6


def test_robust_tpm_exact_recovery_property():
    rng = np.random.default_rng(53)
    for trial in range(15):
        K = int(rng.integers(1, 6))
        d = int(rng.integers(K, K + 3))
        V = orthonormal(rng, d, K)
        p = rng.uniform(0.05, 1.0, size=K)
        t = symmetrize(sum(p[k] * outer3(V[:, k]) for k in range(K)))
        factors = robust_tpm(t, K, n_restarts=max(20, 20 * K), n_iters=100, seed=trial)
        assert match_factors(factors, V, p) < 1e-6, f"trial {trial} K={K} d={d}"


def test_robust_tpm_negative_weight_reconstruction():
    # odd tensors absorb a sign flip into the vector; reconstruction is exact
    t = -0.6 * outer3([1.0, 0.0]) + 0.4 * outer3([0.0, 1.0])
    lams, vecs = robust_tpm(t, 2, seed=5)
    recon = sum(lam * outer3(v) for lam, v in zip(lams, vecs))
    assert np.allclose(recon, t, atol=1e-8)


def test_robust_tpm_deterministic():
    rng = np.random.default_rng(59)
    V = orthonormal(rng, 4, 3)
    p = np.array([0.5, 0.4, 0.1])
    t = symmetrize(sum(p[k] * outer3(V[:, k]) for k in range(3)))
    a = robust_tpm(t, 3, seed=9)
    b = robust_tpm(t, 3, seed=9)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_robust_tpm_zero_tensor_raises():
    with pytest.raises(DecompositionError) as exc:
        robust_tpm(np.zeros((2, 2, 2)), 2, seed=0)
    assert exc.value.round_index == 0


def test_robust_tpm_factor_type():
    lams, vecs = robust_tpm(outer3([0.0, 1.0]), 1, seed=0)
    assert isinstance(lams, np.ndarray) and lams.shape == (1,)
    assert isinstance(vecs, np.ndarray) and vecs.shape == (1, 2)


def assert_same_bits_as_loop(t, K, **kw):
    want = robust_tpm_loop(t, K, **kw)
    if isinstance(want, int):
        with pytest.raises(DecompositionError) as exc:
            robust_tpm(t, K, **kw)
        assert exc.value.round_index == want
    else:
        lams, vecs = robust_tpm(t, K, **kw)
        assert np.array_equal(lams, want[0]) and np.array_equal(vecs, want[1])


def test_robust_tpm_matches_restart_loop():
    # all restarts of a round run as one array, seeded in one pass; the result must be bit-identical
    # to running them one after another, on generic and orthogonal tensors
    rng = np.random.default_rng(61)
    for trial in range(20):
        K = int(rng.integers(1, 6))
        d = int(rng.integers(K, 11))
        if trial % 2:
            t = symmetrize(rng.normal(size=(d, d, d)))
        else:
            V = orthonormal(rng, d, K)
            t = symmetrize(sum(p * outer3(V[:, k]) for k, p in enumerate(rng.uniform(0.1, 1.0, K))))
        restarts = None if trial % 5 == 0 else int(rng.integers(1, 30))
        for seed in (trial, derive_seed(trial, K)):  # the second is above 2**32: two entropy words
            assert_same_bits_as_loop(t, K, n_restarts=restarts, n_iters=40, seed=seed)


def collapsed_restarts(t, n_restarts, seed=0):
    d = t.shape[0]
    count = 0
    for r in range(n_restarts):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 1, r + 1)))
        u = rng.normal(size=d)
        count += power_loop(t.reshape(d, -1), u / np.linalg.norm(u), 100)[1]
    return count


def test_robust_tpm_collapsed_restarts_match_restart_loop():
    # at scale 1e-161 the squared norm of some restarts' updates underflows to zero,
    # so those restarts collapse and the rest carry the round
    t = 1e-161 * outer3([1.0, 0.0])
    assert 0 < collapsed_restarts(t, 40) < 40
    assert_same_bits_as_loop(t, 1, n_restarts=40)
    # at 1e-162 every restart of round 0 collapses; an exact rank-1 tensor
    # deflates to zero, so every restart of round 1 collapses
    t = 1e-162 * outer3([1.0, 0.0])
    assert collapsed_restarts(t, 40) == 40
    assert_same_bits_as_loop(t, 1, n_restarts=40)
    assert robust_tpm_loop(outer3([1.0, 0.0]), 2) == 1
    assert_same_bits_as_loop(outer3([1.0, 0.0]), 2)
