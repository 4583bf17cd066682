"""Tests for the mixture-of-linear-regressions moment estimator."""

import numpy as np
import pytest

from ldsmix.errors import DegenerateMixtureError
from ldsmix.mlr import (MixtureEstimate, estimate_m2, estimate_whitened_m3,
                        mlr_fit, refine_first_moment, whitening_from_m2)
from ldsmix.tensor3 import symmetrize
from oracles import change_basis3, fit_from_moments, op_norm_estimate, outer3


def halves(X, y):
    """The default split: the first ceil(n/2) rows feed M2, the rest feed M3."""
    n2 = (len(y) + 1) // 2
    return (X[:n2], y[:n2]), (X[n2:], y[n2:])


def fit_halves(X, y, n_m2, K, **kw):
    """Whiten the M2 of rows [:n_m2], estimate the whitened M3 of the rest, then mlr_fit."""
    W, P = whitening_from_m2(estimate_m2(X[:n_m2], y[:n_m2]), K)
    return mlr_fit(estimate_whitened_m3(X[n_m2:], y[n_m2:], W), P, K, **kw)


def sample_mlr(rng, betas, weights, n, noise=0.0):
    """Draw from the mixture y = <beta_k, x> + eta with isotropic Gaussian x."""
    betas = np.asarray(betas, dtype=float)
    d = betas.shape[1]
    labels = rng.choice(len(weights), size=n, p=weights)
    X = rng.normal(size=(n, d))
    y = np.einsum("ij,ij->i", X, betas[labels])
    if noise:
        y = y + noise * rng.normal(size=n)
    return X, y


def exact_moments(betas, weights):
    betas = np.asarray(betas, dtype=float)
    M2 = (betas.T * weights) @ betas
    M3 = sum(w * outer3(b) for w, b in zip(weights, betas))
    return M2, symmetrize(M3)


def identity_whitening(d):
    return np.eye(d), np.eye(d)


def test_estimate_m2_single_sample():
    M2 = estimate_m2(np.array([[1.0, 0.0]]), np.array([1.0]))
    assert np.allclose(M2, np.diag([0.0, -0.5]), atol=1e-15)


def test_estimate_m2_zero_response():
    rng = np.random.default_rng(0)
    (X2, y2), _ = halves(rng.normal(size=(10, 3)), np.zeros(10))
    assert np.array_equal(estimate_m2(X2, y2), np.zeros((3, 3)))


def test_estimate_m2_is_symmetric():
    rng = np.random.default_rng(1)
    (X2, y2), _ = halves(rng.normal(size=(50, 4)), rng.normal(size=50))
    M2 = estimate_m2(X2, y2)
    assert np.array_equal(M2, M2.T)


def test_estimate_m2_monte_carlo_unbiased():
    rng = np.random.default_rng(2)
    beta = np.array([1.0, 0.0])
    X, y = sample_mlr(rng, [beta], [1.0], 2_000_000)
    (X2, y2), _ = halves(X, y)  # first half feeds M2
    M2 = estimate_m2(X2, y2)
    assert np.linalg.norm(M2 - np.outer(beta, beta), 2) < 0.02


def test_whitening_identity_input():
    W, _ = whitening_from_m2(np.eye(3), 3)
    assert np.allclose(W.T @ np.eye(3) @ W, np.eye(3), atol=1e-12)
    assert np.allclose(W @ W.T, np.eye(3), atol=1e-12)


def test_whitening_scalar():
    W, P = whitening_from_m2(np.array([[4.0]]), 1)
    assert W[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert P[0, 0] == pytest.approx(2.0, abs=1e-15)


def test_whitening_orthonormalizes_components():
    rng = np.random.default_rng(3)
    for trial in range(10):
        d, K = 7, 3
        betas = rng.normal(size=(K, d))
        weights = rng.dirichlet(np.ones(K)) * 0.8 + 0.2 / K
        weights = weights / weights.sum()
        M2, _ = exact_moments(betas, weights)
        W, _ = whitening_from_m2(M2, K)
        Z = np.column_stack([np.sqrt(w) * (W.T @ b) for w, b in zip(weights, betas)])
        assert np.allclose(Z.T @ Z, np.eye(K), atol=1e-10), f"trial {trial}"


def test_whitening_identity_invariant_on_noisy_input():
    # indefinite symmetric input: the invariant must still hold for the top-K part
    rng = np.random.default_rng(4)
    for trial in range(10):
        d, K = 6, 3
        betas = rng.normal(size=(K, d))
        M2, _ = exact_moments(betas, np.full(K, 1.0 / K))
        noise = rng.normal(size=(d, d)) * 0.01
        M2n = M2 + (noise + noise.T) / 2.0
        W, _ = whitening_from_m2(M2n, K)
        assert np.allclose(W.T @ M2n @ W, np.eye(K), atol=1e-8)


def test_whitening_degenerate_raises_with_sigma():
    beta = np.array([1.0, 0.0, 0.0])
    M2 = np.outer(beta, beta)
    with pytest.raises(DegenerateMixtureError) as exc:
        whitening_from_m2(M2, 2)
    assert exc.value.sigma <= 1e-10
    assert "sigma_2" in str(exc.value)


def test_whitening_pinv_consistency():
    rng = np.random.default_rng(5)
    betas = rng.normal(size=(3, 7))
    weights = np.array([0.5, 0.3, 0.2])
    M2, _ = exact_moments(betas, weights)
    W, P = whitening_from_m2(M2, 3)
    # pinv of W' recovers each beta from its whitened image
    for w, b in zip(weights, betas):
        z = np.sqrt(w) * (W.T @ b)
        back = (P @ z) / np.sqrt(w)
        assert np.allclose(back, b, atol=1e-10)
    assert np.allclose(np.linalg.pinv(W.T), P, atol=1e-12)


def test_whitened_m3_zero_response():
    rng = np.random.default_rng(6)
    _, (X3, y3) = halves(rng.normal(size=(8, 2)), np.zeros(8))
    W, _ = identity_whitening(2)
    t = estimate_whitened_m3(X3, y3, W)
    assert np.array_equal(t, np.zeros((2, 2, 2)))


def test_whitened_m3_hand_expansion():
    # one sample with y^3 = 6 makes the prefactor 1: tensor = e1^x3 - E(e1)
    y3 = 6.0 ** (1.0 / 3.0)
    W, _ = identity_whitening(2)
    t = estimate_whitened_m3(np.array([[1.0, 0.0]]), np.array([y3]), W)
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = 1.0 - 3.0
    for idx in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
        expected[idx] = -1.0
    assert np.allclose(t, expected, atol=1e-12)


def test_whitened_m3_monte_carlo_unbiased():
    rng = np.random.default_rng(7)
    beta = np.array([2.0, -1.0])
    M2, _ = exact_moments([beta], [1.0])
    W, _ = whitening_from_m2(M2, 1)
    X, y = sample_mlr(rng, [beta], [1.0], 2_000_000)
    t = estimate_whitened_m3(X[1:], y[1:], W)  # every sample but the first feeds M3
    target = (W.T @ beta) ** 3  # scalar whitened space
    assert abs(t[0, 0, 0] - target[0]) < 0.05


def test_moment_errors_shrink_like_root_n():
    # averaged error ratio between N and 4N samples should sit near 2
    rng = np.random.default_rng(8)
    betas = np.array([[1.0, 0.5, 0.0], [-0.5, 1.0, 0.5]])
    weights = np.array([0.6, 0.4])
    M2, M3 = exact_moments(betas, weights)
    W, _ = whitening_from_m2(M2, 2)
    target = change_basis3(M3, W)
    r2, r3 = [], []
    for seed in range(20):
        errs2, errs3 = [], []
        for n in (2000, 8000):
            srng = np.random.default_rng((seed + 1, n))
            X, y = sample_mlr(srng, betas, weights, n)
            (X2, y2), (X3, y3) = halves(X, y)
            errs2.append(np.linalg.norm(estimate_m2(X2, y2) - M2, 2))
            diff = estimate_whitened_m3(X3, y3, W) - target
            errs3.append(op_norm_estimate(symmetrize(diff),
                                          n_restarts=20, n_iters=50, seed=seed))
        r2.append(errs2[0] / errs2[1])
        r3.append(errs3[0] / errs3[1])
    assert 1.5 <= np.mean(r2) <= 2.7
    assert 1.5 <= np.mean(r3) <= 2.7


def test_fit_from_exact_moments_two_components():
    betas = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    weights = np.array([0.7, 0.3])
    M2, M3 = exact_moments(betas, weights)
    est = fit_from_moments(M2, M3, 2, seed=0)
    order = np.argsort(-est.weights)
    assert np.allclose(est.weights[order], weights, atol=1e-6)
    assert np.allclose(est.coeffs[order], betas, atol=1e-6)


def test_fit_from_exact_moments_random_instances():
    rng = np.random.default_rng(9)
    for trial in range(10):
        K = int(rng.integers(2, 5))
        d = int(rng.integers(K, 9))
        betas = rng.normal(size=(K, d))
        weights = rng.dirichlet(np.ones(K))
        weights = 0.1 + 0.9 * weights  # keep p_min healthy
        weights /= weights.sum()
        M2, M3 = exact_moments(betas, weights)
        est = fit_from_moments(M2, M3, K, seed=trial)
        # brute-force match by nearest coefficient
        used = set()
        for k in range(K):
            dists = np.linalg.norm(est.coeffs - betas[k], axis=1)
            j = int(np.argmin(dists))
            assert dists[j] < 1e-6, f"trial {trial}"
            assert abs(est.weights[j] - weights[k]) < 1e-6
            assert j not in used
            used.add(j)


def test_dewhitening_exactness_algebra():
    # ptilde = 1/sqrt(p) and pinv(W') undoes the whitening map exactly
    rng = np.random.default_rng(10)
    betas = rng.normal(size=(3, 6))
    weights = np.array([0.5, 0.25, 0.25])
    M2, _ = exact_moments(betas, weights)
    W, P = whitening_from_m2(M2, 3)
    for w, b in zip(weights, betas):
        z = np.sqrt(w) * (W.T @ b)  # unit-norm whitened factor
        assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-10)
        recovered = (1.0 / np.sqrt(w)) * (P @ z)
        assert np.allclose(recovered, b, atol=1e-10)


def test_mlr_fit_single_component_monte_carlo():
    rng = np.random.default_rng(11)
    beta = np.array([1.0, -2.0, 0.5])
    X, y = sample_mlr(rng, [beta], [1.0], 100_000)
    est = fit_halves(X, y, 50_000, 1, seed=0)
    assert est.K == 1
    assert np.linalg.norm(est.coeffs[0] - beta) < 0.05
    assert abs(est.weights[0] - 1.0) < 0.05


def test_fit_degenerate_duplicate_component():
    # beta2 = beta1 collapses M2 to rank one, so asking for K=2 must fail
    beta = np.array([1.0, 1.0, 0.0])
    M2, M3 = exact_moments([beta, beta], [0.5, 0.5])
    with pytest.raises(DegenerateMixtureError):
        fit_from_moments(M2, M3, 2, seed=0)


def test_mlr_fit_propagates_degeneracy():
    # covariates confined to one direction give an exactly rank-deficient M2
    X = np.tile(np.array([[1.0, 0.0, 0.0]]), (6, 1))
    y = np.full(6, 1.0)
    with pytest.raises(DegenerateMixtureError):
        fit_halves(X, y, 3, 2, seed=0)


def test_mlr_fit_deterministic():
    rng = np.random.default_rng(13)
    betas = np.array([[1.0, 0.0], [0.0, 1.0]])
    X, y = sample_mlr(rng, betas, [0.5, 0.5], 5000)
    a = fit_halves(X, y, 2500, 2, seed=4)
    b = fit_halves(X, y, 2500, 2, seed=4)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.coeffs, b.coeffs)


def test_mixture_estimate_validation():
    with pytest.raises(ValueError):
        MixtureEstimate(np.array([0.5, 0.0]), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        MixtureEstimate(np.array([0.5, np.nan]), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        MixtureEstimate(np.array([0.5, 0.5]), np.array([[0.0, np.inf, 0.0], [0.0, 0.0, 0.0]]))
    est = MixtureEstimate(np.array([0.5, 0.5]), np.zeros((2, 3)))
    assert est.K == 2 and est.dim == 3


def test_refine_fixed_point():
    rng = np.random.default_rng(14)
    betas = np.array([[1.0, 0.0], [0.0, 1.0]])
    weights = np.array([0.6, 0.4])
    # build data whose first moment is exactly sum p_k beta_k
    n = 200_000
    X, y = sample_mlr(rng, betas, weights, n)
    est = MixtureEstimate(weights, betas)
    out = refine_first_moment(est, X.T @ y / len(y))
    assert np.allclose(out.weights, weights, atol=0.02)
    assert out.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_refine_separable_oracle():
    # m1 = (0.7, 0.3) with unit basis coefficients decouples the solve
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    # y chosen so X'y/N = (0.7, 0.3): y = (1.4, 0.6) over N=2
    y = np.array([1.4, 0.6])
    est = MixtureEstimate(np.array([0.5, 0.5]), np.array([[1.0, 0.0], [0.0, 1.0]]))
    out = refine_first_moment(est, X.T @ y / len(y))
    assert np.allclose(out.weights, [0.7, 0.3], atol=1e-10)
    assert np.array_equal(out.coeffs, est.coeffs)


def test_refine_matches_nullspace_oracle():
    # constrained LS solved independently by eliminating the constraint
    rng = np.random.default_rng(15)
    for trial in range(10):
        K, d = 3, 5
        B = rng.normal(size=(K, d))
        X = rng.normal(size=(50, d))
        y = rng.normal(size=50)
        m1 = X.T @ y / len(y)
        # parametrize p = p0 + Z q with p0 = (1,0,..,0), Z spanning sum-zero space
        Z = np.vstack([np.ones((1, K - 1)) * -1.0, np.eye(K - 1)])
        p0 = np.zeros(K)
        p0[0] = 1.0
        A = B.T
        q, *_ = np.linalg.lstsq(A @ Z, m1 - A @ p0, rcond=None)
        p_oracle = p0 + Z @ q
        est = MixtureEstimate(np.full(K, 1.0 / K), B)
        out = refine_first_moment(est, m1)
        res_out = np.linalg.norm(B.T @ out.weights - m1)
        res_oracle = np.linalg.norm(B.T @ p_oracle - m1)
        if (p_oracle >= 1e-6).all():
            # no clamping: must match the constrained optimum
            assert res_out <= res_oracle + 1e-9, f"trial {trial}"
        assert out.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert (out.weights > 0).all()


def test_refine_rank_deficient_returns_unchanged():
    X = np.eye(2)
    y = np.ones(2)
    B = np.array([[1.0, 0.0], [1.0, 0.0]])  # duplicate rows
    est = MixtureEstimate(np.array([0.5, 0.5]), B)
    out = refine_first_moment(est, X.T @ y / len(y))
    assert np.array_equal(out.weights, est.weights)
    assert any("rank" in w for w in out.warnings)


def test_refine_weight_sum_property():
    rng = np.random.default_rng(16)
    for trial in range(20):
        K = int(rng.integers(2, 5))
        d = K + int(rng.integers(0, 3))
        B = rng.normal(size=(K, d))
        X = rng.normal(size=(40, d))
        y = rng.normal(size=40)
        est = MixtureEstimate(rng.uniform(0.2, 1.0, size=K), B)
        out = refine_first_moment(est, X.T @ y / len(y))
        assert out.weights.sum() == pytest.approx(1.0, abs=1e-12)
