import numpy as np
import pytest

from mmvsolve import (
    InvalidArgumentError,
    SmoothingConfig,
    SupportSet,
    mixed_norm,
    smoothed_gradient,
    smoothed_objective,
)


def fd_gradient(alpha, cfg, h=1e-6):
    """Central finite differences of the objective, entry by entry."""
    g = np.zeros_like(alpha)
    for i in range(alpha.shape[0]):
        for j in range(alpha.shape[1]):
            step = h * max(1.0, abs(alpha[i, j]))
            up = alpha.copy()
            up[i, j] += step
            dn = alpha.copy()
            dn[i, j] -= step
            g[i, j] = (smoothed_objective(up, cfg) - smoothed_objective(dn, cfg)) / (2 * step)
    return g


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        SmoothingConfig(mu=0.0)
    cfg = SmoothingConfig(known_support=[3, 1])
    assert tuple(cfg.known_support) == (1, 3)


def test_objective_single_row_value():
    cfg = SmoothingConfig(mu=1.0)
    assert smoothed_objective([[3.0, 4.0]], cfg) == pytest.approx(4.5)
    # independent check: maximize <u, alpha> - (mu/2)||u||^2 over the unit
    # ball; by symmetry u = t * alpha/||alpha||, scan t on a fine grid
    ts = np.linspace(0.0, 1.0, 200001)
    vals = ts * 5.0 - 0.5 * ts * ts
    assert vals.max() == pytest.approx(4.5, abs=1e-9)


def test_objective_zero_matrix_and_masked_row():
    assert smoothed_objective(np.zeros((3, 2)), SmoothingConfig(mu=0.5)) == 0.0
    masked = SmoothingConfig(mu=0.7, known_support=SupportSet((0,)))
    assert smoothed_objective([[3.0, 4.0]], masked) == 0.0
    assert np.array_equal(smoothed_gradient([[3.0, 4.0]], masked), [[0.0, 0.0]])


def test_gradient_frozen_examples():
    cfg = SmoothingConfig(mu=1.0)
    assert np.allclose(smoothed_gradient([[3.0, 4.0]], cfg), [[0.6, 0.8]])
    assert np.allclose(smoothed_gradient([[0.3, 0.4]], cfg), [[0.3, 0.4]])


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(101)
    for trial in range(12):
        N = int(rng.integers(2, 31))
        L = int(rng.integers(1, 6))
        mu = float(rng.choice([1.0, 0.1, 0.01]))
        support = SupportSet.from_indices(
            rng.choice(N, size=int(rng.integers(0, N // 2 + 1)), replace=False)
        )
        cfg = SmoothingConfig(mu=mu, known_support=support)
        alpha = rng.standard_normal((N, L))
        g = smoothed_gradient(alpha, cfg)
        fd = fd_gradient(alpha, cfg)
        err = np.abs(g - fd)
        ok = (err < 1e-8) | (err / np.maximum(np.abs(fd), 1e-300) < 1e-5)
        assert ok.all(), f"trial {trial}: max err {err.max()}"


def test_gradient_row_norms_bounded_by_one():
    rng = np.random.default_rng(5)
    cfg = SmoothingConfig(mu=0.05)
    alpha = rng.standard_normal((20, 4)) * 3
    g = smoothed_gradient(alpha, cfg)
    assert np.sqrt((g * g).sum(axis=1)).max() <= 1.0 + 1e-12


def test_smoothing_sandwich_bound():
    rng = np.random.default_rng(77)
    for _ in range(10):
        N, L = int(rng.integers(1, 12)), int(rng.integers(1, 5))
        mu = float(rng.uniform(0.01, 2.0))
        T = SupportSet.from_indices(rng.choice(N, size=int(rng.integers(0, N)), replace=False))
        cfg = SmoothingConfig(mu=mu, known_support=T)
        alpha = rng.standard_normal((N, L))
        free = ~T.mask(N)
        restricted = alpha[free]
        if restricted.size == 0:
            continue
        exact = mixed_norm(restricted, 1, 2)
        smooth = smoothed_objective(alpha, cfg)
        assert smooth <= exact + 1e-12
        assert exact <= smooth + mu * free.sum() / 2 + 1e-12


def test_gradient_lipschitz_bound():
    rng = np.random.default_rng(13)
    for _ in range(20):
        mu = float(rng.uniform(0.01, 1.0))
        cfg = SmoothingConfig(mu=mu)
        a = rng.standard_normal((8, 3))
        b = rng.standard_normal((8, 3))
        lhs = np.linalg.norm(smoothed_gradient(a, cfg) - smoothed_gradient(b, cfg))
        assert lhs <= (1.0 / mu) * np.linalg.norm(a - b) + 1e-10


def test_convexity_along_segments():
    rng = np.random.default_rng(29)
    cfg = SmoothingConfig(mu=0.3)
    for _ in range(20):
        a = rng.standard_normal((6, 2))
        b = rng.standard_normal((6, 2))
        t = float(rng.uniform())
        mix = smoothed_objective(t * a + (1 - t) * b, cfg)
        bound = t * smoothed_objective(a, cfg) + (1 - t) * smoothed_objective(b, cfg)
        assert mix <= bound + 1e-12


def test_objective_converges_to_mixed_norm_as_mu_shrinks():
    alpha = np.array([[2.0, -1.0], [0.0, 0.0], [0.5, 0.5]])
    exact = mixed_norm(alpha, 1, 2)
    vals = [
        smoothed_objective(alpha, SmoothingConfig(mu=mu)) for mu in (1e-2, 1e-4, 1e-6)
    ]
    assert abs(vals[-1] - exact) < 1e-5
    assert abs(vals[0] - exact) > abs(vals[-1] - exact)
