import itertools

import numpy as np
import pytest

from mmvsolve import (
    IhtConfig,
    InvalidArgumentError,
    MeasurementMatrix,
    MmvProblem,
    ProblemSpec,
    gen_instance,
    hard_threshold_rows,
    iht_solve,
    spectral_norm,
)


def exhaustive_best_support(A, B, k):
    """Least-squares fit over every k-row support; the independent oracle."""
    best, best_res = None, np.inf
    for S in itertools.combinations(range(A.shape[1]), k):
        sol, _, _, _ = np.linalg.lstsq(A[:, list(S)], B, rcond=None)
        res = np.linalg.norm(B - A[:, list(S)] @ sol)
        if res < best_res:
            best_res, best = res, S
    return best


def test_spectral_norm_against_svd():
    rng = np.random.default_rng(8)
    for _ in range(10):
        M = rng.standard_normal((int(rng.integers(2, 9)), int(rng.integers(2, 12))))
        assert spectral_norm(M) == pytest.approx(np.linalg.norm(M, 2), rel=1e-8)
    assert spectral_norm(np.zeros((3, 4))) == 0.0


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        IhtConfig(k=0)
    with pytest.raises(InvalidArgumentError):
        IhtConfig(k=2, step=-1.0)


@pytest.mark.parametrize("step", [float("nan"), float("inf")])
def test_config_rejects_non_finite_step(step):
    with pytest.raises(InvalidArgumentError, match=f"step .*got {step!r}"):
        IhtConfig(k=2, step=step)


def test_rejects_unstable_step():
    inst = gen_instance(ProblemSpec(n=6, N=12, L=2, k=2, rank=2, seed=0))
    # row-orthonormal operator has unit spectral norm; step 2 is unstable
    with pytest.raises(InvalidArgumentError):
        iht_solve(inst.problem, IhtConfig(k=2, step=2.0))


def test_orthonormal_columns_recover_in_one_iteration():
    rng = np.random.default_rng(21)
    raw = rng.standard_normal((12, 5))
    Q, _ = np.linalg.qr(raw)  # 12 x 5, orthonormal columns
    X = np.zeros((5, 2))
    X[[1, 3]] = rng.standard_normal((2, 2))
    with pytest.warns(UserWarning):  # operator is overdetermined
        A = MeasurementMatrix.from_entries(Q)
    problem = MmvProblem(A=A, B=Q @ X, epsilon=0.0)
    report = iht_solve(problem, IhtConfig(k=2, step=1.0))
    assert report.inner_iterations == 1
    assert report.restarts == 0  # no momentum to restart
    assert np.allclose(report.estimate, X, atol=1e-12)
    assert tuple(report.detected_support) == (1, 3)


def test_zero_data_returns_zero():
    A = MeasurementMatrix.from_entries(np.eye(8)[:4])
    problem = MmvProblem(A=A, B=np.zeros((4, 3)), epsilon=0.0)
    report = iht_solve(problem, IhtConfig(k=2))
    assert np.array_equal(report.estimate, np.zeros((8, 3)))
    assert report.inner_iterations == 1


def test_residual_monotone_with_contractive_step():
    for seed in range(25):
        inst = gen_instance(
            ProblemSpec(n=10, N=20, L=3, k=3, rank=2, matrix_kind="gaussian", seed=seed)
        )
        report = iht_solve(inst.problem, IhtConfig(k=3))
        trace = report.objective_trace
        assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1))


def test_output_is_k_row_sparse_and_fixed_point():
    inst = gen_instance(ProblemSpec(n=10, N=20, L=3, k=3, rank=2, seed=5))
    cfg = IhtConfig(k=3)
    report = iht_solve(inst.problem, cfg)
    alpha = report.estimate
    nonzero_rows = int((np.abs(alpha).max(axis=1) > 0).sum())
    assert nonzero_rows <= 3
    # fixed-point identity at termination
    phi = inst.problem.A.entries
    step = 0.98 / spectral_norm(phi) ** 2
    again, _ = hard_threshold_rows(alpha + step * (phi.T @ (inst.problem.B - phi @ alpha)), 3)
    assert np.allclose(again, alpha, atol=1e-7 * max(1.0, np.linalg.norm(alpha)))


def test_scale_consistency_identity():
    inst = gen_instance(
        ProblemSpec(n=8, N=16, L=2, k=2, rank=2, matrix_kind="gaussian", seed=12)
    )
    phi = inst.problem.A.entries
    B = inst.problem.B
    base_step = 0.5 / spectral_norm(phi) ** 2
    base = iht_solve(inst.problem, IhtConfig(k=2, step=base_step, max_iters=200))
    for c in (2.0, 3.0):
        scaled_problem = MmvProblem(
            A=MeasurementMatrix.from_entries(c * phi), B=c * B, epsilon=0.0
        )
        scaled = iht_solve(
            scaled_problem, IhtConfig(k=2, step=base_step / c**2, max_iters=200)
        )
        assert scaled.inner_iterations == base.inner_iterations
        assert np.abs(scaled.estimate - base.estimate).max() <= 1e-12
        assert scaled.detected_support == base.detected_support


def test_support_matches_exhaustive_oracle_often():
    # rank(B) = k here, so the MUSIC start already holds the true support
    # and the adaptive step keeps it: 20/20 seeds match the oracle
    wins = 0
    for seed in range(20):
        inst = gen_instance(ProblemSpec(n=8, N=16, L=3, k=2, rank=2, seed=seed))
        report = iht_solve(inst.problem, IhtConfig(k=2, adaptive_step=True, max_iters=5000))
        oracle = exhaustive_best_support(inst.problem.A.entries, inst.problem.B, 2)
        wins += tuple(report.detected_support) == oracle
    assert wins >= 12


def test_adaptive_step_converges_cleanly_at_larger_size():
    inst = gen_instance(ProblemSpec(n=32, N=64, L=3, k=8, rank=3, seed=2))
    report = iht_solve(inst.problem, IhtConfig(k=8, adaptive_step=True))
    assert report.detected_support == inst.support_true
    rel = np.linalg.norm(report.estimate - inst.X_true) / np.linalg.norm(inst.X_true)
    assert rel < 1e-6
