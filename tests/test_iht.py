import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import assert_same_report

from mmvsolve import (
    IhtConfig,
    InvalidArgumentError,
    MeasurementMatrix,
    MmvProblem,
    ProblemSpec,
    gen_instance,
    hard_threshold_rows,
    iht_solve,
    music_support,
    spectral_norm,
)
from mmvsolve import iht


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


@pytest.mark.parametrize("value", [2.5, 0, -3, float("nan"), float("inf"), "5", None])
def test_config_rejects_a_non_integer_iteration_cap(value):
    with pytest.raises(InvalidArgumentError, match=f"max_iters .*got {value!r}"):
        IhtConfig(k=2, max_iters=value)


def test_integral_float_caps_solve_as_their_ints():
    problem = gen_instance(ProblemSpec(n=8, N=16, L=2, k=2, rank=2, seed=4)).problem
    cfg = IhtConfig(k=2.0, max_iters=3.0)
    assert (type(cfg.k), type(cfg.max_iters)) == (int, int)
    assert_same_report(iht_solve(problem, cfg), iht_solve(problem, IhtConfig(k=2, max_iters=3)))


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


def reference_normalized_step(phi, alpha, grad, support, k):
    """The adaptive proposal with supports compared as SupportSets."""
    rows = support.as_array()
    grad_on = np.zeros_like(grad)
    grad_on[rows] = grad[rows]
    denom = float(np.linalg.norm(phi @ grad_on)) ** 2
    mu = (float(np.linalg.norm(grad_on)) ** 2 / denom) if denom > 0 else 1.0
    candidate, cand_support = hard_threshold_rows(alpha + mu * grad, k)
    for _ in range(100):
        if cand_support == support:
            break
        diff = candidate - alpha
        diff_denom = float(np.linalg.norm(phi @ diff)) ** 2
        if diff_denom == 0 or mu <= (1.0 - iht._ADAPTIVE_C) * float(
            np.linalg.norm(diff)
        ) ** 2 / diff_denom:
            break
        mu *= 0.5
        candidate, cand_support = hard_threshold_rows(alpha + mu * grad, k)
    return candidate, cand_support


def reference_iht(problem, cfg):
    """The documented iteration in its plain form: the public
    hard_threshold_rows on every step and the dense residual B - phi alpha.
    Returns the coefficients, the last support and the iteration count."""
    phi, B, k = problem.phi, problem.B, cfg.k
    A = problem.A
    op_norm = math.sqrt(A.row_gram_scale) if A.row_orthonormal else spectral_norm(phi)
    step = 0.98 / op_norm**2 if cfg.step is None else cfg.step
    music = music_support(problem, k)
    if 0 < music.rank < problem.n:
        support = music.support
        rows = support.as_array()
        alpha = np.zeros((problem.N, problem.L))
        alpha[rows] = np.linalg.lstsq(phi[:, rows], B, rcond=None)[0]
    else:
        init_step = 1.0 / op_norm**2 if cfg.adaptive_step else step
        alpha, support = hard_threshold_rows(init_step * (phi.T @ B), k)
    resid = B - phi @ alpha
    for iterations in range(1, cfg.max_iters + 1):
        grad = phi.T @ resid
        if cfg.adaptive_step:
            new_alpha, support = reference_normalized_step(phi, alpha, grad, support, k)
        else:
            new_alpha, support = hard_threshold_rows(alpha + step * grad, k)
        change = float(np.linalg.norm(new_alpha - alpha)) / max(1.0, float(np.linalg.norm(alpha)))
        alpha = new_alpha
        resid = B - phi @ alpha
        if change < iht.STOP_TOL:
            break
    return alpha, support, iterations


def iht_cases(kind, adaptive, specs):
    for spec in specs:
        problem = gen_instance(replace(spec, matrix_kind=kind)).problem
        cfg = IhtConfig(k=spec.k, adaptive_step=adaptive, max_iters=300)
        yield iht_solve(problem, cfg), reference_iht(problem, cfg)


@pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
@pytest.mark.parametrize("kind", ["row-orthonormal-gaussian", "gaussian"])
def test_iht_solve_is_its_plain_reference_bit_for_bit(kind, adaptive):
    # the benchmark's 128 x 512 x 8 family, where BLAS sums the residual on
    # the k kept columns in the order of the dense product
    specs = [
        ProblemSpec(n=128, N=512, L=8, k=20, rank=8, noise_sigma=1e-3, seed=s) for s in (0, 3)
    ]
    iterations = 0
    for report, (alpha, support, count) in iht_cases(kind, adaptive, specs):
        assert np.array_equal(report.estimate, alpha)
        assert report.detected_support == support
        assert report.inner_iterations == count
        iterations += count
    assert iterations > len(specs)


@pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
@pytest.mark.parametrize("kind", ["row-orthonormal-gaussian", "gaussian"])
def test_iht_solve_is_its_plain_reference_up_to_round_off_on_small_shapes(kind, adaptive):
    # at these shapes BLAS groups the sum over the k kept columns unlike the
    # dense product, so the residual and the iterates differ in the last
    # bits; rank = n = 4 takes the thresholded-correlation start
    specs = [ProblemSpec(n=24, N=64, L=3, k=6, rank=2, noise_sigma=1e-3, seed=s) for s in range(4)]
    specs += [ProblemSpec(n=4, N=10, L=4, k=4, rank=4, seed=s) for s in range(2)]
    for report, (alpha, support, count) in iht_cases(kind, adaptive, specs):
        assert np.abs(report.estimate - alpha).max() <= 1e-13 * np.abs(alpha).max()
        assert report.detected_support == support
        assert report.inner_iterations == count


def test_fixed_step_thresholds_once_per_iteration(monkeypatch):
    calls = []

    def counting(X, k):
        calls.append(k)
        return hard_threshold_rows(X, k)

    monkeypatch.setattr(iht, "hard_threshold_rows", counting)
    inst = gen_instance(
        ProblemSpec(n=24, N=64, L=3, k=6, rank=2, noise_sigma=1e-3, matrix_kind="gaussian", seed=3)
    )
    assert 0 < music_support(inst.problem, 6).rank < 24  # the start does not threshold
    report = iht_solve(inst.problem, IhtConfig(k=6))
    assert report.inner_iterations > 10
    assert len(calls) == report.inner_iterations
