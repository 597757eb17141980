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


@pytest.mark.parametrize("value", [2.5, 0, -3, float("nan"), float("inf"), "5", None])
def test_config_rejects_a_non_integer_iteration_cap(value):
    with pytest.raises(InvalidArgumentError, match=f"max_iters .*got {value!r}"):
        IhtConfig(k=2, max_iters=value)


def test_integral_float_caps_solve_as_their_ints():
    problem = gen_instance(ProblemSpec(n=8, N=16, L=2, k=2, rank=2, seed=4)).problem
    cfg = IhtConfig(k=2.0, max_iters=3.0)
    assert (type(cfg.k), type(cfg.max_iters)) == (int, int)
    assert_same_report(iht_solve(problem, cfg), iht_solve(problem, IhtConfig(k=2, max_iters=3)))


def test_orthonormal_columns_recover_in_one_iteration():
    rng = np.random.default_rng(21)
    raw = rng.standard_normal((12, 5))
    Q, _ = np.linalg.qr(raw)  # 12 x 5, orthonormal columns
    X = np.zeros((5, 2))
    X[[1, 3]] = rng.standard_normal((2, 2))
    with pytest.warns(UserWarning):  # operator is overdetermined
        A = MeasurementMatrix.from_entries(Q)
    problem = MmvProblem(A=A, B=Q @ X, epsilon=0.0)
    report = iht_solve(problem, IhtConfig(k=2))
    assert report.inner_iterations == 0  # the MUSIC start is certified
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


SCALE_SPECS = [
    ProblemSpec(n=128, N=512, L=8, k=20, rank=8, noise_sigma=1e-3, seed=s) for s in range(4)
] + [ProblemSpec(n=24, N=64, L=3, k=6, rank=2, noise_sigma=1e-3, seed=s) for s in range(4)]


def test_scale_consistency_identity():
    # the fixed step scales with 1 / ||phi||_2^2, so the scaled problem
    # (c phi, c B) takes the same iterates up to round-off
    for kind, spec in itertools.product(["row-orthonormal-gaussian", "gaussian"], SCALE_SPECS):
        problem = gen_instance(replace(spec, matrix_kind=kind)).problem
        base = iht_solve(problem, IhtConfig(k=spec.k))
        for c in (1e-3, 1e3):
            scaled_problem = MmvProblem(
                A=MeasurementMatrix.from_entries(c * problem.phi), B=c * problem.B, epsilon=0.0
            )
            assert scaled_problem.A.row_orthonormal == problem.A.row_orthonormal
            scaled = iht_solve(scaled_problem, IhtConfig(k=spec.k))
            assert scaled.detected_support == base.detected_support
            assert scaled.inner_iterations == base.inner_iterations
            error = np.abs(scaled.estimate - base.estimate).max()
            assert error <= 1e-14 * np.abs(base.estimate).max()


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


def reference_certified_fit(phi, B, alpha, support, step):
    """The certified least-squares finish in its plain form: the fit on the
    support, or None unless every off-support bound is below every kept one."""
    S = list(support)
    off = [j for j in range(phi.shape[1]) if j not in S]
    coef, _, rank, _ = np.linalg.lstsq(phi[:, S], B, rcond=None)
    if rank < len(S) or step * np.linalg.norm(phi[:, S], 2) ** 2 >= 2.0:
        return None
    fit = np.zeros_like(alpha)
    fit[S] = coef
    grad = phi.T @ (B - phi @ fit)
    e = np.linalg.norm(alpha - fit)
    off_bound = max(
        step * (np.linalg.norm(grad[j]) + np.linalg.norm(phi[:, j] @ phi[:, S]) * e) for j in off
    )
    kept = [np.linalg.norm(fit[i]) for i in S]
    if off_bound + iht._FINISH_MARGIN * max(kept) < min(kept) - e:
        return fit, grad
    return None


def reference_iht(problem, cfg):
    """The documented iteration in its plain form: the public
    hard_threshold_rows on every step and the dense residual B - phi alpha.
    With a fixed step, the certified least-squares finish is tried at a
    MUSIC start (at the step bound 0.98 / rho of 8 Lanczos steps when the
    operator is uncertified) and after every SETTLED_ITERS iterations that
    kept the same support. An accepted try takes one step
    from the fit, which is not counted, and stops.
    Returns the coefficients, the last support and the iteration count."""
    phi, B, k = problem.phi, problem.B, cfg.k
    A = problem.A
    op_norm = math.sqrt(A.row_gram_scale) if A.row_orthonormal else spectral_norm(phi)
    step = 0.98 / op_norm**2
    music = music_support(problem, k)
    if 0 < music.rank < problem.n:
        support = music.support
        rows = support.as_array()
        alpha = np.zeros((problem.N, problem.L))
        alpha[rows] = np.linalg.lstsq(phi[:, rows], B, rcond=None)[0]
        start_step = step
        if not A.row_orthonormal:
            start_step = 0.98 / spectral_norm(phi, 8, 0.0) ** 2
        fit = None
        if not cfg.adaptive_step:
            fit = reference_certified_fit(phi, B, alpha, support, start_step)
        if fit is not None:
            alpha, grad = fit
            return hard_threshold_rows(alpha + start_step * grad, k)[0], support, 0
    else:
        init_step = 1.0 / op_norm**2 if cfg.adaptive_step else step
        alpha, support = hard_threshold_rows(init_step * (phi.T @ B), k)
    resid = B - phi @ alpha
    settled = 0
    for iterations in range(1, cfg.max_iters + 1):
        grad = phi.T @ resid
        fit = None
        if cfg.adaptive_step:
            new_alpha, support = reference_normalized_step(phi, alpha, grad, support, k)
        else:
            if settled == iht.SETTLED_ITERS:
                settled = 0
                fit = reference_certified_fit(phi, B, alpha, support, step)
                if fit is not None:
                    alpha, grad = fit
            new_alpha, new_support = hard_threshold_rows(alpha + step * grad, k)
            settled = settled + 1 if new_support == support else 0
            support = new_support
        if fit is not None:
            return new_alpha, support, iterations - 1
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


@pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0)])
def test_spectral_norm_rejects_an_empty_matrix(shape):
    with pytest.raises(InvalidArgumentError, match="nonempty"):
        spectral_norm(np.zeros(shape))


@pytest.mark.parametrize(
    "M", [np.ones(3), 5.0, np.ones((2, 3, 4)), [[1.0, "a"]], [[1.0], [2.0, 3.0]], {"a": 1}]
)
def test_spectral_norm_rejects_what_is_no_2d_array_of_numbers(M):
    with pytest.raises(InvalidArgumentError, match="matrix must be a"):
        spectral_norm(M)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(3, 5), (5, 3)])
def test_spectral_norm_rejects_a_non_finite_entry(bad, shape):
    M = np.random.default_rng(2).standard_normal(shape)
    M[1, 2] = bad
    with pytest.raises(InvalidArgumentError, match="NaN or infinite"):
        spectral_norm(M)


def test_spectral_norm_restarts_off_a_null_space_start():
    # every row sums to zero, so the uniform start vector is in the null space
    phi = np.array(
        [[1, -1, 0, 0, 0, 0], [0, 0, 1, -1, 0, 0], [0, 0, 0, 0, 2, -2]], dtype=float
    )
    assert spectral_norm(phi) == pytest.approx(np.linalg.norm(phi, 2), rel=1e-8)
    rng = np.random.default_rng(17)
    for _ in range(10):
        M = rng.standard_normal((int(rng.integers(2, 9)), int(rng.integers(2, 12))))
        M -= M.mean(axis=1, keepdims=True)
        # 50 power steps resolve close top singular values to ~1e-7
        assert spectral_norm(M) == pytest.approx(np.linalg.norm(M, 2), rel=1e-6)


@pytest.mark.parametrize("shape", [(2, 3), (3, 2)], ids=["wide", "tall"])
def test_spectral_norm_restarts_when_scaled_columns_cancel_exactly(shape):
    # every column sums to 0, so |M^T v| = 0 lies outside (1e-50, 1e50) for
    # the uniform start v; after M is divided by its largest entry, x + (-x)
    # still cancels exactly, and only the restart off the largest column
    # finds the norm (rows that sum to 0 leave round-off there instead)
    M = np.array([[1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]])
    M = M if shape == (2, 3) else M.T
    assert spectral_norm(M) == pytest.approx(np.linalg.norm(M, 2), rel=1e-12)
    assert np.linalg.norm(M, 2) == pytest.approx(math.sqrt(28.0), rel=1e-15)


@pytest.mark.parametrize(
    "args, match",
    [
        ((0,), "max_iters must be a positive integer, got 0"),
        ((-3,), "max_iters must be a positive integer, got -3"),
        ((2.5,), "max_iters must be a positive integer, got 2.5"),
        ((math.nan,), "max_iters must be a positive integer, got nan"),
        (("8",), "max_iters must be a positive integer, got '8'"),
        ((8, math.nan), "tol must be finite and nonnegative, got nan"),
        ((8, -1.0), "tol must be finite and nonnegative, got -1.0"),
    ],
    ids=["cap-0", "cap-negative", "cap-2.5", "cap-nan", "cap-str", "tol-nan", "tol-negative"],
)
def test_spectral_norm_rejects_a_bad_step_cap_or_tolerance(args, match):
    M = np.random.default_rng(4).standard_normal((5, 9))
    with pytest.raises(InvalidArgumentError, match=match):
        spectral_norm(M, *args)


def spectral_norm_cases():
    # 50 power steps were 0.86% low on the first and up to 0.66% low on the
    # benchmark's iht_gaussian operators
    yield np.random.default_rng(6).standard_normal((64, 24))
    for seed in range(32):
        yield gen_instance(replace(POOL_SPEC, seed=seed)).problem.phi


def test_spectral_norm_is_accurate_and_never_above_the_norm():
    for M in spectral_norm_cases():
        exact = np.linalg.norm(M, 2)
        estimate = spectral_norm(M)
        assert abs(estimate - exact) <= 1e-8 * exact
        # above the norm, the default step would exceed 0.98 of the threshold
        assert estimate <= exact * (1 + 1e-12)


def test_spectral_norm_only_grows_with_more_lanczos_steps():
    # each estimate is a top Ritz value, below the norm up to round-off and
    # nondecreasing in the number of steps (up to round-off once converged)
    M = np.random.default_rng(6).standard_normal((64, 24))
    exact = np.linalg.norm(M, 2)
    estimates = [spectral_norm(M, max_iters=steps, tol=0.0) for steps in (1, 2, 4, 8, 16, 24)]
    assert all(b >= a * (1 - 1e-14) for a, b in zip(estimates, estimates[1:]))
    assert estimates[0] < estimates[2] < estimates[4]
    assert estimates[-1] <= exact * (1 + 1e-12)
    assert estimates[0] == pytest.approx(np.linalg.norm(M.mean(axis=1)) * math.sqrt(24))


@pytest.mark.parametrize("shape", [(4, 12), (12, 4)], ids=["wide", "tall"])
def test_spectral_norm_restarts_when_the_uniform_start_is_in_the_null_space(shape):
    # on the smaller side (4, so the uniform start is exactly 1/2 each) the
    # uniform vector is in the Gram matrix's null space: the integer columns
    # of a wide M sum to zero, the rows of a tall one; without the restart
    # the first product is exactly 0 and the estimate would be 0
    rng = np.random.default_rng(23)
    M = rng.integers(-3, 4, size=shape).astype(float)
    if shape[0] < shape[1]:
        M[-1] = -M[:-1].sum(axis=0)
    else:
        M[:, -1] = -M[:, :-1].sum(axis=1)
    v = np.full(4, 0.5)
    assert not np.any(v @ M if shape[0] < shape[1] else M @ v)
    assert spectral_norm(M) == pytest.approx(np.linalg.norm(M, 2), rel=1e-8)


def test_spectral_norm_follows_the_scale_of_the_operator():
    # Gram products of order ||M||^2 overflow or underflow at these scales
    M = np.random.default_rng(3).standard_normal((20, 50))
    base = spectral_norm(M)
    for c in (2.0**-700, 1e-200, 1e-60, 1e60, 1e200, 2.0**700):
        assert spectral_norm(c * M) / c == pytest.approx(base, rel=1e-12)


def scaled_problem(scale, operator=MeasurementMatrix.from_entries):
    rng = np.random.default_rng(0)
    phi = rng.standard_normal((20, 50))
    X = np.zeros((50, 2))
    X[[3, 9]] = rng.standard_normal((2, 2))
    A = operator(scale * phi)
    return MmvProblem(A=A, B=scale * (phi @ X), epsilon=0.0)


@pytest.mark.parametrize("scale", [1e-100, 1e100])
def test_fixed_step_solves_at_extreme_operator_scales(scale):
    base = iht_solve(scaled_problem(1.0), IhtConfig(k=2))
    report = iht_solve(scaled_problem(scale), IhtConfig(k=2))
    assert tuple(report.detected_support) == tuple(base.detected_support) == (3, 9)
    assert np.abs(report.estimate - base.estimate).max() <= 1e-8 * np.abs(base.estimate).max()


def test_fixed_step_rejects_an_operator_whose_squared_norm_underflows():
    with pytest.raises(InvalidArgumentError, match="out of range"):
        iht_solve(scaled_problem(1e-200), IhtConfig(k=2))


def scaled_music_problem(scale):
    # MeasurementMatrix skips the certificate, whose Gram product overflows
    return scaled_problem(scale, MeasurementMatrix)


def scaled_rank_n_problem(scale):
    # rank = n = 4: MUSIC tells no columns apart, so the start thresholds
    # the correlation at a step of 1 (adaptive) or 0.98 over ||phi||_2^2
    problem = gen_instance(
        ProblemSpec(n=4, N=10, L=4, k=4, rank=4, matrix_kind="gaussian", seed=0)
    ).problem
    return MmvProblem(A=MeasurementMatrix(scale * problem.phi), B=scale * problem.B, epsilon=0.0)


# at 1e-156 ||phi||_2^2 is subnormal and a step over it overflows to inf;
# at 1e160 and 1e200 the square itself overflows
@pytest.mark.parametrize("scale", [1e-156, 1e160, 1e200])
@pytest.mark.parametrize(
    "make, k", [(scaled_music_problem, 2), (scaled_rank_n_problem, 4)], ids=["music", "rank-n"]
)
def test_fixed_step_rejects_an_operator_whose_squared_norm_is_out_of_range(make, k, scale):
    # the check comes before MUSIC, whose scores would warn at these scales
    problem = make(1.0)
    assert (0 < music_support(problem, k).rank < problem.n) == (make is scaled_music_problem)
    with pytest.raises(InvalidArgumentError, match="out of range: its square bounds the step"):
        iht_solve(make(scale), IhtConfig(k=k))


# the adaptive rule runs MUSIC first, which warns of column norms that underflow
@pytest.mark.filterwarnings("ignore:.*zero dictionary column:UserWarning")
@pytest.mark.parametrize("scale", [1e-200, 1e-156])
def test_adaptive_start_rejects_an_operator_whose_squared_norm_is_out_of_range(scale):
    with pytest.raises(InvalidArgumentError, match="out of range: its square bounds the step"):
        iht_solve(scaled_rank_n_problem(scale), IhtConfig(k=4, adaptive_step=True))


def test_iht_solves_on_a_row_centred_operator():
    rng = np.random.default_rng(5)
    phi = rng.standard_normal((16, 32))
    phi -= phi.mean(axis=1, keepdims=True)
    X = np.zeros((32, 2))
    X[[3, 17, 25]] = rng.standard_normal((3, 2))
    problem = MmvProblem(A=MeasurementMatrix.from_entries(phi), B=phi @ X, epsilon=0.0)
    assert not problem.A.row_orthonormal
    for adaptive in (False, True):
        report = iht_solve(problem, IhtConfig(k=3, adaptive_step=adaptive))
        assert tuple(report.detected_support) == (3, 17, 25)
        assert np.abs(report.estimate - X).max() <= 1e-6


@pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
def test_zero_operator_is_rejected(adaptive):
    problem = MmvProblem(A=MeasurementMatrix(np.zeros((3, 6))), B=np.ones((3, 2)), epsilon=0.0)
    with pytest.raises(InvalidArgumentError, match="measurement operator is zero"):
        iht_solve(problem, IhtConfig(k=2, adaptive_step=adaptive))


def test_adaptive_rule_skips_the_power_iteration_after_a_music_start(monkeypatch):
    calls = []

    def counting(M, *args):
        calls.append((M.shape, args))
        return spectral_norm(M, *args)

    monkeypatch.setattr(iht, "spectral_norm", counting)
    inst = gen_instance(
        ProblemSpec(n=24, N=64, L=3, k=6, rank=2, noise_sigma=1e-3, matrix_kind="gaussian", seed=3)
    )
    assert 0 < music_support(inst.problem, 6).rank < 24  # the MUSIC start
    iht_solve(inst.problem, IhtConfig(k=6, adaptive_step=True))
    assert calls == []
    # the fixed step tries the start at the 8-step bound; that start is not
    # certified, so the step needs the norm
    iht_solve(inst.problem, IhtConfig(k=6))
    assert calls == [((24, 64), (8, 0.0)), ((24, 64), ())]
    # rank = n: the thresholded-correlation start scales by 1 / ||phi||^2
    full_rank = gen_instance(
        ProblemSpec(n=4, N=10, L=4, k=4, rank=4, matrix_kind="gaussian", seed=0)
    )
    iht_solve(full_rank.problem, IhtConfig(k=4, adaptive_step=True))
    assert calls == [((24, 64), (8, 0.0)), ((24, 64), ()), ((4, 10), ())]


# The benchmark's iht_gaussian pool (seeds 0-31), and a Gaussian family on
# which a finish accepted whenever one step from the fit keeps its rows
# (no certificate) changes a support.
POOL_SPEC = ProblemSpec(n=128, N=512, L=8, k=20, rank=8, noise_sigma=1e-3, matrix_kind="gaussian")
FINISH_FAMILIES = {
    "iht_gaussian": [replace(POOL_SPEC, seed=s) for s in range(32)],
    "gaussian_32x64x3": [
        ProblemSpec(n=32, N=64, L=3, k=8, rank=3, matrix_kind="gaussian", seed=s) for s in range(30)
    ],
}


def without_finish(monkeypatch, problem, cfg):
    with monkeypatch.context() as m:
        m.setattr(iht, "SETTLED_ITERS", math.inf)
        return iht_solve(problem, cfg)


@pytest.mark.parametrize("family", sorted(FINISH_FAMILIES))
def test_finish_keeps_the_plain_loops_outcomes(monkeypatch, family):
    fewer = 0
    for spec in FINISH_FAMILIES[family]:
        problem = gen_instance(spec).problem
        cfg = IhtConfig(k=spec.k)
        report = iht_solve(problem, cfg)
        plain = without_finish(monkeypatch, problem, cfg)
        assert report.detected_support == plain.detected_support
        assert report.converged == plain.converged
        error = np.linalg.norm(report.estimate - plain.estimate)
        assert error <= 1e-6 * np.linalg.norm(plain.estimate)
        assert report.final_residual <= plain.final_residual * (1 + 1e-12)
        assert report.inner_iterations <= plain.inner_iterations
        fewer += report.inner_iterations < plain.inner_iterations
    assert fewer > 0


def finish_tries(monkeypatch):
    """Record whether each certified-finish try of iht_solve is accepted."""
    accepted = []

    def recording(*args):
        fit = original(*args)
        accepted.append(fit is not None)
        return fit

    original = iht._certified_fit
    monkeypatch.setattr(iht, "_certified_fit", recording)
    return accepted


def test_accepted_finish_is_the_least_squares_fixed_point(monkeypatch):
    accepted = finish_tries(monkeypatch)
    checked = 0
    for spec in FINISH_FAMILIES["gaussian_32x64x3"][:10]:
        problem = gen_instance(spec).problem
        accepted.clear()
        report = iht_solve(problem, IhtConfig(k=spec.k))
        if not any(accepted):
            continue
        checked += 1
        phi, B, alpha = problem.phi, problem.B, report.estimate
        rows = list(report.detected_support)
        fit = np.zeros_like(alpha)
        fit[rows] = np.linalg.lstsq(phi[:, rows], B, rcond=None)[0]
        scale = np.abs(fit).max()
        assert np.abs(alpha - fit).max() <= 1e-12 * scale
        step = 0.98 / spectral_norm(phi) ** 2
        again, support = hard_threshold_rows(alpha + step * (phi.T @ (B - phi @ alpha)), spec.k)
        assert support == report.detected_support
        assert np.abs(again - alpha).max() <= 1e-12 * scale
    assert checked >= 3


def test_rejected_tries_leave_the_plain_trajectory(monkeypatch):
    accepted = finish_tries(monkeypatch)
    rejected_then_accepted = 0
    for spec in FINISH_FAMILIES["iht_gaussian"][:8]:
        problem = gen_instance(spec).problem
        cfg = IhtConfig(k=spec.k)
        accepted.clear()
        report = iht_solve(problem, cfg)
        plain = without_finish(monkeypatch, problem, cfg)
        if accepted[-1:] == [True]:
            # the accepted try moves the last iteration only
            last = report.inner_iterations
            assert np.array_equal(report.objective_trace[:last], plain.objective_trace[:last])
            rejected_then_accepted += len(accepted) > 1
        else:
            assert_same_report(report, plain)
    assert rejected_then_accepted > 0
    # rejecting every try leaves every solve exactly the plain loop's
    monkeypatch.setattr(iht, "_certified_fit", lambda *args: None)
    for spec in FINISH_FAMILIES["iht_gaussian"][:8]:
        problem = gen_instance(spec).problem
        cfg = IhtConfig(k=spec.k)
        assert_same_report(iht_solve(problem, cfg), without_finish(monkeypatch, problem, cfg))


def exact_support_problem():
    rng = np.random.default_rng(11)
    phi = rng.standard_normal((12, 30))
    rows = np.array([2, 5, 11])
    X = np.zeros((30, 2))
    X[rows] = rng.standard_normal((3, 2)) + 2.0
    return phi, rows, X


def test_certificate_refuses_a_rank_deficient_support():
    phi, rows, X = exact_support_problem()
    phi[:, 11] = phi[:, 5]  # two identical columns on the support
    B = phi @ X
    fitted = iht._SupportFit(phi, B, rows)
    assert fitted.rank == 2
    assert iht._certified_fit(phi, B, fitted.fit, fitted, 0.5 / fitted.norm**2) is None


def test_certificate_refuses_a_step_that_does_not_contract_on_the_support():
    phi, rows, X = exact_support_problem()
    B = phi @ X
    fitted = iht._SupportFit(phi, B, rows)
    # at the fit itself on exact data the off-support bound is round-off,
    # so a stable step is accepted and only the step test refuses; at
    # 2 / ||phi_S||^2 the product rounds below the bar 2, hence 2.5
    assert iht._certified_fit(phi, B, fitted.fit, fitted, 0.5 / fitted.norm**2) is not None
    assert iht._certified_fit(phi, B, fitted.fit, fitted, 2.5 / fitted.norm**2) is None


# Seeds of the iht_gaussian pool whose MUSIC start is certified: those
# solves stop at the start, with no ||phi||_2 but the 8-step bound.
CERTIFIED_STARTS = [1, 2, 3, 4, 5, 9, 10, 11, 12, 17, 18, 20, 21, 22, 24, 27, 28, 29, 30, 31]


def norm_calls(monkeypatch):
    """Record the arguments after M of each spectral_norm call of iht_solve."""
    calls = []

    def recording(M, *args):
        calls.append(args)
        return spectral_norm(M, *args)

    monkeypatch.setattr(iht, "spectral_norm", recording)
    return calls


def test_certified_start_finishes_at_its_fit_without_the_norm(monkeypatch):
    calls = norm_calls(monkeypatch)
    problem = gen_instance(replace(POOL_SPEC, seed=1)).problem
    phi, B = problem.phi, problem.B
    report = iht_solve(problem, IhtConfig(k=20))
    assert calls == [(8, 0.0)]  # the bound only: no full-accuracy norm
    music = music_support(problem, 20)
    rows = music.support.as_array()
    fit = iht._SupportFit(phi, B, rows).fit
    assert report.inner_iterations == 0 and report.converged
    assert report.detected_support == music.support
    # the finish is the plain step from the fit at the bound's step, which
    # H_k provably keeps on the MUSIC rows; it moves the fit by round-off
    bound = 0.98 / spectral_norm(phi, 8, 0.0) ** 2
    finish = fit.copy()
    finish[rows] += bound * (phi.T @ (B - phi @ fit))[rows]
    assert np.array_equal(report.estimate, finish)
    assert np.abs(report.estimate - fit).max() <= 1e-15 * np.abs(fit).max()
    assert len(report.objective_trace) == 2
    assert report.final_residual == np.linalg.norm(B - phi[:, rows] @ finish[rows])


def test_certified_starts_of_the_pool():
    certified = [
        seed
        for seed in range(32)
        if iht_solve(gen_instance(replace(POOL_SPEC, seed=seed)).problem, IhtConfig(k=20))
        .inner_iterations == 0
    ]
    assert certified == CERTIFIED_STARTS


def test_each_support_is_fitted_once(monkeypatch):
    fits, accepted = [], finish_tries(monkeypatch)

    class Recording(iht._SupportFit):
        def __init__(self, phi, B, rows):
            fits.append(tuple(rows))
            super().__init__(phi, B, rows)

    monkeypatch.setattr(iht, "_SupportFit", Recording)
    problem = gen_instance(replace(POOL_SPEC, seed=14)).problem
    report = iht_solve(problem, IhtConfig(k=20))
    # the start try, then one rejected retry after another on one settled
    # support, and an accepted one: one fit per distinct support
    assert len(accepted) > 10 and accepted[-1]
    assert len(fits) == len(set(fits)) == 2
    assert fits[-1] == tuple(report.detected_support)


def test_eight_lanczos_steps_never_exceed_the_squared_norm():
    # the start try's step bound 0.98 / rho is sound only while rho stays
    # at or below ||phi||_2^2
    for seed in [*range(32), *range(7919, 7951)]:
        phi = gen_instance(replace(POOL_SPEC, seed=seed)).problem.phi
        assert spectral_norm(phi, 8, 0.0) ** 2 <= np.linalg.norm(phi, 2) ** 2


def test_uncertified_start_keeps_the_plain_step_and_trajectory(monkeypatch):
    calls = norm_calls(monkeypatch)
    problem = gen_instance(replace(POOL_SPEC, seed=0)).problem
    cfg = IhtConfig(k=20)
    report = iht_solve(problem, cfg)
    assert calls == [(8, 0.0), ()]  # rejected at the bound: then the norm
    alpha, support, count = reference_iht(problem, cfg)
    assert report.inner_iterations == count == 6
    assert np.array_equal(report.estimate, alpha) and report.detected_support == support
    # the plain loop at the full norm's step, tried nowhere: the same
    # residuals bit for bit up to the accepted try after iteration 6
    plain = without_finish(monkeypatch, problem, cfg)
    assert plain.inner_iterations > count
    assert np.array_equal(report.objective_trace[: count + 1], plain.objective_trace[: count + 1])
    assert len(report.objective_trace) == count + 2
