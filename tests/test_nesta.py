import numpy as np
import pytest
from conftest import assert_same_report

from mmvsolve import (
    FeasibilityProjector,
    InfeasibleProblemError,
    InvalidArgumentError,
    MeasurementMatrix,
    MmvProblem,
    NestaConfig,
    ProblemSpec,
    SmoothingConfig,
    SupportSet,
    gen_instance,
    initial_state,
    iterative_nesta,
    music_support,
    nesta_solve,
    nesta_solve_batch,
    nesta_step,
    project_feasible,
)
from mmvsolve import nesta
from mmvsolve.nesta import (
    CONTINUATION_STAGES,
    MU0_FACTOR,
    MU_FINAL_FACTOR,
    OBJECTIVE_FLOOR_FACTOR,
    REFRESH_EVERY,
    STOP_TOL,
    STOP_WINDOW,
    _Batch,
    _step,
)

# hand-fixed instance with exact gram A A^T = 2 I
A_FIXED = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]])
B_FIXED = np.array([[0.5, -0.25], [1.0, 0.75]])
ALPHA0_FIXED = np.array([[0.1, -0.2], [0.3, 0.45], [-0.5, 0.6]])


def fixed_problem(eps=0.25):
    M = MeasurementMatrix.from_entries(A_FIXED)
    assert M.row_orthonormal and M.row_gram_scale == 2.0
    return MmvProblem(A=M, B=B_FIXED, epsilon=eps)


def literal_iteration(alpha0, mu, eps, steps, proj=None, trusted=()):
    """Transcription of the accelerated scheme written independently:
    gradient of the Huber row objective (zero on trusted rows), ball
    projection (closed form for the gram-scale-2 fixed operator by default),
    history weights (i+1)/2, tau = 2/(k+3). Each step yields y, z, alpha
    and the point z projects."""

    def grad(X):
        g = np.zeros_like(X)
        for j in range(X.shape[0]):
            if j in trusted:
                continue
            t = np.sqrt((X[j] ** 2).sum())
            g[j] = X[j] / mu if t < mu else X[j] / t
        return g

    def closed_form_proj(q):
        r = A_FIXED @ q - B_FIXED
        rho = np.sqrt((r**2).sum())
        if rho <= eps:
            return q
        return q - (1.0 - eps / rho) * 0.5 * (A_FIXED.T @ r)

    proj = closed_form_proj if proj is None else proj
    alpha = alpha0.copy()
    accum = np.zeros_like(alpha0)
    out = []
    for k in range(steps):
        g = grad(alpha)
        y = proj(alpha - mu * g)
        accum = accum + ((k + 1) / 2.0) * g
        z = proj(alpha0 - mu * accum)
        tau = 2.0 / (k + 3)
        alpha = tau * z + (1 - tau) * y
        out.append((y, z, alpha, alpha0 - mu * accum))
    return out


def kkt_projection(A, B, eps):
    """Ball projection by dense KKT solves, multiplier bisected to round-off."""
    N = A.shape[1]

    def alpha_of(q, lam):
        return np.linalg.solve(np.eye(N) + lam * (A.T @ A), q + lam * (A.T @ B))

    def proj(q):
        if np.linalg.norm(A @ q - B) <= eps:
            return q
        lo, hi = 0.0, 1.0
        while np.linalg.norm(A @ alpha_of(q, hi) - B) > eps:
            hi *= 2.0
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                return alpha_of(q, hi)
            if np.linalg.norm(A @ alpha_of(q, mid) - B) > eps:
                lo = mid
            else:
                hi = mid

    return proj


def test_step_constants_at_k0():
    # tau_0 = 2/3 and history weight 1/2 on the very first iteration
    problem = fixed_problem()
    sm = SmoothingConfig(mu=0.5)
    state = initial_state(ALPHA0_FIXED)
    new = nesta_step(state, problem, sm)
    g = np.zeros_like(ALPHA0_FIXED)
    for j in range(3):
        t = np.linalg.norm(ALPHA0_FIXED[j])
        g[j] = ALPHA0_FIXED[j] / 0.5 if t < 0.5 else ALPHA0_FIXED[j] / t
    assert np.allclose(new.grad_accum, 0.5 * g, atol=1e-15)
    assert np.allclose(new.alpha, (2.0 / 3.0) * new.z + (1.0 / 3.0) * new.y, atol=1e-15)
    assert new.k == 1


def test_zero_problem_is_fixed_point():
    A = MeasurementMatrix.from_entries(np.eye(4)[:2])
    problem = MmvProblem(A=A, B=np.zeros((2, 3)), epsilon=0.0)
    sm = SmoothingConfig(mu=0.1)
    state = initial_state(np.zeros((4, 3)))
    for _ in range(5):
        state = nesta_step(state, problem, sm)
        assert np.array_equal(state.alpha, np.zeros((4, 3)))
        assert np.array_equal(state.y, np.zeros((4, 3)))
        assert np.array_equal(state.z, np.zeros((4, 3)))


def test_step_matches_literal_transcription():
    problem = fixed_problem()
    sm = SmoothingConfig(mu=0.5)
    reference = literal_iteration(ALPHA0_FIXED, mu=0.5, eps=0.25, steps=25)
    state = initial_state(ALPHA0_FIXED)
    for y_ref, z_ref, alpha_ref, _ in reference:
        state = nesta_step(state, problem, sm)
        assert np.abs(state.y - y_ref).max() <= 1e-12
        assert np.abs(state.z - z_ref).max() <= 1e-12
        assert np.abs(state.alpha - alpha_ref).max() <= 1e-12


def test_cached_step_matches_literal_transcription_past_refreshes():
    # Uncertified operator, one trusted row, and enough steps to cross two
    # refreshes of the images the step tracks by linearity. The point that
    # z projects, alpha0 - mu * (weighted gradient sum), grows like k^2 (to
    # ~4e3 here) and carries round-off of that size, so the 1e-12 is taken
    # relative to it: a step computing every product with phi exactly
    # differs from the transcription by 3.4e-12 absolute at step 200.
    A = np.array([[1.0, 2.0, 0.5], [0.0, 1.0, -1.0]])
    M = MeasurementMatrix.from_entries(A)
    assert not M.row_orthonormal
    problem = MmvProblem(A=M, B=B_FIXED, epsilon=0.25)
    sm = SmoothingConfig(mu=0.5, known_support=SupportSet((1,)))
    steps = 2 * REFRESH_EVERY + 10
    reference = literal_iteration(
        ALPHA0_FIXED, 0.5, 0.25, steps, proj=kkt_projection(A, B_FIXED, 0.25), trusted=(1,)
    )
    projector = FeasibilityProjector(A, B_FIXED, 0.25)
    state = initial_state(ALPHA0_FIXED)
    for y_ref, z_ref, alpha_ref, qz_ref in reference:
        state = nesta_step(state, problem, sm, projector=projector)
        tol = 1e-12 * max(1.0, np.abs(qz_ref).max())
        assert np.abs(state.y - y_ref).max() <= tol
        assert np.abs(state.z - z_ref).max() <= tol
        assert np.abs(state.alpha - alpha_ref).max() <= tol
        assert state.trusted is not None and np.all(state.grad_accum[1] == 0.0)
    assert state.k == steps
    assert np.abs(qz_ref).max() > 1e3


class CountingArray(np.ndarray):
    """An operator that counts the matrix products it takes part in."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            CountingArray.products += 1
        plain = tuple(x.view(np.ndarray) if isinstance(x, CountingArray) else x for x in inputs)
        return getattr(ufunc, method)(*plain, **kwargs)


@pytest.mark.parametrize(
    "matrix_kind, batch_size",
    [
        pytest.param("row-orthonormal-gaussian", 1, id="row-orthonormal-gaussian"),
        pytest.param("gaussian", 1, id="gaussian"),
        pytest.param("row-orthonormal-gaussian", 3, id="row-orthonormal-gaussian-batch3"),
        pytest.param("gaussian", 3, id="gaussian-batch3"),
    ],
)
def test_step_makes_two_products_with_phi(matrix_kind, batch_size):
    problems = [
        gen_instance(
            ProblemSpec(n=8, N=16, L=2, k=2, rank=2, matrix_kind=matrix_kind, seed=3 + i)
        ).problem
        for i in range(batch_size)
    ]
    for problem in problems:
        problem.phi = problem.phi.view(CountingArray)
    projectors = [
        FeasibilityProjector(
            p.phi, p.B, 0.0, gram_scale=p.A.row_gram_scale if p.A.row_orthonormal else None
        )
        for p in problems
    ]
    for projector in projectors:
        # the step multiplies by phi written in the projector's basis: phi
        # itself when certified, V^T phi otherwise
        projector.operator = projector.operator.view(CountingArray)
    sm = SmoothingConfig(mu=0.1)
    if batch_size == 1:
        state = initial_state(np.zeros((16, 2)))

        def step(state):
            return nesta_step(state, problems[0], sm, projector=projectors[0])

    else:
        # the batch stacks the three distinct operators into one array
        batch, _ = _Batch.of(projectors, [sm.mu] * batch_size, sm)
        batch.operators.stack = batch.operators.stack.view(CountingArray)
        state = initial_state(np.zeros((batch_size, 16, 2)))

        def step(state):
            return _step(state, batch)[0]

    for k in range(REFRESH_EVERY + 2):
        CountingArray.products = 0
        state = step(state)
        # phi @ grad and one fused phi^T product; at k = 0 (stage start) and
        # at refreshes also phi @ alpha and phi @ grad_accum, and at the
        # stage start phi @ prox_center; one stacked product serves the batch
        expected = 5 if k == 0 else 4 if k == REFRESH_EVERY else 2
        assert CountingArray.products == expected, k


@pytest.mark.parametrize("batch_size", [1, 3], ids=["alone", "batch3"])
def test_uncertified_step_makes_no_product_with_the_eigenvectors(batch_size):
    spec = dict(n=8, N=16, L=2, k=2, rank=2, noise_sigma=1e-2, matrix_kind="gaussian")
    problems = [gen_instance(ProblemSpec(seed=3 + i, **spec)).problem for i in range(batch_size)]
    projectors = [FeasibilityProjector(p.phi, p.B, p.epsilon) for p in problems]
    for projector in projectors:
        projector.basis.V = projector.basis.V.view(CountingArray)
    sm = SmoothingConfig(mu=0.1)
    if batch_size == 1:
        state = initial_state(np.zeros((16, 2)))

        def step(state):
            return nesta_step(state, problems[0], sm, projector=projectors[0])

    else:
        batch, _ = _Batch.of(projectors, [sm.mu] * batch_size, sm)
        state = initial_state(np.zeros((batch_size, 16, 2)))

        def step(state):
            new, _ = _step(state, batch)
            return new

    for k in range(REFRESH_EVERY + 2):
        CountingArray.products = 0
        state = step(state)
        assert CountingArray.products == 0, k
    # the multiplier solves ran, so points left their balls
    assert all(p.newton_steps > 0 for p in projectors)


def test_step_skips_back_projection_when_both_points_are_feasible():
    inst = gen_instance(ProblemSpec(n=8, N=16, L=2, k=2, rank=2, seed=3))
    problem = inst.problem
    problem.phi = problem.phi.view(CountingArray)
    projector = FeasibilityProjector(problem.phi, problem.B, 1e9, gram_scale=1.0)
    state = nesta_step(initial_state(inst.X_true), problem, SmoothingConfig(mu=0.1), projector=projector)
    CountingArray.products = 0
    nesta_step(state, problem, SmoothingConfig(mu=0.1), projector=projector)
    assert CountingArray.products == 1


def test_iterates_stay_feasible():
    problem = fixed_problem(eps=0.25)
    sm = SmoothingConfig(mu=0.3)
    state = initial_state(ALPHA0_FIXED)
    for _ in range(30):
        state = nesta_step(state, problem, sm)
        assert np.linalg.norm(A_FIXED @ state.y - B_FIXED) <= 0.25 + 1e-9
        assert np.linalg.norm(A_FIXED @ state.z - B_FIXED) <= 0.25 + 1e-9


def test_zero_data_returns_zero_estimate():
    A = MeasurementMatrix.from_entries(np.eye(6)[:3])
    problem = MmvProblem(A=A, B=np.zeros((3, 2)), epsilon=0.5)
    report = nesta_solve(problem)
    assert np.array_equal(report.estimate, np.zeros((6, 2)))
    assert report.converged and report.inner_iterations == 0 and report.restarts == 0


def zero_correlation_problem(eps):
    # phi^T B = 0 and ||B|| = 1: B lies wholly outside the range of phi
    phi = np.zeros((3, 4))
    phi[0, 0] = phi[1, 1] = 1.0
    A = MeasurementMatrix.from_entries(phi)
    return MmvProblem(A=A, B=np.array([[0.0], [0.0], [1.0]]), epsilon=eps)


def test_zero_correlation_data_feasible_within_projector_slack():
    # ||B|| is just above eps but within the projector's slack, so the ball
    # is not empty and zero is the answer
    report = nesta_solve(zero_correlation_problem(1.0 / (1.0 + 1e-10)))
    assert np.array_equal(report.estimate, np.zeros((4, 1)))
    assert report.converged and report.inner_iterations == 0


def test_zero_correlation_data_infeasible_raises_projector_error():
    problem = zero_correlation_problem(0.5)
    with pytest.raises(InfeasibleProblemError) as solved:
        nesta_solve(problem)
    with pytest.raises(InfeasibleProblemError) as projected:
        project_feasible(np.zeros((4, 1)), problem)
    assert str(solved.value) == str(projected.value)


def test_noiseless_single_row_recovery_matches_pinv_oracle():
    inst = gen_instance(ProblemSpec(n=10, N=20, L=3, k=1, rank=1, seed=4))
    report = nesta_solve(inst.problem)
    rows = inst.support_true.as_array()
    A = inst.problem.A.entries
    oracle = np.zeros_like(inst.X_true)
    oracle[rows] = np.linalg.pinv(A[:, rows]) @ inst.problem.B
    rel = np.linalg.norm(report.estimate - oracle) / np.linalg.norm(oracle)
    assert rel < 1e-4
    assert report.final_residual <= inst.problem.epsilon + 1e-6


def smv_reference(A, b, eps, stages=4, max_inner=5000, window=10, tol=1e-7):
    """Single-vector solver written independently on 1-D arrays."""
    gram = A @ A.T
    c = float(np.trace(gram) / gram.shape[0])
    assert np.abs(gram - c * np.eye(gram.shape[0])).max() <= 1e-10 * c

    def proj(q):
        r = A @ q - b
        rho = np.linalg.norm(r)
        if rho <= eps:
            return q
        return q - (1 - eps / rho) * (1 / c) * (A.T @ r)

    def grad(x, mu):
        ax = np.abs(x)
        return x / np.where(ax >= mu, ax, mu)

    def objective(x, mu):
        ax = np.abs(x)
        return float(np.where(ax >= mu, ax - 0.5 * mu, 0.5 * ax * ax / mu).sum())

    corr = A.T @ b
    scale = np.abs(corr).max()
    mu0, mu_final = 0.9 * scale, 1e-4 * scale
    ratio = (mu_final / mu0) ** (1.0 / stages)
    x = proj(corr)
    for i in range(stages):
        mu = mu0 * ratio ** (i + 1)
        anchor = x.copy()
        accum = np.zeros_like(x)
        alpha = anchor
        trace = []
        k = 0  # momentum counter, back to 0 at each restart
        for _ in range(max_inner):
            g = grad(alpha, mu)
            y = proj(alpha - mu * g)
            accum = accum + ((k + 1) / 2.0) * g
            z = proj(anchor - mu * accum)
            alpha = (2.0 / (k + 3)) * z + (1 - 2.0 / (k + 3)) * y
            k += 1
            trace.append(objective(y, mu))
            if len(trace) >= 2 and trace[-1] > trace[-2]:
                # the objective at y rose: restart the scheme from y
                anchor, alpha, accum, k = y, y, np.zeros_like(x), 0
            if len(trace) >= window:
                w = trace[-window:]
                if max(w) - min(w) <= tol * max(abs(sum(w) / len(w)), 1e-30):
                    break
        x = y
    return x


def test_single_column_reduces_to_vector_solver():
    inst = gen_instance(ProblemSpec(n=16, N=32, L=1, k=3, rank=1, seed=5))
    report = nesta_solve(inst.problem)
    ref = smv_reference(inst.problem.A.entries, inst.problem.B[:, 0], 0.0)
    assert np.abs(report.estimate[:, 0] - ref).max() <= 1e-8


def test_objective_trace_windowed_decrease():
    # accelerated iterations ripple; the testable monotonicity is windowed:
    # each stage's final window satisfies the stopping functional and the
    # stage ends no higher than where its first window ended
    inst = gen_instance(ProblemSpec(n=32, N=64, L=4, k=8, rank=4, seed=2))
    report = nesta_solve(inst.problem)
    assert report.converged
    pos = 0
    for length in report.stage_iterations:
        seg = report.objective_trace[pos : pos + length]
        pos += length
        assert len(seg) >= STOP_WINDOW
        window = seg[-STOP_WINDOW:]
        level = max(abs(sum(window) / len(window)), 1e-30)
        assert max(window) - min(window) <= STOP_TOL * level
        first = seg[STOP_WINDOW - 1]
        assert seg[-1] <= first + STOP_TOL * max(first, 1e-30)


def row_mixed(problem, seed):
    """The problem written as (Q phi, Q B), Q a seeded random orthogonal matrix:
    the same noise ball through another operator."""
    Q = np.linalg.qr(np.random.default_rng(seed).standard_normal((problem.n, problem.n)))[0]
    A = MeasurementMatrix.from_entries(Q @ problem.A.entries)
    assert not A.row_orthonormal
    return MmvProblem(A=A, B=Q @ problem.B, epsilon=problem.epsilon)


@pytest.mark.parametrize("noise_sigma", [1e-2, 0.0], ids=["noisy", "exact"])
def test_solve_is_invariant_under_orthogonal_row_mixing(noise_sigma):
    # the exact case is consistent data on a full-row-rank Gaussian operator
    spec = ProblemSpec(
        n=16, N=32, L=3, k=3, rank=3, noise_sigma=noise_sigma, matrix_kind="gaussian", seed=2
    )
    problem = gen_instance(spec).problem
    assert not problem.A.row_orthonormal
    assert (problem.epsilon > 0) == (noise_sigma > 0)
    given = nesta_solve(problem)
    mixed = nesta_solve(row_mixed(problem, 102))
    assert mixed.stage_iterations == given.stage_iterations
    assert mixed.detected_support == given.detected_support
    error = np.linalg.norm(mixed.estimate - given.estimate)
    assert error <= 1e-10 * np.linalg.norm(given.estimate)


def test_known_support_masking_speeds_up_hard_instances():
    iters_blind, iters_seeded = [], []
    for seed in range(20):
        inst = gen_instance(ProblemSpec(n=32, N=64, L=4, k=8, rank=4, seed=seed))
        blind = nesta_solve(inst.problem)
        half = SupportSet(tuple(inst.support_true)[:4])
        seeded = nesta_solve(inst.problem, SmoothingConfig(known_support=half))
        iters_blind.append(blind.inner_iterations)
        iters_seeded.append(seeded.inner_iterations)
    assert np.median(iters_seeded) < np.median(iters_blind)


def test_epsilon_zero_requires_consistent_data():
    A = MeasurementMatrix.from_entries(np.eye(3)[:2])
    B = np.array([[0.0, 0.0], [0.0, 0.0]])
    problem = MmvProblem(A=A, B=B, epsilon=0.0)
    report = nesta_solve(problem)  # zero data, trivially consistent
    assert np.array_equal(report.estimate, np.zeros((3, 2)))


def test_iterative_nesta_validation():
    inst = gen_instance(ProblemSpec(n=8, N=12, L=2, k=2, rank=2, seed=0))
    with pytest.raises(InvalidArgumentError):
        iterative_nesta(inst.problem, 0)
    with pytest.raises(InvalidArgumentError):
        iterative_nesta(inst.problem, 12)


@pytest.mark.parametrize("k", [float("nan"), float("inf"), 2.5, 0])
def test_iterative_nesta_rejects_a_k_that_is_no_positive_integer(k):
    inst = gen_instance(ProblemSpec(n=6, N=12, L=2, k=2, rank=2, seed=0))
    with pytest.raises(InvalidArgumentError, match=f"k .*got {k!r}"):
        iterative_nesta(inst.problem, k)


def test_iterative_nesta_recovers_support():
    inst = gen_instance(ProblemSpec(n=12, N=24, L=4, k=3, rank=3, seed=9))
    report = iterative_nesta(inst.problem, 3)
    assert report.detected_support == inst.support_true
    rel = np.linalg.norm(report.estimate - inst.X_true) / np.linalg.norm(inst.X_true)
    assert rel < 1e-3
    assert report.outer_iterations <= 10


def test_iterative_nesta_stops_on_first_pass_with_full_seed():
    # full-rank data: the subspace seed already equals the thresholded
    # support, so the loop exits after a single pass
    inst = gen_instance(
        ProblemSpec(n=12, N=24, L=4, k=4, rank=4, matrix_kind="gaussian", seed=3)
    )
    report = iterative_nesta(inst.problem, 4, use_music=True)
    assert report.outer_iterations == 1
    assert report.detected_support == inst.support_true
    assert report.converged


def test_iterative_nesta_boundary_k():
    inst = gen_instance(ProblemSpec(n=8, N=10, L=2, k=2, rank=2, seed=1))
    report = iterative_nesta(inst.problem, 9)
    assert report.final_residual <= inst.problem.epsilon + 1e-6
    assert len(report.detected_support) == 9
    assert report.outer_iterations <= 4


def test_iterative_nesta_stops_at_pass_cap(monkeypatch):
    # the boundary-k instance takes 2 passes; capped at 1 it stops unconverged
    inst = gen_instance(ProblemSpec(n=8, N=10, L=2, k=2, rank=2, seed=1))
    assert iterative_nesta(inst.problem, 9).outer_iterations == 2
    monkeypatch.setattr(nesta, "MAX_OUTER", 1)
    report = iterative_nesta(inst.problem, 9)
    assert report.outer_iterations == 1
    assert report.converged is False
    assert len(report.detected_support) == 9


def test_iterative_nesta_sums_its_passes_restarts(monkeypatch):
    passes = []
    solve = nesta.nesta_solve

    def spy(problem, smoothing=None, cfg=None):
        passes.append(solve(problem, smoothing, cfg))
        return passes[-1]

    monkeypatch.setattr(nesta, "nesta_solve", spy)
    inst = gen_instance(ProblemSpec(n=8, N=10, L=2, k=2, rank=2, seed=1))
    report = iterative_nesta(inst.problem, 9)
    assert len(passes) == report.outer_iterations == 2
    assert report.restarts == sum(p.restarts for p in passes) > 0


def test_iterative_nesta_music_seed_trusts_best_scored_rows(monkeypatch):
    # rank-deficient data: the seed is the rank-many lowest MUSIC scores,
    # not music_support's k rows
    inst = gen_instance(ProblemSpec(n=16, N=32, L=4, k=8, rank=2, seed=3))
    music = music_support(inst.problem, 8)
    assert music.rank == 2
    seeds = []
    solve = nesta.nesta_solve

    def spy(problem, smoothing=None, cfg=None):
        seeds.append(smoothing.known_support)
        return solve(problem, smoothing, cfg)

    monkeypatch.setattr(nesta, "nesta_solve", spy)
    iterative_nesta(inst.problem, 8, use_music=True)
    lowest = np.argsort(music.scores, kind="stable")[:2]
    assert seeds[0] == SupportSet.from_indices(lowest)
    assert len(seeds[0]) == 2 and set(seeds[0]) < set(music.support)


def test_solve_with_sparsifying_transform():
    # the signal is row-sparse in a non-canonical orthonormal basis Psi,
    # X = Psi alpha: solve for alpha with the operator A @ Psi, map back
    rng = np.random.default_rng(31)
    N, n, L, k = 24, 12, 3, 2
    Psi = np.linalg.qr(rng.standard_normal((N, N)))[0]
    inst = gen_instance(ProblemSpec(n=n, N=N, L=L, k=k, rank=2, seed=6))
    alpha_true = inst.X_true  # row-sparse coefficients
    A = inst.problem.A
    X_true = Psi @ alpha_true
    problem = MmvProblem(A=A.entries @ Psi, B=A.entries @ X_true, epsilon=0.0)
    assert problem.A.row_orthonormal  # an orthonormal Psi keeps A A^T = c I
    report = nesta_solve(problem)
    rel = np.linalg.norm(Psi @ report.estimate - X_true) / np.linalg.norm(X_true)
    assert rel < 1e-3
    alpha_hat = report.estimate
    assert np.linalg.norm(alpha_hat - alpha_true) / np.linalg.norm(alpha_true) < 1e-3
    # support detection happens in the coefficient domain
    assert report.detected_support == inst.support_true


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        NestaConfig(mu_final=0.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_non_finite_radius_and_smoothing(value):
    with pytest.raises(InvalidArgumentError, match="mu_final"):
        NestaConfig(mu_final=value)


@pytest.mark.parametrize("value", [2.5, 0, -3, float("nan"), float("inf"), "5", None])
def test_config_rejects_a_non_integer_iteration_cap(value):
    with pytest.raises(InvalidArgumentError, match=f"max_inner_iters .*got {value!r}"):
        NestaConfig(max_inner_iters=value)


def test_integral_float_iteration_cap_solves_as_its_int():
    problem = gen_instance(ProblemSpec(n=8, N=16, L=2, k=2, rank=2, seed=4)).problem
    cfg = NestaConfig(max_inner_iters=40.0)
    assert type(cfg.max_inner_iters) is int
    want = nesta_solve(problem, cfg=NestaConfig(max_inner_iters=40))
    assert_same_report(nesta_solve(problem, cfg=cfg), want)


# a final smoothing that gives five of ``batch_problems()`` a one-stage
# schedule and one the full CONTINUATION_STAGES, so the later stages run
# that problem alone in the batch
MIXED_SCHEDULES = NestaConfig(mu_final=35.5)
# a cap at which the first problem's first stage meets its stop test on the
# last iteration while others go on to the cap
CAPPED = NestaConfig(max_inner_iters=54)


def batch_problems():
    """Problems of one shape: certified and Gaussian operators, noiseless and
    noisy radii, two right-hand sides sharing one operator, and zero data."""
    spec = dict(n=12, N=24, L=3, k=3, rank=3)
    certified = gen_instance(ProblemSpec(seed=1, **spec)).problem
    noisy = gen_instance(ProblemSpec(seed=2, noise_sigma=1e-2, **spec)).problem
    gaussian = gen_instance(
        ProblemSpec(seed=3, noise_sigma=1e-2, matrix_kind="gaussian", **spec)
    ).problem
    gaussian_exact = gen_instance(ProblemSpec(seed=4, matrix_kind="gaussian", **spec)).problem
    shared = MmvProblem(A=certified.A, B=noisy.B[:, ::-1], epsilon=0.05)
    zero = MmvProblem(A=certified.A, B=np.zeros((12, 3)), epsilon=0.0)
    return [certified, noisy, gaussian, shared, gaussian_exact, zero]


@pytest.mark.parametrize(
    "known_support,cfg",
    [
        ((), None),
        ((2, 7), None),
        ((), MIXED_SCHEDULES),
        ((2, 7), MIXED_SCHEDULES),
        ((), CAPPED),
    ],
    ids=[
        "known_support0",
        "known_support1",
        "known_support0-mixed",
        "known_support1-mixed",
        "known_support0-capped",
    ],
)
def test_batch_solves_each_problem_bit_for_bit_as_alone(known_support, cfg):
    problems = batch_problems()
    sm = SmoothingConfig(known_support=SupportSet(known_support))
    batched = nesta_solve_batch(problems, sm, cfg)
    assert len(batched) == len(problems)
    for problem, report in zip(problems, batched):
        alone = nesta_solve(problem, sm, cfg)
        assert np.array_equal(report.estimate, alone.estimate)
        assert report.stage_iterations == alone.stage_iterations
        assert np.array_equal(report.objective_trace, alone.objective_trace)
        assert report.detected_support == alone.detected_support
        assert report.final_residual == alone.final_residual
        assert report.converged == alone.converged
    # the problems stop at different iterations, so the batch shrank
    assert len({tuple(r.stage_iterations) for r in batched}) > 2


def test_batch_slots_restart_on_their_own_as_alone():
    # the problems restart at different iterations of the shared stages, and
    # each one's restarts are those it makes alone
    problems = batch_problems()
    batched = nesta_solve_batch(problems)
    for problem, report in zip(problems, batched):
        assert_same_report(report, nesta_solve(problem))
    restarts = [r.restarts for r in batched]
    assert len(set(restarts)) == len(restarts)
    assert restarts[-1] == 0  # zero data is not iterated


def stage_segments(report):
    pos = 0
    for length in report.stage_iterations:
        yield report.objective_trace[pos : pos + length]
        pos += length


def test_restart_fires_exactly_where_the_objective_at_y_rises(monkeypatch):
    calls = []
    restart = nesta._restart

    def recorded(state, batch, slots):
        calls.append((state.iteration, list(slots)))
        restart(state, batch, slots)

    monkeypatch.setattr(nesta, "_restart", recorded)
    report = nesta_solve(batch_problems()[0])
    rises = []
    for seg in stage_segments(report):
        # iteration t (from 1) rose above iteration t - 1 of its stage
        rises += [t for t in range(2, len(seg) + 1) if seg[t - 1] > seg[t - 2]]
    assert [iteration for iteration, _ in calls] == rises
    assert all(slots == [0] for _, slots in calls)
    assert report.restarts == len(rises) > 0
    # a rise is the exception, not every other iteration
    assert len(rises) < report.inner_iterations // 2


@pytest.mark.parametrize("index", [0, 2], ids=["certified", "gaussian-noisy"])
def test_nesta_solve_is_its_documented_schedule_of_nesta_steps(index):
    # a reference written with public calls on one unstacked iterate: the
    # geometric schedule from MU0_FACTOR to MU_FINAL_FACTOR times the data
    # scale, each stage warm-started at the last y, restarted at y whenever
    # its objective there rises, and stopped on Python floats by the window
    # spread, the objective floor or the cap
    problem = batch_problems()[index]
    cfg = NestaConfig()
    corr = problem.phi.T @ problem.B
    scale = float(np.sqrt((corr * corr).sum(axis=1)).max())
    mu0, mu_final = MU0_FACTOR * scale, MU_FINAL_FACTOR * scale
    ratio = (mu_final / mu0) ** (1.0 / CONTINUATION_STAGES)
    floor = OBJECTIVE_FLOOR_FACTOR * scale
    gram_scale = problem.A.row_gram_scale if problem.A.row_orthonormal else None
    projector = FeasibilityProjector(problem.phi, problem.B, problem.epsilon, gram_scale)
    x, stage_iterations, trace = projector(corr), [], []
    for stage in range(CONTINUATION_STAGES):
        sm = SmoothingConfig(mu=mu0 * ratio ** (stage + 1))
        state = initial_state(x)
        for iteration in range(1, cfg.max_inner_iters + 1):
            state = nesta_step(state, problem, sm, projector=projector)
            window = state.objective_trace[-STOP_WINDOW:]
            if len(window) > 1 and window[-1] > window[-2]:
                # a fresh state at y, as at a stage start, that keeps the
                # stage's trace and iteration count
                restarted = initial_state(state.y)
                restarted.objective_trace = state.objective_trace
                restarted.iteration = state.iteration
                state = restarted
            if len(window) == STOP_WINDOW:
                top, level = max(window), abs(sum(window) / STOP_WINDOW)
                if top - min(window) <= STOP_TOL * max(level, 1e-30) or top <= floor:
                    break
        x = state.y
        stage_iterations.append(iteration)
        trace += state.objective_trace
    report = nesta_solve(problem, cfg=cfg)
    assert report.stage_iterations == stage_iterations
    assert np.array_equal(report.objective_trace, np.array(trace))
    assert np.array_equal(report.estimate, x)


def test_batch_records_an_infeasible_problem_and_solves_the_rest():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((12, 24))
    A[-1] = A[0]  # rank 11: data with a component off the range is infeasible
    infeasible = MmvProblem(A=A, B=rng.standard_normal((12, 3)), epsilon=0.0)
    with pytest.raises(InfeasibleProblemError):
        nesta_solve(infeasible)
    problems = batch_problems()
    batched = nesta_solve_batch(problems[:2] + [infeasible] + problems[2:])
    assert isinstance(batched[2], InfeasibleProblemError)
    others = batched[:2] + batched[3:]
    assert not any(isinstance(r, Exception) for r in others)
    for problem, report in zip(problems, others):
        assert_same_report(report, nesta_solve(problem))


def test_a_lone_solve_takes_one_nesta_step_per_iteration(monkeypatch):
    from mmvsolve import nesta

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return nesta_step(*args, **kwargs)

    monkeypatch.setattr(nesta, "nesta_step", counted)
    problem = batch_problems()[0]
    report = nesta_solve(problem)
    assert len(calls) == report.inner_iterations > 0
    calls.clear()
    # a batched iteration is one call for all the problems still in the stage
    batched = nesta_solve_batch(batch_problems()[:2])
    assert len(calls) == sum(max(s) for s in zip(*(r.stage_iterations for r in batched)))


def test_batch_wall_time_is_a_share_in_proportion_to_iterations():
    batched = nesta_solve_batch(batch_problems()[:3])
    per_iteration = [r.wall_time / r.inner_iterations for r in batched]
    assert per_iteration == pytest.approx([per_iteration[0]] * 3, rel=1e-9)


def test_batch_rejects_problems_of_different_shapes():
    a = gen_instance(ProblemSpec(n=8, N=16, L=2, k=2, rank=2, seed=0)).problem
    b = gen_instance(ProblemSpec(n=8, N=16, L=3, k=2, rank=2, seed=0)).problem
    with pytest.raises(InvalidArgumentError):
        nesta_solve_batch([a, b])


@pytest.mark.parametrize(
    "owners, layers",
    [
        ([0, 1, 2], [3]),  # one slot per operator: every nesta batch and lone solve
        ([0, 0, 0], [1, 1, 1]),  # one operator for every slot: a lone smv solve
        ([0, 1, 0, 0, 2], [3, 1, 1]),  # the column slots of smv trials of each L
    ],
)
@pytest.mark.parametrize("left", [False, True])
def test_operator_products_take_one_matmul_per_layer(owners, layers, left, monkeypatch):
    rng = np.random.default_rng(3)
    phis = [rng.standard_normal((4, 6)) for _ in range(3)]
    slots = [phis[i] for i in owners]
    ops = nesta._Operators.of(slots)
    assert ops.layers == layers
    P = len(slots)
    X = rng.standard_normal((P, 4, 2)).transpose(0, 2, 1) if left else rng.standard_normal((P, 6, 2))
    matmul, calls = np.matmul, []

    def counted(*args, **kwargs):
        calls.append(1)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    got = ops.apply(X, left=left)
    assert len(calls) == len(layers)
    for j, i in enumerate(ops.order):
        phi, x = slots[i][None], X[j : j + 1]
        assert np.array_equal(got[j], (matmul(x, phi) if left else matmul(phi, x))[0])

