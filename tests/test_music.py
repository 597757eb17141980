import numpy as np
import pytest

from mmvsolve import (
    InvalidArgumentError,
    MeasurementMatrix,
    MmvProblem,
    ProblemSpec,
    SupportSet,
    estimate_rank,
    gen_instance,
    music_scores,
    music_support,
)


def test_estimate_rank_examples():
    u = np.array([[1.0], [2.0], [-1.0]])
    v = np.array([[3.0, 0.5, -2.0, 1.0]])
    assert estimate_rank(u @ v, 1e-8) == 1
    assert estimate_rank(np.zeros((4, 3)), 1e-8) == 0


def test_estimate_rank_noise_threshold():
    rng = np.random.default_rng(2)
    base = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 6))
    sv = np.linalg.svd(base, compute_uv=False)
    assert int((sv > 1e-6 * sv[0]).sum()) == 3
    noise = rng.standard_normal((8, 6))
    noisy = base + 1e-8 * noise / np.linalg.norm(noise)
    assert estimate_rank(noisy, 1e-6) == 3


def test_estimate_rank_rejects_bad_delta():
    with pytest.raises(InvalidArgumentError):
        estimate_rank(np.eye(3), 0.0)


def test_scores_zero_inside_subspace_one_outside():
    # dictionary columns built directly from/against an orthonormal basis
    U = np.linalg.qr(np.random.default_rng(4).standard_normal((6, 6)))[0]
    inside = U[:, :2] @ np.array([[1.0], [2.0]])
    outside = U[:, 2:3]
    phi = np.column_stack([inside, outside, U[:, 3]])
    B = U[:, :2] @ np.array([[1.0, 0.5], [0.0, 2.0]])
    with pytest.warns(UserWarning):  # 6 x 3 operator is overdetermined
        A = MeasurementMatrix.from_entries(phi)
    problem = MmvProblem(A=A, B=B, epsilon=0.0)
    scores = music_scores(problem, 2)
    assert scores[0] <= 1e-12
    assert scores[1] == pytest.approx(1.0, abs=1e-12)
    assert scores[2] == pytest.approx(1.0, abs=1e-12)


def test_scores_match_least_squares_residual_oracle():
    inst = gen_instance(
        ProblemSpec(n=10, N=20, L=4, k=3, rank=3, matrix_kind="gaussian", seed=6)
    )
    r = 3
    scores = music_scores(inst.problem, r)
    U, _, _ = np.linalg.svd(inst.problem.B)
    Us = U[:, :r]
    phi = inst.problem.A.entries
    for j in range(phi.shape[1]):
        coef, _, _, _ = np.linalg.lstsq(Us, phi[:, j], rcond=None)
        resid = np.linalg.norm(phi[:, j] - Us @ coef) / np.linalg.norm(phi[:, j])
        assert scores[j] == pytest.approx(resid, abs=1e-10)


def test_scores_validate_subspace_dimension():
    inst = gen_instance(ProblemSpec(n=6, N=12, L=2, k=2, rank=2, seed=0))
    with pytest.raises(InvalidArgumentError):
        music_scores(inst.problem, 0)
    with pytest.raises(InvalidArgumentError):
        music_scores(inst.problem, 3)  # exceeds min(n, L) = 2


def test_scores_are_complementary_cosines():
    inst = gen_instance(
        ProblemSpec(n=9, N=18, L=3, k=3, rank=3, matrix_kind="gaussian", seed=14)
    )
    r = 2
    scores = music_scores(inst.problem, r)
    U, _, _ = np.linalg.svd(inst.problem.B)
    Us = U[:, :r]
    phi = inst.problem.A.entries
    norms = np.linalg.norm(phi, axis=0)
    inside = np.linalg.norm(Us.T @ phi, axis=0) / norms
    assert np.abs(scores**2 + inside**2 - 1.0).max() <= 1e-10


def test_zero_column_scores_one_with_warning():
    phi = np.array([[1.0, 0.0, 0.3], [0.0, 0.0, 0.7], [0.5, 0.0, -0.2]])
    A = MeasurementMatrix.from_entries(phi)
    B = np.array([[1.0, 0.2], [0.1, 0.6], [0.4, -0.3]])
    problem = MmvProblem(A=A, B=B, epsilon=0.0)
    with pytest.warns(UserWarning):
        scores = music_scores(problem, 1)
    assert scores[1] == 1.0


def test_support_selection_exact_when_full_rank():
    inst = gen_instance(
        ProblemSpec(n=10, N=20, L=3, k=3, rank=3, matrix_kind="gaussian", seed=42)
    )
    res = music_support(inst.problem, 3)
    assert res.rank == 3
    assert res.support == inst.support_true
    mask = inst.support_true.mask(20)
    assert res.scores[mask].max() < 1e-10
    assert res.scores[~mask].min() > 0.1


def test_support_single_active_column():
    rng = np.random.default_rng(9)
    phi = rng.standard_normal((7, 12))
    row = rng.standard_normal((1, 3))
    B = np.outer(phi[:, 5], row)[:, 0, :] if False else phi[:, 5:6] @ row
    problem = MmvProblem(A=MeasurementMatrix.from_entries(phi), B=B, epsilon=0.0)
    res = music_support(problem, 1)
    assert tuple(res.support) == (5,)


def test_rank_deficient_data_gives_partial_support():
    # rank-2 signal on 4 rows: the dominant rows appear in the selection
    hits = 0
    for seed in range(20):
        inst = gen_instance(
            ProblemSpec(n=12, N=24, L=4, k=4, rank=2, matrix_kind="gaussian", seed=seed)
        )
        res = music_support(inst.problem, 4)
        assert res.rank == 2
        X = inst.X_true
        strength = np.sqrt((X * X).sum(axis=1))
        top2 = set(np.argsort(-strength, kind="stable")[:2].tolist())
        if top2 <= set(res.support):
            hits += 1
    assert hits >= 15


def test_orthogonal_invariance():
    rng = np.random.default_rng(18)
    inst = gen_instance(
        ProblemSpec(n=8, N=16, L=3, k=3, rank=3, matrix_kind="gaussian", seed=3)
    )
    Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    phi = inst.problem.A.entries
    rotated = MmvProblem(
        A=MeasurementMatrix.from_entries(Q @ phi), B=Q @ inst.problem.B, epsilon=0.0
    )
    s0 = music_scores(inst.problem, 3)
    s1 = music_scores(rotated, 3)
    assert np.abs(s0 - s1).max() <= 1e-10


def test_channel_mixing_invariance():
    rng = np.random.default_rng(27)
    inst = gen_instance(
        ProblemSpec(n=10, N=20, L=4, k=3, rank=3, matrix_kind="gaussian", seed=8)
    )
    while True:
        M = rng.standard_normal((4, 4))
        if np.linalg.cond(M) < 1e6:
            break
    mixed = MmvProblem(A=inst.problem.A, B=inst.problem.B @ M, epsilon=0.0)
    r0 = music_support(inst.problem, 3)
    r1 = music_support(mixed, 3)
    assert r0.rank == r1.rank
    # the signal-subspace projector is invariant under channel mixing, so
    # the scores agree as values (ordering can only flip on exact ties)
    assert np.abs(r0.scores - r1.scores).max() <= 1e-10
    assert r0.support == r1.support


def test_support_validates_k():
    inst = gen_instance(ProblemSpec(n=6, N=12, L=2, k=2, rank=2, seed=0))
    with pytest.raises(InvalidArgumentError):
        music_support(inst.problem, 0)
    with pytest.raises(InvalidArgumentError):
        music_support(inst.problem, 12)


def test_support_is_the_stable_argsort_of_the_scores_under_ties():
    # repeated integer columns and zero data make many scores tie exactly
    rng = np.random.default_rng(31)
    for trial in range(12):
        n, N = 5, int(rng.integers(6, 16))
        pool = rng.integers(-2, 3, size=(n, 3)).astype(float)
        pool[:, 0] += 3.0  # no zero column
        phi = pool[:, rng.integers(0, 3, size=N)]
        phi[:, rng.random(N) < 0.3] *= -1.0
        B = np.zeros((n, 2)) if trial % 3 == 0 else phi[:, :2] @ rng.standard_normal((2, 2))
        problem = MmvProblem(A=MeasurementMatrix.from_entries(phi), B=B, epsilon=0.0)
        for k in range(1, N):
            res = music_support(problem, k)
            want = np.sort(np.argsort(res.scores, kind="stable")[:k])
            assert tuple(res.support) == tuple(want.tolist())


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 2.5, 0])
def test_support_and_scores_reject_a_count_that_is_no_positive_integer(value):
    inst = gen_instance(ProblemSpec(n=6, N=12, L=2, k=2, rank=2, seed=0))
    with pytest.raises(InvalidArgumentError, match=f"k .*got {value!r}"):
        music_support(inst.problem, value)
    with pytest.raises(InvalidArgumentError, match=f"r .*got {value!r}"):
        music_scores(inst.problem, value)


def test_scores_near_the_subspace_match_the_residual_oracle():
    # columns at known distances from the signal subspace span(Q[:, :3]):
    # phi_j = Q a_j + d_j w_j with a_j a unit vector in the subspace and w_j
    # a unit vector orthogonal to it, so score_j = d_j / sqrt(1 + d_j^2).
    # Near the subspace 1 - ||U_s^T phi_j||^2 / ||phi_j||^2 cancels to
    # ~1e-16, a score error of ~1e-8 at d = 1e-10; the scores must still
    # match the least-squares residual, relative to ||phi_j||, within 1e-12.
    rng = np.random.default_rng(41)
    n, r = 12, 3
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    distances = np.array([1e-10, 1e-6, 1e-3, 0.1, 0.5, 2.0])
    a = rng.standard_normal((r, distances.size))
    a /= np.linalg.norm(a, axis=0)
    w = Q[:, r:] @ rng.standard_normal((n - r, distances.size))
    w /= np.linalg.norm(w, axis=0)
    phi = np.hstack([Q[:, :r] @ a + distances * w, rng.standard_normal((n, 10))])
    B = Q[:, :r] @ rng.standard_normal((r, 4))
    problem = MmvProblem(A=MeasurementMatrix.from_entries(phi), B=B, epsilon=0.0)
    scores = music_scores(problem, r)
    Us = np.linalg.svd(B)[0][:, :r]
    for j in range(phi.shape[1]):
        coef = np.linalg.lstsq(Us, phi[:, j], rcond=None)[0]
        oracle = np.linalg.norm(phi[:, j] - Us @ coef) / np.linalg.norm(phi[:, j])
        assert abs(scores[j] - oracle) <= 1e-12
    exact = distances / np.sqrt(1.0 + distances**2)
    assert np.abs(scores[: distances.size] - exact).max() <= 1e-12
    assert music_support(problem, 2).support == SupportSet((0, 1))


def scaled_problem(scale):
    rng = np.random.default_rng(0)
    phi = rng.standard_normal((20, 50))
    X = np.zeros((50, 2))
    X[[3, 9]] = rng.standard_normal((2, 2))
    # MeasurementMatrix skips the certificate, whose Gram product overflows
    return MmvProblem(A=MeasurementMatrix(scale * phi), B=scale * (phi @ X), epsilon=0.0)


# at 1e-200 every squared column norm underflows to 0, at 1e-156 to a
# subnormal, and at 1e160 and 1e200 it overflows: the scores are taken on
# phi over its largest entry, with no warning
@pytest.mark.parametrize("scale", [1e-200, 1e-156, 1e160, 1e200])
def test_support_and_scores_do_not_depend_on_an_extreme_operator_scale(scale):
    base = music_support(scaled_problem(1.0), 2)
    got = music_support(scaled_problem(scale), 2)
    assert got.rank == base.rank == 2
    assert got.support == base.support == SupportSet((3, 9))
    assert np.abs(got.scores - base.scores).max() <= 1e-15
