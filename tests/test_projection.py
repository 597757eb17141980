import numpy as np
import pytest

from mmvsolve import (
    FeasibilityProjector,
    InfeasibleProblemError,
    InvalidArgumentError,
    MeasurementMatrix,
    MmvProblem,
    project_feasible,
)
from mmvsolve import nesta


def bisection_oracle(phi, B, eps, q, width=1e-12):
    """Independent route: bisection on the multiplier, dense N x N solves."""
    N = phi.shape[1]
    gram = phi.T @ phi

    def alpha_of(lam):
        return np.linalg.solve(np.eye(N) + lam * gram, q + lam * (phi.T @ B))

    def excess(lam):
        return np.linalg.norm(phi @ alpha_of(lam) - B) - eps

    lo, hi = 0.0, 1.0
    while excess(hi) > 0:
        hi *= 2.0
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
    return alpha_of(0.5 * (lo + hi))


def problem_of(phi, B, eps, orthonormal=False):
    """The problem (phi, B, eps); an orthonormal phi is certified with c = 1
    exactly, any other is left uncertified."""
    if orthonormal:
        A = MeasurementMatrix(phi, row_orthonormal=True, row_gram_scale=1.0)
    else:
        A = MeasurementMatrix(phi)
    return MmvProblem(A=A, B=B, epsilon=eps)


def random_cases(count, seed, orthonormal):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 11))
        N = int(rng.integers(n + 1, 21))
        L = int(rng.integers(1, 5))
        phi = rng.standard_normal((n, N))
        if orthonormal:
            Q, _ = np.linalg.qr(phi.T)
            phi = Q.T
        B = rng.standard_normal((n, L))
        eps = float(rng.uniform(0.1, 1.0))
        q = rng.standard_normal((N, L))
        if np.linalg.norm(phi @ q - B) <= eps:
            q = q * (3.0 * np.linalg.norm(B) / max(np.linalg.norm(phi @ q - B), 1e-9))
        yield phi, B, eps, q


def test_feasible_point_returned_unchanged():
    rng = np.random.default_rng(0)
    phi = rng.standard_normal((3, 8))
    B = rng.standard_normal((3, 2))
    proj = FeasibilityProjector(problem_of(phi, B, 1e9))
    q = rng.standard_normal((8, 2))
    assert proj(q) is q
    assert proj.basis_correction(proj.operator @ q - proj.data) is None


def test_exact_affine_projection_with_orthonormal_rows():
    rng = np.random.default_rng(1)
    raw = rng.standard_normal((4, 9))
    Q, _ = np.linalg.qr(raw.T)
    phi = Q.T
    B = rng.standard_normal((4, 2))
    q = rng.standard_normal((9, 2))
    proj = FeasibilityProjector(problem_of(phi, B, 0.0, orthonormal=True))
    out = proj(q)
    assert np.allclose(out, q - phi.T @ (phi @ q - B), atol=1e-13)
    assert np.linalg.norm(phi @ out - B) <= 1e-12


def test_projection_matches_bisection_oracle():
    for orthonormal, seed in ((True, 10), (False, 20)):
        for phi, B, eps, q in random_cases(15, seed, orthonormal):
            out = FeasibilityProjector(problem_of(phi, B, eps, orthonormal))(q)
            res = np.linalg.norm(phi @ out - B)
            assert eps - 1e-9 <= res <= eps + 1e-9
            ref = bisection_oracle(phi, B, eps, q)
            assert np.abs(out - ref).max() <= 1e-8


def test_multiplier_newton_steps_are_few_and_never_capped():
    # Newton on 1/sqrt(psi) - 1/eps is nearly linear in the multiplier and
    # takes 3-5 steps on these cases; Newton on psi - eps^2 takes 7-17
    for phi, B, eps, q in random_cases(15, 20, orthonormal=False):
        proj = FeasibilityProjector(problem_of(phi, B, eps))
        out = proj(q)
        assert np.abs(out - bisection_oracle(phi, B, eps, q)).max() <= 1e-8
        assert 1 <= proj.newton_steps <= 6
        assert proj.newton_cap_hits == 0


def test_multiplier_cap_hit_is_counted(monkeypatch):
    phi, B, eps, q = next(random_cases(1, 20, orthonormal=False))
    monkeypatch.setattr(nesta, "MULTIPLIER_MAX_STEPS", 1)
    proj = FeasibilityProjector(problem_of(phi, B, eps))
    proj(q)
    assert proj.newton_steps == 1
    assert proj.newton_cap_hits == 1


def test_correction_gives_the_projected_image():
    # in the projector's basis, q - operator^T v is the projection and G v
    # the change of its image, for both paths
    for orthonormal, seed in ((True, 70), (False, 80)):
        for phi, B, eps, q in random_cases(6, seed, orthonormal):
            proj = FeasibilityProjector(problem_of(phi, B, eps, orthonormal))
            for point in (q, 3.0 * q):
                vt, gvt = proj.basis_correction(proj.operator @ point - proj.data)
                assert np.abs((point - (vt.T @ proj.operator).T) - proj(point)).max() <= 1e-12
                assert np.abs(gvt - proj.operator @ (proj.operator.T @ vt)).max() <= 1e-12


def test_project_images_leaves_feasible_points_alone():
    # a batch projection moves neither a feasible point nor its tracked image
    rng = np.random.default_rng(2)
    phi = rng.standard_normal((3, 8))
    B = rng.standard_normal((3, 2))
    proj = FeasibilityProjector(problem_of(phi, B, 1e9))
    q = rng.standard_normal((8, 2))
    image = proj.operator @ q
    assert proj.basis_correction(image - proj.data) is None
    batch, _ = nesta._Batch.of([proj], [0.1], None)
    points = [q[None].copy(), q[None].copy()]
    images = [image[None].copy(), image[None].copy()]
    batch.project(points, images)
    for point, point_image in zip(points, images):
        assert np.array_equal(point[0], q)
        assert np.array_equal(point_image[0], image)


def test_projection_optimality_against_sampled_feasible_points():
    rng = np.random.default_rng(33)
    phi = rng.standard_normal((4, 10))
    B = rng.standard_normal((4, 2))
    eps = 0.4
    proj = FeasibilityProjector(problem_of(phi, B, eps))
    q = 5.0 * rng.standard_normal((10, 2))
    out = proj(q)
    dist = np.linalg.norm(out - q)
    for _ in range(1000):
        z = proj(rng.standard_normal((10, 2)) * rng.uniform(0.1, 4.0))
        assert np.linalg.norm(phi @ z - B) <= eps + 1e-9
        assert dist <= np.linalg.norm(z - q) + 1e-9


def test_projection_idempotent():
    for orthonormal, seed in ((True, 40), (False, 50)):
        for phi, B, eps, q in random_cases(8, seed, orthonormal):
            proj = FeasibilityProjector(problem_of(phi, B, eps, orthonormal))
            once = proj(q)
            twice = proj(once)
            assert np.abs(twice - once).max() <= 1e-12


@pytest.mark.parametrize("eps", [0.0, 0.5])
def test_infeasible_exact_problem_raises(eps):
    # B has a component of length 1 outside the range of phi, so no point
    # is within eps < 1 of it; building the projector raises
    phi = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]).T  # 3 x 2
    with pytest.warns(UserWarning):
        A = MeasurementMatrix.from_entries(phi)
    B = np.array([[0.0], [0.0], [1.0]])
    with pytest.raises(InfeasibleProblemError) as built:
        FeasibilityProjector(MmvProblem(A=A, B=B, epsilon=eps))
    with pytest.raises(InfeasibleProblemError) as wrapped:
        project_feasible(np.zeros((2, 1)), MmvProblem(A=A, B=B, epsilon=eps))
    assert str(wrapped.value) == str(built.value)
    assert A.n == 3


def test_project_feasible_wrapper_uses_problem_radius():
    rng = np.random.default_rng(60)
    raw = rng.standard_normal((3, 7))
    Q, _ = np.linalg.qr(raw.T)
    A = MeasurementMatrix(Q.T, row_orthonormal=True, row_gram_scale=1.0)
    B = rng.standard_normal((3, 2))
    problem = MmvProblem(A=A, B=B, epsilon=0.25)
    q = 10.0 * rng.standard_normal((7, 2))
    out = project_feasible(q, problem)
    assert np.linalg.norm(A.entries @ out - B) == pytest.approx(0.25, abs=1e-10)
    out0 = project_feasible(q, MmvProblem(A=A, B=B, epsilon=0.0))
    assert np.linalg.norm(A.entries @ out0 - B) <= 1e-10


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("certified", [True, False])
def test_projector_rejects_non_finite_or_negative_radius(eps, certified):
    phi = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    B = np.ones((2, 1))
    with pytest.raises(InvalidArgumentError, match=f"epsilon .*got {eps!r}"):
        FeasibilityProjector(problem_of(phi, B, eps, certified))


def test_projector_takes_its_certificate_and_radius_from_the_problem():
    # an uncertified problem gets the general path, whatever its operator,
    # and a certified one the closed form with the certificate's c: a loose
    # c = 2 once left this point at residual 186 from a ball of radius 0.5
    rng = np.random.default_rng(0)
    phi = rng.standard_normal((8, 20))
    B = rng.standard_normal((8, 2))
    q = rng.standard_normal((20, 2))
    proj = FeasibilityProjector(MmvProblem(A=phi, B=B, epsilon=0.5))
    assert proj.gram_scale is None and proj.eps == 0.5
    assert np.linalg.norm(phi @ proj(q) - B) == pytest.approx(0.5, abs=1e-9)
    rows = np.sqrt(2.0) * np.linalg.qr(phi.T)[0].T
    certified = MmvProblem(A=MeasurementMatrix.from_entries(rows), B=B, epsilon=0.5)
    proj = FeasibilityProjector(certified)
    assert proj.gram_scale == certified.A.row_gram_scale == pytest.approx(2.0, rel=1e-14)
    assert np.linalg.norm(rows @ proj(q) - B) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("certified", [True, False])
def test_projector_rejects_a_radius_set_after_the_problem_was_built(certified):
    phi = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    problem = problem_of(phi, np.ones((2, 1)), 0.5, certified)
    problem.epsilon = -1.0
    with pytest.raises(InvalidArgumentError, match="epsilon .*got -1.0"):
        FeasibilityProjector(problem)
