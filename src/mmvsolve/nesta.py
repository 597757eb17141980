"""Accelerated first-order solver for joint-sparse recovery over a noise ball.

The solver minimizes the Huber-smoothed joint-sparsity objective over the
feasible set {alpha : ||phi alpha - B||_F <= eps}, phi = A Psi, using
Nesterov's two-projection scheme. Each iteration takes a gradient-mapped
point

    y_k = P(alpha_k - mu * grad f(alpha_k)),

a weighted-history point anchored at the prox center alpha_0,

    z_k = P(alpha_0 - mu * sum_{i<=k} (i+1)/2 * grad f(alpha_i)),

and combines them as alpha_{k+1} = tau_k z_k + (1 - tau_k) y_k with
tau_k = 2 / (k + 3). The step length mu is exactly the inverse of the
smoothed gradient's Lipschitz constant. A continuation loop solves a short
sequence of problems with geometrically decreasing smoothing, warm-starting
each stage from the previous stage's y and re-anchoring the prox center
there; without that reset the z-step drags toward a stale anchor and the
later stages stall.

An iteration makes two products with phi. The state carries the images
phi alpha_k, phi alpha_0 and phi sum_i (i+1)/2 grad f(alpha_i), so one
forward product phi grad f(alpha_k) gives the images of both points to
project by linearity. The projector turns each residual outside the ball
into a correction (v, G v) with G = phi phi^T, moving q to q - phi^T v and
its image to phi q - G v; one fused phi^T product serves both points, and
the projected images need no product at all. The tracked images are
recomputed exactly at each stage start and every REFRESH_EVERY iterations.
Inputs are validated and the trusted-row mask is built once per stage.

An outer refinement loop alternates full solves with hard-threshold support
updates: rows the threshold keeps become trusted (unpenalized) in the next
solve, optionally seeded by MUSIC subspace detection.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    InfeasibleProblemError,
    InvalidArgumentError,
    SupportSet,
    as_matrix,
    hard_threshold_rows,
    row_norms,
    row_support,
)
from .music import _rank_and_scores
from .smoothing import SmoothingConfig, huber_gradient, huber_objective, trusted_rows

# Continuation constants: first stage smoothing as a fraction of the data
# scale max_j ||(phi^T B)(j,:)||_2, and the default final smoothing.
MU0_FACTOR = 0.9
MU_FINAL_FACTOR = 1e-4

# Rows of the final iterate above this fraction of the largest row norm
# count as detected support. Smoothing leaves spurious rows at roughly the
# mu_final level, well below this cut for any successful recovery.
DETECT_REL_TOL = 1e-3

# A stage whose objective falls below this fraction of the data scale is
# converged outright; relative-variation tests are meaningless at the level
# of accumulated rounding noise.
OBJECTIVE_FLOOR_FACTOR = 1e-14

# Iterations between exact recomputations of the products with phi that a
# stage otherwise tracks by linearity, so rounding drift cannot build up.
REFRESH_EVERY = 100

# Newton steps allowed per multiplier solve on the general projector path.
MULTIPLIER_MAX_STEPS = 200


@dataclass(frozen=True)
class NestaConfig:
    """Solver knobs: feasibility radius override, continuation and stopping.

    ``epsilon`` and ``mu_final`` default to the problem's radius and to
    MU_FINAL_FACTOR times the data scale. A stage stops once the relative
    spread of the objective over the last ``stop_window`` iterations drops
    below ``stop_tol``, or at ``max_inner_iters``.
    """

    epsilon: float | None = None
    mu_final: float | None = None
    continuation_stages: int = 4
    max_inner_iters: int = 5000
    stop_window: int = 10
    stop_tol: float = 1e-7

    def __post_init__(self):
        if self.epsilon is not None and self.epsilon < 0:
            raise InvalidArgumentError("epsilon must be nonnegative")
        if self.mu_final is not None and self.mu_final <= 0:
            raise InvalidArgumentError("mu_final must be positive")
        if self.continuation_stages < 1:
            raise InvalidArgumentError("continuation_stages must be >= 1")
        if self.max_inner_iters < 1:
            raise InvalidArgumentError("max_inner_iters must be >= 1")
        if self.stop_window < 2:
            raise InvalidArgumentError("stop_window must be >= 2")
        if self.stop_tol <= 0:
            raise InvalidArgumentError("stop_tol must be positive")


@dataclass(eq=False)
class NestaState:
    """One solver iterate: counter, points, gradient history, trace.

    The last four fields belong to the running stage and are filled by its
    first :func:`nesta_step`: the images ``phi @ alpha``, ``phi @ prox_center``
    and ``phi @ grad_accum``, tracked by linearity, and the trusted-row mask
    of the stage's smoothing config (None when no row is trusted).
    """

    k: int
    alpha: np.ndarray
    y: np.ndarray
    z: np.ndarray
    prox_center: np.ndarray
    grad_accum: np.ndarray
    objective_trace: list
    phi_alpha: np.ndarray | None = None
    phi_prox: np.ndarray | None = None
    phi_accum: np.ndarray | None = None
    trusted: np.ndarray | None = None


@dataclass(eq=False)
class RecoveryReport:
    """Outcome of a solver run. ``estimate`` is in the signal domain.

    ``objective_trace`` concatenates all continuation stages (and outer
    passes); ``stage_iterations`` records the per-stage segment lengths.
    """

    estimate: np.ndarray
    inner_iterations: int
    outer_iterations: int
    final_residual: float
    final_objective: float
    detected_support: SupportSet
    objective_trace: list
    wall_time: float
    converged: bool
    stage_iterations: list = field(default_factory=list)


class FeasibilityProjector:
    """Euclidean projection onto {alpha : ||phi alpha - B||_F <= eps}.

    Feasible points are returned unchanged (same array). A point q with
    residual r = phi q - B outside the ball moves to q - phi^T v, whose
    image is phi q - G v with G = phi phi^T; :meth:`correction` gives the
    pair (v, G v) from r alone, so a caller that tracks phi q by linearity
    gets the projected image without another product with phi.
    :func:`nesta_step` does so, and recomputes its tracked images exactly
    every REFRESH_EVERY iterations to drop the rounding drift.

    With a certified phi phi^T = c I the projection is the closed-form radial
    shrink v = (1 - eps/||r||) r / c, G v = c v. Otherwise a single symmetric
    eigendecomposition G = V diag(d) V^T is taken here and reused by every
    call; v = V diag(lam / (1 + lam d)) V^T r, where the Lagrange multiplier
    lam solves the secular equation psi(lam) = eps^2 with
    psi(lam) = sum_i w_i / (1 + lam d_i)^2 and w = squared row norms of V^T r.
    Newton's method runs on the equivalent 1/sqrt(psi(lam)) - 1/eps = 0,
    which is nearly linear in lam (Moré & Sorensen's form of the
    trust-region secular equation); from lam = 0 it takes 2-3 steps on the
    solver's projections, where Newton on psi itself needs 21-45.
    ``newton_steps`` and ``newton_cap_hits`` count the steps taken and the
    solves stopped at MULTIPLIER_MAX_STEPS without meeting the tolerance.
    """

    def __init__(self, phi, B, eps, gram_scale=None):
        self.phi = phi
        self.B = B
        self.eps = float(eps)
        if self.eps < 0:
            raise InvalidArgumentError("eps must be nonnegative")
        self.gram_scale = gram_scale
        self.newton_steps = 0
        self.newton_cap_hits = 0
        if gram_scale is None:
            gram = phi @ phi.T
            evals, evecs = np.linalg.eigh(gram)
            evals = np.maximum(evals, 0.0)
            self._evals = evals
            self._evecs = evecs
            top = evals.max()
            self._live = evals > 1e-12 * top if top > 0 else np.zeros_like(evals, bool)

    def residual_norm(self, q):
        return float(np.linalg.norm(self.phi @ q - self.B))

    def __call__(self, q):
        (out,), _ = self.project_images([q], [self.phi @ q])
        return out

    def project_images(self, points, images):
        """Project points whose images ``phi @ q`` are given; returns both lists.

        Every point that moves shares one product with phi^T; feasible points
        and their images come back unchanged (same arrays).
        """
        points, images = list(points), list(images)
        moved, vs = [], []
        for i, image in enumerate(images):
            corr = self.correction(image - self.B)
            if corr is not None:
                moved.append(i)
                vs.append(corr[0])
                images[i] = image - corr[1]
        if moved:
            # (v^T phi)^T: one GEMM over all moved points, no copy of phi^T
            back = (np.concatenate(vs, axis=1).T @ self.phi).T
            width = back.shape[1] // len(moved)
            for j, i in enumerate(moved):
                points[i] = points[i] - back[:, j * width : (j + 1) * width]
        return points, images

    def correction(self, r):
        """(v, G v) moving a point with residual r onto the ball; None if inside."""
        flat = r.ravel()
        rho = math.sqrt(flat.dot(flat))
        if rho <= self.eps:
            return None
        if self.gram_scale is not None:
            shrink = 1.0 - self.eps / rho
            return (shrink / self.gram_scale) * r, shrink * r
        return self._correction_general(r)

    # -- general-operator path -----------------------------------------

    def _correction_general(self, r):
        rt = self._evecs.T @ r
        w = (rt * rt).sum(axis=1)
        d = self._evals
        live = self._live
        w_null = float(w[~live].sum())
        attainable = np.sqrt(w_null)

        if self.eps == 0.0:
            if attainable > 1e-9 * max(1.0, float(np.linalg.norm(self.B))):
                raise InfeasibleProblemError(
                    "exact consistency demanded but the data has components "
                    "outside the range of the operator"
                )
            coeff = np.where(live, 1.0 / np.where(live, d, 1.0), 0.0)
        elif attainable >= self.eps:
            if attainable > self.eps * (1.0 + 1e-9):
                raise InfeasibleProblemError(
                    f"feasible set is empty: best attainable residual "
                    f"{attainable:g} exceeds eps = {self.eps:g}"
                )
            # boundary case: land on the residual-minimizing affine set
            coeff = np.where(live, 1.0 / np.where(live, d, 1.0), 0.0)
        else:
            lam = self._solve_multiplier(w[live], d[live], w_null)
            coeff = lam / (1.0 + lam * d)
        v = self._evecs @ (coeff[:, None] * rt)
        gv = self._evecs @ ((d * coeff)[:, None] * rt)
        return v, gv

    def _solve_multiplier(self, w, d, w_null):
        lam = 0.0
        for _ in range(MULTIPLIER_MAX_STEPS):
            den = 1.0 + lam * d
            psi = float((w / den**2).sum()) + w_null
            root = math.sqrt(psi)
            if abs(root - self.eps) <= 1e-13 * max(1.0, self.eps):
                return lam
            # Newton on f(lam) = psi^(-1/2) - 1/eps, f' = -psi' / (2 psi^(3/2))
            dpsi = -2.0 * float((w * d / den**3).sum())
            lam = max(0.0, lam + 2.0 * psi * (1.0 - root / self.eps) / dpsi)
            self.newton_steps += 1
        self.newton_cap_hits += 1
        return lam


def _build_projector(problem, epsilon=None):
    """The projector onto the problem's ball, closed form when phi is certified."""
    eps = problem.epsilon if epsilon is None else epsilon
    A = problem.A
    scale = A.row_gram_scale if A.row_orthonormal else None
    return FeasibilityProjector(problem.phi, problem.B, eps, gram_scale=scale)


def project_feasible(q, problem, epsilon=None):
    """Project q onto the problem's data-consistency ball (one-shot helper).

    Solvers build one :class:`FeasibilityProjector` and reuse it; this
    convenience wrapper pays the factorization on every call.
    """
    return _build_projector(problem, epsilon)(q)


def initial_state(alpha0):
    """Fresh solver state anchored at alpha0 (also the prox center)."""
    alpha0 = np.array(alpha0, dtype=float)
    return NestaState(
        k=0,
        alpha=alpha0,
        y=alpha0,
        z=alpha0,
        prox_center=alpha0,
        grad_accum=np.zeros_like(alpha0),
        objective_trace=[],
    )


def nesta_step(state, problem, smoothing, cfg=None, projector=None):
    """Advance the solver by one iteration; returns the new state.

    Weights follow the accelerated scheme exactly: history weight
    (k+1)/2 at iteration k, combination factor tau_k = 2/(k+3). The
    objective at the new y is appended to the trace (a list shared
    with the input state).

    The step makes two products with phi: ``phi @ grad``, from which the
    images of both points to project follow by linearity, and one fused
    ``phi^T`` product for the points that leave the ball. The first step
    of a stage validates the iterate, builds the trusted-row mask and
    computes the tracked images exactly; every REFRESH_EVERY iterations
    the drifting ones are recomputed.
    """
    if projector is None:
        projector = _build_projector(problem, None if cfg is None else cfg.epsilon)
    phi = problem.phi
    k = state.k
    if state.phi_alpha is None:
        n_rows = as_matrix(state.alpha, "coefficients").shape[0]
        trusted = trusted_rows(smoothing.known_support, n_rows)
        phi_prox = phi @ state.prox_center
    else:
        trusted, phi_prox = state.trusted, state.phi_prox
    if state.phi_alpha is None or k % REFRESH_EVERY == 0:
        phi_alpha, phi_accum = phi @ state.alpha, phi @ state.grad_accum
    else:
        phi_alpha, phi_accum = state.phi_alpha, state.phi_accum

    mu = smoothing.mu
    grad = huber_gradient(state.alpha, smoothing, trusted)
    phi_grad = phi @ grad
    weight = 0.5 * (k + 1)
    grad_accum = state.grad_accum + weight * grad
    phi_accum = phi_accum + weight * phi_grad
    (y, z), (phi_y, phi_z) = projector.project_images(
        [state.alpha - mu * grad, state.prox_center - mu * grad_accum],
        [phi_alpha - mu * phi_grad, phi_prox - mu * phi_accum],
    )
    tau = 2.0 / (k + 3)
    trace = state.objective_trace
    trace.append(huber_objective(y, smoothing, trusted))
    return NestaState(
        k=k + 1,
        alpha=tau * z + (1.0 - tau) * y,
        y=y,
        z=z,
        prox_center=state.prox_center,
        grad_accum=grad_accum,
        objective_trace=trace,
        phi_alpha=tau * phi_z + (1.0 - tau) * phi_y,
        phi_prox=phi_prox,
        phi_accum=phi_accum,
        trusted=trusted,
    )


def _run_stage(x0, problem, smoothing, cfg, projector, floor=0.0):
    """Iterate at fixed smoothing until the windowed objective flattens."""
    state = initial_state(x0)
    for _ in range(cfg.max_inner_iters):
        state = nesta_step(state, problem, smoothing, cfg, projector)
        trace = state.objective_trace
        if len(trace) >= cfg.stop_window:
            window = trace[-cfg.stop_window :]
            spread = max(window) - min(window)
            level = abs(sum(window) / len(window))
            if spread <= cfg.stop_tol * max(level, 1e-30) or max(window) <= floor:
                return state, True
    return state, False


def _zero_data_report(problem, eps, t0):
    alpha = np.zeros((problem.N, problem.L))
    resid = float(np.linalg.norm(problem.B))
    if resid > eps:
        raise InfeasibleProblemError(
            "measurements are orthogonal to the operator range and exceed "
            "the noise radius"
        )
    return RecoveryReport(
        estimate=problem.signal_from_coefficients(alpha),
        inner_iterations=0,
        outer_iterations=1,
        final_residual=resid,
        final_objective=0.0,
        detected_support=SupportSet(),
        objective_trace=[],
        wall_time=time.perf_counter() - t0,
        converged=True,
    )


def nesta_solve(problem, smoothing=None, cfg=None):
    """Solve one joint-sparse recovery problem with continuation.

    The smoothing config supplies the aggregator and any trusted support;
    its mu is managed by the continuation schedule, which runs
    ``continuation_stages`` geometric steps from MU0_FACTOR times the data
    scale down to ``mu_final``. The returned estimate is the last
    gradient-mapped point y (always feasible), mapped through Psi.
    """
    t0 = time.perf_counter()
    smoothing = SmoothingConfig() if smoothing is None else smoothing
    cfg = NestaConfig() if cfg is None else cfg
    eps = problem.epsilon if cfg.epsilon is None else cfg.epsilon
    smoothing.known_support.validate_for(problem.N)

    phi = problem.phi
    corr = phi.T @ problem.B
    scale = float(row_norms(corr, 2).max())
    if scale == 0.0:
        return _zero_data_report(problem, eps, t0)

    mu_final = MU_FINAL_FACTOR * scale if cfg.mu_final is None else cfg.mu_final
    mu0 = MU0_FACTOR * scale
    if mu_final >= mu0:
        schedule = [mu_final]
    else:
        ratio = (mu_final / mu0) ** (1.0 / cfg.continuation_stages)
        schedule = [mu0 * ratio ** (i + 1) for i in range(cfg.continuation_stages)]

    projector = _build_projector(problem, eps)
    x = projector(corr)
    total_inner = 0
    trace = []
    stage_iters = []
    converged = True
    floor = OBJECTIVE_FLOOR_FACTOR * scale
    for mu in schedule:
        stage_smoothing = replace(smoothing, mu=mu)
        state, stopped = _run_stage(x, problem, stage_smoothing, cfg, projector, floor)
        x = state.y
        total_inner += state.k
        stage_iters.append(state.k)
        trace.extend(state.objective_trace)
        converged = converged and stopped

    alpha_hat = x
    max_row = float(row_norms(alpha_hat, 2).max())
    detected = (
        row_support(alpha_hat, DETECT_REL_TOL * max_row) if max_row > 0 else SupportSet()
    )
    return RecoveryReport(
        estimate=problem.signal_from_coefficients(alpha_hat),
        inner_iterations=total_inner,
        outer_iterations=1,
        final_residual=float(np.linalg.norm(phi @ alpha_hat - problem.B)),
        final_objective=trace[-1] if trace else 0.0,
        detected_support=detected,
        objective_trace=trace,
        wall_time=time.perf_counter() - t0,
        converged=converged,
        stage_iterations=stage_iters,
    )


def _music_seed(problem, k, delta):
    """Conservative trusted-support seed: min(rank, k) best-scored rows."""
    r, scores = _rank_and_scores(problem, delta)
    if r == 0:
        return SupportSet()
    size = min(r, k)
    order = np.argsort(scores, kind="stable")
    return SupportSet(tuple(sorted(int(i) for i in order[:size])))


def _refine_support(alpha, k, mode, cutoff_fraction):
    if mode == "largest-k":
        return hard_threshold_rows(alpha, k)[1]
    if mode == "cutoff":
        norms = row_norms(alpha, 2)
        top = norms.max()
        return row_support(alpha, cutoff_fraction * top) if top > 0 else SupportSet()
    raise InvalidArgumentError(
        f"unknown threshold mode {mode!r}; use 'largest-k' or 'cutoff'"
    )


def iterative_nesta(
    problem,
    k,
    smoothing=None,
    cfg=None,
    use_music=False,
    max_outer=10,
    music_delta=1e-8,
    threshold_mode="largest-k",
    cutoff_fraction=0.1,
):
    """Alternate full solves with hard-threshold support refinement.

    Each pass solves with the current trusted support, thresholds the
    coefficient estimate (keep the k strongest rows, or with
    ``threshold_mode="cutoff"`` every row above ``cutoff_fraction`` of the
    strongest), and repeats until the support stops changing or max_outer
    passes. With ``use_music`` the first pass is seeded by subspace
    detection, sized min(estimated rank, k) since trusted rows are taken
    at face value.
    """
    if int(k) != k or not 1 <= k < problem.N:
        raise InvalidArgumentError(f"k must be an integer in [1, N), got {k!r}")
    k = int(k)
    if max_outer < 1:
        raise InvalidArgumentError("max_outer must be >= 1")
    if not 0 < cutoff_fraction < 1:
        raise InvalidArgumentError("cutoff_fraction must lie in (0, 1)")
    t0 = time.perf_counter()
    base = SmoothingConfig() if smoothing is None else smoothing

    support = _music_seed(problem, k, music_delta) if use_music else SupportSet()
    total_inner = 0
    trace = []
    stage_iters = []
    outer = 0
    stabilized = False
    report = None
    while outer < max_outer:
        stage = replace(base, known_support=support)
        report = nesta_solve(problem, stage, cfg)
        outer += 1
        total_inner += report.inner_iterations
        trace.extend(report.objective_trace)
        stage_iters.extend(report.stage_iterations)
        alpha_hat = problem.coefficients_from_signal(report.estimate)
        new_support = _refine_support(alpha_hat, k, threshold_mode, cutoff_fraction)
        if new_support == support:
            stabilized = True
            break
        support = new_support

    return RecoveryReport(
        estimate=report.estimate,
        inner_iterations=total_inner,
        outer_iterations=outer,
        final_residual=report.final_residual,
        final_objective=report.final_objective,
        detected_support=support,
        objective_trace=trace,
        wall_time=time.perf_counter() - t0,
        converged=stabilized and report.converged,
        stage_iterations=stage_iters,
    )
