"""Accelerated first-order solver for joint-sparse recovery over a noise ball.

The solver minimizes the Huber-smoothed joint-sparsity objective over the
feasible set {alpha : ||phi alpha - B||_F <= eps}, phi = A, using
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

Within a stage the scheme restarts adaptively (function-value restart,
O'Donoghue & Candès, arXiv:1204.3982): when the objective at y_k is higher
than at y_{k-1}, y_k becomes alpha and the prox center, the gradient sum
is zeroed and the momentum counter k returns to 0, exactly as at a stage
start. k therefore counts iterations since the last restart, while the
stage's own iteration count runs on: it drives the stop window, the
REFRESH_EVERY schedule and the report's ``stage_iterations``, and the
report's ``restarts`` counts the restarts.

An iteration makes two products with the operator. The state carries the
images phi alpha_k, phi alpha_0 and phi sum_i (i+1)/2 grad f(alpha_i), so
one forward product phi grad f(alpha_k) gives the images of both points to
project by linearity. The projector turns each residual outside the ball
into a correction (v, G v) with G = phi phi^T, moving q to q - phi^T v and
its image to phi q - G v; one fused phi^T product serves both points, and
the projected images need no product at all. The tracked images are
recomputed exactly at each stage start and every REFRESH_EVERY iterations.
Inputs are validated and the trusted-row mask is built once per stage.

All of this runs in the projector's basis of the data space. For a
certified operator (phi phi^T = c I) that is the given basis. Otherwise it
is the eigenbasis V of G = V diag(d) V^T, taken once per distinct operator:
the data is rotated once to V^T B and the operator to V^T phi, which
leaves the ball unchanged because V is orthogonal, and there the Gram
matrix is diag(d), so the projection is elementwise. The step then makes
its two products with V^T phi and none with V; V only rotates the
residual of a point the projector is called on, and the report's
residual is computed with phi and B themselves.

The iteration runs on arrays with a leading problem axis, so problems of
one shape are solved together (``nesta_solve_batch``): each product with
phi is one stacked product for the whole batch, the continuation stages
run in step, and a problem leaves the batch when its own stop test fires.
Each problem keeps its own momentum counter and restarts on its own
objective. Every operation treats each problem as it would alone, so a
problem's result does not depend on the batch it is in. One stage loop serves
batches of every size, ``nesta_solve``'s batch of one included, and each
of its iterations is one ``nesta_step`` call on the stacked state.

``iterative_nesta`` alternates full solves with hard thresholding: the k
strongest rows of each estimate become trusted (unpenalized) in the next
solve, for at most MAX_OUTER solves. Its first solve trusts no row, or
with MUSIC the min(rank, k) best-scored rows of ``music_support``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (
    SOLVER_ERRORS,
    InfeasibleProblemError,
    InvalidArgumentError,
    MmvProblem,
    SupportSet,
    as_count,
    as_matrix,
    as_real,
    hard_threshold_rows,
    row_norms,
    row_support,
    top_k,
)
from .music import music_support
from .smoothing import SmoothingConfig, huber_gradient, huber_objective, trusted_rows

# Continuation constants: first stage smoothing as a fraction of the data
# scale max_j ||(phi^T B)(j,:)||_2, the default final smoothing, and the
# number of geometric steps between them.
MU0_FACTOR = 0.9
MU_FINAL_FACTOR = 1e-4
CONTINUATION_STAGES = 4

# A stage stops once the relative spread of its objective over the last
# STOP_WINDOW iterations drops below STOP_TOL.
STOP_WINDOW = 10
STOP_TOL = 1e-7

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

# Solve passes allowed to :func:`iterative_nesta` before it stops unconverged.
MAX_OUTER = 10


@dataclass(frozen=True)
class NestaConfig:
    """Solver knobs: final smoothing and stage cap.

    The feasibility radius is the problem's ``epsilon``; for another
    radius, solve ``dataclasses.replace(problem, epsilon=...)``.
    ``mu_final`` defaults to MU_FINAL_FACTOR times the data scale; the
    schedule runs CONTINUATION_STAGES geometric steps down to ``mu_final``.
    A stage stops once the relative spread of the objective over the last
    STOP_WINDOW iterations drops below STOP_TOL, or at ``max_inner_iters``.
    """

    mu_final: float | None = None
    max_inner_iters: int = 5000

    def __post_init__(self):
        if self.mu_final is not None:
            as_real(self.mu_final, "mu_final")
        object.__setattr__(
            self, "max_inner_iters", as_count(self.max_inner_iters, "max_inner_iters")
        )


@dataclass(eq=False)
class NestaState:
    """One solver iterate: counters, points, gradient history, trace.

    ``k`` is the momentum counter, which sets tau_k and the history weight
    (k+1)/2: an int for one problem, one int per slot for a stacked state.
    A stage start sets it to 0, and so does a restart of that slot.
    ``iteration`` counts the stage's iterations, restarts or not, and is
    shared by every slot; it schedules the REFRESH_EVERY recomputations.

    The images of ``alpha``, ``prox_center`` and ``grad_accum`` under the
    projector's ``operator`` (phi in the projector's basis), tracked by
    linearity, and the trusted-row mask of the stage's smoothing config
    (None when no row is trusted) belong to the running stage and are
    filled by its first :func:`nesta_step`.
    """

    k: int | np.ndarray
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
    iteration: int = 0


@dataclass(eq=False)
class RecoveryReport:
    """Outcome of a solver run. ``estimate`` is in the signal domain.

    ``objective_trace`` is a float array that concatenates all continuation
    stages (and outer passes); ``stage_iterations`` records the per-stage
    segment lengths, each counting the stage's iterations across its
    restarts. ``restarts`` is the number of adaptive restarts of the
    accelerated scheme, summed over stages (and passes, and columns for
    the per-channel baseline); 0 for a solver without momentum.
    """

    estimate: np.ndarray
    inner_iterations: int
    outer_iterations: int
    final_residual: float
    final_objective: float
    detected_support: SupportSet
    objective_trace: np.ndarray
    wall_time: float
    converged: bool
    stage_iterations: list = field(default_factory=list)
    restarts: int = 0


class _Eigenbasis:
    """G = phi phi^T = V diag(d) V^T, taken once per operator, and phi in V's basis.

    ``operator`` is V^T phi; in its basis the Gram matrix is diag(d). ``live``
    marks the eigenvalues above 1e-12 of the largest, ``inverse`` is the
    pseudo-inverse of diag(d) on them. Projectors of one phi share one basis.
    """

    def __init__(self, phi):
        evals, self.V = np.linalg.eigh(phi @ phi.T)
        self.d = d = np.maximum(evals, 0.0)
        top = d.max()
        self.live = d > 1e-12 * top if top > 0 else np.zeros_like(d, bool)
        self.null = ~self.live
        self.d_live = d[self.live]
        self.inverse = np.where(self.live, 1.0 / np.where(self.live, d, 1.0), 0.0)
        self.operator = self.V.T @ phi


class FeasibilityProjector:
    """Euclidean projection onto {alpha : ||phi alpha - B||_F <= eps}.

    Feasible points are returned unchanged (same array). A point q with
    residual r = phi q - B outside the ball moves to q - phi^T v, whose
    image is phi q - G v with G = phi phi^T.

    The projector works in a basis of the data space: ``operator`` and
    ``data`` are phi and B written in it, and :meth:`basis_correction`
    gives (v, G v) in that basis from the residual ``operator @ q - data``
    alone, so a caller that tracks its images by linearity gets the
    projected image without another product. :func:`nesta_step` iterates
    there, tracking its images under ``operator`` and recomputing them
    exactly every REFRESH_EVERY iterations to drop the rounding drift.

    With a certified phi phi^T = c I the basis is the given one and the
    projection is the closed-form radial shrink v = (1 - eps/||r||) r / c,
    G v = c v. Otherwise a single symmetric eigendecomposition
    G = V diag(d) V^T is taken here (or shared through ``basis`` by the
    projectors of one phi), and the basis is V's: ``operator`` = V^T phi and
    ``data`` = V^T B. The rotation is orthogonal, so it leaves the ball
    unchanged, and the Gram matrix there is diag(d): with rt = V^T r,
    V^T v = diag(lam / (1 + lam d)) rt, elementwise, where the Lagrange
    multiplier lam solves the secular equation psi(lam) = eps^2 with
    psi(lam) = sum_i w_i / (1 + lam d_i)^2 and w = squared row norms of rt.
    The ball is empty when the data's component outside the range of phi,
    the rows of ``data`` on the zero eigenvalues, is longer than eps; that
    raises InfeasibleProblemError here, so a projection never raises.
    Newton's method runs on the equivalent 1/sqrt(psi(lam)) - 1/eps = 0,
    which is nearly linear in lam (Moré & Sorensen's form of the
    trust-region secular equation); from lam = 0 it takes 2-3 steps on the
    solver's projections, where Newton on psi itself needs 21-45. V itself
    is used only by ``__call__``, to rotate the residual in.
    ``newton_steps`` and ``newton_cap_hits`` count the steps taken and the
    solves stopped at MULTIPLIER_MAX_STEPS without meeting the tolerance.
    """

    def __init__(self, phi, B, eps, gram_scale=None, basis=None):
        self.phi = phi
        self.B = B
        self.eps = as_real(eps, "eps", zero_ok=True)
        self.gram_scale = gram_scale
        self.newton_steps = 0
        self.newton_cap_hits = 0
        if gram_scale is None:
            self.basis = _Eigenbasis(phi) if basis is None else basis
            self.operator = self.basis.operator
            self.data = self.basis.V.T @ B
            off_range = self.data[self.basis.null]
            attainable = math.sqrt(float((off_range * off_range).sum()))
            if self.eps == 0.0:
                if attainable > 1e-9 * max(1.0, float(np.linalg.norm(B))):
                    raise InfeasibleProblemError(
                        "exact consistency demanded but the data has components "
                        "outside the range of the operator"
                    )
            elif attainable > self.eps * (1.0 + 1e-9):
                raise InfeasibleProblemError(
                    f"feasible set is empty: best attainable residual "
                    f"{attainable:g} exceeds eps = {self.eps:g}"
                )
        else:
            self.basis = None
            self.operator, self.data = phi, B

    def __call__(self, q):
        r = self.phi @ q - self.B
        corr = self.basis_correction(r if self.basis is None else self.basis.V.T @ r)
        if corr is None:
            return q
        # phi^T v = operator^T (V^T v) as (v^T operator)^T, no copy of the
        # operator's transpose
        return q - (corr[0].T @ self.operator).T

    def basis_correction(self, rt):
        """(v, G v) moving a point with residual ``rt`` onto the ball, None if
        inside; all in the projector's basis, so no product with V."""
        flat = rt.ravel()
        rho = math.sqrt(flat.dot(flat))
        if rho <= self.eps:
            return None
        if self.gram_scale is not None:
            shrink = 1.0 - self.eps / rho
            return (shrink / self.gram_scale) * rt, shrink * rt
        coeff = self._coefficients((rt * rt).sum(axis=1))
        return coeff[:, None] * rt, (self.basis.d * coeff)[:, None] * rt

    # -- general-operator path -----------------------------------------

    def _coefficients(self, w):
        """The diagonal of V^T v = diag(coeff) rt, from the squared row norms w of rt."""
        basis = self.basis
        w_null = float(w[basis.null].sum())
        if self.eps == 0.0 or math.sqrt(w_null) >= self.eps:
            # the ball touches the residual-minimizing affine set: land there
            return basis.inverse
        lam = self._solve_multiplier(w[basis.live], basis.d_live, w_null)
        return lam / (1.0 + lam * basis.d)

    def _solve_multiplier(self, w, d, w_null):
        wd = w * d
        lam, den = 0.0, None  # at the start every 1 + lam d_i is exactly 1
        for _ in range(MULTIPLIER_MAX_STEPS):
            psi = float((w if den is None else w / den**2).sum()) + w_null
            root = math.sqrt(psi)
            if abs(root - self.eps) <= 1e-13 * max(1.0, self.eps):
                return lam
            # Newton on f(lam) = psi^(-1/2) - 1/eps, f' = -psi' / (2 psi^(3/2))
            dpsi = -2.0 * float((wd if den is None else wd / den**3).sum())
            lam = max(0.0, lam + 2.0 * psi * (1.0 - root / self.eps) / dpsi)
            den = 1.0 + lam * d
            self.newton_steps += 1
        self.newton_cap_hits += 1
        return lam


def _build_projector(problem, bases=None):
    """The projector onto the problem's ball, closed form when phi is certified.

    ``bases`` maps id(phi) to the eigenbasis of each uncertified operator
    already factored; problems that share one phi array share its entry.
    """
    A, phi = problem.A, problem.phi
    if A.row_orthonormal:
        return FeasibilityProjector(phi, problem.B, problem.epsilon, gram_scale=A.row_gram_scale)
    bases = {} if bases is None else bases
    basis = bases.get(id(phi))
    if basis is None:
        basis = bases[id(phi)] = _Eigenbasis(phi)
    return FeasibilityProjector(phi, problem.B, problem.epsilon, basis=basis)


def project_feasible(q, problem):
    """Project q onto the problem's ball of radius ``problem.epsilon``.

    A one-shot helper: solvers build one :class:`FeasibilityProjector` and
    reuse it, while this wrapper pays the factorization on every call. For
    another radius, pass ``dataclasses.replace(problem, epsilon=...)``.
    """
    return _build_projector(problem)(q)


def initial_state(alpha0):
    """Fresh solver state anchored at alpha0 (also the prox center); a
    stack of iterates (P x N x L) gets one momentum counter per slot."""
    alpha0 = np.array(alpha0, dtype=float)
    return NestaState(
        k=np.zeros(len(alpha0), dtype=int) if alpha0.ndim == 3 else 0,
        alpha=alpha0,
        y=alpha0,
        z=alpha0,
        prox_center=alpha0,
        grad_accum=np.zeros_like(alpha0),
        objective_trace=[],
    )


class _Operators:
    """The operator of every slot of a batch (phi in the slot projector's
    basis), each distinct one stored once.

    ``stack`` holds the distinct operators in decreasing order of slot
    count. Slots that share an operator (the column problems of one ``smv``
    trial) are put in layers: layer j holds the j-th slot of every operator
    that has more than j, so each layer multiplies a prefix of the stack
    and no operator is copied per slot. ``order`` lists the input slots in
    the new slot order.
    """

    def __init__(self, stack, layers, order):
        self.stack = stack
        self.layers = layers
        self.order = order
        # the position in ``stack`` of each slot's operator
        self.index = [j for size in layers for j in range(size)]

    @classmethod
    def of(cls, phis):
        """The operators of slots with the given phis; slots share an
        operator when their phis are the same array."""
        members = {}
        for pos, phi in enumerate(phis):
            members.setdefault(id(phi), []).append(pos)
        ranked = sorted(members.values(), key=len, reverse=True)
        layers = [sum(len(m) > j for m in ranked) for j in range(len(ranked[0]))]
        order = [m[j] for j, size in enumerate(layers) for m in ranked[:size]]
        distinct = [phis[m[0]] for m in ranked]
        stack = distinct[0][None] if len(distinct) == 1 else np.stack(distinct)
        return cls(stack, layers, order)

    def apply(self, X, left=False):
        """phi @ X for every slot of X (P x N x L), or with ``left`` X @ phi
        for every slot of X (P x m x n): the transpose of phi^T X^T, taken
        this way so that phi^T is never formed.

        Each layer is one stacked product with a prefix of the stack, written
        into one output array, so a batch of one layer (one slot per
        operator, as in every lone solve) makes exactly one ``np.matmul`` call.
        """
        shape = list(X.shape)
        shape[2 if left else 1] = self.stack.shape[2 if left else 1]
        out = np.empty(shape)
        start = 0
        for size in self.layers:
            end = start + size
            ops = self.stack[:size]
            if left:
                np.matmul(X[start:end], ops, out=out[start:end])
            else:
                np.matmul(ops, X[start:end], out=out[start:end])
            start = end
        return out

    def apply_slot(self, j, x):
        """phi @ x for slot j alone, as a stack of one: the product
        :meth:`apply` makes for a batch of that one slot."""
        i = self.index[j]
        return np.matmul(self.stack[i : i + 1], x[None])[0]


class _Batch:
    """Problems that iterate together, stacked along a leading axis.

    Every argument is in slot order; :meth:`of` builds a batch from
    parallel lists in any order. The projectors supply each slot's
    operator, data, radius and projection path, all in the projector's
    basis: phi and B for a certified slot, V^T phi and V^T B for an
    uncertified one, so the images and residuals the step tracks are in
    that basis too. Certified slots take the radial shrink vectorized when
    there are several of them; every other slot, the ``looped`` ones, calls
    its projector's :meth:`~FeasibilityProjector.basis_correction`.
    """

    def __init__(self, operators, projectors, mu, data, smoothing):
        self.operators = operators
        self.projectors = projectors
        self.mu = _per_slot(mu)
        self.data = data
        self.smoothing = smoothing
        self.shrunk = sum(p.gram_scale is not None for p in projectors) > 1
        self.looped = [
            j for j, p in enumerate(projectors) if p.gram_scale is None or not self.shrunk
        ]
        if self.shrunk:
            self.eps = np.array([p.eps for p in projectors])
            self.scale = np.array([p.gram_scale or 1.0 for p in projectors], dtype=float)

    @classmethod
    def of(cls, projectors, mus, smoothing):
        """The batch of the given problems and, per slot, its input position."""
        operators = _Operators.of([p.operator for p in projectors])
        order = operators.order
        projectors = [projectors[i] for i in order]
        mu = np.array([mus[i] for i in order], dtype=float)
        data = np.stack([p.data for p in projectors])
        return cls(operators, projectors, mu, data, smoothing), order

    def project(self, points, images):
        """Project the two points of every slot onto the slot's ball, in place.

        ``points`` holds the stacks of y and z points (P x N x L each) and
        ``images`` their images under each slot's operator (P x n x L). A
        point inside its ball gets a zero correction; one product with the
        operators serves every move and is skipped when no point moved. The
        vectorized shrink is :meth:`FeasibilityProjector.basis_correction`'s,
        operation for operation.
        """
        # the corrections v of each slot's two points side by side, [v_y | v_z],
        # so that one product with the operator moves both
        P, n, L = images[0].shape
        V = np.zeros((P, n, 2, L))
        moved = False
        if self.shrunk:
            r = np.stack(images)
            r -= self.data
            flat = r.reshape(2 * P, 1, n * L)
            rho = np.sqrt(np.matmul(flat, flat.transpose(0, 2, 1))).reshape(2, P)
            out = rho > self.eps
            out[:, self.looped] = False
            moved = out.any()
            shrink = 1.0 - np.divide(self.eps, rho, out=np.ones_like(rho), where=out)
            np.multiply((shrink / self.scale)[..., None, None], r, out=V.transpose(2, 0, 1, 3))
            for image, gv in zip(images, shrink[..., None, None] * r):
                image -= gv
        else:
            r = [image - self.data for image in images]
        for j in self.looped:
            for i in (0, 1):
                corr = self.projectors[j].basis_correction(r[i][j])
                if corr is not None:
                    V[j, :, i] = corr[0]
                    image = images[i][j]
                    image -= corr[1]
                    moved = True
        if moved:
            back = self.operators.apply(V.reshape(P, n, 2 * L).transpose(0, 2, 1), left=True)
            for i, point in enumerate(points):
                point -= back[:, i * L : (i + 1) * L].transpose(0, 2, 1)


def _per_slot(values):
    """One value per slot shaped to broadcast over the stacks; one slot's is
    a plain float, which numpy applies faster."""
    return values[:, None, None] if len(values) > 1 else float(values[0])


def _step(state, batch):
    """One iteration of every slot of ``batch``; the state's arrays are stacks.

    Returns the new state and the objective at each slot's new y. The
    given state is used up: its iterate, gradient sum and their images are
    cleared. :func:`nesta_step` runs every iteration on this step.
    """
    ops = batch.operators
    k = _per_slot(state.k)
    if state.phi_alpha is None:
        trusted = trusted_rows(batch.smoothing.known_support, state.alpha.shape[1])
        phi_prox = ops.apply(state.prox_center)
    else:
        trusted, phi_prox = state.trusted, state.phi_prox
    if state.phi_alpha is None or state.iteration % REFRESH_EVERY == 0:
        phi_alpha, phi_accum = ops.apply(state.alpha), ops.apply(state.grad_accum)
    else:
        phi_alpha, phi_accum = state.phi_alpha, state.phi_accum

    mu = batch.mu
    alpha, grad_accum = state.alpha, state.grad_accum
    # each array of the old iterate is let go once used, before the
    # projection makes its own
    state.alpha = state.grad_accum = state.phi_alpha = state.phi_accum = None
    grad = huber_gradient(alpha, mu, trusted)
    phi_grad = ops.apply(grad)
    weight = 0.5 * (k + 1)
    grad_accum = grad_accum + weight * grad
    phi_accum = phi_accum + weight * phi_grad
    y, z = alpha - mu * grad, state.prox_center - mu * grad_accum
    phi_y, phi_z = phi_alpha - mu * phi_grad, phi_prox - mu * phi_accum
    del alpha, grad, phi_alpha, phi_grad
    batch.project((y, z), (phi_y, phi_z))
    tau = 2.0 / (k + 3)
    objective = huber_objective(y, mu, trusted)
    new = NestaState(
        k=state.k + 1,
        alpha=tau * z + (1.0 - tau) * y,
        y=y,
        z=z,
        prox_center=state.prox_center,
        grad_accum=grad_accum,
        objective_trace=state.objective_trace,
        phi_alpha=tau * phi_z + (1.0 - tau) * phi_y,
        phi_prox=phi_prox,
        phi_accum=phi_accum,
        trusted=trusted,
        iteration=state.iteration + 1,
    )
    return new, objective


def _map_arrays(state, fn):
    """The state with ``fn`` applied to each of its arrays that is set."""
    arrays = [
        None if a is None else fn(a)
        for a in (state.alpha, state.y, state.z, state.prox_center, state.grad_accum)
        + (state.phi_alpha, state.phi_prox, state.phi_accum)
    ]
    k, trace, trusted = fn(np.asarray(state.k)), state.objective_trace, state.trusted
    return NestaState(k, *arrays[:5], trace, *arrays[5:], trusted, state.iteration)


def nesta_step(state, problem, smoothing, projector=None, batch=None):
    """Advance the solver by one iteration; returns the new state.

    Weights follow the accelerated scheme exactly: history weight (k+1)/2
    and combination factor tau_k = 2/(k+3), with k the state's momentum
    counter, taken per slot for a stacked state. Both counters advance by
    one. The step never restarts: :func:`nesta_solve_batch`'s stage loop
    does, between steps. The objective at the new y is appended to the
    trace (a list shared with the input state).

    The step makes two products with the projector's operator (phi, or
    V^T phi for an uncertified phi): ``operator @ grad``, from which the
    images of both points to project follow by linearity, and one fused
    ``operator^T`` product for the points that leave the ball; none with
    V. The first step of a stage builds the trusted-row mask and computes
    the tracked images exactly; every REFRESH_EVERY stage iterations (the
    state's ``iteration``, not k) the drifting ones are recomputed.

    Without ``batch`` this is one problem's step: ``state`` holds one
    iterate, the first step validates it, the projector is built from
    ``problem`` unless given, and a float is appended to the trace. With
    ``batch`` (a ``_Batch``) ``state`` is that batch's stacked state, only
    the two are read, and the objective row of all slots is appended; every
    iteration of every stage of :func:`nesta_solve_batch` is one such call.
    """
    if batch is not None:
        state, objective = _step(state, batch)
        state.objective_trace.append(objective)
        return state
    if projector is None:
        projector = _build_projector(problem)
    batch, _ = _Batch.of([projector], [smoothing.mu], smoothing)
    if state.phi_alpha is None:
        as_matrix(state.alpha, "coefficients")
    new, objective = _step(_map_arrays(state, lambda a: a[None]), batch)
    state.objective_trace.append(float(objective[0]))
    new = _map_arrays(new, lambda a: a[0])
    new.k = int(new.k)
    return new


@dataclass(eq=False)
class _Solve:
    """One problem's progress through :func:`nesta_solve_batch`."""

    problem: MmvProblem
    projector: FeasibilityProjector
    schedule: list
    floor: float
    x: np.ndarray
    trace: np.ndarray = field(default_factory=lambda: np.empty(0))
    stage_iterations: list = field(default_factory=list)
    restarts: int = 0
    converged: bool = True


def _start(problem, smoothing, cfg, bases):
    """A :class:`_Solve` at the projected back-projection of the data, or
    the final report when the data is zero; ``bases`` as in
    :func:`_build_projector`."""
    smoothing.known_support.validate_for(problem.N)
    projector = _build_projector(problem, bases)
    corr = problem.phi.T @ problem.B
    scale = float(row_norms(corr, 2).max())
    if scale == 0.0:
        # B is orthogonal to the range, so the projector found ||B|| within
        # the ball's slack: zero is the answer
        return _zero_data_report(problem)
    mu_final = MU_FINAL_FACTOR * scale if cfg.mu_final is None else cfg.mu_final
    mu0 = MU0_FACTOR * scale
    if mu_final >= mu0:
        schedule = [mu_final]
    else:
        ratio = (mu_final / mu0) ** (1.0 / CONTINUATION_STAGES)
        schedule = [mu0 * ratio ** (i + 1) for i in range(CONTINUATION_STAGES)]
    return _Solve(problem, projector, schedule, OBJECTIVE_FLOOR_FACTOR * scale, projector(corr))


def _restart(state, batch, slots):
    """Restart the given slots of a stacked state at their y, as a stage
    start would: y becomes the iterate and the prox center, the gradient
    sum, its image and k go to 0, and the images of y are computed exactly."""
    ops = batch.operators
    for j in slots:
        state.alpha[j] = state.prox_center[j] = state.y[j]
        state.grad_accum[j] = 0.0
        state.k[j] = 0
        state.phi_alpha[j] = state.phi_prox[j] = ops.apply_slot(j, state.y[j])
        state.phi_accum[j] = 0.0


def _run_stage(solves, stage, smoothing, cfg):
    """Run continuation stage ``stage`` of the given solves as one batch.

    Every solve iterates at its own mu from its last y until the relative
    spread of its objective over the last STOP_WINDOW iterations drops
    below STOP_TOL, its objective falls under its floor, or
    ``max_inner_iters``; it then leaves the batch, so that it iterates
    exactly as often as it would alone. Each iteration is one
    :func:`nesta_step` call on the stacked state, whatever the batch size.
    A solve whose objective at y rises from one iteration to the next is
    restarted there (:func:`_restart`); the stage's iteration count, which
    the stop window and ``stage_iterations`` read, runs on.
    """

    def batch_of(active):
        mus = [s.schedule[stage] for s in active]
        return _Batch.of([s.projector for s in active], mus, smoothing)

    batch, order = batch_of(solves)
    active = [solves[i] for i in order]
    ids = np.asarray(order)  # position in ``solves`` of each slot
    state = initial_state(np.stack([s.x for s in active]))
    width = STOP_WINDOW
    # each objective is written twice, so the last ``width`` of them are
    # always the contiguous rows k % width .. k % width + width - 1
    recent = np.empty((2 * width, len(active)))
    floor = np.array([s.floor for s in active])
    # the state's trace holds the objective rows since the batch last
    # changed; ``epochs`` the (ids, block) of each batch before
    epochs = []
    for _ in range(cfg.max_inner_iters):
        # the step reads neither y nor z: let them go before it makes new ones
        state.y = state.z = None
        # looked up as a module global on every call, so that a rebinding of
        # ``nesta_step`` (a tracer's) sees every iteration
        state = nesta_step(state, None, None, batch=batch)
        it = state.iteration
        objective = state.objective_trace[-1]
        if it > 1:
            rose = objective > recent[(it - 2) % width]
            if rose.any():
                slots = np.flatnonzero(rose)
                for j in slots:
                    active[j].restarts += 1
                _restart(state, batch, slots)
        recent[(it - 1) % width] = recent[(it - 1) % width + width] = objective
        if it < width:
            continue
        # summed oldest first, in the order one problem's test sums it
        window = recent[it % width : it % width + width]
        level = np.abs(np.add.accumulate(window)[-1] / width)
        top = np.maximum.reduce(window)
        spread = top - np.minimum.reduce(window)
        leaving = (spread <= STOP_TOL * np.maximum(level, 1e-30)) | (top <= floor)
        if not leaving.any():
            continue
        epochs.append((ids, np.array(state.objective_trace)))
        for j in np.flatnonzero(leaving):
            active[j].x = state.y[j].copy()
            active[j].stage_iterations.append(it)
        keep = np.flatnonzero(~leaving)
        if not keep.size:
            break
        # rebuilt from the problems' operators once the old batch is gone, so
        # that two operator stacks are never alive at once
        batch = None
        batch, order = batch_of([active[j] for j in keep])
        taken = keep[order]
        active = [active[j] for j in taken]
        ids = ids[taken]
        # y is kept: it is the estimate of a slot that meets the cap next
        state = _map_arrays(state, lambda a: a[taken])
        state.objective_trace = []
        recent, floor = recent[:, taken], floor[taken]
    else:
        if state.objective_trace:
            epochs.append((ids, np.array(state.objective_trace)))
        for j, solve in enumerate(active):
            solve.x = state.y[j].copy()
            solve.stage_iterations.append(state.iteration)
            solve.converged = False
    # each solve's objectives in iteration order, as views of one array: a
    # solve in a block has logged exactly the iterations before that block
    counts = np.zeros(len(solves), dtype=int)
    for ids, block in epochs:
        counts[ids] += len(block)
    starts = np.cumsum(counts) - counts
    values = np.empty(counts.sum())
    before = 0
    for ids, block in epochs:
        values[starts[ids] + before + np.arange(len(block))[:, None]] = block
        before += len(block)
    for solve, piece in zip(solves, np.split(values, starts[1:])):
        solve.trace = np.concatenate([solve.trace, piece])


def _zero_data_report(problem):
    return RecoveryReport(
        estimate=np.zeros((problem.N, problem.L)),
        inner_iterations=0,
        outer_iterations=1,
        final_residual=float(np.linalg.norm(problem.B)),
        final_objective=0.0,
        detected_support=SupportSet(),
        objective_trace=np.empty(0),
        wall_time=0.0,
        converged=True,
    )


def detected_support(alpha):
    """Rows of a coefficient estimate above DETECT_REL_TOL of its largest row."""
    max_row = float(row_norms(alpha, 2).max())
    return row_support(alpha, DETECT_REL_TOL * max_row) if max_row > 0 else SupportSet()


def _report(solve):
    problem, alpha_hat, trace = solve.problem, solve.x, solve.trace
    return RecoveryReport(
        estimate=alpha_hat,
        inner_iterations=sum(solve.stage_iterations),
        outer_iterations=1,
        final_residual=float(np.linalg.norm(problem.phi @ alpha_hat - problem.B)),
        final_objective=float(trace[-1]),
        detected_support=detected_support(alpha_hat),
        objective_trace=trace,
        wall_time=0.0,
        converged=solve.converged,
        stage_iterations=solve.stage_iterations,
        restarts=solve.restarts,
    )


def nesta_solve_batch(problems, smoothing=None, cfg=None):
    """Solve problems of one shape together; one report (or error) each.

    Each problem keeps its own data scale, mu schedule, radius, projector
    and stop decisions, and gets the report :func:`nesta_solve` describes,
    bit for bit the one it would get alone. The continuation stages run in
    step: every problem still in a stage iterates on stacked arrays, with
    two stacked products with phi per iteration, until its own stop test
    removes it from the batch. A problem that fails its setup with one of
    SOLVER_ERRORS (a trusted support out of range, an empty ball) gets the
    error in its place of the returned list and is not iterated; the
    others are not affected. Each report's ``wall_time`` is its share of
    the call's elapsed time, in proportion to inner iterations.
    """
    t0 = time.perf_counter()
    smoothing = SmoothingConfig() if smoothing is None else smoothing
    cfg = NestaConfig() if cfg is None else cfg
    problems = list(problems)
    if len({(p.n, p.N, p.L) for p in problems}) > 1:
        raise InvalidArgumentError("problems solved as one batch must share n, N and L")
    results = [None] * len(problems)
    solves = {}
    bases = {}  # one eigendecomposition per distinct uncertified operator
    for i, problem in enumerate(problems):
        try:
            started = _start(problem, smoothing, cfg, bases)
        except SOLVER_ERRORS as exc:
            results[i] = exc
            continue
        if isinstance(started, RecoveryReport):
            results[i] = started
        else:
            solves[i] = started
    for stage in range(max((len(s.schedule) for s in solves.values()), default=0)):
        _run_stage([s for s in solves.values() if stage < len(s.schedule)], stage, smoothing, cfg)
    for i, solve in solves.items():
        results[i] = _report(solve)

    elapsed = time.perf_counter() - t0
    reports = [r for r in results if isinstance(r, RecoveryReport)]
    total = sum(r.inner_iterations for r in reports)
    for r in reports:
        r.wall_time = elapsed * (r.inner_iterations / total) if total else elapsed / len(reports)
    return results


def nesta_solve(problem, smoothing=None, cfg=None):
    """Solve one joint-sparse recovery problem with continuation.

    The smoothing config supplies any trusted support; its mu is managed
    by the continuation schedule, which runs CONTINUATION_STAGES geometric
    steps from MU0_FACTOR times the data scale down to ``mu_final``; a
    stage stops once the relative spread of its objective over the last
    STOP_WINDOW iterations drops below STOP_TOL. The returned estimate is
    the last gradient-mapped point y (always feasible). This is
    :func:`nesta_solve_batch` on a batch of one; its error is raised.
    """
    (report,) = nesta_solve_batch([problem], smoothing, cfg)
    if isinstance(report, Exception):
        raise report
    return report


def iterative_nesta(problem, k, cfg=None, use_music=False):
    """Alternate full solves with hard-threshold support refinement.

    Each pass solves with the current trusted support and keeps the k
    strongest rows of the coefficient estimate as the next pass's trusted
    support, until the support stops changing or MAX_OUTER passes. With
    ``use_music`` the first pass trusts the min(rank, k) best-scored rows
    of :func:`music_support`, since trusted rows are taken at face value.
    """
    k = as_count(k, "k", below=problem.N)
    t0 = time.perf_counter()

    support = SupportSet()
    if use_music:
        music = music_support(problem, k)
        support = SupportSet._of_sorted(top_k(-music.scores, min(music.rank, k)))
    total_inner = restarts = 0
    traces = []
    stage_iters = []
    outer = 0
    stabilized = False
    report = None
    while outer < MAX_OUTER:
        report = nesta_solve(problem, SmoothingConfig(known_support=support), cfg)
        outer += 1
        total_inner += report.inner_iterations
        restarts += report.restarts
        traces.append(report.objective_trace)
        stage_iters.extend(report.stage_iterations)
        new_support = hard_threshold_rows(report.estimate, k)[1]
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
        objective_trace=np.concatenate(traces),
        wall_time=time.perf_counter() - t0,
        converged=stabilized and report.converged,
        stage_iterations=stage_iters,
        restarts=restarts,
    )
