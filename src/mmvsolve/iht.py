"""Iterative hard thresholding for jointly row-sparse recovery.

Each iteration takes a gradient step on the data-fidelity term and projects
onto the set of matrices with at most k nonzero rows:

    alpha <- H_k(alpha + step * phi^T (B - phi alpha))

where H_k keeps the k rows of largest l2 norm. With step * ||phi||_2^2 < 1
the residual ||B - phi alpha||_F never increases. The fixed step is 0.98
of that stability threshold, with ||phi||_2 exact for a certified operator
(phi phi^T = c I) and a Lanczos estimate (``spectral_norm``) otherwise;
the optional adaptive mode uses the normalized rule (exact step on the
current support, halved until a support change passes the usual
acceptance test). A fixed-step iteration makes one dense product phi^T r,
one ``hard_threshold_rows`` call and the residual on the k kept columns,
B - phi[:, rows] alpha[rows], since alpha is zero off them.

A fixed-step iteration tries a certified least-squares finish (the
debiasing step of Hard Thresholding Pursuit; Foucart, SIAM J. Numer. Anal.
2011) at its start and once its kept rows S have stayed the same for
SETTLED_ITERS iterations: it fits alpha* = lstsq(phi_S, B) and bounds
every later iterate of the plain loop. If the bound proves that H_k keeps
S forever, alpha* is the plain loop's limit, and the solve ends at the
plain step from alpha*, which the proof lets take without a new product
or threshold; otherwise it goes on exactly as before. Each support is
fitted once, and a retry on unchanged rows reuses the fit and the bound's
products. The start try needs only an upper bound on the step, from a
few Lanczos steps: the full ``spectral_norm`` runs only when the start is
not certified.

The iteration starts from the MUSIC support estimate with least-squares
coefficients on it (subspace-augmented thresholding; Kim, Lee & Ye,
"Compressive MUSIC", arXiv:1004.4398). Started from the thresholded
correlation H_k(phi^T B) instead, the iteration can settle on a wrong
support: at a least-squares point on such a support no off-support
gradient row outgrows the kept rows, so no step leaves it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    InvalidArgumentError,
    as_count,
    as_matrix,
    hard_threshold_rows,
    lstsq_rows,
    row_l2,
)
from .music import music_support
from .nesta import RecoveryReport

# Acceptance slack for adaptive steps that change the support.
_ADAPTIVE_C = 0.01

# Iteration stops once the relative iterate change
# ||alpha' - alpha||_F / max(1, ||alpha||_F) falls below this.
STOP_TOL = 1e-8

# A fixed-step iteration tries the certified least-squares finish at a MUSIC
# start and once its kept rows have stayed the same for this many
# consecutive iterations; math.inf turns the finish off, the start try too.
SETTLED_ITERS = 5

# Lanczos steps of the step bound for the start try (see iht_solve).
_BOUND_STEPS = 8

# The finish's off-support bound must stay below its kept-row bound by this
# fraction of the fit's largest kept row norm, against round-off.
_FINISH_MARGIN = 1e-9

# spectral_norm takes its top Ritz value every this many Lanczos steps, and
# treats the Krylov space as invariant once the recurrence's next
# off-diagonal entry falls below this fraction of the largest diagonal one.
_RITZ_CHECK = 4
_INVARIANT = 1e-12


@dataclass(frozen=True)
class IhtConfig:
    """Target row sparsity, iteration cap, and step rule.

    The step is not an option. The fixed step is 0.98 / ||phi||_2^2, with
    ||phi||_2 = sqrt(c) exactly when phi phi^T = c I is certified and the
    Lanczos estimate ``spectral_norm`` otherwise; ``adaptive_step`` swaps
    it for the normalized rule, which chooses every step itself.
    Iteration stops once the relative iterate change
    ||alpha' - alpha||_F / max(1, ||alpha||_F) falls below STOP_TOL, or at
    ``max_iters``. A fixed-step iteration also stops at an accepted
    certified least-squares finish (see ``iht_solve``).
    """

    k: int
    max_iters: int = 2000
    adaptive_step: bool = False

    def __post_init__(self):
        object.__setattr__(self, "k", as_count(self.k, "k"))
        object.__setattr__(self, "max_iters", as_count(self.max_iters, "max_iters"))


def spectral_norm(M, max_iters=50, tol=1e-10):
    """Largest singular value by Lanczos on the smaller Gram matrix of M.

    Runs the three-term Lanczos recurrence on G = M M^T (M^T M when M is
    tall) from the uniform unit vector; a step makes two matrix-vector
    products with M. The estimate is the square root of the top eigenvalue
    of the Lanczos tridiagonal matrix (the top Ritz value), which stays
    below ||M||_2^2 up to round-off. It is taken every _RITZ_CHECK steps;
    with d its change since the previous check and d' the change before
    that, the iteration stops once d, or the remaining error d^2 / d'
    predicted by geometric convergence, is at most ``tol`` relative. It
    also stops after ``max_iters`` steps or once the Krylov space is
    invariant. On 128 x 512 Gaussian operators that takes ~29 steps, to
    ~1e-10 relative. When the largest entry of |M^T v| for the start v
    lies outside (1e-50, 1e50), M is first divided by its largest entry,
    so that no product overflows or underflows. When the uniform vector
    lies in G's null space (every column of a wide M sums to zero, say),
    the recurrence restarts from the largest-norm column of M (row, if M
    is tall), which G never maps to 0. An M that is no nonempty 2-D array
    of numbers, or one with a nan or infinite entry (which always puts
    |M^T v| out of that range), raises InvalidArgumentError.
    """
    M = as_matrix(M, finite=False)
    if M.shape[0] > M.shape[1]:
        M = M.T
    # G x = M (M^T x); x @ M forms M^T x without numpy's slower M.T @ x path
    size = M.shape[0]
    v = np.full(size, 1.0 / math.sqrt(size))
    u = v @ M
    peak = 1.0
    if not 1e-50 < np.abs(u).max() < 1e50:
        # G's entries are of the order of ||M||^2: bring M into range first
        peak = float(np.abs(M).max())
        if not math.isfinite(peak):
            raise InvalidArgumentError("matrix contains NaN or infinite entries")
        if peak == 0.0:
            return 0.0
        M = M / peak
        u = v @ M
        if not u.any():
            col = M[:, np.argmax(np.linalg.norm(M, axis=0))]
            v = col / np.linalg.norm(col)
            u = v @ M
    steps = min(max_iters, size)
    T = np.zeros((steps, steps))
    v_prev = np.zeros(size)
    w = np.empty(size)
    beta = largest = estimate = change = 0.0
    for j in range(1, steps + 1):
        np.dot(M, u, out=w)
        alpha = float(v @ w)
        T[j - 1, j - 1] = alpha
        largest = max(largest, alpha)
        w -= alpha * v
        w -= beta * v_prev
        beta = math.sqrt(w @ w)
        last = j == steps or beta <= _INVARIANT * largest
        if last or j % _RITZ_CHECK == 0:
            # eigvalsh reads the lower triangle: the diagonal and subdiagonal
            new = math.sqrt(max(float(np.linalg.eigvalsh(T[:j, :j])[-1]), 0.0))
            d = new - estimate
            if last or d <= tol * new or d * d <= tol * new * change:
                return peak * new
            change = d if estimate else 0.0  # the first check has no change yet
            estimate = new
        T[j, j - 1] = beta
        v_prev, v = v, w / beta
        np.dot(v, M, out=u)
    return 0.0


def _threshold(X, k):
    """H_k(X), its support, and the kept rows as an index array."""
    out, support = hard_threshold_rows(X, k)
    return out, support, support.as_array()


def _normalized_step(phi, alpha, grad, rows, k):
    """Adaptive proposal: exact step on the current rows, backtracked."""
    grad_on = np.zeros_like(grad)
    grad_on[rows] = grad[rows]
    denom = float(np.linalg.norm(phi @ grad_on)) ** 2
    mu = (float(np.linalg.norm(grad_on)) ** 2 / denom) if denom > 0 else 1.0
    candidate, cand_support, cand_rows = _threshold(alpha + mu * grad, k)
    for _ in range(100):
        if np.array_equal(cand_rows, rows):
            break
        diff = candidate - alpha
        diff_denom = float(np.linalg.norm(phi @ diff)) ** 2
        if diff_denom == 0 or mu <= (1.0 - _ADAPTIVE_C) * float(
            np.linalg.norm(diff)
        ) ** 2 / diff_denom:
            break
        mu *= 0.5
        candidate, cand_support, cand_rows = _threshold(alpha + mu * grad, k)
    return candidate, cand_support, cand_rows


def _operator_norm(problem):
    """||phi||_2: sqrt(c) when phi phi^T = c I is certified, else a Lanczos estimate."""
    A = problem.A
    return math.sqrt(A.row_gram_scale) if A.row_orthonormal else spectral_norm(problem.phi)


def _fixed_step(problem):
    """The fixed step 0.98 / ||phi||_2^2, once ||phi||_2^2 is checked to be
    positive and finite."""
    op_norm = _operator_norm(problem)
    if not 0.0 < op_norm * op_norm < math.inf:
        raise InvalidArgumentError(
            f"||phi||_2 = {op_norm:g} is out of range: its square bounds the step"
        )
    return 0.98 / op_norm**2


class _SupportFit:
    """The least-squares fit on one support S, formed once per support.

    ``fit`` is alpha* = lstsq(phi_S, B) on S = ``rows`` and zero elsewhere;
    ``rank`` and ``norm`` are what lstsq reports for phi_S, and ``kept``
    the row norms of alpha*_S. ``resid`` is r* = B - phi alpha* as the
    iteration forms it: the dense product at the MUSIC start (which is
    alpha*, so ``iht_solve`` sets it there), on the kept columns otherwise.
    The certificate's products are formed by the first try that needs
    them and kept for later tries on S: ``grad`` = g*_S = phi_S^T r* and
    ``grad_norm`` = ||g*_j|| per row j, then, once a try has e > 0,
    ``cross_norm`` = ||phi_j^T phi_S|| (both zero on S).
    """

    def __init__(self, phi, B, rows):
        self.rows = rows
        self.fit, self.rank, self.norm = lstsq_rows(phi, B, rows)
        self.kept = row_l2(self.fit[rows])
        self.resid = self.grad = self.grad_norm = self.cross_norm = None


def _off_norms(X, rows):
    """Row norms of X, zero on ``rows``: inf where they overflow, which
    fails the certificate's test."""
    with np.errstate(over="ignore"):
        norms = row_l2(X)
    norms[rows] = 0.0
    return norms


def _certified_fit(phi, B, alpha, fitted, step):
    """The finish on ``fitted``'s rows S if plain IHT from ``alpha`` provably keeps them.

    Returns the plain loop's next iterate from alpha* = lstsq(phi_S, B),
    or None. Soundness: on S the error of plain IHT follows
    e_{t+1} = (I - step phi_S^T phi_S) e_t, a non-expansion while
    step ||phi_S||_2^2 < 2, since phi_S^T r* = 0 for r* = B - phi alpha*.
    So with e = ||alpha_S - alpha*_S||_F every kept row before thresholding
    stays within e of alpha*_i, and every off-support row step * phi_j^T r_t
    stays within step (||g*_j|| + ||phi_j^T phi_S|| e), g* = phi^T r*.
    When the largest off-support bound is below the smallest ||alpha*_i|| -
    e, H_k keeps S forever and the iterates converge to alpha*. Every bound
    only tightens as the step shrinks, so a proof at a step holds at any
    smaller one. At e = 0 (a try at alpha* itself, as at the MUSIC start)
    the cross term vanishes and phi^T phi_S is not formed.

    The proof also shows that H_k keeps S at the next iterate, so it is
    alpha* + step g*_S, with no new product and no threshold. g*_S is
    round-off, and the step takes out part of lstsq's round-off error: on
    exact data alpha*'s residual can be ~25% above the step's, both ~1e-15
    of ||B||.
    """
    rows = fitted.rows
    if fitted.rank < rows.size or step * fitted.norm**2 >= 2.0:
        return None
    e = float(np.linalg.norm(alpha[rows] - fitted.fit[rows]))
    kept = fitted.kept
    # the kept-row bound less the margin; every off-support bound is >= 0
    room = float(kept.min()) - e - _FINISH_MARGIN * float(kept.max())
    if room <= 0.0:
        return None
    if fitted.grad_norm is None:
        if fitted.resid is None:
            fitted.resid = B - phi[:, rows] @ fitted.fit[rows]
        grad = phi.T @ fitted.resid
        fitted.grad = grad[rows]
        fitted.grad_norm = _off_norms(grad, rows)
    off_bound = fitted.grad_norm
    if e > 0.0:  # at e = 0 (a try at alpha* itself) the cross term is 0
        if fitted.cross_norm is None:
            phi_S = phi[:, rows]
            # Row j of phi^T phi_S is phi_j^T phi_S. It is formed L = B.shape[1]
            # columns at a time, the shape of the gradient product phi^T r. At
            # 128 x 512 x 8 OpenBLAS runs that on one thread, but it splits the
            # whole 512 x 20 product over two, and waking the second thread took
            # ~8 ms whenever the other core was busy: more than a whole solve.
            L = B.shape[1]
            cross = np.hstack([phi.T @ phi_S[:, lo:lo + L] for lo in range(0, rows.size, L)])
            fitted.cross_norm = _off_norms(cross, rows)
        off_bound = off_bound + fitted.cross_norm * e
    if step * float(off_bound.max()) < room:
        finish = fitted.fit.copy()
        finish[rows] += step * fitted.grad
        return finish
    return None


def iht_solve(problem, cfg):
    """Run hard-thresholded gradient iteration on one problem.

    The starting point is the least-squares fit on the k-row MUSIC support
    estimate (``music_support``). When the data's estimated signal rank is
    0 or n, MUSIC cannot tell columns apart and the start is one gradient
    step from the origin, thresholded: H_k(step * phi^T B). Either start is
    k-row sparse. MUSIC scores are normalized, so the start support is
    exactly invariant under (phi, B) -> (c phi, c B). The fixed step scales
    as 1 / c^2 with ||phi||_2^2, so the fixed-step iterates are invariant
    under (phi, B) -> (c phi, c B) up to round-off in the least-squares fit
    and in ||phi||_2.

    Iteration stops once the relative iterate change falls below STOP_TOL,
    or at ``cfg.max_iters``. With a fixed step, the iteration tries the
    certified least-squares finish (``_certified_fit``): alpha* =
    lstsq(phi_S, B), accepted only if a bound proves that the plain
    iteration never leaves S (so alpha* is its limit). It tries at the
    MUSIC start, which is alpha* on its own support (e = 0), and then
    whenever the kept rows S have stayed the same for SETTLED_ITERS
    iterations. An accepted try ends the solve one plain step past alpha*,
    a step that the proof lets take without a product or a threshold; a
    rejected try leaves the iteration as it was, and the count starts
    again. The fit and the bound's products are formed once per support,
    the start's fit included: a retry on unchanged rows reuses them. The
    adaptive rule never tries the finish.

    The start try on an uncertified operator needs no ||phi||_2. It is
    made at the step bound 0.98 / rho, with rho the top Ritz value of
    _BOUND_STEPS Lanczos steps (``spectral_norm`` with tol 0, squared). A
    Ritz value never exceeds ||phi||_2^2, so the bound is at least the
    fixed step, and a proof at the bound holds at that step; the finish
    then steps at the bound. Only when the start is not certified (or rho
    is 0 or not finite) does the full ``spectral_norm`` run, and the
    iteration goes on at its usual step.

    The report's objective trace holds the data residual ||B - phi alpha||_F
    at the start, after each iteration and, when a try is accepted, at the
    finish. ``inner_iterations`` counts the thresholded gradient steps, not
    the finish: a certified start reports 0, and a solve whose try is
    accepted after t iterations reports t, with t + 2 residuals in its
    trace, the first t + 1 those of the plain loop.

    A fixed-step iteration calls ``hard_threshold_rows`` once (the
    adaptive step once per proposal, backtracks included) and takes the
    residual on the k kept columns of phi. That regroups the sum of the
    dense product phi @ alpha: BLAS gives the same bits on some shapes
    (the benchmark's 128 x 512 x 8) and may differ in the last bits on
    others.
    """
    t0 = time.perf_counter()
    phi = problem.phi
    B = problem.B
    as_count(cfg.k, "k", below=problem.N)
    if not np.any(phi):
        raise InvalidArgumentError("measurement operator is zero")
    # the fixed step of an uncertified operator waits: the start try needs
    # only the bound try_step, and a certified start needs no step at all
    step = try_step = None  # both stay None for the adaptive rule
    if not cfg.adaptive_step:
        if not problem.A.row_orthonormal:
            rho = spectral_norm(phi, _BOUND_STEPS, 0.0) ** 2
            if 0.0 < rho < math.inf:
                try_step = 0.98 / rho
        if try_step is None:
            step = try_step = _fixed_step(problem)

    music = music_support(problem, cfg.k)
    fitted = None
    if 0 < music.rank < problem.n:
        support = music.support
        fitted = _SupportFit(phi, B, support.as_array())
        alpha = fitted.fit
    else:
        # MUSIC tells no columns apart at a signal rank of 0 (zero data) or
        # of n (every column lies in the signal subspace)
        if step is None and not cfg.adaptive_step:
            step = _fixed_step(problem)
        init_step = 1.0 / _operator_norm(problem) ** 2 if cfg.adaptive_step else step
        alpha, support = hard_threshold_rows(init_step * (phi.T @ B), cfg.k)
    rows = support.as_array()
    resid = B - phi @ alpha
    trace = [float(np.linalg.norm(resid))]
    finish = None
    if fitted is not None and try_step is not None and SETTLED_ITERS < math.inf:
        # the MUSIC start is alpha* on its rows: try the finish there, e = 0
        fitted.resid = resid
        finish = _certified_fit(phi, B, alpha, fitted, try_step)
    if finish is None and step is None and not cfg.adaptive_step:
        step = _fixed_step(problem)

    iterations = 0
    converged = False
    settled = 0  # fixed-step iterations in a row that kept the same rows
    while finish is None and not converged and iterations < cfg.max_iters:
        if settled >= SETTLED_ITERS:
            settled = 0
            if fitted is None or not np.array_equal(fitted.rows, rows):
                fitted = _SupportFit(phi, B, rows)
            finish = _certified_fit(phi, B, alpha, fitted, step)
            if finish is not None:
                break
        iterations += 1
        grad = phi.T @ resid
        if cfg.adaptive_step:
            new_alpha, support, rows = _normalized_step(phi, alpha, grad, rows, cfg.k)
        else:
            new_alpha, support, new_rows = _threshold(alpha + step * grad, cfg.k)
            settled = settled + 1 if np.array_equal(new_rows, rows) else 0
            rows = new_rows
        change = float(np.linalg.norm(new_alpha - alpha)) / max(
            1.0, float(np.linalg.norm(alpha))
        )
        alpha = new_alpha
        # alpha is zero off its k kept rows: only their columns of phi count
        resid = B - phi[:, rows] @ alpha[rows]
        trace.append(float(np.linalg.norm(resid)))
        converged = change < STOP_TOL
    if finish is not None:
        # the finish keeps the rows of the accepted try
        alpha = finish
        resid = B - phi[:, rows] @ alpha[rows]
        trace.append(float(np.linalg.norm(resid)))
        converged = True

    return RecoveryReport(
        estimate=problem.signal_from_coefficients(alpha),
        inner_iterations=iterations,
        outer_iterations=1,
        final_residual=trace[-1],
        final_objective=trace[-1],
        detected_support=support,
        objective_trace=np.array(trace),
        wall_time=time.perf_counter() - t0,
        converged=converged,
    )
