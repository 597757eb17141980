"""Subspace-based joint support detection (MUSIC).

The left singular vectors of the measurement block span the signal
subspace; dictionary columns nearly inside that subspace are support
candidates. Scores are normalized subspace residuals in [0, 1]: 0 means
the column lies in the signal subspace, 1 means orthogonal to it. They
come from the r x N projection U_s^T phi of the dictionary onto the
subspace's basis; only the columns scoring below _CANCELLATION_CUTOFF,
where that route cancels, get their n-vector residual formed. When the
data has full column rank equal to the sparsity level, the smallest
scores identify the support exactly; with rank-deficient data the scores
still give a useful partial seed, which is how the solvers consume them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import SupportSet, as_count, as_matrix, as_real, numerical_rank, rank_above, top_k

# Default relative singular-value threshold of the rank estimate.
MUSIC_DELTA = 1e-8

# Scores below this come from the residual phi_j - U_s (U_s^T phi_j):
# sqrt(1 - ratio) is off by ~1e-16 / (2 score), ~1e-8 near 0.
_CANCELLATION_CUTOFF = 0.1


@dataclass(frozen=True)
class MusicResult:
    rank: int
    scores: np.ndarray
    support: SupportSet


def estimate_rank(B, delta):
    """Number of singular values of B above delta times the largest."""
    B = as_matrix(B, "measurement block")
    return numerical_rank(B, as_real(delta, "delta", below=1))


def _subspace_scores(phi, Us):
    col_sq = np.einsum("ij,ij->j", phi, phi)
    zero_cols = col_sq == 0
    if zero_cols.any():
        warnings.warn(
            f"{int(zero_cols.sum())} zero dictionary column(s); scoring them 1",
            stacklevel=3,
        )
    proj = Us.T @ phi
    # a zero column has proj = 0, so it scores 1 - 0 / 1 = 1
    safe = np.where(zero_cols, 1.0, col_sq)
    scores = np.sqrt(np.maximum(1.0 - np.einsum("ij,ij->j", proj, proj) / safe, 0.0))
    near = np.flatnonzero(scores < _CANCELLATION_CUTOFF)
    if near.size:
        resid = phi[:, near] - Us @ proj[:, near]
        scores[near] = np.sqrt((resid * resid).sum(axis=0)) / np.sqrt(col_sq[near])
    return scores


def music_scores(problem, r):
    """Normalized residual of each dictionary column against the signal subspace.

    score_j = ||(I - U_s U_s^T) phi_j|| / ||phi_j|| with U_s the top-r left
    singular vectors of B, formed as sqrt(1 - ||U_s^T phi_j||^2 / ||phi_j||^2)
    from the r x N projection U_s^T phi. That difference cancels as the
    score nears 0, so a column whose score falls below
    _CANCELLATION_CUTOFF (0.1) is rescored from its residual
    phi_j - U_s (U_s^T phi_j); every score is then within ~1e-14 of the
    residual's. Zero columns cannot be scored and get score 1.
    """
    r = as_count(r, "subspace dimension r", below=min(problem.n, problem.L) + 1)
    U = np.linalg.svd(problem.B, full_matrices=False)[0]
    return _subspace_scores(problem.phi, U[:, :r])


def music_support(problem, k, delta=MUSIC_DELTA):
    """Select the k most subspace-consistent columns as a support estimate.

    The subspace dimension is estimated from the data's singular values with
    relative threshold ``delta`` (suited to noiseless synthetic data; pick a
    larger value explicitly for noisy runs). Ties keep the lowest index.
    """
    k = as_count(k, "k", below=problem.N)
    delta = as_real(delta, "delta", below=1)
    # the rank and the scores come from one thin SVD of B
    U, sv, _ = np.linalg.svd(problem.B, full_matrices=False)
    r = rank_above(sv, delta)
    if r:
        scores = _subspace_scores(problem.phi, U[:, :r])
    else:
        # no signal subspace at all; every column is equally implausible
        scores = np.ones(problem.N)
    # the k smallest scores are the k largest of -scores
    chosen = SupportSet._of_sorted(top_k(-scores, k))
    return MusicResult(rank=r, scores=scores, support=chosen)
