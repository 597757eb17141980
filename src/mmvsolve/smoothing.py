"""Huber-smoothed row-l2 (l_{2,1}) objective with a closed-form gradient.

Maximizing <u, .> - (mu/2)||u||^2 over the unit dual ball of each row
smooths that row's l2 norm, the coupling across channels that is the point
of joint recovery, into the Huber function

    h_mu(t) = t - mu/2        if t >= mu
            = t^2 / (2 mu)    otherwise

of the row norm. Rows in ``known_support`` are trusted nonzero locations:
they contribute neither value nor gradient. The gradient is
(1/mu)-Lipschitz, the solver's step-size constant.

``smoothed_objective`` and ``smoothed_gradient`` validate their input. The
kernels behind them, ``huber_objective`` and ``huber_gradient``, do not: a
solver validates once and passes the trusted-row mask it built with
``trusted_rows``. The kernels work on a stack of problems, a leading axis
of P coefficient blocks with one mu each (a P x 1 x 1 array, or a float
shared by all), and treat every block exactly as they would treat it alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SupportSet, as_matrix, as_real, row_l2


@dataclass(frozen=True)
class SmoothingConfig:
    """Smoothing parameter and trusted rows, read by ``nesta_step`` and
    ``smoothed_*`` only: the solvers set mu by their continuation schedule
    and take the trusted rows as ``known_support``."""

    mu: float = 1.0
    known_support: SupportSet = SupportSet()

    def __post_init__(self):
        as_real(self.mu, "mu")
        object.__setattr__(self, "known_support", SupportSet.from_indices(self.known_support))


def trusted_rows(support, n_rows):
    """Boolean mask of the trusted rows, or None when no row is trusted.

    This is the validated form the kernels below take; a solver builds it
    once and reuses it for every evaluation at the same support.
    """
    mask = support.mask(n_rows)
    return mask if mask.any() else None


def huber_objective(alpha, mu, trusted):
    """Kernel of :func:`smoothed_objective` over a stack: the objective of
    each block of ``alpha`` (P x N x L) at its mu, as a length-P array. No
    validation; ``trusted`` from :func:`trusted_rows`."""
    # the trailing axis lets a P x 1 x 1 mu broadcast one value per block
    t = row_l2(alpha)[..., None]
    values = np.where(t >= mu, t - 0.5 * mu, (0.5 / mu) * t * t)
    if trusted is not None:
        # compress keeps the rows C-contiguous, so that each block is summed
        # in the order it would be alone
        values = values.compress(~trusted, axis=1)
    return values.reshape(len(values), -1).sum(axis=1)


def huber_gradient(alpha, mu, trusted):
    """Kernel of :func:`smoothed_gradient` over a stack: ``alpha`` is
    P x N x L. No validation; ``trusted`` from :func:`trusted_rows`."""
    t = row_l2(alpha)[..., None]
    grad = alpha / np.where(t >= mu, t, mu)
    if trusted is not None:
        grad[:, trusted] = 0.0
    return grad


def smoothed_objective(alpha, cfg):
    """Value of the smoothed joint-sparsity objective at ``alpha``.

    Zero exactly when every row outside the trusted support is zero, and
    within mu * (number of untrusted rows) / 2 below the unsmoothed mixed
    norm restricted to those rows.
    """
    alpha = as_matrix(alpha, "coefficients")
    trusted = trusted_rows(cfg.known_support, alpha.shape[0])
    return float(huber_objective(alpha[None], cfg.mu, trusted)[0])


def smoothed_gradient(alpha, cfg):
    """Closed-form gradient of :func:`smoothed_objective`.

    Row j is alpha(j,:)/mu inside the quadratic region and
    alpha(j,:)/||alpha(j,:)||_2 beyond it, so no row of the gradient ever
    exceeds unit l2 norm. Trusted rows get an exactly zero gradient.
    """
    alpha = as_matrix(alpha, "coefficients")
    trusted = trusted_rows(cfg.known_support, alpha.shape[0])
    return huber_gradient(alpha[None], cfg.mu, trusted)[0]
