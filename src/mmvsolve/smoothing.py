"""Huber-smoothed joint-sparsity objectives with closed-form gradients.

Two aggregators are supported. "row_l2" smooths the l2 norm of each row,
giving the l_{1,2}-style objective whose coupling across channels is the
whole point of joint recovery. "entry_l1" smooths every entry separately,
giving the l_{1,1} objective. Both arise from maximizing <u, .> - (mu/2)||u||^2
over the matching unit dual ball, which collapses to the Huber function

    h_mu(t) = t - mu/2        if t >= mu
            = t^2 / (2 mu)    otherwise

applied to row norms or to entry magnitudes. Rows listed in ``known_support``
are trusted nonzero locations: they contribute neither value nor gradient.
The gradient is (1/mu)-Lipschitz for either aggregator, which the solver
uses directly as its step-size constant.

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

from .core import InvalidArgumentError, SupportSet, as_matrix, as_real

AGGREGATOR_ROW_L2 = "row_l2"
AGGREGATOR_ENTRY_L1 = "entry_l1"
AGGREGATORS = (AGGREGATOR_ROW_L2, AGGREGATOR_ENTRY_L1)


@dataclass(frozen=True)
class SmoothingConfig:
    """Smoothing parameter, row aggregator, and trusted support rows."""

    mu: float = 1.0
    aggregator: str = AGGREGATOR_ROW_L2
    known_support: SupportSet = SupportSet()

    def __post_init__(self):
        as_real(self.mu, "mu")
        if self.aggregator not in AGGREGATORS:
            raise InvalidArgumentError(
                f"unknown aggregator {self.aggregator!r}; use one of {AGGREGATORS}"
            )
        if not isinstance(self.known_support, SupportSet):
            object.__setattr__(
                self, "known_support", SupportSet.from_indices(self.known_support)
            )

    @property
    def lipschitz(self):
        """Lipschitz constant of the smoothed gradient."""
        return 1.0 / self.mu


def _huber(t, mu):
    return np.where(t >= mu, t - 0.5 * mu, (0.5 / mu) * t * t)


def _row_l2(alpha):
    return np.sqrt((alpha * alpha).sum(axis=-1, keepdims=True))


def trusted_rows(support, n_rows):
    """Boolean mask of the trusted rows, or None when no row is trusted.

    This is the validated form the kernels below take; a solver builds it
    once and reuses it for every evaluation at the same support.
    """
    mask = support.mask(n_rows)
    return mask if mask.any() else None


def huber_objective(alpha, mu, aggregator, trusted):
    """Kernel of :func:`smoothed_objective` over a stack: the objective of
    each block of ``alpha`` (P x N x L) at its mu, as a length-P array. No
    validation; ``trusted`` from :func:`trusted_rows`."""
    t = _row_l2(alpha) if aggregator == AGGREGATOR_ROW_L2 else np.abs(alpha)
    values = _huber(t, mu)
    if trusted is not None:
        # compress keeps the rows C-contiguous, so that each block is summed
        # in the order it would be alone
        values = values.compress(~trusted, axis=1)
    return values.reshape(len(values), -1).sum(axis=1)


def huber_gradient(alpha, mu, aggregator, trusted):
    """Kernel of :func:`smoothed_gradient` over a stack: ``alpha`` is
    P x N x L. No validation; ``trusted`` from :func:`trusted_rows`."""
    if aggregator == AGGREGATOR_ROW_L2:
        t = _row_l2(alpha)
        grad = alpha / np.where(t >= mu, t, mu)
    else:
        grad = np.clip(alpha / mu, -1.0, 1.0)
    if trusted is not None:
        grad[:, trusted] = 0.0
    return grad


def smoothed_objective(alpha, cfg):
    """Value of the smoothed joint-sparsity objective at ``alpha``.

    Zero exactly when every row outside the trusted support is zero, and
    within mu * (number of smoothed terms) / 2 below the unsmoothed mixed
    norm restricted to those rows.
    """
    alpha = as_matrix(alpha, "coefficients")
    trusted = trusted_rows(cfg.known_support, alpha.shape[0])
    return float(huber_objective(alpha[None], cfg.mu, cfg.aggregator, trusted)[0])


def smoothed_gradient(alpha, cfg):
    """Closed-form gradient of :func:`smoothed_objective`.

    For row_l2, row j is alpha(j,:)/mu inside the quadratic region and
    alpha(j,:)/||alpha(j,:)||_2 beyond it, so no row of the gradient ever
    exceeds unit l2 norm. Entries clip at +-1 for entry_l1. Trusted rows
    get an exactly zero gradient.
    """
    alpha = as_matrix(alpha, "coefficients")
    trusted = trusted_rows(cfg.known_support, alpha.shape[0])
    return huber_gradient(alpha[None], cfg.mu, cfg.aggregator, trusted)[0]
