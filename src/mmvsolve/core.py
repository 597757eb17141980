"""Dense-matrix primitives shared by all jointly row-sparse recovery solvers.

Conventions: the unknown signal is an N x L real matrix with few nonzero
rows (all L channels share one support). Measurements are n x L with
n <= N in the regime the solvers target. All storage is dense.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Per-entry tolerance for certifying A @ A.T = c * I, relative to c.
ROW_ORTHO_TOL = 1e-10

# Brute-force spark enumerates column subsets; refuse anything bigger.
SPARK_MAX_COLUMNS = 20


class InvalidArgumentError(ValueError):
    """An argument violates an operation's contract."""


class SizeLimitError(InvalidArgumentError):
    """Input exceeds a hard size limit guarding exponential-cost routines."""


class DegenerateInputError(ValueError):
    """Input matrix lacks the rank or conditioning an operation requires."""


class InfeasibleProblemError(RuntimeError):
    """No point satisfies the data-consistency constraint."""


# Errors a solver raises for the data of one problem. Batched solves and
# the harness record them per problem instead of stopping.
SOLVER_ERRORS = (InvalidArgumentError, DegenerateInputError, InfeasibleProblemError)


def as_matrix(X, name="matrix", finite=True):
    """Validate and return a nonempty 2-D float array, finite unless
    ``finite`` is False (for a caller that meets nan and inf on its own).
    Input that is no array of numbers raises InvalidArgumentError."""
    try:
        X = np.asarray(X, dtype=float)
    except (TypeError, ValueError):
        raise InvalidArgumentError(
            f"{name} must be a numeric array, got {type(X).__name__}"
        ) from None
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise InvalidArgumentError(
            f"{name} must be a nonempty 2-D array, got shape {X.shape}"
        )
    if finite and not np.isfinite(X).all():
        raise InvalidArgumentError(f"{name} contains NaN or infinite entries")
    return X


def as_count(value, name, below=None, least=1):
    """value as an int of at least ``least`` (1 by default, 0 for a seed)
    and, when ``below`` is given, less than it: a sparsity k < N, an
    iteration cap.

    Integral floats are accepted (2.0 is 2); anything else, nan and inf
    included, raises InvalidArgumentError naming the value.
    """
    try:
        whole = int(value) == value
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole or value < least or (below is not None and value >= below):
        if below is None:
            span = "a positive integer" if least == 1 else f"an integer of at least {least}"
        else:
            span = f"an integer in [{least}, {below - 1}]"
        raise InvalidArgumentError(f"{name} must be {span}, got {value!r}")
    return int(value)


def as_real(value, name, zero_ok=False, below=None):
    """value as a finite float above 0 (or at least 0 with ``zero_ok``) and,
    when ``below`` is given, less than it: a radius, a step, a tolerance.

    nan, inf, strings and other non-numbers raise InvalidArgumentError
    naming the value.
    """
    try:
        x = math.nan if isinstance(value, str) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    above_zero = x >= 0 if zero_ok else x > 0
    if not (math.isfinite(x) and above_zero and (below is None or x < below)):
        if below is None:
            rule = "be finite and " + ("nonnegative" if zero_ok else "positive")
        else:
            rule = f"lie in {'[' if zero_ok else '('}0, {below})"
        raise InvalidArgumentError(f"{name} must {rule}, got {value!r}")
    return x


def gram_deviation(M, c=None):
    """max|M M^T - c I| and c, which defaults to the mean diagonal entry of
    M M^T: the one certificate of the package. M M^T = c I is certified
    when the deviation is at most ROW_ORTHO_TOL * c."""
    gram = M @ M.T
    if c is None:
        c = float(np.trace(gram) / gram.shape[0])
    gram[np.diag_indices_from(gram)] -= c
    return float(np.abs(gram).max()), c


def _support_indices(indices):
    """The indices of a support as ints, each by the count rule; a value
    that is not iterable (a bare 5) raises InvalidArgumentError."""
    try:
        items = iter(indices)
    except TypeError:
        raise InvalidArgumentError(
            f"support indices must be an iterable of integers, got {indices!r}"
        ) from None
    return [as_count(i, "support index", least=0) for i in items]


@dataclass(frozen=True)
class SupportSet:
    """Strictly increasing row indices marking a known or detected support."""

    indices: tuple[int, ...] = ()

    def __post_init__(self):
        idx = tuple(_support_indices(self.indices))
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise InvalidArgumentError(
                "support indices must be strictly increasing (no duplicates)"
            )
        object.__setattr__(self, "indices", idx)

    @classmethod
    def from_indices(cls, indices):
        """Build a support from any iterable of indices (sorted, deduplicated)."""
        return cls(tuple(sorted(set(_support_indices(indices)))))

    @classmethod
    def _of_sorted(cls, rows):
        """A support from an integer array already strictly increasing and
        nonnegative (as :func:`top_k` returns), without checking it again."""
        support = object.__new__(cls)
        object.__setattr__(support, "indices", tuple(rows.tolist()))
        return support

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, i):
        return i in self.indices

    def as_array(self):
        return np.asarray(self.indices, dtype=int)

    def mask(self, n_rows):
        """Boolean vector of length n_rows, True on the support."""
        if self.indices and self.indices[-1] >= n_rows:
            raise InvalidArgumentError(
                f"support index {self.indices[-1]} out of range for {n_rows} rows"
            )
        m = np.zeros(n_rows, dtype=bool)
        m[list(self.indices)] = True
        return m


@dataclass(frozen=True, eq=False)
class MeasurementMatrix:
    """n x N sensing matrix, optionally certified to satisfy A @ A.T = c * I.

    The certificate (``row_orthonormal`` with scale ``row_gram_scale``) lets
    solvers use a closed-form feasibility projection. Build instances with
    :meth:`from_entries` to certify automatically.
    """

    entries: np.ndarray
    row_orthonormal: bool = False
    row_gram_scale: float | None = None

    def __post_init__(self):
        entries = as_matrix(self.entries, "measurement matrix")
        object.__setattr__(self, "entries", entries)
        if entries.shape[0] > entries.shape[1]:
            warnings.warn(
                "measurement matrix has more rows than columns; the solvers "
                "target the underdetermined regime",
                stacklevel=2,
            )
        if self.row_orthonormal:
            c = as_real(self.row_gram_scale, "row_gram_scale")
            dev = gram_deviation(entries, c)[0]
            if dev > ROW_ORTHO_TOL * c:
                raise InvalidArgumentError(
                    f"row-orthonormality certificate fails: max|A A^T - cI| = {dev:g}"
                )

    @classmethod
    def from_entries(cls, entries):
        """Wrap a raw array, certifying A @ A.T = c * I when it holds."""
        entries = as_matrix(entries, "measurement matrix")
        dev, c = gram_deviation(entries)
        matrix = cls(entries)
        if c > 0 and dev <= ROW_ORTHO_TOL * c:
            # dev is the deviation __post_init__ would form again from c:
            # certify from it, so that A A^T is formed once
            object.__setattr__(matrix, "row_orthonormal", True)
            object.__setattr__(matrix, "row_gram_scale", c)
        return matrix

    @property
    def n(self):
        return self.entries.shape[0]

    @property
    def N(self):
        return self.entries.shape[1]


@dataclass(eq=False)
class MmvProblem:
    """Measurements B of a row-sparse unknown, with a Frobenius noise ball.

    The feasible set is {X : ||A X - B||_F <= epsilon}. epsilon = 0 demands
    exact consistency. Treat instances as immutable.
    """

    A: MeasurementMatrix
    B: np.ndarray
    epsilon: float = 0.0

    def __post_init__(self):
        if not isinstance(self.A, MeasurementMatrix):
            self.A = MeasurementMatrix.from_entries(self.A)
        self.B = as_matrix(self.B, "measurement block")
        if self.B.shape[0] != self.A.n:
            raise InvalidArgumentError(
                f"measurement block has {self.B.shape[0]} rows, expected {self.A.n}"
            )
        self.epsilon = as_real(self.epsilon, "epsilon", zero_ok=True)

    @property
    def n(self):
        return self.A.n

    @property
    def N(self):
        return self.A.N

    @property
    def L(self):
        return self.B.shape[1]

    @cached_property
    def phi(self):
        """The operator the solvers apply, the entries of A."""
        return self.A.entries

    def coefficients_from_signal(self, X):
        """The identity: the solvers' coefficients are the signal."""
        return X


def row_l2(X):
    """l2 norms along the last axis of an unvalidated array: the row norms of
    a matrix, or of every block of a P x N x L stack. The one row-norm
    formula of the package, ``sqrt((X * X).sum(axis=-1))``; for real input
    it gives the bits of ``np.linalg.norm(X, axis=-1)``.

    A C-contiguous float64 array of at least 128 rows with at most 8
    columns takes a faster path with the same bits: numpy sums fewer than 8
    terms in order and 8 terms as the pairwise tree
    ((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7)), and column adds here write out
    that order. On fewer rows the extra calls cost more than they save,
    and at 16 columns numpy's reduction is the faster one."""
    width = X.shape[-1]
    fast = 0 < width <= 8 and X.size >= 128 * width
    if not (fast and X.dtype == np.float64 and X.flags.c_contiguous):
        return np.sqrt((X * X).sum(axis=-1))
    S = X * X
    if width == 8:
        pairs = S[..., 0::2] + S[..., 1::2]
        quads = pairs[..., 0::2] + pairs[..., 1::2]
        total = quads[..., 0] + quads[..., 1]
    elif width == 1:
        total = S[..., 0]
    else:
        total = S[..., 0] + S[..., 1]
        for j in range(2, width):
            total += S[..., j]
    return np.sqrt(total)


def row_norms(X, q=2):
    """Per-row l_q norms of a matrix; q must be 1, 2 or inf."""
    X = as_matrix(X)
    if q == 1:
        return np.abs(X).sum(axis=1)
    if q == 2:
        return row_l2(X)
    if q == np.inf:
        return np.abs(X).max(axis=1)
    raise InvalidArgumentError(f"unsupported inner norm order {q!r}; use 1, 2 or inf")


def mixed_norm(X, p=1, q=2):
    """l_p norm of the vector of per-row l_q norms.

    The (1, 2) pair is the joint-sparsity surrogate used by the solvers:
    the sum of row l2 norms, which couples all channels of a row.
    """
    r = row_norms(X, q)
    if p == 1:
        return float(r.sum())
    if p == 2:
        return float(np.sqrt((r * r).sum()))
    raise InvalidArgumentError(f"unsupported outer norm order {p!r}; use 1 or 2")


def top_k(values, k):
    """Ascending indices of the k largest entries of a finite 1-D array.

    Ties at the k-th largest value go to the lower index, so the pick is
    exactly ``np.sort(np.argsort(-values, kind="stable")[:k])``, found with
    one O(N) ``np.partition`` instead of a sort. The k smallest entries are
    the k largest of ``-values``. k may be 0 (no index) or exceed the size
    (every index).
    """
    size = values.shape[0]
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    if k >= size:
        return np.arange(size)
    kth = np.partition(values, size - k)[size - k]
    keep = values >= kth
    extra = int(np.count_nonzero(keep)) - k
    if extra:
        # more entries tie at the k-th value than places are left for them:
        # the highest-indexed of them go
        keep[np.flatnonzero(values == kth)[-extra:]] = False
    return np.flatnonzero(keep)


def hard_threshold_rows(X, k):
    """Keep the k rows of largest l2 norm, zero all others.

    The input is validated once. The rows are chosen by :func:`top_k` on
    the row norms (one ``np.partition``, no sort), with ties at the k-th
    norm going to the lower row index, so repeated runs select identical
    supports. Returns the thresholded matrix and the kept rows.
    """
    X = as_matrix(X)
    k = as_count(k, "k")
    N = X.shape[0]
    if k >= N:
        return X.copy(), SupportSet(tuple(range(N)))
    keep = top_k(row_l2(X), k)
    out = np.zeros(X.shape)
    out[keep] = X[keep]
    return out, SupportSet._of_sorted(keep)


def row_support(X, tol=0.0):
    """Indices of rows whose l2 norm exceeds tol, ascending."""
    tol = as_real(tol, "tol", zero_ok=True)
    return SupportSet._of_sorted(np.flatnonzero(row_norms(X, 2) > tol))


def rank_above(sv, tol):
    """Number of descending singular values ``sv`` above tol times the largest.

    The one numerical-rank rule of the package; 0 when sv is empty or zero.
    """
    if sv.size == 0 or sv[0] == 0:
        return 0
    return int((sv > tol * sv[0]).sum())


def numerical_rank(M, tol):
    """Number of singular values of M above tol times the largest: the
    :func:`rank_above` rule on one SVD of M, with no validation."""
    return rank_above(np.linalg.svd(M, compute_uv=False), tol)


def spark(A, rank_tol=1e-10):
    """Smallest number of linearly dependent columns, by brute force.

    Rank decisions use singular values relative to each subset's largest
    one, so this is a numerical spark rather than an exact-arithmetic one.
    Returns N + 1 when all N columns are independent. Only matrices with at
    most ``SPARK_MAX_COLUMNS`` columns are accepted (the enumeration cost is
    exponential): this is a toy-scale uniqueness checker, not a production
    primitive.
    """
    M = A.entries if isinstance(A, MeasurementMatrix) else as_matrix(A)
    N = M.shape[1]
    if N > SPARK_MAX_COLUMNS:
        raise SizeLimitError(
            f"spark is brute-force only; refusing N = {N} > {SPARK_MAX_COLUMNS} columns"
        )
    rank_tol = as_real(rank_tol, "rank_tol", zero_ok=True, below=1)
    r = numerical_rank(M, rank_tol)
    if r == N:
        return N + 1
    for s in range(1, r + 1):
        for cols in itertools.combinations(range(N), s):
            if numerical_rank(M[:, cols], rank_tol) < s:
                return s
    # every subset of size <= r is independent, so any r+1 columns are not
    return r + 1


def row_orthonormalize(A):
    """Rescale a full-row-rank matrix so its rows are exactly orthonormal.

    Returns a certified :class:`MeasurementMatrix` spanning the same row
    space with A_tilde @ A_tilde.T = I. Any measurement block tied to the
    original matrix must be co-transformed by the caller; this routine only
    touches the operator. A matrix with more rows than columns has no full
    row rank, and neither has one whose QR diagonal falls to 1e-12 of its
    largest entry: both raise DegenerateInputError.
    """
    M = A.entries if isinstance(A, MeasurementMatrix) else as_matrix(A)
    if M.shape[0] > M.shape[1]:
        raise DegenerateInputError(
            f"matrix has {M.shape[0]} rows but {M.shape[1]} columns; at most as many "
            "rows as columns can be orthonormal"
        )
    Q, R = np.linalg.qr(M.T, mode="reduced")
    diag = np.diag(R)
    mags = np.abs(diag)
    if mags.max() == 0 or mags.min() <= 1e-12 * mags.max():
        raise DegenerateInputError("matrix is rank deficient; rows cannot be orthonormalized")
    # fix the QR sign ambiguity so already-orthonormal inputs round-trip
    signs = np.where(diag >= 0, 1.0, -1.0)
    At = np.ascontiguousarray((Q * signs).T)
    try:
        return MeasurementMatrix(At, row_orthonormal=True, row_gram_scale=1.0)
    except InvalidArgumentError as exc:
        raise DegenerateInputError(f"orthonormalization failed: {exc}") from None


def write_matrix(path, X):
    """Write a matrix as plain CSV: one row per line, 17-digit floats, no header."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    np.savetxt(path, X, fmt="%.17e", delimiter=",")


def read_matrix(path):
    """Read a matrix written by :func:`write_matrix` (or any numeric CSV)."""
    name = f"matrix from {path}"
    with warnings.catch_warnings():
        # an empty file loads as an empty array, which as_matrix rejects
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            M = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise InvalidArgumentError(f"{name}: {exc}") from None
    return as_matrix(M, name)
