"""Reproducible synthetic problem instances with controllable joint sparsity.

Randomness comes from an explicit 64-bit generator (splitmix64) with
Box-Muller normal variates rather than a platform RNG, so a seed pins the
exact draw sequence. The ground-truth signal places a rank-controlled
random block on a uniformly drawn row support; measurements add optional
entrywise Gaussian noise, with the feasibility radius calibrated to 1.1
times the expected noise Frobenius norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    InvalidArgumentError,
    MeasurementMatrix,
    MmvProblem,
    SupportSet,
    as_count,
    as_real,
    numerical_rank,
    read_matrix,
    row_orthonormalize,
    write_matrix,
)

MATRIX_GAUSSIAN = "gaussian"
MATRIX_ROW_ORTHONORMAL = "row-orthonormal-gaussian"
MATRIX_KINDS = (MATRIX_GAUSSIAN, MATRIX_ROW_ORTHONORMAL)

# The keys of a spec file, in the order export_instance writes them.
SPEC_KEYS = ("n", "N", "L", "k", "rank", "noise_sigma", "matrix_kind", "seed")

# Slack factor on the expected noise norm when calibrating epsilon.
EPSILON_SLACK = 1.1

_MASK64 = (1 << 64) - 1

# splitmix64: the state advances by _GAMMA per draw; the output is the new
# state mixed by two xor-shift-multiply rounds.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Box-Muller pairs computed at once by ``Rng64.normals``; bounds its scratch
# memory independently of the matrix size.
_NORMAL_BLOCK_PAIRS = 4096


class Rng64:
    """splitmix64 with Box-Muller normals; bit-reproducible from the seed.

    State transition: s <- s + 0x9E3779B97F4A7C15 (mod 2^64), output
    mixed by two xor-shift-multiply rounds. Uniforms take the top 53 bits
    shifted into (0, 1]; normals come in Box-Muller pairs with the spare
    cached. Integer draws below a bound use rejection sampling, so there
    is no modulo bias.

    ``normals`` draws a block at a time: the i-th draw after state s is
    mix(s + i * gamma), so a block needs no sequential loop. Its log, cos
    and sin come from ``math``, as in ``normal``, so both paths give the
    same bits (numpy's versions differ in the last place on some inputs).
    """

    def __init__(self, seed):
        self._state = as_count(seed, "seed", below=_MASK64 + 1, least=0)
        self._spare = None

    def next_u64(self):
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def _u64_block(self, count):
        """The next ``count`` outputs of ``next_u64`` as a uint64 array."""
        steps = np.arange(1, count + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            z = np.uint64(self._state) + steps * np.uint64(_GAMMA)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        self._state = (self._state + count * _GAMMA) & _MASK64
        return z ^ (z >> np.uint64(31))

    def uniform(self):
        """Uniform in (0, 1]; never zero, so log() is always safe."""
        return ((self.next_u64() >> 11) + 1) * 2.0**-53

    def below(self, bound):
        """Uniform integer in [0, bound), for a bound in [1, 2^64]."""
        bound = as_count(bound, "bound", below=(1 << 64) + 1)
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % bound

    def normal(self):
        if self._spare is not None:
            value, self._spare = self._spare, None
            return value
        u1 = self.uniform()
        u2 = self.uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare = radius * math.sin(theta)
        return radius * math.cos(theta)

    def _normal_pairs(self, pairs):
        """The next ``pairs`` Box-Muller pairs, flattened as cos, sin, cos, ..."""
        u = ((self._u64_block(2 * pairs) >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
        radius = np.sqrt(-2.0 * np.fromiter(map(math.log, u[0::2].tolist()), float, pairs))
        theta = (2.0 * math.pi * u[1::2]).tolist()
        out = np.empty((pairs, 2))
        out[:, 0] = radius * np.fromiter(map(math.cos, theta), float, pairs)
        out[:, 1] = radius * np.fromiter(map(math.sin, theta), float, pairs)
        return out.reshape(-1)

    def normals(self, rows, cols):
        """Row-major matrix of standard normals; the same draws as repeated ``normal()``."""
        out = np.empty((rows, cols))
        flat = out.reshape(-1)
        start = 0
        if flat.size and self._spare is not None:
            flat[0], self._spare = self._spare, None
            start = 1
        for lo in range(start, flat.size, 2 * _NORMAL_BLOCK_PAIRS):
            hi = min(lo + 2 * _NORMAL_BLOCK_PAIRS, flat.size)
            block = self._normal_pairs((hi - lo + 1) // 2)
            flat[lo:hi] = block[: hi - lo]
            if block.size > hi - lo:
                self._spare = float(block[-1])
        return out

    def subset(self, n, k):
        """Uniform k-subset of range(n), ascending (partial Fisher-Yates)."""
        pool = list(range(n))
        for i in range(k):
            j = i + self.below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return tuple(sorted(pool[:k]))


@dataclass(frozen=True)
class ProblemSpec:
    """Everything needed to regenerate one instance, including the seed.

    The sizes and the seed are stored as ints and noise_sigma as a float,
    so an integral float such as 32.0 gives the instance of the int. A
    row-orthonormal operator needs n <= N, since at most N rows of length N
    are orthonormal; a Gaussian one with n > N is allowed, with the
    measurement matrix's warning.
    """

    n: int
    N: int
    L: int
    k: int
    rank: int
    noise_sigma: float = 0.0
    matrix_kind: str = MATRIX_ROW_ORTHONORMAL
    seed: int = 0

    def __post_init__(self):
        checked = {name: as_count(getattr(self, name), name) for name in ("n", "N", "L")}
        checked["k"] = as_count(self.k, "k", below=checked["N"])
        checked["rank"] = as_count(self.rank, "rank", below=min(checked["k"], checked["L"]) + 1)
        checked["noise_sigma"] = as_real(self.noise_sigma, "noise_sigma", zero_ok=True)
        checked["seed"] = as_count(self.seed, "seed", below=_MASK64 + 1, least=0)
        if self.matrix_kind not in MATRIX_KINDS:
            raise InvalidArgumentError(
                f"unknown matrix_kind {self.matrix_kind!r}; use one of {MATRIX_KINDS}"
            )
        if self.matrix_kind == MATRIX_ROW_ORTHONORMAL and checked["n"] > checked["N"]:
            raise InvalidArgumentError(
                f"matrix_kind {MATRIX_ROW_ORTHONORMAL} needs n <= N, got n = {checked['n']} "
                f"and N = {checked['N']}"
            )
        for name, value in checked.items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_fields(cls, fields):
        """The spec of a key-value file, as :func:`read_keyvalue` gives it:
        n, N, L, k and rank are required, the other fields default as here."""
        sizes = {name: field_value(fields, name, int) for name in ("n", "N", "L", "k", "rank")}
        return cls(
            **sizes,
            noise_sigma=field_value(fields, "noise_sigma", float, cls.noise_sigma),
            matrix_kind=fields.get("matrix_kind", cls.matrix_kind),
            seed=field_value(fields, "seed", int, cls.seed),
        )


def read_keyvalue(path, keys):
    """Parse a flat ``key = value`` text file; '#' starts a comment line. A
    key outside ``keys`` or given twice raises InvalidArgumentError."""
    fields = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise InvalidArgumentError(f"{path}:{lineno}: expected 'key = value'")
            key = key.strip()
            if key not in keys or key in fields:
                why = "repeated" if key in fields else f"unknown; use one of {', '.join(keys)}"
                raise InvalidArgumentError(f"{path}:{lineno}: key {key!r} {why}")
            fields[key] = value.strip()
    return fields


def field_value(fields, key, convert, default=None):
    """``convert(fields[key])``, or ``default`` if the key is absent and a
    default is given; a missing or malformed value raises
    InvalidArgumentError naming the key."""
    if key not in fields:
        if default is None:
            raise InvalidArgumentError(f"missing key {key!r}")
        return default
    try:
        return convert(fields[key])
    except ValueError:
        raise InvalidArgumentError(f"malformed value {fields[key]!r} for key {key!r}") from None


@dataclass(eq=False)
class GroundTruthInstance:
    problem: MmvProblem
    X_true: np.ndarray
    support_true: SupportSet
    spec: ProblemSpec


def _rank_checked_block(rng, k, rank, L):
    """k x L block of exact numerical rank ``rank`` with no zero rows."""
    while True:
        left = rng.normals(k, rank)
        right = rng.normals(rank, L)
        block = left @ right
        if numerical_rank(block, 1e-10) == rank and (block != 0).any(axis=1).all():
            return block


def _calibrated_epsilon(spec):
    """Noise-ball radius: EPSILON_SLACK times the expected noise norm, 0 if noiseless."""
    if spec.noise_sigma > 0:
        return EPSILON_SLACK * math.sqrt(spec.n * spec.L) * spec.noise_sigma
    return 0.0


def gen_instance(spec):
    """Deterministically generate a problem with known ground truth.

    Draw order (fixed; it is part of the reproducibility contract):
    measurement matrix entries row-major, then the support subset, then the
    left and right rank factors (redrawn together if rank deficient), then
    the noise block. epsilon is 1.1 * sqrt(n L) * noise_sigma, or 0 for
    noiseless data.
    """
    rng = Rng64(spec.seed)
    A_raw = rng.normals(spec.n, spec.N)
    if spec.matrix_kind == MATRIX_ROW_ORTHONORMAL:
        A = row_orthonormalize(A_raw)
    else:
        A = MeasurementMatrix.from_entries(A_raw)

    support = SupportSet(rng.subset(spec.N, spec.k))
    block = _rank_checked_block(rng, spec.k, spec.rank, spec.L)
    X = np.zeros((spec.N, spec.L))
    X[support.as_array()] = block

    B = A.entries @ X
    if spec.noise_sigma > 0:
        B = B + spec.noise_sigma * rng.normals(spec.n, spec.L)
    problem = MmvProblem(A=A, B=B, epsilon=_calibrated_epsilon(spec))
    return GroundTruthInstance(problem=problem, X_true=X, support_true=support, spec=spec)


def export_instance(instance, prefix):
    """Write A/X/B as exchange CSVs plus a key-value sidecar of the spec."""
    write_matrix(f"{prefix}_A.csv", instance.problem.A.entries)
    write_matrix(f"{prefix}_X.csv", instance.X_true)
    write_matrix(f"{prefix}_B.csv", instance.problem.B)
    spec = instance.spec
    with open(f"{prefix}_spec.txt", "w") as fh:
        for name in SPEC_KEYS:
            fh.write(f"{name} = {getattr(spec, name)}\n")


def import_instance(prefix):
    """Rebuild an exported instance; the matrix certification is recomputed."""
    spec = ProblemSpec.from_fields(read_keyvalue(f"{prefix}_spec.txt", SPEC_KEYS))
    A = MeasurementMatrix.from_entries(read_matrix(f"{prefix}_A.csv"))
    X = read_matrix(f"{prefix}_X.csv")
    B = read_matrix(f"{prefix}_B.csv")
    problem = MmvProblem(A=A, B=B, epsilon=_calibrated_epsilon(spec))
    support = SupportSet(tuple(int(i) for i in np.flatnonzero((X != 0).any(axis=1))))
    return GroundTruthInstance(problem=problem, X_true=X, support_true=support, spec=spec)
