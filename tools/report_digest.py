"""Print one digest of the solvers' reports on a fixed set of problems.

Two checkouts that print the same line give the same reports, bit for bit,
on this set: every ``RecoveryReport`` field but ``wall_time`` is hashed into
one SHA-256, each value with its type (and an array's dtype and shape). A
solver error in place of a report is hashed as its type and message. BLAS
may split a product differently at another thread count, so compare runs at
the same ``OPENBLAS_NUM_THREADS``:

    OPENBLAS_NUM_THREADS=1 python tools/report_digest.py
    OPENBLAS_NUM_THREADS=1 python tools/report_digest.py ../other/src

The optional argument is the ``src`` directory to import the package from;
by default it is this checkout's. The set:

- every solver through ``solve_problems`` on 48 specs (32x64x4 and
  24x64x3, k = 6, both operator kinds, noise 0 and 0.01, seeds 0-5), one
  call per (shape, kind, noise) cell;
- ``iterative_nesta`` with MUSIC and ``nesta_solve`` trusting rows 0 and 5
  on 24 of them;
- ``nesta`` and ``smv`` on a 25-trial 32x64x4 k = 12 cell and a 12-trial
  noisy Gaussian 24x64x3 cell;
- a batch of certified and Gaussian problems mixed, and a batch capped at
  54 iterations per stage;
- ``nesta_solve`` on three 128x512x8 Gaussian instances and one 256x1024x16
  certified instance;
- ``nesta``, ``smv`` and ``iterative-nesta`` (with and without MUSIC) on
  zero data, on data orthogonal to the operator's range, and on a problem
  with one zero column;
- ``iht_solve`` with the fixed and the adaptive step on the benchmark's
  ``iht_gaussian`` pool (128x512x8, seeds 0-7).
"""

import dataclasses
import hashlib
import struct
import sys
from pathlib import Path

SRC = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC.resolve()))

import numpy as np  # noqa: E402

from mmvsolve.core import MeasurementMatrix, MmvProblem, SupportSet  # noqa: E402
from mmvsolve.harness import SOLVERS, solve_problems  # noqa: E402
from mmvsolve.iht import IhtConfig, iht_solve  # noqa: E402
from mmvsolve.nesta import (  # noqa: E402
    NestaConfig,
    RecoveryReport,
    iterative_nesta,
    nesta_solve,
    nesta_solve_batch,
)
from mmvsolve.synth import MATRIX_KINDS, ProblemSpec, gen_instance  # noqa: E402

FIELDS = [f.name for f in dataclasses.fields(RecoveryReport) if f.name != "wall_time"]


def feed(h, value):
    """Hash ``value`` with its type into ``h``."""
    h.update(type(value).__name__.encode() + b":")
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (list, tuple)):
        h.update(str(len(value)).encode())
        for item in value:
            feed(h, item)
    elif isinstance(value, SupportSet):
        feed(h, value.indices)
    elif isinstance(value, float):
        h.update(struct.pack("<d", value))
    else:
        h.update(repr(value).encode())
    h.update(b";")


def problems(specs):
    return [gen_instance(spec).problem for spec in specs]


def small_cells():
    """The 48 specs of the solver sweep, as 8 cells of 6 seeds."""
    return [
        [
            ProblemSpec(n=n, N=64, L=L, k=6, rank=2, noise_sigma=sigma, matrix_kind=kind, seed=s)
            for s in range(6)
        ]
        for n, L in ((32, 4), (24, 3))
        for kind in MATRIX_KINDS
        for sigma in (0.0, 0.01)
    ]


def zero_data_problems():
    """Zero data (certified and Gaussian), data orthogonal to the range of
    a rank-deficient operator, and a problem whose second column is zero."""
    base = gen_instance(ProblemSpec(n=8, N=16, L=3, k=2, rank=2)).problem
    gaussian = gen_instance(ProblemSpec(n=8, N=16, L=3, k=2, rank=2, matrix_kind="gaussian"))
    phi = np.random.default_rng(0).standard_normal((6, 12))
    phi[-1] = 0.0
    B = np.zeros((6, 2))
    B[-1] = 1.0
    off_range = MmvProblem(MeasurementMatrix.from_entries(phi), B, 1.1 * np.linalg.norm(B))
    one_zero = base.B.copy()
    one_zero[:, 1] = 0.0
    return [
        dataclasses.replace(base, B=np.zeros_like(base.B)),
        dataclasses.replace(gaussian.problem, B=np.zeros_like(base.B)),
        off_range,
        dataclasses.replace(base, B=one_zero),
    ]


def reports():
    """Every report (or error) of the set, in a fixed order."""
    out = []
    cells = small_cells()
    for cell in cells:
        for solver in SOLVERS:
            out += solve_problems(solver, problems(cell), 6)
    for cell in cells:
        for problem in problems(cell[:3]):
            out.append(iterative_nesta(problem, 6, use_music=True))
            out.append(nesta_solve(problem, known_support=(0, 5)))
    c5 = problems(ProblemSpec(n=32, N=64, L=4, k=12, rank=4, seed=s) for s in range(25))
    noisy = problems(
        ProblemSpec(n=24, N=64, L=3, k=6, rank=3, noise_sigma=0.01, matrix_kind="gaussian", seed=s)
        for s in range(12)
    )
    for cell in (c5, noisy):
        for solver in ("nesta", "smv"):
            out += solve_problems(solver, cell, 0)
    mixed = problems(
        ProblemSpec(n=32, N=64, L=4, k=6, rank=2, matrix_kind=MATRIX_KINDS[s % 2], seed=s)
        for s in range(12)
    )
    out += nesta_solve_batch(mixed)
    out += nesta_solve_batch(c5[:12], cfg=NestaConfig(max_inner_iters=54))
    gaussian = ProblemSpec(
        n=128, N=512, L=8, k=20, rank=8, noise_sigma=1e-3, matrix_kind="gaussian"
    )
    large = [dataclasses.replace(gaussian, seed=s) for s in range(3)]
    large.append(ProblemSpec(n=256, N=1024, L=16, k=40, rank=16, noise_sigma=1e-3))
    out += [nesta_solve(problem) for problem in problems(large)]
    for problem in zero_data_problems():
        for solver in ("nesta", "smv", "iterative-nesta"):
            out += solve_problems(solver, [problem], 2)
        out += solve_problems("iterative-nesta", [problem], 2, use_music=True)
    pool = problems(dataclasses.replace(gaussian, seed=s) for s in range(8))
    for adaptive in (False, True):
        out += [iht_solve(problem, IhtConfig(k=20, adaptive_step=adaptive)) for problem in pool]
    return out


def main():
    h = hashlib.sha256()
    found = reports()
    for report in found:
        if isinstance(report, Exception):
            feed(h, (type(report).__name__, str(report)))
        else:
            for name in FIELDS:
                feed(h, getattr(report, name))
    print(f"{len(found)} reports sha256 {h.hexdigest()}")


if __name__ == "__main__":
    main()
