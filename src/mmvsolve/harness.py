"""Benchmark harness: single trials, solver dispatch, sweeps, CSV results.

A trial generates a seeded instance, runs one solver, and scores the
estimate against the known ground truth. Sweeps iterate a grid over k
and/or n, run a fixed number of trials per cell with seeds
base_seed + trial_index (every solver in a cell gets the same generated
instances), and write one CSV row per trial plus an aggregate row per
(cell, solver). Everything except wall time is deterministic.

Every solver gets a cell's instances in one call of :func:`solve_problems`.
``nesta`` and ``smv`` solve them as one batch (for ``smv``, the L column
problems of every trial), and a trial's ``wall_time_s`` is its share of
the cell's measured solve time, split in proportion to inner iterations,
so a cell's rows sum to the time the cell took. ``iht`` and
``iterative-nesta`` solve one instance after another and record each
solve's own elapsed time. A single trial (:func:`run_trial`) is a cell of
one trial.

On Linux, a sweep of more than one (n, k) cell whose operators are all
small (n·N at most POOL_MAX_ENTRIES, where products stay on one BLAS
thread) runs its cells in a pool of forked worker processes, one per
usable CPU at most: each worker generates, solves and scores whole cells.
Rows are still written in grid order, so the CSV holds the same bytes as
an in-process run apart from ``wall_time_s``, which is then measured
while other cells run. Every other sweep runs its cells in-process, one
after another. The pool is shut down before :func:`run_sweep` returns or
raises.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .core import SOLVER_ERRORS, InvalidArgumentError, MmvProblem, as_count, as_real
from .iht import IhtConfig, iht_solve
from .nesta import (
    iterative_nesta,
    joined_report,
    # not called here; the benchmark's tracing test reads harness.nesta_solve
    nesta_solve,  # noqa: F401
    nesta_solve_batch,
)
from .synth import SPEC_KEYS, ProblemSpec, field_value, gen_instance, read_keyvalue

SOLVER_NESTA = "nesta"
SOLVER_ITERATIVE_NESTA = "iterative-nesta"
SOLVER_IHT = "iht"
SOLVER_SMV = "smv"
SOLVERS = (SOLVER_NESTA, SOLVER_ITERATIVE_NESTA, SOLVER_IHT, SOLVER_SMV)

# The outcome columns of a results row. Each names the TrialResult field
# that a trial row shows, and the aggregate that an aggregate row shows,
# with the reduction over the cell's trials that gives it.
_OUTCOMES = (
    ("relative_error", "relative_error", "median_relative_error", np.median),
    ("support_exact", "support_exact", "support_exact_rate", np.mean),
    ("inner_iters", "inner_iterations", "median_inner_iters", np.median),
    ("outer_iters", "outer_iterations", "median_outer_iters", np.median),
    ("wall_time_s", "wall_time", "total_wall_time", np.sum),
    ("success", "success", "success_rate", np.mean),
)

# The 14 columns of a results row: the solver, the spec's fields, the seed
# (AGGREGATE_MARKER on an aggregate row), then the outcome.
_SPEC_COLUMNS = ("n", "N", "L", "k", "rank", "noise_sigma")
RESULT_COLUMNS = ("solver", *_SPEC_COLUMNS, "seed", *(column for column, *_ in _OUTCOMES))
RESULT_HEADER = ",".join(RESULT_COLUMNS)

# Marker in the seed column of per-cell aggregate rows.
AGGREGATE_MARKER = "agg"

# Relative error below which a trial counts as a success, unless a sweep
# config sets its own.
SUCCESS_THRESHOLD = 1e-3

# The keys of a sweep config file: a base spec's and the sweep's own.
SWEEP_KEYS = SPEC_KEYS + ("trials", "solvers", "output", "grid.k", "grid.n", "success_threshold")

# Largest operator, in entries n·N, of a sweep whose cells run in worker
# processes: 64x256. On 2 CPUs with 2 BLAS threads, a 4-cell nesta + smv
# sweep ran 1.35x faster in two workers at 64x256 (median of 8 alternating
# pairs) but up to 4.5x slower at 128x512, where OpenBLAS threads the
# operator products and the two workers' BLAS threads contend for the CPUs.
POOL_MAX_ENTRIES = 64 * 256


@dataclass(eq=False)
class TrialResult:
    spec: ProblemSpec
    solver: str
    relative_error: float
    support_exact: bool
    inner_iterations: int
    outer_iterations: int
    wall_time: float
    success: bool
    error: str | None = None


def _column_problems(problem):
    """The L single-column problems of the per-channel baseline."""
    eps_col = problem.epsilon / np.sqrt(problem.L)
    return [
        MmvProblem(A=problem.A, B=problem.B[:, j : j + 1], epsilon=eps_col)
        for j in range(problem.L)
    ]


def _stacked_columns(problem, reports):
    """The per-channel report of ``problem`` from its column reports joined
    in column order, its final objective and wall time their sums, or the
    first column's error."""
    for report in reports:
        if isinstance(report, Exception):
            return report
    estimate = np.column_stack([r.estimate[:, 0] for r in reports])
    return joined_report(problem, estimate, reports, wall_time=sum(r.wall_time for r in reports))


def solve_smv_batch(problems, cfg=None):
    """Per-channel baseline on every problem, all columns solved as one batch.

    Returns one report (or error) per problem, as :func:`solve_smv_per_column`
    would give it; ``wall_time`` is the problem's share of the batch.
    """
    columns = [_column_problems(p) for p in problems]
    reports = nesta_solve_batch([c for cols in columns for c in cols], cfg=cfg)
    stacked = []
    for problem, cols in zip(problems, columns):
        stacked.append(_stacked_columns(problem, reports[: len(cols)]))
        del reports[: len(cols)]  # drop the column reports as they are merged
    return stacked


def solve_smv_per_column(problem, cfg=None):
    """Per-channel baseline: solve each column as its own L=1 problem.

    Reuses the exact joint solver machinery so comparisons isolate the
    row-coupling, not implementation differences. The noise radius is
    split as epsilon / sqrt(L) per column, which keeps the stacked
    residual within the problem's ball; a caller that wants another radius
    passes ``dataclasses.replace(problem, epsilon=...)``, which is split the
    same way.
    """
    (report,) = solve_smv_batch([problem], cfg)
    if isinstance(report, Exception):
        raise report
    return report


def solve_problems(solver, problems, k, cfg=None, use_music=False):
    """Run one solver on each problem; a report, or the error it raised, each.

    ``nesta`` and ``smv`` solve the whole list as one batch, and a report's
    ``wall_time`` is its share of that batch; ``iterative-nesta`` and
    ``iht`` solve one problem after another. ``k`` is the row count the
    thresholding solvers keep.
    """
    if solver not in SOLVERS:
        raise InvalidArgumentError(f"unknown solver {solver!r}; use one of {SOLVERS}")
    if solver == SOLVER_NESTA:
        return nesta_solve_batch(problems, cfg=cfg)
    if solver == SOLVER_SMV:
        return solve_smv_batch(problems, cfg)
    reports = []
    for problem in problems:
        try:
            if solver == SOLVER_ITERATIVE_NESTA:
                report = iterative_nesta(problem, k, cfg=cfg, use_music=use_music)
            else:
                report = iht_solve(problem, IhtConfig(k=k))
        except SOLVER_ERRORS as exc:
            report = exc
        reports.append(report)
    return reports


def score_trial(solver, instance, report, success_threshold=SUCCESS_THRESHOLD):
    """Score a report (or a solver error) against the instance's truth; the
    trial's wall time is the report's, 0.0 for an error."""
    if isinstance(report, Exception):
        return TrialResult(
            spec=instance.spec,
            solver=solver,
            relative_error=float("inf"),
            support_exact=False,
            inner_iterations=0,
            outer_iterations=0,
            wall_time=0.0,
            success=False,
            error=str(report),
        )
    truth_norm = float(np.linalg.norm(instance.X_true))
    rel = float(np.linalg.norm(report.estimate - instance.X_true)) / truth_norm
    return TrialResult(
        spec=instance.spec,
        solver=solver,
        relative_error=rel,
        support_exact=report.detected_support == instance.support_true,
        inner_iterations=report.inner_iterations,
        outer_iterations=report.outer_iterations,
        wall_time=report.wall_time,
        success=rel < success_threshold,
    )


def run_trial(spec, solver):
    """Generate, solve, and score one instance: a sweep cell of one trial,
    scored at SUCCESS_THRESHOLD. Solver failures are recorded in the result
    (success False, error note) rather than raised."""
    (result,) = _cell_results([gen_instance(spec)], solver, SUCCESS_THRESHOLD)
    return result


def _cell_results(instances, solver, success_threshold):
    """The trial results of one solver on a cell's instances; each trial's
    wall time is its report's (a share of the batch for batched solvers)."""
    k = instances[0].spec.k
    reports = solve_problems(solver, [inst.problem for inst in instances], k)
    return [
        score_trial(solver, inst, report, success_threshold)
        for inst, report in zip(instances, reports)
    ]


@dataclass(frozen=True)
class SweepConfig:
    """A grid over k and/or n around a base spec, plus output location."""

    base: ProblemSpec
    solvers: tuple[str, ...]
    trials: int
    output: str
    grid_k: tuple[int, ...] = ()
    grid_n: tuple[int, ...] = ()
    success_threshold: float = SUCCESS_THRESHOLD

    def __post_init__(self):
        object.__setattr__(self, "trials", as_count(self.trials, "trials"))
        object.__setattr__(
            self, "success_threshold", as_real(self.success_threshold, "success_threshold")
        )
        if not self.solvers:
            raise InvalidArgumentError("at least one solver is required")
        for s in self.solvers:
            if s not in SOLVERS:
                raise InvalidArgumentError(f"unknown solver {s!r}; use one of {SOLVERS}")
        # a repeated value would run its cells twice under one aggregate
        named = (("solvers", self.solvers), ("grid.k", self.grid_k), ("grid.n", self.grid_n))
        for name, values in named:
            if len(set(values)) < len(values):
                raise InvalidArgumentError(f"{name} repeats a value: {values}")
        if not self.grid_k:
            object.__setattr__(self, "grid_k", (self.base.k,))
        if not self.grid_n:
            object.__setattr__(self, "grid_n", (self.base.n,))
        # every cell's spec and the last trial seed are checked here, so that
        # a bad value stops the sweep before run_sweep opens its output
        for n in self.grid_n:
            for k in self.grid_k:
                replace(self.base, n=n, k=k)
        replace(self.base, seed=self.base.seed + self.trials - 1)


def _parse_int_list(raw):
    return tuple(int(v.strip()) for v in raw.split(",") if v.strip())


def parse_sweep_config(path):
    """Build a :class:`SweepConfig` from a flat key-value file."""
    fields = read_keyvalue(path, SWEEP_KEYS)
    base = ProblemSpec.from_fields(fields)
    solvers = field_value(fields, "solvers", str)
    return SweepConfig(
        base=base,
        solvers=tuple(s.strip() for s in solvers.split(",") if s.strip()),
        trials=field_value(fields, "trials", int),
        output=field_value(fields, "output", str),
        grid_k=field_value(fields, "grid.k", _parse_int_list, ()),
        grid_n=field_value(fields, "grid.n", _parse_int_list, ()),
        success_threshold=field_value(fields, "success_threshold", float, SUCCESS_THRESHOLD),
    )


def _fmt(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _sweep_cell(sweep, cell):
    """Generate, solve and score one (n, k) cell of a sweep: the trial
    results of each solver, in ``sweep.solvers`` order. The solvers share
    the cell's generated instances."""
    n, k = cell
    instances = [
        gen_instance(replace(sweep.base, n=n, k=k, seed=sweep.base.seed + t))
        for t in range(sweep.trials)
    ]
    return [_cell_results(instances, solver, sweep.success_threshold) for solver in sweep.solvers]


def _cell_workers(sweep, cells):
    """Worker processes for a sweep of ``cells`` cells; 1 runs them in-process.

    On Linux, when every cell's operator has at most POOL_MAX_ENTRIES
    entries, one per cell and never more than the CPUs this process may
    run on; 1 otherwise.
    """
    if sys.platform != "linux" or max(sweep.grid_n) * sweep.base.N > POOL_MAX_ENTRIES:
        return 1
    return min(cells, len(os.sched_getaffinity(0)))


@contextmanager
def _cell_map(workers):
    """An ordered map over cells: the builtin one for one worker, else the
    map of a pool of ``workers`` forked processes, shut down on exit (its
    queued cells cancelled, its running ones awaited)."""
    if workers == 1:
        yield map
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        yield pool.map
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def run_sweep(sweep):
    """Run every (cell, solver, trial) and write the results CSV.

    Returns (trial_results, aggregates) where aggregates maps
    (n, k, solver) to a dict with success_rate and medians. The output file
    records the success threshold in a comment line above the header; rerun
    with identical config, the file is byte-identical except wall times.
    The solvers of a cell share its generated instances. Cells may run in
    worker processes (see the module docstring); rows are written in grid
    order either way.
    """
    fh = open(sweep.output, "w")
    try:
        fh.write(f"# success_threshold = {_fmt(sweep.success_threshold)}\n")
        fh.write(RESULT_HEADER + "\n")
        all_results = []
        aggregates = {}
        cells = [(n, k) for n in sweep.grid_n for k in sweep.grid_k]
        with _cell_map(_cell_workers(sweep, len(cells))) as cell_map:
            for (n, k), outcome in zip(cells, cell_map(partial(_sweep_cell, sweep), cells)):
                for solver, cell in zip(sweep.solvers, outcome):
                    fh.writelines(_trial_row(result) + "\n" for result in cell)
                    agg = _aggregate(cell)
                    aggregates[(n, k, solver)] = agg
                    fh.write(_aggregate_row(solver, cell[0].spec, agg) + "\n")
                    all_results.extend(cell)
        return all_results, aggregates
    finally:
        fh.close()


def _row(solver, spec, seed, outcome):
    """One row of RESULT_COLUMNS, with the six ``outcome`` values last."""
    fields = (solver, *(getattr(spec, c) for c in _SPEC_COLUMNS), seed, *outcome)
    return ",".join(_fmt(v) for v in fields)


def _trial_row(r):
    return _row(r.solver, r.spec, r.spec.seed, (getattr(r, f) for _, f, _, _ in _OUTCOMES))


def _aggregate(cell):
    return {
        name: float(reduce([getattr(r, f) for r in cell])) for _, f, name, reduce in _OUTCOMES
    }


def _aggregate_row(solver, spec, agg):
    return _row(solver, spec, AGGREGATE_MARKER, (agg[name] for _, _, name, _ in _OUTCOMES))
