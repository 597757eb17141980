"""The benchmark's workloads: inputs made from a seed, a fixed op list, op checks.

A workload's op list is run in passes. ``prepare(seed)`` makes the inputs
and returns the seconds each instance took to generate, ``warmup()`` runs
one op that is not counted, and ``run_pass()`` runs the op list once and
returns its timed seconds, one ``OpRecord`` per op and any workload-level
check failures.

An op *fails* when it raises, returns a non-finite estimate, or breaks its
check; a failed op's seconds count as infinite. An op *recovers* when its
detected support equals the true support and its relative error is below
the workload's accuracy. Not recovering is a measured outcome, not a failure.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from mmvsolve import cli, iht, nesta, synth

OUT_DIR = Path(__file__).resolve().parent / "out"

# Relative error below which a noisy solve counts as recovered.
NOISY_ACCURACY = 1e-2
# Slack on the noise-ball radius when checking a NESTA estimate's residual.
RESIDUAL_RTOL = 1e-6


@dataclass
class OpRecord:
    seconds: float
    passed: bool
    recovered: bool
    rel_error: float
    note: str = ""


def _failed(note):
    return OpRecord(seconds=math.inf, passed=False, recovered=False, rel_error=math.nan, note=note)


def check_in_noise_ball(instance, estimate):
    """NESTA check: the estimate's residual lies inside the noise ball."""
    problem = instance.problem
    alpha = problem.coefficients_from_signal(estimate)
    residual = float(np.linalg.norm(problem.phi @ alpha - problem.B))
    if residual > problem.epsilon * (1.0 + RESIDUAL_RTOL):
        return f"residual {residual!r} outside the noise ball {problem.epsilon!r}"
    return None


def check_row_sparse(instance, estimate):
    """IHT check: the estimate has at most k nonzero rows."""
    rows = int(np.count_nonzero(np.any(estimate != 0, axis=1)))
    if rows > instance.spec.k:
        return f"{rows} nonzero rows, more than k = {instance.spec.k}"
    return None


class SolverWorkload:
    """Direct solver calls on a pool of instances with seeds seed + i."""

    def __init__(self, spec, pool_size, solve, check):
        self.spec = spec
        self.pool_size = pool_size
        self.solve = solve
        self.check = check
        self.instances = []

    def prepare(self, seed):
        self.instances = []
        gen_seconds = []
        for i in range(self.pool_size):
            t0 = perf_counter()
            instance = synth.gen_instance(replace(self.spec, seed=seed + i))
            gen_seconds.append(perf_counter() - t0)
            self.instances.append(instance)
        return gen_seconds

    def warmup(self):
        t0 = perf_counter()
        self.solve(self.instances[0])
        return perf_counter() - t0

    def reference_operator(self):
        """An operator and channel count at the workload's shape."""
        return self.instances[0].problem.phi, self.spec.L

    def run_pass(self):
        records = []
        timed = 0.0
        for instance in self.instances:
            t0 = perf_counter()
            try:
                report = self.solve(instance)
            except Exception as exc:  # an op that raises is a failed op
                timed += perf_counter() - t0
                records.append(_failed(f"raised {exc!r}"))
                continue
            seconds = perf_counter() - t0
            timed += seconds
            records.append(self._score(instance, report, seconds))
        return timed, records, []

    def _score(self, instance, report, seconds):
        estimate = report.estimate
        if not np.all(np.isfinite(estimate)):
            return _failed("non-finite estimate")
        note = self.check(instance, estimate)
        if note is not None:
            return _failed(note)
        truth = instance.X_true
        rel = float(np.linalg.norm(estimate - truth) / np.linalg.norm(truth))
        recovered = report.detected_support == instance.support_true and rel < NOISY_ACCURACY
        return OpRecord(seconds=seconds, passed=True, recovered=recovered, rel_error=rel)


# ---------------------------------------------------------------------------
# criterion-5 sweep through the CLI

SWEEP_COLUMNS = (
    "solver,n,N,L,k,rank,noise_sigma,seed,relative_error,support_exact,"
    "inner_iters,outer_iters,wall_time_s,success"
).split(",")
SWEEP_SHAPE = (32, 64, 4, 4)  # n, N, L, rank
SWEEP_SOLVERS = ("nesta", "smv")
SWEEP_GRID_K = (8, 10, 12, 14)
SWEEP_TRIALS = 25
SWEEP_THRESHOLD = 1e-3


def _sweep_config(seed, output, trials, grid_k, solvers):
    n, N, L, rank = SWEEP_SHAPE
    return (
        f"n = {n}\nN = {N}\nL = {L}\nk = {grid_k[0]}\nrank = {rank}\nnoise_sigma = 0.0\n"
        "matrix_kind = row-orthonormal-gaussian\n"
        f"seed = {seed}\ntrials = {trials}\nsolvers = {', '.join(solvers)}\n"
        f"grid.k = {', '.join(str(k) for k in grid_k)}\n"
        f"success_threshold = {SWEEP_THRESHOLD!r}\noutput = {output}\n"
    )


def parse_trial_row(line, seed):
    """Validate one trial row of the sweep CSV; returns (solver, k, record)."""
    fields = line.split(",")
    if len(fields) != len(SWEEP_COLUMNS):
        raise ValueError(f"{len(fields)} columns, expected {len(SWEEP_COLUMNS)}")
    row = dict(zip(SWEEP_COLUMNS, fields))
    if row["solver"] not in SWEEP_SOLVERS:
        raise ValueError(f"unexpected solver {row['solver']!r}")
    shape = tuple(int(row[c]) for c in ("n", "N", "L", "rank"))
    if shape != SWEEP_SHAPE or float(row["noise_sigma"]) != 0.0:
        raise ValueError(f"row is for another problem: {line!r}")
    k = int(row["k"])
    trial = int(row["seed"]) - seed
    if k not in SWEEP_GRID_K or not 0 <= trial < SWEEP_TRIALS:
        raise ValueError(f"row outside the sweep grid: {line!r}")
    flags = {c: row[c] for c in ("support_exact", "success")}
    if any(v not in ("0", "1") for v in flags.values()):
        raise ValueError(f"non-boolean flag in {flags}")
    if int(row["inner_iters"]) < 0 or int(row["outer_iters"]) < 0:
        raise ValueError("negative iteration count")
    rel = float(row["relative_error"])
    wall = float(row["wall_time_s"])
    if not (math.isfinite(rel) and math.isfinite(wall) and wall >= 0):
        raise ValueError(f"non-finite error or time: {line!r}")
    success = flags["success"] == "1"
    if success != (rel < SWEEP_THRESHOLD):
        raise ValueError(f"success flag disagrees with relative error {rel!r}")
    recovered = success and flags["support_exact"] == "1"
    return row["solver"], k, OpRecord(seconds=wall, passed=True, recovered=recovered, rel_error=rel)


class SweepWorkload:
    """``mmvsolve sweep`` run in-process; one op is one trial row of its CSV."""

    expected_rows = len(SWEEP_GRID_K) * len(SWEEP_SOLVERS) * SWEEP_TRIALS

    def prepare(self, seed):
        OUT_DIR.mkdir(exist_ok=True)
        self.seed = seed
        self.config = OUT_DIR / f"sweep_c5-seed{seed}.cfg"
        self.output = OUT_DIR / f"sweep_c5-seed{seed}.csv"
        self.config.write_text(
            _sweep_config(seed, self.output, SWEEP_TRIALS, SWEEP_GRID_K, SWEEP_SOLVERS)
        )
        self.warmup_config = OUT_DIR / f"sweep_c5-seed{seed}-warmup.cfg"
        self.warmup_config.write_text(
            _sweep_config(seed, OUT_DIR / f"sweep_c5-seed{seed}-warmup.csv", 1, (8,), ("nesta",))
        )
        return []

    def warmup(self):
        t0 = perf_counter()
        self._sweep(self.warmup_config)
        return perf_counter() - t0

    def reference_operator(self):
        n, N, L, rank = SWEEP_SHAPE
        spec = synth.ProblemSpec(n=n, N=N, L=L, k=SWEEP_GRID_K[0], rank=rank, seed=self.seed)
        return synth.gen_instance(spec).problem.phi, spec.L

    def _sweep(self, config):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["sweep", "--config", str(config)])
        return code, out.getvalue()

    def run_pass(self):
        t0 = perf_counter()
        code, printed = self._sweep(self.config)
        timed = perf_counter() - t0
        if code != 0:
            note = f"mmvsolve sweep exited {code}: {printed.strip()!r}"
            return timed, [_failed(note)] * self.expected_rows, [note]
        records = []
        success = {}
        problems = []
        lines = self.output.read_text().splitlines()
        if lines[:2] != [f"# success_threshold = {SWEEP_THRESHOLD!r}", ",".join(SWEEP_COLUMNS)]:
            problems.append(f"unexpected CSV preamble {lines[:2]!r}")
        for line in lines[2:]:
            if line.split(",")[7:8] == ["agg"]:
                continue
            try:
                solver, k, record = parse_trial_row(line, self.seed)
            except ValueError as exc:
                records.append(_failed(f"malformed trial row: {exc}"))
                continue
            records.append(record)
            key = (k, solver)
            success[key] = success.get(key, 0) + (record.rel_error < SWEEP_THRESHOLD)
        missing = self.expected_rows - len(records)
        if missing:
            problems.append(f"{missing} trial rows missing or extra")
            records.extend(_failed("trial row missing") for _ in range(max(missing, 0)))
        for k in SWEEP_GRID_K:
            joint, per_channel = success.get((k, "nesta"), 0), success.get((k, "smv"), 0)
            if joint < per_channel:
                problems.append(f"k={k}: joint success {joint} < per-channel {per_channel}")
        return timed, records, problems


def _nesta(instance):
    return nesta.nesta_solve(instance.problem)


def _iht(instance):
    return iht.iht_solve(instance.problem, iht.IhtConfig(k=instance.spec.k))


LARGE_SPEC = synth.ProblemSpec(n=256, N=1024, L=16, k=40, rank=16, noise_sigma=1e-3)
GAUSSIAN_SPEC = synth.ProblemSpec(
    n=128, N=512, L=8, k=20, rank=8, noise_sigma=1e-3, matrix_kind="gaussian"
)


def make_workloads():
    return {
        "sweep_c5": SweepWorkload(),
        "large_certified": SolverWorkload(LARGE_SPEC, 8, _nesta, check_in_noise_ball),
        "general_gaussian": SolverWorkload(GAUSSIAN_SPEC, 32, _nesta, check_in_noise_ball),
        "iht_gaussian": SolverWorkload(GAUSSIAN_SPEC, 32, _iht, check_row_sparse),
    }
