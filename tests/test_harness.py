import multiprocessing
import os
import re
import sys

import numpy as np
import pytest
from conftest import assert_same_report, csv_without_wall_time

from mmvsolve import (
    SOLVERS,
    InfeasibleProblemError,
    InvalidArgumentError,
    MeasurementMatrix,
    MmvProblem,
    ProblemSpec,
    SweepConfig,
    gen_instance,
    nesta_solve,
    parse_sweep_config,
    run_sweep,
    run_trial,
    solve_smv_per_column,
)
from mmvsolve import harness
from mmvsolve.harness import (
    AGGREGATE_MARKER,
    RESULT_HEADER,
    _trial_row,
    score_trial,
    solve_problems,
    solve_smv_batch,
)


def small_spec(**kw):
    base = dict(n=10, N=20, L=3, k=2, rank=2, seed=0)
    base.update(kw)
    return ProblemSpec(**base)


def test_run_trial_metrics_perfect_and_zero():
    result = run_trial(small_spec(), "nesta")
    assert 0 <= result.relative_error < 1e-3
    assert result.success
    assert result.support_exact
    assert result.error is None

    # relative error of the zero estimate against a nonzero truth is 1
    inst = gen_instance(small_spec())
    zero_err = np.linalg.norm(0.0 - inst.X_true) / np.linalg.norm(inst.X_true)
    assert zero_err == pytest.approx(1.0)


def test_run_trial_rejects_unknown_solver():
    with pytest.raises(InvalidArgumentError):
        run_trial(small_spec(), "omp")


def test_iht_error_is_returned_in_its_slot_and_scored_as_a_failure():
    zero = MmvProblem(A=MeasurementMatrix(np.zeros((10, 20))), B=np.ones((10, 3)))
    inst = gen_instance(small_spec())
    error, report = solve_problems("iht", [zero, inst.problem], 2)
    assert isinstance(error, InvalidArgumentError)
    assert report.detected_support == inst.support_true
    scored = score_trial("iht", inst, error)
    assert scored.relative_error == float("inf")
    assert not scored.support_exact and not scored.success
    assert scored.wall_time == 0.0
    assert scored.error == "measurement operator is zero"


def infeasible_problem():
    # rows e0, e1, e0: an exact fit needs B's first and last entries equal
    A = np.zeros((3, 5))
    A[0, 0] = A[1, 1] = A[2, 0] = 1.0
    return MmvProblem(A=MeasurementMatrix(A), B=np.array([[1.0], [2.0], [5.0]]))


def test_infeasible_problem_is_returned_by_the_solvers_and_raised_alone():
    problem = infeasible_problem()
    (error,) = solve_problems("iterative-nesta", [problem], 2)
    assert isinstance(error, InfeasibleProblemError)
    (error,) = solve_smv_batch([problem])
    assert isinstance(error, InfeasibleProblemError)
    with pytest.raises(InfeasibleProblemError, match="exact consistency demanded"):
        solve_smv_per_column(problem)


def test_run_trial_is_deterministic_except_timing():
    a = run_trial(small_spec(seed=5), "iterative-nesta")
    b = run_trial(small_spec(seed=5), "iterative-nesta")
    assert a.relative_error == b.relative_error
    assert a.support_exact == b.support_exact
    assert a.inner_iterations == b.inner_iterations
    assert a.outer_iterations == b.outer_iterations
    assert a.success == b.success


@pytest.mark.parametrize("solver", ["nesta", "iterative-nesta", "smv"])
def test_nesta_reports_split_their_iterations_into_stages(solver):
    # smv's report lists the stages of each column's solve in turn
    problems = [gen_instance(small_spec(seed=seed)).problem for seed in (0, 1)]
    for report in solve_problems(solver, problems, 2):
        stages = report.stage_iterations
        assert sum(stages) == report.inner_iterations == len(report.objective_trace) > 0
        assert len(stages) >= 4 * (problems[0].L if solver == "smv" else 1)


def test_smv_baseline_stacks_per_column_solves():
    inst = gen_instance(small_spec(seed=8))
    joint = solve_smv_per_column(inst.problem)
    cols = []
    for j in range(inst.problem.L):
        sub = MmvProblem(
            A=inst.problem.A, B=inst.problem.B[:, j : j + 1], epsilon=0.0
        )
        cols.append(nesta_solve(sub).estimate[:, 0])
    assert np.array_equal(joint.estimate, np.column_stack(cols))


def column_reports(problem):
    """Each column of ``problem`` solved alone, at the split radius."""
    L = problem.L
    return [
        nesta_solve(
            MmvProblem(A=problem.A, B=problem.B[:, j : j + 1], epsilon=problem.epsilon / np.sqrt(L))
        )
        for j in range(L)
    ]


def test_smv_report_sums_its_columns_objectives_and_restarts():
    problem = gen_instance(ProblemSpec(n=16, N=32, L=4, k=3, rank=3, seed=1)).problem
    report = solve_smv_per_column(problem)
    columns = column_reports(problem)
    assert report.final_objective == sum(c.final_objective for c in columns)
    assert report.restarts == sum(c.restarts for c in columns) > 0
    assert report.inner_iterations == sum(c.inner_iterations for c in columns)


def test_smv_batch_reports_each_problem_as_alone():
    spec = dict(n=12, N=24, L=3, k=3, rank=3)
    problems = [
        gen_instance(ProblemSpec(seed=1, **spec)).problem,
        gen_instance(ProblemSpec(seed=2, noise_sigma=1e-2, matrix_kind="gaussian", **spec)).problem,
    ]
    for problem, report in zip(problems, solve_smv_batch(problems)):
        assert_same_report(report, solve_smv_per_column(problem))


def test_smv_batch_factors_each_uncertified_operator_once(monkeypatch):
    # the column problems of a trial share its phi, so they share one
    # eigendecomposition and one rotated copy of phi in the batch
    from mmvsolve import nesta

    spec = dict(n=12, N=24, L=3, k=3, rank=3, noise_sigma=1e-2, matrix_kind="gaussian")
    problems = [gen_instance(ProblemSpec(seed=s, **spec)).problem for s in (1, 2)]
    factorizations, stacks = [], []
    eigh, of = np.linalg.eigh, nesta._Operators.of.__func__

    def counted_eigh(a):
        factorizations.append(a.shape)
        return eigh(a)

    def recorded_of(cls, operators):
        result = of(cls, operators)
        stacks.append(len(result.stack))
        return result

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(nesta._Operators, "of", classmethod(recorded_of))
    reports = solve_smv_batch(problems)
    assert not any(isinstance(r, Exception) for r in reports)
    assert factorizations == [(12, 12)] * len(problems)
    assert stacks[0] == len(problems)
    assert max(stacks) <= len(problems)


def test_run_trial_all_solvers():
    for solver in ("nesta", "iterative-nesta", "iht", "smv"):
        result = run_trial(small_spec(seed=2), solver)
        assert result.error is None
        assert result.success, f"{solver}: rel={result.relative_error}"


def test_run_trial_is_a_sweep_cell_of_one(tmp_path):
    # a trial equals the row a one-trial sweep writes for it, wall time aside
    spec = small_spec(seed=4)
    for solver in SOLVERS:
        out = tmp_path / f"{solver}.csv"
        run_sweep(SweepConfig(base=spec, solvers=(solver,), trials=1, output=str(out)))
        swept = out.read_text().splitlines()[2].split(",")
        single = _trial_row(run_trial(spec, solver)).split(",")
        del swept[12], single[12]  # wall_time_s
        assert single == swept, solver


def write_config(path, **overrides):
    fields = {
        "n": 10,
        "N": 20,
        "L": 3,
        "k": 2,
        "rank": 2,
        "noise_sigma": 0.0,
        "seed": 100,
        "trials": 2,
        "solvers": "nesta",
        "output": str(path.parent / "out.csv"),
    }
    fields.update(overrides)
    lines = ["# sweep configuration"]
    lines += [f"{key} = {value}" for key, value in fields.items()]
    path.write_text("\n".join(lines) + "\n")
    return fields


def test_parse_sweep_config(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    write_config(cfg_path, **{"grid.k": "2, 3", "solvers": "nesta, iht"})
    cfg = parse_sweep_config(cfg_path)
    assert cfg.grid_k == (2, 3)
    assert cfg.grid_n == (10,)
    assert cfg.solvers == ("nesta", "iht")
    assert cfg.success_threshold == 1e-3
    assert cfg.base.seed == 100


def test_parse_sweep_config_missing_key(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text("n = 4\n")
    with pytest.raises(InvalidArgumentError):
        parse_sweep_config(cfg_path)


@pytest.mark.parametrize(
    "line, words",
    [
        ("trial = 3", "key 'trial' unknown"),
        ("grid.L = 2, 3", "key 'grid.L' unknown"),
        ("solvers = iht", "key 'solvers' repeated"),
    ],
)
def test_parse_sweep_config_rejects_an_unknown_or_repeated_key(tmp_path, line, words):
    cfg_path = tmp_path / "sweep.cfg"
    write_config(cfg_path)
    with open(cfg_path, "a") as fh:
        fh.write(line + "\n")
    with pytest.raises(InvalidArgumentError, match=re.escape(f"{cfg_path}:12: {words}")):
        parse_sweep_config(cfg_path)


def test_parse_sweep_config_takes_every_key(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    extra = {"matrix_kind": "gaussian", "grid.k": "2", "grid.n": "10, 12"}
    write_config(cfg_path, **extra, success_threshold=0.01)
    cfg = parse_sweep_config(cfg_path)
    assert (cfg.base.matrix_kind, cfg.grid_k, cfg.grid_n) == ("gaussian", (2,), (10, 12))
    assert cfg.success_threshold == 0.01


def test_minimal_sweep_csv_shape(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    write_config(cfg_path, trials=1)
    cfg = parse_sweep_config(cfg_path)
    results, aggregates = run_sweep(cfg)
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0].startswith("# success_threshold")
    assert lines[1] == RESULT_HEADER
    assert len(lines) == 4  # comment + header + 1 trial + 1 aggregate
    assert len(results) == 1
    assert lines[3].split(",")[7] == AGGREGATE_MARKER


def test_sweep_aggregate_recomputable_from_trials(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    write_config(cfg_path, trials=3, **{"grid.k": "2, 3", "solvers": "nesta, iht"})
    cfg = parse_sweep_config(cfg_path)
    results, aggregates = run_sweep(cfg)
    assert len(results) == 3 * 2 * 2
    for (n, k, solver), agg in aggregates.items():
        cell = [
            r
            for r in results
            if r.spec.n == n and r.spec.k == k and r.solver == solver
        ]
        assert len(cell) == 3
        assert 0.0 <= agg["success_rate"] <= 1.0
        assert agg["success_rate"] == pytest.approx(
            np.mean([r.success for r in cell])
        )
        # matched seeds across solvers within a cell
        assert [r.spec.seed for r in cell] == [100, 101, 102]


def test_cell_wall_times_sum_to_the_aggregate(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    write_config(cfg_path, trials=3, **{"grid.k": "2, 3", "solvers": "nesta, smv, iht"})
    results, aggregates = run_sweep(parse_sweep_config(cfg_path))
    rows = [line.split(",") for line in (tmp_path / "out.csv").read_text().splitlines()[2:]]
    cells = {}
    for row in rows:
        cells.setdefault((row[0], row[4]), []).append(row)
    assert len(cells) == 6
    for (solver, k), cell in cells.items():
        trials, agg = cell[:-1], cell[-1]
        assert agg[7] == AGGREGATE_MARKER and len(trials) == 3
        assert float(agg[12]) == pytest.approx(sum(float(r[12]) for r in trials), rel=1e-12)
        assert aggregates[(10, int(k), solver)]["total_wall_time"] == float(agg[12])
        if solver in ("nesta", "smv"):
            # a batched cell splits its solve time in proportion to iterations
            per_iteration = [float(r[12]) / int(r[10]) for r in trials]
            assert per_iteration == pytest.approx([per_iteration[0]] * 3, rel=1e-9)


def test_sweep_rerun_identical_except_timing(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    write_config(cfg_path, trials=2, output=str(tmp_path / "a.csv"))
    run_sweep(parse_sweep_config(cfg_path))
    write_config(cfg_path, trials=2, output=str(tmp_path / "b.csv"))
    run_sweep(parse_sweep_config(cfg_path))

    def strip_timing(text):
        rows = []
        for line in text.splitlines():
            if line.startswith("#") or line == RESULT_HEADER:
                rows.append(line)
                continue
            cells = line.split(",")
            del cells[12]  # wall_time_s
            rows.append(",".join(cells))
        return rows

    a = strip_timing((tmp_path / "a.csv").read_text())
    b = strip_timing((tmp_path / "b.csv").read_text())
    assert a == b


def test_sweep_unwritable_output_fails_before_compute(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    write_config(cfg_path, output=str(tmp_path / "missing_dir" / "out.csv"))
    cfg = parse_sweep_config(cfg_path)
    with pytest.raises(OSError):
        run_sweep(cfg)


def test_sweep_config_validation():
    base = small_spec()
    with pytest.raises(InvalidArgumentError):
        SweepConfig(base=base, solvers=("nesta",), trials=0, output="x.csv")
    with pytest.raises(InvalidArgumentError):
        SweepConfig(base=base, solvers=("unknown",), trials=1, output="x.csv")


def test_sweep_config_requires_a_solver():
    with pytest.raises(InvalidArgumentError, match="at least one solver is required"):
        SweepConfig(base=small_spec(), solvers=(), trials=1, output="x.csv")


@pytest.mark.parametrize(
    "field, values",
    [("solvers", ("nesta", "smv", "nesta")), ("grid_k", (2, 3, 2)), ("grid_n", (10, 10))],
)
def test_sweep_config_rejects_a_repeated_solver_or_grid_value(field, values):
    # a repeat would run its cells twice under one aggregate row
    kw = {"solvers": ("nesta",), field: values}
    with pytest.raises(InvalidArgumentError, match=f"{field.replace('_', '.')} repeats a value"):
        SweepConfig(base=small_spec(), trials=1, output="x.csv", **kw)


@pytest.mark.parametrize("trials", [float("nan"), float("inf"), 2.5])
def test_sweep_config_rejects_a_trial_count_that_is_no_integer(trials):
    with pytest.raises(InvalidArgumentError, match=f"trials .*got {trials!r}"):
        SweepConfig(base=small_spec(), solvers=("nesta",), trials=trials, output="x.csv")


def test_result_columns_are_the_fourteen_of_the_csv():
    assert RESULT_HEADER == (
        "solver,n,N,L,k,rank,noise_sigma,seed,relative_error,support_exact,"
        "inner_iters,outer_iters,wall_time_s,success"
    )


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), 0.0, -1.0])
def test_sweep_config_rejects_non_positive_or_non_finite_threshold(threshold):
    with pytest.raises(InvalidArgumentError, match=f"success_threshold .*got {threshold!r}"):
        SweepConfig(
            base=small_spec(),
            solvers=("nesta",),
            trials=1,
            output="x.csv",
            success_threshold=threshold,
        )


# SHA-256 of each CSV column ("\n"-joined, trial and aggregate rows) of a
# small criterion-5 style sweep: 32x64x4, rank 4, seeds 0-4, k = 8 and 12,
# solvers nesta and smv. wall_time_s is not pinned; relative_error is
# pinned by value below, to 1e-12 relative.
SWEEP_PIN_DIGESTS = {
    "solver": "1e6f530c94d363c2a1dedf6b9c23a4d9da8464a0bc3c68e7f32633a7251ba68a",
    "n": "baf9e4a3e1959a8977a24d04fcfb998dc928dd78cf289a2a8d62f29e07c49b61",
    "N": "2ba6776a48e7e1596e68700b674eb1036177dae7266b818cc86edf8fa246ebe8",
    "L": "e8d128d54293ca6901136c6828532c4d4bd55178bf917e235cd7d36b22f4f8f1",
    "k": "827000fe2601a59317cf7120e90457559729ed87794c0e14d39951d9e23f8784",
    "rank": "e8d128d54293ca6901136c6828532c4d4bd55178bf917e235cd7d36b22f4f8f1",
    "noise_sigma": "82b31bf6b9ca7bdfc2a577b6cb0c4ec35ebbb10e55de4e2bac070faaab2a00de",
    "seed": "ab35fdfff3d822e41e08c7f1b7f59a52b0e200050ff745d4a5e6a5f0debb2d88",
    "support_exact": "1598dd9e5dcded7ff31ed57a97584812e1d85a7647e5981d09ed33e06d093c32",
    "inner_iters": "dc6986ea34f621f9ca889932a12520553cf9f62e3645cb254a8704e0f742c5e6",
    "outer_iters": "77fb23272206e72ffe8dfdf569e6fbd8bcc05043f8c86c55d32a3f730cbbe9df",
    "success": "1598dd9e5dcded7ff31ed57a97584812e1d85a7647e5981d09ed33e06d093c32",
}
SWEEP_PIN_RELATIVE_ERRORS = [
    0.00018974453019415547, 0.00024610051208901227, 0.0001370778041951709,
    0.0003701913399076268, 0.00023944446336456702, 0.00023944446336456702,
    0.00025173640683561973, 0.00022228760993884546, 0.00012357849087628003,
    0.10636085503332922, 0.16951102172475008, 0.00025173640683561973,
    0.00036244893489461536, 0.0003119031246559066, 0.0009813941646393731,
    0.0002543136986821618, 0.0004076063123068403, 0.00036244893489461536,
    0.03511701063006312, 0.2069675424808601, 0.15329807001985052,
    0.20199496053439783, 0.27755153688865664, 0.20199496053439783,
]


def test_small_sweep_is_pinned(tmp_path):
    import hashlib

    out = tmp_path / "pin.csv"
    cfg_path = tmp_path / "pin.cfg"
    cfg_path.write_text(
        "n = 32\nN = 64\nL = 4\nk = 8\nrank = 4\nnoise_sigma = 0\nseed = 0\n"
        "trials = 5\nsolvers = nesta, smv\ngrid.k = 8, 12\n"
        f"success_threshold = 1e-3\noutput = {out}\n"
    )
    run_sweep(parse_sweep_config(cfg_path))
    lines = out.read_text().splitlines()
    assert lines[:2] == ["# success_threshold = 0.001", RESULT_HEADER]
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 24
    columns = dict(zip(RESULT_HEADER.split(","), zip(*rows)))
    digests = {
        name: hashlib.sha256("\n".join(values).encode()).hexdigest()
        for name, values in columns.items()
        if name in SWEEP_PIN_DIGESTS
    }
    assert digests == SWEEP_PIN_DIGESTS
    rel = [float(v) for v in columns["relative_error"]]
    assert rel == pytest.approx(SWEEP_PIN_RELATIVE_ERRORS, rel=1e-12, abs=0)


def _spy_cell_map(monkeypatch):
    """Record the worker count of every _cell_map that run_sweep opens."""
    opened = []
    cell_map = harness._cell_map

    def spy(workers):
        opened.append(workers)
        return cell_map(workers)

    monkeypatch.setattr(harness, "_cell_map", spy)
    return opened


def test_pooled_sweep_writes_the_bytes_of_an_in_process_one(tmp_path, monkeypatch):
    opened = _spy_cell_map(monkeypatch)
    texts = []
    for workers in (1, 2):
        monkeypatch.setattr(harness, "_cell_workers", lambda sweep, cells: workers)
        cfg_path = tmp_path / f"sweep{workers}.cfg"
        write_config(
            cfg_path,
            trials=2,
            output=str(tmp_path / f"out{workers}.csv"),
            **{"grid.k": "2, 3, 4", "solvers": "nesta, smv, iht, iterative-nesta"},
        )
        results, aggregates = run_sweep(parse_sweep_config(cfg_path))
        assert len(results) == 3 * 4 * 2 and len(aggregates) == 3 * 4
        texts.append((tmp_path / f"out{workers}.csv").read_text())
    assert opened == [1, 2]
    assert len(texts[1].splitlines()) == 2 + 3 * 4 * (2 + 1)
    assert csv_without_wall_time(texts[1]) == csv_without_wall_time(texts[0])
    assert multiprocessing.active_children() == []


def test_no_worker_outlives_a_sweep_whose_cell_raises(tmp_path, monkeypatch):
    opened = _spy_cell_map(monkeypatch)
    monkeypatch.setattr(harness, "_cell_workers", lambda sweep, cells: 2)
    gen_instance = harness.gen_instance

    def failing_gen_instance(spec):
        if spec.k == 3:
            raise RuntimeError(f"cell k={spec.k} failed")
        return gen_instance(spec)

    # the workers are forked after this, so they generate through it too
    monkeypatch.setattr(harness, "gen_instance", failing_gen_instance)
    cfg_path = tmp_path / "sweep.cfg"
    write_config(cfg_path, **{"grid.k": "2, 3, 4"})
    with pytest.raises(RuntimeError, match="cell k=3 failed"):
        run_sweep(parse_sweep_config(cfg_path))
    assert opened == [2]
    assert multiprocessing.active_children() == []
    # the cell before the failing one was written in full
    rows = (tmp_path / "out.csv").read_text().splitlines()[2:]
    assert [row.split(",")[4] for row in rows] == ["2", "2", "2"]


def test_cell_workers_pool_only_small_multi_cell_sweeps_on_linux():
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1

    def sweep(n, N, grid_k):
        return SweepConfig(
            base=ProblemSpec(n=n, N=N, L=4, k=2, rank=2),
            solvers=("nesta",),
            trials=1,
            output="x.csv",
            grid_k=grid_k,
        )

    small = sweep(16, 32, (2, 3, 4))
    assert 16 * 32 <= harness.POOL_MAX_ENTRIES
    assert harness._cell_workers(small, 1) == 1
    if sys.platform == "linux":
        assert harness._cell_workers(small, 3) == min(3, usable)
        assert harness._cell_workers(small, 1000) == usable
    else:
        assert harness._cell_workers(small, 3) == 1
    # one operator above the constant keeps the whole sweep in-process
    large = sweep(128, 512, (2, 3, 4))
    assert 128 * 512 > harness.POOL_MAX_ENTRIES
    assert harness._cell_workers(large, 3) == 1
    grid_n = SweepConfig(
        base=ProblemSpec(n=16, N=512, L=4, k=2, rank=2),
        solvers=("nesta",),
        trials=1,
        output="x.csv",
        grid_n=(16, 128),
    )
    assert 16 * 512 <= harness.POOL_MAX_ENTRIES < 128 * 512
    assert harness._cell_workers(grid_n, 2) == 1


def test_sweep_above_the_size_constant_runs_in_process(tmp_path, monkeypatch):
    opened = _spy_cell_map(monkeypatch)
    cfg_path = tmp_path / "sweep.cfg"
    write_config(cfg_path, **{"grid.k": "2, 3"})
    monkeypatch.setattr(harness, "POOL_MAX_ENTRIES", 10 * 20 - 1)
    run_sweep(parse_sweep_config(cfg_path))
    monkeypatch.setattr(harness, "POOL_MAX_ENTRIES", 10 * 20)
    run_sweep(parse_sweep_config(cfg_path))
    assert opened == [1, harness._cell_workers(parse_sweep_config(cfg_path), 2)]
    assert multiprocessing.active_children() == []
