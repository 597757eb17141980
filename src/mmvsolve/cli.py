"""Command-line interface for recoveries, sweeps, spark, and MUSIC detection.

Exit codes: 0 success, 2 invalid arguments, 3 infeasible or degenerate
problem, 4 I/O error. All output except wall-time fields is deterministic
for identical flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .core import (
    DegenerateInputError,
    InfeasibleProblemError,
    InvalidArgumentError,
    MmvProblem,
    read_matrix,
    spark,
    write_matrix,
)
from .harness import (
    SOLVER_IHT,
    SOLVER_ITERATIVE_NESTA,
    SOLVER_NESTA,
    SOLVER_SMV,
    SOLVERS,
    parse_sweep_config,
    run_sweep,
    score_trial,
    solve_problems,
)
from .music import MUSIC_DELTA, music_support
from .nesta import NestaConfig
from .synth import MATRIX_KINDS, SPEC_KEYS, ProblemSpec, gen_instance, read_keyvalue


# The solver flags of ``solve`` and the solvers that read each one. A
# solver ignores the others, so ``check_solver_flags`` rejects them.
SOLVER_FLAGS = {
    "--eps": (SOLVER_NESTA, SOLVER_ITERATIVE_NESTA, SOLVER_SMV),
    "--mu-final": (SOLVER_NESTA, SOLVER_ITERATIVE_NESTA, SOLVER_SMV),
    "--k-threshold": (SOLVER_ITERATIVE_NESTA, SOLVER_IHT),
    "--use-music": (SOLVER_ITERATIVE_NESTA,),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mmvsolve",
        description="Recover jointly row-sparse matrices from multiple measurement vectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one recovery and print a summary line")
    solve.add_argument("--spec", help=f"key-value file with {', '.join(SPEC_KEYS)}")
    solve.add_argument("--n", type=int)
    solve.add_argument("--N", type=int)
    solve.add_argument("--L", type=int)
    solve.add_argument("--k", type=int)
    solve.add_argument("--rank", type=int)
    solve.add_argument("--noise", type=float)
    solve.add_argument("--seed", type=int)
    solve.add_argument("--matrix-kind", choices=MATRIX_KINDS)
    solve.add_argument("--solver", choices=SOLVERS, default=SOLVER_NESTA)
    solve.add_argument("--eps", type=float, default=None)
    solve.add_argument("--mu-final", type=float, default=None)
    solve.add_argument("--k-threshold", type=int, default=None)
    solve.add_argument("--use-music", action="store_true")
    solve.add_argument("--dump-estimate", metavar="PATH")
    solve.add_argument("--load-matrix", metavar="PATH", help="CSV operator (skips generation)")
    solve.add_argument("--load-data", metavar="PATH", help="CSV measurement block")

    sweep = sub.add_parser("sweep", help="run a phase-transition sweep from a config file")
    sweep.add_argument("--config", required=True)

    spark_cmd = sub.add_parser("spark", help="brute-force spark of a CSV matrix")
    spark_cmd.add_argument("--matrix", required=True)
    spark_cmd.add_argument("--tol", type=float, default=1e-10)

    music_cmd = sub.add_parser("music", help="subspace support detection on CSV data")
    music_cmd.add_argument("--matrix", required=True)
    music_cmd.add_argument("--data", required=True)
    music_cmd.add_argument("--k", type=int, required=True)
    music_cmd.add_argument("--delta", type=float, default=MUSIC_DELTA)
    return parser


def _spec_from_args(args):
    """The spec of ``--spec``, or of the flags: a flag left out takes the
    ProblemSpec default, except that rank defaults to min(k, L)."""
    if args.spec:
        return ProblemSpec.from_fields(read_keyvalue(args.spec, SPEC_KEYS))
    missing = [f for f in ("n", "N", "L", "k") if getattr(args, f) is None]
    if missing:
        raise InvalidArgumentError(
            f"either --spec or all of --n/--N/--L/--k are required (missing {missing})"
        )
    flags = {"noise_sigma": args.noise, "matrix_kind": args.matrix_kind, "seed": args.seed}
    given = {name: value for name, value in flags.items() if value is not None}
    rank = args.rank if args.rank is not None else min(args.k, args.L)
    return ProblemSpec(n=args.n, N=args.N, L=args.L, k=args.k, rank=rank, **given)


def _flag_value(args, flag):
    return getattr(args, flag[2:].replace("-", "_"))


def check_solver_flags(args):
    """Raise InvalidArgumentError for a given solver flag that the parsed
    ``solve`` args' solver would ignore."""
    for flag, solvers in SOLVER_FLAGS.items():
        value = _flag_value(args, flag)
        # by identity: --eps 0 is a given flag, though 0 == False
        if value is not None and value is not False and args.solver not in solvers:
            raise InvalidArgumentError(
                f"{flag} does not apply to --solver {args.solver} "
                f"(only to {', '.join(solvers)})"
            )


def check_problem_source(args):
    """Raise InvalidArgumentError when the parsed ``solve`` args give flags
    of more than one problem source: the spec flags, --spec, or loaded data."""
    spec_flags = ("--n", "--N", "--L", "--k", "--rank", "--noise", "--seed", "--matrix-kind")
    sources = (spec_flags, ("--spec",), ("--load-matrix", "--load-data"))
    given = [[f for f in flags if _flag_value(args, f) is not None] for flags in sources]
    used = [", ".join(flags) for flags in given if flags]
    if len(used) > 1:
        raise InvalidArgumentError(
            "solve takes its problem from one source (the spec flags, --spec, or "
            f"--load-matrix with --load-data), got {'; '.join(used)}"
        )


def _cmd_solve(args):
    """Solve a loaded problem (no ground truth) or a generated one (scored)."""
    check_solver_flags(args)
    check_problem_source(args)
    instance = None
    if args.load_matrix or args.load_data:
        if not args.load_matrix:
            raise InvalidArgumentError("--load-data requires --load-matrix")
        if not args.load_data:
            raise InvalidArgumentError("--load-matrix requires --load-data")
        problem = MmvProblem(A=read_matrix(args.load_matrix), B=read_matrix(args.load_data))
        k = args.k_threshold
    else:
        spec = _spec_from_args(args)
        instance = gen_instance(spec)
        problem = instance.problem
        k = args.k_threshold if args.k_threshold is not None else spec.k
    if args.eps is not None:
        problem = dataclasses.replace(problem, epsilon=args.eps)
    cfg = NestaConfig(mu_final=args.mu_final)
    if args.solver not in (SOLVER_NESTA, SOLVER_SMV) and k is None:
        raise InvalidArgumentError(f"--solver {args.solver} needs --k-threshold")
    (report,) = solve_problems(args.solver, [problem], k, cfg=cfg, use_music=args.use_music)
    if isinstance(report, Exception):
        raise report
    rel_error = support_exact = ""  # scored only against a ground truth
    if instance is not None:
        scored = score_trial(args.solver, instance, report)
        rel_error = f" rel_error={scored.relative_error!r}"
        support_exact = f" support_exact={int(scored.support_exact)}"
    print(
        f"solver={args.solver}{rel_error} residual={report.final_residual!r}{support_exact} "
        f"inner_iters={report.inner_iterations} outer_iters={report.outer_iterations} "
        f"wall_time_s={report.wall_time!r}"
    )
    if args.dump_estimate:
        write_matrix(args.dump_estimate, report.estimate)
    return 0


def _cmd_sweep(args):
    sweep = parse_sweep_config(args.config)
    results, aggregates = run_sweep(sweep)
    print(f"wrote {sweep.output}: {len(results)} trial rows, {len(aggregates)} aggregate rows")
    return 0


def _cmd_spark(args):
    M = read_matrix(args.matrix)
    print(spark(M, rank_tol=args.tol))
    return 0


def _cmd_music(args):
    A = read_matrix(args.matrix)
    B = read_matrix(args.data)
    problem = MmvProblem(A=A, B=B, epsilon=0.0)
    result = music_support(problem, args.k, delta=args.delta)
    print(f"rank={result.rank}")
    print("support=" + ",".join(str(i) for i in result.support))
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "sweep": _cmd_sweep,
        "spark": _cmd_spark,
        "music": _cmd_music,
    }
    try:
        return handlers[args.command](args)
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleProblemError, DegenerateInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
