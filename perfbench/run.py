"""mmvsolve benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload sweep_c5 --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout and imports mmvsolve from its
``src/``. BLAS threads are fixed to at most two before numpy loads. Set-up
(import, instance generation, warm-up ops) is timed apart from the ops; the
timed phase runs whole passes over the workload's op list for about
``--seconds`` of op time. ``--trace 0`` prints the end-to-end metrics.
``--trace 1`` follows every pass with the same pass traced and prints the
per-layer metrics. Report lines come first; the last line of standard
output is the JSON result. Full results and the span log go to
``perfbench/out/``.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("sweep_c5", "large_certified", "general_gaussian", "iht_gaussian")
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
WARMUP_OPS = 3

# End-to-end metrics bounded in BENCHMARK.json. recovery_rate, failed_frac
# and rel_error_mean are reported too but not bounded: the first two are
# exactly 0 on some workloads, so a share of their median means nothing.
E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# The call that starts an op in a traced pass.
OP_SPANS = {
    "sweep_c5": "harness.run_trial",
    "large_certified": "nesta.nesta_solve",
    "general_gaussian": "nesta.nesta_solve",
    "iht_gaussian": "iht.iht_solve",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import numpy and mmvsolve from this checkout, with BLAS threads fixed."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy  # noqa: F401
        import mmvsolve
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}")
    if not Path(mmvsolve.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: mmvsolve imported from {mmvsolve.__file__}, not from this checkout")


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "blas_threads_runtime": _openblas_threads(np),
        "nproc": os.cpu_count(),
        "commit": _git_head(),
    }


def _openblas_threads(np):
    """Thread count the bundled OpenBLAS reports, or None where it cannot be asked."""
    import ctypes

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    for lib in libs:
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return None


def _git_head():
    """The checkout's commit, or None outside a git work tree of its own."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


@dataclass
class Phase:
    """Op records and op time of the passes run so far."""

    timed: float = 0.0
    records: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def add(self, pass_result):
        seconds, records, problems = pass_result
        self.timed += seconds
        self.records += records
        self.problems += problems
        return seconds


def set_up(workload, seed, import_s):
    """Generate the inputs and run the warm-up ops; returns (setup_s, setup_wall_s)."""
    t0 = perf_counter()
    gen_seconds = workload.prepare(seed)
    warmups = [workload.warmup() for _ in range(WARMUP_OPS)]
    setup_wall_s = import_s + perf_counter() - t0
    # The first BLAS factorization in a process pays a one-off library
    # start-up; medians keep it out of setup_s. setup_wall_s keeps it.
    setup_s = import_s + statistics.median(warmups)
    if gen_seconds:
        setup_s += len(gen_seconds) * statistics.median(gen_seconds)
    return setup_s, setup_wall_s


def run_phase(workload, seconds, traced_pass=None):
    """Whole passes over the op list: at least one, and no pass that the
    last one's duration says would end after ``seconds`` of op time, so a
    run keeps the same number of passes (and tail sample count) while a
    pass takes about as long.

    With ``traced_pass``, each pass is followed by that call, so that any
    drift in machine speed reaches the traced and untraced passes alike.
    """
    plain, traced = Phase(), Phase()
    while True:
        seconds_last = plain.add(workload.run_pass())
        if traced_pass is not None:
            traced.add(traced_pass())
        if plain.timed + seconds_last > seconds:
            return plain, traced


def summarize(phase):
    from metrics import tail_percentile

    records = phase.records
    attempted = len(records)
    failed = sum(not r.passed for r in records)
    recovered = sum(r.recovered for r in records)
    seconds = [r.seconds for r in records]
    percentile, tail, count = tail_percentile(seconds)
    return {
        "attempted": attempted,
        "failed": failed,
        "ops_per_s": (attempted - failed) / phase.timed,
        "op_s_p50": statistics.median(seconds),
        "op_s_tail": tail,
        "tail_percentile": percentile,
        "tail_samples": count,
        "recovered": recovered,
        "recovery_rate": recovered / attempted,
        "failed_frac": failed / attempted,
        "rel_error_mean": statistics.fmean(r.rel_error for r in records),
        "timed_s": phase.timed,
    }


def gemm_reference_us(phi, L, seed, reps=21, inner=50):
    """Median microseconds of one ``phi @ alpha`` product at the workload's shape."""
    import numpy as np

    alpha = np.random.default_rng(seed).standard_normal((phi.shape[1], L))
    samples = []
    for _ in range(reps):
        t0 = perf_counter()
        for _ in range(inner):
            phi @ alpha
        samples.append((perf_counter() - t0) / inner)
    return statistics.median(samples) * 1e6


def measure_traced(workload, args):
    """Untraced and traced passes in turn; returns (plain phase, traced phase,
    per-layer metrics, report lines)."""
    from tracing import Tracer, installed, layer_metrics
    from workloads import OUT_DIR

    phi, L = workload.reference_operator()
    gemm_us = gemm_reference_us(phi, L, args.seed)
    tracer = Tracer()
    op_span = OP_SPANS[args.workload]
    # Regenerate the inputs under tracing so that synth numbers exist for
    # every workload; generation is deterministic, so the ops are unchanged.
    with installed(tracer, op_span):
        workload.prepare(args.seed)

    def traced_pass():
        with installed(tracer, op_span):
            return workload.run_pass()

    plain, traced = run_phase(workload, args.seconds, traced_pass)
    overhead = summarize(traced)["op_s_p50"] / summarize(plain)["op_s_p50"] - 1.0
    layers, lines = layer_metrics(tracer, len(traced.records), gemm_us, overhead)
    OUT_DIR.mkdir(exist_ok=True)
    span_log = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl.gz"
    tracer.write_jsonl(span_log)
    lines.append(f"spans written to {span_log.relative_to(ROOT)}")
    return plain, traced, layers, lines


def report_lines(args, env, e2e, correct, records, problems):
    failed = sum(not r.passed for r in records)
    lines = [
        f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}",
        "env " + " ".join(f"{k}={v}" for k, v in env.items()),
        f"check {'ok' if correct else 'FAILED'}: {failed} of {len(records)} ops failed",
    ]
    lines += [f"  problem: {p}" for p in problems]
    lines += [f"  failed op: {n}" for n in sorted({r.note for r in records if r.note})[:10]]
    if args.trace:
        lines.append("end-to-end figures below are from the untraced passes")
    lines += [
        f"ops_per_s       {e2e['ops_per_s']:.6g} 1/s",
        f"op_s_p50        {e2e['op_s_p50']:.6g} s",
        f"op_s_tail       {e2e['op_s_tail']:.6g} s  (p{e2e['tail_percentile']:.1f} of "
        f"{e2e['tail_samples']} ops)",
        f"recovery_rate   {e2e['recovery_rate']:.6g}  ({e2e['recovered']}/{e2e['attempted']})",
        f"failed_frac     {e2e['failed_frac']:.6g}  ({e2e['failed']}/{e2e['attempted']})",
        f"rel_error_mean  {e2e['rel_error_mean']:.6g}",
        f"setup_s         {e2e['setup_s']:.6g} s  (wall {e2e['setup_wall_s']:.4g} s, "
        f"import {e2e['import_s']:.4g} s)",
        f"peak_rss_mb     {e2e['peak_rss_mb']:.6g} MB",
    ]
    return lines


def _finite_or_none(value):
    return value if value == value and abs(value) != float("inf") else None


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    load_program()
    import_s = perf_counter() - T_START

    from workloads import OUT_DIR, make_workloads

    workload = make_workloads()[args.workload]
    setup_s, setup_wall_s = set_up(workload, args.seed, import_s)
    if args.trace:
        plain, traced, layers, layer_lines = measure_traced(workload, args)
    else:
        plain, traced = run_phase(workload, args.seconds)
    e2e = summarize(plain)
    e2e.update(
        setup_s=setup_s,
        setup_wall_s=setup_wall_s,
        import_s=import_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    records = plain.records + traced.records
    problems = plain.problems + traced.problems
    failed = sum(not r.passed for r in records)
    correct = failed == 0 and not problems
    env = environment()

    lines = report_lines(args, env, e2e, correct, records, problems)
    if args.trace:
        metrics = layers
        lines += [f"{name:32s}{value:.6g} {unit}" for name, (value, unit) in layers.items()]
        lines += layer_lines
    else:
        metrics = {name: (e2e[name], unit) for name, unit in E2E_UNITS.items()}
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            name: {"value": _finite_or_none(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    detail = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(
        json.dumps(
            {"args": vars(args), "env": env, "end_to_end": e2e, "problems": problems,
             "result": result},
            indent=1,
        )
    )
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Run every workload in turn, each in its own process, and tabulate the results."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            sys.exit(f"perfbench: {name} exited {done.returncode}: {done.stderr.strip()}")
        results[name] = json.loads(lines[-1])
    print("\nworkload           correct  metric                          value unit")
    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{name:18s} {str(result['correct']):8s} {metric:30s} {m['value']!r:>14} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{metric}": m for name, r in results.items()
                    for metric, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
