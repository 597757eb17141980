"""Spans around calls into mmvsolve's modules, recorded from outside the program.

``installed(tracer, op_span)`` rebinds public functions and methods of mmvsolve to
recording wrappers wherever the package binds them (a module attribute, a
name imported into another module, a class attribute) and restores the
originals on exit. Nothing under ``src/`` changes. Each span keeps its name,
start, end, enclosing span and op id in flat arrays; ``layer_metrics``
derives per-module numbers from them and from the reports the solvers
return.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from metrics import self_times


class Tracer:
    """In-memory span recorder for one thread of synchronous calls."""

    def __init__(self):
        self.names = []
        self.ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.op_id = -1
        self._open = []
        # Counts read off arguments and return values at span boundaries.
        self.counts = {}
        # Per-call records of solver reports: (iterations, stage iterations).
        self.solves = {}

    def name_id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter()
        self._open.pop()

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name, fn, observe=None, starts_op=False):
        """Return ``fn`` recording one span per call; ``observe(args, result)``
        runs after the span closes."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            if starts_op:
                self.op_id += 1
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def spans(self):
        """The recorded spans as arrays, with self times derived."""
        name = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        return name, end - start, self_times(start, end, parent)

    def write_jsonl(self, path):
        """Write one JSON object per span (gzip); times in seconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self.name)):
                fh.write(
                    f'{{"name":"{names[self.name[i]]}","start":{self.start[i] - t0:.9f},'
                    f'"end":{self.end[i] - t0:.9f},"parent":{self.parent[i]},"op":{self.op[i]}}}\n'
                )


def _rebind(patches, original, replacement):
    """Point every binding of ``original`` in the mmvsolve modules to ``replacement``."""
    for modname, module in list(sys.modules.items()):
        if modname != "mmvsolve" and not modname.startswith("mmvsolve."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                patches.append((module, attr, value))
                setattr(module, attr, replacement)


def _set_attr(patches, owner, attr, replacement):
    patches.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, replacement)


@contextmanager
def installed(tracer, op_span):
    """Record spans around mmvsolve's public calls while the block runs.

    Each call of the function named ``op_span`` starts a new op id.
    """
    from mmvsolve import cli, core, harness, iht, nesta, smoothing, synth

    patches = []

    def solve_observer(kind):
        records = tracer.solves.setdefault(kind, [])

        def observe(args, report):
            records.append((report.inner_iterations, list(report.stage_iterations)))

        return observe

    functions = [
        ("cli.main", cli.main, {}),
        ("harness.run_sweep", harness.run_sweep, {}),
        ("harness.run_trial", harness.run_trial, {}),
        ("harness.solve_smv_per_column", harness.solve_smv_per_column, {}),
        ("synth.gen_instance", synth.gen_instance, {}),
        ("core.row_orthonormalize", core.row_orthonormalize, {}),
        ("core.row_norms", core.row_norms, {}),
        ("core.hard_threshold_rows", core.hard_threshold_rows, {}),
        ("smoothing.smoothed_gradient", smoothing.smoothed_gradient, {}),
        ("smoothing.smoothed_objective", smoothing.smoothed_objective, {}),
        ("nesta.nesta_step", nesta.nesta_step, {}),
        ("nesta.nesta_solve", nesta.nesta_solve, {"observe": solve_observer("nesta")}),
        ("iht.iht_solve", iht.iht_solve, {"observe": solve_observer("iht")}),
        ("iht.spectral_norm", iht.spectral_norm, {}),
    ]
    try:
        for name, fn, options in functions:
            wrapped = tracer.wrap(name, fn, starts_op=name == op_span, **options)
            _rebind(patches, fn, wrapped)

        def count_normals(args, result):
            tracer.count("synth.normals", result.size)

        _set_attr(
            patches,
            synth.Rng64,
            "normals",
            tracer.wrap("synth.Rng64.normals", synth.Rng64.normals, observe=count_normals),
        )
        from_entries = core.MeasurementMatrix.__dict__["from_entries"].__func__
        _set_attr(
            patches,
            core.MeasurementMatrix,
            "from_entries",
            classmethod(tracer.wrap("core.from_entries", from_entries)),
        )
        _set_attr(patches, nesta.FeasibilityProjector, "__init__", _projector_init(tracer))
        _set_attr(patches, nesta.FeasibilityProjector, "__call__", _projector_call(tracer))
        yield tracer
    finally:
        for owner, attr, value in reversed(patches):
            setattr(owner, attr, value)


def _projector_init(tracer):
    """Span around projector construction, named by the path it prepares."""
    from mmvsolve.nesta import FeasibilityProjector

    original = FeasibilityProjector.__init__
    certified = tracer.name_id("nesta.projector_build_certified")
    general = tracer.name_id("nesta.projector_build_general")

    def __init__(self, *args, **kwargs):
        idx = tracer.open(certified)
        try:
            original(self, *args, **kwargs)
        finally:
            tracer.close(idx)
        if self.gram_scale is None:
            tracer.name[idx] = general

    return __init__


def _projector_call(tracer):
    """Span around one projection, named by its path; counts no-op returns."""
    from mmvsolve.nesta import FeasibilityProjector

    original = FeasibilityProjector.__call__
    certified = tracer.name_id("nesta.project_certified")
    general = tracer.name_id("nesta.project_general")

    def __call__(self, q):
        idx = tracer.open(certified if self.gram_scale is not None else general)
        try:
            out = original(self, q)
        finally:
            tracer.close(idx)
        if out is q:
            tracer.count("nesta.project_noop")
        return out

    return __call__


def layer_metrics(tracer, n_ops, gemm_ref_us, overhead_frac):
    """Per-module metrics from the spans and solver reports of a traced phase.

    Returns ``({name: (value, unit)}, report_lines)``. A metric whose layer
    the workload never calls reads 0. Durations are per call and include
    child spans unless the name says ``self``; ``*_calls`` are per op.
    """
    from mmvsolve.nesta import NestaConfig

    name, dur, self_ = tracer.spans()
    op = np.frombuffer(tracer.op, dtype=np.int64)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)

    def mask(span):
        nid = tracer.ids.get(span)
        return name == nid if nid is not None else np.zeros(name.size, bool)

    def mean(span, values=dur, scale=1e3):
        m = mask(span)
        return float(values[m].mean()) * scale if m.any() else 0.0

    def median(span, scale=1e3):
        m = mask(span)
        return float(np.median(dur[m])) * scale if m.any() else 0.0

    def total(span, values=dur):
        return float(values[mask(span)].sum())

    def calls(span, in_ops=False):
        m = mask(span)
        return int((m & (op >= 0)).sum() if in_ops else m.sum())

    def ratio(num, den):
        return num / den if den else 0.0

    nesta_solves = tracer.solves.get("nesta", [])
    iht_solves = tracer.solves.get("iht", [])
    nesta_iters = sum(it for it, _ in nesta_solves)
    iht_iters = sum(it for it, _ in iht_solves)
    stages = [s for _, stage_list in nesta_solves for s in stage_list]
    cap = NestaConfig().max_inner_iters
    projections = calls("nesta.project_certified") + calls("nesta.project_general")
    us_per_iter = ratio(total("nesta.nesta_solve"), nesta_iters) * 1e6

    metrics = {
        "cli.self_ms": (mean("cli.main", self_), "ms"),
        "harness.trial_ms_p50": (median("harness.run_trial"), "ms"),
        "harness.trial_self_ms": (mean("harness.run_trial", self_), "ms"),
        "harness.smv_self_ms": (mean("harness.solve_smv_per_column", self_), "ms"),
        "harness.sweep_self_ms": (mean("harness.run_sweep", self_), "ms"),
        "synth.gen_instance_ms": (mean("synth.gen_instance"), "ms"),
        "synth.normals_per_s": (
            ratio(tracer.counts.get("synth.normals", 0), total("synth.Rng64.normals")),
            "1/s",
        ),
        "core.row_orthonormalize_ms": (mean("core.row_orthonormalize"), "ms"),
        "core.from_entries_ms": (mean("core.from_entries"), "ms"),
        "smoothing.gradient_us": (mean("smoothing.smoothed_gradient", scale=1e6), "us"),
        "smoothing.objective_us": (mean("smoothing.smoothed_objective", scale=1e6), "us"),
        "core.row_norms_us": (mean("core.row_norms", scale=1e6), "us"),
        "core.row_norms_calls": (ratio(calls("core.row_norms", True), n_ops), "calls/op"),
        "nesta.step_self_us": (mean("nesta.nesta_step", self_, 1e6), "us"),
        "nesta.project_certified_us": (mean("nesta.project_certified", scale=1e6), "us"),
        "nesta.project_general_us": (mean("nesta.project_general", scale=1e6), "us"),
        "nesta.projector_build_ms": (mean("nesta.projector_build_general"), "ms"),
        "nesta.gemm_ref_us": (gemm_ref_us, "us"),
        "nesta.iter_gemm_equiv": (ratio(us_per_iter, gemm_ref_us), "gemm/iter"),
        "nesta.project_calls_per_iter": (
            ratio(projections, calls("nesta.nesta_step")),
            "calls/iter",
        ),
        "nesta.project_noop_frac": (
            ratio(tracer.counts.get("nesta.project_noop", 0), projections),
            "ratio",
        ),
        "nesta.solve_ms_p50": (median("nesta.nesta_solve"), "ms"),
        "nesta.us_per_iter": (us_per_iter, "us"),
        "nesta.iters_per_solve": (ratio(nesta_iters, len(nesta_solves)), "iters"),
    }
    for i in range(1, 5):
        at_stage = [s[i - 1] for _, s in nesta_solves if len(s) >= i]
        metrics[f"nesta.stage_iters.{i}"] = (ratio(sum(at_stage), len(at_stage)), "iters")
    iht_self = total("iht.iht_solve", self_)
    metrics.update(
        {
            "nesta.capped_stage_frac": (ratio(sum(s >= cap for s in stages), len(stages)), "ratio"),
            "iht.solve_ms_p50": (median("iht.iht_solve"), "ms"),
            "iht.iters_per_solve": (ratio(iht_iters, len(iht_solves)), "iters"),
            "iht.us_per_iter": (ratio(total("iht.iht_solve"), iht_iters) * 1e6, "us"),
            "iht.spectral_norm_ms": (mean("iht.spectral_norm"), "ms"),
            "iht.self_us_per_iter": (ratio(iht_self, iht_iters) * 1e6, "us"),
            "core.hard_threshold_rows_us": (mean("core.hard_threshold_rows", scale=1e6), "us"),
            "core.hard_threshold_rows_calls": (
                ratio(calls("core.hard_threshold_rows", True), n_ops),
                "calls/op",
            ),
            "trace.overhead_frac": (overhead_frac, "ratio"),
        }
    )
    return metrics, _step_breakdown(tracer, name, dur, self_, parent)


def _step_breakdown(tracer, name, dur, self_, parent):
    """Report lines splitting nesta_step time into its child calls and self time."""
    step_id = tracer.ids.get("nesta.nesta_step")
    if step_id is None or not (name == step_id).any():
        return []
    is_step = name == step_id
    step_total = float(dur[is_step].sum())
    child = (parent >= 0) & is_step[np.maximum(parent, 0)]
    parts = {}
    for nid in np.unique(name[child]):
        parts[tracer.names[nid]] = float(dur[child & (name == nid)].sum())
    parts["self"] = float(self_[is_step].sum())
    accounted = sum(parts.values())
    shares = " + ".join(f"{k} {v / step_total:.1%}" for k, v in parts.items())
    return [
        f"nesta_step {step_total:.6g} s over {int(is_step.sum())} calls = {shares}",
        f"nesta_step accounted {accounted / step_total:.9f} of its measured time",
    ]
