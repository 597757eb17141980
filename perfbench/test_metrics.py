"""Tests for the benchmark's metric arithmetic. Run: python3 -m pytest perfbench"""

import json
import math
import random
import sys
from pathlib import Path

import pytest

from metrics import self_times, tail_percentile
from tracing import Tracer, installed

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def test_tail_has_exactly_ten_samples_beyond():
    samples = list(range(1, 101))
    random.Random(0).shuffle(samples)
    percentile, value, count = tail_percentile(samples)
    assert (percentile, value, count) == (90.0, 90.0, 100)
    assert sum(s > value for s in samples) == 10


def test_tail_percentile_follows_sample_count():
    percentile, value, count = tail_percentile([float(i) for i in range(40)])
    assert count == 40
    assert percentile == pytest.approx(75.0)
    assert value == 29.0


def test_tail_counts_failed_ops_as_infinite():
    finite = [0.1] * 89
    assert tail_percentile(finite + [math.inf] * 10 + [0.2])[1] == 0.2
    assert math.isinf(tail_percentile(finite + [math.inf] * 11)[1])


def test_tail_with_too_few_samples_falls_back_to_maximum():
    assert tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0, 3)
    with pytest.raises(ValueError):
        tail_percentile([])


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8].
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 8.0]
    parent = [-1, 0, 0, 2]
    assert list(self_times(start, end, parent)) == [3.0, 3.0, 2.0, 2.0]


def test_self_times_sum_to_root_durations():
    start = [0.0, 0.5, 2.0, 20.0, 21.0]
    end = [5.0, 1.5, 4.0, 30.0, 22.5]
    parent = [-1, 0, 0, -1, 3]
    assert sum(self_times(start, end, parent)) == pytest.approx(15.0)


def test_tracer_links_nested_spans_and_ops():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner(), starts_op=True)
    outer()
    outer()
    assert [tracer.names[i] for i in tracer.name] == ["outer", "inner"] * 2
    assert list(tracer.parent) == [-1, 0, -1, 2]
    assert list(tracer.op) == [0, 0, 1, 1]
    name, dur, self_ = tracer.spans()
    assert self_[0] == pytest.approx(dur[0] - dur[1])


def test_installed_spans_wrap_a_solve_and_are_removed_after():
    from mmvsolve import harness, nesta, synth

    bindings = (harness.nesta_solve, nesta.nesta_step, nesta.FeasibilityProjector.__call__)
    instance = synth.gen_instance(synth.ProblemSpec(n=32, N=64, L=4, k=4, rank=4, seed=1))
    tracer = Tracer()
    with installed(tracer, "nesta.nesta_solve"):
        report = nesta.nesta_solve(instance.problem)
    assert (harness.nesta_solve, nesta.nesta_step, nesta.FeasibilityProjector.__call__) == bindings
    name, dur, self_ = tracer.spans()
    steps = name == tracer.ids["nesta.nesta_step"]
    assert steps.sum() == report.inner_iterations
    assert tracer.solves["nesta"] == [(report.inner_iterations, report.stage_iterations)]
    assert (self_ >= -1e-12).all()


def test_benchmark_json_lists_the_printed_metrics():
    from run import E2E_UNITS
    from tracing import layer_metrics

    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    layers, _ = layer_metrics(Tracer(), 1, 1.0, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in layers.items()
    }
