"""The settable surface of the solvers and the harness.

A knob added to a config object or to one of these calls shows up here as
a test edit, so that each one is a visible decision.
"""

import dataclasses
import inspect

from mmvsolve import (
    IhtConfig,
    MmvProblem,
    NestaConfig,
    SmoothingConfig,
    SweepConfig,
    iterative_nesta,
    nesta_step,
    project_feasible,
    run_trial,
)
from mmvsolve.harness import solve_problems


def field_names(cls):
    return [f.name for f in dataclasses.fields(cls)]


def parameters(fn):
    return list(inspect.signature(fn).parameters)


def test_config_fields():
    assert field_names(NestaConfig) == ["mu_final", "max_inner_iters"]
    assert field_names(IhtConfig) == ["k", "max_iters", "adaptive_step"]
    assert field_names(SmoothingConfig) == ["mu", "known_support"]
    assert field_names(MmvProblem) == ["A", "B", "epsilon"]
    assert field_names(SweepConfig) == [
        "base",
        "solvers",
        "trials",
        "output",
        "grid_k",
        "grid_n",
        "success_threshold",
    ]


def test_call_parameters():
    assert parameters(run_trial) == ["spec", "solver"]
    assert parameters(solve_problems) == ["solver", "problems", "k", "cfg", "use_music"]
    assert parameters(nesta_step) == ["state", "problem", "smoothing", "projector", "batch"]
    assert parameters(project_feasible) == ["q", "problem"]
    assert parameters(iterative_nesta) == ["problem", "k", "cfg", "use_music"]


def test_radius_lives_only_on_the_problem():
    # the solvers read problem.epsilon; a radius override is a new knob
    assert not hasattr(NestaConfig(), "epsilon")
    assert not hasattr(NestaConfig, "epsilon")
