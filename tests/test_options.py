"""The settable surface of the solvers and the harness.

A knob added to a config object or to one of these calls shows up here as
a test edit, so that each one is a visible decision.
"""

import dataclasses
import inspect

from mmvsolve import (
    FeasibilityProjector,
    IhtConfig,
    MmvProblem,
    NestaConfig,
    NestaState,
    SmoothingConfig,
    SweepConfig,
    iht_solve,
    iterative_nesta,
    nesta_solve,
    nesta_solve_batch,
    nesta_step,
    project_feasible,
    run_trial,
    spectral_norm,
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
    assert field_names(NestaState) == [
        "k",
        "alpha",
        "y",
        "z",
        "prox_center",
        "grad_accum",
        "objective_trace",
        "phi_alpha",
        "phi_prox",
        "phi_accum",
        "iteration",
    ]
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
    assert parameters(nesta_solve) == ["problem", "known_support", "cfg"]
    assert parameters(nesta_solve_batch) == ["problems", "known_support", "cfg"]
    assert parameters(project_feasible) == ["q", "problem"]
    assert parameters(iterative_nesta) == ["problem", "k", "cfg", "use_music"]


def test_iht_calls_take_no_step_knob():
    # every step comes from ||phi||_2^2; a step or norm argument is a new knob
    assert parameters(iht_solve) == ["problem", "cfg"]
    assert parameters(spectral_norm) == ["M", "max_iters", "tol"]


def test_radius_lives_only_on_the_problem():
    # the solvers read problem.epsilon; a radius override is a new knob
    assert not hasattr(NestaConfig(), "epsilon")
    assert not hasattr(NestaConfig, "epsilon")


def test_projector_is_built_from_its_problem():
    # the radius and the certificate come from the problem; phi, B, eps or
    # gram_scale arguments would let a projector disagree with it
    assert parameters(FeasibilityProjector) == ["problem", "basis"]
