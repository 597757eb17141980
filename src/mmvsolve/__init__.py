"""Jointly row-sparse recovery from multiple measurement vectors.

Solvers: a smoothed first-order method with continuation and optional
trusted-support masking, an outer hard-threshold refinement loop seeded by
MUSIC subspace detection, and iterative hard thresholding. A benchmark
harness runs seeded trials, joint-vs-per-channel comparisons, and
phase-transition sweeps to CSV.
"""

from .core import (
    DegenerateInputError,
    InfeasibleProblemError,
    InvalidArgumentError,
    MeasurementMatrix,
    MmvProblem,
    SizeLimitError,
    SupportSet,
    hard_threshold_rows,
    mixed_norm,
    read_matrix,
    row_norms,
    row_orthonormalize,
    row_support,
    spark,
    write_matrix,
)
from .harness import (
    SOLVERS,
    SweepConfig,
    TrialResult,
    parse_sweep_config,
    run_sweep,
    run_trial,
    solve_smv_per_column,
)
from .iht import IhtConfig, iht_solve, spectral_norm
from .music import MusicResult, estimate_rank, music_scores, music_support
from .nesta import (
    FeasibilityProjector,
    NestaConfig,
    NestaState,
    RecoveryReport,
    initial_state,
    iterative_nesta,
    nesta_solve,
    nesta_solve_batch,
    nesta_step,
    project_feasible,
)
from .smoothing import (
    SmoothingConfig,
    smoothed_gradient,
    smoothed_objective,
)
from .synth import (
    GroundTruthInstance,
    ProblemSpec,
    Rng64,
    export_instance,
    gen_instance,
    import_instance,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateInputError",
    "FeasibilityProjector",
    "GroundTruthInstance",
    "IhtConfig",
    "InfeasibleProblemError",
    "InvalidArgumentError",
    "MeasurementMatrix",
    "MmvProblem",
    "MusicResult",
    "NestaConfig",
    "NestaState",
    "ProblemSpec",
    "RecoveryReport",
    "Rng64",
    "SizeLimitError",
    "SmoothingConfig",
    "SOLVERS",
    "SupportSet",
    "SweepConfig",
    "TrialResult",
    "estimate_rank",
    "export_instance",
    "gen_instance",
    "hard_threshold_rows",
    "iht_solve",
    "import_instance",
    "initial_state",
    "iterative_nesta",
    "mixed_norm",
    "music_scores",
    "music_support",
    "nesta_solve",
    "nesta_solve_batch",
    "nesta_step",
    "parse_sweep_config",
    "project_feasible",
    "read_matrix",
    "row_norms",
    "row_orthonormalize",
    "row_support",
    "run_sweep",
    "run_trial",
    "smoothed_gradient",
    "smoothed_objective",
    "solve_smv_per_column",
    "spark",
    "spectral_norm",
    "write_matrix",
]
