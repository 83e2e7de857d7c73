"""Kolmogorov normal form for nearly-integrable Poisson systems whose
perturbation decays exponentially in time."""

from .bracket import (
    ExtendedPoint,
    LieDiagnostics,
    StructureMatrix,
    bracket_with_coordinate,
    gamma_from_block_norms,
    gamma_rho_sigma,
    lie_contraction,
    lie_coordinate_displacement,
    lie_transform,
    poisson_bracket,
)
from .dynamics import (
    PersistenceReport,
    TrajectorySample,
    integrate,
    lie_vs_flow_check,
    torus_persistence_report,
    write_trajectory,
)
from .homological import (
    FrequencyData,
    HomologicalSolution,
    build_E,
    diophantine_profile,
    divisor_shells,
    solve_S,
    solve_T,
    solve_scalar,
)
from .kolmogorov import (
    ChiRecord,
    ConstantsLedger,
    HamiltonianDecomposition,
    IterationParams,
    NormalizationTrace,
    RunOptions,
    RunResult,
    RunSetup,
    compose_map,
    constants_ledger,
    init_from_problem,
    normalization_step,
    run,
    schedule_audit,
)
from .problems import (
    Problem,
    benchmark_problem,
    rescaled_benchmark_problem,
    two_dof_problem,
)
from .series import (
    DecayBound,
    FourierTaylorSeries,
    Truncation,
    WeightedNormParams,
    discard_tracker,
    discards,
    reassemble_taylor,
    shift_action_expansion,
    taylor_split,
    weighted_norm,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
