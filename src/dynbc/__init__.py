"""Heat flow with dynamic (Wentzell) boundary conditions.

A numpy/scipy library for the coupled bulk-surface heat system: conforming
discretization with trace-coupled degrees of freedom, forward and adjoint
theta-scheme solvers matched in transpose, Carleman-weight evaluation,
observability-constant estimation, and boundary null-control synthesis by a
penalized Gramian solved by Lanczos with a fully reorthogonalized basis.
"""

from .assembly import (
    ConvergenceError,
    DiscreteSystem,
    assemble,
    estimate_coercivity,
    inner_X2,
    norm_X2,
    smallest_eigenpair,
)
from .carleman import (
    CarlemanParams,
    EtaField,
    SweepResult,
    build_eta,
    carleman_lhs,
    carleman_rhs,
    carleman_sweep,
    pointwise_lambda_floor,
    weight_bounds,
)
from .control import (
    ControlProblem,
    ControlResult,
    NullControlReport,
    gramian_apply,
    synthesize_control,
    synthesize_ladder,
    verify_null,
)
from .evolution import (
    BoundarySignal,
    FluxPair,
    Propagator,
    Trajectory,
    duality_residual,
    duhamel_final,
    recover_normal_flux,
    solve_backward,
    solve_forward,
    trajectory_norms,
    trajectory_to_csv,
)
from .mesh import (
    BulkSurfaceMesh,
    build_disk_mesh,
    build_interval_mesh,
    build_rect_mesh,
    validate_mesh,
)
from .observability import (
    ObservabilityReport,
    check_energy_identity,
    check_interpolation,
    estimate_CT,
    observation_energy,
)

__version__ = "0.1.0"
