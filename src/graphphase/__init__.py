"""Mass-conserving phase-separation dynamics on finite weighted graphs."""

from .errors import (
    BoundaryState,
    DimensionMismatch,
    DisconnectedGraph,
    DomainViolation,
    DuplicateEdge,
    GraphPhaseError,
    GraphTooLarge,
    InconsistentInputs,
    IndexOutOfRange,
    InfeasibleMasses,
    IoError,
    LambdaIsOne,
    MassOutOfRange,
    MissingVertex,
    NegativeTime,
    NoConvergence,
    NonPositiveWeight,
    NumericalError,
    ParseError,
    RowNotInPi,
    SelfLoop,
    TauExceedsEpsilon,
    ValidationError,
)
from .graph_core import (
    Graph,
    Spectrum,
    average,
    build_graph,
    diffuse,
    dirichlet_energy,
    heat_remainder,
    inner_product,
    laplacian_apply,
    mass,
    norm,
    spectral_decompose,
)
from .io_cli import (
    cli_main,
    parse_field_file,
    parse_graph_file,
    write_outputs,
)
from .multiclass import (
    MultiClassStepResult,
    SimplexField,
    multi_obstacle_energy,
    multiclass_mass_conserving_step,
    multiclass_step,
    project_rows_to_simplex,
    well_force,
)
from .oracles import (
    ExtremePoint,
    enumerate_extreme_points,
    mbo_oracle,
    random_connected_graph,
    variational_oracle,
)
from .trajectory import (
    LogEntry,
    SweepRow,
    TauRefinementReport,
    Trajectory,
    converge_tau,
    run_multiclass_trajectory,
    run_trajectory,
    sweep_lambda,
)
from .scheme import (
    DualCertificate,
    MboMultiplier,
    SchemeParams,
    StepResult,
    ThresholdLevels,
    dual_certificate,
    ginzburg_landau,
    lyapunov_energy,
    lyapunov_gradient,
    mbo_is_unique,
    mbo_step,
    semi_discrete_step,
    threshold_levels,
)

__version__ = "0.1.0"
