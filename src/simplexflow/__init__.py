"""Flows on the phase space of the probability simplex.

Information-geometry tensors on the positive cone, Hamiltonian vector fields,
symplectic integration in the complex chart, exact unitary propagation, and
diagnostics that verify which flows preserve which structures.
"""

from ._version import __version__
from .diagnostics import (
    DEFAULT_PARAM_FAMILIES,
    FS_RATIO_CONSTANT,
    ConvergenceStudy,
    FsRatios,
    ab_independence_sweep,
    convergence_study,
    fs_consistency,
    lie_derivative_metric,
    lie_derivative_symplectic,
    random_hermitian,
    sample_interior_points,
)
from .errors import (
    BoundaryError,
    ConfigError,
    ConvergenceError,
    DimensionError,
    NonFiniteError,
    NormalizationError,
    NotHermitianError,
    NotRealError,
    ParamError,
    SimplexFlowError,
    SingularError,
)
from .flows import (
    HamiltonianSpec,
    HermitianOperator,
    PhasePoint,
    Trajectory,
    bracket_from_gradients,
    check_normalization_generator,
    circle_difference,
    eval_hamiltonian,
    gauge_canonicalize,
    gradient,
    hamiltonian_vector_field,
    integrate_midpoint,
    poisson_bracket,
)
from .geometry import (
    CANONICAL_PARAMS,
    EPS_FLOOR,
    MetricParams,
    complex_structure,
    embedding_length,
    induced_metric_ts,
    info_metric,
    phase_space_metric,
    symplectic_eval,
    symplectic_matrix,
)
from .hilbert import (
    ComplexState,
    commutator_identity_check,
    from_complex,
    inner_product,
    propagate_unitary,
    to_complex,
)
from .scenario import (
    FlowClassification,
    ScenarioConfig,
    ScenarioResult,
    classify_flow,
    config_from_dict,
    emit_report,
    run_scenario,
    validate_config,
    write_trajectory_csv,
)

__all__ = [
    "__version__",
    # errors
    "SimplexFlowError", "BoundaryError", "ParamError", "SingularError",
    "DimensionError", "NonFiniteError", "NormalizationError", "NotRealError", "NotHermitianError",
    "ConvergenceError", "ConfigError",
    # geometry
    "EPS_FLOOR", "MetricParams", "CANONICAL_PARAMS", "info_metric",
    "phase_space_metric", "symplectic_matrix", "symplectic_eval",
    "complex_structure", "embedding_length", "induced_metric_ts",
    # flows
    "PhasePoint", "HamiltonianSpec", "Trajectory",
    "circle_difference", "eval_hamiltonian", "gradient",
    "hamiltonian_vector_field", "bracket_from_gradients", "poisson_bracket",
    "check_normalization_generator", "integrate_midpoint", "gauge_canonicalize",
    # hilbert
    "ComplexState", "HermitianOperator", "to_complex", "from_complex",
    "inner_product", "propagate_unitary", "commutator_identity_check",
    # diagnostics
    "ConvergenceStudy", "FsRatios",
    "FS_RATIO_CONSTANT", "DEFAULT_PARAM_FAMILIES", "sample_interior_points",
    "random_hermitian", "lie_derivative_metric",
    "lie_derivative_symplectic", "fs_consistency", "ab_independence_sweep",
    "convergence_study",
    # scenario
    "ScenarioConfig", "ScenarioResult", "config_from_dict", "validate_config",
    "run_scenario", "emit_report", "write_trajectory_csv", "FlowClassification",
    "classify_flow",
]
