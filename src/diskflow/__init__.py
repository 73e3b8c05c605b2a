"""Generators of one-parameter semigroups in the unit disk with prescribed
boundary fixed points: representation formulas, spectral value regions,
extreme points, numerical semiflows, and time-dependent spectral
experiments."""

from .errors import (
    AtomAtPoint,
    BoundaryEscape,
    DegenerateConfig,
    DiskflowError,
    DivisionByZero,
    DomainError,
    ExtrapolationDivergence,
    NormalizationError,
    QuadratureFailure,
    StepFailure,
    TargetMismatch,
    WeightError,
)
from .herglotz_core import (
    AtomicHerglotz,
    BoundaryPoint,
    RationalHerglotz,
    contact_value,
    counterexample_P,
    counterexample_divergence,
    eval_herglotz,
    extract_atom,
    herglotz_kernel,
    p_star,
    reciprocal,
)
from .generator import (
    FixedPointConfig,
    GeneratorSpec,
    beta,
    brfp_spectral_value,
    convex_combination,
    denominator_herglotz,
    dw_spectral_value,
    eval_denominator,
    eval_generator,
    spec_from_denominator,
)
from .value_regions import (
    DiskRegion,
    IntervalRegion,
    InequalityRecord,
    caratheodory_min_sharp,
    ell,
    eta_chart,
    extremal_boundary_of_Z,
    extremal_hyperbolic,
    extremal_interior,
    extremal_origin,
    extremal_parabolic,
    inequality_suite,
    interval_I,
    lambda_range,
    origin_curvature_chart,
    parabolic_region,
    random_spec,
    region_Omega,
    region_Omega_origin,
    region_Z,
    region_Z_omega,
)
from .extremals import (
    ExtremeCandidate,
    canonical_form,
    extreme_candidate_generator,
    extreme_point_GenF,
    gk_dirac_parameter,
    gk_generator,
    is_extreme_GenF,
)
from .semiflow import (
    Trajectory,
    estimate_boundary_derivative,
    flow_trajectory,
    integrate_flow,
    integrate_flow_with_derivative,
    julia_quotient_estimate,
)
from .loewner_cp import (
    ConcavityReport,
    CPTarget,
    PiecewiseField,
    boundary_log_derivative,
    cp_experiment,
    cp_extremal_field,
    cp_region,
    cp_region_boundary,
    evolve,
    evolve_with_derivative,
    harmonic_Q,
    psi_tau,
    q_concavity_check,
    q_hessian,
    random_strict_field,
)

__version__ = "0.1.0"
