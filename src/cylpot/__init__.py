"""cylpot: Green's functions, Martin kernels and heat-kernel experiments on
product cylinders over discretized base domains."""

from .base import (
    AsymmetryError,
    BaseOperator,
    BaseSpecError,
    ChainSpec,
    MassError,
    OffDiagonalSignError,
    ParameterError,
    ScaleError,
    SchemaError,
    build_arc,
    build_cap,
    build_chain,
    build_graph,
    chain_bead_centers,
    default_chain_spec,
    inverse_sqrt_radii,
    load_base,
    uniform_radii,
)
from .convolution import (
    ConvolutionCapacityError,
    DiscreteDistribution,
    chernoff_bound,
    chernoff_threshold,
    chernoff_threshold_details,
    exact_convolution,
    tail_mass,
)
from .cylinder import (
    CylinderPoint,
    ExponentFit,
    GreenEvaluator,
    MartinKernel,
    ModeSolution,
    NumericalLossError,
    QuadratureToleranceError,
    SeparatedSolution,
    StableAxialEvaluator,
    fit_exponent,
    gaussian_density,
    positivity_scan,
    truncated_dirichlet_solve,
)
from .spectral import (
    DegenerateGroundStateError,
    EigensolverError,
    NotPositiveDefiniteError,
    SpectralData,
    decompose,
    heat_kernel,
    heat_kernel_matrix,
)
from .verify import (
    RateFit,
    UnknownSuiteError,
    VerificationReport,
    check_boundary_harnack,
    check_green_monotonicity,
    check_iu_ratio,
    check_ratio_limit,
    check_reflection,
    check_small_time_ratio,
    check_symmetry_identity,
    run_suite,
)

__version__ = "0.1.0"
