"""Sharp eigenvalue bounds for Schroedinger operators and their stability.

Computes the lowest eigenvalue of -Lap + V, the sharp constant relating
it to integrals of V_-, the optimizing profile Q with its linearization,
quantitative Hoelder-type remainder inequalities, and stability reports
measuring eigenvalue deficits against distances to the optimal-potential
manifold.
"""

from .exceptions import (
    ConvergenceError,
    DegenerateInputError,
    DimensionMismatchError,
    EigstabError,
    InvalidExponentError,
    PreconditionError,
    UnsupportedChannelError,
    UnsupportedShiftError,
)
from .grid import (
    Grid,
    GridFunction,
    gradient_squared_integral,
    h1_distance,
    inner,
    integrate,
    norm_l2,
    norm_lp,
    surface_area,
)
from .groundstate import (
    Exponents,
    GroundState,
    KellerConstant,
    gns_energy,
    interpolation_constant_from_c_prime,
    keller_constant,
    keller_parameters,
    keller_profile,
    optimal_potential,
    profile_interpolant,
    solve_ground_state,
    virial_norm_check,
)
from .hessian import (
    HessianChannel,
    KernelReport,
    StabilityProbe,
    build_channel,
    kernel_report,
    local_stability_probe,
)
from .holder import (
    FuzzReport,
    HolderReport,
    PowerComparisonReport,
    duality_continuity_check,
    fuzz_inequalities,
    h_functional,
    holder_report,
    power_comparison_check,
    remainder_bounds,
    uniform_convexity_gap,
)
from .measure import (
    MeasFunction,
    WeightedMeasure,
    conjugate_exponent,
    duality_map,
    lp_norm,
    pairing,
)
from .spectral import (
    EigenPair,
    lambda_of_potential,
    lowest_eigenpair,
    rayleigh_quotient,
)
from .stability import (
    StabilityReport,
    SweepResult,
    deficit,
    deficit_decomposition,
    distance_to_manifold,
    eigenvalue_ratio,
    line_sweep_corpus,
    radial_sweep_corpus,
    run_sweep,
    stability_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
