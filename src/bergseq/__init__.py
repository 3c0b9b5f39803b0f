"""Interpolation-sequence analysis in weighted Bergman spaces on the
disk and the punctured disk: hyperbolic/cylindrical geometry, singular
quadrature, weight potentials, density sweeps, kernel Gram systems, and
identity verification."""

from .errors import (
    BergseqError,
    DomainViolation,
    QuadratureNotConverged,
    SingularSystem,
    WindowViolation,
)
from .geometry import (
    DISK_AREA_CONSTANT,
    Domain,
    area_A,
    cover_P,
    cyl_dist,
    hyp_dist,
    injectivity_radius,
    lift_value,
    mobius_involution,
    pdisk_radial_dist,
    poincare_coeff,
    pseudo_dist,
)
from .quadrature import (
    DEFAULT_RULE,
    FAST_RULE,
    QuadratureRule,
    a_r_euclidean,
    a_r_hyperbolic,
    c_r_cyl,
    c_r_disk,
    circle_mean,
    disk_log_integral,
    polar_integral,
)
from .weights import (
    WeightModel,
    border_density_form,
    border_potential,
    custom_weight,
    cutoff,
    extended_covered_mean,
    lifted_translates,
    log_mean_disk,
    puncture_density_form,
    puncture_potential,
    shifted_cyl_weight,
    standard_disk,
    standard_puncture,
    truncated_log_mean,
)
from .sequences import (
    BORDER_R_GRID,
    PUNCTURE_R_GRID,
    ClassificationVerdict,
    ClassifyParams,
    DensityReport,
    SequenceSet,
    SweepResult,
    border_density_ratio,
    center_net,
    classify,
    decompose,
    density_sweep,
    generate_lattice,
    puncture_density_ratio,
    separation_border,
    separation_puncture,
)
from .kernels import (
    GramSystem,
    KernelSpec,
    gram_assemble,
    interpolation_constant_estimate,
    kernel_diag_check,
    min_norm_interpolant,
    numeric_gram_kernel,
    standard_kernel,
)
from .verify import (
    BlaschkeSpec,
    bergman_inequality_margin,
    mean_comparison_margin,
    poisson_jensen_residual,
)

__version__ = "0.1.0"
