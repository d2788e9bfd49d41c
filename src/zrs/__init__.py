"""Krein-formula resolvents and scattering matrices for 3-D zero-range potentials."""

from .errors import (
    BadOrder,
    BadParams,
    DuplicatePoint,
    FitUnstable,
    GridMismatch,
    NonPositiveGram,
    SingularMatrix,
    SingularSchurComplement,
    TailNotContractive,
    ZeroDistance,
    ZrsError,
)
from .scatterers import (
    AdmissibilityReport,
    ScattererSet,
    check_admissibility,
    from_config,
    generate_family,
    separation_profile,
    tail_bound,
)
from .krein import (
    GramData,
    KreinMatrices,
    SchurFactors,
    branch_sqrt,
    build_q,
    build_weighted,
    c_matrix,
    gamma_at,
    gamma_direct,
    gamma_levels,
    gamma_schur,
    gram_matrix,
    green_at_distance,
    krein_matrices,
    m_sampled,
)
from .spherical import (
    PlaneWaveBlock,
    SphereGrid,
    default_grid,
    default_order,
    make_grid,
    overlap_error,
    overlap_matrix,
    plane_wave_block,
    weighted_gram_target,
)
from .scattering import (
    ContinuityScan,
    SMatrixRep,
    SphereFunction,
    apply_smatrix,
    apply_smatrix_adjoint,
    cross_section,
    gamma_continuity_scan,
    kernel_correction,
    omega_unitary,
    smatrix,
    smatrix_minus_identity_norm,
    unitarity_defect_quadrature,
    unitarity_defect_reduced,
)
from .resolvent import (
    BumpProfile,
    ResolventKernel,
    boundary_condition_residual,
    free_resolvent_reproduction,
    hilbert_identity_residual,
    resolvent_kernel,
    symmetry_residual,
)

__version__ = "0.1.0"
