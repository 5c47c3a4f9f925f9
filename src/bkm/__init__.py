"""Boundary knot method: boundary-only meshless solver for Helmholtz-type PDEs.

The solver represents the homogeneous part of the solution as a sum of
non-singular radial general solutions centred at boundary knots (no
fictitious boundary, no mesh, no integration) and picks up inhomogeneous
and nonlinear terms through dual-reciprocity particular solutions built
on multiquadric radial basis functions.
"""

from .bkm import (
    BkmSolution,
    BoundaryCondition,
    Diagnostics,
    UnsupportedConfigurationError,
    assemble_bkm_matrix,
    evaluate,
    solve_boundary_only,
    solve_mixed_linear,
)
from .drm import (
    DrmExpansion,
    RbfInterpolant,
    RhoSpec,
    interp_matrix,
    particular_matrix,
    rbf_interpolate,
    rho_matrix,
    solve_alpha,
    u_p_at,
)
from .geometry import BoundaryKnot, Ellipse, Point, ellipse_knots, interior_grid
from .kernels import (
    DisplacementKernel,
    KernelPair,
    RadialKernel,
    biharmonic2d,
    biharmonic3d,
    biharmonic_mfs_pair,
    convection_diffusion2d,
    gsr_kernel,
    helmholtz2d,
    helmholtz3d,
    modified_helmholtz2d,
    modified_helmholtz3d,
    mq_pair,
    normal_derivative,
)
from .linalg import SingularMatrixError, cond_estimate_1norm, lu_factor, lu_solve
from .problems import (
    ProblemSpec,
    burger_benchmark,
    helmholtz_benchmark,
    laplace_benchmark,
    manufactured,
)
from .specfun import bessel_i0, bessel_i1, bessel_j0, bessel_j1

__all__ = [
    "BkmSolution",
    "BoundaryCondition",
    "BoundaryKnot",
    "Diagnostics",
    "DisplacementKernel",
    "DrmExpansion",
    "Ellipse",
    "KernelPair",
    "Point",
    "ProblemSpec",
    "RadialKernel",
    "RbfInterpolant",
    "RhoSpec",
    "SingularMatrixError",
    "UnsupportedConfigurationError",
    "assemble_bkm_matrix",
    "bessel_i0",
    "bessel_i1",
    "bessel_j0",
    "bessel_j1",
    "biharmonic2d",
    "biharmonic3d",
    "biharmonic_mfs_pair",
    "burger_benchmark",
    "cond_estimate_1norm",
    "convection_diffusion2d",
    "ellipse_knots",
    "evaluate",
    "gsr_kernel",
    "helmholtz2d",
    "helmholtz3d",
    "helmholtz_benchmark",
    "interior_grid",
    "interp_matrix",
    "laplace_benchmark",
    "lu_factor",
    "lu_solve",
    "manufactured",
    "modified_helmholtz2d",
    "modified_helmholtz3d",
    "mq_pair",
    "normal_derivative",
    "particular_matrix",
    "rbf_interpolate",
    "rho_matrix",
    "solve_alpha",
    "solve_boundary_only",
    "solve_mixed_linear",
    "u_p_at",
]

__version__ = "0.1.0"
