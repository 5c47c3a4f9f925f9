"""Boundary knot method: boundary-only meshless solver for Helmholtz-type PDEs.

The solver represents the homogeneous part of the solution as a sum of
non-singular radial general solutions centred at boundary knots (no
fictitious boundary, no mesh, no integration) and picks up inhomogeneous
and nonlinear terms through dual-reciprocity particular solutions built
on multiquadric radial basis functions.

The package exports what solves, the CLI and the scripts use; building
blocks that only tests use are imported from their modules.
"""

from .bkm import (
    BkmSolution,
    BoundaryCondition,
    Diagnostics,
    UnsupportedConfigurationError,
    evaluate,
    solve_boundary_only,
    solve_mixed_linear,
)
from .drm import DrmExpansion, RhoSpec
from .geometry import BoundaryKnot, Ellipse, Point, ellipse_knots, interior_grid
from .kernels import (
    DisplacementKernel,
    KernelPair,
    RadialKernel,
    biharmonic2d,
    biharmonic3d,
    convection_diffusion2d,
    helmholtz2d,
    helmholtz3d,
    modified_helmholtz2d,
    modified_helmholtz3d,
    mq_pair,
)
from .linalg import SingularMatrixError, lu_solve
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
    "RhoSpec",
    "SingularMatrixError",
    "UnsupportedConfigurationError",
    "bessel_i0",
    "bessel_i1",
    "bessel_j0",
    "bessel_j1",
    "biharmonic2d",
    "biharmonic3d",
    "burger_benchmark",
    "convection_diffusion2d",
    "ellipse_knots",
    "evaluate",
    "helmholtz2d",
    "helmholtz3d",
    "helmholtz_benchmark",
    "interior_grid",
    "laplace_benchmark",
    "lu_solve",
    "manufactured",
    "modified_helmholtz2d",
    "modified_helmholtz3d",
    "mq_pair",
    "solve_boundary_only",
    "solve_mixed_linear",
]

__version__ = "0.1.0"
