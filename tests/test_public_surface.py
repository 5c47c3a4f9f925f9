"""The package's public surface: what solves, the CLI and the scripts use."""

import importlib

import bkm

KEPT = {
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
    "bessel_i0",
    "bessel_i1",
    "bessel_j0",
    "bessel_j1",
    "biharmonic2d",
    "biharmonic3d",
    "biharmonic_mfs_pair",
    "burger_benchmark",
    "convection_diffusion2d",
    "ellipse_knots",
    "evaluate",
    "gsr_kernel",
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
    "rbf_interpolate",
    "solve_boundary_only",
    "solve_mixed_linear",
}

# Building blocks that only tests use: unexported, but still defined in their
# modules, where perfbench/tracing.py looks each one up by name.
MODULE_ONLY = {
    "bkm": ("assemble_bkm_matrix",),
    "drm": ("interp_matrix", "particular_matrix", "rho_matrix", "solve_alpha", "u_p_at"),
    "kernels": ("normal_derivative",),
    "linalg": ("lu_factor",),
}


def test_package_exports_the_kept_names_and_each_resolves():
    assert len(KEPT) == 40
    assert set(bkm.__all__) == KEPT
    assert len(bkm.__all__) == len(KEPT)
    for name in bkm.__all__:
        assert getattr(bkm, name) is not None, name


def test_module_only_names_resolve_in_their_modules_only():
    for module_name, names in MODULE_ONLY.items():
        module = importlib.import_module(f"bkm.{module_name}")
        for name in names:
            assert callable(getattr(module, name)), (module_name, name)
            assert name not in module.__all__, (module_name, name)
            assert not hasattr(bkm, name), name
