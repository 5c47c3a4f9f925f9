"""Kernel catalog: values, derivatives, and governing-operator residuals."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkm.drm import knot_distances
from bkm.geometry import Ellipse, Point, ellipse_knots
from bkm.kernels import (
    RadialKernel,
    _dsinc,
    _dsinhc,
    _sinc,
    _sinhc,
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
from bkm.specfun import bessel_j0_sq

from oracles import (
    fd_biharmonic_radial,
    fd_gradient_2d,
    fd_laplacian_2d,
    fd_radial_laplacian,
    fd_radial_laplacian_rich,
)

RADII = st.floats(min_value=0.1, max_value=5.0)


class TestHelmholtz2d:
    def test_value_at_origin(self):
        assert helmholtz2d(1.0).eval(0.0) == 1.0

    def test_vanishes_at_first_bessel_root(self):
        assert abs(helmholtz2d(1.0).eval(2.404825557695773)) <= 1e-12

    def test_derivative_chain_rule(self):
        # d/dr J0(2r) at r=0.5 is -2 J1(1)
        assert helmholtz2d(2.0).deriv(0.5) == pytest.approx(-0.8801011714898670, abs=1e-15)

    def test_wavenumber_must_be_positive(self):
        with pytest.raises(ValueError):
            helmholtz2d(0.0)

    @given(RADII)
    @settings(max_examples=50)
    def test_annihilates_laplacian_plus_square(self, r):
        lam = 1.3
        k = helmholtz2d(lam)
        resid = fd_radial_laplacian(k.eval, r) + lam * lam * k.eval(r)
        assert abs(resid) <= 1e-5 * (1.0 + abs(k.eval(r)))


class TestModifiedHelmholtz2d:
    def test_value_at_origin(self):
        assert modified_helmholtz2d(1.0).eval(0.0) == 1.0

    def test_value_at_one(self):
        assert modified_helmholtz2d(1.0).eval(1.0) == pytest.approx(
            1.2660658777520082, rel=1e-15
        )

    def test_derivative_vanishes_at_origin(self):
        assert modified_helmholtz2d(3.0).deriv(0.0) == 0.0

    @given(RADII)
    @settings(max_examples=50)
    def test_annihilates_laplacian_minus_square(self, r):
        lam = 1.3
        k = modified_helmholtz2d(lam)
        resid = fd_radial_laplacian(k.eval, r) - lam * lam * k.eval(r)
        assert abs(resid) <= 1e-5 * (1.0 + abs(k.eval(r)))


class TestHelmholtz3d:
    def test_removable_singularity_at_origin(self):
        assert helmholtz3d(1.0).eval(0.0) == 1.0

    def test_vanishes_at_pi(self):
        assert abs(helmholtz3d(1.0).eval(math.pi)) <= 1e-15

    def test_point_value(self):
        assert helmholtz3d(2.0).eval(1.0) == pytest.approx(0.4546487134128409, rel=1e-15)

    def test_series_matches_closed_form_near_origin(self):
        k = helmholtz3d(1.7)
        for r in (1e-9, 1e-7, 1e-5, 1e-3):
            explicit = math.sin(1.7 * r) / (1.7 * r)
            assert k.eval(r) == pytest.approx(explicit, rel=1e-13)

    @given(RADII)
    @settings(max_examples=50)
    def test_annihilates_3d_helmholtz(self, r):
        lam = 1.3
        k = helmholtz3d(lam)
        resid = fd_radial_laplacian(k.eval, r, dim=3) + lam * lam * k.eval(r)
        assert abs(resid) <= 1e-5 * (1.0 + abs(k.eval(r)))


class TestModifiedHelmholtz3d:
    def test_value_at_origin(self):
        assert modified_helmholtz3d(1.0).eval(0.0) == 1.0

    def test_point_values(self):
        assert modified_helmholtz3d(1.0).eval(1.0) == pytest.approx(
            1.1752011936438014, rel=1e-15
        )
        assert modified_helmholtz3d(0.5).eval(2.0) == pytest.approx(
            1.1752011936438014, rel=1e-15
        )

    @given(RADII)
    @settings(max_examples=50)
    def test_annihilates_3d_modified_helmholtz(self, r):
        lam = 1.3
        k = modified_helmholtz3d(lam)
        resid = fd_radial_laplacian(k.eval, r, dim=3) - lam * lam * k.eval(r)
        assert abs(resid) <= 1e-5 * (1.0 + abs(k.eval(r)))


class TestSincHelpersParity:
    """sin(s)/s and sinh(s)/s are even and their derivatives odd, on both
    sides of every series threshold; negative s once took the series."""

    @pytest.mark.parametrize("s", [3.0, 1e-2, 1e-5])
    @pytest.mark.parametrize("helper", [_sinc, _sinhc], ids=["sinc", "sinhc"])
    def test_values_are_even(self, helper, s):
        assert helper(-s) == helper(s)

    @pytest.mark.parametrize("s", [3.0, 1e-2, 1e-5])
    @pytest.mark.parametrize("helper", [_dsinc, _dsinhc], ids=["dsinc", "dsinhc"])
    def test_derivatives_are_odd(self, helper, s):
        assert helper(-s) == -helper(s)

    def test_negative_arguments_take_the_closed_forms(self):
        assert _sinc(-3.0) == pytest.approx(math.sin(3.0) / 3.0, rel=1e-15)
        assert _sinhc(-3.0) == pytest.approx(math.sinh(3.0) / 3.0, rel=1e-15)
        dsinc3 = (3.0 * math.cos(3.0) - math.sin(3.0)) / 9.0
        dsinhc3 = (3.0 * math.cosh(3.0) - math.sinh(3.0)) / 9.0
        assert _dsinc(-3.0) == pytest.approx(-dsinc3, rel=1e-14)
        assert _dsinhc(-3.0) == pytest.approx(-dsinhc3, rel=1e-14)

    def test_kernels_at_negative_radius(self):
        assert helmholtz3d(1.0).eval(-3.0) == pytest.approx(math.sin(3.0) / 3.0, rel=1e-15)
        assert helmholtz3d(1.0).deriv(-3.0) == -helmholtz3d(1.0).deriv(3.0)
        assert modified_helmholtz3d(1.0).eval(-3.0) == pytest.approx(
            math.sinh(3.0) / 3.0, rel=1e-15
        )

    def test_huge_arguments_warn_nothing(self):
        # The series is not evaluated where the closed form is taken, so s * s
        # cannot overflow there.
        s = np.array([1e-5, 1e200, -1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = _sinc(s)
        assert values[0] == 1.0 - 1e-10 / 6.0 + 1e-20 / 120.0
        assert values[1:].tolist() == [math.sin(1e200) / 1e200, math.sin(-1e300) / -1e300]

    def test_arrays_mixing_signs(self):
        s = np.array([-3.0, -1e-2, -1e-5, 0.0, 1e-5, 1e-2, 3.0])
        for helper in (_sinc, _sinhc):
            assert np.array_equal(helper(s), helper(s[::-1]))
        for helper in (_dsinc, _dsinhc):
            assert np.array_equal(helper(s), -helper(s[::-1]))


class TestBiharmonic:
    def test_components_equal_one_at_origin(self):
        for kern in biharmonic2d(1.0) + biharmonic3d(1.0):
            assert kern.eval(0.0) == 1.0

    @pytest.mark.parametrize("lam", [1.0, 1.3])
    @pytest.mark.parametrize("dim,factory", [(2, biharmonic2d), (3, biharmonic3d)])
    def test_fourth_order_operator_residual(self, dim, factory, lam):
        # Both components solve the factorized fourth-order operator
        # lap().lap() - lam^4 = (lap + lam^2)(lap - lam^2); at lam = 1 the
        # quartic coincides with the quadratic coefficient form.
        rng = np.random.RandomState(4)
        for kern in factory(lam):
            for r in rng.uniform(0.5, 4.0, 12):
                r = float(r)
                resid = fd_biharmonic_radial(kern.eval, r, dim=dim) - lam**4 * kern.eval(r)
                assert abs(resid) <= 1e-5 * (1.0 + abs(kern.eval(r)))


class TestConvectionDiffusion2d:
    def test_reduces_to_helmholtz_without_velocity(self):
        k = convection_diffusion2d(1.0, (0.0, 0.0), 1.0)
        j0 = helmholtz2d(1.0)
        for delta in ((0.7, 0.0), (0.3, -0.4), (1.0, 2.0)):
            r = math.hypot(*delta)
            assert k.eval(delta) == pytest.approx(j0.eval(r), rel=1e-15)

    def test_unity_at_zero_displacement(self):
        k = convection_diffusion2d(2.0, (1.0, -3.0), 0.5)
        assert k.eval((0.0, 0.0)) == 1.0

    def test_drifted_point_value(self):
        # exp(-1) * J0(1); the exponential drift halves the velocity once
        # because the remaining half feeds the effective wavenumber.
        k = convection_diffusion2d(1.0, (2.0, 0.0), 0.0)
        assert k.eval((1.0, 0.0)) == pytest.approx(0.2815004973166252, rel=1e-14)

    def test_imaginary_wavenumber_rejected(self):
        with pytest.raises(ValueError):
            convection_diffusion2d(1.0, (0.0, 0.0), -1.0)

    def test_diffusivity_must_be_positive(self):
        with pytest.raises(ValueError):
            convection_diffusion2d(0.0, (1.0, 0.0), 1.0)

    @given(RADII, st.floats(min_value=0.0, max_value=2 * math.pi))
    @settings(max_examples=50)
    def test_annihilates_convection_operator(self, r, angle):
        D, vx, vy, k_reac = 1.0, 2.0, 0.7, 0.5
        kern = convection_diffusion2d(D, (vx, vy), k_reac)
        x, y = r * math.cos(angle), r * math.sin(angle)

        def g(ax: float, ay: float) -> float:
            return kern.eval((ax, ay))

        # The drift-times-J0 form absorbs half the velocity into the
        # oscillation, so the zeroth-order coefficient it annihilates is
        # k + |v|^2/(2D), not the bare reaction k.
        k_eff = k_reac + (vx * vx + vy * vy) / (2.0 * D)
        lap = fd_laplacian_2d(g, x, y)
        gx, gy = fd_gradient_2d(g, x, y)
        resid = D * lap + vx * gx + vy * gy + k_eff * g(x, y)
        assert abs(resid) <= 1e-5 * (1.0 + abs(g(x, y)))


class TestMqPair:
    def test_phi_hat_at_origin_is_c_cubed(self):
        assert mq_pair(3.0).phi_hat.eval(0.0) == 27.0

    def test_phi_at_origin(self):
        assert mq_pair(3.0).phi.eval(0.0) == pytest.approx(45.0, rel=1e-15)

    def test_phi_at_one(self):
        assert mq_pair(1.0).phi.eval(1.0) == pytest.approx(13.435028842544403, rel=1e-15)

    def test_shape_must_be_positive(self):
        with pytest.raises(ValueError):
            mq_pair(0.0)
        with pytest.raises(ValueError):
            mq_pair(-2.0)

    @pytest.mark.parametrize("c", [1.0, 3.0, 25.0])
    def test_phi_is_operator_image_of_phi_hat(self, c):
        pair = mq_pair(c)
        for r in np.linspace(0.05, 6.0, 60):
            r = float(r)
            lap = fd_radial_laplacian_rich(pair.phi_hat.eval, r)
            resid = abs(lap + pair.phi_hat.eval(r) - pair.phi.eval(r))
            assert resid <= 1e-6 * abs(pair.phi.eval(r))

    @pytest.mark.parametrize("c", [1.0, 3.0, 25.0])
    @given(r=st.floats(min_value=0.0, max_value=8.0))
    @settings(max_examples=30)
    def test_derivatives_match_finite_differences(self, c, r):
        # Step scaled to the kernel magnitude: at c=25 the values reach
        # ~1.6e4 and a fixed 1e-6 step leaves eps*|f|/h ~ 3e-6 of roundoff
        # in the central difference, swamping the analytic derivative.
        pair = mq_pair(c)
        eps = np.finfo(float).eps
        for kern in (pair.phi_hat, pair.phi):
            h = max(1e-6 * max(1.0, r), (eps * max(1.0, abs(kern.eval(r)))) ** (1.0 / 3.0))
            if r >= h:
                fd = (kern.eval(r + h) - kern.eval(r - h)) / (2.0 * h)
                assert kern.deriv(r) == pytest.approx(fd, rel=1e-7, abs=1e-6)


class TestGsrKernel:
    def test_m0_plain_is_identity_on_g(self):
        g = helmholtz2d(2.0)
        assert gsr_kernel(g, m=0) is g

    def test_m1_plain_over_log_is_modified_tps(self):
        ln1 = biharmonic_mfs_pair()[0]
        mtps = gsr_kernel(ln1, m=1)
        r2ln1 = biharmonic_mfs_pair()[1]
        for r in (0.3, 1.0, 2.5):
            assert mtps.eval(r) == pytest.approx(r2ln1.eval(r), rel=1e-15)
        # the r^2 factor crushes the log singularity
        assert mtps.eval(0.0) == 0.0
        assert mtps.deriv(0.0) == 0.0

    def test_prewavelet_log_vanishes_at_origin(self):
        g = RadialKernel(math.log, lambda r: 1.0 / r, "ln", {})
        kern = gsr_kernel(g, m=1, prewavelet_c=1.0)
        assert kern.eval(0.0) == 0.0

    def test_prewavelet_regularizes_everywhere(self):
        g = RadialKernel(math.log, lambda r: 1.0 / r, "ln", {})
        kern = gsr_kernel(g, m=1, prewavelet_c=0.5)
        # sqrt(r^2+c^2) never reaches zero, so no singularity anywhere
        for r in (0.0, 1e-8, 0.1, 1.0):
            assert math.isfinite(kern.eval(r))

    @pytest.mark.parametrize("prewavelet_c", [None, 0.8])
    @pytest.mark.parametrize("m", [1, 2])
    def test_value_is_radius_power_times_g(self, m, prewavelet_c):
        g = helmholtz2d(1.3)
        kern = gsr_kernel(g, m=m, prewavelet_c=prewavelet_c)
        for r in (0.3, 1.0, 2.5):
            s = r if prewavelet_c is None else math.hypot(r, prewavelet_c)
            assert kern.eval(r) == pytest.approx(s ** (2 * m) * g.eval(s), rel=1e-14)

    def test_m0_prewavelet_shifts_the_radius(self):
        g = modified_helmholtz2d(0.7)
        kern = gsr_kernel(g, m=0, prewavelet_c=0.8)
        for r in (0.0, 0.4, 1.7):
            s = math.hypot(r, 0.8)
            assert kern.eval(r) == pytest.approx(g.eval(s), rel=1e-14)
            assert kern.deriv(r) == pytest.approx(g.deriv(s) * r / s, rel=1e-14, abs=1e-300)

    def test_label_and_params(self):
        g = helmholtz2d(1.3)
        plain = gsr_kernel(g, m=2)
        assert plain.label == f"gsr[m=2]({g.label})"
        assert plain.params == {"m": 2.0, **g.params}
        shifted = gsr_kernel(g, m=1, prewavelet_c=0.8)
        assert shifted.label == f"gsr[m=1,prewavelet]({g.label})"
        assert shifted.params == {"m": 1.0, "prewavelet_c": 0.8, **g.params}

    def test_negative_smoothing_exponent_rejected(self):
        with pytest.raises(ValueError):
            gsr_kernel(helmholtz2d(1.0), m=-1)

    @pytest.mark.parametrize("prewavelet_c", [None, 0.8])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("g", [biharmonic_mfs_pair()[0], helmholtz2d(1.3)], ids=["ln1", "j0"])
    @given(st.floats(min_value=0.05, max_value=4.0))
    @settings(max_examples=40)
    def test_derivative_matches_finite_differences(self, g, m, prewavelet_c, r):
        kern = gsr_kernel(g, m=m, prewavelet_c=prewavelet_c)
        h = 1e-6
        fd = (kern.eval(r + h) - kern.eval(r - h)) / (2.0 * h)
        assert kern.deriv(r) == pytest.approx(fd, rel=1e-6, abs=1e-7)


class TestBiharmonicMfsPair:
    def test_values_at_one(self):
        first, second = biharmonic_mfs_pair()
        assert first.eval(1.0) == 1.0
        assert second.eval(1.0) == 1.0

    def test_value_at_e(self):
        assert biharmonic_mfs_pair()[1].eval(math.e) == pytest.approx(
            14.7781121978613, rel=1e-12
        )

    def test_singular_at_origin(self):
        first, second = biharmonic_mfs_pair()
        for kern in (first, second):
            with pytest.raises(ValueError):
                kern.eval(0.0)


class TestNormalDerivative:
    def test_zero_at_coincident_points(self):
        k = helmholtz2d(1.0)
        p = Point(0.3, -0.2)
        assert normal_derivative(k, p, p, (1.0, 0.0)) == 0.0

    def test_axis_aligned_value(self):
        k = helmholtz2d(1.0)
        got = normal_derivative(k, Point(0.0, 0.0), Point(1.0, 0.0), (1.0, 0.0))
        assert got == pytest.approx(-0.4400505857449335, abs=1e-15)

    def test_orthogonal_normal_gives_zero(self):
        k = helmholtz2d(1.0)
        got = normal_derivative(k, Point(0.0, 0.0), Point(1.0, 0.0), (0.0, 1.0))
        assert got == 0.0

    @given(
        st.floats(min_value=-2, max_value=2),
        st.floats(min_value=-2, max_value=2),
        st.floats(min_value=0.1, max_value=3),
        st.floats(min_value=0, max_value=2 * math.pi),
        st.floats(min_value=0, max_value=2 * math.pi),
    )
    @settings(max_examples=50)
    def test_antisymmetric_under_endpoint_swap(self, sx, sy, d, theta, phi):
        k = modified_helmholtz2d(1.2)
        source = Point(sx, sy)
        response = Point(sx + d * math.cos(theta), sy + d * math.sin(theta))
        n = (math.cos(phi), math.sin(phi))
        ab = normal_derivative(k, source, response, n)
        ba = normal_derivative(k, response, source, n)
        assert ab == pytest.approx(-ba, rel=1e-12, abs=1e-14)

    @given(
        st.floats(min_value=0.2, max_value=3),
        st.floats(min_value=0, max_value=2 * math.pi),
        st.floats(min_value=0, max_value=2 * math.pi),
    )
    @settings(max_examples=50)
    def test_matches_directional_finite_difference(self, d, theta, phi):
        k = helmholtz2d(1.0)
        source = Point(0.1, -0.2)
        response = Point(source.x + d * math.cos(theta), source.y + d * math.sin(theta))
        n = (math.cos(phi), math.sin(phi))

        def field(x: float, y: float) -> float:
            return k.eval(math.hypot(x - source.x, y - source.y))

        h = 1e-6
        fd = (
            field(response.x + h * n[0], response.y + h * n[1])
            - field(response.x - h * n[0], response.y - h * n[1])
        ) / (2.0 * h)
        got = normal_derivative(k, source, response, n)
        assert got == pytest.approx(fd, rel=1e-6, abs=1e-8)


def _catalog() -> dict:
    """Every RadialKernel the catalog builds, keyed by a readable id."""
    lam = 1.3
    ln1, r2ln1 = biharmonic_mfs_pair()
    g = helmholtz2d(lam)
    pair = mq_pair(3.0)
    split = mq_pair(3.0, 0.5)
    return {
        "helmholtz2d": g,
        "modified_helmholtz2d": modified_helmholtz2d(lam),
        "helmholtz3d": helmholtz3d(lam),
        "modified_helmholtz3d": modified_helmholtz3d(lam),
        "mq_phi_hat": pair.phi_hat,
        "mq_phi": pair.phi,
        "mq_phi_split": split.phi,
        "gsr_plain_m1": gsr_kernel(g, m=1),
        "gsr_prewavelet": gsr_kernel(g, m=1, prewavelet_c=0.8),
        "mtps": gsr_kernel(ln1, m=1),
        "mtps_prewavelet": gsr_kernel(ln1, m=1, prewavelet_c=0.8),
        "mfs_ln": ln1,
        "mfs_r2ln": r2ln1,
    }


CATALOG = _catalog()
# Radii where J0(1.3 r) crosses the |x| = 5 switch of the Bessel functions.
_SWITCH = 5.0 / 1.3
RADIUS_LISTS = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=8.0, allow_subnormal=False),
        st.sampled_from([0.0, 1e-9, _SWITCH, np.nextafter(_SWITCH, 0.0), np.nextafter(_SWITCH, 9.0)]),
    ),
    min_size=1,
    max_size=12,
)


class TestArrayContract:
    """eval/deriv are elementwise: an array call equals the calls on its elements."""

    @pytest.mark.parametrize("name", sorted(CATALOG))
    @given(radii=RADIUS_LISTS)
    @settings(max_examples=25, deadline=None)
    def test_array_call_equals_elementwise_calls(self, name, radii):
        kern = CATALOG[name]
        if name.startswith("mfs"):
            # The singular pair is defined for r > 0 only.
            radii = [r for r in radii if r > 0.0] or [1.0]
        r = np.array(radii).reshape(-1, 1)
        for fn in (kern.eval, kern.deriv):
            got = fn(r)
            assert got.shape == r.shape
            want = np.array([fn(float(x)) for x in radii])
            assert np.array_equal(got[:, 0], want)

    def test_zero_limits_on_arrays(self):
        r = np.array([0.0, 0.5, 0.0])
        for name in ("gsr_plain_m1", "mtps"):
            for fn in (CATALOG[name].eval, CATALOG[name].deriv):
                assert fn(r)[0] == 0.0 and fn(r)[2] == 0.0
        assert np.array_equal(CATALOG["helmholtz3d"].eval(r)[[0, 2]], [1.0, 1.0])

    def test_singular_pair_rejects_any_zero_radius(self):
        for kern in biharmonic_mfs_pair():
            with pytest.raises(ValueError):
                kern.eval(np.array([0.5, 0.0]))
            with pytest.raises(ValueError):
                kern.deriv(np.array([1.0, -0.1]))

    def test_normal_derivative_matrix_equals_pairwise_calls(self):
        k = helmholtz2d(1.0)
        rng = np.random.RandomState(3)
        sources = rng.uniform(-1.0, 1.0, (5, 2))
        responses = np.vstack([rng.uniform(-1.0, 1.0, (3, 2)), sources[1]])
        angles = rng.uniform(0.0, 2 * math.pi, 4)
        normals = np.column_stack([np.cos(angles), np.sin(angles)])
        got = normal_derivative(k, sources[None, :], responses[:, None], normals[:, None])
        assert got.shape == (4, 5)
        for i in range(4):
            for j in range(5):
                want = normal_derivative(
                    k, Point(*sources[j]), Point(*responses[i]), tuple(normals[i])
                )
                assert got[i, j] == want
        # The coincident pair (response 3 is source 1) takes the 0 limit.
        assert got[3, 1] == 0.0


class TestMqPairWavenumber:
    def test_unit_wavenumber_is_the_default(self):
        r = np.linspace(0.0, 6.0, 25)
        default, unit = mq_pair(3.0), mq_pair(3.0, 1.0)
        assert np.array_equal(default.phi.eval(r), unit.phi.eval(r))
        assert np.array_equal(default.phi.deriv(r), unit.phi.deriv(r))
        assert default.wavenumber == 1.0

    @pytest.mark.parametrize("k", [0.5, 2.0])
    def test_phi_is_image_under_split_operator(self, k):
        pair = mq_pair(3.0, k)
        for r in np.linspace(0.05, 6.0, 30):
            r = float(r)
            lap = fd_radial_laplacian_rich(pair.phi_hat.eval, r)
            resid = abs(lap + k * k * pair.phi_hat.eval(r) - pair.phi.eval(r))
            assert resid <= 1e-6 * abs(pair.phi.eval(r))

    def test_wavenumber_must_be_positive(self):
        with pytest.raises(ValueError):
            mq_pair(3.0, 0.0)


# The 2:1 ellipse of the paper's Laplace and Helmholtz problems.
PAPER_ELLIPSE = Ellipse(Point(0.0, 0.0), 2.0, 1.0)


class TestSquaredRadius:
    """eval_sq gives a kernel of r^2 alone from the squared radius t = r^2."""

    R = np.linspace(0.0, 12.0, 2401)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.5])
    def test_j0_kernel_matches_eval(self, lam):
        kern = helmholtz2d(lam)
        # lam^2 * r^2 and (lam * r)^2 differ by round-off only.
        assert np.abs(kern.eval_sq(self.R * self.R) - kern.eval(self.R)).max() <= 1e-14

    def test_unit_wavenumber_takes_the_squared_radius_unscaled(self):
        t = self.R * self.R
        assert np.array_equal(helmholtz2d(1.0).eval_sq(t), bessel_j0_sq(t))

    @pytest.mark.parametrize("t", [0.0, 4.0, 30.0, 1e4])
    @pytest.mark.parametrize("lam", [1.0, 1.3])
    def test_j0_kernel_takes_a_float(self, lam, t):
        """A float t gives a float, as ``eval`` and ``deriv`` do, on either
        side of the series/asymptotic switch at t = 25."""
        kern = helmholtz2d(lam)
        got = kern.eval_sq(t)
        assert type(got) is float
        assert got == kern.eval_sq(np.array([t]))[0]
        assert abs(got - kern.eval(math.sqrt(t))) <= 1e-15

    @pytest.mark.parametrize("c, k", [(1.0, 1.0), (3.0, 2.0)])
    def test_phi_hat_eval_is_its_squared_entry(self, c, k):
        phi_hat = mq_pair(c, k).phi_hat
        assert np.array_equal(phi_hat.eval(self.R), phi_hat.eval_sq(self.R * self.R))
        assert phi_hat.eval_sq(np.array([0.0]))[0] == c**3

    @pytest.mark.parametrize(
        "r",
        [
            pytest.param(np.linspace(0.0, 5.0, 2001), id="radii_0_to_5"),
            pytest.param(
                knot_distances([k.position for k in ellipse_knots(PAPER_ELLIPSE, 40)]),
                id="knot_distances",
            ),
        ],
    )
    def test_unit_j0_of_squared_radius_is_eval(self, r):
        """On r in [0, 5], where J0 is its polynomial in r^2 and squares r
        itself, eval_sq(r^2) at wavenumber 1 is eval(r) bit for bit: the
        solve builds its collocation matrix that way."""
        kern = helmholtz2d(1.0)
        assert np.array_equal(kern.eval_sq(np.square(r)), kern.eval(r))

    @pytest.mark.parametrize("name", sorted(n for n, k in CATALOG.items() if k.sq is None))
    def test_kernel_without_sq_is_eval_of_sqrt(self, name):
        """A kernel with no squared form takes t through eval(sqrt(t)), on
        arrays and on floats."""
        kern = CATALOG[name]
        # The singular pair is defined for r > 0 only.
        t = self.R[1:] ** 2 if name.startswith("mfs") else self.R * self.R
        assert np.array_equal(kern.eval_sq(t), kern.eval(np.sqrt(t)))
        assert kern.eval_sq(t[7]) == kern.eval(math.sqrt(t[7]))


class TestParameterRule:
    """A parameter a factory takes as positive must be finite and positive,
    and the convection-diffusion velocity and reaction finite; anything else
    raises when the kernel is built, not at its first evaluation."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: helmholtz2d(math.nan),
            lambda: helmholtz2d(math.inf),
            lambda: modified_helmholtz2d(math.inf),
            lambda: helmholtz3d(math.nan),
            lambda: modified_helmholtz3d(math.inf),
            lambda: biharmonic2d(math.nan),
            lambda: biharmonic3d(math.inf),
            lambda: mq_pair(math.nan),
            lambda: mq_pair(3.0, math.inf),
            lambda: mq_pair(math.inf, 1.0),
            lambda: convection_diffusion2d(math.inf, (1.0, 0.0), 1.0),
            lambda: convection_diffusion2d(1.0, (math.nan, 0.0), 1.0),
            lambda: convection_diffusion2d(1.0, (0.0, -math.inf), 1.0),
            lambda: convection_diffusion2d(1.0, (0.0, 0.0), math.nan),
            lambda: convection_diffusion2d(1.0, (0.0, 0.0), math.inf),
            lambda: convection_diffusion2d(1e-300, (1.0, 0.0), 1.0),
            lambda: gsr_kernel(helmholtz2d(1.0), m=1, prewavelet_c=math.nan),
            lambda: gsr_kernel(helmholtz2d(1.0), m=1, prewavelet_c=math.inf),
            lambda: gsr_kernel(helmholtz2d(1.0), m=1, prewavelet_c=0.0),
            lambda: gsr_kernel(helmholtz2d(1.0), prewavelet_c=-0.8),
        ],
        ids=[
            "j0-nan", "j0-inf", "i0-inf", "sinc3d-nan", "sinh3d-inf", "biharmonic2d-nan",
            "biharmonic3d-inf", "mq-c-nan", "mq-k-inf", "mq-c-inf", "convection-D-inf",
            "convection-vx-nan", "convection-vy-inf", "convection-k-nan", "convection-k-inf",
            "convection-mu-overflow", "gsr-c-nan", "gsr-c-inf", "gsr-c-zero", "gsr-c-negative",
        ],
    )
    def test_rejected_when_built(self, build):
        with pytest.raises(ValueError, match="finite|overflows"):
            build()

    @pytest.mark.parametrize("factory", [helmholtz2d, helmholtz3d, mq_pair])
    def test_message_names_the_rule(self, factory):
        with pytest.raises(ValueError, match="must be finite and positive, got nan"):
            factory(math.nan)
