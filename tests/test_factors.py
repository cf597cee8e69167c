"""Factor residuals, analytic-vs-numeric Jacobians, and noise whitening."""

import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushgraph.errors import NonPositiveTimestep
from pushgraph.factors import (
    ConstantVelocityFactor,
    ContactForceMeasurementFactor,
    ContactSurfaceFactor,
    IntersectionFactor,
    NoiseModel,
    PoseMeasurementFactor,
    PriorFactor,
    QuasiStaticFactor,
    SurfaceGapFactor,
    analytic_jacobian,
    numeric_jacobian,
    quasi_static_residual,
)
from pushgraph.geometry import PlanarPose, Shape2D, shapes_intersect, signed_distance

from factor_samples import ALL_KINDS, ISO2, ISO3, ISO4, away_from_seam, make_factor_sample, near_seam

SQUARE = Shape2D.box(2.0, 2.0)
BOX = Shape2D.box(0.1, 0.1)
PROBE = Shape2D.disc(0.01)
DISC = Shape2D.disc(0.05)
PENTAGON = Shape2D.polygon([[0.06, 0.0], [0.02, 0.055], [-0.05, 0.03], [-0.05, -0.03], [0.02, -0.055]])


def rel_err(analytic, numeric):
    scale = max(1.0, np.max(np.abs(numeric)))
    return np.max(np.abs(analytic - numeric)) / scale


def m_pose_residual(state, meas):
    return PoseMeasurementFactor("k", meas, ISO3).residual(np.asarray(state, dtype=float))


def c_residual(shape, pose, p):
    factor = ContactSurfaceFactor("x", "pf", shape, ISO2, "c_object")
    return factor.residual(pose.as_array(), np.array([p[0], p[1], 0.0, 0.0]))


def s_residual(obj_shape, obj_pose, ee_shape, ee_pose):
    factor = IntersectionFactor("x", "e", obj_shape, ee_shape, ISO2)
    return factor.residual(obj_pose.as_array(), ee_pose.as_array())


def v_residual(a, b, c, dt1, dt2):
    return ConstantVelocityFactor("a", "b", "c", dt1, dt2, ISO3).residual(
        np.asarray(a, dtype=float), np.asarray(b, dtype=float), np.asarray(c, dtype=float))


class TestMeasurementResidual:
    def test_zero_at_equality(self):
        pose = np.array([0.4, -0.2, 1.1])
        np.testing.assert_allclose(m_pose_residual(pose, pose), np.zeros(3))
        pf = np.array([1.0, 0.0, 0.0, 2.0])
        factor = ContactForceMeasurementFactor("k", pf, ISO4)
        np.testing.assert_allclose(factor.residual(pf), np.zeros(4))

    def test_theta_shortest_arc(self):
        r = m_pose_residual([0, 0, 3.1], [0, 0, -3.1])
        assert r[2] == pytest.approx(6.2 - 2 * math.pi, abs=1e-12)
        assert abs(r[2]) < 0.1

    def test_contactforce_subtraction(self):
        factor = ContactForceMeasurementFactor("k", np.array([1.1, 0.0, 0.0, 1.5]), ISO4)
        r = factor.residual(np.array([1.0, 0.0, 0.0, 2.0]))
        np.testing.assert_allclose(r, [-0.1, 0.0, 0.0, 0.5], atol=1e-12)

    def test_prior_matches_measurement_convention(self):
        state = np.array([0.1, 0.0, 3.1])
        anchor = np.array([0.0, 0.0, -3.1])
        prior = PriorFactor("k", anchor, ISO3, wrap_index=2)
        np.testing.assert_allclose(prior.residual(state), m_pose_residual(state, anchor))
        np.testing.assert_allclose(prior.residual(state)[:2], [0.1, 0.0])


class TestContactSurfaceResidual:
    def test_on_boundary_zero(self):
        r = c_residual(Shape2D.disc(1.0), PlanarPose.identity(), [0.0, 1.0])
        np.testing.assert_allclose(r, np.zeros(2), atol=1e-12)

    def test_disc_radial(self):
        r = c_residual(Shape2D.disc(1.0), PlanarPose.identity(), [2.0, 0.0])
        np.testing.assert_allclose(r, [-1.0, 0.0], atol=1e-12)

    def test_square_interior_matches_closest_point(self):
        from pushgraph.geometry import closest_surface_point

        pose = PlanarPose(0.3, 0.1, 0.4)
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.uniform(-1.5, 1.5, size=2)
            r = c_residual(SQUARE, pose, p)
            g = closest_surface_point(SQUARE, pose, p)
            np.testing.assert_allclose(r, g - p, atol=1e-12)


class TestIntersectionResidual:
    def test_separated_zero(self):
        r = s_residual(SQUARE, PlanarPose.identity(), Shape2D.disc(0.5), PlanarPose(2.0, 0.0, 0.0))
        np.testing.assert_allclose(r, np.zeros(2))

    def test_disc_into_square(self):
        r = s_residual(SQUARE, PlanarPose.identity(), Shape2D.disc(0.5), PlanarPose(1.25, 0.0, 0.0))
        np.testing.assert_allclose(r, [0.25, 0.0], atol=1e-12)

    def test_tangency_zero(self):
        r = s_residual(SQUARE, PlanarPose.identity(), Shape2D.disc(0.5), PlanarPose(1.5, 0.0, 0.0))
        np.testing.assert_allclose(r, np.zeros(2))

    def test_zero_on_random_separated_configs(self):
        rng = np.random.default_rng(1)
        count = 0
        while count < 100:
            qx = PlanarPose(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-3, 3))
            qe = PlanarPose(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3))
            if shapes_intersect(SQUARE, qx, DISC, qe):
                continue
            np.testing.assert_allclose(s_residual(SQUARE, qx, DISC, qe), np.zeros(2))
            count += 1


class TestConstVelocityResidual:
    def test_collinear_zero(self):
        r = v_residual([0, 0, 0], [1, 0, 0], [2, 0, 0], 1.0, 1.0)
        np.testing.assert_allclose(r, np.zeros(3), atol=1e-15)

    def test_stop_arithmetic(self):
        r = v_residual([0, 0, 0], [1, 0, 0], [1, 0, 0], 1.0, 1.0)
        np.testing.assert_allclose(r, [1.0, 0.0, 0.0], atol=1e-15)

    def test_interpolated_triple_vanishes(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            a = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)])
            vel = rng.uniform(-0.5, 0.5, size=3)
            dt1, dt2 = rng.uniform(0.05, 0.5, size=2)
            b = a + vel * dt1
            c = b + vel * dt2
            r = v_residual(a, b, c, dt1, dt2)
            np.testing.assert_allclose(r, np.zeros(3), atol=1e-12)

    def test_nonpositive_timestep(self):
        with pytest.raises(NonPositiveTimestep):
            ConstantVelocityFactor("a", "b", "c", 0.0, 1.0, ISO3)


class TestQuasiStaticResidual:
    def test_pure_translation_through_cm(self):
        # force through the center: tau = 0 and omega = 0, residual vanishes
        r = quasi_static_residual(
            np.array([0.0, 0.0, 0.0]),
            np.array([0.01, 0.0, 0.0]),
            np.array([0.06, 0.0, 2.0, 0.0]),
            0.04,
            0.1,
        )
        np.testing.assert_allclose(r, np.zeros(2), atol=1e-15)

    def test_arithmetic_example(self):
        # v=(1,0), omega=1, f=(0,1), tau=1, c=1 -> r = (1, -1)
        r = quasi_static_residual(
            np.array([-1.0, 0.0, -1.0]),
            np.array([0.0, 0.0, 0.0]),
            np.array([1.0, 0.0, 0.0, 1.0]),
            1.0,
            1.0,
        )
        np.testing.assert_allclose(r, [1.0, -1.0], atol=1e-12)

    def test_finite_for_finite_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            r = quasi_static_residual(
                rng.uniform(-1, 1, 3),
                rng.uniform(-1, 1, 3),
                np.concatenate([rng.uniform(-1, 1, 2), rng.uniform(-5, 5, 2)]),
                rng.uniform(0.01, 0.5),
                rng.uniform(0.01, 0.5),
            )
            assert np.all(np.isfinite(r))


class TestNoiseModel:
    @pytest.mark.parametrize("sigmas", [
        1.0,
        np.diag([1.0, 2.0]),
        [1.0, 0.0],
        [1.0, -2.0],
        [1.0, np.nan],
        [1.0, np.inf],
    ], ids=["scalar", "covariance", "zero", "negative", "nan", "inf"])
    def test_rejects_non_sigma_vectors(self, sigmas):
        with pytest.raises(ValueError):
            NoiseModel(sigmas)

    def test_whitened_norm_matches_quadratic_form(self):
        rng = np.random.default_rng(4)
        sigmas = rng.uniform(0.1, 2.0, size=3)
        nm = NoiseModel(sigmas)
        r = rng.normal(size=3)
        cov = np.diag(sigmas**2)
        assert nm.squared_norm(r) == pytest.approx(r @ np.linalg.solve(cov, r), rel=1e-10)
        np.testing.assert_allclose(nm.whiten_jacobian(np.outer(r, [1.0, -2.0])),
                                   np.outer(nm.whiten(r), [1.0, -2.0]))

    def test_covariance_scaling_inverts_cost(self):
        # cost term r^T Sigma^-1 r: doubling every sigma scales the term by 1/4
        sigmas = np.sqrt([0.1, 0.2])
        r = np.array([0.3, -0.4])
        c1 = NoiseModel(sigmas).squared_norm(r)
        c4 = NoiseModel(2.0 * sigmas).squared_norm(r)
        assert c4 == pytest.approx(c1 / 4.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Jacobian verification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_analytic_jacobian_matches_numeric(kind):
    rng = np.random.default_rng(abs(zlib.crc32(kind.encode())))
    worst = 0.0
    for _ in range(100):
        factor, values = make_factor_sample(kind, rng)
        num = numeric_jacobian(factor, values)
        ana = analytic_jacobian(factor, values)
        worst = max(worst, rel_err(ana, num))
    assert worst < 1e-5, f"{kind}: worst relative error {worst:.2e}"


@pytest.mark.parametrize("kind", ALL_KINDS)
@settings(derandomize=True, max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_analytic_jacobian_matches_numeric_at_theta_seam(kind, seed):
    # every pose angle within 1e-3 of +-pi, so bumps and differences cross the seam
    factor, values = make_factor_sample(kind, np.random.default_rng(seed), theta=near_seam)
    err = rel_err(analytic_jacobian(factor, values), numeric_jacobian(factor, values))
    assert err < 1e-5, f"{kind}: relative error {err:.2e}"


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_fused_residual_matches_residual(kind):
    # cost sweeps use residual, linearization the fused entry point
    rng = np.random.default_rng(abs(zlib.crc32(kind.encode())))
    for theta in (away_from_seam, near_seam):
        for _ in range(5):
            factor, values = make_factor_sample(kind, rng, theta)
            fused, jacs = factor.residual_and_jacobians(*values)
            np.testing.assert_allclose(fused, factor.residual(*values), rtol=1e-12, atol=1e-15)
            assert [j.shape for j in jacs] == [(factor.dim, len(v)) for v in values]


def test_measurement_jacobian_is_identity():
    fac = PoseMeasurementFactor("k", np.array([0.1, 0.2, 0.3]), ISO3)
    np.testing.assert_allclose(analytic_jacobian(fac, [np.array([1.0, 2.0, 0.5])]), np.eye(3))


def test_const_velocity_jacobian_pattern():
    fac = ConstantVelocityFactor("a", "b", "c", 1.0, 1.0, ISO3)
    vals = [np.zeros(3), np.ones(3) * 0.1, np.ones(3) * 0.3]
    jac = analytic_jacobian(fac, vals)
    expected = np.hstack([-np.eye(3), 2 * np.eye(3), -np.eye(3)])
    np.testing.assert_allclose(jac, expected, atol=1e-12)


def test_partial_contactforce_measurement():
    # contact point measured, force not: zero anchor and weak sigma on the force
    fac = ContactForceMeasurementFactor("k", np.array([0.5, 0.6, 0.0, 0.0]),
                                        NoiseModel([1.0, 1.0, 1e3, 1e3]))
    r = fac.residual(np.array([1.0, 1.0, 9.0, 9.0]))
    np.testing.assert_allclose(r, [0.5, 0.4, 9.0, 9.0])
    np.testing.assert_allclose(fac.noise.whiten(r), [0.5, 0.4, 9e-3, 9e-3])
    np.testing.assert_allclose(analytic_jacobian(fac, [np.zeros(4)]), np.eye(4))
