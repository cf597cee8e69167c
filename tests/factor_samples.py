"""Random smooth-configuration generator for factor Jacobian checks."""

import math

import numpy as np

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
)
from pushgraph.geometry import PlanarPose, Shape2D, shapes_intersect, signed_distance, wrap_angle
from pushgraph.graphcore import LinearizedPriorFactor, obj_key, pf_key

BOX = Shape2D.box(0.1, 0.1)
PROBE = Shape2D.disc(0.01)
DISC = Shape2D.disc(0.05)
PENTAGON = Shape2D.polygon(
    [[0.06, 0.0], [0.02, 0.055], [-0.05, 0.03], [-0.05, -0.03], [0.02, -0.055]]
)

ISO2 = NoiseModel.isotropic(2, 1.0)
ISO3 = NoiseModel.isotropic(3, 1.0)
ISO4 = NoiseModel.isotropic(4, 1.0)

ALL_KINDS = ["prior", "m_pose", "m_contactforce", "c_object", "c_ee", "c_objee",
             "s", "s_poly_ee", "v", "d", "linearized_prior"]


def away_from_seam(rng):
    """An angle well inside (-pi, pi]."""
    return rng.uniform(-1.2, 1.2)


def near_seam(rng, width=1e-3):
    """An angle within width of +-pi, on either side of the wrap seam."""
    return wrap_angle(math.pi + rng.uniform(-width, width))


def random_smooth_pose(rng, scale=0.5, theta=away_from_seam):
    return np.array([rng.uniform(-scale, scale), rng.uniform(-scale, scale), theta(rng)])


def make_factor_sample(kind, rng, theta=away_from_seam):
    """One (factor, values) pair at a smooth configuration of the given kind.

    theta draws every pose angle of the sample.
    """
    def pose(scale=0.5):
        return random_smooth_pose(rng, scale, theta)

    if kind == "prior":
        return PriorFactor("k", pose(), ISO3, wrap_index=2), [pose()]
    if kind == "m_pose":
        return PoseMeasurementFactor("k", pose(), ISO3), [pose()]
    if kind == "m_contactforce":
        return (
            ContactForceMeasurementFactor("k", rng.normal(size=4), ISO4),
            [rng.normal(size=4)],
        )
    if kind in ("c_object", "c_ee"):
        shape = [BOX, DISC, PENTAGON][rng.integers(3)]
        q = pose(0.05)
        pf = np.concatenate([rng.uniform(-0.12, 0.12, size=2), rng.normal(size=2)])
        return ContactSurfaceFactor("a", "b", shape, ISO2, kind), [q, pf]
    if kind == "c_objee":
        shape_x = [BOX, DISC][rng.integers(2)]
        while True:
            qx = pose(0.05)
            qe = pose(0.25)
            px, pe = PlanarPose.from_array(qx), PlanarPose.from_array(qe)
            if not shapes_intersect(shape_x, px, PROBE, pe):
                # stay clear of the contact boundary so differentiation is valid
                if signed_distance(shape_x, px, pe.translation) > PROBE.radius + 1e-4:
                    return SurfaceGapFactor("a", "b", shape_x, PROBE, ISO2), [qx, qe]
    if kind == "s":
        shape_x = [BOX, DISC][rng.integers(2)]
        probe = Shape2D.disc(0.02)
        while True:
            qx = pose(0.02)
            qe = pose(0.08)
            px, pe = PlanarPose.from_array(qx), PlanarPose.from_array(qe)
            sd = signed_distance(shape_x, px, pe.translation)
            # interior penetration, away from both tangency and full immersion
            if probe.radius * 0.15 < probe.radius - sd < probe.radius * 0.85:
                return IntersectionFactor("a", "b", shape_x, probe, ISO2), [qx, qe]
    if kind == "s_poly_ee":
        tool = Shape2D.box(0.03, 0.02)
        while True:
            qx = pose(0.02)
            qe = pose(0.08)
            px, pe = PlanarPose.from_array(qx), PlanarPose.from_array(qe)
            if not shapes_intersect(BOX, px, tool, pe):
                continue
            fac = IntersectionFactor("a", "b", BOX, tool, ISO2)
            if np.linalg.norm(fac.residual(qx, qe)) < 2e-3:
                continue
            # the sampled deepest point must win with margin, otherwise the
            # surrogate is at an argmin tie and not differentiable
            samples = tool.boundary_samples_body()
            world = samples @ pe.rotation().T + pe.translation
            sds = np.sort([signed_distance(BOX, px, w) for w in world])
            if sds[1] - sds[0] > 5e-5:
                return fac, [qx, qe]
    if kind == "v":
        dt1, dt2 = rng.uniform(0.05, 0.5, size=2)
        return (
            ConstantVelocityFactor("a", "b", "c", dt1, dt2, ISO3),
            [pose() for _ in range(3)],
        )
    if kind == "d":
        return (
            QuasiStaticFactor("a", "b", "c", rng.uniform(0.02, 0.1), rng.uniform(0.02, 0.2), ISO2),
            [
                pose(0.3),
                pose(0.3),
                np.concatenate([rng.uniform(-0.2, 0.2, 2), rng.uniform(-4, 4, 2)]),
            ],
        )
    if kind == "linearized_prior":
        # fewer rows than columns, as when the absorbed factors leave the
        # boundary only partly constrained
        anchors = [pose(), rng.normal(size=4)]
        factor = LinearizedPriorFactor([obj_key(3), pf_key(3)], anchors,
                                       r0=rng.normal(size=5), sqrt_info=rng.normal(size=(5, 7)))
        return factor, [pose(), rng.normal(size=4)]
    raise ValueError(kind)
