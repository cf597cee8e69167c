"""Random smooth-configuration generator for factor Jacobian checks."""

import math

import numpy as np

from pushgraph.factors import (
    ConstantVelocityFactor,
    ContactForceMeasurementFactor,
    ContactSurfaceFactor,
    IntersectionFactor,
    PriorFactor,
    QuasiStaticFactor,
    SurfaceGapFactor,
    add_row,
    evaluate_row,
)
from pushgraph.geometry import (
    PlanarPose,
    Shape2D,
    closest_pair,
    closest_surface_point,
    shapes_intersect,
    signed_distance,
    wrap_angle,
)
from pushgraph.graphcore import (
    _ANGLES,
    _AT,
    _ROLE_AT,
    _STEP,
    LinearizedPriorFactor,
    VariableKey,
    ee_key,
    key_dim,
    obj_key,
    pf_key,
)

BOX = Shape2D.box(0.1, 0.1)
PROBE = Shape2D.disc(0.01)
DISC = Shape2D.disc(0.05)
PENTAGON = Shape2D.polygon(
    [[0.06, 0.0], [0.02, 0.055], [-0.05, 0.03], [-0.05, -0.03], [0.02, -0.055]]
)
# one object per shape, so samples of a kind can share a block in linearize
S_PROBE = Shape2D.disc(0.02)
TOOL = Shape2D.box(0.03, 0.02)

ALL_KINDS = ["prior", "m_pose", "m_contactforce", "c_object", "c_ee", "c_objee",
             "c_objee_poly_ee", "s", "s_poly_ee", "v", "d", "linearized_prior"]


def row_at(keys):
    """A row's step and grid offsets (factors.Block) for variables given by key.

    The step is the newest one, and each offset the key's first grid column relative to that step's.
    """
    t = max(k.t for k in keys)
    return t, tuple(_STEP * (k.t - t) + _AT[k.role] for k in keys)


def row_keys(row):
    """The keys of the variables a row touches, in its kernel's order."""
    t, at = row[:2]
    return tuple(VariableKey(_ROLE_AT[a % _STEP], t + a // _STEP) for a in at)


def add_keyed_row(blocks, kernel, keys, consts, inv_sigmas, shared=(), kind=None):
    """add_row with the row's variables given by key."""
    add_row(blocks, kernel, *row_at(keys), consts, inv_sigmas, shared, kind)


def one_row(kernel, keys, consts, d, shared=(), kind=None):
    """A block holding one row of the kernel, with unit sigmas."""
    blocks = {}
    add_keyed_row(blocks, kernel, keys, consts, np.ones(d), shared, kind)
    (block,) = blocks.values()
    return block


def add_prior(blocks, key, anchor, sigmas):
    """Append a prior row on key, its angle wrapped, as build_graph does."""
    add_keyed_row(blocks, PriorFactor, (key,), (np.asarray(anchor, dtype=float), _ANGLES[key.role]),
                  1.0 / np.asarray(sigmas, dtype=float))


def add_boundary_prior(blocks, keys, anchors, r0, sqrt_info):
    """Append a linearized prior row on keys, as marginalization does."""
    add_keyed_row(blocks, LinearizedPriorFactor, tuple(keys),
                  (np.concatenate(anchors), np.concatenate([_ANGLES[k.role] for k in keys]),
                   np.asarray(r0, dtype=float), np.asarray(sqrt_info, dtype=float)),
                  np.ones(len(r0)), (tuple(map(key_dim, keys)),))


def prior_row(key, anchor, kind=None, kernel=PriorFactor):
    """A one-row block of a unary prior on key with unit sigmas."""
    return one_row(kernel, (key,), (np.asarray(anchor, dtype=float), _ANGLES[key.role]), key_dim(key), kind=kind)


def away_from_seam(rng):
    """An angle well inside (-pi, pi]."""
    return rng.uniform(-1.2, 1.2)


def near_seam(rng, width=1e-3):
    """An angle within width of +-pi, on either side of the wrap seam."""
    return wrap_angle(math.pi + rng.uniform(-width, width))


def random_smooth_pose(rng, scale=0.5, theta=away_from_seam):
    return np.array([rng.uniform(-scale, scale), rng.uniform(-scale, scale), theta(rng)])


def clear_of_feature_edges(shape, pose, q, margin=0.02):
    """Whether q's closest boundary point stays on one edge or vertex nearby.

    True for a disc; for a polygon, every edge that attains q's distance
    must see q more than margin (in edge lengths) away from either end of
    its Voronoi slab, so the feature does not switch under small moves.
    """
    if shape.kind == "disc":
        return True
    _, (t,), (d2,) = shape._project_edges(pose.inverse_transform_point(q)[None])
    closest = d2 <= d2.min() + 1e-18
    return bool(np.all((np.abs(t[closest]) > margin) & (np.abs(t[closest] - 1.0) > margin)))


def gap_row(obj_shape, ee_shape):
    return one_row(SurfaceGapFactor, (obj_key(0), ee_key(0)), (), 2, (obj_shape, ee_shape))


def intersection_row(obj_shape, ee_shape):
    return one_row(IntersectionFactor, (obj_key(0), ee_key(0)), (), 2, (obj_shape, ee_shape))


def velocity_row(dt1, dt2):
    return one_row(ConstantVelocityFactor, (obj_key(0), obj_key(1), obj_key(2)), (dt1, dt2), 3)


def make_factor_sample(kind, rng, theta=away_from_seam):
    """One (block, values) pair at a smooth configuration of the given kind.

    The block holds one row, with unit sigmas, on keys in timestep-major
    order; theta draws every pose angle of the sample.
    """
    def pose(scale=0.5):
        return random_smooth_pose(rng, scale, theta)

    if kind == "prior":
        return prior_row(obj_key(0), pose()), [pose()]
    if kind == "m_pose":
        return prior_row(ee_key(0), pose(), "m_pose"), [pose()]
    if kind == "m_contactforce":
        return prior_row(pf_key(0), rng.normal(size=4), kernel=ContactForceMeasurementFactor), [rng.normal(size=4)]
    if kind in ("c_object", "c_ee"):
        shape = [BOX, DISC, PENTAGON][rng.integers(3)]
        q = pose(0.05)
        pf = np.concatenate([rng.uniform(-0.12, 0.12, size=2), rng.normal(size=2)])
        owner = obj_key(0) if kind == "c_object" else ee_key(0)
        return one_row(ContactSurfaceFactor, (owner, pf_key(0)), (), 2, (shape,), kind), [q, pf]
    if kind == "c_objee":
        shape_x = [BOX, DISC][rng.integers(2)]
        while True:
            qx = pose(0.05)
            qe = pose(0.25)
            px, pe = PlanarPose.from_array(qx), PlanarPose.from_array(qe)
            if not shapes_intersect(shape_x, px, PROBE, pe):
                # stay clear of the contact boundary so differentiation is valid
                if signed_distance(shape_x, px, pe.translation) > PROBE.radius + 1e-4:
                    return gap_row(shape_x, PROBE), [qx, qe]
    if kind == "c_objee_poly_ee":
        # a polygon pusher, whose pair closest_pairs picks among vertex chains
        shape_x = [BOX, DISC][rng.integers(2)]
        while True:
            qx = pose(0.05)
            qe = pose(0.15)
            px, pe = PlanarPose.from_array(qx), PlanarPose.from_array(qe)
            if shapes_intersect(shape_x, px, TOOL, pe):
                continue
            a, b = closest_pair(shape_x, px, TOOL, pe)
            # closest_pairs differentiates its pair's chain of closest-point
            # queries: keep mutual pairs (a = G_x(b), b = G_e(a) to 1e-12),
            # clear of contact and of the feature switches where the pair jumps
            converged = (np.linalg.norm(closest_surface_point(shape_x, px, b) - a) < 1e-12
                         and np.linalg.norm(closest_surface_point(TOOL, pe, a) - b) < 1e-12)
            if (converged and np.linalg.norm(a - b) > 1e-4 and clear_of_feature_edges(shape_x, px, b)
                    and clear_of_feature_edges(TOOL, pe, a)):
                return gap_row(shape_x, TOOL), [qx, qe]
    if kind == "s":
        shape_x = [BOX, DISC][rng.integers(2)]
        probe = S_PROBE
        while True:
            qx = pose(0.02)
            qe = pose(0.08)
            px, pe = PlanarPose.from_array(qx), PlanarPose.from_array(qe)
            sd = signed_distance(shape_x, px, pe.translation)
            # interior penetration, away from both tangency and full immersion
            if probe.radius * 0.15 < probe.radius - sd < probe.radius * 0.85:
                return intersection_row(shape_x, probe), [qx, qe]
    if kind == "s_poly_ee":
        tool = TOOL
        while True:
            qx = pose(0.02)
            qe = pose(0.08)
            px, pe = PlanarPose.from_array(qx), PlanarPose.from_array(qe)
            if not shapes_intersect(BOX, px, tool, pe):
                continue
            block = intersection_row(BOX, tool)
            if np.linalg.norm(evaluate_row(block, qx, qe)[0]) < 2e-3:
                continue
            # the sampled deepest point must win with margin, otherwise the
            # surrogate is at an argmin tie and not differentiable
            samples = tool.boundary_samples_body()
            world = samples @ pe.rotation().T + pe.translation
            sds = np.sort([signed_distance(BOX, px, w) for w in world])
            if sds[1] - sds[0] > 5e-5:
                return block, [qx, qe]
    if kind == "v":
        dt1, dt2 = rng.uniform(0.05, 0.5, size=2)
        return velocity_row(dt1, dt2), [pose() for _ in range(3)]
    if kind == "d":
        return (
            one_row(QuasiStaticFactor, (obj_key(0), obj_key(1), pf_key(1)),
                    (rng.uniform(0.02, 0.1), rng.uniform(0.02, 0.2)), 2),
            [
                pose(0.3),
                pose(0.3),
                np.concatenate([rng.uniform(-0.2, 0.2, 2), rng.uniform(-4, 4, 2)]),
            ],
        )
    if kind == "linearized_prior":
        # fewer rows than columns, as when the absorbed factors leave the
        # boundary only partly constrained
        blocks = {}
        add_boundary_prior(blocks, [obj_key(3), pf_key(3)], [pose(), rng.normal(size=4)],
                           r0=rng.normal(size=5), sqrt_info=rng.normal(size=(5, 7)))
        (block,) = blocks.values()
        return block, [pose(), rng.normal(size=4)]
    raise ValueError(kind)
