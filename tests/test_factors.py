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
from pushgraph.geometry import (
    PlanarPose,
    Shape2D,
    closest_pair,
    closest_surface_point,
    shapes_intersect,
    signed_distance,
)
from pushgraph.graphcore import FactorGraph, linearize, obj_key, pf_key

from factor_samples import (
    ALL_KINDS,
    BOX,
    DISC,
    PENTAGON,
    PROBE,
    ISO2,
    ISO3,
    ISO4,
    S_PROBE,
    TOOL,
    away_from_seam,
    make_factor_sample,
    near_seam,
)

SQUARE = Shape2D.box(2.0, 2.0)


def rel_err(analytic, numeric):
    scale = max(1.0, np.max(np.abs(numeric)))
    return np.max(np.abs(analytic - numeric)) / scale


def m_pose_residual(state, meas):
    factor = PoseMeasurementFactor("k", meas, ISO3)
    return factor.residual_and_jacobians(np.asarray(state, dtype=float))[0]


def c_residual(shape, pose, p):
    factor = ContactSurfaceFactor("x", "pf", shape, ISO2, "c_object")
    return factor.residual_and_jacobians(pose.as_array(), np.array([p[0], p[1], 0.0, 0.0]))[0]


def s_residual(obj_shape, obj_pose, ee_shape, ee_pose):
    factor = IntersectionFactor("x", "e", obj_shape, ee_shape, ISO2)
    return factor.residual_and_jacobians(obj_pose.as_array(), ee_pose.as_array())[0]


def v_residual(a, b, c, dt1, dt2):
    return ConstantVelocityFactor("a", "b", "c", dt1, dt2, ISO3).residual_and_jacobians(
        np.asarray(a, dtype=float), np.asarray(b, dtype=float), np.asarray(c, dtype=float))[0]


class TestMeasurementResidual:
    def test_zero_at_equality(self):
        pose = np.array([0.4, -0.2, 1.1])
        np.testing.assert_allclose(m_pose_residual(pose, pose), np.zeros(3))
        pf = np.array([1.0, 0.0, 0.0, 2.0])
        factor = ContactForceMeasurementFactor("k", pf, ISO4)
        np.testing.assert_allclose(factor.residual_and_jacobians(pf)[0], np.zeros(4))

    def test_theta_shortest_arc(self):
        r = m_pose_residual([0, 0, 3.1], [0, 0, -3.1])
        assert r[2] == pytest.approx(6.2 - 2 * math.pi, abs=1e-12)
        assert abs(r[2]) < 0.1

    def test_contactforce_subtraction(self):
        factor = ContactForceMeasurementFactor("k", np.array([1.1, 0.0, 0.0, 1.5]), ISO4)
        r = factor.residual_and_jacobians(np.array([1.0, 0.0, 0.0, 2.0]))[0]
        np.testing.assert_allclose(r, [-0.1, 0.0, 0.0, 0.5], atol=1e-12)

    def test_prior_matches_measurement_convention(self):
        state = np.array([0.1, 0.0, 3.1])
        anchor = np.array([0.0, 0.0, -3.1])
        prior = PriorFactor("k", anchor, ISO3, wrap_index=2)
        r = prior.residual_and_jacobians(state)[0]
        np.testing.assert_allclose(r, m_pose_residual(state, anchor))
        np.testing.assert_allclose(r[:2], [0.1, 0.0])


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
        w = nm.whiten(r)
        assert w @ w == pytest.approx(r @ np.linalg.solve(cov, r), rel=1e-10)
        np.testing.assert_allclose(nm.whiten_jacobian(np.outer(r, [1.0, -2.0])),
                                   np.outer(nm.whiten(r), [1.0, -2.0]))

    def test_covariance_scaling_inverts_cost(self):
        # cost term r^T Sigma^-1 r: doubling every sigma scales the term by 1/4
        sigmas = np.sqrt([0.1, 0.2])
        r = np.array([0.3, -0.4])
        w1 = NoiseModel(sigmas).whiten(r)
        w4 = NoiseModel(2.0 * sigmas).whiten(r)
        c1, c4 = w1 @ w1, w4 @ w4
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
        jacs = factor.residual_and_jacobians(*values)[1]
        assert [j.shape for j in jacs] == [(factor.dim, len(v)) for v in values]
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
    # linearize assembles the whitened residual (whose squared norm is the
    # cost Gauss-Newton scores steps by) and the Jacobian from the one entry
    # point, through its cache for constant Jacobians
    rng = np.random.default_rng(abs(zlib.crc32(kind.encode())))
    for theta in (away_from_seam, near_seam):
        for _ in range(5):
            factor, values = make_factor_sample(kind, rng, theta)
            r, jacs = factor.residual_and_jacobians(*values)
            # graph keys in sample order; the roles keep the pose/pf split
            factor.keys = tuple(obj_key(t) if len(v) == 3 else pf_key(t) for t, v in enumerate(values))
            graph = FactorGraph([factor])
            system = linearize(graph, graph.state_vector(dict(zip(factor.keys, values))))
            w = factor.noise.whiten(r)
            np.testing.assert_array_equal(system.residual, w)
            assert system.cost == w @ w
            np.testing.assert_array_equal(
                system.jacobian, np.hstack([factor.noise.whiten_jacobian(j) for j in jacs]))


def _block_edge_samples(kind, rng):
    """Samples the generator avoids, to sit in the same blocks as its own.

    Overlapping pairs for the gap factor, separated ones for the
    intersection factors, and contact queries at a disc's center.
    """
    pose = lambda: np.array([rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05), near_seam(rng)])
    out = []
    for shape_x in (BOX, DISC):
        for _ in range(3):
            qx = pose()
            if kind in ("c_objee", "c_objee_poly_ee"):
                qe = qx + [0.01, -0.01, 0.5]
                ee = PROBE if kind == "c_objee" else TOOL
                out.append((SurfaceGapFactor("a", "b", shape_x, ee, ISO2), [qx, qe]))
            if kind == "s":
                qe = qx + [0.5, 0.3, 0.2]
                out.append((IntersectionFactor("a", "b", shape_x, S_PROBE, ISO2), [qx, qe]))
    if kind == "s_poly_ee":
        for _ in range(3):
            qx = pose()
            out.append((IntersectionFactor("a", "b", BOX, TOOL, ISO2), [qx, qx + [-0.4, 0.2, 1.0]]))
    if kind in ("c_object", "c_ee"):
        for _ in range(3):
            q = pose()
            pf = np.concatenate([q[:2], rng.normal(size=2)])
            out.append((ContactSurfaceFactor("a", "b", DISC, ISO2, kind), [q, pf]))
    return out


def _rows_by_owner(residual, jac, owner):
    """A system's rows grouped by the sample owning their nonzero columns (None: all zero)."""
    rows = {}
    for r, row in zip(residual, jac):
        nz = np.flatnonzero(row)
        key = owner[nz[0]] if len(nz) else None
        assert np.all(owner[nz] == key), "a row couples two samples"
        rows.setdefault(key, []).append(np.concatenate([[r], row]))
    return {key: np.array(v) for key, v in rows.items()}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_block_rows_match_one_row_calls(kind):
    # many samples of a kind linearized together: every row must equal the
    # sample's own one-row evaluation, so a broadcasting or masking slip
    # across the rows of a block shows
    rng = np.random.default_rng(abs(zlib.crc32(kind.encode())) + 1)
    samples = [make_factor_sample(kind, rng, theta) for theta in (away_from_seam, near_seam)
               for _ in range(12)]
    # spread the edge samples among the others, so that zero and nonzero
    # rows alternate within a block
    for k, sample in enumerate(_block_edge_samples(kind, rng)):
        samples.insert(4 * k + 1, sample)
    values, expected = {}, []
    t = 0
    for factor, vals in samples:
        r, jacs = factor.residual_and_jacobians(*vals)
        factor.keys = tuple(obj_key(t + j) if len(v) == 3 else pf_key(t + j) for j, v in enumerate(vals))
        t += len(vals)
        values.update(zip(factor.keys, vals))
        expected.append((factor, factor.noise.whiten(r), [factor.noise.whiten_jacobian(j) for j in jacs]))
    graph = FactorGraph(factor for factor, _ in samples)
    system = linearize(graph, graph.state_vector(values))
    n = graph.total_dim
    owner = np.empty(n, dtype=int)
    want_r, want_J = [], []
    for i, (factor, w, wjacs) in enumerate(expected):
        J = np.zeros((len(w), n))
        for key, wj in zip(factor.keys, wjacs):
            off, dim = system.index[key]
            owner[off : off + dim] = i
            J[:, off : off + dim] = wj
        want_r.append(w)
        want_J.append(J)
    got = _rows_by_owner(system.residual, system.jacobian, owner)
    want = _rows_by_owner(np.concatenate(want_r), np.vstack(want_J), owner)
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=1e-12)
    # the blocks are shared: fewer kernel calls than factors
    assert len(graph.layout.blocks) < len(samples) // 2
    if kind in ("c_objee", "c_objee_poly_ee", "s", "s_poly_ee"):
        assert None in want and len(want) > 1  # zero and nonzero rows in one block
    if kind in ("c_object", "c_ee"):
        shapes = {f.shape for f, _ in samples}
        assert {BOX, DISC, PENTAGON} <= shapes


def _disc_pusher_rows(shape, rng, gaps):
    """Object and disc-pusher poses (N, 3) whose gaps are the given ones.

    Half of the angles are within 1e-3 of +-pi. Each pusher centre sits
    on the outward ray from the object's boundary point closest to a far
    point, so that boundary point is the closest one to the centre too.
    """
    x, e = [], []
    for k, gap in enumerate(gaps):
        theta = near_seam if k % 2 else away_from_seam
        qx = np.array([rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05), theta(rng)])
        phi = rng.uniform(-np.pi, np.pi)
        far = qx[:2] + 0.3 * np.array([np.cos(phi), np.sin(phi)])
        a = closest_surface_point(shape, PlanarPose.from_array(qx), far)
        n = (far - a) / np.linalg.norm(far - a)
        x.append(qx)
        e.append(np.r_[a + (PROBE.radius + gap) * n, theta(rng)])
    return np.array(x), np.array(e)


@pytest.mark.parametrize("kind", ["c_objee", "c_objee_poly_ee"])
def test_gap_residual_joins_the_closest_pair(kind):
    rng = np.random.default_rng(13)
    for theta in (away_from_seam, near_seam):
        for _ in range(10):
            factor, (qx, qe) = make_factor_sample(kind, rng, theta)
            a, b = closest_pair(factor.obj_shape, PlanarPose.from_array(qx), factor.ee_shape,
                                PlanarPose.from_array(qe))
            np.testing.assert_allclose(factor.residual_and_jacobians(qx, qe)[0], a - b, rtol=0, atol=1e-12)


def test_polygon_pusher_jacobian_at_near_parallel_edges():
    # the flat-pusher-on-flat-face case: the TOOL edge 5e-4 rad off the box edge
    factor = SurfaceGapFactor("a", "b", BOX, TOOL, ISO2)
    values = [np.array([0.04505, -0.03558, -3.1407]), np.array([-0.05645, -0.023, -3.14094])]
    err = rel_err(analytic_jacobian(factor, values), numeric_jacobian(factor, values))
    assert err < 1e-5, f"relative error {err:.2e}"


@pytest.mark.parametrize("shape", [BOX, DISC, PENTAGON], ids=["box", "disc", "pentagon"])
def test_disc_pusher_jacobian_near_contact(shape):
    # gaps of 1e-6 to 1e-4 m, closer than the samples of make_factor_sample,
    # and of 1e-6 m to 5 cm
    draws = []
    for seed, size, top in ((12, 20, -4.0), (11, 40, np.log10(0.05))):
        rng = np.random.default_rng(seed)
        gaps = 10.0 ** rng.uniform(-6, top, size=size)
        draws.append((*_disc_pusher_rows(shape, rng, gaps), gaps))
    x, e, gaps = (np.concatenate(column) for column in zip(*draws))
    r, (_, je) = SurfaceGapFactor.evaluate((shape, PROBE), x, e)
    np.testing.assert_allclose(np.linalg.norm(r, axis=1), gaps, rtol=1e-6)
    assert np.all(je[:, :, 2] == 0.0)  # a disc's angle does not move the gap
    factor = SurfaceGapFactor("a", "b", shape, PROBE, ISO2)
    for qx, qe, gap in zip(x, e, gaps):
        # central differences that stay on the separated side
        num = numeric_jacobian(factor, [qx, qe], step=min(gap / 10.0, 1e-6))
        err = rel_err(analytic_jacobian(factor, [qx, qe]), num)
        assert err < 1e-5, f"gap {gap:.2e}: relative error {err:.2e}"


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
    r = fac.residual_and_jacobians(np.array([1.0, 1.0, 9.0, 9.0]))[0]
    np.testing.assert_allclose(r, [0.5, 0.4, 9.0, 9.0])
    np.testing.assert_allclose(fac.noise.whiten(r), [0.5, 0.4, 9e-3, 9e-3])
    np.testing.assert_allclose(analytic_jacobian(fac, [np.zeros(4)]), np.eye(4))
