"""Factor residuals, analytic-vs-numeric Jacobians, and noise whitening."""

import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushgraph.factors import (
    ContactForceMeasurementFactor,
    ContactSurfaceFactor,
    NoiseModel,
    SurfaceGapFactor,
    add_row,
    analytic_jacobian,
    evaluate_row,
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
from pushgraph.graphcore import FactorGraph, key_dim, linearize, obj_key, pf_key

from factor_samples import (
    ALL_KINDS,
    BOX,
    DISC,
    PENTAGON,
    PROBE,
    S_PROBE,
    TOOL,
    away_from_seam,
    gap_row,
    intersection_row,
    make_factor_sample,
    near_seam,
    one_row,
    prior_row,
    row_keys,
    velocity_row,
)

SQUARE = Shape2D.box(2.0, 2.0)


def rel_err(analytic, numeric):
    scale = max(1.0, np.max(np.abs(numeric)))
    return np.max(np.abs(analytic - numeric)) / scale


def m_pose_residual(state, meas):
    return evaluate_row(prior_row(obj_key(0), meas, "m_pose"), state)[0]


def c_residual(shape, pose, p):
    block = one_row(ContactSurfaceFactor, (obj_key(0), pf_key(0)), (), 2, (shape,), "c_object")
    return evaluate_row(block, pose.as_array(), np.array([p[0], p[1], 0.0, 0.0]))[0]


def s_residual(obj_shape, obj_pose, ee_shape, ee_pose):
    return evaluate_row(intersection_row(obj_shape, ee_shape), obj_pose.as_array(), ee_pose.as_array())[0]


def v_residual(a, b, c, dt1, dt2):
    return evaluate_row(velocity_row(dt1, dt2), a, b, c)[0]


def m_contactforce_row(meas):
    return prior_row(pf_key(0), meas, kernel=ContactForceMeasurementFactor)


class TestMeasurementResidual:
    def test_zero_at_equality(self):
        pose = np.array([0.4, -0.2, 1.1])
        np.testing.assert_allclose(m_pose_residual(pose, pose), np.zeros(3))
        pf = np.array([1.0, 0.0, 0.0, 2.0])
        np.testing.assert_allclose(evaluate_row(m_contactforce_row(pf), pf)[0], np.zeros(4))

    def test_theta_shortest_arc(self):
        r = m_pose_residual([0, 0, 3.1], [0, 0, -3.1])
        assert r[2] == pytest.approx(6.2 - 2 * math.pi, abs=1e-12)
        assert abs(r[2]) < 0.1

    def test_contactforce_subtraction(self):
        r = evaluate_row(m_contactforce_row([1.1, 0.0, 0.0, 1.5]), np.array([1.0, 0.0, 0.0, 2.0]))[0]
        np.testing.assert_allclose(r, [-0.1, 0.0, 0.0, 0.5], atol=1e-12)

    def test_prior_matches_measurement_convention(self):
        state = np.array([0.1, 0.0, 3.1])
        anchor = np.array([0.0, 0.0, -3.1])
        r = evaluate_row(prior_row(obj_key(0), anchor), state)[0]
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
        block, values = make_factor_sample(kind, rng)
        jacs = evaluate_row(block, *values)[1]
        assert [j.shape for j in jacs] == [(len(block.rows[0][3]), len(v)) for v in values]
        num = numeric_jacobian(block, values)
        ana = analytic_jacobian(block, values)
        worst = max(worst, rel_err(ana, num))
    assert worst < 1e-5, f"{kind}: worst relative error {worst:.2e}"


@pytest.mark.parametrize("kind", ALL_KINDS)
@settings(derandomize=True, max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_analytic_jacobian_matches_numeric_at_theta_seam(kind, seed):
    # every pose angle within 1e-3 of +-pi, so bumps and differences cross the seam
    block, values = make_factor_sample(kind, np.random.default_rng(seed), theta=near_seam)
    err = rel_err(analytic_jacobian(block, values), numeric_jacobian(block, values))
    assert err < 1e-5, f"{kind}: relative error {err:.2e}"


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_fused_residual_matches_residual(kind):
    # linearize assembles the whitened residual (whose squared norm is the
    # cost Gauss-Newton scores steps by) and the Jacobian from the one entry
    # point, through its cache for constant Jacobians
    rng = np.random.default_rng(abs(zlib.crc32(kind.encode())))
    for theta in (away_from_seam, near_seam):
        for _ in range(5):
            block, values = make_factor_sample(kind, rng, theta)
            (row,) = block.rows
            inv_sigmas = row[3]
            r, jacs = evaluate_row(block, *values)
            graph = FactorGraph([block])
            system = linearize(graph, graph.state_vector(dict(zip(row_keys(row), values))))
            w = r * inv_sigmas
            np.testing.assert_array_equal(system.residual, w)
            assert system.cost == w @ w
            np.testing.assert_array_equal(system.jacobian, np.hstack([j * inv_sigmas[:, None] for j in jacs]))


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
                out.append((gap_row(shape_x, ee), [qx, qe]))
            if kind == "s":
                qe = qx + [0.5, 0.3, 0.2]
                out.append((intersection_row(shape_x, S_PROBE), [qx, qe]))
    if kind == "s_poly_ee":
        for _ in range(3):
            qx = pose()
            out.append((intersection_row(BOX, TOOL), [qx, qx + [-0.4, 0.2, 1.0]]))
    if kind in ("c_object", "c_ee"):
        for _ in range(3):
            q = pose()
            pf = np.concatenate([q[:2], rng.normal(size=2)])
            out.append((one_row(ContactSurfaceFactor, (obj_key(0), pf_key(0)), (), 2, (DISC,), kind), [q, pf]))
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
    # each sample's row, moved 4 timesteps past the previous one's, joins
    # the block of its kernel, kind and shapes
    blocks, values, expected = {}, {}, []
    for i, (block, vals) in enumerate(samples):
        ((t, at, consts, inv_sigmas),) = block.rows
        r, jacs = evaluate_row(block, *vals)
        add_row(blocks, block.kernel, t + 4 * i, at, consts, inv_sigmas, block.shared, block.kind)
        keys = row_keys((t + 4 * i, at))
        values.update(zip(keys, vals))
        expected.append((keys, r * inv_sigmas, [j * inv_sigmas[:, None] for j in jacs]))
    graph = FactorGraph(blocks.values())
    system = linearize(graph, graph.state_vector(values))
    n = graph.layout.shape[1]
    owner = np.empty(n, dtype=int)
    want_r, want_J = [], []
    for i, (keys, w, wjacs) in enumerate(expected):
        J = np.zeros((len(w), n))
        for key, wj in zip(keys, wjacs):
            off, dim = graph.layout.variables[key], key_dim(key)
            owner[off : off + dim] = i
            J[:, off : off + dim] = wj
        want_r.append(w)
        want_J.append(J)
    got = _rows_by_owner(system.residual, system.jacobian, owner)
    want = _rows_by_owner(np.concatenate(want_r), np.vstack(want_J), owner)
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=1e-12)
    # the blocks are shared: fewer kernel calls than rows
    assert len(graph.layout.blocks) < len(samples) // 2
    if kind in ("c_objee", "c_objee_poly_ee", "s", "s_poly_ee"):
        assert None in want and len(want) > 1  # zero and nonzero rows in one block
    if kind in ("c_object", "c_ee"):
        shapes = {block.shared[0] for block, _ in samples}
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
            block, (qx, qe) = make_factor_sample(kind, rng, theta)
            obj_shape, ee_shape = block.shared
            a, b = closest_pair(obj_shape, PlanarPose.from_array(qx), ee_shape, PlanarPose.from_array(qe))
            np.testing.assert_allclose(evaluate_row(block, qx, qe)[0], a - b, rtol=0, atol=1e-12)


def test_polygon_pusher_jacobian_at_near_parallel_edges():
    # the flat-pusher-on-flat-face case: the TOOL edge 5e-4 rad off the box edge
    block = gap_row(BOX, TOOL)
    values = [np.array([0.04505, -0.03558, -3.1407]), np.array([-0.05645, -0.023, -3.14094])]
    err = rel_err(analytic_jacobian(block, values), numeric_jacobian(block, values))
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
    block = gap_row(shape, PROBE)
    for qx, qe, gap in zip(x, e, gaps):
        # central differences that stay on the separated side
        num = numeric_jacobian(block, [qx, qe], step=min(gap / 10.0, 1e-6))
        err = rel_err(analytic_jacobian(block, [qx, qe]), num)
        assert err < 1e-5, f"gap {gap:.2e}: relative error {err:.2e}"


def test_measurement_jacobian_is_identity():
    block = prior_row(obj_key(0), [0.1, 0.2, 0.3], "m_pose")
    np.testing.assert_allclose(analytic_jacobian(block, [np.array([1.0, 2.0, 0.5])]), np.eye(3))


def test_const_velocity_jacobian_pattern():
    vals = [np.zeros(3), np.ones(3) * 0.1, np.ones(3) * 0.3]
    jac = analytic_jacobian(velocity_row(1.0, 1.0), vals)
    expected = np.hstack([-np.eye(3), 2 * np.eye(3), -np.eye(3)])
    np.testing.assert_allclose(jac, expected, atol=1e-12)


def test_partial_contactforce_measurement():
    # contact point measured, force not: zero anchor and weak sigma on the force
    block = m_contactforce_row([0.5, 0.6, 0.0, 0.0])
    r = evaluate_row(block, np.array([1.0, 1.0, 9.0, 9.0]))[0]
    np.testing.assert_allclose(r, [0.5, 0.4, 9.0, 9.0])
    np.testing.assert_allclose(analytic_jacobian(block, [np.zeros(4)]), np.eye(4))
    # linearize whitens the row by its own sigmas
    blocks = {}
    ((t, at, consts, _),) = block.rows
    add_row(blocks, ContactForceMeasurementFactor, t, at, consts, NoiseModel([1.0, 1.0, 1e3, 1e3]).inv_sigmas)
    graph = FactorGraph(blocks.values())
    system = linearize(graph, np.array([1.0, 1.0, 9.0, 9.0]))
    np.testing.assert_allclose(system.residual, [0.5, 0.4, 9e-3, 9e-3])
