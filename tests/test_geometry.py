"""Geometry: pose algebra, projections, closest-point and penetration queries."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

import pushgraph
from pushgraph.errors import DegenerateProjection
from pushgraph.geometry import (
    PlanarPose,
    Plane3,
    Pose3,
    Shape2D,
    closest_pair,
    closest_pairs,
    closest_point_with_jacobians,
    closest_points_with_jacobians,
    closest_surface_point,
    cross2,
    deepest_penetration,
    embed_in_plane,
    project_to_plane,
    shapes_intersect,
    shapes_intersect_many,
    signed_distance,
    signed_distances,
    wrap_angle,
    wrap_angles,
)

RNG = np.random.default_rng(17)


def random_pose(rng, scale=1.0):
    return PlanarPose(rng.uniform(-scale, scale), rng.uniform(-scale, scale), rng.uniform(-4.0, 4.0))


def boundary_cloud(shape, pose, n):
    """Dense world-frame boundary sampling, used as closest-point oracle."""
    if shape.kind == "disc":
        ang = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        body = shape.radius * np.column_stack([np.cos(ang), np.sin(ang)])
    else:
        v = shape.vertices
        per_edge = max(2, n // len(v))
        body = []
        for i in range(len(v)):
            a, b = v[i], v[(i + 1) % len(v)]
            for k in range(per_edge):
                body.append(a + (b - a) * k / per_edge)
        body = np.array(body)
    return body @ pose.rotation().T + pose.translation


class TestWrap:
    def test_range(self):
        for th in [-math.pi, math.pi, 3 * math.pi, -3 * math.pi, 0.0, 6.2, -6.2, 100.0]:
            w = wrap_angle(th)
            assert -math.pi < w <= math.pi
            assert abs(math.sin(w) - math.sin(th)) < 1e-12
            assert abs(math.cos(w) - math.cos(th)) < 1e-12

    def test_pi_maps_to_pi(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)

    def test_array_version_is_bit_identical(self):
        th = np.concatenate([RNG.uniform(-20.0, 20.0, 500),
                             [math.pi, -math.pi, 3 * math.pi, 0.0, -0.0, np.nextafter(math.pi, 4.0)]])
        np.testing.assert_array_equal(wrap_angles(th), [wrap_angle(x) for x in th])


class TestSE2:
    def test_point_roundtrip(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = random_pose(rng)
            q = rng.normal(size=2)
            np.testing.assert_allclose(a.inverse_transform_point(a.transform_point(q)), q, atol=1e-12)


def scipy_quaternion(rot):
    """scipy's quaternion of a rotation matrix, in Pose3's (w, x, y, z) order."""
    x, y, z, w = Rotation.from_matrix(rot).as_quat()
    return np.array([w, x, y, z])


def same_rotation(q1, q2, atol):
    """Whether two unit quaternions agree up to their sign."""
    return min(np.abs(q1 - q2).max(), np.abs(q1 + q2).max()) <= atol


def about_axes_near_pi():
    """Rotations by and near pi about each axis and about the diagonal of each pair of axes."""
    axes = [*np.eye(3), *(np.array(d) / math.sqrt(2.0) for d in ([1, 1, 0], [0, 1, 1], [1, 0, 1]))]
    for axis in axes:
        for angle in (math.pi, math.pi - 1e-9, math.pi - 1e-4, -math.pi + 1e-3, 0.5 * math.pi):
            yield Rotation.from_rotvec(angle * axis).as_matrix()


class TestPose3:
    def test_rotation_matrix_matches_scipy(self):
        rng = np.random.default_rng(23)
        for q in rng.normal(size=(200, 4)):
            w, x, y, z = q / np.linalg.norm(q)
            want = Rotation.from_quat([x, y, z, w]).as_matrix()
            np.testing.assert_allclose(Pose3(np.zeros(3), q).rotation_matrix(), want, rtol=0, atol=1e-15)

    def test_from_matrix_matches_scipy_on_every_branch(self):
        rng = np.random.default_rng(24)
        random = (Rotation.from_quat(q).as_matrix() for q in rng.normal(size=(200, 4)))
        branches = set()
        for rot in [*random, *about_axes_near_pi()]:
            q = Pose3.from_matrix(np.zeros(3), rot).quaternion
            want = scipy_quaternion(rot)
            assert same_rotation(q, want, 1e-15), (rot, q, want)
            # Shepperd's branch: the largest of 4w^2, 4x^2, 4y^2, 4z^2
            branches.add(int(np.argmax(want**2)))
        assert branches == {0, 1, 2, 3}

    def test_round_trips(self):
        rng = np.random.default_rng(25)
        for q in [*rng.normal(size=(200, 4)), *(scipy_quaternion(rot) for rot in about_axes_near_pi())]:
            pose = Pose3(np.ones(3), q)
            rot = pose.rotation_matrix()
            back = Pose3.from_matrix(pose.translation, rot)
            assert same_rotation(back.quaternion, pose.quaternion, 1e-15)
            np.testing.assert_allclose(back.rotation_matrix(), rot, rtol=0, atol=1e-15)
            np.testing.assert_array_equal(back.translation, pose.translation)

    def test_a_unit_quaternion_is_kept_bit_for_bit(self):
        # so that a pose written to a file and read back is the same pose
        rng = np.random.default_rng(26)
        for q in rng.normal(size=(200, 4)):
            pose = Pose3(np.zeros(3), q)
            np.testing.assert_array_equal(Pose3(np.zeros(3), pose.quaternion.tolist()).quaternion, pose.quaternion)
        np.testing.assert_array_equal(Pose3(np.zeros(3), [2.0, 0.0, 0.0, 0.0]).quaternion, [1.0, 0.0, 0.0, 0.0])

    def test_importing_the_cli_loads_no_scipy_spatial_or_sparse(self):
        code = ("import sys, pushgraph.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[:2] in (['scipy', 'spatial'], "
                "['scipy', 'sparse'])))")
        src = str(Path(pushgraph.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        assert out.stdout.strip() == "[]"


class TestProjection:
    def test_axis_aligned(self):
        p = Pose3(
            np.array([1.0, 2.0, 5.0]),
            np.array([math.cos(0.2), 0.0, 0.0, math.sin(0.2)]),  # yaw 0.4 about z
        )
        pp = project_to_plane(p, Plane3.xy())
        np.testing.assert_allclose(pp.as_array(), [1.0, 2.0, 0.4], atol=1e-12)

    def test_plane_origin_identity(self):
        pp = project_to_plane(Pose3(np.zeros(3), [1.0, 0.0, 0.0, 0.0]), Plane3.xy())
        np.testing.assert_allclose(pp.as_array(), [0.0, 0.0, 0.0], atol=1e-15)

    def test_tilted_body_matches_numeric_projection(self):
        # oracle: project the rotated x-axis onto the plane directly
        rng = np.random.default_rng(5)
        plane = Plane3.xy()
        for _ in range(50):
            q = rng.normal(size=4)
            p = Pose3(rng.normal(size=3), q)
            axis = p.rotation_matrix()[:, 0]
            in_plane = axis - (axis @ plane.normal) * plane.normal
            if np.linalg.norm(in_plane) < 1e-3:
                continue
            expected = math.atan2(in_plane @ plane.y_axis, in_plane @ plane.x_axis)
            assert project_to_plane(p, plane).theta == pytest.approx(expected, abs=1e-12)

    def test_degenerate_axis_raises(self):
        # rotate body x-axis onto +z: -90 deg about y
        q = np.array([math.cos(-math.pi / 4), 0.0, math.sin(-math.pi / 4), 0.0])
        p = Pose3(np.zeros(3), q)
        with pytest.raises(DegenerateProjection):
            project_to_plane(p, Plane3.xy())

    def test_embed_then_project_is_identity(self):
        rng = np.random.default_rng(6)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        x = np.cross(n, rng.normal(size=3))
        x /= np.linalg.norm(x)
        plane = Plane3(rng.normal(size=3), n, x)
        for _ in range(30):
            pp = random_pose(rng, scale=2.0)
            back = project_to_plane(embed_in_plane(pp, plane), plane)
            np.testing.assert_allclose(back.as_array(), pp.as_array(), atol=1e-12)


class TestShapes:
    def test_polygon_recentered(self):
        sq = Shape2D.polygon([[0, 0], [2, 0], [2, 2], [0, 2]])
        np.testing.assert_allclose(sq.vertices.mean(axis=0), [0, 0], atol=1e-12)
        assert sq.area() == pytest.approx(4.0)

    def test_polygon_validation(self):
        with pytest.raises(ValueError):
            Shape2D.polygon([[0, 0], [0, 2], [2, 2], [2, 0]])  # clockwise
        with pytest.raises(ValueError):
            Shape2D.polygon([[0, 0], [1, 0], [2, 0], [1, 1]])  # collinear
        with pytest.raises(ValueError):
            Shape2D.disc(0.0)
        with pytest.raises(ValueError, match="polygon vertices must be finite"):
            Shape2D.polygon([[0, 0], [1, 0], [np.inf, 1], [0, 1]])
        for make, name in ((lambda: Shape2D.box(math.inf, 1.0), "box width"),
                           (lambda: Shape2D.box(0.0, 1.0), "box width"),
                           (lambda: Shape2D.box(1.0, math.nan), "box height"),
                           (lambda: Shape2D.box(1.0, -0.5), "box height"),
                           (lambda: Shape2D.ellipse(math.nan, 0.05), "ellipse semi-axis a"),
                           (lambda: Shape2D.ellipse(0.08, math.inf), "ellipse semi-axis b"),
                           (lambda: Shape2D.ellipse(0.08, 0.0), "ellipse semi-axis b")):
            with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
                make()

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, 0.0, -0.1])
    def test_disc_radius_must_be_finite_and_positive(self, radius):
        with pytest.raises(ValueError, match="disc radius must be finite and positive"):
            Shape2D.disc(radius)

    def test_ellipse_area(self):
        e = Shape2D.ellipse(0.08, 0.05)
        assert e.area() == pytest.approx(math.pi * 0.08 * 0.05, rel=5e-3)


class TestClosestPoint:
    def test_disc_radial(self):
        g = closest_surface_point(Shape2D.disc(1.0), PlanarPose.identity(), [2.0, 0.0])
        np.testing.assert_allclose(g, [1.0, 0.0], atol=1e-15)

    def test_square_corner(self):
        sq = Shape2D.box(2.0, 2.0)
        g = closest_surface_point(sq, PlanarPose.identity(), [2.0, 2.0])
        np.testing.assert_allclose(g, [1.0, 1.0], atol=1e-15)

    def test_square_interior_nearest_edge(self):
        # oracle: dense boundary sampling
        sq = Shape2D.box(2.0, 2.0)
        pose = PlanarPose.identity()
        q = np.array([0.2, 0.1])
        cloud = boundary_cloud(sq, pose, 100_000)
        oracle = cloud[np.argmin(np.linalg.norm(cloud - q, axis=1))]
        g = closest_surface_point(sq, pose, q)
        np.testing.assert_allclose(g, [1.0, 0.1], atol=1e-12)
        np.testing.assert_allclose(g, oracle, atol=1e-4)

    def test_random_queries_match_sampling_oracle(self):
        shapes = [Shape2D.disc(0.7), Shape2D.box(1.2, 0.6), Shape2D.polygon([[0.5, 0], [0, 0.8], [-0.6, 0.1], [-0.2, -0.7]])]
        rng = np.random.default_rng(7)
        for shape in shapes:
            pose = random_pose(rng)
            cloud = boundary_cloud(shape, pose, 100_000)
            for _ in range(15):
                q = rng.uniform(-2, 2, size=2)
                g = closest_surface_point(shape, pose, q)
                d_oracle = np.min(np.linalg.norm(cloud - q, axis=1))
                assert np.linalg.norm(q - g) == pytest.approx(d_oracle, abs=1e-4)

    def test_result_on_boundary(self):
        rng = np.random.default_rng(8)
        for shape in [Shape2D.disc(0.5), Shape2D.box(0.8, 0.5)]:
            pose = random_pose(rng)
            for _ in range(50):
                q = rng.uniform(-2, 2, size=2)
                g = closest_surface_point(shape, pose, q)
                assert abs(signed_distance(shape, pose, g)) < 1e-9


class TestSignedDistance:
    def test_disc(self):
        d = Shape2D.disc(1.0)
        assert signed_distance(d, PlanarPose.identity(), [2.0, 0.0]) == pytest.approx(1.0)
        assert signed_distance(d, PlanarPose.identity(), [0.0, 0.0]) == pytest.approx(-1.0)

    def test_polygon_interior_matches_oracle(self):
        shape = Shape2D.polygon([[0.5, 0], [0.3, 0.6], [-0.5, 0.4], [-0.4, -0.5]])
        pose = PlanarPose(0.2, -0.1, 0.7)
        cloud = boundary_cloud(shape, pose, 200_000)
        rng = np.random.default_rng(9)
        for _ in range(20):
            q = pose.transform_point(rng.uniform(-0.25, 0.25, size=2))
            sd = signed_distance(shape, pose, q)
            d_oracle = np.min(np.linalg.norm(cloud - q, axis=1))
            assert abs(sd) == pytest.approx(d_oracle, abs=1e-6 + 1e-4 * d_oracle + 3e-5)

    def test_magnitude_equals_distance_to_closest_point(self):
        rng = np.random.default_rng(10)
        shape = Shape2D.box(1.0, 0.7)
        pose = random_pose(rng)
        for _ in range(100):
            q = rng.uniform(-2, 2, size=2)
            sd = signed_distance(shape, pose, q)
            g = closest_surface_point(shape, pose, q)
            assert abs(sd) == pytest.approx(float(np.linalg.norm(q - g)), abs=1e-12)

    def test_lipschitz_along_rays(self):
        shape = Shape2D.box(1.0, 1.0)
        pose = PlanarPose(0.3, 0.2, 0.5)
        rng = np.random.default_rng(11)
        for _ in range(20):
            origin = rng.uniform(-2, 2, size=2)
            direction = rng.normal(size=2)
            direction /= np.linalg.norm(direction)
            ts = np.linspace(0.0, 3.0, 200)
            vals = [signed_distance(shape, pose, origin + t * direction) for t in ts]
            steps = np.abs(np.diff(vals)) / np.diff(ts)
            assert np.all(steps <= 1.0 + 1e-9)


class TestPenetration:
    def test_separated(self):
        sq = Shape2D.box(2.0, 2.0)
        disc = Shape2D.disc(0.5)
        assert deepest_penetration(sq, PlanarPose.identity(), disc, PlanarPose(2.0, 0.0, 0.0)) is None

    def test_tangency_is_none(self):
        sq = Shape2D.box(2.0, 2.0)
        disc = Shape2D.disc(0.5)
        assert deepest_penetration(sq, PlanarPose.identity(), disc, PlanarPose(1.5, 0.0, 0.0)) is None
        d2 = Shape2D.disc(0.25)
        assert deepest_penetration(disc, PlanarPose.identity(), d2, PlanarPose(0.75, 0.0, 0.0)) is None

    def test_disc_into_square(self):
        sq = Shape2D.box(2.0, 2.0)
        disc = Shape2D.disc(0.5)
        out = deepest_penetration(sq, PlanarPose.identity(), disc, PlanarPose(1.25, 0.0, 0.0))
        assert out is not None
        delta, g_delta = out
        np.testing.assert_allclose(delta, [0.75, 0.0], atol=1e-12)
        np.testing.assert_allclose(g_delta, [1.0, 0.0], atol=1e-12)

    def test_disc_into_square_sampling_oracle(self):
        sq = Shape2D.box(2.0, 2.0)
        disc = Shape2D.disc(0.5)
        ee_pose = PlanarPose(1.25, 0.3, 0.0)
        out = deepest_penetration(sq, PlanarPose.identity(), disc, ee_pose)
        delta, g_delta = out
        ang = np.linspace(0, 2 * math.pi, 100_000, endpoint=False)
        pts = ee_pose.translation + 0.5 * np.column_stack([np.cos(ang), np.sin(ang)])
        sds = np.array([signed_distance(sq, PlanarPose.identity(), p) for p in pts])
        oracle_delta = pts[np.argmin(sds)]
        np.testing.assert_allclose(delta, oracle_delta, atol=1e-4)
        np.testing.assert_allclose(g_delta, closest_surface_point(sq, PlanarPose.identity(), delta), atol=1e-12)

    def test_polygon_ee(self):
        sq = Shape2D.box(2.0, 2.0)
        small = Shape2D.box(0.5, 0.5)
        out = deepest_penetration(sq, PlanarPose.identity(), small, PlanarPose(1.2, 0.0, 0.0))
        assert out is not None
        delta, g_delta = out
        assert delta[0] == pytest.approx(0.95, abs=1e-9)
        assert g_delta[0] == pytest.approx(1.0, abs=1e-9)

    def test_overlap_reporting_symmetric(self):
        rng = np.random.default_rng(12)
        a = Shape2D.box(1.0, 0.6)
        b = Shape2D.disc(0.3)
        c = Shape2D.box(0.5, 0.5)
        pairs = [(a, b), (a, c), (b, c)]
        for sa, sb in pairs:
            for _ in range(200):
                pa = random_pose(rng, 0.8)
                pb = random_pose(rng, 0.8)
                assert shapes_intersect(sa, pa, sb, pb) == shapes_intersect(sb, pb, sa, pa)
                fwd = deepest_penetration(sa, pa, sb, pb)
                rev = deepest_penetration(sb, pb, sa, pa)
                assert (fwd is None) == (rev is None)


class TestClosestPair:
    def test_disc_disc(self):
        a, b = closest_pair(Shape2D.disc(1.0), PlanarPose.identity(), Shape2D.disc(0.5), PlanarPose(3.0, 0.0, 0.0))
        np.testing.assert_allclose(a, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(b, [2.5, 0.0], atol=1e-12)

    def test_square_disc(self):
        a, b = closest_pair(Shape2D.box(2.0, 2.0), PlanarPose.identity(), Shape2D.disc(0.5), PlanarPose(2.0, 0.3, 0.0))
        np.testing.assert_allclose(a, [1.0, 0.3], atol=1e-10)
        np.testing.assert_allclose(b, [1.5, 0.3], atol=1e-10)

    def test_gap_matches_sampled_minimum(self):
        sa, pa = Shape2D.box(1.0, 0.8), PlanarPose(0.0, 0.0, 0.3)
        sb, pb = Shape2D.polygon([[0.3, 0], [0, 0.4], [-0.3, -0.1]]), PlanarPose(1.4, 0.5, -0.5)
        a, b = closest_pair(sa, pa, sb, pb)
        ca = boundary_cloud(sa, pa, 2000)
        cb = boundary_cloud(sb, pb, 2000)
        d_oracle = np.min(np.linalg.norm(ca[:, None, :] - cb[None, :, :], axis=2))
        assert np.linalg.norm(a - b) == pytest.approx(d_oracle, abs=1e-3)


    def test_near_parallel_edges_give_a_mutual_pair(self):
        # a pusher edge 5e-4 rad off the facing object edge, where an
        # alternating projection contracts by about cos(angle) per sweep
        sa, pa = Shape2D.box(0.1, 0.1), PlanarPose(0.04505, -0.03558, -3.1407)
        sb, pb = Shape2D.box(0.03, 0.02), PlanarPose(-0.05645, -0.023, -3.14094)
        a, b = closest_pair(sa, pa, sb, pb)
        assert np.linalg.norm(closest_surface_point(sa, pa, b) - a) < 1e-12
        assert np.linalg.norm(closest_surface_point(sb, pb, a) - b) < 1e-12
        assert np.linalg.norm(a - b) == pytest.approx(0.0364863, abs=1e-7)


class TestRowWiseQueries:
    """The pose-array queries the factor kernels use agree with the scalar ones."""

    SHAPES = [Shape2D.disc(0.3), Shape2D.box(0.8, 0.5),
              Shape2D.polygon([[0.4, 0.0], [0.1, 0.35], [-0.3, 0.2], [-0.3, -0.2], [0.1, -0.35]])]

    @staticmethod
    def poses(rng, n, scale):
        return np.column_stack([rng.uniform(-scale, scale, (n, 2)), rng.uniform(-4.0, 4.0, n)])

    def test_closest_points_with_jacobians(self):
        rng = np.random.default_rng(21)
        for shape in self.SHAPES:
            poses = self.poses(rng, 40, 1.0)
            q = rng.uniform(-1.5, 1.5, (40, 2))
            q[0] = poses[0, :2]  # the body origin: a disc's center
            rows = closest_points_with_jacobians(shape, poses, q)
            for n in range(40):
                one = closest_point_with_jacobians(shape, PlanarPose.from_array(poses[n]), q[n])
                for got, want in zip(rows, one):
                    np.testing.assert_allclose(got[n], want, rtol=1e-12, atol=1e-12)

    def test_overlap_and_closest_pairs(self):
        rng = np.random.default_rng(22)
        for sa in self.SHAPES:
            for sb in self.SHAPES:
                pa, pb = self.poses(rng, 60, 0.6), self.poses(rng, 60, 0.6)
                hit = shapes_intersect_many(sa, pa, sb, pb)
                want = [shapes_intersect(sa, PlanarPose.from_array(x), sb, PlanarPose.from_array(y))
                        for x, y in zip(pa, pb)]
                np.testing.assert_array_equal(hit, want)
                assert hit.any() and not hit.all()
                a, b, _, _ = closest_pairs(sa, pa[~hit], sb, pb[~hit])
                for n, (x, y) in enumerate(zip(pa[~hit], pb[~hit])):
                    wa, wb = closest_pair(sa, PlanarPose.from_array(x), sb, PlanarPose.from_array(y))
                    np.testing.assert_allclose(a[n], wa, atol=1e-12)
                    np.testing.assert_allclose(b[n], wb, atol=1e-12)


# -- the row-wise kernels against oracles written here ------------------------

ORACLE_SHAPES = [Shape2D.disc(0.06), Shape2D.box(0.1, 0.1),
                 Shape2D.polygon([[0.06, 0.0], [0.02, 0.055], [-0.05, 0.03], [-0.05, -0.03], [0.02, -0.055]]),
                 Shape2D.ellipse(0.08, 0.05)]
# half the angles within 1e-3 of +-pi, across the wrap seam
ANGLES = st.one_of(st.floats(-1e-3, 1e-3).map(lambda u: wrap_angle(math.pi + u)), st.floats(-math.pi, math.pi))


def poses(scale):
    return st.tuples(st.floats(-scale, scale), st.floats(-scale, scale), ANGLES).map(np.array)


def points(scale):
    return st.tuples(st.floats(-scale, scale), st.floats(-scale, scale)).map(np.array)


def world_vertices(shape, pose):
    return shape.vertices @ PlanarPose.from_array(pose).rotation().T + pose[:2]


def edges(verts):
    """Start points and directions of a closed polygon's edges."""
    return verts, np.roll(verts, -1, axis=0) - verts


def segment_distances(verts, q):
    """Distance from q to each edge of the world polygon verts."""
    a, d = edges(verts)
    t = np.clip(np.sum((q - a) * d, axis=1) / np.sum(d * d, axis=1), 0.0, 1.0)
    return np.linalg.norm(q - (a + t[:, None] * d), axis=1)


def strictly_inside(verts, q):
    a, d = edges(verts)
    return bool(np.all(cross2(d.T, (q - a).T) > 0.0))


def brute_force_overlap(sa, pa, sb, pb):
    """(open-set overlap, distance of the configuration from a touching one).

    Two convex polygons in general position overlap when a vertex of one
    lies inside the other or two edges cross; a disc overlaps a polygon
    when its center is inside or an edge comes nearer than its radius.
    """
    if sa.kind == "disc" and sb.kind == "disc":
        gap = float(np.linalg.norm(pa[:2] - pb[:2])) - sa.radius - sb.radius
        return gap < 0.0, abs(gap)
    if sa.kind == "disc":
        sa, pa, sb, pb = sb, pb, sa, pa
    va = world_vertices(sa, pa)
    if sb.kind == "disc":
        d = segment_distances(va, pb[:2]).min()
        return strictly_inside(va, pb[:2]) or d < sb.radius, abs(d - sb.radius)
    vb = world_vertices(sb, pb)
    inside = any(strictly_inside(vb, v) for v in va) or any(strictly_inside(va, v) for v in vb)
    # edge i of a along axis 0 against edge j of b along axis 1
    (p, dp), (r, dr) = edges(va), edges(vb)
    p, dp, r, dr = p[:, None], dp[:, None], r[None], dr[None]

    def side(o, d, x):
        """Which side of the line o + s d the point x lies on."""
        return d[..., 0] * (x - o)[..., 1] - d[..., 1] * (x - o)[..., 0]

    crossing = bool(np.any((side(p, dp, r) * side(p, dp, r + dr) < 0.0)
                           & (side(r, dr, p) * side(r, dr, p + dp) < 0.0)))
    margin = min(min(segment_distances(vb, v).min() for v in va), min(segment_distances(va, v).min() for v in vb))
    return inside or crossing, margin


def cloud_spacing(cloud):
    return float(np.max(np.linalg.norm(np.roll(cloud, -1, axis=0) - cloud, axis=1)))


class TestKernelsAgainstOracles:
    """closest_points_with_jacobians, signed_distances, shapes_intersect_many and
    closest_pairs against boundary sampling, central differences and brute force."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(shape=st.sampled_from(ORACLE_SHAPES), pose=poses(0.05), q=points(0.15))
    def test_closest_point_and_signed_distance(self, shape, pose, q):
        g, dg_dq, dg_dpose = (x[0] for x in closest_points_with_jacobians(shape, pose[None], q[None]))
        dist = float(np.linalg.norm(q - g))
        cloud = boundary_cloud(shape, PlanarPose.from_array(pose), 2000)
        sampled = float(np.min(np.linalg.norm(cloud - q, axis=1)))
        assert dist <= sampled + 1e-12
        assert sampled <= dist + cloud_spacing(cloud) / 2.0 + 1e-12
        sd = signed_distances(shape, pose[None], q[None])[0]
        assert abs(abs(sd) - dist) <= 1e-12
        if dist > 1e-9:
            inside = (np.linalg.norm(q - pose[:2]) < shape.radius if shape.kind == "disc"
                      else strictly_inside(world_vertices(shape, pose), q))
            assert (sd < 0.0) == inside

        # central differences where the closest feature cannot switch: a
        # disc away from its center, a polygon on one edge, clear of its ends
        if shape.kind == "disc":
            if np.linalg.norm(q - pose[:2]) < 0.01:
                return
        else:
            verts = world_vertices(shape, pose)
            d = segment_distances(verts, q)
            k = int(np.argmin(d))
            a, b = verts[k], verts[(k + 1) % len(verts)]
            t = float((q - a) @ (b - a)) / float((b - a) @ (b - a))
            if not (1e-3 < t < 1.0 - 1e-3 and np.partition(d, 1)[1] > d[k] + 1e-5):
                return
        h = 1e-7
        bumps = [(pose, q + h * e) for e in np.eye(2)] + [(pose + h * e, q) for e in np.eye(3)]
        rows = [row for p, x in bumps for row in ((p, x), (2 * pose - p, 2 * q - x))]
        moved = closest_points_with_jacobians(shape, np.array([p for p, _ in rows]),
                                              np.array([x for _, x in rows]))[0]
        numeric = ((moved[0::2] - moved[1::2]) / (2.0 * h)).T  # (2, 5)
        np.testing.assert_allclose(dg_dq, numeric[:, :2], rtol=0, atol=1e-6)
        np.testing.assert_allclose(dg_dpose, numeric[:, 2:], rtol=0, atol=1e-6)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(sa=st.sampled_from(ORACLE_SHAPES), sb=st.sampled_from(ORACLE_SHAPES),
           rows=st.lists(st.tuples(poses(0.05), poses(0.15)), min_size=1, max_size=4))
    def test_overlap(self, sa, sb, rows):
        want = []
        for pa, pb in rows:
            overlap, margin = brute_force_overlap(sa, pa, sb, pb)
            assume(margin > 1e-9)
            want.append(overlap)
        pa, pb = np.array([r[0] for r in rows]), np.array([r[1] for r in rows])
        np.testing.assert_array_equal(shapes_intersect_many(sa, pa, sb, pb), want)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(sa=st.sampled_from(ORACLE_SHAPES), sb=st.sampled_from(ORACLE_SHAPES), pa=poses(0.02),
           heading=st.floats(-math.pi, math.pi), reach=st.floats(0.1, 0.2), theta_b=ANGLES)
    def test_closest_pair_is_mutual_and_matches_sampling(self, sa, sb, pa, heading, reach, theta_b):
        pb = np.array([pa[0] + reach * math.cos(heading), pa[1] + reach * math.sin(heading), theta_b])
        overlap, margin = brute_force_overlap(sa, pa, sb, pb)
        assume(not overlap and margin > 1e-9)
        a, b = (x[0] for x in closest_pairs(sa, pa[None], sb, pb[None])[:2])
        np.testing.assert_allclose(closest_points_with_jacobians(sa, pa[None], b[None])[0][0], a, rtol=0, atol=1e-12)
        np.testing.assert_allclose(closest_points_with_jacobians(sb, pb[None], a[None])[0][0], b, rtol=0, atol=1e-12)
        ca = boundary_cloud(sa, PlanarPose.from_array(pa), 600)
        cb = boundary_cloud(sb, PlanarPose.from_array(pb), 600)
        sampled = float(np.min(np.linalg.norm(ca[:, None, :] - cb[None, :, :], axis=2)))
        gap = float(np.linalg.norm(a - b))
        assert gap <= sampled + 1e-12
        assert sampled <= gap + (cloud_spacing(ca) + cloud_spacing(cb)) / 2.0 + 1e-12

    def test_gap_jacobians_match_central_differences(self):
        # every ordered pair of the oracle shapes and two pushers, a 1x3 cm
        # box and an 8 mm disc; half the angles within 1e-3 of +-pi
        shapes = ORACLE_SHAPES + [Shape2D.box(0.01, 0.03), Shape2D.disc(0.008)]
        rng = np.random.default_rng(23)
        n, h = 200, 1e-7
        branches = {"front": 0, "vertex of a": 0, "vertex of b": 0}
        for sa in shapes:
            for sb in shapes:
                theta = [np.where(np.arange(n) % 2, wrap_angles(math.pi + rng.uniform(-1e-3, 1e-3, n)),
                                  rng.uniform(-math.pi, math.pi, n)) for _ in range(2)]
                pa = np.column_stack([rng.uniform(-0.03, 0.03, (n, 2)), theta[0]])
                pb = np.column_stack([rng.uniform(-0.15, 0.15, (n, 2)), theta[1]])
                apart = ~shapes_intersect_many(sa, pa, sb, pb)
                pa, pb = pa[apart], pb[apart]
                a, b, ja, jb = closest_pairs(sa, pa, sb, pb)
                numeric = np.empty((len(pa), 2, 6))
                for k, bump in enumerate(h * np.eye(6)):
                    hi = closest_pairs(sa, pa + bump[:3], sb, pb + bump[3:])
                    lo = closest_pairs(sa, pa - bump[:3], sb, pb - bump[3:])
                    numeric[:, :, k] = ((hi[0] - hi[1]) - (lo[0] - lo[1])) / (2.0 * h)
                scale = np.maximum(1.0, np.max(np.abs(numeric), axis=(1, 2)))
                err = np.max(np.abs(np.concatenate([ja, jb], axis=2) - numeric), axis=(1, 2)) / scale
                assert np.max(err) <= 1e-6
                if sa.kind == sb.kind == "polygon":
                    a0 = closest_points_with_jacobians(sa, pa, pb[:, :2])[0]
                    front = np.all(a == a0, axis=1) & np.all(b == closest_points_with_jacobians(sb, pb, a)[0], axis=1)
                    at_a = [np.min(np.linalg.norm(world_vertices(sa, x) - p, axis=1)) < 1e-12 for x, p in zip(pa, a)]
                    branches["front"] += int(front.sum())
                    branches["vertex of a"] += int(np.sum(~front & at_a))
                    branches["vertex of b"] += int(np.sum(~front & ~np.array(at_a)))
        assert all(count > 0 for count in branches.values()), branches
