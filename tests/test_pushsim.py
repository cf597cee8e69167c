"""Simulator physics: limit-surface constants, step solve, trajectory invariants."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from pushgraph import pushsim
from pushgraph.cli import trial_seed
from pushgraph.errors import DegenerateShape, NonConvergence
from pushgraph.factors import quasi_static_residual
from pushgraph.geometry import (
    PlanarPose,
    Shape2D,
    closest_surface_point,
    cross2,
    outward_normals,
    rot2,
    signed_distance,
)
from pushgraph.pushsim import (
    GroundTruthTrajectory,
    PushParams,
    arc_path,
    benchmark_scenario,
    limit_surface_constants,
    make_push_scene,
    quasi_static_step,
    servo_push,
    simulate_push,
    steering_profile,
    straight_path,
)


def grid_mean_radius(shape, n=1000):
    """Deterministic midpoint-grid integration of mean |r| (about 10^6 samples)."""
    if shape.kind == "disc":
        r_edges = np.linspace(0.0, shape.radius, n + 1)
        r_mid = 0.5 * (r_edges[:-1] + r_edges[1:])
        # mean over area: int r * r dr dtheta / (pi R^2), angular part cancels
        num = np.sum(r_mid**2) * (shape.radius / n) * 2 * math.pi
        return num / (math.pi * shape.radius**2)
    v = shape.vertices
    lo, hi = v.min(axis=0), v.max(axis=0)
    xs = np.linspace(lo[0], hi[0], n + 1)
    ys = np.linspace(lo[1], hi[1], n + 1)
    xm = 0.5 * (xs[:-1] + xs[1:])
    ym = 0.5 * (ys[:-1] + ys[1:])
    X, Y = np.meshgrid(xm, ym)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    inside = np.ones(len(pts), dtype=bool)
    for i in range(len(v)):
        e = v[(i + 1) % len(v)] - v[i]
        inside &= (e[0] * (pts[:, 1] - v[i, 1]) - e[1] * (pts[:, 0] - v[i, 0])) >= 0
    r = np.linalg.norm(pts[inside], axis=1)
    return float(np.mean(r))


class TestLimitSurfaceConstants:
    def test_disc_c_is_two_thirds_radius(self):
        for R in (0.05, 0.1, 0.37):
            params = limit_surface_constants(Shape2D.disc(R), 0.3, 1.0)
            assert params.c == pytest.approx(2.0 * R / 3.0, abs=1e-12)
            assert params.c == pytest.approx(grid_mean_radius(Shape2D.disc(R)), abs=1e-4)

    def test_f_max_formula(self):
        params = limit_surface_constants(Shape2D.disc(0.05), 0.5, 1.0, 9.81)
        assert params.f_max == pytest.approx(4.905, abs=1e-12)

    def test_unit_square_closed_form(self):
        # mean |r| over the unit square: (sqrt(2) + asinh(1)) / 6; side a scales it by a
        expected = (math.sqrt(2.0) + math.log(1.0 + math.sqrt(2.0))) / 6.0
        params = limit_surface_constants(Shape2D.box(1.0, 1.0), 0.3, 1.0)
        assert params.c == pytest.approx(expected, rel=1e-15)
        assert params.c == pytest.approx(0.3826, abs=1e-4)
        assert params.c == pytest.approx(grid_mean_radius(Shape2D.box(1.0, 1.0)), abs=1e-4)
        assert limit_surface_constants(Shape2D.box(0.1, 0.1), 0.3, 1.0).c == pytest.approx(0.1 * expected, rel=1e-15)

    def test_c_scales_linearly_with_shape(self):
        for shape, tripled in ((Shape2D.disc(0.07), Shape2D.disc(0.21)),
                               (Shape2D.box(0.1, 0.1), Shape2D.box(0.3, 0.3))):
            c1 = limit_surface_constants(shape, 0.3, 1.0).c
            c3 = limit_surface_constants(tripled, 0.3, 1.0).c
            assert c3 == pytest.approx(3.0 * c1, rel=1e-9)

    def test_polygon_oracle_agreement(self):
        tri = Shape2D.polygon([[0.1, 0.0], [0.0, 0.12], [-0.08, -0.05]])
        params = limit_surface_constants(tri, 0.4, 0.8)
        assert params.c == pytest.approx(grid_mean_radius(tri), abs=1e-4)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PushParams(mu_s=0.3, mass=1.0, gravity=9.81, f_max=1.0, tau_max=0.1, c=0.1)
        good = limit_surface_constants(Shape2D.disc(0.05), 0.3, 1.0)
        assert good.ellipsoid_value([good.f_max, 0.0], 0.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("field", ["mu_s", "mass", "gravity", "f_max", "tau_max", "c"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_params_refuse_non_finite_fields(self, field, bad):
        good = limit_surface_constants(Shape2D.disc(0.05), 0.3, 1.0)
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            PushParams(**{**dataclasses.asdict(good), field: bad})

    @pytest.mark.parametrize("args", [(math.nan, 1.0), (0.3, math.inf), (0.3, 1.0, math.nan),
                                      (0.0, 1.0), (0.3, 0.0), (0.3, 1.0, 0.0)])
    def test_constants_refuse_non_finite_inputs(self, args):
        with pytest.raises(ValueError, match="must be finite"):
            limit_surface_constants(Shape2D.disc(0.05), *args)

    def test_degenerate_shape(self):
        class Fake:
            kind = "disc"
            radius = 1.0

            def area(self):
                return 0.0

        with pytest.raises(DegenerateShape):
            limit_surface_constants(Fake(), 0.3, 1.0)


DISC_OBJ = Shape2D.disc(0.06)
DISC_PARAMS = limit_surface_constants(DISC_OBJ, 0.3, 0.8)
BOX_OBJ = Shape2D.box(0.1, 0.1)
BOX_PARAMS = limit_surface_constants(BOX_OBJ, 0.3, 1.0)
PROBE = Shape2D.disc(0.008)


class TestQuasiStaticStep:
    def test_center_push_translates_without_rotation(self):
        # push a disc straight through its center
        x0 = PlanarPose.identity()
        e0 = PlanarPose(-DISC_OBJ.radius - PROBE.radius, 0.0, 0.0)
        contact = np.array([-DISC_OBJ.radius, 0.0])
        motion = np.array([0.004, 0.0, 0.0])
        x1, f = quasi_static_step(x0, e0, motion, contact, DISC_PARAMS)
        assert x1.theta == pytest.approx(0.0, abs=1e-12)
        assert x1.y == pytest.approx(0.0, abs=1e-12)
        assert x1.x == pytest.approx(0.004, abs=1e-12)
        assert f[0] > 0.0
        assert abs(f[1]) < 1e-12 * abs(f[0])

    def test_off_center_push_corotates_with_moment(self):
        x0 = PlanarPose.identity()
        contact = np.array([-0.05, 0.03])
        e0 = PlanarPose(contact[0] - PROBE.radius, contact[1], 0.0)
        motion = np.array([0.003, 0.0, 0.0])
        x1, f = quasi_static_step(x0, e0, motion, contact, BOX_PARAMS)
        tau = cross2(contact - x0.translation, f)
        omega = x1.theta - x0.theta
        assert tau != 0.0 and omega != 0.0
        assert np.sign(omega) == np.sign(tau)

    def test_stationary_pusher(self):
        x0 = PlanarPose(0.1, -0.2, 0.4)
        x1, f = quasi_static_step(x0, PlanarPose(0, 0, 0), np.zeros(3), np.array([0.04, 0.0]), BOX_PARAMS)
        assert x1 is x0
        np.testing.assert_allclose(f, np.zeros(2))

    def test_single_step_vs_substeps_second_order(self):
        # local truncation: 1 step of size dt vs 100 substeps differs O(dt^2)
        x0 = PlanarPose.identity()
        contact = np.array([-0.05, 0.02])
        e0 = PlanarPose(contact[0] - PROBE.radius, contact[1], 0.0)
        twist = np.array([0.06, 0.01, 0.1])

        def run(dt, n_sub):
            x = x0
            e = e0
            p = contact.copy()
            sub = twist * dt / n_sub
            for _ in range(n_sub):
                x, _ = quasi_static_step(x, e, sub, p, BOX_PARAMS)
                p = pushsim._advect_contact(e, sub, p)
                e = PlanarPose(*(e.as_array() + sub))
            return x.as_array()

        diffs = {}
        for dt in (0.2, 0.02):
            diffs[dt] = np.linalg.norm(run(dt, 1) - run(dt, 100))
        # dt shrank 10x, local error should shrink ~100x
        assert diffs[0.02] < diffs[0.2] * 0.04
        assert diffs[0.2] > 0.0


def simulate_case(kind, speed=0.06, duration=4.0, dt=0.05, obj=None, params=None,
                  offset=0.02, curvature=1.5):
    obj = obj if obj is not None else BOX_OBJ
    params = params if params is not None else limit_surface_constants(obj, 0.3, 1.0)
    obj_pose, ee_pose = make_push_scene(obj, PROBE, direction=0.0, lateral_offset=offset)
    if kind == "straight":
        path = straight_path(ee_pose, speed, duration, dt)
    else:
        path = arc_path(ee_pose, speed, curvature, duration, dt)
    return simulate_push(path, obj_pose, obj, PROBE, params, dt)


def servo_case(seed, duration, obj=BOX_OBJ, params=BOX_PARAMS):
    """The pusher of `simulate --path random`: a servo push steered by a random walk."""
    steer = steering_profile(round(duration / 0.05), 0.05, seed=seed, amplitude=0.3)
    return servo_push(PlanarPose.identity(), obj, PROBE, params, 0.06, duration, 0.05, steer,
                      lateral_offset=0.02)


class TestSimulatePush:
    def test_straight_push_dynamics_residual(self):
        # 6 cm/s straight box push, 10 s at dt=0.04
        traj = simulate_case("straight", speed=0.06, duration=10.0, dt=0.04, offset=0.0)
        assert len(traj) == 250
        assert not traj.contact_lost
        assert traj.max_dynamics_residual() <= 1e-8
        assert traj.max_ellipsoid_deviation() <= 1e-8
        assert traj.max_contact_surface_error() <= 1e-9

    def test_stationary_pusher_object_never_moves(self):
        obj_pose, ee_pose = make_push_scene(BOX_OBJ, PROBE, 0.0, 0.0)
        path = np.tile(ee_pose.as_array(), (50, 1))
        traj = simulate_push(path, obj_pose, BOX_OBJ, PROBE, BOX_PARAMS, 0.05)
        np.testing.assert_allclose(traj.object_poses, np.tile(obj_pose.as_array(), (50, 1)), atol=1e-15)
        np.testing.assert_allclose(traj.forces, 0.0)

    @pytest.mark.parametrize("offset", [0.0, 0.01, -0.015, 0.02])
    def test_flat_pusher_starts_at_the_requested_offset(self, offset):
        # pusher face parallel to the object face: every point of their
        # overlap is equally near, and the contact must stay where aimed
        tool = Shape2D.box(0.03, 0.02)
        obj_pose, ee_pose = make_push_scene(BOX_OBJ, tool, 0.0, offset)
        path = straight_path(ee_pose, 0.05, 1.0, 0.1)
        traj = simulate_push(path, obj_pose, BOX_OBJ, tool, BOX_PARAMS, 0.1)
        np.testing.assert_allclose(traj.contact_points[0], [-0.05, offset], rtol=0, atol=1e-12)
        assert traj.max_contact_surface_error() <= 1e-9

    def test_curved_path_rotation_matches_moment_sign(self):
        traj = simulate_case("arc", offset=0.0, curvature=2.0, duration=3.0)
        assert not traj.contact_lost
        for t in range(1, len(traj)):
            tau = cross2(traj.contact_points[t] - traj.object_poses[t, :2], traj.forces[t])
            dth = traj.object_poses[t, 2] - traj.object_poses[t - 1, 2]
            if abs(tau) > 1e-10:
                assert np.sign(dth) == np.sign(tau)

    def test_energy_consistency(self):
        traj = servo_case(seed=3, duration=4.0)
        for t in range(1, len(traj)):
            v = (traj.object_poses[t, :2] - traj.object_poses[t - 1, :2]) / (
                traj.timestamps[t] - traj.timestamps[t - 1]
            )
            assert float(traj.forces[t] @ v) >= -1e-12

    def test_mixed_shapes_all_consistent(self):
        shapes = [
            (BOX_OBJ, BOX_PARAMS),
            (DISC_OBJ, DISC_PARAMS),
            (Shape2D.ellipse(0.08, 0.05), limit_surface_constants(Shape2D.ellipse(0.08, 0.05), 0.35, 1.2)),
        ]
        for i, (obj, params) in enumerate(shapes):
            traj = servo_case(seed=10 + i, duration=2.0, obj=obj, params=params)
            assert traj.max_dynamics_residual() <= 1e-8
            assert traj.max_ellipsoid_deviation() <= 1e-8
            assert traj.max_contact_surface_error() <= 1e-9

    def test_disc_c_used_in_residual_bridge(self):
        traj = simulate_case("straight", obj=DISC_OBJ, params=DISC_PARAMS, offset=0.02, duration=2.0)
        assert DISC_PARAMS.c == pytest.approx(2 * DISC_OBJ.radius / 3)
        for t in range(1, len(traj)):
            r = quasi_static_residual(
                traj.object_poses[t - 1],
                traj.object_poses[t],
                np.concatenate([traj.contact_points[t], traj.forces[t]]),
                traj.params.c,
                traj.timestamps[t] - traj.timestamps[t - 1],
            )
            assert np.max(np.abs(r)) <= 1e-8

    @pytest.mark.parametrize("step", [0, 1, -1])
    def test_dynamics_residual_is_the_worst_transition(self, step):
        # one force pushed off the limit surface; transition t pairs poses
        # t-1 and t with the contact and force at t, so forces[0] enters none
        traj = simulate_case("arc", offset=0.01, duration=2.0)
        traj.forces[step] += (0.3, -0.2)
        want = max(
            float(np.max(np.abs(quasi_static_residual(
                traj.object_poses[t - 1],
                traj.object_poses[t],
                np.concatenate([traj.contact_points[t], traj.forces[t]]),
                traj.params.c,
                traj.timestamps[t] - traj.timestamps[t - 1],
            ))))
            for t in range(1, len(traj))
        )
        assert want > 1e-4 or step == 0
        assert abs(traj.max_dynamics_residual() - want) <= 1e-15

    def test_contact_lost_truncates_with_flag(self):
        obj_pose, ee_pose = make_push_scene(BOX_OBJ, PROBE, 0.0, 0.0)
        fwd = straight_path(ee_pose, 0.05, 2.0, 0.05)
        back = fwd[::-1][1:]  # retreat along the same line
        path = np.vstack([fwd, back])
        traj = simulate_push(path, obj_pose, BOX_OBJ, PROBE, BOX_PARAMS, 0.05)
        assert traj.contact_lost
        assert len(traj) <= len(fwd) + 1

    def test_mirror_image_corner_pushes_end_alike(self):
        # headings +-0.3 start the contact on a box corner, where the two
        # faces' distances tie; contact is lost only on retreat from both
        box = Shape2D.box(0.12, 0.08)
        params = limit_surface_constants(box, 0.3, 1.0)
        trajs = []
        for direction in (0.3, -0.3):
            obj_pose, ee_pose = make_push_scene(box, PROBE, direction)
            trajs.append(simulate_push(straight_path(ee_pose, 0.06, 4.0, 0.1), obj_pose, box, PROBE, params, 0.1))
        up, down = trajs
        np.testing.assert_array_equal(np.abs(up.contact_points[0]), [0.06, 0.04])
        assert (len(up), up.contact_lost) == (len(down), down.contact_lost) == (40, False)
        np.testing.assert_allclose(down.object_poses, up.object_poses * [1.0, -1.0, -1.0], rtol=0.0, atol=1e-13)

    def test_halving_dt_self_convergence(self):
        def final_pose(dt):
            traj = simulate_case("arc", offset=0.01, curvature=1.0, duration=2.0, dt=dt)
            assert not traj.contact_lost
            return traj.object_poses[-1]

        ref = final_pose(0.00625)
        err_coarse = np.linalg.norm(final_pose(0.2) - ref)
        err_half = np.linalg.norm(final_pose(0.1) - ref)
        err_quarter = np.linalg.norm(final_pose(0.05) - ref)
        assert err_half <= err_coarse / 1.5
        assert err_quarter <= err_half / 1.5
        assert err_quarter < 0.05

    def test_approach_phase_resolved(self):
        # pusher starts 5 cm away; path is shifted to first contact
        obj_pose = PlanarPose.identity()
        start = PlanarPose(-0.2, 0.01, 0.0)
        path = straight_path(start, 0.06, 3.0, 0.05)
        traj = simulate_push(path, obj_pose, BOX_OBJ, PROBE, BOX_PARAMS, 0.05)
        sd = signed_distance(BOX_OBJ, obj_pose, traj.contact_points[0])
        assert abs(sd) < 1e-9
        assert traj.max_dynamics_residual() <= 1e-8


# benchmark_scenario(seed, duration=4.0, dt=0.1): final object pose, final
# contact point and the sum of the force norms. Both benchmark workloads are
# built from these scenes, so a change to them changes what the benchmark
# measures.
BENCHMARK_SCENES = {
    0: ([-0.15038251484225842, 0.13086577298004828, 0.17714043475583008],  # box 10x10 cm
        [-0.09235416002242569, 0.09045896616605237], 112.51410058402983),
    1: ([0.18414680812970094, -0.0882434459601415, 0.3403647278408535],  # disc
        [0.12458177938806095, -0.0810318337265558], 159.6551779569204),
    2: ([0.09153556898302434, 0.2734972126174251, 0.12153194890369923],  # ellipse
        [0.08198863791504721, 0.22292754761174918], 92.15131940863276),
    3: ([0.16939031128996443, -0.21477968667242855, -0.5570850890517631],  # box 12x8 cm
        [0.1396108899612314, -0.14910483558522944], 77.41524769163851),
}


@pytest.mark.parametrize("seed", sorted(BENCHMARK_SCENES))
def test_benchmark_scene_is_pinned(seed):
    pose, contact, force_sum = BENCHMARK_SCENES[seed]
    gt = benchmark_scenario(seed, duration=4.0, dt=0.1)
    assert len(gt) == 40 and not gt.contact_lost
    np.testing.assert_allclose(gt.object_poses[-1], pose, rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(gt.contact_points[-1], contact, rtol=1e-9, atol=0.0)
    assert np.sum(np.linalg.norm(gt.forces, axis=1)) == pytest.approx(force_sum, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("amplitude", [math.nan, math.inf, -math.inf])
def test_steering_profile_refuses_a_non_finite_amplitude(amplitude):
    with pytest.raises(ValueError, match="steering amplitude must be finite"):
        steering_profile(10, 0.1, seed=0, amplitude=amplitude)


# ---------------------------------------------------------------------------
# the step solve: Newton on the analytic Jacobian
# ---------------------------------------------------------------------------

# the benchmark's shapes; friction 0.25-0.45 and mass 0.6-1.2 kg as in benchmark_scenario
SCENE_SHAPES = [Shape2D.box(0.1, 0.1), Shape2D.disc(0.06), Shape2D.ellipse(0.08, 0.05), Shape2D.box(0.12, 0.08)]
near_pi = st.floats(math.pi - 1e-3, math.pi) | st.floats(-math.pi, -math.pi + 1e-3)
headings = near_pi | st.floats(-math.pi, math.pi)


def make_step(shape, mu, mass, x0, phi, turn, length, spin):
    """A step: object at x0, contact where the ray at angle phi from its centre
    meets the surface, pusher motion of the given length turned by turn from
    the inward normal, and spin in rad."""
    params = limit_surface_constants(shape, mu, mass)
    contact = closest_surface_point(shape, x0, x0.translation + 0.5 * np.array([math.cos(phi), math.sin(phi)]))
    inward = rot2(turn) @ -outward_normals(shape, x0, contact)[0]
    motion = np.array([*(length * inward), spin])
    e0 = PlanarPose(*(contact + 0.008 * inward), math.atan2(inward[1], inward[0]))
    return x0, e0, motion, contact, params


@st.composite
def benchmark_steps(draw):
    """A step in the benchmark's range: object pose, contact on its surface, pusher
    motion into the face of up to 1 cm (the benchmark moves at most 8 mm per step)."""
    shape = draw(st.sampled_from(SCENE_SHAPES))
    mu, mass = draw(st.floats(0.25, 0.45)), draw(st.floats(0.6, 1.2))
    x0 = PlanarPose(draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5)), draw(headings))
    return make_step(shape, mu, mass, x0, draw(st.floats(-math.pi, math.pi)), draw(st.floats(-1.0, 1.0)),
                     draw(st.floats(1e-4, 0.01)), draw(st.floats(-0.05, 0.05)))


def seeded_steps(n, seed, max_length=0.01, max_spin=0.05):
    """n steps from benchmark_steps' ranges drawn by numpy, the motion's length
    log-uniform over 0.1 mm to max_length and the spin up to max_spin."""
    rng = np.random.default_rng(seed)
    return [make_step(SCENE_SHAPES[rng.integers(len(SCENE_SHAPES))], rng.uniform(0.25, 0.45),
                      rng.uniform(0.6, 1.2), PlanarPose(*rng.uniform(-0.5, 0.5, 2), rng.uniform(-math.pi, math.pi)),
                      rng.uniform(-math.pi, math.pi), rng.uniform(-1.0, 1.0),
                      math.exp(rng.uniform(math.log(1e-4), math.log(max_length))), rng.uniform(-max_spin, max_spin))
            for _ in range(n)]


def hybr_step(x0, e0, motion, contact, params):
    """The step solve done by MINPACK's hybrid method from the continuous-limit
    guess (np.linalg.solve), on the step's equations in displacements about
    its start: arm a = p0 - t0, contact motion u = p1 - p0, translation
    dt = kappa f / f_max^2, tau = (a + u - dt) x f, rotation
    dtheta = kappa tau / tau_max^2, and the landing error
    (dt + (R(dtheta) - I) a - u) / |u| with the ellipsoid value minus one.
    MINPACK ends with status 5 (no progress) when its start is already a root
    to rounding, as on a push through the centre; both ends are accepted only
    with every residual within 1e-12."""
    e1 = PlanarPose(*(e0.as_array() + motion))
    p1 = e1.transform_point(e0.inverse_transform_point(contact))
    a, u = contact - x0.translation, p1 - contact
    s_arm = np.array([-a[1], a[0]])
    A = np.eye(2) / params.f_max**2 + np.outer(s_arm, s_arm) / params.tau_max**2
    fdir = np.linalg.solve(A, u)
    fhat = fdir / np.linalg.norm(fdir)
    m = 1.0 / math.sqrt(params.ellipsoid_value(fhat, float(s_arm @ fhat)))

    def unpack(z):
        dt = z[2] * z[:2] / params.f_max**2
        tau = cross2(a + u - dt, z[:2])
        return dt, tau, z[2] * tau / params.tau_max**2

    def residual(z):
        dt, tau, dtheta = unpack(z)
        c_minus_1, s = -2.0 * math.sin(dtheta / 2.0) ** 2, math.sin(dtheta)
        rot_minus_eye = np.array([[c_minus_1, -s], [s, c_minus_1]])
        landing = (dt + rot_minus_eye @ a - u) / np.linalg.norm(u)
        return np.array([*landing, params.ellipsoid_value(z[:2], tau) - 1.0])

    sol = scipy.optimize.root(residual, [*(m * fhat), np.linalg.norm(fdir) / m], method="hybr", tol=1e-13)
    assert sol.status in (1, 5) and np.max(np.abs(residual(sol.x))) <= 1e-12
    z = sol.x if sol.x[2] > 0 else -sol.x
    dt, _, dtheta = unpack(z)
    return PlanarPose(x0.x + dt[0], x0.y + dt[1], x0.theta + dtheta), z[:2]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(step=benchmark_steps(), fscale=st.floats(0.3, 1.2), fangle=st.floats(-math.pi, math.pi))
def test_step_jacobian_matches_central_differences(step, fscale, fangle):
    x0, e0, motion, contact, params = step
    p1 = pushsim._advect_contact(e0, motion, contact)
    a, u = contact - x0.translation, p1 - contact
    # any z near the step's scale: |f| about f_max, kappa moving the object by |u|
    z = np.array([fscale * params.f_max * math.cos(fangle), fscale * params.f_max * math.sin(fangle),
                  np.linalg.norm(u) * params.f_max])
    args = (tuple(a), tuple(u), params.f_max**2, params.tau_max**2)
    _, J, _ = pushsim._step_system(tuple(z), *args)
    numeric = np.zeros((3, 3))
    for k in range(3):
        h = 1e-5 * (params.f_max if k < 2 else z[2])
        up, down = z.copy(), z.copy()
        up[k] += h
        down[k] -= h
        numeric[:, k] = (np.array(pushsim._step_system(tuple(up), *args)[0])
                         - np.array(pushsim._step_system(tuple(down), *args)[0])) / (2 * h)
    scale = np.abs(numeric).max(axis=0)  # per column: the unknowns have different units
    np.testing.assert_allclose(np.array(J) / scale, numeric / scale, rtol=0, atol=1e-6)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(step=benchmark_steps())
def test_step_agrees_with_a_hybr_reference(step):
    x1, f = quasi_static_step(*step)
    x1_ref, f_ref = hybr_step(*step)
    np.testing.assert_allclose([x1.x, x1.y], [x1_ref.x, x1_ref.y], rtol=0, atol=1e-12)
    assert abs(math.remainder(x1.theta - x1_ref.theta, 2 * math.pi)) <= 1e-12
    np.testing.assert_allclose(f, f_ref, rtol=0, atol=1e-12)


def test_step_forces_agree_with_hybr_down_to_a_tenth_of_a_millimetre():
    # the force is fixed to rounding only if the step is solved relative to its
    # own size; in world coordinates, small steps drifted past 1e-12 N
    worst = 0.0
    for step in seeded_steps(1500, seed=2):
        _, f = quasi_static_step(*step)
        _, f_ref = hybr_step(*step)
        worst = max(worst, float(np.max(np.abs(f - f_ref))))
    assert worst <= 1e-12


def test_mirror_branch_returns_the_pushing_force(monkeypatch):
    # start Newton from the mirrored guess (-f, -kappa): it converges to the
    # mirror root, which must come back as the pushing solution (kappa > 0)
    x0 = PlanarPose(0.02, -0.01, 0.4)
    contact = x0.transform_point([-0.05, 0.03])
    e0 = PlanarPose(contact[0] - PROBE.radius, contact[1], 0.0)
    motion = np.array([0.004, 0.001, 0.0])
    x1, f = quasi_static_step(x0, e0, motion, contact, BOX_PARAMS)
    guess = pushsim._continuous_guess

    def mirrored(*args):
        (fx, fy), kappa = guess(*args)
        return (-fx, -fy), -kappa

    monkeypatch.setattr(pushsim, "_continuous_guess", mirrored)
    x1_m, f_m = quasi_static_step(x0, e0, motion, contact, BOX_PARAMS)
    np.testing.assert_allclose(x1_m.as_array(), x1.as_array(), rtol=0, atol=1e-15)
    np.testing.assert_allclose(f_m, f, rtol=0, atol=1e-12)
    assert float(f_m @ motion[:2]) > 0.0  # kappa > 0: the force does positive work


def spy_on_newton(monkeypatch):
    """The (z, args) of every _newton call from now on."""
    calls = []
    newton = pushsim._newton

    def spy(z, args):
        calls.append((z, args))
        return newton(z, args)

    monkeypatch.setattr(pushsim, "_newton", spy)
    return calls


def test_stalled_step_is_solved_in_parts_along_the_motion(monkeypatch):
    # an 11 cm step on a 6 cm disc that turns it by 1.2 rad: Newton stalls at a
    # local minimum of |r| on the whole motion, so the motion is solved in parts
    disc = Shape2D.disc(0.06)
    step = (PlanarPose(-0.3911686573891682, 0.19822261732171254, -1.7818232999255073),
            PlanarPose(-0.34989853055157216, 0.1665875634920011, 1.4486562924988764),
            np.array([0.013575629040231615, 0.11059480991778882, 0.0]),
            np.array([-0.3435492802688651, 0.16172063213358395]),
            limit_surface_constants(disc, 0.40269727616795836, 1.0953392107070132))
    calls = spy_on_newton(monkeypatch)
    x1, f = quasi_static_step(*step)
    u = pushsim._advect_contact(step[1], step[2], step[3]) - step[3]
    assert calls[0][1][1] == tuple(u) and len(calls) > 2
    x1_ref, f_ref = hybr_step(*step)
    assert abs(x1.theta - step[0].theta) > 1.0
    np.testing.assert_allclose(x1.as_array(), x1_ref.as_array(), rtol=0, atol=1e-12)
    np.testing.assert_allclose(f, f_ref, rtol=0, atol=1e-12)


def test_wandering_newton_falls_back_to_a_march_along_the_motion():
    # a 12 cm step on a 6 cm disc that turns it by 1.5 rad: Newton stalls on
    # the whole motion, so the motion is solved in parts
    params = limit_surface_constants(Shape2D.disc(0.06), 0.43396694982173845, 0.649738589544278)
    x0 = PlanarPose(-0.21281763920855534, 0.1134319484186127, -0.36978006776967076)
    e0 = PlanarPose(-0.21985430287415944, 0.1669485008804993, -0.6741464287724752)
    motion = np.array([0.09711584313009691, -0.07759803135913744, -1.3525716890672204])
    contact = np.array([-0.22610422336241684, 0.1719423464818831])
    x1, f = quasi_static_step(x0, e0, motion, contact, params)
    p1 = pushsim._advect_contact(e0, motion, contact)
    np.testing.assert_allclose(x1.transform_point(x0.inverse_transform_point(contact)), p1, rtol=0, atol=1e-12)
    assert params.ellipsoid_value(f, cross2(p1 - x1.translation, f)) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(quasi_static_residual(x0.as_array(), x1.as_array(), [*p1, *f], params.c, 1.0))) <= 1e-9
    assert float(f @ (p1 - contact)) > 0.0  # the pushing root, not its mirror
    assert math.remainder(x1.theta - x0.theta, 2 * math.pi) == pytest.approx(-1.53, abs=0.01)


def continuation_step(x0, e0, motion, contact, params, parts=400):
    """The step solved along its motion in `parts` equal parts: Newton on
    _step_system for the motion t u at t = k / parts, each solve started from
    the last root with kappa scaled by t, the first from the continuous-limit
    guess. Returns the object pose and the force."""
    u = pushsim._advect_contact(e0, motion, contact) - contact
    a = contact - x0.translation
    f, kappa = pushsim._continuous_guess(u, a, params)
    z, rate = np.array(f), kappa
    for k in range(1, parts + 1):
        t = k / parts
        args = (tuple(a), tuple(t * u), params.f_max**2, params.tau_max**2)
        z = np.array([z[0], z[1], rate * t])
        for _ in range(50):
            r, J, motion_t = pushsim._step_system(tuple(z), *args)
            if np.max(np.abs(r)) <= 1e-15:
                break
            z = z - np.linalg.solve(J, r)
        assert np.max(np.abs(r)) <= 1e-12
        rate = z[2] / t
    return PlanarPose(x0.x + motion_t[0], x0.y + motion_t[1], x0.theta + motion_t[2]), z[:2]


def test_large_steps_end_on_the_root_that_continues_the_push(monkeypatch):
    # up to 15 cm and 1.5 rad of pusher spin: on the steps that Newton cannot
    # solve whole, the result must be the continuation's root, not one picked
    # by rounding
    calls = spy_on_newton(monkeypatch)
    fallbacks = []
    for step in seeded_steps(1000, seed=5, max_length=0.15, max_spin=1.5):
        before = len(calls)
        x1, f = quasi_static_step(*step)
        if len(calls) > before + 1:
            fallbacks.append((step, x1, f))
    assert len(fallbacks) >= 10
    for step, x1, f in fallbacks:
        x1_ref, f_ref = continuation_step(*step)
        np.testing.assert_allclose([x1.x, x1.y], [x1_ref.x, x1_ref.y], rtol=0, atol=1e-9)
        assert abs(math.remainder(x1.theta - x1_ref.theta, 2 * math.pi)) <= 1e-9
        np.testing.assert_allclose(f, f_ref, rtol=0, atol=1e-9)


def test_nan_contact_raises_nonconvergence():
    x0 = PlanarPose.identity()
    e0 = PlanarPose(-0.058, 0.0, 0.0)
    with pytest.raises(NonConvergence, match="inner step solve failed"):
        quasi_static_step(x0, e0, np.array([0.004, 0.0, 0.0]), np.array([math.nan, 0.0]), BOX_PARAMS)


def test_continuous_guess_solves_its_2x2_system():
    for r_arm, u in (([-0.05, 0.03], [0.004, 0.001]), ([0.0, -0.06], [-0.002, 0.003])):
        f, kappa = pushsim._continuous_guess(np.array(u), np.array(r_arm), BOX_PARAMS)
        s_arm = np.array([-r_arm[1], r_arm[0]])
        A = np.eye(2) / BOX_PARAMS.f_max**2 + np.outer(s_arm, s_arm) / BOX_PARAMS.tau_max**2
        np.testing.assert_allclose(kappa * A @ np.array(f), u, rtol=1e-14, atol=0)
        assert kappa > 0.0
        assert BOX_PARAMS.ellipsoid_value(f, float(s_arm @ f)) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("i", range(8))
def test_benchmark_scenes_lie_on_the_limit_surface(i):
    gt = benchmark_scenario(trial_seed(0, i), duration=4.0)
    assert gt.max_ellipsoid_deviation() <= 1e-12
    assert gt.max_dynamics_residual() <= 1e-12
