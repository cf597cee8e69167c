"""Quasi-static planar pushing simulator built on the ellipsoidal limit surface.

The pusher sticks to the object at a point contact. Each step solves jointly
for the applied force and the object twist such that (i) the force lies on
the limit-surface ellipsoid, (ii) the twist is parallel to the ellipsoid
normal at that force, and (iii) the object material point at the contact
lands exactly on the advected pusher contact point. The twist is taken from
the normality condition, which makes simulated transitions satisfy the
estimator's quasi-static factor identically.

That leaves three equations in three unknowns, z = (fx, fy, kappa): the two
landing coordinates and the ellipsoid equation, written in displacements
about the step's start and relative to the contact's motion, so a 0.1 mm
step is solved as precisely as a 1 cm one. Each step solves them by damped
Newton in plain floats: the Jacobian is analytic, the 3x3 step comes from
its adjugate, and a step is halved until the residual norm falls. The start
is the closed-form continuous-limit solution, so Newton takes the root that
continues the sticking push; a root with kappa < 0 (the same motion under
the opposite force) is mirrored to the pushing one. The whole motion is
tried first; where Newton stalls on it, as it can on steps that turn the
object by a radian or more, the motion is solved in growing parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateShape, NonConvergence, NoSolution
from .geometry import (
    PlanarPose,
    Shape2D,
    angle_diff,
    closest_pair,
    closest_points_with_jacobians,
    closest_surface_point,
    cross2,
    deepest_penetration,
    outward_normals,
    rot2,
    shapes_intersect,
)


@dataclass(frozen=True)
class PushParams:
    """Limit-surface constants for a uniform-pressure support patch.

    f_max = mu_s * mass * gravity (flat support, normal force = weight) and
    c = tau_max / f_max, both enforced at construction.
    """

    mu_s: float
    mass: float
    gravity: float
    f_max: float
    tau_max: float
    c: float
    pressure_model: str = "uniform"

    def __post_init__(self):
        for name in ("mu_s", "mass", "gravity", "f_max", "tau_max", "c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        expected_fmax = self.mu_s * self.mass * self.gravity
        if abs(self.f_max - expected_fmax) > 1e-6 * max(1.0, expected_fmax):
            raise ValueError("f_max must equal mu_s * mass * gravity")
        if self.f_max <= 0.0 or self.tau_max <= 0.0:
            raise ValueError("limit-surface semi-axes must be positive")
        if abs(self.c - self.tau_max / self.f_max) > 1e-6 * max(1.0, self.c):
            raise ValueError("c must equal tau_max / f_max")
        if self.pressure_model != "uniform":
            raise ValueError("only the uniform pressure model is supported")

    def ellipsoid_value(self, f, tau: float) -> float:
        """Left-hand side of the limit-surface equation; 1.0 on the surface."""
        return float((f[0] ** 2 + f[1] ** 2) / self.f_max**2 + tau**2 / self.tau_max**2)


def _polygon_mean_radius(shape: Shape2D) -> float:
    """Mean distance from the centroid over the polygon area, in closed form.

    Fan decomposition about the (centroid) origin: the triangle (0, a, b) of
    the edge a -> b, with unit direction e, height h = a x e and ends
    t_a = a . e, t_b = b . e along it, contributes
    [h (|b| t_b - |a| t_a) + h^3 (asinh(t_b / h) - asinh(t_a / h))] / 6.
    """
    a = shape.vertices
    b = np.roll(a, -1, axis=0)
    e = b - a
    e /= np.linalg.norm(e, axis=1)[:, None]
    h = cross2(a.T, e.T)
    ta, tb = np.sum(a * e, axis=1), np.sum(b * e, axis=1)
    ra, rb = np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1)
    total = np.sum(h * (rb * tb - ra * ta) + h**3 * (np.arcsinh(tb / h) - np.arcsinh(ta / h))) / 6.0
    return float(total) / shape.area()


def limit_surface_constants(shape: Shape2D, mu_s: float, mass: float, gravity: float = 9.81) -> PushParams:
    """Friction limit-surface constants for a shape under uniform pressure."""
    for name, value in (("mu_s", mu_s), ("mass", mass), ("gravity", gravity)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    area = shape.area()
    if area <= 1e-12:
        raise DegenerateShape("shape has zero support area")
    f_max = mu_s * mass * gravity
    if shape.kind == "disc":
        mean_r = 2.0 * shape.radius / 3.0
    else:
        mean_r = _polygon_mean_radius(shape)
    tau_max = f_max * mean_r
    return PushParams(mu_s=mu_s, mass=mass, gravity=gravity, f_max=f_max, tau_max=tau_max, c=tau_max / f_max)


# ---------------------------------------------------------------------------
# single step
# ---------------------------------------------------------------------------


def _continuous_guess(u, r_arm, params: PushParams):
    """Closed-form sticking-push solution at the start configuration.

    Returns (f, kappa): force on the ellipsoid and the positive motion scale
    such that the contact displacement kappa * A f equals u, where
    A = I / f_max^2 + s s^T / tau_max^2 and s = (-r_y, r_x) is the arm
    turned by 90 degrees. A is solved by its 2x2 adjugate.
    """
    fm2 = params.f_max**2
    tm2 = params.tau_max**2
    sx, sy = -float(r_arm[1]), float(r_arm[0])
    a11 = 1.0 / fm2 + sx * sx / tm2
    a12 = sx * sy / tm2
    a22 = 1.0 / fm2 + sy * sy / tm2
    det = a11 * a22 - a12 * a12
    ux, uy = float(u[0]), float(u[1])
    dx = (a22 * ux - a12 * uy) / det
    dy = (a11 * uy - a12 * ux) / det
    norm = math.hypot(dx, dy)
    if norm < 1e-300:
        raise NoSolution("degenerate contact geometry")
    fx, fy = dx / norm, dy / norm
    tau = sx * fx + sy * fy
    m = 1.0 / math.sqrt((fx * fx + fy * fy) / fm2 + tau * tau / tm2)
    return (m * fx, m * fy), norm / m


def _step_system(z, a, u, fm2, tm2):
    """Residual of one step's equations at z = (fx, fy, kappa), and its Jacobian.

    In displacements about the start: a = p0 - t0 is the contact's arm from
    the object's position and u = p1 - p0 the contact's motion; fm2 = f_max^2
    and tm2 = tau_max^2. With the object's translation dt = kappa f / fm2,
    tau = (a + u - dt) x f and its rotation dtheta = kappa tau / tm2, the
    residual is the landing error (dt + (R(dtheta) - I) a - u) / |u|, so in
    units of the step's own size, and the ellipsoid value minus one.
    Returns (r, J, (dtx, dty, dtheta)) as plain floats; J is row-major.
    """
    fx, fy, kappa = z
    ax, ay = a
    ux, uy = u
    w = 1.0 / math.hypot(ux, uy)
    ka = kappa / fm2
    dtx, dty = ka * fx, ka * fy
    bx, by = ax + ux - dtx, ay + uy - dty  # p1 - t1: the arm at the end of the step
    tau = bx * fy - by * fx
    dtheta = kappa * tau / tm2
    s = math.sin(dtheta)
    cm1 = -2.0 * math.sin(0.5 * dtheta) ** 2  # cos(dtheta) - 1 without cancellation
    vx, vy = ax + cm1 * ax - s * ay, ay + s * ax + cm1 * ay  # R(dtheta) a; its d/dtheta is (-vy, vx)
    r = ((dtx + cm1 * ax - s * ay - ux) * w, (dty + s * ax + cm1 * ay - uy) * w,
         (fx * fx + fy * fy) / fm2 + tau * tau / tm2 - 1.0)
    # d tau / d(fx, fy); d tau / d kappa is zero, since d dt / d kappa is parallel to f
    tau_fx = -ka * fy - by
    tau_fy = bx + ka * fx
    th_fx, th_fy, th_k = kappa * tau_fx / tm2, kappa * tau_fy / tm2, tau / tm2
    J = (
        ((ka - vy * th_fx) * w, -vy * th_fy * w, (fx / fm2 - vy * th_k) * w),
        (vx * th_fx * w, (ka + vx * th_fy) * w, (fy / fm2 + vx * th_k) * w),
        (2.0 * (fx / fm2 + tau * tau_fx / tm2), 2.0 * (fy / fm2 + tau * tau_fy / tm2), 0.0),
    )
    return r, J, (dtx, dty, dtheta)


def _solve3(J, r):
    """x with J x = r for a 3x3 J, by the adjugate; None when J is singular."""
    (a, b, c), (d, e, f), (g, h, i) = J
    c00, c01, c02 = e * i - f * h, f * g - d * i, d * h - e * g
    det = a * c00 + b * c01 + c * c02
    if det == 0.0 or not math.isfinite(det):
        return None
    c10, c11, c12 = c * h - b * i, a * i - c * g, b * g - a * h
    c20, c21, c22 = b * f - c * e, c * d - a * f, a * e - b * d
    return (
        (c00 * r[0] + c10 * r[1] + c20 * r[2]) / det,
        (c01 * r[0] + c11 * r[1] + c21 * r[2]) / det,
        (c02 * r[0] + c12 * r[1] + c22 * r[2]) / det,
    )


_NEWTON_MAX_ITER = 100
_NEWTON_MAX_HALVINGS = 40
_NEWTON_FLOOR = 1e-15  # max |r| at which a further step can gain nothing but rounding
_STEP_TOL = 1e-9  # max |r| a step must reach to be accepted; landing rows are relative to |u|
_MARCH_MIN_ADVANCE = 1e-3  # smallest advance of _march along the motion


def _within(r, tol: float) -> bool:
    """Every |r_i| <= tol; false if any r_i is NaN."""
    return abs(r[0]) <= tol and abs(r[1]) <= tol and abs(r[2]) <= tol


def _newton(z, args):
    """Damped Newton iteration on _step_system(z, *args) from z; returns (z, r, motion) at the end.

    Each step is halved until the residual norm falls. The iteration stops
    once max |r| is at rounding level, the Jacobian is singular or the
    residual is not finite, or when no halving lowers the norm.
    """
    r, J, motion = _step_system(z, *args)
    norm2 = r[0] * r[0] + r[1] * r[1] + r[2] * r[2]
    for _ in range(_NEWTON_MAX_ITER):
        if not math.isfinite(norm2) or _within(r, _NEWTON_FLOOR):
            break
        delta = _solve3(J, r)
        if delta is None:
            break
        scale = 1.0
        for _ in range(_NEWTON_MAX_HALVINGS):
            trial = (z[0] - scale * delta[0], z[1] - scale * delta[1], z[2] - scale * delta[2])
            r_t, J_t, motion_t = _step_system(trial, *args)
            norm2_t = r_t[0] * r_t[0] + r_t[1] * r_t[1] + r_t[2] * r_t[2]
            if norm2_t < norm2:
                break
            scale *= 0.5
        else:
            break  # no step along the Newton direction lowers the residual
        z, r, J, motion, norm2 = trial, r_t, J_t, motion_t, norm2_t
    return z, r, motion


def _march(z0, args):
    """Damped Newton for the motion t u, t rising to 1, each solve started from
    the last root with kappa scaled by t, the first from z0, which is exact as
    t -> 0; so it follows the root that continues the push. The first try is
    the whole motion, t = 1; the advance in t halves after a failure and
    doubles after a solve. Returns (z, motion)."""
    a, (ux, uy), fm2, tm2 = args
    s, ds, (fx, fy, rate) = 0.0, 1.0, z0  # rate: kappa per unit of t
    while ds >= _MARCH_MIN_ADVANCE:
        t = min(1.0, s + ds)
        z, r, motion = _newton((fx, fy, rate * t), (a, (t * ux, t * uy), fm2, tm2))
        if not _within(r, _STEP_TOL):
            ds *= 0.5
        elif t == 1.0:
            return z, motion
        else:
            s, ds, (fx, fy, rate) = t, 2.0 * ds, (z[0], z[1], z[2] / t)
    raise NonConvergence("inner step solve failed")


def _solve_step(x0: PlanarPose, p0, p1, params: PushParams):
    """Solve one sticking step: find (f, kappa) and the resulting object pose.

    The twist is parameterized by limit-surface normality, so the motion
    constraint of the quasi-static factor holds identically; the solve only
    enforces the material-point landing and the ellipsoid equation in
    z = (fx, fy, kappa), about the arm p0 - t0 and the motion p1 - p0 (see
    _step_system). _march solves them from the continuous-limit guess, with
    the whole motion first and in growing parts where Newton stalls on it. A
    result is accepted at max |r| <= _STEP_TOL, the landing error counted in
    units of the motion. A root on the mirror branch (kappa < 0: the same
    motion with the force reversed) is turned into the pushing one.
    """
    a = (float(p0[0]) - x0.x, float(p0[1]) - x0.y)
    u = (float(p1[0]) - float(p0[0]), float(p1[1]) - float(p0[1]))
    f_init, kappa_init = _continuous_guess(u, a, params)
    z, motion = _march((*f_init, kappa_init), (a, u, params.f_max**2, params.tau_max**2))
    fx, fy, kappa = z
    if kappa < 0.0:
        fx, fy = -fx, -fy  # mirror branch: same motion, opposite force; pick pushing
    dtx, dty, dtheta = motion
    return PlanarPose(x0.x + dtx, x0.y + dty, x0.theta + dtheta), np.array([fx, fy])


def _advect_contact(ee_pose: PlanarPose, ee_motion, contact):
    """The contact material point carried along with the ee pose increment ee_motion."""
    motion = np.asarray(ee_motion, dtype=float)
    ee_new = PlanarPose(ee_pose.x + motion[0], ee_pose.y + motion[1], ee_pose.theta + motion[2])
    return ee_new.transform_point(ee_pose.inverse_transform_point(contact))


def quasi_static_step(obj_pose: PlanarPose, ee_pose: PlanarPose, ee_motion, contact, params: PushParams):
    """Advance the object one step under a prescribed pusher pose increment.

    ee_motion is the world-frame increment (dx, dy, dtheta) applied to the
    end-effector over the step; contact must lie on both surfaces. Sticking
    contact is assumed, so the object material point at the contact follows
    the pusher. Returns (new_obj_pose, force). A stationary pusher leaves
    the object in place with zero force.
    """
    contact = np.asarray(contact, dtype=float)
    p_new = _advect_contact(ee_pose, ee_motion, contact)
    if float(np.linalg.norm(p_new - contact)) < 1e-13:
        return obj_pose, np.zeros(2)
    return _solve_step(obj_pose, contact, p_new, params)


@dataclass
class GroundTruthTrajectory:
    """Simulator output: exact states plus the physics they satisfy."""

    timestamps: np.ndarray
    object_poses: np.ndarray  # (T, 3)
    ee_poses: np.ndarray  # (T, 3)
    contact_points: np.ndarray  # (T, 2)
    forces: np.ndarray  # (T, 2)
    object_shape: Shape2D
    ee_shape: Shape2D
    params: PushParams
    contact_lost: bool = False

    def __len__(self) -> int:
        return len(self.timestamps)

    def max_dynamics_residual(self) -> float:
        """Largest quasi-static factor residual over all transitions."""
        from .factors import QuasiStaticFactor

        dt = np.diff(self.timestamps)
        pf = np.hstack([self.contact_points[1:], self.forces[1:]])
        r, _ = QuasiStaticFactor.evaluate((np.full(len(dt), self.params.c), dt),
                                          self.object_poses[:-1], self.object_poses[1:], pf)
        return float(np.max(np.abs(r), initial=0.0))

    def max_ellipsoid_deviation(self) -> float:
        """Largest |limit-surface equation - 1| over steps with motion."""
        worst = 0.0
        for t in range(len(self)):
            f = self.forces[t]
            if float(np.linalg.norm(f)) < 1e-12:
                continue  # stationary step, no force on the surface
            tau = cross2(self.contact_points[t] - self.object_poses[t, :2], f)
            worst = max(worst, abs(self.params.ellipsoid_value(f, tau) - 1.0))
        return worst

    def max_contact_surface_error(self) -> float:
        """Largest distance of the contact point from either surface."""
        p = self.contact_points
        a = closest_points_with_jacobians(self.object_shape, self.object_poses, p)[0]
        b = closest_points_with_jacobians(self.ee_shape, self.ee_poses, p)[0]
        return float(np.max(np.linalg.norm(np.concatenate([a - p, b - p]), axis=1)))


def _initial_contact(obj_shape, obj_pose, ee_shape, ee_poses):
    """Shift the whole pusher path so its first pose exactly touches."""
    ee0 = PlanarPose.from_array(ee_poses[0])
    if shapes_intersect(obj_shape, obj_pose, ee_shape, ee0):
        delta, g_delta = deepest_penetration(obj_shape, obj_pose, ee_shape, ee0)
        shift = g_delta - delta
        contact = g_delta
    else:
        a, b = closest_pair(obj_shape, obj_pose, ee_shape, ee0)
        shift = a - b
        contact = a
    shifted = ee_poses.copy()
    shifted[:, :2] += shift
    return shifted, contact


def _run_push(obj_init: PlanarPose, obj_shape, ee_shape, params, ee0: PlanarPose, contact,
              next_pose, T: int, dt: float) -> GroundTruthTrajectory:
    """Shared stepping loop; next_pose(t, obj, ee, contact) yields the pose at t."""
    obj_arr = np.zeros((T, 3))
    ee_arr = np.zeros((T, 3))
    p_arr = np.zeros((T, 2))
    f_arr = np.zeros((T, 2))
    obj_arr[0] = obj_init.as_array()
    ee_arr[0] = ee0.as_array()
    p_arr[0] = contact

    contact_lost = False
    steps_done = T
    x_cur = obj_init
    e_cur = ee0
    p_cur = np.asarray(contact, dtype=float)
    for t in range(1, T):
        e_next = next_pose(t, x_cur, e_cur, p_cur)
        motion = np.array(
            [e_next.x - e_cur.x, e_next.y - e_cur.y, angle_diff(e_next.theta, e_cur.theta)]
        )
        p_next = _advect_contact(e_cur, motion, p_cur)
        u = p_next - p_cur
        unorm = float(np.linalg.norm(u))
        if unorm > 1e-13:
            if np.all(outward_normals(obj_shape, x_cur, p_cur) @ u > 1e-10 * unorm):
                contact_lost = True
                steps_done = t
                break
            if t == 1:
                # force at the first sample: continuous-limit incoming solution
                f_arr[0] = _continuous_guess(u, p_cur - x_cur.translation, params)[0]
        x_cur, f = quasi_static_step(x_cur, e_cur, motion, p_cur, params)
        e_cur = e_next
        # keep the tracked contact on both surfaces; sticking keeps drift tiny
        proj_obj = closest_surface_point(obj_shape, x_cur, p_next)
        proj_ee = closest_surface_point(ee_shape, e_cur, p_next)
        p_cur = 0.5 * (proj_obj + proj_ee)
        obj_arr[t] = x_cur.as_array()
        ee_arr[t] = e_cur.as_array()
        p_arr[t] = p_cur
        f_arr[t] = f

    timestamps = np.arange(T, dtype=float) * dt
    return GroundTruthTrajectory(
        timestamps=timestamps[:steps_done],
        object_poses=obj_arr[:steps_done],
        ee_poses=ee_arr[:steps_done],
        contact_points=p_arr[:steps_done],
        forces=f_arr[:steps_done],
        object_shape=obj_shape,
        ee_shape=ee_shape,
        params=params,
        contact_lost=contact_lost,
    )


def simulate_push(ee_poses, obj_init: PlanarPose, obj_shape: Shape2D, ee_shape: Shape2D,
                  params: PushParams, dt: float) -> GroundTruthTrajectory:
    """Run the pusher along a prescribed pose path and track the object.

    The path is translated rigidly so its first pose touches the object
    (approach resolution). The trajectory is truncated with contact_lost set
    once the pusher retreats from every object face the contact touches.
    """
    ee_poses = np.asarray(ee_poses, dtype=float)
    if ee_poses.ndim != 2 or ee_poses.shape[1] != 3 or len(ee_poses) < 1:
        raise ValueError("ee_poses must be a (T, 3) array")
    ee_poses, contact = _initial_contact(obj_shape, obj_init, ee_shape, ee_poses)

    def next_pose(t, x, e, p):
        return PlanarPose.from_array(ee_poses[t])

    return _run_push(obj_init, obj_shape, ee_shape, params, PlanarPose.from_array(ee_poses[0]),
                     contact, next_pose, len(ee_poses), dt)


def servo_push(obj_init: PlanarPose, obj_shape: Shape2D, ee_shape: Shape2D, params: PushParams,
               speed: float, duration: float, dt: float, steer_angles,
               lateral_offset: float = 0.0, direction: float = 0.0) -> GroundTruthTrajectory:
    """Center-seeking push with a steering profile; keeps contact stable.

    A sticking point contact on a flat face is unstable under open-loop
    pushing (any offset torques the face away until the pusher sheds), so
    sustained pushes aim each step's motion at the object center, rotated by
    the per-step steer angle. The recorded pusher path replays identically
    through simulate_push.
    """
    T = max(1, round(duration / dt))
    steer = np.asarray(steer_angles, dtype=float)
    if len(steer) < T:
        raise ValueError("steer_angles shorter than the trajectory")
    _, ee0 = make_push_scene(obj_shape, ee_shape, direction, lateral_offset)
    path0 = np.tile(ee0.as_array(), (1, 1))
    shifted, contact = _initial_contact(obj_shape, obj_init, ee_shape, path0)
    ee0 = PlanarPose.from_array(shifted[0])

    def next_pose(t, x, e, p):
        aim = x.translation - p
        norm = float(np.linalg.norm(aim))
        d = np.array([math.cos(e.theta), math.sin(e.theta)]) if norm < 1e-12 else aim / norm
        d = rot2(steer[t]) @ d
        heading = math.atan2(d[1], d[0])
        return PlanarPose(e.x + speed * dt * d[0], e.y + speed * dt * d[1], heading)

    return _run_push(obj_init, obj_shape, ee_shape, params, ee0, contact, next_pose, T, dt)


def benchmark_scenario(seed: int, duration: float = 4.0, dt: float = 0.1) -> GroundTruthTrajectory:
    """Deterministic mixed-shape, mixed-steering push for benchmark trials.

    Shapes, friction, speed (<= 10 cm/s), initial geometry, and the steering
    profile all derive from the seed. Contact is maintained for the full
    duration by the servo path generator.
    """
    rng = np.random.default_rng(seed)
    shapes = [
        Shape2D.box(0.1, 0.1),
        Shape2D.disc(0.06),
        Shape2D.ellipse(0.08, 0.05),
        Shape2D.box(0.12, 0.08),
    ]
    obj_shape = shapes[seed % len(shapes)]
    ee_shape = Shape2D.disc(0.008)
    mu = rng.uniform(0.25, 0.45)
    mass = rng.uniform(0.6, 1.2)
    params = limit_surface_constants(obj_shape, mu, mass)
    speed = rng.uniform(0.05, 0.08)
    T = max(1, round(duration / dt))
    steer = steering_profile(T, dt, seed=seed + 10_000, amplitude=rng.uniform(0.2, 0.35))
    gt = servo_push(
        PlanarPose.identity(), obj_shape, ee_shape, params, speed, duration, dt, steer,
        lateral_offset=rng.uniform(-0.01, 0.01), direction=rng.uniform(-math.pi, math.pi),
    )
    return gt


def steering_profile(T: int, dt: float, seed: int, amplitude: float) -> np.ndarray:
    """Per-step steer angles for servo pushes: a random walk, deterministic per seed.

    The walk starts uniform in [-amplitude, amplitude], takes Gaussian steps
    of standard deviation amplitude * sqrt(dt), and is clipped to that range.
    """
    if not math.isfinite(amplitude):
        raise ValueError(f"steering amplitude must be finite, got {amplitude}")
    rng = np.random.default_rng(seed)
    out = np.zeros(T)
    val = rng.uniform(-amplitude, amplitude)
    for i in range(T):
        val = np.clip(val + rng.normal(0.0, amplitude) * math.sqrt(dt), -amplitude, amplitude)
        out[i] = val
    return out


# ---------------------------------------------------------------------------
# pusher path families and scene setup
# ---------------------------------------------------------------------------


def make_push_scene(obj_shape: Shape2D, ee_shape: Shape2D, direction: float = 0.0,
                    lateral_offset: float = 0.0) -> tuple[PlanarPose, PlanarPose]:
    """Object at the origin and a pusher placed just behind it.

    direction is the intended push heading (rad); lateral_offset shifts the
    contact sideways to induce rotation. The exact touch is resolved by
    simulate_push, this only needs to be close.
    """
    obj_pose = PlanarPose.identity()
    d = np.array([math.cos(direction), math.sin(direction)])
    perp = np.array([-d[1], d[0]])
    far = -3.0 * obj_shape.max_radius() * d + lateral_offset * perp
    p0 = closest_surface_point(obj_shape, obj_pose, far)
    n = outward_normals(obj_shape, obj_pose, p0)[0]
    center = p0 + ee_shape.max_radius() * n
    return obj_pose, PlanarPose(center[0], center[1], direction)


def straight_path(start: PlanarPose, speed: float, duration: float, dt: float) -> np.ndarray:
    """Constant-velocity pusher path along the start heading."""
    n = max(1, round(duration / dt))
    t = np.arange(n) * dt
    d = np.array([math.cos(start.theta), math.sin(start.theta)])
    poses = np.zeros((n, 3))
    poses[:, 0] = start.x + speed * t * d[0]
    poses[:, 1] = start.y + speed * t * d[1]
    poses[:, 2] = start.theta
    return poses


def arc_path(start: PlanarPose, speed: float, curvature: float, duration: float, dt: float) -> np.ndarray:
    """Constant-speed, constant-curvature pusher path."""
    n = max(1, round(duration / dt))
    poses = np.zeros((n, 3))
    x, y, th = start.x, start.y, start.theta
    for i in range(n):
        poses[i] = [x, y, th]
        x += speed * dt * math.cos(th)
        y += speed * dt * math.sin(th)
        th += speed * curvature * dt
    poses[:, 2] = np.array([PlanarPose(0, 0, a).theta for a in poses[:, 2]])
    return poses

