"""SE(2)/SE(3) pose algebra, planar shapes, and closest-point / penetration queries.

Conventions: poses are world-from-body transforms, angles in radians wrapped
to (-pi, pi], lengths in meters. Shapes are stored in body frame with their
area centroid at the origin (the center of mass under uniform density).

Each shape query (closest point, signed distance, overlap, closest pair)
is one kernel over arrays of poses and points, row by row. The factors
call it on blocks of rows; the query of the same name on PlanarPose
objects is its one-row call, so the simulator's ground truth and the
factors share one geometry. The row-wise queries the factors differentiate
return their Jacobians with their values: closest_points_with_jacobians
its point, closest_pairs the gap between its pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateProjection

TWO_PI = 2.0 * math.pi

EYE2 = np.eye(2)
EYE2.setflags(write=False)


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    w = math.fmod(theta + math.pi, TWO_PI)
    if w <= 0.0:
        w += TWO_PI
    return w - math.pi


def angle_diff(a: float, b: float) -> float:
    """Shortest-arc difference a - b, in (-pi, pi]."""
    return wrap_angle(a - b)


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """wrap_angle over an array, with the same bits per element."""
    w = np.fmod(theta + math.pi, TWO_PI)
    return np.where(w <= 0.0, w + TWO_PI, w) - math.pi


def rot2(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def rot2_many(theta: np.ndarray) -> np.ndarray:
    """Rotation matrices (N, 2, 2) for N angles."""
    c, s = np.cos(theta), np.sin(theta)
    R = np.empty(np.shape(theta) + (2, 2))
    R[..., 0, 0] = c
    R[..., 0, 1] = -s
    R[..., 1, 0] = s
    R[..., 1, 1] = c
    return R


_SKEW_SIGNS = np.array([-1.0, 1.0])


def skew_many(v: np.ndarray) -> np.ndarray:
    """The 2-D rotation generator [[0, -1], [1, 0]] applied to every row of v (..., 2): (-v1, v0)."""
    return v[..., ::-1] * _SKEW_SIGNS


def cross2(a, b) -> float:
    """z-component of the 3-D cross product of two planar vectors."""
    return a[0] * b[1] - a[1] * b[0]


# ---------------------------------------------------------------------------
# planar poses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanarPose:
    """SE(2) element (x, y, theta); theta is wrapped at construction."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "theta", wrap_angle(float(self.theta)))

    @classmethod
    def identity(cls) -> "PlanarPose":
        return cls(0.0, 0.0, 0.0)

    @classmethod
    def from_array(cls, arr) -> "PlanarPose":
        return cls(arr[0], arr[1], arr[2])

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.theta])

    @property
    def translation(self) -> np.ndarray:
        return np.array([self.x, self.y])

    def rotation(self) -> np.ndarray:
        return rot2(self.theta)

    def transform_point(self, q) -> np.ndarray:
        """Body-frame point to world frame."""
        return self.rotation() @ np.asarray(q, dtype=float) + self.translation

    def inverse_transform_point(self, q) -> np.ndarray:
        """World-frame point to body frame."""
        return self.rotation().T @ (np.asarray(q, dtype=float) - self.translation)


# ---------------------------------------------------------------------------
# 3-D poses and the pushing plane
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Pose3:
    """Rigid 3-D pose: translation plus unit quaternion (w, x, y, z).

    The quaternion is normalized on construction, unless it is of unit norm
    to rounding already. rotation_matrix and from_matrix convert in closed
    form: the standard quaternion-to-matrix formula, and Shepperd's method
    back, which reads the quaternion off the row of 4 q q^T with the
    largest diagonal entry, so that it never divides by a small component.
    """

    translation: np.ndarray
    quaternion: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=float).reshape(3)
        q = np.asarray(self.quaternion, dtype=float).reshape(4)
        n = np.linalg.norm(q)
        if n < 1e-9:
            raise ValueError("quaternion norm is zero")
        # a quaternion already of unit norm to rounding is kept as given:
        # dividing by a norm an ulp off 1 would change its bits, so a pose
        # written to a file would not read back as the same pose
        if abs(n - 1.0) > 4.0 * np.finfo(float).eps:
            q = q / n
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "quaternion", q)

    @classmethod
    def from_matrix(cls, t, rot: np.ndarray) -> "Pose3":
        """The pose of translation t and rotation matrix rot (Shepperd, 1978)."""
        m = np.asarray(rot, dtype=float)
        trace = m[0, 0] + m[1, 1] + m[2, 2]
        # 4 q q^T in (w, x, y, z) order
        outer = np.array([
            [1.0 + trace, m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]],
            [m[2, 1] - m[1, 2], 1.0 + 2.0 * m[0, 0] - trace, m[0, 1] + m[1, 0], m[0, 2] + m[2, 0]],
            [m[0, 2] - m[2, 0], m[0, 1] + m[1, 0], 1.0 + 2.0 * m[1, 1] - trace, m[1, 2] + m[2, 1]],
            [m[1, 0] - m[0, 1], m[0, 2] + m[2, 0], m[1, 2] + m[2, 1], 1.0 + 2.0 * m[2, 2] - trace],
        ])
        i = int(np.argmax(np.diag(outer)))
        # row i is 4 q_i q, and q_i^2 >= 1/4 as the largest of four squares summing to 1
        return cls(np.asarray(t, dtype=float), outer[i] / math.sqrt(outer[i, i]))

    def rotation_matrix(self) -> np.ndarray:
        w, x, y, z = self.quaternion
        return np.array([
            [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
            [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
            [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
        ])


@dataclass(frozen=True, eq=False)
class Plane3:
    """Pushing plane: origin, unit normal, and an in-plane unit x-axis."""

    origin: np.ndarray
    normal: np.ndarray
    x_axis: np.ndarray

    def __post_init__(self):
        o = np.asarray(self.origin, dtype=float).reshape(3)
        n = np.asarray(self.normal, dtype=float).reshape(3)
        x = np.asarray(self.x_axis, dtype=float).reshape(3)
        if abs(np.linalg.norm(n) - 1.0) > 1e-9 or abs(np.linalg.norm(x) - 1.0) > 1e-9:
            raise ValueError("plane axes must be unit length")
        if abs(float(n @ x)) > 1e-9:
            raise ValueError("plane x-axis must be perpendicular to the normal")
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "x_axis", x)

    @classmethod
    def xy(cls) -> "Plane3":
        return cls(np.zeros(3), np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))

    @property
    def y_axis(self) -> np.ndarray:
        return np.cross(self.normal, self.x_axis)


def project_to_plane(p: Pose3, plane: Plane3) -> PlanarPose:
    """Project an SE(3) pose into plane coordinates.

    Translation is projected orthogonally; theta is the yaw of the body
    x-axis projected into the plane. Raises DegenerateProjection when that
    axis is within 1e-6 rad of the plane normal.
    """
    d = p.translation - plane.origin
    u = float(d @ plane.x_axis)
    v = float(d @ plane.y_axis)
    axis = p.rotation_matrix()[:, 0]
    ax = float(axis @ plane.x_axis)
    ay = float(axis @ plane.y_axis)
    if math.hypot(ax, ay) < math.sin(1e-6):
        raise DegenerateProjection("body x-axis is aligned with the plane normal")
    return PlanarPose(u, v, math.atan2(ay, ax))


def embed_in_plane(pp: PlanarPose, plane: Plane3) -> Pose3:
    """Inverse of project_to_plane for poses lying in the plane."""
    t = plane.origin + pp.x * plane.x_axis + pp.y * plane.y_axis
    base = np.column_stack([plane.x_axis, plane.y_axis, plane.normal])
    rz = np.eye(3)
    rz[:2, :2] = rot2(pp.theta)
    return Pose3.from_matrix(t, base @ rz)


# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------

BOUNDARY_SUBDIVISIONS = 32  # boundary_samples_body points per polygon edge


def _positive(name: str, value: float) -> float:
    """value as a float; raises ValueError naming it unless finite and positive."""
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return value


@dataclass(frozen=True, eq=False)
class Shape2D:
    """Disc or convex CCW polygon, body-frame centroid at the origin."""

    kind: str  # "disc" | "polygon"
    radius: float = 0.0
    vertices: np.ndarray | None = None

    @classmethod
    def disc(cls, radius: float) -> "Shape2D":
        return cls("disc", radius=_positive("disc radius", radius))

    @classmethod
    def polygon(cls, vertices) -> "Shape2D":
        """Convex CCW polygon; vertices are recentered on the area centroid."""
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
            raise ValueError("polygon needs an (N, 2) vertex array with N >= 3")
        if not np.all(np.isfinite(v)):
            raise ValueError("polygon vertices must be finite")
        nxt = np.roll(v, -1, axis=0)
        w = cross2(v.T, nxt.T)  # twice the signed area of each fan triangle
        area2 = float(w.sum())
        if area2 <= 0.0:
            raise ValueError("polygon vertices must be counter-clockwise")
        e = nxt - v
        if np.any(cross2(e.T, np.roll(e, -1, axis=0).T) <= 1e-12 * area2):
            raise ValueError("polygon must be strictly convex")
        v = v - ((v + nxt) * w[:, None]).sum(axis=0) / (3.0 * area2)
        v.setflags(write=False)
        return cls("polygon", vertices=v)

    @classmethod
    def box(cls, width: float, height: float) -> "Shape2D":
        hw, hh = _positive("box width", width) / 2.0, _positive("box height", height) / 2.0
        return cls.polygon([[hw, -hh], [hw, hh], [-hw, hh], [-hw, -hh]])

    @classmethod
    def ellipse(cls, a: float, b: float) -> "Shape2D":
        """Ellipse with semi-axes a, b approximated by a 64-gon."""
        a, b = _positive("ellipse semi-axis a", a), _positive("ellipse semi-axis b", b)
        ang = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        return cls.polygon(np.column_stack([a * np.cos(ang), b * np.sin(ang)]))

    def area(self) -> float:
        if self.kind == "disc":
            return math.pi * self.radius**2
        v = self.vertices
        return float(cross2(v.T, np.roll(v, -1, axis=0).T).sum()) / 2.0

    def max_radius(self) -> float:
        if self.kind == "disc":
            return self.radius
        return float(np.max(np.linalg.norm(self.vertices, axis=1)))

    # -- body-frame queries (edge arrays cached, vectorized over rows and edges)

    @cached_property
    def _edge_start(self) -> np.ndarray:
        return self.vertices

    @cached_property
    def _edge_dir(self) -> np.ndarray:
        return np.roll(self.vertices, -1, axis=0) - self.vertices

    @cached_property
    def _edge_len2(self) -> np.ndarray:
        return np.einsum("ij,ij->i", self._edge_dir, self._edge_dir)

    @cached_property
    def _edge_normals(self) -> np.ndarray:
        d = self._edge_dir
        n = np.column_stack([d[:, 1], -d[:, 0]])
        return n / np.linalg.norm(n, axis=1, keepdims=True)

    def _project_edges(self, q: np.ndarray):
        """Clamped projection of body-frame points q (N, 2) on every edge.

        Returns the projected points (N, E, 2), the unclamped edge
        parameters t (N, E) and the squared distances (N, E).
        """
        a = self._edge_start  # (E, 2)
        d = self._edge_dir
        t = (q @ d.T - np.einsum("ij,ij->i", a, d)) / self._edge_len2
        cand = a + np.clip(t, 0.0, 1.0)[:, :, None] * d
        diff = q[:, None, :] - cand
        return cand, t, np.einsum("nej,nej->ne", diff, diff)

    def closest_points_body(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Closest boundary points of a polygon to body-frame points q (N, 2).

        Works for q inside or outside. Returns the points (N, 2) and their
        Jacobians wrt q (N, 2, 2): the derivative of the boundary projection
        in the current feature region, edge or vertex.
        """
        cand, t, d2 = self._project_edges(q)
        rows = np.arange(len(q))
        i = np.argmin(d2, axis=1)
        ti = t[rows, i]
        dhat = self._edge_dir[i] / np.sqrt(self._edge_len2[i])[:, None]
        interior = ((ti > 0.0) & (ti < 1.0))[:, None, None]
        jac = np.where(interior, dhat[:, :, None] * dhat[:, None, :], 0.0)
        return cand[rows, i], jac

    def signed_distance_many_body(self, pts: np.ndarray) -> np.ndarray:
        """Signed distances for an (N, 2) batch of body-frame points."""
        pts = np.asarray(pts, dtype=float)
        if self.kind == "disc":
            return np.linalg.norm(pts, axis=1) - self.radius
        _, _, d2 = self._project_edges(pts)
        dist = np.sqrt(np.min(d2, axis=1))
        d = self._edge_dir
        rel = pts[:, None, :] - self._edge_start  # (N, E, 2)
        inside = np.all(d[:, 0] * rel[:, :, 1] - d[:, 1] * rel[:, :, 0] >= 0.0, axis=1)
        return np.where(inside, -dist, dist)

    def boundary_samples_body(self) -> np.ndarray:
        """Vertices plus BOUNDARY_SUBDIVISIONS points per edge (polygons only)."""
        if self.kind != "polygon":
            raise ValueError("boundary sampling applies to polygons")
        k = np.arange(BOUNDARY_SUBDIVISIONS) / BOUNDARY_SUBDIVISIONS
        return (self.vertices[:, None, :] + self._edge_dir[:, None, :] * k[:, None]).reshape(-1, 2)


# ---------------------------------------------------------------------------
# world-frame queries on PlanarPose objects: one-row calls of the kernels below
# ---------------------------------------------------------------------------


def closest_surface_point(shape: Shape2D, pose: PlanarPose, q) -> np.ndarray:
    """Boundary point of the posed shape closest to query q (world frame)."""
    g, _, _ = closest_point_with_jacobians(shape, pose, q)
    return g


def closest_point_with_jacobians(shape: Shape2D, pose: PlanarPose, q):
    """Closest boundary point G plus dG/dq (2x2) and dG/dpose (2x3).

    The pose Jacobian columns are [d/dtx, d/dty, d/dtheta].
    """
    g, dg_dq, dg_dpose = closest_points_with_jacobians(shape, pose.as_array()[None],
                                                       np.asarray(q, dtype=float)[None])
    return g[0], dg_dq[0], dg_dpose[0]


def signed_distance(shape: Shape2D, pose: PlanarPose, q) -> float:
    """Signed distance to the posed shape: negative inside, zero on boundary."""
    return float(signed_distances(shape, pose.as_array()[None], np.asarray(q, dtype=float)[None])[0])


def outward_normals(shape: Shape2D, pose: PlanarPose, q) -> np.ndarray:
    """Outward unit normals (K, 2) of the faces that a point q on the posed shape's boundary touches.

    A polygon's are those of the edges within 1e-9 of q's nearest edge,
    nearest first (the lower index on a tie): one inside an edge, both
    edges' at a corner. A disc's one points from its center to q; at the
    center it is the body's +x.
    """
    R = pose.rotation()
    if shape.kind == "disc":
        d = np.asarray(q, dtype=float) - pose.translation
        rho = math.hypot(d[0], d[1])
        return (R[:, 0] if rho < 1e-12 else d / rho)[None]
    _, _, d2 = shape._project_edges(pose.inverse_transform_point(q)[None])
    dist = np.sqrt(d2[0])
    order = np.argsort(dist, kind="stable")
    return np.array([R @ shape._edge_normals[i] for i in order[dist[order] <= dist[order[0]] + 1e-9]])


def shapes_intersect(shape_a: Shape2D, pose_a: PlanarPose, shape_b: Shape2D, pose_b: PlanarPose) -> bool:
    """Exact open-set overlap test; boundary tangency counts as separate."""
    return bool(shapes_intersect_many(shape_a, pose_a.as_array()[None], shape_b, pose_b.as_array()[None])[0])


def deepest_penetration(obj_shape: Shape2D, obj_pose: PlanarPose, ee_shape: Shape2D, ee_pose: PlanarPose):
    """Deepest end-effector boundary point inside the object, if any.

    Returns None when the shapes do not overlap (tangency counts as no
    overlap); otherwise (delta, g_delta) with delta on the ee boundary and
    g_delta its projection onto the object boundary.
    """
    if not shapes_intersect(obj_shape, obj_pose, ee_shape, ee_pose):
        return None
    delta = deepest_ee_points(obj_shape, obj_pose.as_array()[None], ee_shape,
                              ee_pose.as_array()[None])[0][0]
    g_delta = closest_surface_point(obj_shape, obj_pose, delta)
    return delta, g_delta


def closest_pair(shape_a: Shape2D, pose_a: PlanarPose, shape_b: Shape2D, pose_b: PlanarPose):
    """Closest boundary points (a, b) between two separated convex shapes."""
    a, b, _, _ = closest_pairs(shape_a, pose_a.as_array()[None], shape_b, pose_b.as_array()[None])
    return a[0], b[0]


# ---------------------------------------------------------------------------
# row-wise kernels over pose arrays
# ---------------------------------------------------------------------------
# Row n of every argument belongs together: poses are (N, 3) arrays of
# (x, y, theta), points (N, 2).


def _to_body(poses: np.ndarray, q: np.ndarray) -> np.ndarray:
    """World points q (N, ..., 2) in the body frames of poses (N, 3)."""
    shape = (len(poses),) + (1,) * (q.ndim - 2)
    c = np.cos(poses[:, 2]).reshape(shape)
    s = np.sin(poses[:, 2]).reshape(shape)
    dx = q[..., 0] - poses[:, 0].reshape(shape)
    dy = q[..., 1] - poses[:, 1].reshape(shape)
    return np.stack([c * dx + s * dy, c * dy - s * dx], axis=-1)


def _to_world(poses: np.ndarray, body: np.ndarray) -> np.ndarray:
    """Body points (K, 2) in the world frames of poses (N, 3): (N, K, 2)."""
    return np.einsum("nij,kj->nki", rot2_many(poses[:, 2]), body) + poses[:, None, :2]


def _apply(R: np.ndarray, v: np.ndarray) -> np.ndarray:
    """R[n] @ v[n] for every row n."""
    return (R @ v[:, :, None])[:, :, 0]


def closest_points_with_jacobians(shape: Shape2D, poses: np.ndarray, q: np.ndarray):
    """Closest boundary points G (N, 2) with dG/dq (N, 2, 2) and dG/dpose (N, 2, 3).

    The pose Jacobian columns are [d/dtx, d/dty, d/dtheta].
    """
    rq = q - poses[:, :2]
    dg_dpose = np.empty((len(q), 2, 3))
    if shape.kind == "disc":
        # in the world frame: a disc's closest point does not turn with the
        # disc, except at the center, where the body frame's +x is picked
        rho = np.hypot(rq[:, 0], rq[:, 1])
        center = rho < 1e-12
        rho = np.where(center, 1.0, rho)
        n = rq / rho[:, None]
        dg_dq = (shape.radius / rho)[:, None, None] * (EYE2 - n[:, :, None] * n[:, None, :])
        dg_dpose[:, :, 2] = 0.0
        if center.any():
            theta = poses[center, 2]
            n[center] = np.column_stack([np.cos(theta), np.sin(theta)])
            dg_dq[center] = 0.0
            dg_dpose[center, :, 2] = shape.radius * skew_many(n[center])
        rg = shape.radius * n
    else:
        R = rot2_many(poses[:, 2])
        Rt = R.transpose(0, 2, 1)
        gb, jac_b = shape.closest_points_body(_apply(Rt, rq))
        rg = _apply(R, gb)
        dg_dq = R @ jac_b @ Rt
        # G - t turns with the pose and q - t turns against it
        dg_dpose[:, :, 2] = skew_many(rg) - _apply(dg_dq, skew_many(rq))
    dg_dpose[:, :, :2] = EYE2 - dg_dq
    return rg + poses[:, :2], dg_dq, dg_dpose


def signed_distances(shape: Shape2D, poses: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Signed distances, negative inside and zero on the boundary; q is (N, 2) or (N, K, 2)."""
    body = _to_body(poses, q)
    return shape.signed_distance_many_body(body.reshape(-1, 2)).reshape(body.shape[:-1])


def shapes_intersect_many(shape_a: Shape2D, poses_a: np.ndarray, shape_b: Shape2D,
                          poses_b: np.ndarray) -> np.ndarray:
    """Exact open-set overlap test as a boolean (N,) array; tangency counts as separate."""
    if shape_a.kind == "disc" and shape_b.kind == "disc":
        d = poses_a[:, :2] - poses_b[:, :2]
        return np.hypot(d[:, 0], d[:, 1]) < shape_a.radius + shape_b.radius
    if shape_a.kind == "disc":
        return signed_distances(shape_b, poses_b, poses_a[:, :2]) < shape_a.radius
    if shape_b.kind == "disc":
        return signed_distances(shape_a, poses_a, poses_b[:, :2]) < shape_b.radius
    # polygon vs polygon: separating-axis test on both edge normal sets
    va, vb = _to_world(poses_a, shape_a.vertices), _to_world(poses_b, shape_b.vertices)
    axes = skew_many(np.concatenate([np.roll(va, -1, axis=1) - va, np.roll(vb, -1, axis=1) - vb], axis=1))
    pa = np.einsum("nkj,nvj->nkv", axes, va)
    pb = np.einsum("nkj,nvj->nkv", axes, vb)
    overlap = np.minimum(pa.max(axis=2), pb.max(axis=2)) - np.maximum(pa.min(axis=2), pb.min(axis=2))
    return np.all(overlap > 0.0, axis=1)


def _point_jacobian(p: np.ndarray, poses: np.ndarray) -> np.ndarray:
    """Jacobians (N, 2, 3) of points p (N, 2) fixed in the bodies at poses: [I, skew(p - t)]."""
    jac = np.empty((len(p), 2, 3))
    jac[:, :, :2] = EYE2
    jac[:, :, 2] = skew_many(p - poses[:, :2])
    return jac


def closest_pairs(shape_a: Shape2D, poses_a: np.ndarray, shape_b: Shape2D, poses_b: np.ndarray):
    """Closest boundary points a, b (N, 2) between two separated convex shapes,
    and the Jacobians ja, jb (N, 2, 3) of the gap a - b wrt poses_a and poses_b.

    Each pair is a chain of at most two closest-point queries G, so its
    Jacobians are the chain rule through them, with K = I - dG_b/dq at a:
      - disc b: a = G_a(c_b), b = c_b + r_b n on the ray to its center and
        K = I - (r_b / rho)(I - n n^T); the disc's angle leaves the gap. A
        disc a against a polygon b swaps the arguments.
      - two polygons are nearest at a vertex of one of them: a vertex a and
        b = G_b(a) give ja = K [I, skew(a - t_a)] and jb = -dG_b/dpose, a
        vertex of b the mirror case. Parallel facing edges tie along their
        overlap; there the pair in front of b's center, a = G_a(c_b) and
        b = G_b(a), is kept, so a flat pusher touches where it was aimed.
    Callers must handle the overlapping case themselves.
    """
    if shape_b.kind == "disc":
        # min over the disc is attained along the ray to its center
        c = poses_b[:, :2]
        a, dg_dq, dg_dpose = closest_points_with_jacobians(shape_a, poses_a, c)
        d = a - c
        rho = np.hypot(d[:, 0], d[:, 1])
        n = d / rho[:, None]
        K = EYE2 - (shape_b.radius / rho)[:, None, None] * (EYE2 - n[:, :, None] * n[:, None, :])
        jb = np.zeros((len(a), 2, 3))
        jb[:, :, :2] = K @ (dg_dq - EYE2)
        return a, c + shape_b.radius * n, K @ dg_dpose, jb
    if shape_a.kind == "disc":
        b, a, jb, ja = closest_pairs(shape_b, poses_b, shape_a, poses_a)
        return a, b, -ja, -jb
    rows = np.arange(len(poses_a))
    ea, eb = len(shape_a.vertices), len(shape_b.vertices)
    va, vb = _to_world(poses_a, shape_a.vertices), _to_world(poses_b, shape_b.vertices)
    # row n * eb + k projects vertex k of b onto a, row n * ea + k vertex k of a onto b
    on_a, a_dq, a_dpose = closest_points_with_jacobians(shape_a, np.repeat(poses_a, eb, axis=0),
                                                        vb.reshape(-1, 2))
    on_b, b_dq, b_dpose = closest_points_with_jacobians(shape_b, np.repeat(poses_b, ea, axis=0),
                                                        va.reshape(-1, 2))
    a = np.concatenate([va, on_a.reshape(vb.shape)], axis=1)  # (N, Ea + Eb, 2)
    b = np.concatenate([on_b.reshape(va.shape), vb], axis=1)
    i = np.argmin(np.einsum("nkj,nkj->nk", a - b, a - b), axis=1)
    a, b = a[rows, i], b[rows, i]
    of_a = (i < ea)[:, None, None]
    k_b = rows * ea + np.minimum(i, ea - 1)
    k_a = rows * eb + np.maximum(i - ea, 0)
    ja = np.where(of_a, (EYE2 - b_dq[k_b]) @ _point_jacobian(a, poses_a), a_dpose[k_a])
    jb = np.where(of_a, -b_dpose[k_b], (a_dq[k_a] - EYE2) @ _point_jacobian(b, poses_b))
    a0, a0_dq, a0_dpose = closest_points_with_jacobians(shape_a, poses_a, poses_b[:, :2])
    b0, b0_dq, b0_dpose = closest_points_with_jacobians(shape_b, poses_b, a0)
    K = EYE2 - b0_dq
    jb0 = -b0_dpose
    jb0[:, :, :2] = K @ (a0_dq - EYE2)
    front = np.linalg.norm(a0 - b0, axis=1) <= np.linalg.norm(a - b, axis=1) + 1e-12
    f2, f3 = front[:, None], front[:, None, None]
    return (np.where(f2, a0, a), np.where(f2, b0, b), np.where(f3, K @ a0_dpose, ja),
            np.where(f3, jb0, jb))


def deepest_ee_points(obj_shape: Shape2D, obj_poses: np.ndarray, ee_shape: Shape2D,
                      ee_poses: np.ndarray):
    """Point on each ee boundary with the most-negative object signed distance.

    Returns delta (N, 2) and its Jacobians (N, 2, 3) with respect to the
    object pose and the ee pose. A polygon ee is sampled at its
    boundary_samples_body points; a disc ee is exact: the point on the
    line of centres against a disc object, the best edge-normal or vertex
    direction against a polygon. Where that direction is undefined
    (concentric discs) it is +x and its Jacobian term is zero.
    """
    n_rows = len(obj_poses)
    rows = np.arange(n_rows)
    c = ee_poses[:, :2]
    d_dx = np.zeros((n_rows, 2, 3))
    d_de = np.zeros((n_rows, 2, 3))
    d_de[:, :, :2] = EYE2
    if ee_shape.kind == "polygon":
        samples = ee_shape.boundary_samples_body()
        arm = np.einsum("nij,sj->nsi", rot2_many(ee_poses[:, 2]), samples)  # (N, S, 2)
        i = np.argmin(signed_distances(obj_shape, obj_poses, arm + c[:, None, :]), axis=1)
        d_de[:, :, 2] = skew_many(arm[rows, i])
        return arm[rows, i] + c, d_dx, d_de

    r_e = ee_shape.radius
    if obj_shape.kind == "disc":
        d = c - obj_poses[:, :2]
        rho = np.hypot(d[:, 0], d[:, 1])
        center = rho < 1e-12
        rho = np.where(center, 1.0, rho)
        n = d / rho[:, None]
        n[center] = (1.0, 0.0)
        K = (EYE2 - n[:, :, None] * n[:, None, :]) / rho[:, None, None]
        K[center] = 0.0
        d_de[:, :, :2] -= r_e * K
        d_dx[:, :, :2] = r_e * K
        return c - r_e * n, d_dx, d_de

    # disc ee against polygon object: candidate per edge normal and vertex
    n_edges = len(obj_shape.vertices)
    R = rot2_many(obj_poses[:, 2])
    normals = np.einsum("nij,ej->nei", R, obj_shape._edge_normals)  # (N, E, 2)
    arm = np.einsum("nij,ej->nei", R, obj_shape.vertices)  # vertices from the object origin
    dv = arm + (obj_poses[:, None, :2] - c[:, None, :])  # vertices from the ee center
    rho = np.sqrt(np.einsum("nej,nej->ne", dv, dv))
    coincide = rho < 1e-12
    rho = np.where(coincide, 1.0, rho)
    u = dv / rho[:, :, None]
    cands = np.concatenate([c[:, None, :] - r_e * normals, c[:, None, :] + r_e * u], axis=1)
    sd = signed_distances(obj_shape, obj_poses, cands)
    sd[:, n_edges:][coincide] = math.inf  # vertex coincides with the center
    i = np.argmin(sd, axis=1)
    edge = (i < n_edges)[:, None]
    j = np.where(i < n_edges, i, i - n_edges)
    # an edge point sits at -r_e n_w from the center, n_w turning with the
    # object; a vertex point faces the vertex from the center
    uj = u[rows, j]
    Mu = (EYE2 - uj[:, :, None] * uj[:, None, :]) / rho[rows, j][:, None, None]
    d_de[:, :, :2] -= np.where(edge[:, :, None], 0.0, r_e * Mu)
    d_dx[:, :, :2] = np.where(edge[:, :, None], 0.0, r_e * Mu)
    d_dx[:, :, 2] = np.where(edge, -r_e * skew_many(normals[rows, j]),
                             r_e * np.einsum("nij,nj->ni", Mu, skew_many(arm[rows, j])))
    return cands[rows, i], d_dx, d_de
