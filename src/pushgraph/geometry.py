"""SE(2)/SE(3) pose algebra, planar shapes, and closest-point / penetration queries.

Conventions: poses are world-from-body transforms, angles in radians wrapped
to (-pi, pi], lengths in meters. Shapes are stored in body frame with their
area centroid at the origin (the center of mass under uniform density).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial.transform import Rotation

from .errors import DegenerateProjection

TWO_PI = 2.0 * math.pi

# 2-D rotation generator: d/dtheta R(theta) = SKEW @ R(theta)
SKEW = np.array([[0.0, -1.0], [1.0, 0.0]])


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    w = math.fmod(theta + math.pi, TWO_PI)
    if w <= 0.0:
        w += TWO_PI
    return w - math.pi


def angle_diff(a: float, b: float) -> float:
    """Shortest-arc difference a - b, in (-pi, pi]."""
    return wrap_angle(a - b)


def rot2(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


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

    def compose(self, other: "PlanarPose") -> "PlanarPose":
        c, s = math.cos(self.theta), math.sin(self.theta)
        return PlanarPose(
            self.x + c * other.x - s * other.y,
            self.y + s * other.x + c * other.y,
            self.theta + other.theta,
        )

    def inverse(self) -> "PlanarPose":
        c, s = math.cos(self.theta), math.sin(self.theta)
        return PlanarPose(-(c * self.x + s * self.y), -(-s * self.x + c * self.y), -self.theta)

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
    """Rigid 3-D pose: translation plus unit quaternion (w, x, y, z)."""

    translation: np.ndarray
    quaternion: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=float).reshape(3)
        q = np.asarray(self.quaternion, dtype=float).reshape(4)
        n = np.linalg.norm(q)
        if n < 1e-9:
            raise ValueError("quaternion norm is zero")
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "quaternion", q / n)

    @classmethod
    def identity(cls) -> "Pose3":
        return cls(np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]))

    @classmethod
    def from_matrix(cls, t, rot: np.ndarray) -> "Pose3":
        q = Rotation.from_matrix(rot).as_quat()  # (x, y, z, w)
        return cls(np.asarray(t, dtype=float), np.array([q[3], q[0], q[1], q[2]]))

    def rotation_matrix(self) -> np.ndarray:
        w, x, y, z = self.quaternion
        return Rotation.from_quat([x, y, z, w]).as_matrix()


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
    def xy(cls, z: float = 0.0) -> "Plane3":
        return cls(np.array([0.0, 0.0, z]), np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))

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


@dataclass(frozen=True, eq=False)
class Shape2D:
    """Disc or convex CCW polygon, body-frame centroid at the origin."""

    kind: str  # "disc" | "polygon"
    radius: float = 0.0
    vertices: np.ndarray | None = None

    @classmethod
    def disc(cls, radius: float) -> "Shape2D":
        if radius <= 0.0:
            raise ValueError("disc radius must be positive")
        return cls("disc", radius=float(radius))

    @classmethod
    def polygon(cls, vertices) -> "Shape2D":
        """Convex CCW polygon; vertices are recentered on the area centroid."""
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
            raise ValueError("polygon needs an (N, 2) vertex array with N >= 3")
        area2 = 0.0
        for i in range(len(v)):
            area2 += cross2(v[i], v[(i + 1) % len(v)])
        if area2 <= 0.0:
            raise ValueError("polygon vertices must be counter-clockwise")
        scale = math.sqrt(abs(area2))
        for i in range(len(v)):
            e0 = v[(i + 1) % len(v)] - v[i]
            e1 = v[(i + 2) % len(v)] - v[(i + 1) % len(v)]
            if cross2(e0, e1) <= 1e-12 * scale * scale:
                raise ValueError("polygon must be strictly convex")
        cx = cy = 0.0
        for i in range(len(v)):
            w = cross2(v[i], v[(i + 1) % len(v)])
            cx += (v[i, 0] + v[(i + 1) % len(v), 0]) * w
            cy += (v[i, 1] + v[(i + 1) % len(v), 1]) * w
        centroid = np.array([cx, cy]) / (3.0 * area2)
        v = v - centroid
        v.setflags(write=False)
        return cls("polygon", vertices=v)

    @classmethod
    def box(cls, width: float, height: float) -> "Shape2D":
        hw, hh = width / 2.0, height / 2.0
        return cls.polygon([[hw, -hh], [hw, hh], [-hw, hh], [-hw, -hh]])

    @classmethod
    def ellipse(cls, a: float, b: float, n: int = 64) -> "Shape2D":
        """Ellipse with semi-axes a, b approximated by an n-gon."""
        ang = np.linspace(0.0, TWO_PI, n, endpoint=False)
        return cls.polygon(np.column_stack([a * np.cos(ang), b * np.sin(ang)]))

    def area(self) -> float:
        if self.kind == "disc":
            return math.pi * self.radius**2
        v = self.vertices
        total = 0.0
        for i in range(len(v)):
            total += cross2(v[i], v[(i + 1) % len(v)])
        return total / 2.0

    def max_radius(self) -> float:
        if self.kind == "disc":
            return self.radius
        return float(np.max(np.linalg.norm(self.vertices, axis=1)))

    def scaled(self, s: float) -> "Shape2D":
        if self.kind == "disc":
            return Shape2D.disc(self.radius * s)
        return Shape2D.polygon(self.vertices * s)

    # -- body-frame queries (edge arrays cached, vectorized over edges) ------

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
        """Per-edge clamped projection of q; returns (points, t, squared dist)."""
        a = self._edge_start
        d = self._edge_dir
        t = np.einsum("j,ij->i", q, d) - np.einsum("ij,ij->i", a, d)
        t = t / self._edge_len2
        tc = np.clip(t, 0.0, 1.0)
        cand = a + tc[:, None] * d
        diff = q[None, :] - cand
        return cand, t, np.einsum("ij,ij->i", diff, diff)

    def closest_point_body(self, q) -> tuple[np.ndarray, np.ndarray]:
        """Closest boundary point to q plus its 2x2 Jacobian wrt q.

        Works for q inside or outside. The Jacobian is the derivative of the
        boundary projection in the current feature region (edge or vertex).
        """
        q = np.asarray(q, dtype=float)
        if self.kind == "disc":
            rho = float(np.linalg.norm(q))
            if rho < 1e-12:
                # center: projection direction is arbitrary, pick +x
                return np.array([self.radius, 0.0]), np.zeros((2, 2))
            n = q / rho
            g = self.radius * n
            jac = (self.radius / rho) * (np.eye(2) - np.outer(n, n))
            return g, jac
        cand, t, d2 = self._project_edges(q)
        i = int(np.argmin(d2))
        if 0.0 < t[i] < 1.0:
            dhat = self._edge_dir[i] / math.sqrt(self._edge_len2[i])
            jac = np.outer(dhat, dhat)
        else:
            jac = np.zeros((2, 2))
        return cand[i].copy(), jac

    def contains_body(self, q) -> bool:
        """Point-in-shape test, boundary counts as inside."""
        q = np.asarray(q, dtype=float)
        if self.kind == "disc":
            return float(np.linalg.norm(q)) <= self.radius
        rel = q[None, :] - self._edge_start
        cross = self._edge_dir[:, 0] * rel[:, 1] - self._edge_dir[:, 1] * rel[:, 0]
        return bool(np.all(cross >= 0.0))

    def signed_distance_body(self, q) -> float:
        q = np.asarray(q, dtype=float)
        if self.kind == "disc":
            return float(np.linalg.norm(q)) - self.radius
        _, _, d2 = self._project_edges(q)
        d = math.sqrt(float(np.min(d2)))
        return -d if self.contains_body(q) else d

    def signed_distance_many_body(self, pts: np.ndarray) -> np.ndarray:
        """Signed distances for an (N, 2) batch of body-frame points."""
        pts = np.asarray(pts, dtype=float)
        if self.kind == "disc":
            return np.linalg.norm(pts, axis=1) - self.radius
        a = self._edge_start  # (E, 2)
        d = self._edge_dir
        rel = pts[:, None, :] - a[None, :, :]  # (N, E, 2)
        t = np.einsum("nej,ej->ne", rel, d) / self._edge_len2[None, :]
        tc = np.clip(t, 0.0, 1.0)
        cand = a[None, :, :] + tc[:, :, None] * d[None, :, :]
        diff = pts[:, None, :] - cand
        dist = np.sqrt(np.min(np.einsum("nej,nej->ne", diff, diff), axis=1))
        cross = d[None, :, 0] * rel[:, :, 1] - d[None, :, 1] * rel[:, :, 0]
        inside = np.all(cross >= 0.0, axis=1)
        return np.where(inside, -dist, dist)

    def outward_normal_body(self, p_boundary) -> np.ndarray:
        """Outward unit normal at a point on (or near) the boundary."""
        p = np.asarray(p_boundary, dtype=float)
        if self.kind == "disc":
            rho = float(np.linalg.norm(p))
            return np.array([1.0, 0.0]) if rho < 1e-12 else p / rho
        _, _, d2 = self._project_edges(p)
        return self._edge_normals[int(np.argmin(d2))].copy()

    def boundary_samples_body(self, subdivisions: int = 32) -> np.ndarray:
        """Vertices plus per-edge subdivision points (polygons only)."""
        if self.kind != "polygon":
            raise ValueError("boundary sampling applies to polygons")
        v = self.vertices
        pts = []
        for i in range(len(v)):
            a, b = v[i], v[(i + 1) % len(v)]
            for k in range(subdivisions):
                pts.append(a + (b - a) * (k / subdivisions))
        return np.array(pts)


# ---------------------------------------------------------------------------
# world-frame queries
# ---------------------------------------------------------------------------


def closest_surface_point(shape: Shape2D, pose: PlanarPose, q) -> np.ndarray:
    """Boundary point of the posed shape closest to query q (world frame)."""
    g, _, _ = closest_point_with_jacobians(shape, pose, q)
    return g


def closest_point_with_jacobians(shape: Shape2D, pose: PlanarPose, q):
    """Closest boundary point G plus dG/dq (2x2) and dG/dpose (2x3).

    The pose Jacobian columns are [d/dtx, d/dty, d/dtheta].
    """
    q = np.asarray(q, dtype=float)
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    R = np.array(((c, -s), (s, c)))
    t = np.array((pose.x, pose.y))
    qb = R.T @ (q - t)
    gb, jac_b = shape.closest_point_body(qb)
    g = R @ gb + t
    dg_dq = R @ jac_b @ R.T
    dg_dpose = np.empty((2, 3))
    dg_dpose[0, 0] = 1.0 - dg_dq[0, 0]
    dg_dpose[0, 1] = -dg_dq[0, 1]
    dg_dpose[1, 0] = -dg_dq[1, 0]
    dg_dpose[1, 1] = 1.0 - dg_dq[1, 1]
    # SKEW @ v = (-v1, v0)
    rg = g - t
    rq = q - t
    dg_dpose[0, 2] = -rg[1] - (dg_dq[0, 0] * -rq[1] + dg_dq[0, 1] * rq[0])
    dg_dpose[1, 2] = rg[0] - (dg_dq[1, 0] * -rq[1] + dg_dq[1, 1] * rq[0])
    return g, dg_dq, dg_dpose


def signed_distance(shape: Shape2D, pose: PlanarPose, q) -> float:
    """Signed distance to the posed shape: negative inside, zero on boundary."""
    return shape.signed_distance_body(pose.inverse_transform_point(q))


def signed_distance_many(shape: Shape2D, pose: PlanarPose, pts) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    body = (pts - pose.translation) @ pose.rotation()
    return shape.signed_distance_many_body(body)


def outward_normal(shape: Shape2D, pose: PlanarPose, q) -> np.ndarray:
    nb = shape.outward_normal_body(pose.inverse_transform_point(q))
    return pose.rotation() @ nb


def shapes_intersect(shape_a: Shape2D, pose_a: PlanarPose, shape_b: Shape2D, pose_b: PlanarPose) -> bool:
    """Exact open-set overlap test; boundary tangency counts as separate."""
    if shape_a.kind == "disc" and shape_b.kind == "disc":
        dist = np.linalg.norm(pose_a.translation - pose_b.translation)
        return dist < shape_a.radius + shape_b.radius
    if shape_a.kind == "disc":
        return signed_distance(shape_b, pose_b, pose_a.translation) < shape_a.radius
    if shape_b.kind == "disc":
        return signed_distance(shape_a, pose_a, pose_b.translation) < shape_b.radius
    # polygon vs polygon: separating-axis test on both edge normal sets
    va = np.array([pose_a.transform_point(v) for v in shape_a.vertices])
    vb = np.array([pose_b.transform_point(v) for v in shape_b.vertices])
    for verts in (va, vb):
        n = len(verts)
        for i in range(n):
            d = verts[(i + 1) % n] - verts[i]
            axis = np.array([d[1], -d[0]])
            pa = va @ axis
            pb = vb @ axis
            if min(pa.max(), pb.max()) - max(pa.min(), pb.min()) <= 0.0:
                return False
    return True


def _deepest_ee_point(obj_shape, obj_pose, ee_shape, ee_pose, subdivisions: int = 32):
    """Point on the ee boundary with the most-negative object signed distance.

    Returns (delta, branch) where branch carries what is needed for analytic
    Jacobians: ("body", delta_body) for sampled polygon end-effectors, or for
    disc end-effectors one of ("disc_radial",), ("poly_edge", normal_body),
    ("poly_vertex", vertex_body).
    """
    if ee_shape.kind == "polygon":
        samples = ee_shape.boundary_samples_body(subdivisions)
        world = samples @ ee_pose.rotation().T + ee_pose.translation
        sd = signed_distance_many(obj_shape, obj_pose, world)
        i = int(np.argmin(sd))
        return world[i].copy(), ("body", samples[i].copy())

    c = ee_pose.translation
    r_e = ee_shape.radius
    if obj_shape.kind == "disc":
        d = c - obj_pose.translation
        rho = float(np.linalg.norm(d))
        n = np.array([1.0, 0.0]) if rho < 1e-12 else d / rho
        return c - r_e * n, ("disc_radial",)
    # disc ee against polygon object: candidate per edge normal and vertex
    R = obj_pose.rotation()
    verts = obj_shape.vertices
    n_edges = len(verts)
    cand_e = c[None, :] - r_e * (obj_shape._edge_normals @ R.T)
    vw = verts @ R.T + obj_pose.translation
    dv = vw - c[None, :]
    rho = np.linalg.norm(dv, axis=1)
    safe = np.maximum(rho, 1e-12)
    cand_v = c[None, :] + r_e * dv / safe[:, None]
    cands = np.vstack([cand_e, cand_v])
    sd = signed_distance_many(obj_shape, obj_pose, cands)
    sd[n_edges:][rho < 1e-12] = math.inf  # vertex coincides with the center
    i = int(np.argmin(sd))
    if i < n_edges:
        return cands[i].copy(), ("poly_edge", obj_shape._edge_normals[i].copy())
    return cands[i].copy(), ("poly_vertex", verts[i - n_edges].copy())


def deepest_penetration(obj_shape: Shape2D, obj_pose: PlanarPose, ee_shape: Shape2D, ee_pose: PlanarPose):
    """Deepest end-effector boundary point inside the object, if any.

    Returns None when the shapes do not overlap (tangency counts as no
    overlap); otherwise (delta, g_delta) with delta on the ee boundary and
    g_delta its projection onto the object boundary.
    """
    if not shapes_intersect(obj_shape, obj_pose, ee_shape, ee_pose):
        return None
    delta, _ = _deepest_ee_point(obj_shape, obj_pose, ee_shape, ee_pose)
    g_delta = closest_surface_point(obj_shape, obj_pose, delta)
    return delta, g_delta


def closest_pair(shape_a: Shape2D, pose_a: PlanarPose, shape_b: Shape2D, pose_b: PlanarPose,
                 max_iter: int = 200, tol: float = 1e-14):
    """Closest boundary points (a, b) between two separated convex shapes.

    Closed form whenever a disc is involved; alternating boundary projection
    for polygon pairs. Callers must handle the overlapping case themselves.
    """
    if shape_b.kind == "disc":
        # min over the disc is attained along the ray to its center
        c = pose_b.translation
        a = closest_surface_point(shape_a, pose_a, c)
        d = a - c
        rho = float(np.linalg.norm(d))
        n = np.array([1.0, 0.0]) if rho < 1e-12 else d / rho
        return a, c + shape_b.radius * n
    if shape_a.kind == "disc":
        b, a = closest_pair(shape_b, pose_b, shape_a, pose_a)
        return a, b
    a = closest_surface_point(shape_a, pose_a, pose_b.translation)
    b = closest_surface_point(shape_b, pose_b, a)
    for _ in range(max_iter):
        a_new = closest_surface_point(shape_a, pose_a, b)
        b_new = closest_surface_point(shape_b, pose_b, a_new)
        shift = np.linalg.norm(a_new - a) + np.linalg.norm(b_new - b)
        a, b = a_new, b_new
        if shift < tol:
            break
    return a, b
