"""Residuals, analytic Jacobians, and noise models for the estimation factors.

Factor types: measurement (M) on poses and contact/force states, contact
surface (C) in three flavors, geometry intersection penalty (S), constant
velocity smoothness (V), quasi-static pushing dynamics (D), and unary priors.

Pose variables are (x, y, theta) arrays; contact/force variables are
(px, py, fx, fy) arrays. Angle residuals always use the shortest arc.

Every factor has exactly two entry points on those arrays: residual(*vals),
used by cost sweeps, and residual_and_jacobians(*vals), used by
linearization. Batch solves, marginal covariances and the fixed-lag
smoother's marginalization all linearize through the latter.
numeric_jacobian is the central-difference reference for the analytic
Jacobians.
"""

from __future__ import annotations

import numpy as np

from .errors import NonPositiveTimestep
from .geometry import (
    SKEW,
    PlanarPose,
    Shape2D,
    angle_diff,
    closest_pair,
    closest_point_with_jacobians,
    cross2,
    shapes_intersect,
    _deepest_ee_point,
)


class NoiseModel:
    """Gaussian factor noise, independent per residual component.

    Takes the standard deviation of each component. Whitening divides by
    them, so ||whiten(r)||^2 = sum_i (r_i / sigma_i)^2 = r^T Sigma^-1 r with
    Sigma = diag(sigma^2).
    """

    def __init__(self, sigmas):
        s = np.asarray(sigmas, dtype=float)
        if s.ndim != 1:
            raise ValueError(f"sigmas must be a 1-D vector, got shape {s.shape}")
        if not np.all(np.isfinite(s) & (s > 0.0)):
            raise ValueError(f"sigmas must be positive and finite, got {s}")
        self.sigmas = s
        self._inv_sigmas = 1.0 / s

    @classmethod
    def isotropic(cls, dim: int, sigma: float) -> "NoiseModel":
        return cls(np.full(dim, sigma, dtype=float))

    @property
    def dim(self) -> int:
        return len(self.sigmas)

    def whiten(self, r: np.ndarray) -> np.ndarray:
        return r * self._inv_sigmas

    def whiten_jacobian(self, jac: np.ndarray) -> np.ndarray:
        return jac * self._inv_sigmas[:, None]

    def squared_norm(self, r: np.ndarray) -> float:
        w = r * self._inv_sigmas
        return float(w @ w)


def quasi_static_residual(xp, xc, pf, c: float, dt: float) -> np.ndarray:
    """Limit-surface motion constraint in cross-multiplied form.

    xp, xc are the previous and current object poses (x, y, theta) and pf
    the contact/force state (px, py, fx, fy). r = v*tau - c^2*omega*f with
    v, omega the finite-difference object twist and tau the moment of f
    applied at the contact point about the object origin (its center of
    mass). Smooth at omega = 0 and tau = 0, unlike the ratio form, and zero
    exactly on quasi-static transitions.
    """
    v = (xc[:2] - xp[:2]) / dt
    omega = angle_diff(xc[2], xp[2]) / dt
    f = pf[2:4]
    tau = cross2(pf[:2] - xc[:2], f)
    return v * tau - c**2 * omega * f


# ---------------------------------------------------------------------------
# factor objects
# ---------------------------------------------------------------------------


class Factor:
    """Residual block over an ordered tuple of variables.

    Subclasses implement two entry points on raw arrays (poses dim 3,
    contact/force dim 4): residual(*vals), used by cost sweeps, and
    residual_and_jacobians(*vals) -> (residual, [one Jacobian per key]),
    used by linearization. keys are opaque hashables owned by the graph
    container. constant_jacobian marks factors whose Jacobian does not
    depend on the linearization point (cacheable).
    """

    kind = "base"
    constant_jacobian = False

    def __init__(self, keys, noise: NoiseModel):
        self.keys = tuple(keys)
        self.noise = noise

    @property
    def dim(self) -> int:
        return self.noise.dim

    def residual(self, *vals):
        raise NotImplementedError

    def residual_and_jacobians(self, *vals):
        raise NotImplementedError


class PriorFactor(Factor):
    """Unary anchor, residual v - anchor (theta wrapped when wrap_index is set).

    Gauge fixing for the first timestep; the measurement factors are priors
    on the measured values with their own kind.
    """

    kind = "prior"
    constant_jacobian = True

    def __init__(self, key, anchor, noise, wrap_index: int | None = None):
        super().__init__((key,), noise)
        self.anchor = np.asarray(anchor, dtype=float)
        self.wrap_index = wrap_index  # theta component for pose anchors

    def residual(self, v):
        r = v - self.anchor
        if self.wrap_index is not None:
            r[self.wrap_index] = angle_diff(v[self.wrap_index], self.anchor[self.wrap_index])
        return r

    def residual_and_jacobians(self, v):
        return self.residual(v), [np.eye(len(self.anchor))]


class PoseMeasurementFactor(PriorFactor):
    kind = "m_pose"

    def __init__(self, key, meas, noise):
        super().__init__(key, meas, noise, wrap_index=2)


class ContactForceMeasurementFactor(PriorFactor):
    """Measurement on the combined contact/force state (px, py, fx, fy).

    A component that was not measured gets a zero anchor and a weak sigma,
    so partially observed timesteps stay well-posed.
    """

    kind = "m_contactforce"


class ContactSurfaceFactor(Factor):
    """C factor tying the contact point to one body's surface.

    Variables: (owner pose, contact/force state). kind is "c_object" or
    "c_ee" depending on the owner.
    """

    def __init__(self, pose_key, pf_key, shape: Shape2D, noise, kind: str):
        super().__init__((pose_key, pf_key), noise)
        self.shape = shape
        self.kind = kind

    def residual(self, pose_arr, pf_arr):
        pose = PlanarPose.from_array(pose_arr)
        p = pf_arr[:2]
        g, _, _ = closest_point_with_jacobians(self.shape, pose, p)
        return g - p

    def residual_and_jacobians(self, pose_arr, pf_arr):
        pose = PlanarPose.from_array(pose_arr)
        p = pf_arr[:2]
        g, dg_dq, dg_dpose = closest_point_with_jacobians(self.shape, pose, p)
        j_pf = np.zeros((2, 4))
        j_pf[:, :2] = dg_dq
        j_pf[0, 0] -= 1.0
        j_pf[1, 1] -= 1.0
        return g - p, [dg_dpose, j_pf]


class SurfaceGapFactor(Factor):
    """C factor between the object and end-effector surfaces.

    Residual is the gap vector between the closest boundary points of the two
    shapes; zero at touching contact and (by the open-set convention shared
    with the intersection factor) identically zero under penetration, where S
    takes over.
    """

    kind = "c_objee"

    def __init__(self, obj_key, ee_key, obj_shape, ee_shape, noise):
        super().__init__((obj_key, ee_key), noise)
        self.obj_shape = obj_shape
        self.ee_shape = ee_shape

    def _pair(self, qx, qe):
        if shapes_intersect(self.obj_shape, qx, self.ee_shape, qe):
            return None
        return closest_pair(self.obj_shape, qx, self.ee_shape, qe)

    def residual(self, x_arr, e_arr):
        pair = self._pair(PlanarPose.from_array(x_arr), PlanarPose.from_array(e_arr))
        if pair is None:
            return np.zeros(2)
        a, b = pair
        return a - b

    def residual_and_jacobians(self, x_arr, e_arr):
        qx = PlanarPose.from_array(x_arr)
        qe = PlanarPose.from_array(e_arr)
        pair = self._pair(qx, qe)
        if pair is None:
            return np.zeros(2), [np.zeros((2, 3)), np.zeros((2, 3))]
        a, b = pair
        # implicit differentiation of the fixed point a = G_x(b), b = G_e(a);
        # at exact tangency the system loses rank along the sliding direction,
        # so use a truncated least-squares solve (subgradient choice)
        _, A, Pa = closest_point_with_jacobians(self.obj_shape, qx, b)
        _, B, Pb = closest_point_with_jacobians(self.ee_shape, qe, a)
        M = np.eye(4)
        M[:2, 2:] = -A
        M[2:, :2] = -B
        rhs = np.zeros((4, 6))
        rhs[:2, :3] = Pa
        rhs[2:, 3:] = Pb
        dab = np.linalg.lstsq(M, rhs, rcond=1e-9)[0]
        dr = dab[:2] - dab[2:]
        return a - b, [dr[:, :3], dr[:, 3:]]


class IntersectionFactor(Factor):
    """S factor penalizing object / end-effector overlap."""

    kind = "s"

    def __init__(self, obj_key, ee_key, obj_shape, ee_shape, noise):
        super().__init__((obj_key, ee_key), noise)
        self.obj_shape = obj_shape
        self.ee_shape = ee_shape

    def residual(self, x_arr, e_arr):
        """Penetration penalty: g_delta - delta when overlapping, else zero."""
        qx = PlanarPose.from_array(x_arr)
        qe = PlanarPose.from_array(e_arr)
        if not shapes_intersect(self.obj_shape, qx, self.ee_shape, qe):
            return np.zeros(2)
        delta, _ = _deepest_ee_point(self.obj_shape, qx, self.ee_shape, qe)
        g, _, _ = closest_point_with_jacobians(self.obj_shape, qx, delta)
        return g - delta

    def _delta_jacobians(self, qx, qe, branch):
        """d(delta)/d(object pose) and d(delta)/d(ee pose), both 2x3."""
        d_dqx = np.zeros((2, 3))
        d_dqe = np.zeros((2, 3))
        r_e = self.ee_shape.radius
        c = qe.translation
        tag = branch[0]
        if tag == "body":
            delta = qe.transform_point(branch[1])
            d_dqe[:, :2] = np.eye(2)
            d_dqe[:, 2] = SKEW @ (delta - c)
            return d_dqx, d_dqe
        if tag == "disc_radial":
            d = c - qx.translation
            rho = float(np.linalg.norm(d))
            n = d / rho
            K = (np.eye(2) - np.outer(n, n)) / rho
            d_dqe[:, :2] = np.eye(2) - r_e * K
            d_dqx[:, :2] = r_e * K
            return d_dqx, d_dqe
        if tag == "poly_edge":
            n_w = qx.rotation() @ branch[1]
            d_dqe[:, :2] = np.eye(2)
            d_dqx[:, 2] = -r_e * (SKEW @ n_w)
            return d_dqx, d_dqe
        # poly_vertex
        v_w = qx.transform_point(branch[1])
        dv = v_w - c
        rho = float(np.linalg.norm(dv))
        u = dv / rho
        Mu = (np.eye(2) - np.outer(u, u)) / rho
        d_dqe[:, :2] = np.eye(2) - r_e * Mu
        d_dqx[:, :2] = r_e * Mu
        d_dqx[:, 2] = r_e * Mu @ (SKEW @ (v_w - qx.translation))
        return d_dqx, d_dqe

    def residual_and_jacobians(self, x_arr, e_arr):
        qx = PlanarPose.from_array(x_arr)
        qe = PlanarPose.from_array(e_arr)
        if not shapes_intersect(self.obj_shape, qx, self.ee_shape, qe):
            return np.zeros(2), [np.zeros((2, 3)), np.zeros((2, 3))]
        delta, branch = _deepest_ee_point(self.obj_shape, qx, self.ee_shape, qe)
        g, dg_dq, dg_dpose = closest_point_with_jacobians(self.obj_shape, qx, delta)
        dd_dqx, dd_dqe = self._delta_jacobians(qx, qe, branch)
        gm = dg_dq - np.eye(2)
        return g - delta, [dg_dpose + gm @ dd_dqx, gm @ dd_dqe]


class ConstantVelocityFactor(Factor):
    """V factor: finite-difference velocity mismatch over a pose triple."""

    kind = "v"
    constant_jacobian = True

    def __init__(self, key_a, key_b, key_c, dt1, dt2, noise):
        if dt1 <= 0.0 or dt2 <= 0.0:
            raise NonPositiveTimestep(f"dt1={dt1}, dt2={dt2}")
        super().__init__((key_a, key_b, key_c), noise)
        self.dt1 = float(dt1)
        self.dt2 = float(dt2)

    def residual(self, a, b, c):
        d1 = b - a
        d2 = c - b
        d1[2] = angle_diff(b[2], a[2])
        d2[2] = angle_diff(c[2], b[2])
        return d1 / self.dt1 - d2 / self.dt2

    def residual_and_jacobians(self, a, b, c):
        eye = np.eye(3)
        jacs = [-eye / self.dt1, eye * (1.0 / self.dt1 + 1.0 / self.dt2), -eye / self.dt2]
        return self.residual(a, b, c), jacs


class QuasiStaticFactor(Factor):
    """D factor: cross-multiplied limit-surface motion constraint."""

    kind = "d"

    def __init__(self, key_prev, key_cur, pf_key, c, dt, noise):
        super().__init__((key_prev, key_cur, pf_key), noise)
        self.c = float(c)
        self.dt = float(dt)

    def residual(self, xp, xc, pf):
        return quasi_static_residual(xp, xc, pf, self.c, self.dt)

    def residual_and_jacobians(self, xp, xc, pf):
        dt, c2 = self.dt, self.c**2
        v = (xc[:2] - xp[:2]) / dt
        omega = angle_diff(xc[2], xp[2]) / dt
        p, f = pf[:2], pf[2:]
        r_arm = p - xc[:2]
        tau = cross2(r_arm, f)
        g = np.array([f[1], -f[0]])  # d tau / d r_arm
        s_arm = np.array([-r_arm[1], r_arm[0]])  # d tau / d f
        j_prev = np.zeros((2, 3))
        j_prev[:, :2] = -(tau / dt) * np.eye(2)
        j_prev[:, 2] = c2 * f / dt
        j_cur = np.zeros((2, 3))
        j_cur[:, :2] = (tau / dt) * np.eye(2) - np.outer(v, g)
        j_cur[:, 2] = -c2 * f / dt
        j_pf = np.zeros((2, 4))
        j_pf[:, :2] = np.outer(v, g)
        j_pf[:, 2:] = np.outer(v, s_arm) - c2 * omega * np.eye(2)
        return v * tau - c2 * omega * f, [j_prev, j_cur, j_pf]


def numeric_jacobian(factor: Factor, values, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a factor, reference for analytic ones.

    values is a sequence of variable arrays in key order; the result stacks
    per-variable blocks horizontally.
    """
    values = [np.asarray(v, dtype=float).copy() for v in values]
    r0 = factor.residual(*values)
    blocks = []
    for vi, v in enumerate(values):
        jac = np.zeros((len(r0), len(v)))
        for k in range(len(v)):
            bumped_hi = [u.copy() for u in values]
            bumped_lo = [u.copy() for u in values]
            bumped_hi[vi][k] += step
            bumped_lo[vi][k] -= step
            jac[:, k] = (factor.residual(*bumped_hi) - factor.residual(*bumped_lo)) / (2.0 * step)
        blocks.append(jac)
    return np.hstack(blocks)


def analytic_jacobian(factor: Factor, values) -> np.ndarray:
    """Stacked analytic Jacobian in the same layout as numeric_jacobian."""
    return np.hstack(factor.residual_and_jacobians(*[np.asarray(v, dtype=float) for v in values])[1])
