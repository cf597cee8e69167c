"""Residuals, analytic Jacobians, and noise models for the estimation factors.

Factor types: measurement (M) on poses and contact/force states, contact
surface (C) in three flavors, geometry intersection penalty (S), constant
velocity smoothness (V), quasi-static pushing dynamics (D), and unary priors.

Pose variables are (x, y, theta) arrays; contact/force variables are
(px, py, fx, fy) arrays. Angle residuals always use the shortest arc.

Each factor class has one kernel that evaluates a block of N factors of
that class at once, with numpy over the rows (see Factor). The contact
and intersection kernels take their shape queries and those queries'
Jacobians from geometry, for every pair of shapes.
graphcore.linearize groups a graph's factors into such blocks and calls
each kernel once per linearization; that serves the Gauss-Newton steps
and their cost, the marginal covariances and the fixed-lag smoother's
marginalization. A factor's own residual_and_jacobians(*vals) is the
one-row call of the same kernel, so numeric_jacobian, the
central-difference reference for the analytic Jacobians, checks the code
that linearize runs.
"""

from __future__ import annotations

import numpy as np

from .errors import NonPositiveTimestep
from .geometry import (
    EYE2,
    Shape2D,
    closest_pairs,
    closest_points_with_jacobians,
    deepest_ee_points,
    shapes_intersect_many,
    skew_many,
    wrap_angles,
)

# perfbench/spans.py wraps these scalar queries under their names in this
# module; the kernels use the row-wise ones above
from .geometry import closest_pair, closest_point_with_jacobians, shapes_intersect  # noqa: F401


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
        self.inv_sigmas = 1.0 / s

    @classmethod
    def isotropic(cls, dim: int, sigma: float) -> "NoiseModel":
        return cls(np.full(dim, sigma, dtype=float))

    @property
    def dim(self) -> int:
        return len(self.sigmas)

    def whiten(self, r: np.ndarray) -> np.ndarray:
        return r * self.inv_sigmas

    def whiten_jacobian(self, jac: np.ndarray) -> np.ndarray:
        return jac * self.inv_sigmas[:, None]


def quasi_static_residual(xp, xc, pf, c: float, dt: float) -> np.ndarray:
    """The D residual of one transition, the one-row call of QuasiStaticFactor.

    xp, xc are the previous and current object poses (x, y, theta) and pf
    the contact/force state (px, py, fx, fy).
    """
    r, _ = QuasiStaticFactor.evaluate((np.array([c], dtype=float), np.array([dt], dtype=float)),
                                      *(np.asarray(v, dtype=float)[None] for v in (xp, xc, pf)))
    return r[0]


# ---------------------------------------------------------------------------
# factor objects
# ---------------------------------------------------------------------------


class Factor:
    """Residual block over an ordered tuple of variables.

    keys are opaque hashables owned by the graph container; values are raw
    arrays (poses dim 3, contact/force dim 4). Each subclass has one kernel
    that evaluates N factors of the same block at once:

      stack(factors) -> consts, the factors' constants along a leading row axis
      evaluate(consts, *vals) -> (residuals (N, d), [Jacobian (N, d, dim_k) per key])

    with vals[k] the (N, dim_k) values of the k-th key. Factors share a
    block when their class, kind, residual dim d and block_signature()
    agree, and the block takes its key dims from its first factor: a class
    whose factors can differ in the number or dims of their keys puts those
    in its block signature. A
    constant_jacobian class splits its kernel into residuals(consts, *vals)
    and constant_jacobians(consts), which depend on the constants alone.
    residual_and_jacobians(*vals) is the one-row call of the same kernel.
    """

    kind = "base"
    constant_jacobian = False

    def __init__(self, keys, noise: NoiseModel):
        self.keys = tuple(keys)
        self.noise = noise

    @property
    def dim(self) -> int:
        return self.noise.dim

    def block_signature(self) -> tuple:
        """What factors of one class must share to be evaluated together."""
        return ()

    @classmethod
    def stack(cls, factors) -> tuple:
        """The block's constants; by default the shared block signature."""
        return factors[0].block_signature()

    @classmethod
    def evaluate(cls, consts, *vals):
        return cls.residuals(consts, *vals), cls.constant_jacobians(consts)

    def residual_and_jacobians(self, *vals):
        """This factor's residual and Jacobians at raw variable arrays."""
        r, jacs = self.evaluate(self.stack([self]), *(np.asarray(v, dtype=float)[None] for v in vals))
        return r[0], [j[0] for j in jacs]


def _repeat(matrix: np.ndarray, n: int) -> np.ndarray:
    return np.repeat(matrix[None], n, axis=0)


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

    @classmethod
    def stack(cls, factors):
        anchor = np.array([f.anchor for f in factors])
        wrap = np.zeros(anchor.shape, dtype=bool)
        for row, f in enumerate(factors):
            if f.wrap_index is not None:
                wrap[row, f.wrap_index] = True
        return anchor, wrap if wrap.any() else None

    @staticmethod
    def residuals(consts, v):
        anchor, wrap = consts
        r = v - anchor
        return r if wrap is None else np.where(wrap, wrap_angles(r), r)

    @staticmethod
    def constant_jacobians(consts):
        anchor = consts[0]
        return [_repeat(np.eye(anchor.shape[1]), len(anchor))]


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

    def block_signature(self):
        return (self.shape,)

    @staticmethod
    def evaluate(consts, pose, pf):
        (shape,) = consts
        p = pf[:, :2]
        g, dg_dq, dg_dpose = closest_points_with_jacobians(shape, pose, p)
        j_pf = np.zeros((len(p), 2, 4))
        j_pf[:, :, :2] = dg_dq - EYE2
        return g - p, [dg_dpose, j_pf]


class _ShapePairFactor(Factor):
    """A factor between the object pose and the end-effector pose."""

    def __init__(self, obj_key, ee_key, obj_shape, ee_shape, noise):
        super().__init__((obj_key, ee_key), noise)
        self.obj_shape = obj_shape
        self.ee_shape = ee_shape

    def block_signature(self):
        return (self.obj_shape, self.ee_shape)


class SurfaceGapFactor(_ShapePairFactor):
    """C factor between the object and end-effector surfaces.

    Residual is the gap vector between the closest boundary points of the two
    shapes; zero at touching contact and (by the open-set convention shared
    with the intersection factor) identically zero under penetration, where S
    takes over.

    The gap and its Jacobians are geometry.closest_pairs' own, for every
    pair of shapes.
    """

    kind = "c_objee"

    @staticmethod
    def evaluate(consts, x, e):
        obj_shape, ee_shape = consts
        r, jx, je = np.zeros((len(x), 2)), np.zeros((len(x), 2, 3)), np.zeros((len(x), 2, 3))
        apart = ~shapes_intersect_many(obj_shape, x, ee_shape, e)
        if apart.any():
            a, b, jx[apart], je[apart] = closest_pairs(obj_shape, x[apart], ee_shape, e[apart])
            r[apart] = a - b
        return r, [jx, je]


class IntersectionFactor(_ShapePairFactor):
    """S factor penalizing object / end-effector overlap.

    Penetration penalty: g_delta - delta when overlapping, else zero, with
    delta the deepest end-effector boundary point and g_delta its
    projection onto the object boundary.
    """

    kind = "s"

    @staticmethod
    def evaluate(consts, x, e):
        obj_shape, ee_shape = consts
        r, jx, je = np.zeros((len(x), 2)), np.zeros((len(x), 2, 3)), np.zeros((len(x), 2, 3))
        hit = shapes_intersect_many(obj_shape, x, ee_shape, e)
        if hit.any():
            x = x[hit]
            delta, dd_dx, dd_de = deepest_ee_points(obj_shape, x, ee_shape, e[hit])
            g, dg_dq, dg_dpose = closest_points_with_jacobians(obj_shape, x, delta)
            gm = dg_dq - EYE2
            r[hit] = g - delta
            jx[hit] = dg_dpose + gm @ dd_dx
            je[hit] = gm @ dd_de
        return r, [jx, je]


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

    @classmethod
    def stack(cls, factors):
        return np.array([f.dt1 for f in factors]), np.array([f.dt2 for f in factors])

    @staticmethod
    def residuals(consts, a, b, c):
        dt1, dt2 = consts
        d1 = b - a
        d2 = c - b
        d1[:, 2] = wrap_angles(b[:, 2] - a[:, 2])
        d2[:, 2] = wrap_angles(c[:, 2] - b[:, 2])
        return d1 / dt1[:, None] - d2 / dt2[:, None]

    @staticmethod
    def constant_jacobians(consts):
        dt1, dt2 = consts[0][:, None, None], consts[1][:, None, None]
        eye = np.eye(3)
        return [-eye / dt1, eye * (1.0 / dt1 + 1.0 / dt2), -eye / dt2]


class QuasiStaticFactor(Factor):
    """D factor: limit-surface motion constraint in cross-multiplied form.

    Variables: previous and current object poses and the contact/force
    state. r = v*tau - c^2*omega*f with v, omega the finite-difference
    object twist and tau the moment of f applied at the contact point about
    the object origin (its center of mass). Smooth at omega = 0 and
    tau = 0, unlike the ratio form, and zero exactly on quasi-static
    transitions.
    """

    kind = "d"

    def __init__(self, key_prev, key_cur, pf_key, c, dt, noise):
        super().__init__((key_prev, key_cur, pf_key), noise)
        self.c = float(c)
        self.dt = float(dt)

    @classmethod
    def stack(cls, factors):
        return np.array([f.c for f in factors]), np.array([f.dt for f in factors])

    @staticmethod
    def evaluate(consts, xp, xc, pf):
        c, dt = consts
        c2 = c**2
        v = (xc[:, :2] - xp[:, :2]) / dt[:, None]
        omega = wrap_angles(xc[:, 2] - xp[:, 2]) / dt
        p, f = pf[:, :2], pf[:, 2:]
        r_arm = p - xc[:, :2]
        tau = r_arm[:, 0] * f[:, 1] - r_arm[:, 1] * f[:, 0]
        g = -skew_many(f)  # d tau / d r_arm
        s_arm = skew_many(r_arm)  # d tau / d f
        v_g = v[:, :, None] * g[:, None, :]
        tau_dt = (tau / dt)[:, None, None]
        c2_f_dt = c2[:, None] * f / dt[:, None]
        j_prev = np.zeros((len(v), 2, 3))
        j_prev[:, :, :2] = -tau_dt * EYE2
        j_prev[:, :, 2] = c2_f_dt
        j_cur = np.zeros((len(v), 2, 3))
        j_cur[:, :, :2] = tau_dt * EYE2 - v_g
        j_cur[:, :, 2] = -c2_f_dt
        j_pf = np.zeros((len(v), 2, 4))
        j_pf[:, :, :2] = v_g
        j_pf[:, :, 2:] = v[:, :, None] * s_arm[:, None, :] - (c2 * omega)[:, None, None] * EYE2
        return v * tau[:, None] - (c2 * omega)[:, None] * f, [j_prev, j_cur, j_pf]


def numeric_jacobian(factor: Factor, values, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a factor, reference for analytic ones.

    values is a sequence of variable arrays in key order; the result stacks
    per-variable blocks horizontally.
    """
    values = [np.asarray(v, dtype=float).copy() for v in values]

    def residual(vals):
        return factor.residual_and_jacobians(*vals)[0]

    r0 = residual(values)
    blocks = []
    for vi, v in enumerate(values):
        jac = np.zeros((len(r0), len(v)))
        for k in range(len(v)):
            bumped_hi = [u.copy() for u in values]
            bumped_lo = [u.copy() for u in values]
            bumped_hi[vi][k] += step
            bumped_lo[vi][k] -= step
            jac[:, k] = (residual(bumped_hi) - residual(bumped_lo)) / (2.0 * step)
        blocks.append(jac)
    return np.hstack(blocks)


def analytic_jacobian(factor: Factor, values) -> np.ndarray:
    """Stacked analytic Jacobian in the same layout as numeric_jacobian."""
    return np.hstack(factor.residual_and_jacobians(*[np.asarray(v, dtype=float) for v in values])[1])
