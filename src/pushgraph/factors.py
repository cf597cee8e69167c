"""Residuals, analytic Jacobians, and noise models for the estimation factors.

Factor types: measurement (M) on poses and contact/force states, contact
surface (C) in three flavors, geometry intersection penalty (S), constant
velocity smoothness (V), quasi-static pushing dynamics (D), and unary priors.

Pose variables are (x, y, theta) arrays; contact/force variables are
(px, py, fx, fy) arrays. Angle residuals always use the shortest arc.

A factor is a row of a Block: a plain tuple of its step, where its
variables sit on the state grid relative to that step, its constants and
its inverse sigmas. add_row appends it to the block of its kernel, kind,
shared constants and residual dim, and a block keeps its rows in the order
they were appended. Each kernel class evaluates all the rows of a block at
once, with numpy over the rows (see Factor). The contact and intersection
kernels take their shape queries and those queries' Jacobians from
geometry, for every pair of shapes.
graphcore.linearize calls each block's kernel once per linearization; that
serves the Gauss-Newton steps and their cost, the marginal covariances and
the fixed-lag smoother's marginalization. evaluate_row is the same kernel
call on a block of one row, so numeric_jacobian, the central-difference
reference for the analytic Jacobians, checks the code that linearize runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    EYE2,
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
# factor rows
# ---------------------------------------------------------------------------


@dataclass
class Block:
    """Factor rows of one kernel, kind, shared constants and residual dim.

    A row is the tuple (t, at, consts, inv_sigmas): t, the step it was
    appended at (for a step's own rows, the newest step they touch); at,
    the first grid column of each of its variables, in its kernel's order,
    as an offset from column 10 t (graphcore lays the state out ten columns
    a step); its own constants; and its whitening. The rows keep the order
    they were appended in.
    """

    kernel: type
    kind: str
    shared: tuple  # constants every row shares: its shapes, or a boundary prior's variable dims
    rows: list[tuple] = field(default_factory=list)

    @property
    def signature(self) -> tuple:
        """What add_row files the block's rows under."""
        return self.kernel, self.kind, self.shared, len(self.rows[0][3])

    def constants(self) -> tuple:
        """The kernel's consts: the shared ones, then each row constant stacked over the rows."""
        return self.shared + tuple(np.array(column) for column in zip(*(row[2] for row in self.rows)))


def add_row(blocks: dict, kernel: type, t: int, at: tuple, consts: tuple, inv_sigmas: np.ndarray,
            shared: tuple = (), kind: str | None = None):
    """Append a factor row to the block of blocks with its kernel, kind, shared constants and residual dim.

    t and at place the row's variables on the grid (see Block); kind
    defaults to the kernel's.
    """
    kind = kind or kernel.kind
    signature = (kernel, kind, shared, len(inv_sigmas))
    block = blocks.get(signature)
    if block is None:
        block = blocks[signature] = Block(kernel, kind, shared)
    block.rows.append((t, at, consts, inv_sigmas))


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


class Factor:
    """A factor type's math, evaluated over all the rows of a block at once.

    Kernels have no instances:

      evaluate(consts, *vals) -> (residuals (N, d), [Jacobian (N, d, dim_k) per key])

    with consts the block's constants() and vals[k] the (N, dim_k) values
    of the rows' k-th key. A constant_jacobian kernel splits evaluate into
    residuals(consts, *vals) and constant_jacobians(consts), which depend on
    the constants alone. kind is the kind of the rows add_row is given none for.
    """

    kind = "base"
    constant_jacobian = False

    @classmethod
    def evaluate(cls, consts, *vals):
        return cls.residuals(consts, *vals), cls.constant_jacobians(consts)


def _repeat(matrix: np.ndarray, n: int) -> np.ndarray:
    return np.repeat(matrix[None], n, axis=0)


class PriorFactor(Factor):
    """Unary anchor, residual v - anchor with the components wrap marks wrapped.

    Row constants (anchor, wrap). Gauge fixing for the first timestep; the
    pose measurements are priors on the measured poses with kind "m_pose".
    """

    kind = "prior"
    constant_jacobian = True

    @staticmethod
    def residuals(consts, v):
        anchor, wrap = consts
        r = v - anchor
        return np.where(wrap, wrap_angles(r), r)

    @staticmethod
    def constant_jacobians(consts):
        anchor = consts[0]
        return [_repeat(np.eye(anchor.shape[1]), len(anchor))]


class ContactForceMeasurementFactor(PriorFactor):
    """Measurement on the combined contact/force state (px, py, fx, fy).

    A component that was not measured gets a zero anchor and a weak sigma,
    so partially observed timesteps stay well-posed.
    """

    kind = "m_contactforce"


class ContactSurfaceFactor(Factor):
    """C factor tying the contact point to one body's surface.

    Variables: (owner pose, contact/force state); shared constant: the
    owner's shape. Its rows' kind is "c_object" or "c_ee" depending on the
    owner.
    """

    @staticmethod
    def evaluate(consts, pose, pf):
        (shape,) = consts
        p = pf[:, :2]
        g, dg_dq, dg_dpose = closest_points_with_jacobians(shape, pose, p)
        j_pf = np.zeros((len(p), 2, 4))
        j_pf[:, :, :2] = dg_dq - EYE2
        return g - p, [dg_dpose, j_pf]


class SurfaceGapFactor(Factor):
    """C factor between the object and end-effector surfaces.

    Variables: (object pose, end-effector pose); shared constants: the
    object and end-effector shapes. Residual is the gap vector between the
    closest boundary points of the two shapes; zero at touching contact and
    (by the open-set convention shared with the intersection factor)
    identically zero under penetration, where S takes over.

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


class IntersectionFactor(Factor):
    """S factor penalizing object / end-effector overlap.

    Variables and shared constants as SurfaceGapFactor's. Penetration
    penalty: g_delta - delta when overlapping, else zero, with delta the
    deepest end-effector boundary point and g_delta its projection onto the
    object boundary.
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
    """V factor: finite-difference velocity mismatch over a pose triple.

    Row constants (dt1, dt2), the two time steps.
    """

    kind = "v"
    constant_jacobian = True

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
    state; row constants (c, dt). r = v*tau - c^2*omega*f with v, omega the
    finite-difference object twist and tau the moment of f applied at the
    contact point about the object origin (its center of mass). Smooth at
    omega = 0 and tau = 0, unlike the ratio form, and zero exactly on
    quasi-static transitions.
    """

    kind = "d"

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


def evaluate_row(block: Block, *vals):
    """The residual and Jacobians of a block of one row at raw variable arrays.

    The kernel call linearize makes, on one row.
    """
    r, jacs = block.kernel.evaluate(block.constants(), *(np.asarray(v, dtype=float)[None] for v in vals))
    return r[0], [j[0] for j in jacs]


def numeric_jacobian(block: Block, values, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a block of one row, reference for analytic ones.

    values is a sequence of variable arrays in key order; the result stacks
    per-variable blocks horizontally.
    """
    values = [np.asarray(v, dtype=float).copy() for v in values]

    def residual(vals):
        return evaluate_row(block, *vals)[0]

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


def analytic_jacobian(block: Block, values) -> np.ndarray:
    """Stacked analytic Jacobian in the same layout as numeric_jacobian."""
    return np.hstack(evaluate_row(block, *values)[1])
