"""Factor-graph container, sparse Gauss-Newton, marginals, fixed-lag smoothing.

Variables live on a per-timestep grid: object pose x_t and end-effector pose
e_t (dim 3 each, theta wrapped on update) and the combined contact/force
state pf_t (dim 4). Three graph models are supported:

  CP  = measurements + contact factors + constant-velocity smoothness
  SDF = CP + intersection (non-penetration) penalty
  QS  = SDF + quasi-static pushing dynamics

Batch solves use sparse normal equations (timestep-ordered elimination via
SuperLU); the incremental path is a fixed-lag smoother that marginalizes
old timesteps into a square-root boundary prior (a QR factorization of the
absorbed factors' whitened system) and re-optimizes the window.
`linearize` is the one linearizer: the Gauss-Newton steps, the marginal
covariances and the smoother's marginalization all take their whitened
system from it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .dataio import MeasuredTrajectory, TrajectoryArrays, TrajectoryStep
from .errors import EmptyTrajectory, MissingShapeConfig, NonFiniteCost, SingularSystem
from .factors import (
    ConstantVelocityFactor,
    ContactForceMeasurementFactor,
    ContactSurfaceFactor,
    Factor,
    IntersectionFactor,
    NoiseModel,
    PoseMeasurementFactor,
    PriorFactor,
    QuasiStaticFactor,
    SurfaceGapFactor,
)
from .geometry import angle_diff, wrap_angle


class Role(enum.Enum):
    OBJECT = "x"
    EE = "e"
    CONTACT_FORCE = "pf"


_ROLE_ORDER = {Role.OBJECT: 0, Role.EE: 1, Role.CONTACT_FORCE: 2}
_ROLE_DIM = {Role.OBJECT: 3, Role.EE: 3, Role.CONTACT_FORCE: 4}


class VariableKey(NamedTuple):
    role: Role
    t: int


def obj_key(t: int) -> VariableKey:
    return VariableKey(Role.OBJECT, t)


def ee_key(t: int) -> VariableKey:
    return VariableKey(Role.EE, t)


def pf_key(t: int) -> VariableKey:
    return VariableKey(Role.CONTACT_FORCE, t)


def key_dim(key: VariableKey) -> int:
    return _ROLE_DIM[key.role]


def _key_sort(key: VariableKey):
    return (key.t, _ROLE_ORDER[key.role])


def retract(values: dict, delta: np.ndarray, index: dict) -> dict:
    """Apply an additive update, wrapping pose angles."""
    out = {}
    for key, (off, dim) in index.items():
        v = values[key] + delta[off : off + dim]
        if key.role is not Role.CONTACT_FORCE:
            v[2] = wrap_angle(v[2])
        out[key] = v
    return out


class LinearizedPriorFactor(Factor):
    """Gaussian prior on the boundary variables left by marginalization.

    Holds rows of the square-root information form: residual =
    r0 + sqrt_info @ (x (-) anchor), already whitened (unit noise). Its
    Jacobian is sqrt_info, split into one column block per key.
    """

    kind = "linearized_prior"
    constant_jacobian = True

    def __init__(self, keys, anchors, r0, sqrt_info):
        super().__init__(keys, NoiseModel(np.ones(len(r0))))
        self.anchors = [np.asarray(a, dtype=float) for a in anchors]
        self.r0 = np.asarray(r0, dtype=float)
        self.sqrt_info = np.asarray(sqrt_info, dtype=float)
        ends = np.cumsum([len(a) for a in self.anchors])
        self._jacs = np.split(self.sqrt_info, ends[:-1], axis=1)

    def residual(self, *vals):
        parts = []
        for key, anchor, v in zip(self.keys, self.anchors, vals):
            d = v - anchor
            if key.role is not Role.CONTACT_FORCE:
                d[2] = angle_diff(v[2], anchor[2])
            parts.append(d)
        return self.r0 + self.sqrt_info @ np.concatenate(parts)

    def residual_and_jacobians(self, *vals):
        return self.residual(*vals), self._jacs


# ---------------------------------------------------------------------------
# graph container and linearization
# ---------------------------------------------------------------------------


class FactorGraph:
    """Typed variables plus factors; owns initial values for optimization."""

    def __init__(self):
        self.dims: dict[VariableKey, int] = {}
        self.factors: list[Factor] = []
        self.initial: dict[VariableKey, np.ndarray] = {}
        self._version = 0
        self._lin_cache = None

    def add_variable(self, key: VariableKey, initial=None):
        self.dims[key] = key_dim(key)
        self._version += 1
        if initial is not None:
            self.initial[key] = np.asarray(initial, dtype=float).copy()

    def add_factor(self, factor: Factor):
        for key in factor.keys:
            if key not in self.dims:
                raise KeyError(f"factor references unknown variable {key}")
        self.factors.append(factor)
        self._version += 1

    def variable_index(self) -> dict[VariableKey, tuple[int, int]]:
        """Timestep-major ordering; near-optimal elimination for chain graphs."""
        index = {}
        off = 0
        for key in sorted(self.dims, key=_key_sort):
            index[key] = (off, self.dims[key])
            off += self.dims[key]
        return index

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def residual_dim(self) -> int:
        return sum(f.dim for f in self.factors)

    def cost(self, values: dict) -> float:
        total = 0.0
        for f in self.factors:
            vals = [values[k] for k in f.keys]
            total += f.noise.squared_norm(f.residual(*vals))
        return total

    def counts_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.factors:
            out[f.kind] = out.get(f.kind, 0) + 1
        return out


@dataclass
class LinearSystem:
    """Whitened linearization: J delta ~ -r with normal equations cached."""

    jacobian: scipy.sparse.csr_matrix
    residual: np.ndarray
    normal_matrix: scipy.sparse.csc_matrix  # J^T J
    gradient: np.ndarray  # J^T r
    index: dict[VariableKey, tuple[int, int]]


@dataclass
class _LinearizeCache:
    """Fixed sparsity pattern of a graph, reused across iterations."""

    version: int
    index: dict
    rows: np.ndarray
    cols: np.ndarray
    nnz: int
    m: int
    # per factor: (factor, row offset, residual dim, data slices per key,
    #              cached whitened jacobians when constant, else None)
    plan: list


def _build_linearize_cache(graph: FactorGraph) -> _LinearizeCache:
    index = graph.variable_index()
    rows, cols = [], []
    plan = []
    row0 = 0
    pos = 0
    for f in graph.factors:
        d = f.dim
        slices = []
        for key in f.keys:
            off, dim = index[key]
            rows.append(np.repeat(np.arange(row0, row0 + d), dim))
            cols.append(np.tile(np.arange(off, off + dim), d))
            slices.append(slice(pos, pos + d * dim))
            pos += d * dim
        const = None
        if f.constant_jacobian:
            vals = [np.zeros(index[k][1]) for k in f.keys]
            const = [f.noise.whiten_jacobian(j) for j in f.residual_and_jacobians(*vals)[1]]
        plan.append((f, row0, d, slices, const))
        row0 += d
    return _LinearizeCache(
        version=graph._version,
        index=index,
        rows=np.concatenate(rows) if rows else np.zeros(0, dtype=int),
        cols=np.concatenate(cols) if cols else np.zeros(0, dtype=int),
        nnz=pos,
        m=row0,
        plan=plan,
    )


def linearize(graph: FactorGraph, values: dict) -> LinearSystem:
    """Assemble the whitened sparse system at the given values."""
    if graph._lin_cache is None or graph._lin_cache.version != graph._version:
        graph._lin_cache = _build_linearize_cache(graph)
    cache = graph._lin_cache
    data = np.zeros(cache.nnz)
    res = np.zeros(cache.m)
    for f, row0, d, slices, const in cache.plan:
        vals = [values[k] for k in f.keys]
        if const is not None:
            res[row0 : row0 + d] = f.noise.whiten(f.residual(*vals))
            wjacs = const
        else:
            r, jacs = f.residual_and_jacobians(*vals)
            res[row0 : row0 + d] = f.noise.whiten(r)
            wjacs = [f.noise.whiten_jacobian(j) for j in jacs]
        for sl, jw in zip(slices, wjacs):
            data[sl] = jw.ravel()
    jac = scipy.sparse.coo_matrix(
        (data, (cache.rows, cache.cols)), shape=(cache.m, graph.total_dim)
    ).tocsr()
    normal = (jac.T @ jac).tocsc()
    grad = jac.T @ res
    return LinearSystem(jacobian=jac, residual=res, normal_matrix=normal, gradient=grad,
                        index=cache.index)


# ---------------------------------------------------------------------------
# Gauss-Newton with Levenberg fallback
# ---------------------------------------------------------------------------


@dataclass
class GaussNewtonOptions:
    max_iter: int = 100
    rel_cost_tol: float = 1e-9
    abs_grad_tol: float = 1e-10
    abs_cost_tol: float = 1e-14  # cost this small counts as solved outright
    # Levenberg ladder, scaled by the normal-matrix diagonal (Marquardt style)
    dampings: tuple = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2)


@dataclass
class SolveReport:
    iterations: int
    initial_cost: float
    final_cost: float
    converged: bool
    reason: str
    cost_trace: list[float] = field(default_factory=list)


def _solve_normal(system: LinearSystem, damping: float | None) -> np.ndarray | None:
    H = system.normal_matrix
    if damping is not None:
        d = H.diagonal()
        d = np.where(d > 0.0, d, 1.0)
        H = (H + scipy.sparse.diags(damping * d)).tocsc()
    try:
        lu = scipy.sparse.linalg.splu(H)
        delta = lu.solve(-system.gradient)
    except RuntimeError:
        return None
    if not np.all(np.isfinite(delta)):
        return None
    return delta


def gauss_newton(graph: FactorGraph, init: dict | None = None,
                 opts: GaussNewtonOptions | None = None) -> tuple[dict, SolveReport]:
    """Batch MAP optimization; accepted steps never increase the cost.

    A plain Gauss-Newton step is tried first; if it does not decrease the
    cost the Levenberg ladder is walked until a decreasing step is found.
    """
    opts = opts or GaussNewtonOptions()
    values = {k: np.asarray(v, dtype=float).copy() for k, v in (init or graph.initial).items()}
    for key in graph.dims:
        if key not in values:
            raise KeyError(f"no initial value for {key}")
    cost = graph.cost(values)
    if not math.isfinite(cost):
        raise NonFiniteCost(f"initial cost is {cost}")
    trace = [cost]
    report = SolveReport(0, cost, cost, False, "max_iter", trace)

    ladder = list(opts.dampings)
    warm = None  # index of the last rung that produced an accepted step
    for it in range(opts.max_iter):
        if cost <= opts.abs_cost_tol:
            report.converged = True
            report.reason = "cost_floor"
            break
        system = linearize(graph, values)
        if float(np.max(np.abs(system.gradient))) < opts.abs_grad_tol:
            report.converged = True
            report.reason = "gradient"
            break
        # plain Gauss-Newton first; on cost increase walk the Levenberg
        # ladder, starting one rung below the last one that worked
        attempts = [None] + (ladder if warm is None else ladder[max(warm - 1, 0):])
        accepted = None
        singular_everywhere = True
        for damping in attempts:
            delta = _solve_normal(system, damping)
            if delta is None:
                continue
            singular_everywhere = False
            candidate = retract(values, delta, system.index)
            c_new = graph.cost(candidate)
            if not math.isfinite(c_new):
                raise NonFiniteCost("cost became non-finite during optimization")
            if c_new <= cost:
                accepted = (candidate, c_new)
                warm = None if damping is None else ladder.index(damping)
                break
        if accepted is None:
            if singular_everywhere:
                raise SingularSystem("normal equations rank-deficient after damping")
            report.converged = True
            report.reason = "no_improving_step"
            break
        values, new_cost = accepted
        trace.append(new_cost)
        report.iterations = it + 1
        if abs(cost - new_cost) <= opts.rel_cost_tol * max(cost, 1e-300):
            cost = new_cost
            report.converged = True
            report.reason = "cost"
            break
        cost = new_cost

    report.final_cost = cost
    report.cost_trace = trace
    return values, report


def marginal_covariances(graph: FactorGraph, values: dict, keys) -> dict:
    """Posterior covariance blocks for several variables from one factorization."""
    system = linearize(graph, values)
    try:
        lu = scipy.sparse.linalg.splu(system.normal_matrix)
    except RuntimeError as exc:
        raise SingularSystem(str(exc)) from exc
    out = {}
    for key in keys:
        off, dim = system.index[key]
        rhs = np.zeros((graph.total_dim, dim))
        rhs[off : off + dim, :] = np.eye(dim)
        sol = lu.solve(rhs)
        cov = sol[off : off + dim, :]
        if not np.all(np.isfinite(cov)):
            raise SingularSystem("marginal covariance is not finite")
        out[key] = 0.5 * (cov + cov.T)
    return out


def marginal_covariance(graph: FactorGraph, values: dict, key: VariableKey) -> np.ndarray:
    """Posterior covariance block of one variable: slice of (J^T J)^-1."""
    return marginal_covariances(graph, values, [key])[key]


# ---------------------------------------------------------------------------
# graph construction from measured trajectories
# ---------------------------------------------------------------------------


class GraphModel(enum.Enum):
    CP = "CP"
    SDF = "SDF"
    QS = "QS"


@dataclass
class GraphConfig:
    """Per-factor noise levels (SI units) used to build estimation graphs."""

    sigma_x_trans: float = 0.005
    sigma_x_rot: float = 0.5
    sigma_e_trans: float = 0.005
    sigma_e_rot: float = 0.5
    sigma_contact: float = 0.005
    sigma_force: float = 0.5
    sigma_surface: float = 0.001  # contact factors C
    sigma_intersection: float = 0.001  # intersection factor S
    sigma_vel: tuple = (0.01, 0.01, 0.05)  # constant-velocity prior, per sqrt(s)
    sigma_qs: float = 0.01  # quasi-static factor D, SI product units
    sigma_weak: float = 1e3  # regularization for unmeasured contact/force components

    @classmethod
    def from_trajectory(cls, traj: MeasuredTrajectory, **overrides) -> "GraphConfig":
        """Measurement sigmas from the file's corruption provenance.

        Channels the recorded noise spec did not touch are treated as exact
        (tight sigma) so that, e.g., ground-truth-pose protocols pin poses.
        Bimodal corruption maps to its matched-variance Gaussian sigma.
        """
        cfg = cls()
        noise = traj.noise
        if noise is not None:
            tight = 1e-4
            tri_var = lambda mode, half: mode**2 + half**2 / 6.0
            if noise.kind == "gaussian":
                cfg.sigma_x_trans = noise.sigma_x_trans if "y" in noise.channels else tight
                cfg.sigma_x_rot = noise.sigma_x_rot if "y" in noise.channels else tight
                cfg.sigma_e_trans = noise.sigma_e_trans if "z" in noise.channels else tight
                cfg.sigma_e_rot = noise.sigma_e_rot if "z" in noise.channels else tight
                cfg.sigma_contact = noise.sigma_contact if "w" in noise.channels else tight
                cfg.sigma_force = noise.sigma_force if "alpha" in noise.channels else tight
            else:
                cfg.sigma_x_trans = cfg.sigma_x_rot = tight
                cfg.sigma_e_trans = cfg.sigma_e_rot = tight
                cfg.sigma_contact = (
                    math.sqrt(tri_var(noise.contact_mode_offset, noise.contact_half_width))
                    if "w" in noise.channels
                    else tight
                )
                cfg.sigma_force = (
                    math.sqrt(tri_var(noise.force_mode_offset, noise.force_half_width))
                    if "alpha" in noise.channels
                    else tight
                )
        for name, value in overrides.items():
            setattr(cfg, name, value)
        return cfg

    def pose_noise(self, role: Role) -> NoiseModel:
        if role is Role.OBJECT:
            return NoiseModel([self.sigma_x_trans, self.sigma_x_trans, self.sigma_x_rot])
        return NoiseModel([self.sigma_e_trans, self.sigma_e_trans, self.sigma_e_rot])

    def pf_noise(self) -> NoiseModel:
        return NoiseModel([self.sigma_contact, self.sigma_contact, self.sigma_force, self.sigma_force])

    def surface_noise(self) -> NoiseModel:
        return NoiseModel.isotropic(2, self.sigma_surface)

    def intersection_noise(self) -> NoiseModel:
        return NoiseModel.isotropic(2, self.sigma_intersection)

    def vel_noise(self, dt1: float, dt2: float) -> NoiseModel:
        return NoiseModel(np.asarray(self.sigma_vel) * math.sqrt(0.5 * (dt1 + dt2)))

    def qs_noise(self) -> NoiseModel:
        return NoiseModel.isotropic(2, self.sigma_qs)


def _as_model(model) -> GraphModel:
    if isinstance(model, GraphModel):
        return model
    return GraphModel(str(model).upper())


def _planar_or_none(traj: MeasuredTrajectory, meas):
    return None if meas is None else traj.planar_measurement(meas).as_array()


def _extrapolate_pose(prev, prev2):
    if prev2 is None:
        return prev.copy()
    out = prev + (prev - prev2)
    out[2] = prev[2] + angle_diff(prev[2], prev2[2])
    out[2] = wrap_angle(out[2])
    return out


def _initial_pose_track(measured: list) -> list[np.ndarray]:
    """Fill missing pose entries at constant velocity.

    Interior gaps interpolate between the bracketing measurements (constant
    velocity across the window); trailing gaps extrapolate from the last two
    filled poses; leading gaps copy the first measurement.
    """
    T = len(measured)
    idx = [i for i, m in enumerate(measured) if m is not None]
    if not idx:
        return [np.zeros(3) for _ in range(T)]
    filled: list = [None] * T
    for i in idx:
        filled[i] = measured[i].copy()
    for i in range(idx[0]):
        filled[i] = measured[idx[0]].copy()
    for a, b in zip(idx, idx[1:]):
        if b == a + 1:
            continue
        step = filled[b] - filled[a]
        step[2] = angle_diff(filled[b][2], filled[a][2])
        for i in range(a + 1, b):
            s = (i - a) / (b - a)
            p = filled[a] + s * step
            p[2] = wrap_angle(filled[a][2] + s * step[2])
            filled[i] = p
    for i in range(idx[-1] + 1, T):
        filled[i] = _extrapolate_pose(filled[i - 1], filled[i - 2] if i >= 2 else None)
    return filled


def _step_measurement_factors(traj: MeasuredTrajectory, t: int, step: TrajectoryStep,
                              config: GraphConfig) -> list[Factor]:
    factors: list[Factor] = []
    y = _planar_or_none(traj, step.y)
    z = _planar_or_none(traj, step.z)
    if y is not None:
        factors.append(PoseMeasurementFactor(obj_key(t), y, config.pose_noise(Role.OBJECT)))
    if z is not None:
        factors.append(PoseMeasurementFactor(ee_key(t), z, config.pose_noise(Role.EE)))
    # unmeasured components: zero anchor, weak sigma
    meas = np.zeros(4)
    sigmas = np.full(4, config.sigma_weak)
    if step.w is not None:
        meas[:2] = step.w
        sigmas[:2] = config.sigma_contact
    if step.alpha is not None:
        meas[2:] = np.asarray(step.alpha, dtype=float)[:2]
        sigmas[2:] = config.sigma_force
    factors.append(ContactForceMeasurementFactor(pf_key(t), meas, NoiseModel(sigmas)))
    return factors


def _step_structure_factors(model: GraphModel, traj: MeasuredTrajectory, t: int,
                            dts: np.ndarray, config: GraphConfig) -> list[Factor]:
    """Geometry/dynamics/smoothness factors whose newest variable is at t."""
    obj_shape, ee_shape = traj.object_shape, traj.ee_shape
    factors: list[Factor] = [
        ContactSurfaceFactor(obj_key(t), pf_key(t), obj_shape, config.surface_noise(), "c_object"),
        ContactSurfaceFactor(ee_key(t), pf_key(t), ee_shape, config.surface_noise(), "c_ee"),
        SurfaceGapFactor(obj_key(t), ee_key(t), obj_shape, ee_shape, config.surface_noise()),
    ]
    if model in (GraphModel.SDF, GraphModel.QS):
        factors.append(IntersectionFactor(obj_key(t), ee_key(t), obj_shape, ee_shape,
                                          config.intersection_noise()))
    if model is GraphModel.QS and t >= 1:
        factors.append(QuasiStaticFactor(obj_key(t - 1), obj_key(t), pf_key(t),
                                         traj.params.c, dts[t - 1], config.qs_noise()))
    if t >= 2:
        noise = config.vel_noise(dts[t - 2], dts[t - 1])
        factors.append(ConstantVelocityFactor(obj_key(t - 2), obj_key(t - 1), obj_key(t),
                                              dts[t - 2], dts[t - 1], noise))
        factors.append(ConstantVelocityFactor(ee_key(t - 2), ee_key(t - 1), ee_key(t),
                                              dts[t - 2], dts[t - 1], noise))
    return factors


def _gauge_priors(init: dict, config: GraphConfig) -> list[Factor]:
    return [
        PriorFactor(obj_key(0), init[obj_key(0)], config.pose_noise(Role.OBJECT), wrap_index=2),
        PriorFactor(ee_key(0), init[ee_key(0)], config.pose_noise(Role.EE), wrap_index=2),
        PriorFactor(pf_key(0), init[pf_key(0)], config.pf_noise()),
    ]


def _check_metadata(model: GraphModel, traj: MeasuredTrajectory):
    if traj.object_shape is None or traj.ee_shape is None:
        raise MissingShapeConfig("graph construction needs object and ee shapes")
    if model is GraphModel.QS and traj.params is None:
        raise MissingShapeConfig("QS graph needs limit-surface params (c)")


def _initial_pf(prev_pf: np.ndarray, step: TrajectoryStep) -> np.ndarray:
    """The previous contact/force value with the measured w and alpha written over it."""
    pf = prev_pf.copy()
    if step.w is not None:
        pf[:2] = np.asarray(step.w, dtype=float)
    if step.alpha is not None:
        pf[2:] = np.asarray(step.alpha, dtype=float)[:2]
    return pf


def initial_values(traj: MeasuredTrajectory) -> dict[VariableKey, np.ndarray]:
    """Initialization from projected measurements with gap extrapolation."""
    T = len(traj)
    xs = _initial_pose_track([_planar_or_none(traj, s.y) for s in traj.steps])
    es = _initial_pose_track([_planar_or_none(traj, s.z) for s in traj.steps])
    init: dict[VariableKey, np.ndarray] = {}
    pf = np.zeros(4)
    for t, step in enumerate(traj.steps):
        init[obj_key(t)] = xs[t]
        init[ee_key(t)] = es[t]
        pf = _initial_pf(pf, step)
        init[pf_key(t)] = pf
    return init


def build_graph(model, traj: MeasuredTrajectory, config: GraphConfig | None = None) -> FactorGraph:
    """Assemble a CP/SDF/QS estimation graph with initial values attached."""
    model = _as_model(model)
    if len(traj) < 2:
        raise EmptyTrajectory("need at least two timesteps")
    _check_metadata(model, traj)
    config = config or GraphConfig.from_trajectory(traj)
    dts = np.diff(traj.timestamps)

    graph = FactorGraph()
    init = initial_values(traj)
    for t in range(len(traj)):
        graph.add_variable(obj_key(t), init[obj_key(t)])
        graph.add_variable(ee_key(t), init[ee_key(t)])
        graph.add_variable(pf_key(t), init[pf_key(t)])
    for f in _gauge_priors(init, config):
        graph.add_factor(f)
    for t, step in enumerate(traj.steps):
        for f in _step_measurement_factors(traj, t, step, config):
            graph.add_factor(f)
        for f in _step_structure_factors(model, traj, t, dts, config):
            graph.add_factor(f)
    return graph


def values_to_arrays(values: dict, T: int, timestamps) -> TrajectoryArrays:
    """Flatten an estimate dict into per-timestep arrays."""
    x = np.array([values[obj_key(t)] for t in range(T)])
    e = np.array([values[ee_key(t)] for t in range(T)])
    pf = np.array([values[pf_key(t)] for t in range(T)])
    return TrajectoryArrays(timestamps=np.asarray(timestamps, dtype=float),
                            x=x, e=e, p=pf[:, :2], f=pf[:, 2:])


def solve_batch(model, traj: MeasuredTrajectory, config: GraphConfig | None = None,
                opts: GaussNewtonOptions | None = None):
    """Build and optimize; returns (values, report, graph)."""
    graph = build_graph(model, traj, config)
    values, report = gauss_newton(graph, None, opts)
    return values, report, graph


# ---------------------------------------------------------------------------
# fixed-lag smoother
# ---------------------------------------------------------------------------


class FixedLagSmoother:
    """Incremental estimation over a sliding window of recent timesteps.

    Timesteps older than the lag are marginalized at the current
    linearization point: the factors that touch them are linearized, their
    whitened system [J r] is QR-factored with the old variables first, and
    the rows of R below the old block become a LinearizedPriorFactor on the
    boundary variables (square-root information, as in iSAM2). The window
    is re-optimized after every `batch_every` new object-pose measurements.
    With lag >= trajectory length this replays exactly the batch graph.

    Known limitation: only object-pose measurements trigger
    re-optimization. A timestep that leaves the window during an occlusion
    longer than the lag is therefore marginalized at its extrapolated
    value without ever being optimized. On the fixedlag-occluded benchmark
    (lag 5, a 6-step occlusion) this costs 1.7 cm x_trans RMSE against
    0.27 cm unoccluded; see ROADMAP open item 4.
    """

    def __init__(self, model, traj_template: MeasuredTrajectory, config: GraphConfig | None = None,
                 lag: int = 20, batch_every: int = 5, opts: GaussNewtonOptions | None = None):
        self.model = _as_model(model)
        _check_metadata(self.model, traj_template)
        self.template = traj_template
        self.config = config or GraphConfig.from_trajectory(traj_template)
        self.lag = int(lag)
        self.batch_every = int(batch_every)
        self.opts = opts or GaussNewtonOptions()
        if self.lag < 3:
            raise ValueError("lag must cover at least 3 timesteps")

        self.timestamps: list[float] = []
        self.estimates: dict[VariableKey, np.ndarray] = {}
        self.active_factors: list[Factor] = []
        self.first_active_t = 0
        self._pending_y = 0
        self.reports: list[SolveReport] = []  # one per window optimization

    # -- construction helpers ------------------------------------------------

    def _init_new_variables(self, t: int, step: TrajectoryStep):
        y = _planar_or_none(self.template, step.y)
        z = _planar_or_none(self.template, step.z)
        if y is None:
            prev = self.estimates.get(obj_key(t - 1))
            prev2 = self.estimates.get(obj_key(t - 2))
            y = np.zeros(3) if prev is None else _extrapolate_pose(prev, prev2)
        if z is None:
            prev = self.estimates.get(ee_key(t - 1))
            prev2 = self.estimates.get(ee_key(t - 2))
            z = np.zeros(3) if prev is None else _extrapolate_pose(prev, prev2)
        self.estimates[obj_key(t)] = y
        self.estimates[ee_key(t)] = z
        self.estimates[pf_key(t)] = _initial_pf(self.estimates.get(pf_key(t - 1), np.zeros(4)), step)

    def update(self, step: TrajectoryStep) -> dict:
        """Ingest one timestep of measurements; returns current estimates."""
        t = len(self.timestamps)
        self.timestamps.append(float(step.t))
        self._init_new_variables(t, step)
        self.active_factors.extend(_step_measurement_factors(self.template, t, step, self.config))
        dts = np.diff(np.asarray(self.timestamps))
        self.active_factors.extend(
            _step_structure_factors(self.model, self.template, t, dts, self.config)
        )
        if t == 0:
            self.active_factors.extend(_gauge_priors(self.estimates, self.config))
        if step.y is not None:
            self._pending_y += 1
        if self._pending_y >= self.batch_every and t >= 1:
            self._optimize()
            self._pending_y = 0
        return {k: v.copy() for k, v in self.estimates.items()}

    def finalize(self) -> dict:
        """Flush a final window optimization and return all estimates."""
        if len(self.timestamps) >= 2:
            self._optimize()
        return {k: v.copy() for k, v in self.estimates.items()}

    # -- optimization and marginalization ------------------------------------

    def _optimize(self):
        T = len(self.timestamps)
        window_start = max(self.first_active_t, T - self.lag)
        if window_start > self.first_active_t:
            self._marginalize_upto(window_start)
        graph = FactorGraph()
        for t in range(self.first_active_t, T):
            for key in (obj_key(t), ee_key(t), pf_key(t)):
                graph.add_variable(key, self.estimates[key])
        for f in self.active_factors:
            graph.add_factor(f)
        values, report = gauss_newton(graph, None, self.opts)
        self.reports.append(report)
        self.estimates.update(values)

    def _marginalize_upto(self, new_start: int):
        # every active factor touching a timestep before new_start is absorbed;
        # the variables it also touches at or after new_start form the boundary
        absorbed = FactorGraph()
        kept = []
        for f in self.active_factors:
            if all(k.t >= new_start for k in f.keys):
                kept.append(f)
                continue
            for k in f.keys:
                if k not in absorbed.dims:
                    absorbed.add_variable(k)
            absorbed.add_factor(f)
        # timestep-major ordering puts the old variables first; the rows of
        # R below the old block are the boundary's square-root information
        system = linearize(absorbed, self.estimates)
        boundary = [k for k in system.index if k.t >= new_start]
        n_old = sum(dim for k, (_, dim) in system.index.items() if k.t < new_start)
        n = absorbed.total_dim
        R = np.linalg.qr(np.column_stack([system.jacobian.toarray(), system.residual]), mode="r")
        diag = np.abs(np.diag(R[:n_old, :n_old]))
        if R.shape[0] < n_old or diag.min() <= 1e-12 * diag.max():
            raise SingularSystem("marginalized block is singular")
        anchors = [self.estimates[k] for k in boundary]
        kept.append(LinearizedPriorFactor(boundary, anchors, r0=R[n_old:n, n],
                                          sqrt_info=R[n_old:n, n_old:n]))
        # marginalized estimates stay in self.estimates as frozen history
        self.active_factors = kept
        self.first_active_t = new_start

    # -- reporting ------------------------------------------------------------

    def estimate_arrays(self) -> TrajectoryArrays:
        return values_to_arrays(self.estimates, len(self.timestamps), np.asarray(self.timestamps))


def solve_incremental(model, traj: MeasuredTrajectory, config: GraphConfig | None = None,
                      lag: int = 20, batch_every: int = 5,
                      opts: GaussNewtonOptions | None = None):
    """Run the fixed-lag smoother over a whole trajectory file."""
    smoother = FixedLagSmoother(model, traj, config, lag=lag, batch_every=batch_every, opts=opts)
    for step in traj.steps:
        smoother.update(step)
    values = smoother.finalize()
    return values, smoother
