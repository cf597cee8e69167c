"""Factor-graph container, banded Gauss-Newton, marginals, fixed-lag smoothing.

Variables live on a per-timestep grid: object pose x_t and end-effector pose
e_t (dim 3 each, theta wrapped on update) and the combined contact/force
state pf_t (dim 4). Three graph models are supported:

  CP  = measurements + contact factors + constant-velocity smoothness
  SDF = CP + intersection (non-penetration) penalty
  QS  = SDF + quasi-static pushing dynamics

Batch solves use a banded Cholesky factorization of J^T J (the state is
timestep-major and factors span at most three timesteps), whose part from
constant-Jacobian factors is formed once per graph. Marginals come from
the same band factor by selected inversion, a backward recursion over its
blocks that forms only the covariance blocks on and next to the diagonal.
The incremental path is a fixed-lag smoother that marginalizes old timesteps
into a square-root boundary prior (a QR factorization of the absorbed
factors' whitened system) and re-optimizes the window. The smoother's
marginalization reuses the last window's final system: the absorbed rows
that window held are taken from it, and only the rows appended since are
linearized.
Both paths assemble a timestep the same way: `_step_rows` appends the row
of every factor whose newest variable is at t (the gauge priors at t = 0,
then the measurements, then C, S, D and V) to the block of its kernel,
kind and shapes (factors.Block). `build_graph` calls it over the whole
trajectory, the smoother once per update, so only the initial values
differ between the two. Every graph, the batch, a window or the rows a
window marginalizes, is FactorGraph(blocks, initial): its variables are
the keys its rows touch.
`linearize` is the one place factors are evaluated: it serves the
Gauss-Newton candidates (their cost is the squared norm of the whitened
residual it assembles), the marginal covariances and the smoother's
marginalization. The marginals at a solve's answer reuse the solve's
final system and its band factor, and linearize only at other values.
A graph builds its band layout only when it first forms J^T J.
`linearize` calls each block's kernel once, over all its rows; blocks
with constant Jacobians are whitened once per graph and after that only
their residuals are evaluated.
The state is one flat vector in variable_index order. `linearize` takes
it, and `gauss_newton` iterates on it: a candidate is x + delta with the
angle slots wrapped through a mask kept in the graph's layout, and a
dict of values per key is flattened (FactorGraph.state_vector) or built
only at the entry and the exit of a solve.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np
import scipy.linalg

from .dataio import MeasuredTrajectory, TrajectoryArrays, TrajectoryStep
from .errors import EmptyTrajectory, MissingShapeConfig, NonFiniteCost, NonPositiveTimestep, SingularSystem
from .factors import (
    Block,
    ConstantVelocityFactor,
    ContactForceMeasurementFactor,
    ContactSurfaceFactor,
    Factor,
    IntersectionFactor,
    NoiseModel,
    PriorFactor,
    QuasiStaticFactor,
    SurfaceGapFactor,
    add_row,
)
from .geometry import angle_diff, closest_points_with_jacobians, wrap_angle, wrap_angles


class Role(str, enum.Enum):
    # the str mixin keeps hashing a VariableKey in C (Enum's own __hash__ is
    # Python code), which the state-vector dict lookups repeat
    OBJECT = "x"
    EE = "e"
    CONTACT_FORCE = "pf"


_ROLES = tuple(Role)  # the order of a timestep's variables
_ROLE_DIM = {Role.OBJECT: 3, Role.EE: 3, Role.CONTACT_FORCE: 4}
# which components of a variable are angles, wrapped on update
_ANGLES = {role: np.arange(dim) == 2 if role is not Role.CONTACT_FORCE else np.zeros(dim, dtype=bool)
           for role, dim in _ROLE_DIM.items()}


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


def _step_keys(t: int) -> tuple:
    """The keys of step t's rows: x_t, e_t, pf_t, x_{t-1}, e_{t-1}, x_{t-2}, e_{t-2}."""
    return (VariableKey(Role.OBJECT, t), VariableKey(Role.EE, t), VariableKey(Role.CONTACT_FORCE, t),
            VariableKey(Role.OBJECT, t - 1), VariableKey(Role.EE, t - 1),
            VariableKey(Role.OBJECT, t - 2), VariableKey(Role.EE, t - 2))


def retract(x: np.ndarray, delta: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Apply an additive update to a state vector, wrapping the slots theta marks."""
    out = x + delta
    out[theta] = wrap_angles(out[theta])
    return out


class LinearizedPriorFactor(Factor):
    """Gaussian prior on the boundary variables left by marginalization.

    Rows of the square-root information form: residual = r0 + sqrt_info @
    (x (-) anchor), already whitened (unit noise), with the components that
    wrap marks wrapped. Row constants (anchor, wrap, r0, sqrt_info) over the
    keys' concatenated values; shared constant: the keys' dims. Its
    Jacobian is sqrt_info, split into one column block per key.
    """

    kind = "linearized_prior"
    constant_jacobian = True

    @staticmethod
    def residuals(consts, *vals):
        _, anchors, wrap, r0, sqrt_info = consts
        d = np.concatenate(vals, axis=1) - anchors
        return r0 + np.einsum("nij,nj->ni", sqrt_info, np.where(wrap, wrap_angles(d), d))

    @staticmethod
    def constant_jacobians(consts):
        return np.split(consts[4], np.cumsum(consts[0])[:-1], axis=2)


# ---------------------------------------------------------------------------
# graph container and linearization
# ---------------------------------------------------------------------------


class FactorGraph:
    """Blocks of factor rows; its variables are the keys the rows touch.

    The graph keeps the rows its blocks hold now, and puts the blocks in
    the order of their first rows. Variables are in timestep-major order,
    and `initial`, if given, is copied for each of them. The layout
    linearize uses is built on first use and kept, since a graph does not
    change after it is built.
    """

    def __init__(self, blocks: Iterable[Block], initial: dict | None = None):
        self.blocks: list[Block] = sorted((Block(b.kernel, b.kind, b.shared, b.rows[:]) for b in blocks if b.rows),
                                          key=lambda b: b.rows[0].seq)
        touched = {key for b in self.blocks for row in b.rows for key in row.keys}
        # timestep-major: a stable sort by t of the keys listed role by role, with no Python call per key
        keys = sorted([key for role in _ROLES for key in touched if key.role == role], key=operator.itemgetter(1))
        self.dims: dict[VariableKey, int] = {key: key_dim(key) for key in keys}
        self.initial: dict[VariableKey, np.ndarray] = (
            {} if initial is None else {key: np.array(initial[key], dtype=float) for key in keys})
        # the system the last gauss_newton on this graph ended on, until
        # marginal_covariances takes it
        self.solved: LinearSystem | None = None

    def variable_index(self) -> dict[VariableKey, tuple[int, int]]:
        """Timestep-major ordering; near-optimal elimination for chain graphs."""
        offsets = itertools.accumulate(self.dims.values(), initial=0)
        return {key: (off, dim) for (key, dim), off in zip(self.dims.items(), offsets)}

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def state_vector(self, values: dict) -> np.ndarray:
        """The values of the graph's variables as one vector, in variable_index order.

        values may hold keys of other graphs too; they are left out.
        """
        index = self.layout.index
        return np.concatenate([values[key] for key in index], dtype=float) if index else np.zeros(0)

    def cost(self, values: dict) -> float:
        return linearize(self, self.state_vector(values)).cost

    def counts_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for b in self.blocks:
            out[b.kind] = out.get(b.kind, 0) + len(b.rows)
        return out

    @cached_property
    def layout(self) -> _LinearizeCache:
        """The blocks and band layout that linearize uses, built on first use."""
        return _build_linearize_cache(self)


@dataclass
class _BlockLayout:
    """A block's rows as linearize evaluates them, by one kernel call."""

    kernel: type
    kind: str
    consts: tuple  # the block's constants()
    gather: list  # per key, (N, dim) positions of its values in the state vector
    inv_sigmas: np.ndarray  # (N, d) whitening
    rows: slice  # its N * d residual rows, factor by factor
    columns: np.ndarray  # (N, width) state columns of each factor's Jacobian
    jacobian: np.ndarray | None  # whitened (N, d, width) Jacobian when it is constant

    @cached_property
    def lower(self) -> np.ndarray:
        """(N, width, width) pairs of columns that fall on or below the diagonal."""
        return self.columns[:, :, None] >= self.columns[:, None, :]


@dataclass
class _LinearizeCache:
    """Blocks and the band layout of a graph, reused across iterations.

    The band layout (bandwidth, band_positions, constant_band and the
    blocks' lower pairs) is built on first use, by the first normal_matrix:
    a graph the smoother linearizes to marginalize never forms one.
    """

    index: dict
    theta: np.ndarray  # marks the state vector's angle slots, wrapped on update
    shape: tuple[int, int]
    blocks: list[_BlockLayout]  # with a constant Jacobian only the residual is evaluated
    columns: np.ndarray  # every block's columns, raveled block by block

    @cached_property
    def bandwidth(self) -> int:
        """The largest column distance within one factor."""
        return max((int((b.columns.max(axis=1) - b.columns.min(axis=1)).max()) for b in self.blocks), default=0)

    @cached_property
    def band_positions(self) -> np.ndarray:
        """_band_positions of the blocks whose Jacobian is relinearized."""
        return _band_positions([b for b in self.blocks if b.jacobian is None], self.shape[1])

    @cached_property
    def constant_band(self) -> np.ndarray:
        """J^T J of the constant-Jacobian blocks in lower band storage."""
        constant = [b for b in self.blocks if b.jacobian is not None]
        return _band(self, [(b, b.jacobian) for b in constant], _band_positions(constant, self.shape[1]))


def _band_positions(blocks: list[_BlockLayout], n: int) -> np.ndarray:
    """Flat position in band storage of every lower pair of the blocks, block by block."""
    # H[i, j] with i >= j sits at [i - j, j] of the (bandwidth + 1, n) band
    return _concat([((b.columns[:, :, None] - b.columns[:, None, :]) * n + b.columns[:, None, :])[b.lower]
                    for b in blocks], int)


def _band(layout: _LinearizeCache, blocks: list[tuple[_BlockLayout, np.ndarray]], positions: np.ndarray) -> np.ndarray:
    """J^T J of (block, whitened Jacobian) pairs in lower band storage, shape (bandwidth + 1, n)."""
    bw, n = layout.bandwidth, layout.shape[1]
    pairs = [np.einsum("ndi,ndj->nij", J, J)[b.lower] for b, J in blocks]
    band = np.bincount(positions, weights=np.concatenate(pairs or [np.zeros(0)]), minlength=(bw + 1) * n)
    return band.reshape(bw + 1, n)


def _concat(arrays: list[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(arrays) if arrays else np.zeros(0, dtype=dtype)


def _build_linearize_cache(graph: FactorGraph) -> _LinearizeCache:
    index = graph.variable_index()
    offset_of = {key: off for key, (off, _) in index.items()}.__getitem__
    blocks = []
    m = 0
    for block in graph.blocks:
        N = len(block.rows)
        dims = [key_dim(k) for k in block.rows[0].keys]  # the same for every row of a block
        keys = itertools.chain.from_iterable(row.keys for row in block.rows)
        offsets = np.fromiter(map(offset_of, keys), dtype=np.intp, count=N * len(dims)).reshape(N, len(dims))
        gather = [offsets[:, i, None] + np.arange(dim) for i, dim in enumerate(dims)]
        inv_sigmas = np.array([row.inv_sigmas for row in block.rows])
        d = inv_sigmas.shape[1]
        cls, consts = block.kernel, block.constants()
        jacobian = (np.concatenate(cls.constant_jacobians(consts), axis=2) * inv_sigmas[:, :, None]
                    if cls.constant_jacobian else None)
        blocks.append(_BlockLayout(cls, block.kind, consts, gather, inv_sigmas, slice(m, m + N * d),
                                   np.concatenate(gather, axis=1), jacobian))
        m += N * d
    return _LinearizeCache(
        index=index,
        theta=_concat([_ANGLES[key.role] for key in index], bool),
        shape=(m, graph.total_dim),
        blocks=blocks,
        columns=_concat([b.columns.ravel() for b in blocks], int),
    )


@dataclass
class LinearSystem:
    """Whitened linearization J delta ~ -r at x, held as the blocks' row Jacobians.

    J^T J (banded, see normal_matrix), its band Cholesky factor, J^T r and a
    dense J are formed on first use.
    """

    x: np.ndarray  # the state vector it linearizes at
    residual: np.ndarray
    index: dict[VariableKey, tuple[int, int]]
    jacobians: list[np.ndarray]  # per block of the layout, its whitened (N, d, width) Jacobian
    layout: _LinearizeCache

    @property
    def cost(self) -> float:
        """Squared norm of the whitened residual: the graph's cost here."""
        return float(self.residual @ self.residual)

    def chi2_by_kind(self) -> dict[str, float]:
        """The cost split by factor kind: each kind's squared whitened residual."""
        out: dict[str, float] = {}
        for b in self.layout.blocks:
            r = self.residual[b.rows]
            out[b.kind] = out.get(b.kind, 0.0) + float(r @ r)
        return out

    @cached_property
    def normal_matrix(self) -> np.ndarray:
        """J^T J in lower band storage: H[i, j] (i >= j) at [i - j, j], shape (bandwidth + 1, n).

        The constant-Jacobian blocks' part is the layout's constant_band,
        formed once per graph; only the relinearized blocks' part is formed
        here, and the sum is a new array.
        """
        layout = self.layout
        relinearized = [(b, J) for b, J in zip(layout.blocks, self.jacobians) if b.jacobian is None]
        return layout.constant_band + _band(layout, relinearized, layout.band_positions)

    @cached_property
    def factor(self) -> np.ndarray:
        """The Cholesky factor L of normal_matrix in the same lower band storage.

        Shared by the undamped Gauss-Newton step and the marginals; raises
        numpy.linalg.LinAlgError when J^T J is not positive definite.
        """
        return _band_cholesky(self.normal_matrix)

    @cached_property
    def gradient(self) -> np.ndarray:
        """J^T r."""
        products = [np.einsum("ndw,nd->nw", J, self.residual[b.rows].reshape(J.shape[:2])).ravel()
                    for b, J in zip(self.layout.blocks, self.jacobians)]
        return np.bincount(self.layout.columns, weights=np.concatenate(products), minlength=self.layout.shape[1])

    @cached_property
    def jacobian(self) -> np.ndarray:
        """The dense (m, n) J."""
        out = np.zeros(self.layout.shape)
        for b, J in zip(self.layout.blocks, self.jacobians):
            np.put_along_axis(out[b.rows].reshape(*J.shape[:2], -1), b.columns[:, None, :], J, axis=2)
        return out


def _band_cholesky(band: np.ndarray) -> np.ndarray:
    """The Cholesky factor of a matrix in lower band storage, in the same storage; band is kept.

    LAPACK's dpbtrf, the routine scipy's cholesky_banded wraps, called
    without the wrapper's dispatch, which took as long as the factorization
    on window-sized systems. Raises numpy.linalg.LinAlgError when the
    matrix is not positive definite.
    """
    factor, info = scipy.linalg.lapack.dpbtrf(band, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"band Cholesky failed: dpbtrf info {info}")
    return factor


def linearize(graph: FactorGraph, x: np.ndarray) -> LinearSystem:
    """Whiten the residual and the blocks' Jacobians at the state vector x.

    x holds every variable in variable_index order (graph.state_vector
    flattens a dict of values); each block gathers its factors' values from
    it by index arrays of the layout. Residual rows come block by block, each
    block's factor by factor.
    """
    cache = graph.layout
    res = np.empty(cache.shape[0])
    jacobians = []
    for b in cache.blocks:
        vals = [x[g] for g in b.gather]
        if b.jacobian is not None:
            r = b.kernel.residuals(b.consts, *vals)
            jacobians.append(b.jacobian)
        else:
            r, jacs = b.kernel.evaluate(b.consts, *vals)
            jacobians.append(np.concatenate(jacs, axis=2) * b.inv_sigmas[:, :, None])
        res[b.rows] = (r * b.inv_sigmas).ravel()
    return LinearSystem(x=x, residual=res, index=cache.index, jacobians=jacobians, layout=cache)


# ---------------------------------------------------------------------------
# Gauss-Newton with Levenberg fallback
# ---------------------------------------------------------------------------


# Levenberg ladder, scaled by the normal-matrix diagonal (Marquardt style).
# It runs to 1e10: next to a minimum where the undamped step goes uphill,
# only a step damped far beyond 1e2 may still lower the cost, and a ladder
# ending at 1e2 would report such converged solves as stalls
_DAMPINGS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10)
# the model rule's chi^2 threshold is this many times rel_cost_tol: 1e-3 at
# the default, a remaining step of at most sqrt(1e-3), about 3.2%, of a
# posterior standard deviation in any direction (see gauss_newton)
_MODEL_TOL_RATIO = 1e6


@dataclass
class GaussNewtonOptions:
    """When gauss_newton stops; see its docstring for the order of the tests."""

    max_iter: int = 100  # accepted steps at most; reaching it stops with "max_iter"
    # stop ("cost") once an accepted step lowered the cost by at most this
    # fraction of it, or before linearizing the undamped step when that step
    # is at most sqrt(_MODEL_TOL_RATIO * this) posterior standard deviations
    # long: sqrt(1e-3), about 3.2% of a sigma, at the default
    rel_cost_tol: float = 1e-9


@dataclass
class SolveReport:
    iterations: int
    initial_cost: float
    final_cost: float
    reason: str
    cost_trace: list[float] = field(default_factory=list)
    # {factor kind: chi^2} at the first and the last point; each sums to its cost
    chi2_initial: dict[str, float] = field(default_factory=dict)
    chi2_final: dict[str, float] = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        """Whether the solve converged: reason "cost".

        The other two reasons are "no_improving_step" (a stall) and
        "max_iter" (the cap).
        """
        return self.reason == "cost"


def _solve_normal(system: LinearSystem, damping: float | None) -> np.ndarray | None:
    """The step solving (H + damping diag) delta = -g, or None when H is singular there.

    The undamped step uses the system's own factor, which the marginals reuse.
    """
    try:
        if damping is None:
            factor = system.factor
        else:
            H = system.normal_matrix.copy()
            H[0] += damping * np.where(H[0] > 0.0, H[0], 1.0)
            factor = _band_cholesky(H)
    except np.linalg.LinAlgError:
        return None
    delta, info = scipy.linalg.lapack.dpbtrs(factor, -system.gradient, lower=1, overwrite_b=1)
    if info != 0 or not np.all(np.isfinite(delta)):
        return None
    return delta


def gauss_newton(graph: FactorGraph, init: dict | None = None,
                 opts: GaussNewtonOptions | None = None) -> tuple[dict, SolveReport]:
    """Batch MAP optimization; accepted steps never increase the cost.

    A plain Gauss-Newton step is tried first; if it does not decrease the
    cost the Levenberg ladder is walked until a decreasing step is found.
    Each candidate is scored by linearizing it, and an accepted candidate's
    system is the next iteration's linearization, so every point is
    evaluated once.

    A solve ends in one of three ways, its report's reason:
      - "cost", converged, by one of two rules:
          - the model rule, before a candidate is linearized: the undamped
            step delta (H delta = -g) has the forecast decrease -g^T delta =
            delta^T H delta. H = J^T J is the information matrix that
            marginal_covariances inverts, so delta^T H delta is the squared
            length of delta in posterior standard deviations: no linear
            function a^T x moves by more than sqrt(delta^T H delta) of its
            own sigma sqrt(a^T H^-1 a). The solve stops at the current
            point, evaluated already, when that is between 0 and tau =
            _MODEL_TOL_RATIO * rel_cost_tol, a fixed chi^2 amount: 1e-3 at
            the default, a step of at most 3.2% of a sigma. Only the
            undamped step is trusted for this, since a damped step forecasts
            a small decrease because it is short, not because the cost is
            near its minimum; and a negative forecast means the step is no
            descent direction, a broken solve rather than a converged one.
            The forecast is at most the cost, so a cost below tau stops
            here too.
          - the actual rule, after an accepted step: the cost fell by at
            most rel_cost_tol times its previous value. Where H is singular
            there is no undamped step, and damped steps go on until this
            rule ends the solve.
      - "no_improving_step", stalled: no rung of the ladder lowers the cost.
      - "max_iter", capped: max_iter steps were accepted.

    The solve iterates on one flat state vector: the initial values are
    flattened once, a candidate is x + delta with the angle slots wrapped
    (retract, through the layout's theta mask), and the values dict is built
    once on return. The report's per-kind chi^2 come from the first and the
    final system. The final system is kept as graph.solved, so that
    marginal_covariances at the returned values does not linearize again,
    and takes the band factor too when the model rule stopped the solve.
    """
    opts = opts or GaussNewtonOptions()
    init = init or graph.initial
    for key in graph.dims:
        if key not in init:
            raise KeyError(f"no initial value for {key}")
    x = graph.state_vector(init)
    theta = graph.layout.theta
    system = linearize(graph, x)
    cost = system.cost
    if not math.isfinite(cost):
        raise NonFiniteCost(f"initial cost is {cost}")
    trace = [cost]
    report = SolveReport(0, cost, cost, "max_iter", trace, chi2_initial=system.chi2_by_kind())

    model_tol = _MODEL_TOL_RATIO * opts.rel_cost_tol  # tau, in chi^2
    warm = None  # index of the last rung that produced an accepted step
    for it in range(opts.max_iter):
        undamped = _solve_normal(system, None)
        # the model rule: stop here, without linearizing x + undamped
        if undamped is not None and 0.0 <= -float(system.gradient @ undamped) <= model_tol:
            report.reason = "cost"
            break
        # plain Gauss-Newton first; on cost increase walk the Levenberg
        # ladder, starting one rung below the last one that worked
        ladder = _DAMPINGS if warm is None else _DAMPINGS[max(warm - 1, 0):]
        attempts = itertools.chain([(None, undamped)], ((d, _solve_normal(system, d)) for d in ladder))
        accepted = None
        singular_everywhere = True
        for damping, delta in attempts:
            if delta is None:
                continue
            singular_everywhere = False
            candidate = retract(x, delta, theta)
            c_system = linearize(graph, candidate)
            c_new = c_system.cost
            if not math.isfinite(c_new):
                raise NonFiniteCost("cost became non-finite during optimization")
            if c_new <= cost:
                accepted = (candidate, c_system, c_new)
                warm = None if damping is None else _DAMPINGS.index(damping)
                break
        if accepted is None:
            if singular_everywhere:
                raise SingularSystem("normal equations rank-deficient after damping")
            report.reason = "no_improving_step"
            break
        x, system, new_cost = accepted
        trace.append(new_cost)
        report.iterations = it + 1
        if abs(cost - new_cost) <= opts.rel_cost_tol * max(cost, 1e-300):
            cost = new_cost
            report.reason = "cost"
            break
        cost = new_cost

    report.final_cost = cost
    report.cost_trace = trace
    report.chi2_final = system.chi2_by_kind()
    graph.solved = system
    # views into a copy, so that changing the values leaves the kept system's point alone
    out = x.copy()
    return {key: out[off : off + dim] for key, (off, dim) in system.index.items()}, report


def _selected_inverse(factor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and subdiagonal s x s blocks of (L L^T)^-1, s = max(bandwidth, 1).

    factor is L in lower band storage. Split into column blocks of s, L is
    block lower-bidiagonal, and a backward recursion (Takahashi, Fagan &
    Chen 1973) yields the blocks of Sigma on and below the diagonal:

        Sigma[k+1, k] = -Sigma[k+1, k+1] L[k+1, k] L[k, k]^-1
        Sigma[k, k]   = L[k, k]^-T (L[k, k]^-1 - L[k+1, k]^T Sigma[k+1, k])

    Unit columns pad n up to a whole number of blocks; they are a separate
    identity block of L and leave Sigma's first n columns unchanged.
    Returns (diagonal blocks (K, s, s), subdiagonal blocks (K - 1, s, s)).
    """
    bw, n = factor.shape[0] - 1, factor.shape[1]
    s = max(bw, 1)
    K = -(-n // s)
    padded = np.zeros((2 * s, K * s))  # diagonals 0..2s-1 of L; those beyond bw are zero
    padded[: bw + 1, :n] = factor
    padded[0, n:] = 1.0
    within = np.arange(s)
    lag = within[:, None] - within[None, :]  # row minus column inside a block
    cols = np.arange(K)[:, None, None] * s + within  # (K, 1, s) state column of each block column
    # L[ks + r, ks + c] sits at padded[r - c, ks + c] (r < c wraps to a zero
    # row past bw) and L[(k+1)s + r, ks + c] at padded[s + r - c, ks + c]
    diag_L = padded[lag % (2 * s), cols]
    below_L = padded[s + lag, cols[:-1]]
    inv_L = [scipy.linalg.lapack.dtrtri(L, lower=1)[0] for L in diag_L]
    diag = np.empty((K, s, s))
    below = np.empty((K - 1, s, s))
    diag[-1] = inv_L[-1].T @ inv_L[-1]
    for k in range(K - 2, -1, -1):
        below[k] = -diag[k + 1] @ below_L[k] @ inv_L[k]
        diag[k] = inv_L[k].T @ (inv_L[k] - below_L[k].T @ below[k])
    return diag, below


def marginal_covariances(graph: FactorGraph, values: dict, keys) -> dict:
    """Posterior covariance blocks for several variables from one factorization.

    The band Cholesky factor of J^T J gives the blocks of the inverse on and
    next to the diagonal by selected inversion (_selected_inverse; Kaess &
    Dellaert 2009), in O(n bandwidth^2) time and O(n bandwidth) memory. A
    key's block is read from its diagonal block, or from the pair of blocks
    around the edge that it straddles.

    At the values the last gauss_newton on the graph returned, its final
    system (graph.solved) and that system's factor are taken over instead of
    linearizing and factoring again; other values are linearized. The graph
    lets go of the system when it is taken, so that solved graphs kept alive
    do not hold one each.
    """
    x = graph.state_vector(values)
    system, graph.solved = graph.solved, None
    if system is None or not np.array_equal(system.x, x):
        system = linearize(graph, x)
    try:
        factor = system.factor
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    diag, below = _selected_inverse(factor)
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(below))):
        raise SingularSystem("marginal covariance is not finite")
    diag = 0.5 * (diag + diag.transpose(0, 2, 1))
    s = diag.shape[1]
    out = {}
    for key in keys:
        off, dim = system.index[key]
        k, first = divmod(off, s)
        if first + dim <= s:
            out[key] = diag[k, first : first + dim, first : first + dim].copy()
        else:
            pair = np.block([[diag[k], below[k].T], [below[k], diag[k + 1]]])
            out[key] = pair[first : first + dim, first : first + dim]
    return out


# ---------------------------------------------------------------------------
# graph construction from measured trajectories
# ---------------------------------------------------------------------------


class GraphModel(enum.Enum):
    CP = "CP"
    SDF = "SDF"
    QS = "QS"


@dataclass(frozen=True)
class GraphConfig:
    """Per-factor noise levels (SI units) used to build estimation graphs.

    What depends on the config alone is built once per config, on first use,
    and shared by every row built from it: the checked noise model of each
    factor kind, the four inverse-sigma vectors of the contact/force
    measurement (contact_force_inv_sigmas) and the checked per-sqrt(s)
    constant-velocity sigmas (vel_rate_noise), which a V row scales by its
    dt. So a step's rows take their whitening without building or checking
    a noise model.
    """

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
    def from_trajectory(cls, traj: MeasuredTrajectory) -> "GraphConfig":
        """Measurement sigmas from the file's corruption provenance.

        Each sigma is the recorded noise spec's (NoiseSpec.sigmas). A
        channel the spec did not touch, or touched with a zero sigma, is
        treated as exact (tight sigma), so that, e.g., ground-truth-pose
        protocols pin poses. dataclasses.replace sets other fields.
        """
        tight = 1e-4
        sigmas = {} if traj.noise is None else traj.noise.sigmas()
        return cls(**{name: sigma if sigma > 0.0 else tight for name, sigma in sigmas.items()})

    @cached_property
    def object_pose_noise(self) -> NoiseModel:
        return NoiseModel([self.sigma_x_trans, self.sigma_x_trans, self.sigma_x_rot])

    @cached_property
    def ee_pose_noise(self) -> NoiseModel:
        return NoiseModel([self.sigma_e_trans, self.sigma_e_trans, self.sigma_e_rot])

    @cached_property
    def pf_noise(self) -> NoiseModel:
        return NoiseModel([self.sigma_contact, self.sigma_contact, self.sigma_force, self.sigma_force])

    @cached_property
    def weak_noise(self) -> NoiseModel:
        return NoiseModel.isotropic(4, self.sigma_weak)

    @cached_property
    def surface_noise(self) -> NoiseModel:
        return NoiseModel.isotropic(2, self.sigma_surface)

    @cached_property
    def intersection_noise(self) -> NoiseModel:
        return NoiseModel.isotropic(2, self.sigma_intersection)

    @cached_property
    def qs_noise(self) -> NoiseModel:
        return NoiseModel.isotropic(2, self.sigma_qs)

    @cached_property
    def vel_rate_noise(self) -> NoiseModel:
        """sigma_vel, per sqrt(s); a V row over steps dt1 and dt2 apart has sigmas * sqrt((dt1 + dt2) / 2)."""
        return NoiseModel(self.sigma_vel)

    @cached_property
    def contact_force_inv_sigmas(self) -> dict[tuple[bool, bool], np.ndarray]:
        """The contact/force measurement's inverse sigmas, by (w measured, alpha measured).

        The pf sigmas on a measured half, the weak sigma on an unmeasured one.
        """
        weak, measured = self.weak_noise.inv_sigmas, self.pf_noise.inv_sigmas
        return {(w, alpha): np.where(np.repeat([w, alpha], 2), measured, weak)
                for w in (False, True) for alpha in (False, True)}


def _as_model(model) -> GraphModel:
    if isinstance(model, GraphModel):
        return model
    return GraphModel(str(model).upper())


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


def _step_rows(blocks: dict, model: GraphModel, traj: MeasuredTrajectory, config: GraphConfig, t: int,
               step: TrajectoryStep, times, init: dict, keys: tuple):
    """Append the row of every factor whose newest variable is at t, in the order build_graph and the smoother share.

    The gauge priors (at t = 0 only, anchored at init) come first, then the
    measurement factors, then C, S, D and V; dt is times[t] - times[t-1],
    and keys are _step_keys(t). A dt that is not positive raises
    NonPositiveTimestep before any row is appended. The work is the same
    at every step: the rows share the config's inverse sigmas (a V row's
    are the config's rate sigmas scaled by its dt), and only times[t - 2:t + 1]
    is read.
    """
    if t >= 1 and not times[t] > times[t - 1]:
        raise NonPositiveTimestep(f"step {t} at t = {times[t]} is not after the previous step at t = {times[t - 1]}")
    obj_shape, ee_shape = traj.object_shape, traj.ee_shape
    x, e, pf, x1, e1, x2, e2 = keys
    if t == 0:
        for key, noise in ((x, config.object_pose_noise), (e, config.ee_pose_noise), (pf, config.pf_noise)):
            add_row(blocks, PriorFactor, (key,), (init[key], _ANGLES[key.role]), noise.inv_sigmas)
    for key, meas, noise in ((x, step.y, config.object_pose_noise), (e, step.z, config.ee_pose_noise)):
        if meas is not None:
            add_row(blocks, PriorFactor, (key,), (meas.as_array(), _ANGLES[key.role]), noise.inv_sigmas, kind="m_pose")
    # unmeasured components: zero anchor, weak sigma
    meas = np.zeros(4)
    if step.w is not None:
        meas[:2] = step.w
    if step.alpha is not None:
        meas[2:] = np.asarray(step.alpha, dtype=float)[:2]
    add_row(blocks, ContactForceMeasurementFactor, (pf,), (meas, _ANGLES[Role.CONTACT_FORCE]),
            config.contact_force_inv_sigmas[step.w is not None, step.alpha is not None])
    surface = config.surface_noise.inv_sigmas
    add_row(blocks, ContactSurfaceFactor, (x, pf), (), surface, (obj_shape,), kind="c_object")
    add_row(blocks, ContactSurfaceFactor, (e, pf), (), surface, (ee_shape,), kind="c_ee")
    add_row(blocks, SurfaceGapFactor, (x, e), (), surface, (obj_shape, ee_shape))
    if model in (GraphModel.SDF, GraphModel.QS):
        add_row(blocks, IntersectionFactor, (x, e), (), config.intersection_noise.inv_sigmas, (obj_shape, ee_shape))
    if model is GraphModel.QS and t >= 1:
        add_row(blocks, QuasiStaticFactor, (x1, x, pf), (traj.params.c, times[t] - times[t - 1]),
                config.qs_noise.inv_sigmas)
    if t >= 2:
        dt1, dt2 = times[t - 1] - times[t - 2], times[t] - times[t - 1]
        # NoiseModel's own float operations on sigmas that it checked once; dt > 0 is checked above
        inv_sigmas = 1.0 / (config.vel_rate_noise.sigmas * math.sqrt(0.5 * (dt1 + dt2)))
        add_row(blocks, ConstantVelocityFactor, (x2, x1, x), (dt1, dt2), inv_sigmas)
        add_row(blocks, ConstantVelocityFactor, (e2, e1, e), (dt1, dt2), inv_sigmas)


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
    """Initialization from projected measurements with gap extrapolation.

    A step without w starts its contact at the object's boundary point
    nearest the pusher centre, at that step's initial poses.
    """
    xs = _initial_pose_track([None if s.y is None else s.y.as_array() for s in traj.steps])
    es = _initial_pose_track([None if s.z is None else s.z.as_array() for s in traj.steps])
    init: dict[VariableKey, np.ndarray] = {}
    pf = np.zeros(4)
    for t, step in enumerate(traj.steps):
        init[obj_key(t)] = xs[t]
        init[ee_key(t)] = es[t]
        pf = _initial_pf(pf, step)
        init[pf_key(t)] = pf
    blind = [t for t, step in enumerate(traj.steps) if step.w is None]
    if blind:
        starts = closest_points_with_jacobians(traj.object_shape, np.array([xs[t] for t in blind]),
                                               np.array([es[t][:2] for t in blind]))[0]
        for t, p in zip(blind, starts):
            init[pf_key(t)][:2] = p
    return init


def build_graph(model, traj: MeasuredTrajectory, config: GraphConfig | None = None) -> FactorGraph:
    """Assemble a CP/SDF/QS estimation graph with initial values attached."""
    model = _as_model(model)
    if len(traj) < 2:
        raise EmptyTrajectory("need at least two timesteps")
    _check_metadata(model, traj)
    config = config or GraphConfig.from_trajectory(traj)
    times = traj.timestamps.tolist()
    init = initial_values(traj)
    blocks: dict = {}
    for t, step in enumerate(traj.steps):
        _step_rows(blocks, model, traj, config, t, step, times, init, _step_keys(t))
    return FactorGraph(blocks.values(), init)


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


def _oldest_step(row) -> int:
    return min(key.t for key in row.keys)


class _Linearization(NamedTuple):
    """A graph's linearization as a marginalization reads it, block by block."""

    index: dict  # the graph's variable_index
    # by each block's first row's seq: its (N, width) columns, whitened
    # (N, d, width) Jacobian and whitened (N, d) residual
    blocks: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]

    @classmethod
    def of(cls, graph: FactorGraph, system: LinearSystem) -> "_Linearization":
        return cls(system.index, {b.rows[0].seq: (layout.columns, J, system.residual[layout.rows].reshape(J.shape[:2]))
                                  for b, layout, J in zip(graph.blocks, system.layout.blocks, system.jacobians)})


_NO_LINEARIZATION = _Linearization({}, {})
_NO_ROWS = (np.zeros((0, 0), dtype=np.intp), np.zeros((0, 0, 0)), np.zeros((0, 0)))


def _renumber(source: dict, target: dict) -> np.ndarray:
    """target's column of each column of the source variable index; -1 for a variable target lacks."""
    out = np.full(sum(dim for _, dim in source.values()), -1, dtype=np.intp)
    for key, (off, dim) in target.items():
        if key in source:
            at = source[key][0]
            out[at : at + dim] = np.arange(off, off + dim)
    return out


class FixedLagSmoother:
    """Incremental estimation over a sliding window of recent timesteps.

    Timesteps older than the lag are marginalized at the current
    linearization point: the rows that touch them are linearized, their
    whitened system [J r] is QR-factored with the old variables first, and
    the rows of R below the old block become one LinearizedPriorFactor row
    on the boundary variables (square-root information, as in iSAM2). The
    window is re-optimized after every `batch_every` timesteps, measured or
    not; `batch_every <= lag` makes every timestep part of an optimized
    window before it is marginalized.

    After each window solve the smoother keeps that window's final
    linearization, the whitened Jacobian and residual of each of its
    blocks (gauss_newton leaves them in graph.solved). Estimates change
    only in window solves, so at the next marginalization the rows that
    window held are still at the values of its final system, and their
    rows of [J r] are read from it; only the absorbed rows appended since
    are linearized, as one small graph. [J r] is the same, row for row and
    column for column, as a linearization of all absorbed rows, and so is
    every prior. The kept linearization is reset before each solve, so a
    solve that raises leaves none and the next marginalization linearizes
    every row it absorbs; finalize drops it, since no marginalization
    follows.

    Each update appends the rows of _step_rows to the smoother's blocks, as
    build_graph does, and marginalization takes the rows it absorbs out of
    them. A window is the graph of the active rows; every step has factors
    on its three variables, so its variables are the whole (role, t) grid
    from first_active_t on. With lag >= T and batch_every = T the one window
    is the batch graph, row for row in the same order. On a fully
    measured trajectory its initial values are the batch's too, and the
    answer equals the batch answer bit for bit. Under occlusion the initial
    values differ: the batch sees the whole trajectory and interpolates
    across a gap, while the smoother is causal and extrapolates from its
    own estimates. So without w, only the first step starts its contact
    at the object's boundary point nearest the pusher centre, as every
    such step of the batch does; later steps carry the previous estimate.
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
        if not 1 <= self.batch_every <= self.lag:
            raise ValueError(f"batch_every must be between 1 and the lag ({self.lag}), got {self.batch_every}")

        self.timestamps: list[float] = []
        self.estimates: dict[VariableKey, np.ndarray] = {}
        self.blocks: dict = {}  # the active rows, as add_row appends them
        self.first_active_t = 0
        self.reports: list[SolveReport] = []  # one per window optimization
        # the last window's final linearization; _NO_LINEARIZATION when there is none to reuse
        self._solved = _NO_LINEARIZATION

    # -- construction helpers ------------------------------------------------

    def _new_variables(self, keys: tuple, step: TrajectoryStep) -> dict[VariableKey, np.ndarray]:
        """Initial values of a step's variables, from its measurements or the estimates before it.

        keys are the step's _step_keys.
        """
        x, e, pf, x1, e1, x2, e2 = keys
        estimates = self.estimates
        y = None if step.y is None else step.y.as_array()
        z = None if step.z is None else step.z.as_array()
        if y is None:
            prev = estimates.get(x1)
            y = np.zeros(3) if prev is None else _extrapolate_pose(prev, estimates.get(x2))
        if z is None:
            prev = estimates.get(e1)
            z = np.zeros(3) if prev is None else _extrapolate_pose(prev, estimates.get(e2))
        prev_pf = estimates.get(VariableKey(Role.CONTACT_FORCE, x.t - 1))
        contact = _initial_pf(np.zeros(4) if prev_pf is None else prev_pf, step)
        if step.w is None and prev_pf is None:
            contact[:2] = closest_points_with_jacobians(self.template.object_shape, y[None], z[None, :2])[0][0]
        return {x: y, e: z, pf: contact}

    def update(self, step: TrajectoryStep):
        """Ingest one timestep of measurements; `estimates` holds the result.

        An update that does not close a window does the same small amount of
        work at every step, however many came before: it builds the step's
        keys once, appends the step's rows and its timestamp in place, and
        reads only the estimates of the two steps before it. Every
        batch_every steps it also optimizes the window.
        A step that is not after the previous one raises NonPositiveTimestep
        and leaves the smoother as it was.
        """
        t = len(self.timestamps)
        keys = _step_keys(t)
        new = self._new_variables(keys, step)
        self.timestamps.append(float(step.t))
        try:
            _step_rows(self.blocks, self.model, self.template, self.config, t, step, self.timestamps, new, keys)
        except NonPositiveTimestep:
            self.timestamps.pop()
            raise
        self.estimates.update(new)
        if t >= 1 and (t + 1) % self.batch_every == 0:
            self._optimize()

    def finalize(self) -> dict:
        """Optimize the steps that arrived after the last window; return all estimates."""
        T = len(self.timestamps)
        # update ran a window at T >= 2 exactly when T is a multiple of batch_every
        if T >= 2 and T % self.batch_every != 0:
            self._optimize()
        self._solved = _NO_LINEARIZATION  # no marginalization follows
        return {k: v.copy() for k, v in self.estimates.items()}

    # -- optimization and marginalization ------------------------------------

    def _optimize(self):
        T = len(self.timestamps)
        window_start = max(self.first_active_t, T - self.lag)
        if window_start > self.first_active_t:
            self._marginalize_upto(window_start)
        self._solved = _NO_LINEARIZATION  # a solve that raises leaves none
        graph = FactorGraph(self.blocks.values(), self.estimates)
        values, report = gauss_newton(graph, None, self.opts)
        self._solved = _Linearization.of(graph, graph.solved)
        self.reports.append(report)
        self.estimates.update(values)

    def _marginalize_upto(self, new_start: int):
        # every active row touching a timestep before new_start is absorbed;
        # the variables it also touches at or after new_start form the
        # boundary. A block's rows are in step order, so it absorbs a prefix
        absorbed, kept = [], {}
        for signature, b in self.blocks.items():
            n = bisect.bisect_left(b.rows, new_start, key=_oldest_step)
            absorbed.append(Block(b.kernel, b.kind, b.shared, b.rows[:n]))
            if n < len(b.rows):
                kept[signature] = Block(b.kernel, b.kind, b.shared, b.rows[n:])
        # its variables and block order; its layout is never built
        absorbed = FactorGraph(absorbed)
        # a block's rows the last window held come first, at that window's
        # final linearization; the rest were appended since, and are linearized here
        window = self._solved
        held, appended = [], []
        for b in absorbed.blocks:
            columns, J, r = window.blocks.get(b.rows[0].seq, _NO_ROWS)
            h = min(len(J), len(b.rows))
            held.append((columns[:h], J[:h], r[:h]))
            appended.append(Block(b.kernel, b.kind, b.shared, b.rows[h:]))
        appended = FactorGraph(appended)
        fresh = (_Linearization.of(appended, linearize(appended, appended.state_vector(self.estimates)))
                 if appended.blocks else _NO_LINEARIZATION)
        # [J r] row by row in the absorbed graph's order; timestep-major
        # ordering puts the old variables first, and the rows of R below the
        # old block are the boundary's square-root information
        index = absorbed.variable_index()
        n = absorbed.total_dim
        from_window, from_fresh = _renumber(window.index, index), _renumber(fresh.index, index)
        parts = []
        for b, (columns, J, r) in zip(absorbed.blocks, held):
            if len(J):
                parts.append((from_window[columns], J, r))
            if len(J) < len(b.rows):
                columns, J, r = fresh.blocks[b.rows[len(J)].seq]
                parts.append((from_fresh[columns], J, r))
        system = np.zeros((sum(r.size for *_, r in parts), n + 1))
        m = 0
        for columns, J, r in parts:
            rows = np.arange(m, m + r.size).reshape(r.shape)
            system[rows[:, :, None], columns[:, None, :]] = J
            system[rows, n] = r
            m += r.size
        boundary = [k for k in index if k.t >= new_start]
        n_old = sum(dim for k, (_, dim) in index.items() if k.t < new_start)
        R = np.linalg.qr(system, mode="r")
        diag = np.abs(np.diag(R[:n_old, :n_old]))
        if R.shape[0] < n_old or diag.min() <= 1e-12 * diag.max():
            raise SingularSystem("marginalized block is singular")
        # copies, so that the prior does not keep the whole R alive
        prior = (np.concatenate([self.estimates[k] for k in boundary]),
                 np.concatenate([_ANGLES[k.role] for k in boundary]), R[n_old:n, n].copy(),
                 R[n_old:n, n_old:n].copy())
        add_row(kept, LinearizedPriorFactor, tuple(boundary), prior, np.ones(len(prior[2])),
                (tuple(map(key_dim, boundary)),))
        # marginalized estimates stay in self.estimates as frozen history
        self.blocks = kept
        self.first_active_t = new_start

    # -- reporting ------------------------------------------------------------

    def estimate_arrays(self) -> TrajectoryArrays:
        return values_to_arrays(self.estimates, len(self.timestamps), np.asarray(self.timestamps))


def solve_incremental(model, traj: MeasuredTrajectory, config: GraphConfig | None = None,
                      lag: int = 20, batch_every: int = 5,
                      opts: GaussNewtonOptions | None = None):
    """Run the fixed-lag smoother over a whole trajectory file."""
    if len(traj) < 2:
        raise EmptyTrajectory("need at least two timesteps")
    smoother = FixedLagSmoother(model, traj, config, lag=lag, batch_every=batch_every, opts=opts)
    for step in traj.steps:
        smoother.update(step)
    values = smoother.finalize()
    return values, smoother
