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
evaluated, by the per-block routine of `linearize`.
The state is a grid of ten columns a step: x_t, e_t and pf_t start at
columns 10 t, 10 t + 3 and 10 t + 6, and a factor row holds its step and
its variables' offsets from that step's first column. Both paths assemble
a timestep the same way: `_step_rows` appends the row of every factor
whose newest variable is at t (the gauge priors at t = 0, then the
measurements, then C, S, D and V) to the block of its kernel, kind and
shapes (factors.Block). `build_graph` calls it over the whole trajectory,
the smoother once per update, so only the initial values differ between
the two. A graph's columns are the grid cells its rows touch, in order.
`linearize` calls each block's kernel once, over all its rows: for the
Gauss-Newton candidates (their cost is the squared norm of the whitened
residual it assembles) and the marginal covariances, which at a solve's
answer reuse its final system and band factor. Blocks with constant
Jacobians are whitened once per graph and after that only their
residuals are evaluated; the band layout is built at the first J^T J.
`gauss_newton` iterates on one state vector of the graph's columns, a
candidate being x + delta with the angle slots wrapped through a mask of
the layout. It is read from a grid of values or a dict by key
(FactorGraph.state_vector), and a dict is built only at a solve's exit.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
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
    # the str mixin hashes a VariableKey in C (Enum's __hash__ is Python), for the API's dicts by key
    OBJECT = "x"
    EE = "e"
    CONTACT_FORCE = "pf"


_ROLE_DIM = {Role.OBJECT: 3, Role.EE: 3, Role.CONTACT_FORCE: 4}
# which components of a variable are angles, wrapped on update
_ANGLES = {role: np.arange(dim) == 2 if role is not Role.CONTACT_FORCE else np.zeros(dim, dtype=bool)
           for role, dim in _ROLE_DIM.items()}
# the state grid: ten columns a step, x_t, e_t and pf_t from 10 t, 10 t + 3 and 10 t + 6
_STEP = 10
_AT = {Role.OBJECT: 0, Role.EE: 3, Role.CONTACT_FORCE: 6}
_ROLE_AT = {at: role for role, at in _AT.items()}
_GRID_ANGLES = np.concatenate(list(_ANGLES.values()))  # by column within a step


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


def _grid_values(grid: np.ndarray) -> dict[VariableKey, np.ndarray]:
    """A grid's rows of steps 0, 1, ... as a dict of values by key, each a copy."""
    return {VariableKey(role, t): values[at : at + _ROLE_DIM[role]].copy()
            for t, values in enumerate(grid) for role, at in _AT.items()}


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
    """Blocks of factor rows; its columns are the grid cells the rows touch, in grid order.

    The graph keeps the rows its blocks hold now, and puts the blocks in
    the order their first rows were appended (_place). `initial`, if given,
    is read when a solve starts (see state_vector). The layout linearize
    uses is built on first use and kept, since a graph does not change
    after it is built.
    """

    def __init__(self, blocks: Iterable[Block], initial: dict | np.ndarray | None = None):
        self.blocks: list[Block] = sorted((Block(b.kernel, b.kind, b.shared, b.rows[:]) for b in blocks if b.rows),
                                          key=_place)
        self.initial = initial
        # the system the last gauss_newton on this graph ended on, until
        # marginal_covariances takes it
        self.solved: LinearSystem | None = None

    def state_vector(self, values: dict | np.ndarray) -> np.ndarray:
        """The values of the graph's variables as one new vector, in column order.

        values is a dict by key (other graphs' keys left out) or a grid, ten values a step from step 0.
        """
        layout = self.layout
        if isinstance(values, np.ndarray):
            return values.take(layout.grid)
        return _concat([values[key] for key in layout.variables], float)

    def cost(self, values: dict | np.ndarray) -> float:
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


# the kinds of a step's rows in the order they are appended, a boundary prior last
_KINDS = ("prior", "m_pose", "m_contactforce", "c_object", "c_ee", "c_objee", "s", "d", "v", "linearized_prior")


def _place(block: Block) -> tuple[int, int]:
    """Where a block's first row was appended: its step, then its kind's place in the step."""
    return block.rows[0][0], _KINDS.index(block.kind)


@dataclass
class _BlockLayout:
    """A block's rows as linearize evaluates them, by one kernel call."""

    kernel: type
    kind: str
    consts: tuple  # the block's constants()
    inv_sigmas: np.ndarray  # (N, d) whitening
    jacobian: np.ndarray | None  # whitened (N, d, width) Jacobian when it is constant
    spans: tuple  # each variable's slice of a row's width columns
    columns: np.ndarray | None = None  # (N, width) positions evaluate gathers from; in a graph, state columns
    gather: list | None = None  # the columns split by variable
    rows: slice | None = None  # in a graph: its N * d residual rows, factor by factor

    def placed(self, columns: np.ndarray):
        """Gather from the positions columns (N, width) from now on."""
        # copies: a contiguous index array gathers faster than a view of columns
        self.columns, self.gather = columns, [columns[:, span].copy() for span in self.spans]

    def evaluate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The whitened (N, d) residual and (N, d, width) Jacobian at x."""
        vals = [x[g] for g in self.gather]
        if self.jacobian is not None:
            return self.kernel.residuals(self.consts, *vals) * self.inv_sigmas, self.jacobian
        r, jacs = self.kernel.evaluate(self.consts, *vals)
        return r * self.inv_sigmas, np.concatenate(jacs, axis=2) * self.inv_sigmas[:, :, None]

    @cached_property
    def lower(self) -> np.ndarray:
        """(N, width, width) pairs of columns that fall on or below the diagonal."""
        return self.columns[:, :, None] >= self.columns[:, None, :]


@lru_cache(maxsize=256)
def _row_columns(at: tuple) -> tuple[np.ndarray, tuple]:
    """The grid columns of a row with offsets at, relative to its step's first, and each variable's slice of them."""
    dims = [_ROLE_DIM[_ROLE_AT[a % _STEP]] for a in at]
    columns = np.concatenate([a + np.arange(dim) for a, dim in zip(at, dims)])
    columns.flags.writeable = False  # every caller shares it
    return columns, tuple(slice(end - dim, end) for end, dim in zip(itertools.accumulate(dims), dims))


def _block_layout(block: Block) -> _BlockLayout:
    """A block's rows gathering their values from a grid, at positions 10 t + each row's _row_columns."""
    rows = block.rows
    inv_sigmas = np.array([row[3] for row in rows])
    cls, consts = block.kernel, block.constants()
    jacobian = (np.concatenate(cls.constant_jacobians(consts), axis=2) * inv_sigmas[:, :, None]
                if cls.constant_jacobian else None)
    layout = _BlockLayout(cls, block.kind, consts, inv_sigmas, jacobian, _row_columns(rows[0][1])[1])
    layout.placed(_STEP * np.array([row[0] for row in rows])[:, None]
                  + np.array([_row_columns(row[1])[0] for row in rows]))
    return layout


def _grid_columns(cells: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """The grid columns that cells touch, in grid order, and each cell's place among them.

    A mask over the span the cells reach marks the touched columns, and its
    running count is each one's place, whether they cover the span or not.
    """
    flat = np.concatenate([c.ravel() for c in cells])
    lo = flat.min()
    touched = np.zeros(flat.max() + 1 - lo, dtype=bool)
    touched[flat - lo] = True
    place = (np.cumsum(touched) - 1)[flat - lo]
    ends = itertools.accumulate(c.size for c in cells)
    return np.flatnonzero(touched) + lo, [place[end - c.size : end].reshape(c.shape) for c, end in zip(cells, ends)]


@dataclass
class _LinearizeCache:
    """Blocks and the band layout of a graph, reused across iterations.

    The band layout (bandwidth, band_positions, constant_band and the
    blocks' lower pairs) is built on first use, by the first normal_matrix.
    """

    grid: np.ndarray  # the grid column of each state column
    theta: np.ndarray  # marks the state vector's angle slots, wrapped on update
    shape: tuple[int, int]
    blocks: list[_BlockLayout]  # with a constant Jacobian only the residual is evaluated
    columns: np.ndarray  # every block's columns, raveled block by block

    @cached_property
    def variables(self) -> dict[VariableKey, int]:
        """Each variable's first state column by key, in column order: the columns as the API's dicts see them."""
        return {VariableKey(_ROLE_AT[g % _STEP], g // _STEP): c
                for c, g in enumerate(self.grid.tolist()) if g % _STEP in _ROLE_AT}

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
    return np.concatenate(arrays, dtype=dtype) if arrays else np.zeros(0, dtype=dtype)


def _build_linearize_cache(graph: FactorGraph) -> _LinearizeCache:
    blocks = [_block_layout(b) for b in graph.blocks]
    grid, places = _grid_columns([b.columns for b in blocks]) if blocks else (np.zeros(0, int), [])
    m = 0
    for b, columns in zip(blocks, places):
        b.placed(columns)
        b.rows = slice(m, m + b.inv_sigmas.size)
        m += b.inv_sigmas.size
    return _LinearizeCache(
        grid=grid,
        theta=_GRID_ANGLES[grid % _STEP],
        shape=(m, len(grid)),
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

    x holds every variable in column order (graph.state_vector builds it);
    each block gathers its factors' values from it by index arrays of the
    layout. Residual rows come block by block, each block's factor by factor.
    """
    cache = graph.layout
    res = np.empty(cache.shape[0])
    jacobians = []
    for b in cache.blocks:
        r, J = b.evaluate(x)
        res[b.rows] = r.ravel()
        jacobians.append(J)
    return LinearSystem(x=x, residual=res, jacobians=jacobians, layout=cache)


# ---------------------------------------------------------------------------
# Gauss-Newton with Levenberg fallback
# ---------------------------------------------------------------------------


# Levenberg ladder, scaled by the normal-matrix diagonal (Marquardt style).
# It runs to 1e10: next to a minimum where the undamped step goes uphill,
# only a step damped far beyond 1e2 may still lower the cost, and a ladder
# ending at 1e2 would report such converged solves as stalls
_DAMPINGS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10)
# the model rule's chi^2 threshold tau is this many times rel_cost_tol:
# 1e-2 at the default, so that the step a solve stops short of is at most
# sqrt(1e-2), a tenth, of a posterior standard deviation long in any
# direction (see gauss_newton)
_MODEL_TOL_RATIO = 1e6


@dataclass
class GaussNewtonOptions:
    """When gauss_newton stops; see its docstring for the order of the tests."""

    max_iter: int = 100  # accepted steps at most; reaching it stops with "max_iter"
    # stop ("cost") once an accepted step lowered the cost by at most this
    # fraction of it, or before linearizing the undamped step when that step
    # is at most sqrt(_MODEL_TOL_RATIO * this) posterior standard deviations
    # long (sqrt(1e-2), a tenth of a sigma, at the default) and the steps
    # left add up to at most twice that (see gauss_newton)
    rel_cost_tol: float = 1e-8


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
    # sqrt(-g^T delta) of the undamped step the model rule judged at the
    # final point: the length, in posterior sigmas, of the step the solve
    # stopped short of. NaN where none was judged there (the last step was
    # accepted, or H is singular) or its forecast was negative
    final_step_sigma: float = math.nan

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
            _MODEL_TOL_RATIO * rel_cost_tol, a fixed chi^2 amount: 1e-2 at
            the default, a step of at most a tenth of a sigma, and when this
            step and the steps left add up to at most 2 sqrt(tau) sigmas.
            The steps left are taken to shrink at the rate r this one shrank
            by from the last: r is the square root of this forecast over the
            one at the point before (0 at the first point, and 1 where that
            was not positive), and the sum is sqrt(forecast) / (1 - r). At a
            rate of at most 1/2 the first test implies the second. Where the
            steps alternate about the minimum, shrinking slowly, the sum
            overstates the distance, and the solve goes on: to max_iter
            where they shrink by only a few percent a step. On a plateau,
            where steps of small and nearly constant forecast go on for
            dozens of iterations before the cost falls away, r is near 1 and
            the second test keeps the solve going. Stopped, the solve is
            within 2 sqrt(tau) sigmas of its minimum, a bias b with b^T H b
            <= 4 tau, which raises the RMSE of any a^T x by at most a factor
            sqrt(1 + 4 tau), 2% at the default (Cauchy-Schwarz against
            H^-1). The rate is that of one step, so a saddle which the steps
            reach fast and only then leave slowly still stops the solve on
            it. Only the undamped step is trusted for this, since a damped
            step forecasts a small decrease because it is short, not because
            the cost is near its minimum; and a negative forecast means the
            step is no descent direction, a broken solve rather than a
            converged one.
          - the actual rule, after an accepted step: the cost fell by at
            most rel_cost_tol times its previous value. Where H is singular
            there is no undamped step, and damped steps go on until this
            rule ends the solve.
      - "no_improving_step", stalled: no rung of the ladder lowers the cost.
      - "max_iter", capped: max_iter steps were accepted.

    The solve iterates on one flat state vector: init (graph.initial when
    None), a dict of values by key or a grid, is flattened once, a candidate
    is x + delta with the angle slots wrapped (retract, through the layout's
    theta mask), and the values dict is built once on return. The report's
    per-kind chi^2 come from the first and the final system. The final
    system is kept as graph.solved, so that marginal_covariances at the
    returned values does not linearize again, and takes the band factor too
    when the model rule stopped the solve.
    """
    opts = opts or GaussNewtonOptions()
    x = graph.state_vector(graph.initial if init is None else init)
    theta = graph.layout.theta
    system = linearize(graph, x)
    cost = system.cost
    if not math.isfinite(cost):
        raise NonFiniteCost(f"initial cost is {cost}")
    trace = [cost]
    report = SolveReport(0, cost, cost, "max_iter", trace, chi2_initial=system.chi2_by_kind())

    model_tol = _MODEL_TOL_RATIO * opts.rel_cost_tol  # tau, in chi^2
    warm = None  # index of the last rung that produced an accepted step
    forecast = math.nan  # -g^T delta of the undamped step at x, once it is judged
    previous = math.inf  # the forecast at the point before x; none at the start
    for it in range(opts.max_iter):
        undamped = _solve_normal(system, None)
        forecast = math.nan if undamped is None else -float(system.gradient @ undamped)
        # the model rule: stop here, without linearizing x + undamped, once
        # this step and the steps left, shrinking at the rate this one did
        # from the last, add up to at most 2 sqrt(tau) sigmas
        if 0.0 <= forecast <= model_tol:
            rate = math.sqrt(forecast / previous) if previous > 0.0 else 1.0
            if math.sqrt(forecast) <= 2.0 * math.sqrt(model_tol) * (1.0 - rate):
                report.reason = "cost"
                break
        previous = forecast
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
        forecast = math.nan
        trace.append(new_cost)
        report.iterations = it + 1
        if abs(cost - new_cost) <= opts.rel_cost_tol * max(cost, 1e-300):
            cost = new_cost
            report.reason = "cost"
            break
        cost = new_cost

    report.final_cost = cost
    report.final_step_sigma = math.sqrt(forecast) if forecast >= 0.0 else math.nan
    report.cost_trace = trace
    report.chi2_final = system.chi2_by_kind()
    graph.solved = system
    # views into a copy, so that changing the values leaves the kept system's point alone
    out = x.copy()
    return {key: out[c : c + key_dim(key)] for key, c in system.layout.variables.items()}, report


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
        off, dim = system.layout.variables[key], key_dim(key)
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
               step: TrajectoryStep, times, start: tuple):
    """Append the row of every factor whose newest variable is at t, in the order build_graph and the smoother share.

    The gauge priors (at t = 0 only, anchored at start, the step's initial
    x, e and pf) come first, then the measurement factors, then C, S, D and
    V; dt is times[t] - times[t-1]. A dt that is not positive raises
    NonPositiveTimestep before any row is appended. The work is the same
    at every step: the rows share the config's inverse sigmas (a V row's
    are the config's rate sigmas scaled by its dt), their grid offsets are
    constants (x_t at 0, e_t at 3, pf_t at 6, a step earlier 10 back), and
    only times[t - 2:t + 1] is read.
    """
    if t >= 1 and not times[t] > times[t - 1]:
        raise NonPositiveTimestep(f"step {t} at t = {times[t]} is not after the previous step at t = {times[t - 1]}")
    obj_shape, ee_shape = traj.object_shape, traj.ee_shape
    if t == 0:
        for role, value, noise in zip(_AT, start, (config.object_pose_noise, config.ee_pose_noise, config.pf_noise)):
            add_row(blocks, PriorFactor, t, (_AT[role],), (value, _ANGLES[role]), noise.inv_sigmas)
    for at, role, meas, noise in (((0,), Role.OBJECT, step.y, config.object_pose_noise),
                                  ((3,), Role.EE, step.z, config.ee_pose_noise)):
        if meas is not None:
            add_row(blocks, PriorFactor, t, at, (meas.as_array(), _ANGLES[role]), noise.inv_sigmas, kind="m_pose")
    # unmeasured components: zero anchor, weak sigma
    meas = np.zeros(4)
    if step.w is not None:
        meas[:2] = step.w
    if step.alpha is not None:
        meas[2:] = np.asarray(step.alpha, dtype=float)[:2]
    add_row(blocks, ContactForceMeasurementFactor, t, (6,), (meas, _ANGLES[Role.CONTACT_FORCE]),
            config.contact_force_inv_sigmas[step.w is not None, step.alpha is not None])
    surface = config.surface_noise.inv_sigmas
    add_row(blocks, ContactSurfaceFactor, t, (0, 6), (), surface, (obj_shape,), kind="c_object")
    add_row(blocks, ContactSurfaceFactor, t, (3, 6), (), surface, (ee_shape,), kind="c_ee")
    add_row(blocks, SurfaceGapFactor, t, (0, 3), (), surface, (obj_shape, ee_shape))
    if model in (GraphModel.SDF, GraphModel.QS):
        add_row(blocks, IntersectionFactor, t, (0, 3), (), config.intersection_noise.inv_sigmas,
                (obj_shape, ee_shape))
    if model is GraphModel.QS and t >= 1:
        add_row(blocks, QuasiStaticFactor, t, (-10, 0, 6), (traj.params.c, times[t] - times[t - 1]),
                config.qs_noise.inv_sigmas)
    if t >= 2:
        dt1, dt2 = times[t - 1] - times[t - 2], times[t] - times[t - 1]
        # NoiseModel's own float operations on sigmas that it checked once; dt > 0 is checked above
        inv_sigmas = 1.0 / (config.vel_rate_noise.sigmas * math.sqrt(0.5 * (dt1 + dt2)))
        add_row(blocks, ConstantVelocityFactor, t, (-20, -10, 0), (dt1, dt2), inv_sigmas)
        add_row(blocks, ConstantVelocityFactor, t, (-17, -7, 3), (dt1, dt2), inv_sigmas)


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
    start = (init[obj_key(0)], init[ee_key(0)], init[pf_key(0)])
    blocks: dict = {}
    for t, step in enumerate(traj.steps):
        _step_rows(blocks, model, traj, config, t, step, times, start)
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
    return row[0] + min(row[1]) // _STEP


class FixedLagSmoother:
    """Incremental estimation over a sliding window of recent timesteps.

    Timesteps older than the lag are marginalized at the current
    linearization point: the rows that touch them are linearized, their
    whitened system [J r] is QR-factored with the old variables first, and
    the rows of R below the old block become one LinearizedPriorFactor row
    on the boundary variables (square-root information, as in iSAM2). The
    window is re-optimized after every `batch_every` timesteps, measured or
    not; `batch_every <= lag` makes every timestep part of an optimized
    window before it is marginalized. A lag or batch_every that is not an
    integer is refused, not truncated.

    After each window solve the smoother keeps that window's final
    linearization: the grid columns, whitened Jacobian and residual of each
    of its blocks (gauss_newton leaves them in graph.solved). Estimates
    change only in window solves, so at the next marginalization the rows
    that window held are still at the values of its final system, and
    their rows of [J r] are read from it; only the absorbed rows appended
    since are evaluated. [J r] is the same, row for row and column for
    column, as a linearization of all absorbed rows, and so is every prior.
    The kept linearization is reset before each solve, so a solve that
    raises leaves none and the next marginalization evaluates every row it
    absorbs; finalize drops it, since no marginalization follows.

    Each update appends the rows of _step_rows to the smoother's blocks, as
    build_graph does, and the step's initial values to the grid of
    estimates, a row of x, e and pf a step; marginalization takes the rows
    it absorbs out of the blocks and leaves the grid as frozen history. A
    window is the graph of the active rows; every step has factors on its
    three variables, so its columns are the grid's from first_active_t on,
    its initial state vector is their values, and its solve writes them
    back. With lag >= T and batch_every = T the one window
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
        for name, value in (("lag", lag), ("batch_every", batch_every)):
            if isinstance(value, bool) or not hasattr(type(value), "__index__"):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        self.lag, self.batch_every = operator.index(lag), operator.index(batch_every)
        self.opts = opts or GaussNewtonOptions()
        if self.lag < 3:
            raise ValueError("lag must cover at least 3 timesteps")
        if not 1 <= self.batch_every <= self.lag:
            raise ValueError(f"batch_every must be between 1 and the lag ({self.lag}), got {self.batch_every}")

        self.timestamps: list[float] = []
        self._grid = np.zeros((16, _STEP))  # the estimates, then room for the next steps
        self.blocks: dict = {}  # the active rows, as add_row appends them
        self.first_active_t = 0
        self.reports: list[SolveReport] = []  # one per window optimization
        self._solved: dict = {}  # the last window's final linearization by block signature, if any

    @property
    def estimates(self) -> np.ndarray:
        """The (T, 10) grid of estimates, x, e and pf a step: a view, current until the next update."""
        return self._grid[: len(self.timestamps)]

    # -- construction helpers ------------------------------------------------

    def _new_variables(self, t: int, step: TrajectoryStep) -> tuple:
        """Initial x, e and pf of step t, from its measurements or the estimates of the two steps before it."""
        grid = self._grid
        y = None if step.y is None else step.y.as_array()
        z = None if step.z is None else step.z.as_array()
        if y is None:
            y = np.zeros(3) if t == 0 else _extrapolate_pose(grid[t - 1, 0:3], grid[t - 2, 0:3] if t >= 2 else None)
        if z is None:
            z = np.zeros(3) if t == 0 else _extrapolate_pose(grid[t - 1, 3:6], grid[t - 2, 3:6] if t >= 2 else None)
        contact = _initial_pf(np.zeros(4) if t == 0 else grid[t - 1, 6:], step)
        if step.w is None and t == 0:
            contact[:2] = closest_points_with_jacobians(self.template.object_shape, y[None], z[None, :2])[0][0]
        return y, z, contact

    def update(self, step: TrajectoryStep):
        """Ingest one timestep of measurements; `estimates` holds the result.

        An update that does not close a window does the same small amount of
        work at every step, however many came before: it appends the step's
        rows, its timestamp and its row of the grid in place (the grid
        doubles when it is full), and reads only the estimates of the two
        steps before it. Every batch_every steps it also optimizes the window.
        A step that is not after the previous one raises NonPositiveTimestep
        and leaves the smoother as it was.
        """
        t = len(self.timestamps)
        start = self._new_variables(t, step)
        self.timestamps.append(float(step.t))
        try:
            _step_rows(self.blocks, self.model, self.template, self.config, t, step, self.timestamps, start)
        except NonPositiveTimestep:
            self.timestamps.pop()
            raise
        if t == len(self._grid):
            self._grid = np.concatenate([self._grid, np.zeros_like(self._grid)])
        self._grid[t] = np.concatenate(start)
        if t >= 1 and (t + 1) % self.batch_every == 0:
            self._optimize()

    def finalize(self) -> dict:
        """Optimize the steps that arrived after the last window; return all estimates."""
        T = len(self.timestamps)
        # update ran a window at T >= 2 exactly when T is a multiple of batch_every
        if T >= 2 and T % self.batch_every != 0:
            self._optimize()
        self._solved = {}  # no marginalization follows
        return _grid_values(self.estimates)

    # -- optimization and marginalization ------------------------------------

    def _optimize(self):
        T = len(self.timestamps)
        window_start = max(self.first_active_t, T - self.lag)
        if window_start > self.first_active_t:
            self._marginalize_upto(window_start)
        self._solved = {}  # a solve that raises leaves none
        graph = FactorGraph(self.blocks.values(), self.estimates)
        _, report = gauss_newton(graph, None, self.opts)
        system, layout = graph.solved, graph.layout
        self._solved = {b.signature: (layout.grid[bl.columns], J, system.residual[bl.rows].reshape(J.shape[:2]))
                        for b, bl, J in zip(graph.blocks, layout.blocks, system.jacobians)}
        self.reports.append(report)
        self._grid.put(layout.grid, system.x)

    def _marginalize_upto(self, new_start: int):
        # every active row touching a timestep before new_start is absorbed;
        # the cells it also touches at or after new_start form the boundary.
        # A block's rows are in step order, so it absorbs a prefix: first the
        # rows the last window held, at that window's final linearization,
        # then the rows appended since, evaluated here at the estimates
        x = self._grid.ravel()
        parts, kept = [], {}
        for b in sorted(self.blocks.values(), key=_place):
            n = bisect.bisect_left(b.rows, new_start, key=_oldest_step)
            if n < len(b.rows):
                kept[b.signature] = Block(b.kernel, b.kind, b.shared, b.rows[n:])
            held = self._solved.get(b.signature)  # its (N, width) grid columns, J and r
            h = 0 if held is None else min(len(held[1]), n)
            if h:
                parts.append(tuple(a[:h] for a in held))
            if h < n:
                appended = _block_layout(Block(b.kernel, b.kind, b.shared, b.rows[h:n]))
                r, J = appended.evaluate(x)
                parts.append((appended.columns, J, r))
        # [J r] row by row in block order; the absorbed cells' grid order puts
        # the old variables first, and the rows of R below the old block are
        # the boundary's square-root information
        grid, places = _grid_columns([cells for cells, _, _ in parts])
        n = len(grid)
        system = np.zeros((sum(r.size for *_, r in parts), n + 1))
        m = 0
        for columns, (_, J, r) in zip(places, parts):
            rows = np.arange(m, m + r.size).reshape(r.shape)
            system[rows[:, :, None], columns[:, None, :]] = J
            system[rows, n] = r
            m += r.size
        n_old = int(np.searchsorted(grid, _STEP * new_start))
        R = np.linalg.qr(system, mode="r")
        diag = np.abs(np.diag(R[:n_old, :n_old]))
        if R.shape[0] < n_old or diag.min() <= 1e-12 * diag.max():
            raise SingularSystem("marginalized block is singular")
        boundary = grid[n_old:]
        starts = [g for g in boundary.tolist() if g % _STEP in _ROLE_AT]  # each boundary variable's first column
        # copies, so that the prior does not keep the whole R alive; it is
        # appended at the newest step, after that step's rows
        t = len(self.timestamps) - 1
        prior = (x[boundary], _GRID_ANGLES[boundary % _STEP], R[n_old:n, n].copy(), R[n_old:n, n_old:n].copy())
        add_row(kept, LinearizedPriorFactor, t, tuple(g - _STEP * t for g in starts), prior, np.ones(len(prior[2])),
                (tuple(_ROLE_DIM[_ROLE_AT[g % _STEP]] for g in starts),))
        self.blocks = kept
        self.first_active_t = new_start

    # -- reporting ------------------------------------------------------------

    def estimate_arrays(self) -> TrajectoryArrays:
        return values_to_arrays(_grid_values(self.estimates), len(self.timestamps), np.asarray(self.timestamps))


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
