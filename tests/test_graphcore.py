"""Graph construction, optimizer behavior, marginals, fixed-lag smoothing."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from pushgraph.dataio import (
    MeasuredTrajectory,
    NoiseSpec,
    TrajectoryStep,
    apply_occlusion,
    compute_metrics,
    from_ground_truth,
    inject_noise,
)
from pushgraph import cli, graphcore
from pushgraph.errors import EmptyTrajectory, MissingShapeConfig, NonPositiveTimestep, SingularSystem
from pushgraph import factors
from pushgraph.factors import (
    Block,
    ConstantVelocityFactor,
    ContactForceMeasurementFactor,
    ContactSurfaceFactor,
    IntersectionFactor,
    NoiseModel,
    PriorFactor,
    QuasiStaticFactor,
    SurfaceGapFactor,
    evaluate_row,
)
from pushgraph.geometry import (
    PlanarPose,
    Plane3,
    Shape2D,
    closest_surface_point,
    signed_distance,
    wrap_angle,
    wrap_angles,
)
from pushgraph.graphcore import (
    FactorGraph,
    FixedLagSmoother,
    GaussNewtonOptions,
    GraphConfig,
    GraphModel,
    LinearizedPriorFactor,
    build_graph,
    ee_key,
    gauss_newton,
    linearize,
    marginal_covariances,
    obj_key,
    pf_key,
    solve_batch,
    solve_incremental,
    retract,
    values_to_arrays,
)
from pushgraph.geometry import PlanarPose as PP
from pushgraph.pushsim import (
    benchmark_scenario,
    limit_surface_constants,
    make_push_scene,
    servo_push,
    simulate_push,
    steering_profile,
    straight_path,
)

from factor_samples import add_boundary_prior, add_keyed_row, add_prior, row_keys

BOX = Shape2D.box(0.1, 0.1)
PROBE = Shape2D.disc(0.008)
PARAMS = limit_surface_constants(BOX, 0.3, 1.0)

# iterate until no float-level improvement remains; used for agreement tests.
# Its model rule stops on a remaining step of at most 1e-15 chi^2, about 3e-8 sigma.
TIGHT = GaussNewtonOptions(max_iter=200, rel_cost_tol=1e-21)


def dense_normal_matrix(band):
    """The symmetric matrix held in LAPACK lower band storage."""
    n = band.shape[1]
    H = sum(np.diag(row[: n - k], -k) for k, row in enumerate(band))
    return H + np.tril(H, -1).T


def assert_stopped_near(graph, x, x_tight):
    """x is within 2 sqrt(tau) posterior sigmas of the tight optimum x_tight, under H there."""
    gap = x - x_tight
    theta = graph.layout.theta
    gap[theta] = wrap_angles(gap[theta])
    H = dense_normal_matrix(linearize(graph, x_tight).normal_matrix)
    tau = graphcore._MODEL_TOL_RATIO * GaussNewtonOptions().rel_cost_tol
    assert np.sqrt(gap @ H @ gap) <= 2 * np.sqrt(tau)


def prior_graph(priors, initial=None):
    """A graph of prior rows, each (key, anchor, sigmas)."""
    blocks = {}
    for key, anchor, sigmas in priors:
        add_prior(blocks, key, anchor, sigmas)
    return FactorGraph(blocks.values(), initial)


def add_velocity(blocks, ts, dt1, dt2, sigmas):
    """Append a V row over the object poses at the timesteps ts."""
    add_keyed_row(blocks, ConstantVelocityFactor, tuple(map(obj_key, ts)), (dt1, dt2), NoiseModel(sigmas).inv_sigmas)


def velocity_chain(T, sigmas, dt2=0.1, priors=(0,), prior_sigmas=np.ones(3)):
    """Rows of priors on the object poses at the given timesteps and of V over T poses."""
    blocks = {}
    for t in priors:
        add_prior(blocks, obj_key(t), np.zeros(3), prior_sigmas)
    for t in range(1, T - 1):
        add_velocity(blocks, (t - 1, t, t + 1), 0.1, dt2, sigmas)
    return blocks


def with_wide_v(graph):
    """The graph plus a V row over timesteps 0, 3 and 7, which couples columns 72 apart."""
    extra = {}
    add_velocity(extra, (0, 3, 7), 0.3, 0.4, np.full(3, 0.1))
    return FactorGraph([*graph.blocks, *extra.values()], graph.initial)


def unconstrained_x1_graph(x0):
    """A prior on x0 and a row on (x0, x1) whose Jacobian for x1 is zero; x1 starts at 0."""
    blocks = {}
    add_prior(blocks, obj_key(0), np.zeros(3), np.ones(3))
    add_boundary_prior(blocks, [obj_key(0), obj_key(1)], [np.zeros(3), np.zeros(3)], np.zeros(3),
                       np.hstack([np.eye(3), np.zeros((3, 3))]))
    return FactorGraph(blocks.values(), {obj_key(0): x0, obj_key(1): np.zeros(3)})


def center_push_trajectory(duration=3.0, dt=0.1, speed=0.05, offset=0.0, kind="straight", seed=0):
    """Straight center push, or a steered (rotating) push that keeps contact."""
    if kind == "straight" and offset == 0.0:
        x0, e0 = make_push_scene(BOX, PROBE, 0.0, 0.0)
        gt = simulate_push(straight_path(e0, speed, duration, dt), x0, BOX, PROBE, PARAMS, dt)
    else:
        T = max(1, round(duration / dt))
        steer = steering_profile(T, dt, seed=seed, amplitude=0.3)
        gt = servo_push(PP.identity(), BOX, PROBE, PARAMS, speed, duration, dt, steer,
                        lateral_offset=offset)
    assert not gt.contact_lost
    return from_ground_truth(gt)


def rows_built_per_step(model, traj, config, init):
    """Every step's rows as they were built with a noise model made per row pair.

    The reference for _step_rows: each V pair whitened by its own
    NoiseModel(sigma_vel * sqrt((dt1 + dt2) / 2)), and each contact/force
    row by the weak sigmas with the pf sigmas written over its measured
    halves.
    """
    blocks = {}
    times = traj.timestamps
    obj_shape, ee_shape = traj.object_shape, traj.ee_shape
    for t, step in enumerate(traj.steps):
        x, e, pf = obj_key(t), ee_key(t), pf_key(t)
        if t == 0:
            for key, noise in ((x, config.object_pose_noise), (e, config.ee_pose_noise), (pf, config.pf_noise)):
                add_keyed_row(blocks, PriorFactor, (key,), (init[key], graphcore._ANGLES[key.role]), noise.inv_sigmas)
        for key, meas, noise in ((x, step.y, config.object_pose_noise), (e, step.z, config.ee_pose_noise)):
            if meas is not None:
                add_keyed_row(blocks, PriorFactor, (key,), (meas.as_array(), graphcore._ANGLES[key.role]),
                              noise.inv_sigmas, kind="m_pose")
        meas = np.zeros(4)
        inv_sigmas = config.weak_noise.inv_sigmas.copy()
        if step.w is not None:
            meas[:2] = step.w
            inv_sigmas[:2] = config.pf_noise.inv_sigmas[:2]
        if step.alpha is not None:
            meas[2:] = np.asarray(step.alpha, dtype=float)[:2]
            inv_sigmas[2:] = config.pf_noise.inv_sigmas[2:]
        add_keyed_row(blocks, ContactForceMeasurementFactor, (pf,), (meas, graphcore._ANGLES[pf.role]), inv_sigmas)
        surface = config.surface_noise.inv_sigmas
        add_keyed_row(blocks, ContactSurfaceFactor, (x, pf), (), surface, (obj_shape,), kind="c_object")
        add_keyed_row(blocks, ContactSurfaceFactor, (e, pf), (), surface, (ee_shape,), kind="c_ee")
        add_keyed_row(blocks, SurfaceGapFactor, (x, e), (), surface, (obj_shape, ee_shape))
        if model != "CP":
            add_keyed_row(blocks, IntersectionFactor, (x, e), (), config.intersection_noise.inv_sigmas,
                          (obj_shape, ee_shape))
        if model == "QS" and t >= 1:
            add_keyed_row(blocks, QuasiStaticFactor, (obj_key(t - 1), x, pf),
                          (traj.params.c, times[t] - times[t - 1]), config.qs_noise.inv_sigmas)
        if t >= 2:
            dt1, dt2 = times[t - 1] - times[t - 2], times[t] - times[t - 1]
            inv_sigmas = NoiseModel(np.asarray(config.sigma_vel) * math.sqrt(0.5 * (dt1 + dt2))).inv_sigmas
            for key in (obj_key, ee_key):
                add_keyed_row(blocks, ConstantVelocityFactor, (key(t - 2), key(t - 1), key(t)), (dt1, dt2),
                              inv_sigmas)
    return blocks.values()


def bits(value):
    """A constant or an inverse-sigma vector as its dtype, shape and bytes."""
    a = np.asarray(value)
    return a.dtype, a.shape, a.tobytes()


def row_listing(blocks):
    """Each row in a graph's block order, with its block's signature, its step and grid offsets and the bits of
    its constants and whitening."""
    return [(b.signature, t, at, [bits(c) for c in consts], bits(inv_sigmas))
            for b in FactorGraph(blocks).blocks for t, at, consts, inv_sigmas in b.rows]


class TestBuildGraph:
    def test_qs_topology_counts(self):
        traj = center_push_trajectory(duration=2.0)
        T = len(traj)
        graph = build_graph("QS", traj)
        counts = graph.counts_by_kind()
        assert counts["m_pose"] == 2 * T
        assert counts["m_contactforce"] == T
        assert counts["c_object"] == T
        assert counts["c_ee"] == T
        assert counts["c_objee"] == T
        assert counts["s"] == T
        assert counts["d"] == T - 1
        assert counts["v"] == 2 * (T - 2)
        assert counts["prior"] == 3

    def test_cp_has_no_s_or_d(self):
        traj = center_push_trajectory(duration=1.0)
        counts = build_graph("CP", traj).counts_by_kind()
        assert "s" not in counts
        assert "d" not in counts
        assert counts["v"] == 2 * (len(traj) - 2)

    def test_sdf_adds_s_only(self):
        traj = center_push_trajectory(duration=1.0)
        counts = build_graph(GraphModel.SDF, traj).counts_by_kind()
        assert counts["s"] == len(traj)
        assert "d" not in counts

    def test_two_timesteps(self):
        traj = center_push_trajectory(duration=0.2, dt=0.1)
        assert len(traj) == 2
        counts = build_graph("QS", traj).counts_by_kind()
        assert "v" not in counts
        assert counts["d"] == 1

    def test_empty_trajectory_rejected(self):
        traj = center_push_trajectory(duration=1.0)
        traj.steps = traj.steps[:1]
        with pytest.raises(EmptyTrajectory):
            build_graph("QS", traj)

    def test_missing_shapes_rejected(self):
        traj = center_push_trajectory(duration=1.0)
        traj.object_shape = None
        with pytest.raises(MissingShapeConfig):
            build_graph("QS", traj)

    def test_missing_params_rejected_for_qs(self):
        traj = center_push_trajectory(duration=1.0)
        traj.params = None
        with pytest.raises(MissingShapeConfig):
            build_graph("QS", traj)
        build_graph("CP", traj)  # CP does not need params

    def test_initial_values_are_measurements(self):
        traj = center_push_trajectory(duration=1.0)
        graph = build_graph("QS", traj)
        t = 3
        np.testing.assert_allclose(graph.initial[obj_key(t)], traj.steps[t].y.as_array())
        np.testing.assert_allclose(graph.initial[pf_key(t)][:2], traj.steps[t].w)

    def test_unmeasured_contact_starts_on_the_object_boundary(self):
        noisy = inject_noise(center_push_trajectory(duration=1.0, offset=0.01), NoiseSpec(seed=3))
        traj = apply_occlusion(noisy, (0.0, 1.0), channels=("w",))

        def on_boundary_facing_the_pusher(values, t):
            x, e, p = values[obj_key(t)], values[ee_key(t)], values[pf_key(t)][:2]
            np.testing.assert_allclose(p, closest_surface_point(BOX, PP.from_array(x), e[:2]), rtol=0, atol=1e-15)
            assert abs(signed_distance(BOX, PP.from_array(x), p)) < 1e-12

        # batch: every step without w starts at its own surface point
        init = build_graph("QS", traj).initial
        for t in range(len(traj)):
            on_boundary_facing_the_pusher(init, t)
        # smoother: the first step starts there, later ones carry its estimate
        smoother = FixedLagSmoother("QS", traj)
        smoother.update(traj.steps[0])
        on_boundary_facing_the_pusher(graphcore._grid_values(smoother.estimates), 0)
        smoother.update(traj.steps[1])
        np.testing.assert_array_equal(smoother.estimates[1, 6:8], smoother.estimates[0, 6:8])

    def test_no_contact_qs_batch_on_benchmark_scenes(self):
        # the first five scenes of the default benchmark, default noise, w dropped at every step
        contact, x_trans = [], []
        for i in range(5):
            seed = cli.trial_seed(0, i)
            traj = from_ground_truth(benchmark_scenario(seed, duration=4.0))
            blind = cli.run_corrupt({**cli.CORRUPT_DEFAULTS, "seed": seed, "occlude": "0:1",
                                     "occlude_channels": "w"}, traj)
            values, _, _ = solve_batch("QS", blind)
            m = compute_metrics(values_to_arrays(values, len(blind), blind.timestamps), traj.truth_arrays())
            contact.append(m.channels["contact"].rmse)
            x_trans.append(m.channels["x_trans"].rmse)
        # started at the world origin the means were 0.459 and 0.238
        assert np.mean(contact) <= 0.40
        assert np.mean(x_trans) <= 0.21

    def test_occluded_initialization_extrapolates(self):
        traj = apply_occlusion(center_push_trajectory(duration=2.0), (0.3, 0.6))
        graph = build_graph("QS", traj)
        # every variable initialized and finite
        for key, val in graph.initial.items():
            assert np.all(np.isfinite(val))

    def test_config_overrides(self):
        traj = inject_noise(center_push_trajectory(duration=1.0), NoiseSpec(seed=1, channels=("w",)))
        cfg = dataclasses.replace(GraphConfig.from_trajectory(traj), sigma_qs=1e-3, sigma_contact=0.02)
        assert cfg.sigma_qs == 1e-3
        assert cfg.sigma_contact == 0.02  # wins over the recorded noise
        assert cfg.sigma_x_trans == 1e-4  # y was not corrupted: tight
        with pytest.raises(TypeError):
            dataclasses.replace(GraphConfig.from_trajectory(traj), sigma_qss=1e-3)

    @pytest.mark.parametrize("spec", [
        NoiseSpec(seed=1),
        NoiseSpec(seed=1, channels=("y", "w"), sigma_x_trans=0.002, sigma_contact=0.003),
        NoiseSpec(kind="bimodal_triangular", seed=1),
        NoiseSpec(kind="bimodal_triangular", seed=1, channels=("alpha",), force_mode_offset=0.2),
    ], ids=["gaussian", "gaussian_y_w", "bimodal", "bimodal_alpha"])
    def test_config_sigmas_follow_the_noise_spec(self, spec):
        cfg = GraphConfig.from_trajectory(inject_noise(center_push_trajectory(duration=0.5), spec))
        tight = 1e-4
        touched = lambda channel, sigma: sigma if channel in spec.channels else tight
        if spec.kind == "gaussian":
            want = {"sigma_x_trans": touched("y", spec.sigma_x_trans),
                    "sigma_x_rot": touched("y", spec.sigma_x_rot),
                    "sigma_e_trans": touched("z", spec.sigma_e_trans),
                    "sigma_e_rot": touched("z", spec.sigma_e_rot),
                    "sigma_contact": touched("w", spec.sigma_contact),
                    "sigma_force": touched("alpha", spec.sigma_force)}
        else:
            want = {"sigma_x_trans": tight, "sigma_x_rot": tight, "sigma_e_trans": tight, "sigma_e_rot": tight,
                    "sigma_contact": touched("w", np.sqrt(spec.contact_mode_offset**2
                                                          + spec.contact_half_width**2 / 6.0)),
                    "sigma_force": touched("alpha", np.sqrt(spec.force_mode_offset**2
                                                            + spec.force_half_width**2 / 6.0))}
        assert {name: getattr(cfg, name) for name in want} == want

    def test_config_is_frozen_and_shares_its_noise_models(self):
        traj = center_push_trajectory(duration=1.0)
        cfg = GraphConfig.from_trajectory(traj)
        graph = build_graph("QS", traj, cfg)
        noises: dict = {}
        for b in graph.blocks:
            for row in b.rows:
                noises.setdefault((b.kind, row_keys(row)[0].role), []).append(row[3])
        shared = {("c_object", graphcore.Role.OBJECT): cfg.surface_noise,
                  ("c_ee", graphcore.Role.EE): cfg.surface_noise,
                  ("c_objee", graphcore.Role.OBJECT): cfg.surface_noise,
                  ("s", graphcore.Role.OBJECT): cfg.intersection_noise,
                  ("d", graphcore.Role.OBJECT): cfg.qs_noise,
                  ("m_pose", graphcore.Role.OBJECT): cfg.object_pose_noise,
                  ("m_pose", graphcore.Role.EE): cfg.ee_pose_noise}
        for group, noise in shared.items():
            assert len(noises[group]) > 1
            assert all(n is noise.inv_sigmas for n in noises[group]), group
        # contact/force rows take one of the config's four whitening vectors
        table = cfg.contact_force_inv_sigmas
        assert all(any(n is v for v in table.values()) for n in noises["m_contactforce", graphcore.Role.CONTACT_FORCE])
        assert build_graph("CP", traj, cfg).blocks[0].rows[0][3] is cfg.object_pose_noise.inv_sigmas
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.sigma_qs = 1e-3

    def test_well_posedness_residual_dim(self):
        traj = center_push_trajectory(duration=1.0)
        graph = build_graph("QS", traj)
        assert graph.layout.shape[0] >= graph.layout.shape[1]


# every presence pattern of the four measurement channels, in CHANNELS order
PATTERNS = list(itertools.product((False, True), repeat=4))


class TestStepRows:
    @staticmethod
    def irregular(pattern):
        """Seven steps 0.04-0.15 s apart, the channels pattern leaves out dropped after the first step."""
        traj = center_push_trajectory(duration=0.7)
        times = np.cumsum([0.0, 0.07, 0.12, 0.04, 0.15, 0.09, 0.11])
        measured = dict(zip(("y", "z", "w", "alpha"), pattern))
        steps = [dataclasses.replace(step, t=float(t), **({} if i == 0 else {c: None for c, m in measured.items()
                                                                              if not m}))
                 for i, (step, t) in enumerate(zip(traj.steps, times))]
        return dataclasses.replace(traj, steps=steps)

    @pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: "".join("1" if m else "0" for m in p))
    def test_rows_match_a_noise_model_per_row(self, pattern, monkeypatch):
        # batch and smoother append the same rows, bit for bit, as a
        # construction that makes each V pair's and contact/force row's whitening anew
        traj = self.irregular(pattern)
        cfg = GraphConfig()
        for model in ("CP", "SDF", "QS"):
            graph = build_graph(model, traj, cfg)
            assert row_listing(graph.blocks) == row_listing(rows_built_per_step(model, traj, cfg, graph.initial))
        monkeypatch.setattr(FixedLagSmoother, "_optimize", lambda self: None)
        smoother = FixedLagSmoother("QS", traj, cfg, lag=len(traj), batch_every=len(traj))
        for step in traj.steps:
            smoother.update(step)
        assert (row_listing(smoother.blocks.values())
                == row_listing(rows_built_per_step("QS", traj, cfg, graphcore._grid_values(smoother.estimates))))

    @pytest.mark.parametrize("bad", [0.0, -0.01, math.nan, math.inf])
    def test_velocity_sigmas_are_still_checked(self, bad):
        cfg = GraphConfig(sigma_vel=(0.01, bad, 0.05))
        with pytest.raises(ValueError):
            build_graph("QS", center_push_trajectory(duration=0.5), cfg)


def grid(t0, T):
    return [key for t in range(t0, T) for key in (obj_key(t), ee_key(t), pf_key(t))]


def variables(graph):
    return list(graph.layout.variables)


def record_kernel_calls(monkeypatch):
    """Patch every kernel to append its kind and the number of rows it evaluates to the list returned, per call."""
    calls = []

    def recording(cls, kernel):
        return staticmethod(lambda consts, *vals: calls.append((cls.kind, len(vals[0]))) or kernel(consts, *vals))

    for cls in (factors.PriorFactor, factors.ContactSurfaceFactor, factors.SurfaceGapFactor,
                factors.IntersectionFactor, factors.ConstantVelocityFactor, factors.QuasiStaticFactor,
                LinearizedPriorFactor):
        name = "residuals" if cls.constant_jacobian else "evaluate"
        monkeypatch.setattr(cls, name, recording(cls, cls.__dict__[name].__func__))
    return calls


class TestFactorGraph:
    def test_batch_variables_are_the_grid(self):
        traj = center_push_trajectory(duration=1.0)
        graph = build_graph("QS", traj)
        assert "layout" not in vars(graph)  # built on first use
        # every cell of the grid, ten columns a step: x, e, pf
        np.testing.assert_array_equal(graph.layout.grid, np.arange(10 * len(traj)))
        assert variables(graph) == grid(0, len(traj)) == list(graph.initial)
        assert [graph.layout.variables[key] for key in grid(0, 2)] == [0, 3, 6, 10, 13, 16]
        # timestep-major whatever order the rows come in
        reversed_rows = [Block(b.kernel, b.kind, b.shared, b.rows[::-1]) for b in reversed(graph.blocks)]
        assert variables(FactorGraph(reversed_rows)) == grid(0, len(traj))

    def test_cells_a_graph_leaves_out_are_not_columns(self):
        # V rows and priors on object poses only: the columns are those poses', in grid order
        graph = FactorGraph(velocity_chain(6, np.ones(3), priors=(2, 5)).values())
        assert variables(graph) == [obj_key(t) for t in range(6)]
        np.testing.assert_array_equal(graph.layout.grid, [10 * t + i for t in range(6) for i in range(3)])
        assert graph.layout.variables[obj_key(4)] == 12
        with pytest.raises(KeyError):
            marginal_covariances(graph, {obj_key(t): np.zeros(3) for t in range(6)}, [ee_key(4)])
        values = {obj_key(t): np.full(3, float(t)) for t in range(7)}  # a key of no column is left out
        np.testing.assert_array_equal(graph.state_vector(values), np.repeat(np.arange(6.0), 3))
        on_grid = np.arange(70.0).reshape(7, 10)
        np.testing.assert_array_equal(graph.state_vector(on_grid), graph.layout.grid)

    def test_window_variables_are_the_grid(self, monkeypatch):
        traj = inject_noise(center_push_trajectory(duration=2.0), NoiseSpec(seed=2))
        smoother = FixedLagSmoother("QS", traj, lag=5, batch_every=5)
        real_gauss_newton = graphcore.gauss_newton
        windows = []

        def recorded(graph, init=None, opts=None):
            windows.append((graph, smoother.first_active_t, len(smoother.timestamps)))
            # a window starts from the estimates, and solves on a copy of them
            assert np.shares_memory(graph.initial, smoother.estimates) and len(graph.initial) == windows[-1][2]
            assert not np.shares_memory(graph.state_vector(graph.initial), smoother.estimates)
            return real_gauss_newton(graph, init, opts)

        monkeypatch.setattr(graphcore, "gauss_newton", recorded)
        for step in traj.steps[:15]:
            smoother.update(step)
        assert [(t0, T) for _, t0, T in windows] == [(0, 5), (5, 10), (10, 15)]
        for graph, t0, T in windows:
            np.testing.assert_array_equal(graph.layout.grid, np.arange(10 * t0, 10 * T))
            assert variables(graph) == grid(t0, T)

    def test_marginalization_absorbs_the_rows_before_the_boundary(self, monkeypatch):
        traj = inject_noise(center_push_trajectory(duration=2.0), NoiseSpec(seed=2))
        smoother = FixedLagSmoother("QS", traj, lag=5, batch_every=5)
        for step in traj.steps[:12]:
            smoother.update(step)
        before = {b.signature: b.rows for b in smoother.blocks.values()}

        def no_graph(*args, **kwargs):
            raise AssertionError("marginalization built a graph")

        monkeypatch.setattr(graphcore, "FactorGraph", no_graph)
        smoother._marginalize_upto(7)
        monkeypatch.undo()
        # each block keeps the suffix of its rows that touches no step before 7, in order
        prior = boundary_prior(smoother)
        after = {signature: [row for row in b.rows if row is not prior] for signature, b in smoother.blocks.items()}
        for signature, rows in before.items():
            kept = [row for row in rows if min(k.t for k in row_keys(row)) >= 7]
            assert rows[len(rows) - len(kept):] == kept == after.get(signature, [])
        absorbed = [row for rows in before.values() for row in rows if min(k.t for k in row_keys(row)) < 7]
        touched = {k for row in absorbed for k in row_keys(row)}
        # the boundary is what old factors reach: V reaches x_8 and e_8, no factor pf_8
        assert {k for k in touched if k.t >= 7} == {obj_key(7), ee_key(7), pf_key(7), obj_key(8), ee_key(8)}
        assert row_keys(prior) == (obj_key(7), ee_key(7), pf_key(7), obj_key(8), ee_key(8))
        # appended at the newest step, after that step's rows: the window puts it last
        assert prior[0] == 11 and FactorGraph(smoother.blocks.values()).blocks[-1].rows == [prior]
        # r0 and sqrt_info own their data, so the prior does not keep the whole QR factor alive
        assert all(c.base is None for c in prior[2][2:])

    def test_a_graph_is_built_whole(self):
        assert not hasattr(FactorGraph, "add_variable")
        assert not hasattr(FactorGraph, "add_factor")


class TestLinearize:
    def test_single_prior_normal_matrix(self):
        key = obj_key(0)
        cov = np.diag([0.04, 0.09, 0.25])
        graph = prior_graph([(key, np.zeros(3), [0.2, 0.3, 0.5])], {key: np.zeros(3)})
        system = linearize(graph, graph.state_vector(graph.initial))
        np.testing.assert_allclose(dense_normal_matrix(system.normal_matrix), np.linalg.inv(cov), atol=1e-12)

    def test_v_chain_block_tridiagonal(self):
        T = 8
        graph = FactorGraph(velocity_chain(T, np.ones(3)).values(),
                            {obj_key(t): np.array([0.1 * t, 0.0, 0.0]) for t in range(T)})
        band = linearize(graph, graph.state_vector(graph.initial)).normal_matrix
        # couplings extend at most two block-steps away: 8 columns, as a band
        assert band.shape == (9, 3 * T)
        H = dense_normal_matrix(band)
        for i in range(T):
            for j in range(T):
                block = H[3 * i : 3 * i + 3, 3 * j : 3 * j + 3]
                if abs(i - j) > 2:
                    assert np.all(block == 0.0)
        assert np.any(H[0:3, 6:9] != 0.0)

    def test_sparsity_vs_dense_qs_t100(self):
        traj = center_push_trajectory(duration=10.0, dt=0.1)
        assert len(traj) == 100
        graph = build_graph("QS", traj)
        system = linearize(graph, graph.state_vector(graph.initial))
        m, n = graph.layout.shape
        dense_entries = m * n
        assert sum(J.size for J in system.jacobians) * 100 <= dense_entries
        assert system.normal_matrix.size * 20 <= n * n

    @pytest.mark.parametrize("chain", [True, False])
    def test_band_matches_dense_normal_equations(self, chain):
        graph = build_graph("QS", inject_noise(center_push_trajectory(duration=1.0),
                                               NoiseSpec(seed=2, sigma_x_rot=0.05, sigma_e_rot=0.05)))
        if not chain:
            graph = with_wide_v(graph)
        system = linearize(graph, graph.state_vector(graph.initial))
        assert system.normal_matrix.shape[0] - 1 == (22 if chain else 72)
        J, r = system.jacobian, system.residual
        H, g = J.T @ J, J.T @ r
        assert np.max(np.abs(dense_normal_matrix(system.normal_matrix) - H)) <= 1e-12 * np.max(np.abs(H))
        assert np.max(np.abs(system.gradient - g)) <= 1e-12 * np.max(np.abs(g))
        want = np.linalg.solve(H, -g)
        step = graphcore._solve_normal(system, None)
        assert np.max(np.abs(step - want)) <= 1e-9 * np.max(np.abs(want))

    def test_boundary_priors_on_keys_of_other_dims_get_their_own_blocks(self):
        # boundary priors of 3 rows each, on a pose (dim 3) and on a contact-force key (dim 4)
        blocks = {}
        for key, dim in ((obj_key(0), 3), (pf_key(0), 4)):
            add_boundary_prior(blocks, [key], [np.zeros(dim)], np.zeros(3), np.eye(3, dim))
        layout = FactorGraph(blocks.values(), {obj_key(0): np.zeros(3), pf_key(0): np.zeros(4)}).layout
        assert [[g.shape[1] for g in b.gather] for b in layout.blocks] == [[3], [4]]

    def test_cached_constant_band_is_not_aliased(self):
        qs = build_graph("QS", inject_noise(center_push_trajectory(duration=1.0),
                                            NoiseSpec(seed=2, sigma_x_rot=0.05, sigma_e_rot=0.05)))
        chain = FactorGraph(  # a prior and V rows: constant Jacobians only
            velocity_chain(6, np.full(3, 0.1)).values(),
            {obj_key(t): np.array([0.1 * t, 0.02 * t**2, 0.1]) for t in range(6)})
        for graph in (qs, chain):
            first = linearize(graph, graph.state_vector(graph.initial))
            assert graphcore._solve_normal(first, 1e-3) is not None  # damps a copy of band row 0
            second = linearize(graph, graph.state_vector(graph.initial))
            J = second.jacobian
            H = J.T @ J
            assert np.max(np.abs(dense_normal_matrix(second.normal_matrix) - H)) <= 1e-12 * np.max(np.abs(H))
            assert not np.shares_memory(first.normal_matrix, second.normal_matrix)
            np.testing.assert_array_equal(first.normal_matrix, second.normal_matrix)


class TestRetract:
    def test_matches_per_key_update_bit_for_bit(self):
        rng = np.random.default_rng(3)
        keys = grid(0, 6)
        graph = prior_graph((k, np.zeros(graphcore.key_dim(k)), np.ones(graphcore.key_dim(k))) for k in keys)
        values = {k: rng.uniform(-3.2, 3.2, graphcore.key_dim(k)) for k in keys}
        delta = rng.normal(scale=2.0, size=graph.layout.shape[1])
        delta[2] = np.pi - values[obj_key(0)][2]  # lands on the seam at +pi
        x = graph.state_vector(values)
        out = retract(x, delta, graph.layout.theta)
        np.testing.assert_array_equal(x, graph.state_vector(values))  # x is not updated in place
        for key, off in graph.layout.variables.items():
            want = values[key] + delta[off : off + graphcore.key_dim(key)]
            if key.role is not graphcore.Role.CONTACT_FORCE:
                want[2] = wrap_angle(want[2])
            np.testing.assert_array_equal(out[off : off + len(want)], want)


class TestGaussNewton:
    def test_linear_graph_one_iteration(self):
        key = obj_key(0)
        graph = prior_graph([(key, [1.0, 2.0, 0.0], np.full(3, 0.1))], {key: np.array([5.0, -3.0, 0.2])})
        values, report = gauss_newton(graph)
        np.testing.assert_allclose(values[key], [1.0, 2.0, 0.0], atol=1e-12)
        assert report.iterations <= 2
        assert report.converged

    def test_each_point_is_evaluated_once(self, monkeypatch):
        # two priors that disagree: linear, with a nonzero optimal cost
        key = obj_key(0)
        graph = prior_graph([(key, [1.0, 2.0, 0.0], np.full(3, 0.1)), (key, [1.2, 1.9, 0.1], np.full(3, 0.2))],
                            {key: np.array([5.0, -3.0, 0.2])})
        real_linearize = graphcore.linearize
        calls = []

        def counted(graph, x):
            calls.append(1)
            return real_linearize(graph, x)

        def no_cost_sweeps(self, values):
            raise AssertionError("gauss_newton ran a separate cost sweep")

        monkeypatch.setattr(graphcore, "linearize", counted)
        monkeypatch.setattr(FactorGraph, "cost", no_cost_sweeps)
        values, report = gauss_newton(graph)
        monkeypatch.undo()
        assert report.reason == "cost" and report.converged
        assert len(calls) == report.iterations + 1
        assert report.final_cost == pytest.approx(graph.cost(values), rel=1e-12)
        assert report.final_cost == pytest.approx(1.2, rel=1e-9)

    def test_rejected_candidates_never_form_normal_equations(self, monkeypatch):
        traj = center_push_trajectory(duration=1.0)
        graph = build_graph("QS", traj)
        rng = np.random.default_rng(1)
        init = {k: v + np.r_[rng.uniform(-0.05, 0.05, 2), rng.uniform(-1, 1, len(v) - 2)]
                for k, v in graph.initial.items()}
        real_linearize = graphcore.linearize
        systems = []

        def recorded(graph, x):
            systems.append(real_linearize(graph, x))
            return systems[-1]

        monkeypatch.setattr(graphcore, "linearize", recorded)
        _, report = gauss_newton(graph, init)
        monkeypatch.undo()
        accepted = set(report.cost_trace)
        rejected = [s for s in systems if s.cost not in accepted]
        assert len(rejected) >= 5
        for system in rejected:
            assert "normal_matrix" not in vars(system) and "gradient" not in vars(system)
        assert "normal_matrix" in vars(systems[0])

    def test_linearize_calls_each_kernel_once_per_block(self, monkeypatch):
        # every kernel call of a linearization evaluates all the rows of one block, block by block
        calls = record_kernel_calls(monkeypatch)
        real_linearize = graphcore.linearize
        graphs = []

        def linearized(graph, x):
            first = len(calls)
            system = real_linearize(graph, x)
            assert [n for _, n in calls[first:]] == [len(b.rows) for b in graph.blocks]
            graphs.append(graph)
            return system

        monkeypatch.setattr(graphcore, "linearize", linearized)
        traj = inject_noise(center_push_trajectory(duration=2.0, offset=0.01),
                            NoiseSpec(seed=5, sigma_x_rot=0.05, sigma_e_rot=0.05))
        _, report = gauss_newton(build_graph("QS", traj))
        assert report.converged
        _, smoother = solve_incremental("QS", traj, lag=5, batch_every=5)
        assert smoother.first_active_t > 0
        assert any(b.kernel is LinearizedPriorFactor for g in graphs for b in g.blocks)

    def test_singular_step_is_rejected_and_damping_recovers(self):
        graph = unconstrained_x1_graph(np.array([5.0, -3.0, 0.2]))
        assert graphcore._solve_normal(linearize(graph, graph.state_vector(graph.initial)), None) is None
        values, report = gauss_newton(graph)
        assert report.converged and report.iterations >= 1
        np.testing.assert_allclose(values[obj_key(0)], np.zeros(3), atol=1e-6)
        np.testing.assert_array_equal(values[obj_key(1)], np.zeros(3))

    def test_stalled_solve_is_not_converged(self, monkeypatch):
        key = obj_key(0)
        graph = prior_graph([(key, [1.0, 2.0, 0.0], np.full(3, 0.1))], {key: np.array([5.0, -3.0, 0.2])})
        # every candidate goes uphill, so no step can be accepted
        monkeypatch.setattr(graphcore, "_solve_normal", lambda system, damping: +system.gradient)
        values, report = gauss_newton(graph)
        assert report.reason == "no_improving_step"
        assert report.converged is False
        np.testing.assert_array_equal(values[key], graph.initial[key])

    def test_model_stop_skips_the_last_candidate(self, monkeypatch):
        traj = inject_noise(center_push_trajectory(duration=2.0, offset=0.01),
                            NoiseSpec(seed=5, sigma_x_rot=0.05, sigma_e_rot=0.05))
        graph = build_graph("QS", traj)
        real_linearize = graphcore.linearize
        systems = []

        def recorded(graph, x):
            systems.append(real_linearize(graph, x))
            return systems[-1]

        monkeypatch.setattr(graphcore, "linearize", recorded)
        _, report = gauss_newton(graph)
        monkeypatch.undo()
        opts = GaussNewtonOptions()
        trace = report.cost_trace
        assert report.reason == "cost" and report.iterations >= 3
        # the last accepted step still lowered the cost by more than rel_cost_tol:
        # the model's forecast stopped the solve, and no candidate followed it
        assert trace[-2] - trace[-1] > opts.rel_cost_tol * trace[-2]
        assert len(systems) == report.iterations + 1
        assert [s.cost for s in systems] == trace
        _, tight = gauss_newton(build_graph("QS", traj), None, TIGHT)
        assert tight.iterations > report.iterations
        # the cost above the minimum is about the remaining step's delta^T H delta
        tau = graphcore._MODEL_TOL_RATIO * opts.rel_cost_tol
        assert 0.0 <= report.final_cost - tight.final_cost <= 2 * tau

    @pytest.mark.parametrize("model, condition, seed", [
        *itertools.product(["CP", "SDF", "QS"], ["measured", "y_occluded"], [4, 5, 6, 7]),
        # w never measured, where the tight reference converges; QS creeps
        # along a plateau of small forecasts before its cost falls away.
        # Left out: QS at seed 4, which stops on a shallow plateau 0.39 sigmas
        # away, as it does at tau = 1e-3 (0.36 sigmas, against 0.063 there)
        ("CP", "blind", 4), ("QS", "blind", 5), ("QS", "blind", 6), ("QS", "blind", 7),
    ])
    def test_model_stop_is_within_a_fifth_of_a_sigma(self, model, condition, seed):
        # the stop bounds the next step and the steps left, shrinking at the
        # rate it did, by 2 sqrt(tau) posterior sigmas
        traj = inject_noise(center_push_trajectory(duration=2.0, offset=0.01),
                            NoiseSpec(seed=seed, sigma_x_rot=0.05, sigma_e_rot=0.05))
        if condition == "y_occluded":
            traj = apply_occlusion(traj, (0.3, 0.6), channels=("y",))
        if condition == "blind":
            traj = apply_occlusion(traj, (0.0, 1.0), channels=("w",))
        graph = build_graph(model, traj)
        values, report = gauss_newton(graph)
        tight_values, tight = gauss_newton(graph, None, TIGHT)
        assert report.reason == tight.reason == "cost"
        assert_stopped_near(graph, graph.state_vector(values), graph.state_vector(tight_values))

    def test_report_gives_the_final_step_in_sigmas(self):
        traj = inject_noise(center_push_trajectory(duration=2.0, offset=0.01),
                            NoiseSpec(seed=5, sigma_x_rot=0.05, sigma_e_rot=0.05))
        graph = build_graph("QS", traj)
        _, report = gauss_newton(graph)
        trace = report.cost_trace
        # stopped by the model rule: the last accepted step still lowered the cost by more than rel_cost_tol
        assert report.reason == "cost" and trace[-2] - trace[-1] > GaussNewtonOptions().rel_cost_tol * trace[-2]
        system = graph.solved
        forecast = -float(system.gradient @ graphcore._solve_normal(system, None))
        assert report.final_step_sigma == math.sqrt(forecast)
        tau = graphcore._MODEL_TOL_RATIO * GaussNewtonOptions().rel_cost_tol
        assert 0.0 < report.final_step_sigma <= math.sqrt(tau)
        # no undamped step is judged at the point a capped solve ends on
        _, capped = gauss_newton(build_graph("QS", traj), None, GaussNewtonOptions(max_iter=2))
        assert capped.reason == "max_iter" and math.isnan(capped.final_step_sigma)

    def test_damped_steps_do_not_stop_on_their_forecast(self, monkeypatch):
        # with the undamped step refused, every step is damped, and each
        # damped forecast is small because the step is short
        traj = inject_noise(center_push_trajectory(duration=2.0, offset=0.01),
                            NoiseSpec(seed=5, sigma_x_rot=0.05, sigma_e_rot=0.05))
        real_solve = graphcore._solve_normal
        monkeypatch.setattr(graphcore, "_solve_normal",
                            lambda system, damping: None if damping is None else real_solve(system, damping))
        _, report = gauss_newton(build_graph("QS", traj))
        monkeypatch.undo()
        _, tight = gauss_newton(build_graph("QS", traj), None, TIGHT)
        assert report.converged and report.iterations >= 3
        assert report.final_cost - tight.final_cost <= 1e-6 * tight.final_cost

    def test_report_splits_chi2_by_factor_kind(self):
        traj = inject_noise(center_push_trajectory(duration=2.0, offset=0.01),
                            NoiseSpec(seed=5, sigma_x_rot=0.05, sigma_e_rot=0.05))
        graph = build_graph("QS", traj)
        _, report = gauss_newton(graph)
        assert report.final_cost < report.initial_cost
        for chi2, cost in ((report.chi2_initial, report.initial_cost), (report.chi2_final, report.final_cost)):
            assert chi2.keys() == graph.counts_by_kind().keys()
            assert all(v >= 0.0 for v in chi2.values())
            assert sum(chi2.values()) == pytest.approx(cost, rel=1e-12)

    def test_noiseless_truth_init_converges_immediately(self):
        traj = center_push_trajectory(duration=3.0, offset=0.0)
        values, report, _ = solve_batch("QS", traj)
        assert report.iterations <= 2
        assert report.final_cost < 1e-12
        assert report.reason == "cost" and report.converged

    def test_cost_trace_non_increasing(self):
        traj = inject_noise(center_push_trajectory(duration=3.0, offset=0.015),
                            NoiseSpec(seed=4, sigma_x_rot=0.05, sigma_e_rot=0.05))
        _, report, _ = solve_batch("QS", traj)
        trace = np.array(report.cost_trace)
        assert np.all(np.diff(trace) <= 1e-12)
        assert report.converged

    def test_converged_point_is_stationary(self):
        traj = inject_noise(center_push_trajectory(duration=2.0, offset=0.01),
                            NoiseSpec(seed=5, sigma_x_rot=0.05, sigma_e_rot=0.05))
        values, report, graph = solve_batch("QS", traj, opts=TIGHT)
        system = linearize(graph, graph.state_vector(values))
        # Newton step from the converged point is negligible
        step = graphcore._solve_normal(system, None)
        assert float(np.max(np.abs(step))) < 1e-8

    def test_noiseless_perturbed_init_recovers_truth(self):
        traj = center_push_trajectory(duration=2.0, offset=0.0)
        graph = build_graph("QS", traj)
        rng = np.random.default_rng(6)
        init = {}
        for key, val in graph.initial.items():
            bump = np.zeros(len(val))
            bump[:2] = rng.uniform(-0.01, 0.01, 2)
            if len(val) == 3:
                bump[2] = rng.uniform(-0.05, 0.05)
            init[key] = val + bump
        values, report = gauss_newton(graph, init, TIGHT)
        truth = traj.truth_arrays()
        est = values_to_arrays(values, len(traj), traj.timestamps)
        assert np.max(np.abs(est.x - truth.x)) < 1e-6
        assert np.max(np.abs(est.p - truth.p)) < 1e-6

    def test_noisy_solve_beats_raw_measurements(self):
        from pushgraph.dataio import compute_metrics

        traj = inject_noise(center_push_trajectory(duration=4.0, offset=0.015),
                            NoiseSpec(seed=7, sigma_x_rot=0.05, sigma_e_rot=0.05))
        values, report, _ = solve_batch("QS", traj)
        assert report.converged
        truth = traj.truth_arrays()
        est = values_to_arrays(values, len(traj), traj.timestamps)
        m_est = compute_metrics(est, truth)
        m_raw = compute_metrics(traj.measured_arrays(), truth)
        assert m_est.rmse("x_trans") < m_raw.rmse("x_trans")
        assert m_est.rmse("contact") < m_raw.rmse("contact")

    def test_gauge_invariance_under_translation(self):
        base = inject_noise(center_push_trajectory(duration=1.5, offset=0.01),
                            NoiseSpec(seed=8, sigma_x_rot=0.05, sigma_e_rot=0.05))
        shift = np.array([1.7, -2.3])

        def translate(traj):
            steps = []
            for s in traj.steps:
                y = PlanarPose(s.y.x + shift[0], s.y.y + shift[1], s.y.theta)
                z = PlanarPose(s.z.x + shift[0], s.z.y + shift[1], s.z.theta)
                steps.append(TrajectoryStep(t=s.t, y=y, z=z, w=s.w + shift, alpha=s.alpha,
                                            truth=s.truth))
            return MeasuredTrajectory(steps=steps, plane=traj.plane,
                                      object_shape=traj.object_shape, ee_shape=traj.ee_shape,
                                      params=traj.params, noise=traj.noise)

        va, _, _ = solve_batch("QS", base, opts=TIGHT)
        vb, _, _ = solve_batch("QS", translate(base), opts=TIGHT)
        for t in range(len(base)):
            np.testing.assert_allclose(vb[obj_key(t)][:2] - va[obj_key(t)][:2], shift, atol=1e-9)
            np.testing.assert_allclose(vb[obj_key(t)][2], va[obj_key(t)][2], atol=1e-9)
            np.testing.assert_allclose(vb[pf_key(t)][:2] - va[pf_key(t)][:2], shift, atol=1e-9)
            np.testing.assert_allclose(vb[pf_key(t)][2:], va[pf_key(t)][2:], atol=1e-9)


class TestMarginals:
    def test_single_prior_marginal_is_its_covariance(self):
        key = obj_key(0)
        cov = np.diag([0.04, 0.09, 0.25])
        graph = prior_graph([(key, np.zeros(3), [0.2, 0.3, 0.5])], {key: np.zeros(3)})
        out = marginal_covariances(graph, graph.initial, [key])[key]
        np.testing.assert_allclose(out, cov, atol=1e-12)

    def test_two_priors_fuse(self):
        key = pf_key(0)
        c1 = np.diag([0.04, 0.09, 0.01, 0.01])
        c2 = np.diag([0.01, 0.04, 0.09, 0.04])
        graph = prior_graph([(key, np.zeros(4), [0.2, 0.3, 0.1, 0.1]), (key, np.zeros(4), [0.1, 0.2, 0.3, 0.2])],
                            {key: np.zeros(4)})
        expected = np.linalg.inv(np.linalg.inv(c1) + np.linalg.inv(c2))
        np.testing.assert_allclose(marginal_covariances(graph, graph.initial, [key])[key], expected,
                                   atol=1e-12)

    def test_posterior_contracts_vs_measurement(self):
        traj = inject_noise(center_push_trajectory(duration=2.0, offset=0.01),
                            NoiseSpec(seed=9, sigma_x_rot=0.05, sigma_e_rot=0.05))
        values, _, graph = solve_batch("QS", traj)
        t = len(traj) // 2
        cfg = GraphConfig.from_trajectory(traj)
        pf_cov = marginal_covariances(graph, values, [pf_key(t)])[pf_key(t)]
        meas_cov_p = np.eye(2) * cfg.sigma_contact**2
        assert np.trace(pf_cov[:2, :2]) < np.trace(meas_cov_p)
        x_cov = marginal_covariances(graph, values, [obj_key(t)])[obj_key(t)]
        meas_cov_x = np.diag([cfg.sigma_x_trans**2, cfg.sigma_x_trans**2, cfg.sigma_x_rot**2])
        assert np.trace(x_cov) < np.trace(meas_cov_x)
        w = np.linalg.eigvalsh(pf_cov)
        assert np.all(w > -1e-12)

    def test_one_solve_matches_per_key_solves(self):
        traj = inject_noise(center_push_trajectory(duration=2.0, offset=0.01),
                            NoiseSpec(seed=9, sigma_x_rot=0.05, sigma_e_rot=0.05))
        values, _, graph = solve_batch("QS", traj)
        keys = [obj_key(t) for t in range(len(traj))] + [pf_key(t) for t in range(len(traj))]
        together = marginal_covariances(graph, values, iter(keys))
        assert list(together) == keys
        system = linearize(graph, graph.state_vector(values))
        dense = np.linalg.inv(dense_normal_matrix(system.normal_matrix))
        for key in keys:
            alone = marginal_covariances(graph, values, [key])[key]
            np.testing.assert_allclose(together[key], alone, rtol=1e-12, atol=1e-12 * np.abs(alone).max())
            off, dim = graph.layout.variables[key], graphcore.key_dim(key)
            want = dense[off : off + dim, off : off + dim]
            assert np.max(np.abs(together[key] - want)) <= 1e-9 * np.max(np.abs(want))

    @pytest.mark.parametrize("case", ["qs_chain", "qs_wide", "straddling", "one_pose", "one_pf"])
    def test_selected_inverse_matches_dense_inverse(self, case):
        rng = np.random.default_rng(4)
        if case.startswith("qs"):
            graph = build_graph("QS", inject_noise(center_push_trajectory(duration=1.0),
                                                   NoiseSpec(seed=2, sigma_x_rot=0.05, sigma_e_rot=0.05)))
            if case == "qs_wide":
                graph = with_wide_v(graph)
            bandwidth = 22 if case == "qs_chain" else 72
        elif case == "straddling":
            # 7 poses, 21 columns in blocks of 8: x_2 and x_5 cross block edges
            graph = FactorGraph(velocity_chain(7, [0.01, 0.02, 0.05], dt2=0.2, priors=(0, 6),
                                               prior_sigmas=[0.1, 0.2, 0.3]).values(),
                                {obj_key(t): rng.normal(size=3) for t in range(7)})
            bandwidth = 8
        else:
            # one key under a full square-root prior: a band narrower than the key
            key = obj_key(0) if case == "one_pose" else pf_key(0)
            dim = graphcore.key_dim(key)
            initial = {key: rng.normal(size=dim)}
            sqrt_info = np.triu(rng.normal(size=(dim, dim))) + 3.0 * np.eye(dim)
            blocks = {}
            add_boundary_prior(blocks, [key], [np.zeros(dim)], np.zeros(dim), sqrt_info)
            graph = FactorGraph(blocks.values(), initial)
            bandwidth = dim - 1
        system = linearize(graph, graph.state_vector(graph.initial))
        n = graph.layout.shape[1]
        index = {key: (off, graphcore.key_dim(key)) for key, off in graph.layout.variables.items()}
        assert system.normal_matrix.shape == (bandwidth + 1, n)
        if case != "qs_wide":
            assert n % bandwidth != 0
            assert any(off // bandwidth != (off + dim - 1) // bandwidth for off, dim in index.values())
        dense = np.linalg.inv(dense_normal_matrix(system.normal_matrix))
        got = marginal_covariances(graph, graph.initial, reversed(list(index)))
        assert list(got) == list(reversed(list(index)))
        for key, (off, dim) in index.items():
            want = dense[off : off + dim, off : off + dim]
            assert np.max(np.abs(got[key] - want)) <= 1e-9 * np.max(np.abs(want))
            np.testing.assert_array_equal(got[key], got[key].T)

    def test_batch_covariances_are_calibrated(self):
        # x/y NEES of six QS solves (240 steps) against the 2-dof chi-square
        from pushgraph import cli

        nees = []
        for i in range(6):
            seed = cli.trial_seed(0, i)
            gt = benchmark_scenario(seed, duration=4.0, dt=0.1)
            traj = inject_noise(from_ground_truth(gt), cli.make_noise_spec({**cli.CORRUPT_DEFAULTS, "seed": seed}))
            values, _, graph = solve_batch("QS", traj)
            keys = [obj_key(t) for t in range(len(traj))]
            covs = marginal_covariances(graph, values, keys)
            truth = traj.truth_arrays().x
            for t, key in enumerate(keys):
                err = values[key][:2] - truth[t, :2]
                nees.append(err @ np.linalg.solve(covs[key][:2, :2], err))
        nees = np.array(nees)
        assert len(nees) == 240
        assert 1.5 <= nees.mean() <= 2.5
        assert np.mean(nees <= 5.991) >= 0.93

    def test_marginals_at_the_solution_reuse_its_final_system(self, monkeypatch):
        traj = inject_noise(center_push_trajectory(duration=2.0, offset=0.01),
                            NoiseSpec(seed=5, sigma_x_rot=0.05, sigma_e_rot=0.05))
        graph = build_graph("QS", traj)
        values, _ = gauss_newton(graph)
        keys = [obj_key(t) for t in range(len(traj))] + [pf_key(t) for t in range(len(traj))]
        # the same graph built again has no solve to reuse, so it linearizes
        fresh = marginal_covariances(FactorGraph(graph.blocks, graph.initial), values, keys)
        assert "factor" in vars(graph.solved)  # formed for the undamped step the model rule judged

        def refused(*args, **kwargs):
            raise AssertionError("linearized or factored again")

        monkeypatch.setattr(graphcore, "linearize", refused)
        monkeypatch.setattr(graphcore.scipy.linalg.lapack, "dpbtrf", refused)
        reused = marginal_covariances(graph, values, keys)
        monkeypatch.undo()
        assert graph.solved is None  # taken over, not kept
        for key in keys:
            np.testing.assert_array_equal(reused[key], fresh[key])
        # a second call, other values, or the solution changed in place are linearized
        real_linearize = graphcore.linearize
        calls = []

        def linearized_marginals(values):
            calls.clear()
            monkeypatch.setattr(graphcore, "linearize", lambda g, x: calls.append(x) or real_linearize(g, x))
            out = marginal_covariances(graph, values, keys)
            monkeypatch.undo()
            assert len(calls) == 1
            np.testing.assert_array_equal(calls[0], graph.state_vector(values))
            return out

        again = linearized_marginals(values)
        for key in keys:
            np.testing.assert_array_equal(again[key], reused[key])
        gauss_newton(graph)
        linearized_marginals(graph.initial)
        values, _ = gauss_newton(graph)
        values[obj_key(3)][0] += 1e-3
        moved = linearized_marginals(values)
        assert not np.array_equal(moved[obj_key(3)], reused[obj_key(3)])

    def test_singular_system_detected(self):
        graph = unconstrained_x1_graph(np.zeros(3))
        with pytest.raises(SingularSystem):
            marginal_covariances(graph, graph.initial, [obj_key(1)])


def absorbed_graph(smoother, new_start):
    """The graph of the smoother's rows that touch a step before new_start."""
    return FactorGraph(Block(b.kernel, b.kind, b.shared, [row for row in b.rows
                                                          if min(k.t for k in row_keys(row)) < new_start])
                       for b in smoother.blocks.values())


def relinearized_prior(smoother, new_start):
    """The boundary prior from linearizing every row that touches a step before new_start.

    The reference for the smoother's marginalization: the absorbed graph,
    linearized at the estimates, and the QR factor of its dense [J r].
    Returns the prior row's keys and constants (anchor, wrap, r0, sqrt_info).
    """
    absorbed = absorbed_graph(smoother, new_start)
    system = linearize(absorbed, absorbed.state_vector(smoother.estimates))
    boundary = [k for k in variables(absorbed) if k.t >= new_start]
    n_old, n = absorbed.layout.variables[boundary[0]], absorbed.layout.shape[1]
    R = np.linalg.qr(np.column_stack([system.jacobian, system.residual]), mode="r")
    values = graphcore._grid_values(smoother.estimates)
    anchor = np.concatenate([values[k] for k in boundary])
    wrap = np.concatenate([graphcore._ANGLES[k.role] for k in boundary])
    return tuple(boundary), (anchor, wrap, R[n_old:n, n], R[n_old:n, n_old:n])


def boundary_prior(smoother):
    (row,) = [row for b in smoother.blocks.values() if b.kernel is LinearizedPriorFactor for row in b.rows]
    return row


class TestFixedLag:
    def make_noisy(self, duration=3.0, seed=11):
        return inject_noise(center_push_trajectory(duration=duration, offset=0.01),
                            NoiseSpec(seed=seed, sigma_x_rot=0.05, sigma_e_rot=0.05))

    def scene(self, case):
        """A 3 s push (30 steps): fully measured, y occluded over 12 steps, w never
        measured, or turned so that the object's heading crosses +-pi."""
        if case == "turned":
            steer = steering_profile(30, 0.1, seed=0, amplitude=0.3)
            gt = servo_push(PP(0.0, 0.0, 3.1), BOX, PROBE, PARAMS, 0.05, 3.0, 0.1, steer, direction=3.1,
                            lateral_offset=0.01)
            return inject_noise(from_ground_truth(gt), NoiseSpec(seed=3, sigma_x_rot=0.05, sigma_e_rot=0.05))
        traj = self.make_noisy(duration=3.0)
        if case == "y_occluded":
            return apply_occlusion(traj, (0.2, 0.6), channels=("y",))
        if case == "w_never":
            return apply_occlusion(traj, (0.0, 1.0), channels=("w",))
        return traj

    @pytest.mark.parametrize("case", ["measured", "y_occluded", "w_never", "turned"])
    @pytest.mark.parametrize("lag", [5, 6, 10])
    def test_boundary_priors_equal_relinearizing_the_absorbed_rows(self, monkeypatch, lag, case):
        # the rows the last window held come from its final system, the rest
        # are linearized anew: every prior is the one a linearization of all
        # absorbed rows gives, bit for bit
        traj = self.scene(case)
        real = FixedLagSmoother._marginalize_upto
        headings = []

        def checked(self, new_start):
            keys, consts = relinearized_prior(self, new_start)
            real(self, new_start)
            row = boundary_prior(self)
            assert row_keys(row) == keys
            assert all(np.array_equal(got, want) for got, want in zip(row[2], consts))
            assert np.array_equal(row[3], np.ones(len(consts[2])))
            headings.append(row[2][0][2])

        monkeypatch.setattr(FixedLagSmoother, "_marginalize_upto", checked)
        solve_incremental("QS", traj, lag=lag, batch_every=5)
        assert len(headings) == (len(traj) - lag - 1) // 5 + 1
        if case == "turned":
            # object headings at the boundary on both sides of the seam
            assert min(headings) < -3.0 and max(headings) > 3.0

    @pytest.mark.parametrize("lag, rows", [(5, {"d": 1, "v": 4}), (10, {})])
    def test_marginalization_linearizes_only_rows_appended_since_the_window(self, monkeypatch, lag, rows):
        # at lag 5 a marginalization absorbs the whole last window plus the
        # D row of new_start and the V rows of new_start and new_start + 1;
        # at lag 10 it absorbs rows of the last window only
        traj = self.make_noisy(duration=3.0)
        real_marginalize = FixedLagSmoother._marginalize_upto
        calls = record_kernel_calls(monkeypatch)
        evaluated = []  # per marginalization, the rows of each kind its kernel calls evaluated

        def marginalize(self, new_start):
            first = len(calls)
            with pytest.MonkeyPatch.context() as inside:
                inside.setattr(graphcore, "linearize", refused)
                real_marginalize(self, new_start)
            by_kind = {}
            for kind, n in calls[first:]:
                by_kind[kind] = by_kind.get(kind, 0) + n
            evaluated.append(by_kind)

        def refused(graph, x):
            raise AssertionError("marginalization linearized a graph")

        monkeypatch.setattr(FixedLagSmoother, "_marginalize_upto", marginalize)
        solve_incremental("QS", traj, lag=lag, batch_every=5)
        assert evaluated == [rows] * ((len(traj) - lag - 1) // 5 + 1)

    def test_a_window_that_raises_leaves_no_linearization_to_reuse(self, monkeypatch):
        traj = self.make_noisy(duration=3.0)
        smoother = FixedLagSmoother("QS", traj, lag=5, batch_every=5)
        real_gauss_newton = graphcore.gauss_newton
        for step in traj.steps[:5]:
            smoother.update(step)
        assert smoother._solved  # the first window's

        def raises(graph, init=None, opts=None):
            raise SingularSystem("injected")

        monkeypatch.setattr(graphcore, "gauss_newton", raises)
        for step in traj.steps[5:9]:
            smoother.update(step)
        with pytest.raises(SingularSystem):
            smoother.update(traj.steps[9])
        assert not smoother._solved
        monkeypatch.setattr(graphcore, "gauss_newton", real_gauss_newton)
        for step in traj.steps[10:14]:
            smoother.update(step)
        # the next marginalization evaluates every row it absorbs, and gives
        # the prior of that construction
        keys, consts = relinearized_prior(smoother, 10)
        absorbed = absorbed_graph(smoother, 10).counts_by_kind()
        calls = record_kernel_calls(monkeypatch)
        smoother._marginalize_upto(10)
        assert sum(n for _, n in calls) == sum(absorbed.values())
        row = boundary_prior(smoother)
        assert row_keys(row) == keys and all(np.array_equal(got, want) for got, want in zip(row[2], consts))

    def test_finalize_drops_the_window_linearization(self):
        traj = self.make_noisy(duration=2.0)
        smoother = FixedLagSmoother("QS", traj, lag=5, batch_every=5)
        for step in traj.steps[:12]:
            smoother.update(step)
        assert smoother._solved
        smoother.finalize()
        assert not smoother._solved
        # an update after finalize marginalizes from a linearization of every absorbed row
        for step in traj.steps[12:14]:
            smoother.update(step)
        keys, consts = relinearized_prior(smoother, 10)
        smoother.update(traj.steps[14])
        assert smoother.first_active_t == 10
        row = boundary_prior(smoother)
        assert row_keys(row) == keys and all(np.array_equal(got, want) for got, want in zip(row[2], consts))

    def test_every_window_stops_within_a_fifth_of_a_sigma(self, monkeypatch):
        # each window graph is solved a second time, tightly and from the same initial grid
        traj = apply_occlusion(self.make_noisy(duration=3.0), (0.3, 0.6), channels=("y",))
        real_gauss_newton = graphcore.gauss_newton
        reasons = []

        def also_tight(graph, init=None, opts=None):
            values, report = real_gauss_newton(graph, init, opts)
            reference = FactorGraph(graph.blocks, graph.initial.copy())
            _, tight = real_gauss_newton(reference, None, TIGHT)
            assert_stopped_near(graph, graph.solved.x, reference.solved.x)
            reasons.append((report.reason, tight.reason))
            return values, report

        monkeypatch.setattr(graphcore, "gauss_newton", also_tight)
        _, smoother = solve_incremental("QS", traj, lag=5, batch_every=5)
        assert smoother.first_active_t > 0 and len(reasons) == len(smoother.reports) == len(traj) // 5
        assert set(reasons) == {("cost", "cost")}

    def test_full_lag_matches_batch(self):
        traj = self.make_noisy(duration=2.0)
        batch_values, _, _ = solve_batch("QS", traj, opts=TIGHT)
        inc_values, smoother = solve_incremental("QS", traj, lag=10_000, batch_every=5,
                                                 opts=TIGHT)
        for key, bv in batch_values.items():
            np.testing.assert_allclose(inc_values[key], bv, atol=1e-9)

    def test_full_lag_replays_batch_bit_for_bit(self):
        # one window over the whole, fully measured trajectory is the batch
        # graph with the batch's factor order and initial values
        traj = self.make_noisy(duration=2.0)
        T = len(traj)
        batch_values, _, _ = solve_batch("QS", traj)
        inc_values, smoother = solve_incremental("QS", traj, lag=T, batch_every=T)
        assert len(smoother.reports) == 1
        assert inc_values.keys() == batch_values.keys()
        for key, bv in batch_values.items():
            assert np.array_equal(inc_values[key], bv), key

    def test_short_lag_close_to_batch(self):
        traj = self.make_noisy(duration=4.0)
        batch_values, _, _ = solve_batch("QS", traj, opts=TIGHT)
        inc_values, smoother = solve_incremental("QS", traj, lag=20, batch_every=5)
        cfg = GraphConfig.from_trajectory(traj)
        T = len(traj)
        for t in (T - 1, T - 2):
            dx = np.abs(inc_values[obj_key(t)] - batch_values[obj_key(t)])
            assert dx[0] < 0.05 * cfg.sigma_x_trans
            assert dx[1] < 0.05 * cfg.sigma_x_trans
            assert dx[2] < 0.05 * cfg.sigma_x_rot
            dpf = np.abs(inc_values[pf_key(t)] - batch_values[pf_key(t)])
            assert np.all(dpf[:2] < 0.05 * cfg.sigma_contact)
            assert np.all(dpf[2:] < 0.05 * cfg.sigma_force)

    def test_boundary_prior_is_schur_complement(self):
        # 12 steps at lag 5: the window marginalized once already, so the
        # absorbed factors include an earlier boundary prior
        traj = self.make_noisy(duration=2.0)
        smoother = FixedLagSmoother("QS", traj, lag=5, batch_every=5)
        for step in traj.steps[:12]:
            smoother.update(step)
        assert smoother.first_active_t == 5
        new_start = 12 - 5
        absorbed = absorbed_graph(smoother, new_start)
        system = linearize(absorbed, absorbed.state_vector(smoother.estimates))
        boundary = [k for k in variables(absorbed) if k.t >= new_start]
        n_old = absorbed.layout.variables[boundary[0]]
        H, g = dense_normal_matrix(system.normal_matrix), system.gradient
        H_oo, H_bo = H[:n_old, :n_old], H[n_old:, :n_old]
        schur = H[n_old:, n_old:] - H_bo @ np.linalg.solve(H_oo, H_bo.T)
        schur_g = g[n_old:] - H_bo @ np.linalg.solve(H_oo, g[:n_old])

        smoother._marginalize_upto(new_start)
        # the window puts the boundary prior's block after the rows it kept
        prior = FactorGraph(smoother.blocks.values()).blocks[-1]
        (row,) = prior.rows
        assert prior.kernel is LinearizedPriorFactor
        assert list(row_keys(row)) == boundary
        values = graphcore._grid_values(smoother.estimates)
        r, jacs = evaluate_row(prior, *[values[k] for k in boundary])
        J = np.hstack(jacs)
        for got, want in ((J.T @ J, schur), (J.T @ r, schur_g)):
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    @pytest.mark.parametrize("t", [1, 9])
    @pytest.mark.parametrize("shift", [0.0, -0.05])
    def test_step_not_after_the_previous_one_is_refused(self, t, shift):
        # at t = 1 only D takes the step's dt; at t = 9 a window would run
        traj = self.make_noisy(duration=2.0)
        smoother = FixedLagSmoother("QS", traj, lag=5, batch_every=5)
        clean = FixedLagSmoother("QS", traj, lag=5, batch_every=5)
        for step in traj.steps[:t]:
            smoother.update(step)
            clean.update(step)
        timestamps, estimates = list(smoother.timestamps), smoother.estimates.copy()
        rows = {signature: list(b.rows) for signature, b in smoother.blocks.items()}
        windows = len(smoother.reports)
        with pytest.raises(NonPositiveTimestep):
            smoother.update(dataclasses.replace(traj.steps[t], t=traj.steps[t - 1].t + shift))
        assert smoother.timestamps == timestamps
        np.testing.assert_array_equal(smoother.estimates, estimates)
        assert {signature: b.rows for signature, b in smoother.blocks.items()} == rows
        assert len(smoother.reports) == windows
        for step in traj.steps[t:]:
            smoother.update(step)
            clean.update(step)
        got, want = smoother.finalize(), clean.finalize()
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert np.array_equal(got[key], value), key

    def test_update_does_not_walk_the_history(self):
        # the timestamps fail if iterated, sliced or copied, so an update
        # that did work in proportion to the steps before it would raise;
        # windows and marginalizations included. The estimates' grid only
        # doubles when it is full, a copy that costs O(1) an update over time
        class History(list):
            def __iter__(self):
                raise AssertionError("the timestamps were iterated")

            def __getitem__(self, i):
                assert not isinstance(i, slice), "the timestamps were sliced"
                return super().__getitem__(i)

            def copy(self):
                raise AssertionError("the timestamps were copied")

        traj = self.make_noisy(duration=4.0)
        smoother = FixedLagSmoother("QS", traj, lag=5, batch_every=5)
        smoother.timestamps = History()
        grids = []
        for step in traj.steps:
            smoother.update(step)
            if not grids or grids[-1] is not smoother._grid:
                grids.append(smoother._grid)
        assert [len(g) for g in grids] == [16, 32, 64]
        assert len(smoother.reports) == len(traj) // 5
        assert smoother.first_active_t == len(traj) - 5
        assert isinstance(smoother.timestamps, History)
        assert len(smoother.timestamps) == len(traj)
        with pytest.raises(NonPositiveTimestep):
            smoother.update(dataclasses.replace(traj.steps[-1], t=traj.steps[-1].t))
        assert len(smoother.timestamps) == len(traj)

    def test_window_size_stays_bounded(self):
        traj = self.make_noisy(duration=4.0)
        smoother = FixedLagSmoother("QS", traj, lag=10, batch_every=5)
        max_active = 0
        for step in traj.steps:
            smoother.update(step)
            active = len(smoother.timestamps) - smoother.first_active_t
            max_active = max(max_active, active)
        smoother.finalize()
        assert smoother.first_active_t > 0  # marginalization actually happened
        assert max_active <= 10 + 5  # lag plus at most one trigger interval

    def test_occlusion_longer_than_the_lag(self):
        # the object is unseen for 12 steps at lag 10: timesteps still get
        # optimized before they are marginalized
        gt = benchmark_scenario(7, duration=4.0)
        traj = apply_occlusion(inject_noise(from_ground_truth(gt), NoiseSpec(seed=7)), (0.3, 0.6),
                               channels=("y",))
        truth = traj.truth_arrays()
        batch_values, _, _ = solve_batch("QS", traj)
        batch = compute_metrics(values_to_arrays(batch_values, len(traj), traj.timestamps), truth)
        _, smoother = solve_incremental("QS", traj, lag=10, batch_every=5)
        incremental = compute_metrics(smoother.estimate_arrays(), truth)
        assert incremental.rmse("x_trans") <= 1.5 * batch.rmse("x_trans")

    def test_batch_every_beyond_the_lag_is_rejected(self):
        traj = self.make_noisy(duration=1.0)
        for batch_every in (0, 6):
            with pytest.raises(ValueError):
                FixedLagSmoother("QS", traj, lag=5, batch_every=batch_every)

    @pytest.mark.parametrize("name", ["lag", "batch_every"])
    @pytest.mark.parametrize("value", [7.9, True, "7"])
    def test_a_window_length_that_is_not_an_integer_is_refused(self, name, value):
        # not truncated: lag=7.9 once ran at lag 7
        traj = self.make_noisy(duration=1.0)
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            FixedLagSmoother("QS", traj, **{"lag": 8, "batch_every": 5, name: value})
        smoother = FixedLagSmoother("QS", traj, **{"lag": 8, "batch_every": 5, name: np.int64(7)})
        assert getattr(smoother, name) == 7 and type(getattr(smoother, name)) is int

    def test_finalize_skips_a_window_just_optimized(self):
        traj = self.make_noisy(duration=2.0)
        assert len(traj) % 5 == 0
        _, smoother = solve_incremental("QS", traj, lag=8, batch_every=5)
        assert len(smoother.reports) == len(traj) // 5
        _, smoother = solve_incremental("QS", traj, lag=8, batch_every=3)
        assert len(smoother.reports) == len(traj) // 3 + 1

    def test_estimates_cover_all_timesteps(self):
        traj = self.make_noisy(duration=2.0)
        values, smoother = solve_incremental("QS", traj, lag=8, batch_every=5)
        arrays = smoother.estimate_arrays()
        assert arrays.x.shape == (len(traj), 3)
        assert np.all(np.isfinite(arrays.x))
