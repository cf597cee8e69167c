"""Graph construction, optimizer behavior, marginals, fixed-lag smoothing."""

import numpy as np
import pytest

from pushgraph.dataio import (
    MeasuredTrajectory,
    NoiseSpec,
    TrajectoryStep,
    apply_occlusion,
    from_ground_truth,
    inject_noise,
)
from pushgraph.errors import EmptyTrajectory, MissingShapeConfig, SingularSystem
from pushgraph.factors import PriorFactor, NoiseModel
from pushgraph.geometry import PlanarPose, Plane3, Shape2D
from pushgraph.graphcore import (
    FactorGraph,
    FixedLagSmoother,
    GaussNewtonOptions,
    GraphConfig,
    GraphModel,
    LinearizedPriorFactor,
    VariableKey,
    build_graph,
    ee_key,
    gauss_newton,
    linearize,
    marginal_covariance,
    obj_key,
    pf_key,
    solve_batch,
    solve_incremental,
    values_to_arrays,
)
from pushgraph.geometry import PlanarPose as PP
from pushgraph.pushsim import (
    limit_surface_constants,
    make_push_scene,
    servo_push,
    simulate_push,
    steering_profile,
    straight_path,
)

BOX = Shape2D.box(0.1, 0.1)
PROBE = Shape2D.disc(0.008)
PARAMS = limit_surface_constants(BOX, 0.3, 1.0)

# iterate until no float-level improvement remains; used for agreement tests
TIGHT = GaussNewtonOptions(max_iter=200, rel_cost_tol=1e-16, abs_grad_tol=1e-12)


def center_push_trajectory(duration=3.0, dt=0.1, speed=0.05, offset=0.0, kind="straight", seed=0):
    """Straight center push, or a steered (rotating) push that keeps contact."""
    if kind == "straight" and offset == 0.0:
        x0, e0 = make_push_scene(BOX, PROBE, 0.0, 0.0)
        gt = simulate_push(straight_path(e0, speed, duration, dt), x0, BOX, PROBE, PARAMS, dt)
    else:
        T = max(1, round(duration / dt))
        steer = steering_profile("random", T, dt, seed=seed, amplitude=0.3)
        gt = servo_push(PP.identity(), BOX, PROBE, PARAMS, speed, duration, dt, steer,
                        lateral_offset=offset)
    assert not gt.contact_lost
    return from_ground_truth(gt)


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

    def test_occluded_initialization_extrapolates(self):
        traj = apply_occlusion(center_push_trajectory(duration=2.0), (0.3, 0.6))
        graph = build_graph("QS", traj)
        # every variable initialized and finite
        for key, val in graph.initial.items():
            assert np.all(np.isfinite(val))

    def test_well_posedness_residual_dim(self):
        traj = center_push_trajectory(duration=1.0)
        graph = build_graph("QS", traj)
        assert graph.residual_dim() >= graph.total_dim


class TestLinearize:
    def test_single_prior_normal_matrix(self):
        graph = FactorGraph()
        key = obj_key(0)
        cov = np.diag([0.04, 0.09, 0.25])
        graph.add_variable(key, np.zeros(3))
        graph.add_factor(PriorFactor(key, np.zeros(3), NoiseModel([0.2, 0.3, 0.5]), wrap_index=2))
        system = linearize(graph, graph.initial)
        np.testing.assert_allclose(system.normal_matrix.toarray(), np.linalg.inv(cov), atol=1e-12)

    def test_v_chain_block_tridiagonal(self):
        from pushgraph.factors import ConstantVelocityFactor

        graph = FactorGraph()
        T = 8
        for t in range(T):
            graph.add_variable(obj_key(t), np.array([0.1 * t, 0.0, 0.0]))
        graph.add_factor(PriorFactor(obj_key(0), np.zeros(3), NoiseModel.isotropic(3, 1.0), wrap_index=2))
        for t in range(1, T - 1):
            graph.add_factor(
                ConstantVelocityFactor(obj_key(t - 1), obj_key(t), obj_key(t + 1), 0.1, 0.1,
                                       NoiseModel.isotropic(3, 1.0))
            )
        H = linearize(graph, graph.initial).normal_matrix.toarray()
        # couplings extend at most two block-steps away
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
        system = linearize(graph, graph.initial)
        jac = system.jacobian
        dense_entries = jac.shape[0] * jac.shape[1]
        assert jac.nnz * 100 <= dense_entries
        H = system.normal_matrix
        assert H.nnz * 20 <= H.shape[0] * H.shape[1]


class TestGaussNewton:
    def test_linear_graph_one_iteration(self):
        graph = FactorGraph()
        key = obj_key(0)
        graph.add_variable(key, np.array([5.0, -3.0, 0.2]))
        graph.add_factor(PriorFactor(key, np.array([1.0, 2.0, 0.0]),
                                     NoiseModel.isotropic(3, 0.1), wrap_index=2))
        values, report = gauss_newton(graph)
        np.testing.assert_allclose(values[key], [1.0, 2.0, 0.0], atol=1e-12)
        assert report.iterations <= 2
        assert report.converged

    def test_noiseless_truth_init_converges_immediately(self):
        traj = center_push_trajectory(duration=3.0, offset=0.0)
        values, report, _ = solve_batch("QS", traj)
        assert report.iterations <= 2
        assert report.final_cost < 1e-12
        assert report.converged

    def test_cost_trace_non_increasing(self):
        traj = inject_noise(center_push_trajectory(duration=3.0, offset=0.015),
                            NoiseSpec(seed=4, sigma_x_rot=0.05, sigma_e_rot=0.05))
        _, report, _ = solve_batch("QS", traj)
        trace = np.array(report.cost_trace)
        assert np.all(np.diff(trace) <= 1e-12)
        assert report.converged

    def test_converged_point_is_stationary(self):
        import scipy.sparse.linalg

        traj = inject_noise(center_push_trajectory(duration=2.0, offset=0.01),
                            NoiseSpec(seed=5, sigma_x_rot=0.05, sigma_e_rot=0.05))
        values, report, graph = solve_batch("QS", traj, opts=TIGHT)
        system = linearize(graph, values)
        # Newton step from the converged point is negligible
        step = scipy.sparse.linalg.splu(system.normal_matrix).solve(-system.gradient)
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
        graph = FactorGraph()
        key = obj_key(0)
        cov = np.diag([0.04, 0.09, 0.25])
        graph.add_variable(key, np.zeros(3))
        graph.add_factor(PriorFactor(key, np.zeros(3), NoiseModel([0.2, 0.3, 0.5]), wrap_index=2))
        out = marginal_covariance(graph, graph.initial, key)
        np.testing.assert_allclose(out, cov, atol=1e-12)

    def test_two_priors_fuse(self):
        graph = FactorGraph()
        key = pf_key(0)
        c1 = np.diag([0.04, 0.09, 0.01, 0.01])
        c2 = np.diag([0.01, 0.04, 0.09, 0.04])
        graph.add_variable(key, np.zeros(4))
        graph.add_factor(PriorFactor(key, np.zeros(4), NoiseModel([0.2, 0.3, 0.1, 0.1])))
        graph.add_factor(PriorFactor(key, np.zeros(4), NoiseModel([0.1, 0.2, 0.3, 0.2])))
        expected = np.linalg.inv(np.linalg.inv(c1) + np.linalg.inv(c2))
        np.testing.assert_allclose(marginal_covariance(graph, graph.initial, key), expected, atol=1e-12)

    def test_posterior_contracts_vs_measurement(self):
        traj = inject_noise(center_push_trajectory(duration=2.0, offset=0.01),
                            NoiseSpec(seed=9, sigma_x_rot=0.05, sigma_e_rot=0.05))
        values, _, graph = solve_batch("QS", traj)
        t = len(traj) // 2
        cfg = GraphConfig.from_trajectory(traj)
        pf_cov = marginal_covariance(graph, values, pf_key(t))
        meas_cov_p = np.eye(2) * cfg.sigma_contact**2
        assert np.trace(pf_cov[:2, :2]) < np.trace(meas_cov_p)
        x_cov = marginal_covariance(graph, values, obj_key(t))
        meas_cov_x = np.diag([cfg.sigma_x_trans**2, cfg.sigma_x_trans**2, cfg.sigma_x_rot**2])
        assert np.trace(x_cov) < np.trace(meas_cov_x)
        w = np.linalg.eigvalsh(pf_cov)
        assert np.all(w > -1e-12)

    def test_singular_system_detected(self):
        graph = FactorGraph()
        graph.add_variable(obj_key(0), np.zeros(3))
        graph.add_variable(obj_key(1), np.zeros(3))  # unconstrained
        graph.add_factor(PriorFactor(obj_key(0), np.zeros(3), NoiseModel.isotropic(3, 1.0), wrap_index=2))
        with pytest.raises(SingularSystem):
            marginal_covariance(graph, graph.initial, obj_key(1))


class TestFixedLag:
    def make_noisy(self, duration=3.0, seed=11):
        return inject_noise(center_push_trajectory(duration=duration, offset=0.01),
                            NoiseSpec(seed=seed, sigma_x_rot=0.05, sigma_e_rot=0.05))

    def test_full_lag_matches_batch(self):
        traj = self.make_noisy(duration=2.0)
        batch_values, _, _ = solve_batch("QS", traj, opts=TIGHT)
        inc_values, smoother = solve_incremental("QS", traj, lag=10_000, batch_every=5,
                                                 opts=TIGHT)
        for key, bv in batch_values.items():
            np.testing.assert_allclose(inc_values[key], bv, atol=1e-9)

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
        absorbed = FactorGraph()
        for f in smoother.active_factors:
            if any(k.t < new_start for k in f.keys):
                for k in f.keys:
                    if k not in absorbed.dims:
                        absorbed.add_variable(k)
                absorbed.add_factor(f)
        system = linearize(absorbed, smoother.estimates)
        n_old = sum(dim for k, (_, dim) in system.index.items() if k.t < new_start)
        H, g = system.normal_matrix.toarray(), system.gradient
        H_oo, H_bo = H[:n_old, :n_old], H[n_old:, :n_old]
        schur = H[n_old:, n_old:] - H_bo @ np.linalg.solve(H_oo, H_bo.T)
        schur_g = g[n_old:] - H_bo @ np.linalg.solve(H_oo, g[:n_old])

        smoother._marginalize_upto(new_start)
        prior = smoother.active_factors[-1]
        assert isinstance(prior, LinearizedPriorFactor)
        assert list(prior.keys) == [k for k in system.index if k.t >= new_start]
        r, jacs = prior.residual_and_jacobians(*[smoother.estimates[k] for k in prior.keys])
        J = np.hstack(jacs)
        for got, want in ((J.T @ J, schur), (J.T @ r, schur_g)):
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

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

    def test_estimates_cover_all_timesteps(self):
        traj = self.make_noisy(duration=2.0)
        values, smoother = solve_incremental("QS", traj, lag=8, batch_every=5)
        arrays = smoother.estimate_arrays()
        assert arrays.x.shape == (len(traj), 3)
        assert np.all(np.isfinite(arrays.x))
