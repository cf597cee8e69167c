"""Schema round-trips, corruption determinism, occlusion, metrics, CSV export."""

import json
import math

import numpy as np
import pytest

from pushgraph.dataio import (
    MeasuredTrajectory,
    Metrics,
    NoiseSpec,
    StepTruth,
    TrajectoryArrays,
    TrajectoryStep,
    apply_occlusion,
    compute_metrics,
    export_results,
    from_ground_truth,
    import_mit_log,
    inject_noise,
    load_trajectory,
    read_results_csv,
    sample_bimodal_triangular,
    save_trajectory,
    trajectory_from_dict,
    trajectory_to_dict,
)
from pushgraph.errors import LengthMismatch, NonMonotonicTimestamps, ParseError, SchemaVersionError
from pushgraph.geometry import PlanarPose, Plane3, Pose3, Shape2D, project_to_plane
from pushgraph.pushsim import limit_surface_constants


def random_trajectory(rng, T=12, with_truth=True, missing_prob=0.2):
    steps = []
    t = 0.0
    for i in range(T):
        t += rng.uniform(0.01, 0.2)
        y = PlanarPose(*rng.normal(size=3)) if rng.random() > missing_prob else None
        z = PlanarPose(*rng.normal(size=3)) if rng.random() > missing_prob else None
        w = rng.normal(size=2) if rng.random() > missing_prob else None
        alpha = rng.normal(size=2) if rng.random() > missing_prob else None
        if y is None and z is None and w is None and alpha is None:
            y = PlanarPose(*rng.normal(size=3))
        truth = None
        if with_truth:
            truth = StepTruth(
                x=PlanarPose(*rng.normal(size=3)),
                e=PlanarPose(*rng.normal(size=3)),
                p=rng.normal(size=2),
                f=rng.normal(size=2),
            )
        steps.append(TrajectoryStep(t=t, y=y, z=z, w=w, alpha=alpha, truth=truth))
    shape = Shape2D.box(0.1, 0.1)
    return MeasuredTrajectory(
        steps=steps,
        plane=Plane3.xy(),
        object_shape=shape,
        ee_shape=Shape2D.disc(0.01),
        params=limit_surface_constants(shape, 0.3, 1.0),
    )


def assert_trajectories_equal(a, b):
    assert len(a) == len(b)
    for sa, sb in zip(a.steps, b.steps):
        assert sa.t == sb.t
        for fa, fb in ((sa.y, sb.y), (sa.z, sb.z)):
            assert (fa is None) == (fb is None)
            if fa is not None:
                np.testing.assert_array_equal(fa.as_array(), fb.as_array())
        for fa, fb in ((sa.w, sb.w), (sa.alpha, sb.alpha)):
            assert (fa is None) == (fb is None)
            if fa is not None:
                np.testing.assert_array_equal(fa, fb)
        assert (sa.truth is None) == (sb.truth is None)
        if sa.truth is not None:
            np.testing.assert_array_equal(sa.truth.x.as_array(), sb.truth.x.as_array())
            np.testing.assert_array_equal(sa.truth.p, sb.truth.p)


class TestSchema:
    def test_roundtrip_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        for i in range(5):
            traj = random_trajectory(rng, with_truth=(i % 2 == 0))
            path = tmp_path / f"traj_{i}.json"
            save_trajectory(traj, path)
            back = load_trajectory(path)
            assert_trajectories_equal(traj, back)
            assert back.params.c == traj.params.c
            assert back.object_shape.kind == traj.object_shape.kind

    def test_pose3_measurements_roundtrip(self, tmp_path):
        steps = [
            TrajectoryStep(t=0.0, y=Pose3(np.array([1.0, 2.0, 0.5]), np.array([1.0, 0.0, 0.0, 0.0]))),
            TrajectoryStep(t=0.1, y=PlanarPose(0.1, 0.2, 0.3)),
        ]
        traj = MeasuredTrajectory(steps=steps, plane=Plane3.xy())
        path = tmp_path / "t.json"
        save_trajectory(traj, path)
        back = load_trajectory(path)
        assert isinstance(back.steps[0].y, Pose3)
        np.testing.assert_array_equal(back.steps[0].y.translation, [1.0, 2.0, 0.5])
        assert isinstance(back.steps[1].y, PlanarPose)

    def test_decreasing_timestamps_rejected(self):
        steps = [
            TrajectoryStep(t=1.0, y=PlanarPose(0, 0, 0)),
            TrajectoryStep(t=0.5, y=PlanarPose(0, 0, 0)),
        ]
        with pytest.raises(NonMonotonicTimestamps):
            MeasuredTrajectory(steps=steps, plane=Plane3.xy())

    def test_schema_version_check(self):
        rng = np.random.default_rng(1)
        data = trajectory_to_dict(random_trajectory(rng))
        data["schema_version"] = 99
        with pytest.raises(SchemaVersionError):
            trajectory_from_dict(data)

    def test_malformed_rejected(self):
        with pytest.raises(ParseError):
            trajectory_from_dict({"schema_version": 1, "steps": [{"bogus": 1}]})

    @pytest.mark.parametrize("channel, path, value", [
        ("t", (), math.nan),
        ("y", ("theta",), math.nan),
        ("z", ("x",), math.inf),
        ("w", (1,), math.nan),
        ("alpha", (0,), -math.inf),
        ("truth", ("f", 0), math.nan),
    ])
    def test_non_finite_rejected_at_load(self, tmp_path, channel, path, value):
        data = trajectory_to_dict(random_trajectory(np.random.default_rng(2), missing_prob=0.0))
        step = data["steps"][3]
        if path:
            target = step[channel]
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        else:
            step[channel] = value
        file = tmp_path / "bad.json"
        file.write_text(json.dumps(data))  # json writes NaN / Infinity literals
        with pytest.raises(ParseError, match=f"step 3: channel '{channel}'"):
            load_trajectory(file)

    def test_from_ground_truth_has_measurements_and_truth(self):
        from pushgraph.pushsim import make_push_scene, simulate_push, straight_path

        obj = Shape2D.box(0.1, 0.1)
        params = limit_surface_constants(obj, 0.3, 1.0)
        x0, e0 = make_push_scene(obj, Shape2D.disc(0.01), 0.0, 0.0)
        traj = simulate_push(straight_path(e0, 0.05, 1.0, 0.05), x0, obj, Shape2D.disc(0.01), params, 0.05)
        mt = from_ground_truth(traj)
        assert len(mt) == len(traj)
        assert mt.steps[3].truth is not None
        np.testing.assert_array_equal(mt.steps[3].y.as_array(), traj.object_poses[3])


class TestMITAdapter:
    def make_log(self):
        ts = np.linspace(0.0, 1.0, 11)
        return {
            "object_pose": [[t, 0.1 * t, 0.02, 0.3 * t] for t in ts],
            "tip_pose": [[t, 0.1 * t - 0.06, 0.025, 0.41] for t in ts],
            "ft_wrench": [[t, 1.5, 0.2, 0.01] for t in ts],
        }

    def test_planar_streams_present(self):
        traj = import_mit_log(self.make_log())
        assert all(s.y is not None and s.z is not None and s.alpha is not None for s in traj.steps)
        assert all(s.w is None for s in traj.steps)

    def test_projection_matches_manual(self):
        # oracle: manual orthographic projection of the 3-D tip position
        traj = import_mit_log(self.make_log())
        s = traj.steps[4]
        t = s.t
        expected = project_to_plane(
            Pose3(np.array([0.1 * t - 0.06, 0.025, 0.41]), np.array([1.0, 0.0, 0.0, 0.0])), Plane3.xy()
        )
        np.testing.assert_allclose(s.z.as_array(), expected.as_array(), atol=1e-12)
        np.testing.assert_allclose(s.z.as_array()[:2], [0.1 * t - 0.06, 0.025], atol=1e-12)

    def test_bad_log_rejected(self):
        with pytest.raises(ParseError):
            import_mit_log({"object_pose": [[0, 1, 2, 3]]})


class TestNoise:
    def test_zero_sigma_identity(self):
        rng = np.random.default_rng(2)
        traj = random_trajectory(rng)
        spec = NoiseSpec(
            sigma_x_trans=0.0, sigma_x_rot=0.0, sigma_e_trans=0.0,
            sigma_e_rot=0.0, sigma_contact=0.0, sigma_force=0.0, seed=5,
        )
        out = inject_noise(traj, spec)
        assert_trajectories_equal(traj, out)

    def test_same_seed_identical(self):
        rng = np.random.default_rng(3)
        traj = random_trajectory(rng)
        spec = NoiseSpec(seed=123)
        a = inject_noise(traj, spec)
        b = inject_noise(traj, spec)
        assert_trajectories_equal(a, b)

    def test_missingness_and_timestamps_preserved(self):
        rng = np.random.default_rng(4)
        traj = random_trajectory(rng, missing_prob=0.5)
        out = inject_noise(traj, NoiseSpec(seed=9))
        np.testing.assert_array_equal(out.timestamps, traj.timestamps)
        for sa, sb in zip(traj.steps, out.steps):
            assert (sa.y is None) == (sb.y is None)
            assert (sa.w is None) == (sb.w is None)
            assert (sa.alpha is None) == (sb.alpha is None)

    def test_empirical_sigma_within_5_percent(self):
        # one long trajectory, about 10^4 scalar samples per channel
        steps = [
            TrajectoryStep(t=float(i), y=PlanarPose(0, 0, 0), w=np.zeros(2), alpha=np.zeros(2))
            for i in range(5000)
        ]
        traj = MeasuredTrajectory(steps=steps, plane=Plane3.xy())
        spec = NoiseSpec(sigma_x_trans=0.005, sigma_x_rot=0.05, sigma_contact=0.005, sigma_force=0.5, seed=7)
        out = inject_noise(traj, spec)
        xy = np.array([[s.y.x, s.y.y] for s in out.steps]).ravel()
        th = np.array([s.y.theta for s in out.steps])
        ww = np.array([s.w for s in out.steps]).ravel()
        ff = np.array([s.alpha for s in out.steps]).ravel()
        assert np.std(xy) == pytest.approx(0.005, rel=0.05)
        assert np.std(th) == pytest.approx(0.05, rel=0.05)
        assert np.std(ww) == pytest.approx(0.005, rel=0.05)
        assert np.std(ff) == pytest.approx(0.5, rel=0.05)

    def test_bimodal_two_modes(self):
        rng = np.random.default_rng(8)
        samples = sample_bimodal_triangular(rng, 0.3, 0.2, size=100_000)
        # symmetric mixture: zero mean, half the mass on each side
        assert abs(np.mean(samples)) < 0.01
        assert np.all(np.abs(np.abs(samples) - 0.3) <= 0.2 + 1e-12)
        hist, edges = np.histogram(samples, bins=81, range=(-0.55, 0.55))
        centers = 0.5 * (edges[:-1] + edges[1:])
        # density peaks near each mode
        for mode in (-0.3, 0.3):
            local = hist[np.abs(centers - mode) < 0.05]
            away = hist[np.abs(np.abs(centers) - 0.3) > 0.15]
            assert local.max() > 2.0 * max(1, away.max())

    def test_bimodal_channels_only_touch_contact_and_force(self):
        rng = np.random.default_rng(9)
        traj = random_trajectory(rng, missing_prob=0.0)
        spec = NoiseSpec(kind="bimodal_triangular", channels=("w", "alpha"), seed=1)
        out = inject_noise(traj, spec)
        for sa, sb in zip(traj.steps, out.steps):
            np.testing.assert_array_equal(sa.y.as_array(), sb.y.as_array())
            assert not np.allclose(sa.w, sb.w)

    def test_unknown_channel_rejected(self):
        with pytest.raises(ValueError, match="'q'"):
            NoiseSpec(channels=("y", "q"))


class TestOcclusion:
    def test_window_counts(self):
        steps = [TrajectoryStep(t=float(i), y=PlanarPose(0, 0, 0), w=np.zeros(2)) for i in range(100)]
        traj = MeasuredTrajectory(steps=steps, plane=Plane3.xy())
        out = apply_occlusion(traj, (0.35, 0.65))
        missing = sum(1 for s in out.steps if s.y is None)
        assert missing == 30
        assert all(s.w is not None for s in out.steps)

    def test_empty_window_unchanged(self):
        rng = np.random.default_rng(10)
        traj = random_trajectory(rng)
        out = apply_occlusion(traj, (0.4, 0.4))
        assert_trajectories_equal(traj, out)

    def test_unknown_channel_rejected(self):
        traj = random_trajectory(np.random.default_rng(12))
        with pytest.raises(ValueError, match="'q'"):
            apply_occlusion(traj, (0.2, 0.5), channels=("y", "q"))

    def test_occluded_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        traj = apply_occlusion(random_trajectory(rng, missing_prob=0.0), (0.2, 0.5))
        path = tmp_path / "occ.json"
        save_trajectory(traj, path)
        assert_trajectories_equal(traj, load_trajectory(path))


class TestMetrics:
    def make_arrays(self, T=20, dt=0.1, speed=0.05):
        ts = np.arange(T) * dt
        x = np.column_stack([speed * ts, np.zeros(T), np.zeros(T)])
        e = x.copy()
        p = np.column_stack([speed * ts - 0.05, np.zeros(T)])
        f = np.tile([2.0, 0.0], (T, 1))
        return TrajectoryArrays(timestamps=ts, x=x, e=e, p=p, f=f)

    def test_zero_for_exact_estimate(self):
        truth = self.make_arrays()
        m = compute_metrics(truth, truth)
        for name in ("x_trans", "x_rot", "e_trans", "contact", "force_mag", "force_dir"):
            assert m.rmse(name) == pytest.approx(0.0, abs=1e-12)

    def test_constant_offset_translation(self):
        truth = self.make_arrays()
        est = TrajectoryArrays(
            timestamps=truth.timestamps,
            x=truth.x + np.array([0.003, 0.004, 0.0]),  # 0.5 cm offset
            e=truth.e,
            p=truth.p,
            f=truth.f,
        )
        m = compute_metrics(est, truth)
        assert m.rmse("x_trans") == pytest.approx(0.5, abs=1e-9)
        assert m.mae("x_trans") == pytest.approx(0.5, abs=1e-9)
        assert m.channels["x_trans"].std == pytest.approx(0.0, abs=1e-9)

    def test_force_direction_90deg(self):
        truth = self.make_arrays()
        est = TrajectoryArrays(
            timestamps=truth.timestamps, x=truth.x, e=truth.e, p=truth.p,
            f=np.tile([0.0, 2.0], (len(truth.timestamps), 1)),
        )
        m = compute_metrics(est, truth)
        assert m.rmse("force_dir") == pytest.approx(90.0, abs=1e-9)

    def test_stationary_steps_excluded(self):
        truth = self.make_arrays()
        truth.x[5:10] = truth.x[5]  # object pauses
        est = TrajectoryArrays(
            timestamps=truth.timestamps, x=truth.x + np.array([0.01, 0, 0]),
            e=truth.e, p=truth.p, f=truth.f,
        )
        m = compute_metrics(est, truth)
        assert m.channels["x_trans"].count < len(truth.timestamps)

    def test_rmse_ge_mae(self):
        rng = np.random.default_rng(12)
        truth = self.make_arrays(T=50)
        est = TrajectoryArrays(
            timestamps=truth.timestamps,
            x=truth.x + rng.normal(0, 0.01, truth.x.shape),
            e=truth.e + rng.normal(0, 0.01, truth.e.shape),
            p=truth.p + rng.normal(0, 0.01, truth.p.shape),
            f=truth.f + rng.normal(0, 0.3, truth.f.shape),
        )
        m = compute_metrics(est, truth)
        for name, st in m.channels.items():
            assert st.rmse >= st.mae >= 0.0

    def test_length_mismatch(self):
        truth = self.make_arrays(T=20)
        est = self.make_arrays(T=19)
        with pytest.raises(LengthMismatch):
            compute_metrics(est, truth)


class TestExport:
    def test_csv_roundtrip_and_columns(self, tmp_path):
        T = 7
        ts = np.arange(T) * 0.1
        rng = np.random.default_rng(13)
        est = TrajectoryArrays(
            timestamps=ts,
            x=rng.normal(size=(T, 3)),
            e=rng.normal(size=(T, 3)),
            p=rng.normal(size=(T, 2)),
            f=rng.normal(size=(T, 2)),
        )
        covs = {
            "x": np.tile(np.diag([4e-4, 1e-4, 1e-2]), (T, 1, 1)),
            "p": np.tile(np.diag([9e-4, 1e-4]), (T, 1, 1)),
            "f": np.tile(np.eye(2) * 0.01, (T, 1, 1)),
        }
        path = tmp_path / "out.csv"
        export_results(est, covs, path, config_echo={"model": "QS"})
        cols = read_results_csv(path)
        assert len(cols) == 1 + 3 + 3 + 2 + 2 + 7
        np.testing.assert_allclose(cols["x"], est.x[:, 0])
        # 2-sigma axes are 2 sqrt(eigenvalues) of the translation marginal
        assert cols["x_2sigma_major"][0] == pytest.approx(2 * math.sqrt(4e-4))
        assert cols["x_2sigma_minor"][0] == pytest.approx(2 * math.sqrt(1e-4))
        assert cols["p_2sigma_major"][0] == pytest.approx(2 * math.sqrt(9e-4))
        first = path.read_text().splitlines()[0]
        assert first.startswith("# config:")
        assert json.loads(first.split("# config:")[1])["model"] == "QS"
