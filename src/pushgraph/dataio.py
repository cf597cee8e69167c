"""Trajectory file schema, corruption (noise/occlusion), and evaluation metrics.

All trajectory data is stored in SI units (m, rad, N, s). The metrics layer
reports translations in cm, rotations in rad, force magnitude in N, and force
direction errors in degrees.

Schema v1 (JSON, one file per trajectory)::

    {
      "schema_version": 1,
      "plane":  {"origin": [3], "normal": [3], "x_axis": [3]},
      "shapes": {"object": <shape>, "ee": <shape>} | null,
      "params": {"mu_s", "mass", "gravity", "f_max", "tau_max", "c",
                 "pressure_model"} | null,
      "noise":  <noise spec provenance> | null,
      "config": <free-form provenance echo> | null,
      "steps":  [{"t": s,
                  "y": <pose>|null, "z": <pose>|null,
                  "w": [2]|null, "alpha": [2..3]|null,
                  "truth": {"x": <pose>, "e": <pose>,
                            "p": [2], "f": [2]}|null}]
    }

A pose is either planar {"x", "y", "theta"} or spatial {"t": [3], "q": [4]}
with the quaternion ordered (w, x, y, z). Missing measurements are null.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import IoError, LengthMismatch, NonMonotonicTimestamps, ParseError, SchemaVersionError
from .geometry import PlanarPose, Plane3, Pose3, Shape2D, angle_diff, cross2, project_to_plane
from .pushsim import GroundTruthTrajectory, PushParams

SCHEMA_VERSION = 1
CHANNELS = ("y", "z", "w", "alpha")  # object pose, ee pose, contact point, force


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


@dataclass
class StepTruth:
    x: PlanarPose
    e: PlanarPose
    p: np.ndarray
    f: np.ndarray


@dataclass
class TrajectoryStep:
    t: float
    y: PlanarPose | Pose3 | None = None
    z: PlanarPose | Pose3 | None = None
    w: np.ndarray | None = None
    alpha: np.ndarray | None = None
    truth: StepTruth | None = None


@dataclass
class NoiseSpec:
    """Measurement corruption: per-channel Gaussian or bimodal triangular.

    The bimodal kind draws the mode sign uniformly and samples a symmetric
    triangular distribution about +/- mode_offset (half-width half_width);
    it applies to the channels listed in `channels` (contact/force style
    corruption). A channel name outside CHANNELS raises ValueError.
    Everything is deterministic given `seed`.
    """

    kind: str = "gaussian"
    sigma_x_trans: float = 0.005  # m
    sigma_x_rot: float = 0.5  # rad
    sigma_e_trans: float = 0.005  # m
    sigma_e_rot: float = 0.5  # rad
    sigma_contact: float = 0.005  # m
    sigma_force: float = 0.5  # N
    contact_mode_offset: float = 0.003  # m
    contact_half_width: float = 0.002  # m
    force_mode_offset: float = 0.3  # N
    force_half_width: float = 0.2  # N
    channels: tuple = CHANNELS
    seed: int = 0

    def __post_init__(self):
        for name in ("sigma_x_trans", "sigma_x_rot", "sigma_e_trans", "sigma_e_rot",
                     "sigma_contact", "sigma_force"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.contact_half_width <= 0.0 or self.force_half_width <= 0.0:
            raise ValueError("triangular half-widths must be positive")
        if self.kind not in ("gaussian", "bimodal_triangular"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        self.channels = _check_channels(self.channels)


def _check_channels(channels) -> tuple:
    channels = tuple(channels)
    unknown = [c for c in channels if c not in CHANNELS]
    if unknown:
        raise ValueError(f"unknown channels {unknown} (choose from {', '.join(CHANNELS)})")
    return channels


@dataclass
class MeasuredTrajectory:
    """Timestamped measurement streams plus scene metadata."""

    steps: list[TrajectoryStep]
    plane: Plane3
    object_shape: Shape2D | None = None
    ee_shape: Shape2D | None = None
    params: PushParams | None = None
    noise: NoiseSpec | None = None
    config: dict | None = None

    def __post_init__(self):
        ts = self.timestamps
        if len(ts) >= 2 and np.any(np.diff(ts) <= 0.0):
            raise NonMonotonicTimestamps("timestamps must be strictly increasing")
        if self.steps and not any(
            s.y is not None or s.z is not None or s.w is not None or s.alpha is not None
            for s in self.steps
        ):
            raise ParseError("all measurement streams are empty")

    @property
    def timestamps(self) -> np.ndarray:
        return np.array([s.t for s in self.steps])

    def __len__(self) -> int:
        return len(self.steps)

    def planar_measurement(self, meas):
        """Measurement as a PlanarPose, projecting spatial poses if needed."""
        if meas is None:
            return None
        if isinstance(meas, PlanarPose):
            return meas
        return project_to_plane(meas, self.plane)

    def truth_arrays(self) -> "TrajectoryArrays":
        if any(s.truth is None for s in self.steps):
            raise ValueError("trajectory has no complete ground truth")
        return TrajectoryArrays(
            timestamps=self.timestamps,
            x=np.array([s.truth.x.as_array() for s in self.steps]),
            e=np.array([s.truth.e.as_array() for s in self.steps]),
            p=np.array([s.truth.p for s in self.steps]),
            f=np.array([s.truth.f for s in self.steps]),
        )

    def measured_arrays(self) -> "TrajectoryArrays":
        """Measurement streams as arrays with NaN rows for missing entries."""
        T = len(self.steps)
        x = np.full((T, 3), np.nan)
        e = np.full((T, 3), np.nan)
        p = np.full((T, 2), np.nan)
        f = np.full((T, 2), np.nan)
        for i, s in enumerate(self.steps):
            if s.y is not None:
                x[i] = self.planar_measurement(s.y).as_array()
            if s.z is not None:
                e[i] = self.planar_measurement(s.z).as_array()
            if s.w is not None:
                p[i] = s.w
            if s.alpha is not None:
                f[i] = s.alpha[:2]
        return TrajectoryArrays(timestamps=self.timestamps, x=x, e=e, p=p, f=f)


@dataclass
class TrajectoryArrays:
    """Dense per-timestep state arrays used by metrics and export."""

    timestamps: np.ndarray
    x: np.ndarray | None = None  # (T, 3)
    e: np.ndarray | None = None  # (T, 3)
    p: np.ndarray | None = None  # (T, 2)
    f: np.ndarray | None = None  # (T, 2)


def from_ground_truth(gt: GroundTruthTrajectory, plane: Plane3 | None = None) -> MeasuredTrajectory:
    """Wrap simulator output as a trajectory with noiseless measurements."""
    plane = plane if plane is not None else Plane3.xy()
    steps = []
    for i in range(len(gt)):
        x = PlanarPose.from_array(gt.object_poses[i])
        e = PlanarPose.from_array(gt.ee_poses[i])
        steps.append(
            TrajectoryStep(
                t=float(gt.timestamps[i]),
                y=x,
                z=e,
                w=gt.contact_points[i].copy(),
                alpha=gt.forces[i].copy(),
                truth=StepTruth(x=x, e=e, p=gt.contact_points[i].copy(), f=gt.forces[i].copy()),
            )
        )
    return MeasuredTrajectory(
        steps=steps,
        plane=plane,
        object_shape=gt.object_shape,
        ee_shape=gt.ee_shape,
        params=gt.params,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _pose_to_json(pose):
    if pose is None:
        return None
    if isinstance(pose, PlanarPose):
        return {"x": pose.x, "y": pose.y, "theta": pose.theta}
    return {"t": pose.translation.tolist(), "q": pose.quaternion.tolist()}


def _pose_from_json(obj):
    if obj is None:
        return None
    if "theta" in obj:
        return PlanarPose(obj["x"], obj["y"], obj["theta"])
    return Pose3(np.array(obj["t"]), np.array(obj["q"]))


def _shape_to_json(shape):
    if shape is None:
        return None
    if shape.kind == "disc":
        return {"kind": "disc", "radius": shape.radius}
    return {"kind": "polygon", "vertices": shape.vertices.tolist()}


def _shape_from_json(obj):
    if obj is None:
        return None
    if obj["kind"] == "disc":
        return Shape2D.disc(obj["radius"])
    return Shape2D.polygon(obj["vertices"])


def _vec(x):
    return None if x is None else np.asarray(x, dtype=float)


def _all_finite(obj) -> bool:
    """False if a parsed JSON value holds NaN or +-inf anywhere.

    Python's json module reads the non-standard NaN and Infinity literals.
    """
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    return not isinstance(obj, float) or math.isfinite(obj)


def trajectory_to_dict(traj: MeasuredTrajectory) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "plane": {
            "origin": traj.plane.origin.tolist(),
            "normal": traj.plane.normal.tolist(),
            "x_axis": traj.plane.x_axis.tolist(),
        },
        "shapes": None
        if traj.object_shape is None and traj.ee_shape is None
        else {"object": _shape_to_json(traj.object_shape), "ee": _shape_to_json(traj.ee_shape)},
        "params": None
        if traj.params is None
        else {
            "mu_s": traj.params.mu_s,
            "mass": traj.params.mass,
            "gravity": traj.params.gravity,
            "f_max": traj.params.f_max,
            "tau_max": traj.params.tau_max,
            "c": traj.params.c,
            "pressure_model": traj.params.pressure_model,
        },
        "noise": None
        if traj.noise is None
        else {
            "kind": traj.noise.kind,
            "sigma_x_trans": traj.noise.sigma_x_trans,
            "sigma_x_rot": traj.noise.sigma_x_rot,
            "sigma_e_trans": traj.noise.sigma_e_trans,
            "sigma_e_rot": traj.noise.sigma_e_rot,
            "sigma_contact": traj.noise.sigma_contact,
            "sigma_force": traj.noise.sigma_force,
            "contact_mode_offset": traj.noise.contact_mode_offset,
            "contact_half_width": traj.noise.contact_half_width,
            "force_mode_offset": traj.noise.force_mode_offset,
            "force_half_width": traj.noise.force_half_width,
            "channels": list(traj.noise.channels),
            "seed": traj.noise.seed,
        },
        "config": traj.config,
        "steps": [
            {
                "t": s.t,
                "y": _pose_to_json(s.y),
                "z": _pose_to_json(s.z),
                "w": None if s.w is None else np.asarray(s.w).tolist(),
                "alpha": None if s.alpha is None else np.asarray(s.alpha).tolist(),
                "truth": None
                if s.truth is None
                else {
                    "x": _pose_to_json(s.truth.x),
                    "e": _pose_to_json(s.truth.e),
                    "p": np.asarray(s.truth.p).tolist(),
                    "f": np.asarray(s.truth.f).tolist(),
                },
            }
            for s in traj.steps
        ],
    }


def trajectory_from_dict(data: dict) -> MeasuredTrajectory:
    try:
        version = data["schema_version"]
    except (KeyError, TypeError) as exc:
        raise ParseError("missing schema_version") from exc
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(f"unsupported schema version {version}")
    try:
        plane = Plane3(
            np.array(data["plane"]["origin"]),
            np.array(data["plane"]["normal"]),
            np.array(data["plane"]["x_axis"]),
        )
        shapes = data.get("shapes")
        params = data.get("params")
        noise = data.get("noise")
        steps = []
        for i, s in enumerate(data["steps"]):
            for channel in ("t", "y", "z", "w", "alpha", "truth"):
                if not _all_finite(s.get(channel)):
                    raise ParseError(f"step {i}: channel {channel!r} is not finite")
            truth = None
            if s.get("truth") is not None:
                tr = s["truth"]
                truth = StepTruth(
                    x=_pose_from_json(tr["x"]),
                    e=_pose_from_json(tr["e"]),
                    p=np.array(tr["p"], dtype=float),
                    f=np.array(tr["f"], dtype=float),
                )
            steps.append(
                TrajectoryStep(
                    t=float(s["t"]),
                    y=_pose_from_json(s.get("y")),
                    z=_pose_from_json(s.get("z")),
                    w=_vec(s.get("w")),
                    alpha=_vec(s.get("alpha")),
                    truth=truth,
                )
            )
        return MeasuredTrajectory(
            steps=steps,
            plane=plane,
            object_shape=None if shapes is None else _shape_from_json(shapes.get("object")),
            ee_shape=None if shapes is None else _shape_from_json(shapes.get("ee")),
            params=None if params is None else PushParams(**params),
            noise=None if noise is None else NoiseSpec(**{**noise, "channels": tuple(noise["channels"])}),
            config=data.get("config"),
        )
    except (NonMonotonicTimestamps, SchemaVersionError):
        raise
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(f"malformed trajectory file: {exc}") from exc


def save_trajectory(traj: MeasuredTrajectory, path) -> None:
    try:
        with open(path, "w") as fh:
            json.dump(trajectory_to_dict(traj), fh, sort_keys=True, indent=1)
            fh.write("\n")
    except OSError as exc:
        raise IoError(str(exc)) from exc


def load_trajectory(path) -> MeasuredTrajectory:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc)) from exc
    return trajectory_from_dict(data)


def import_mit_log(data, plane: Plane3 | None = None) -> MeasuredTrajectory:
    """Adapter for MIT-pushing-style logs.

    Expects a dict (or path to a JSON file) with columns
    ``object_pose`` [[t, x, y, theta], ...], ``tip_pose`` [[t, x, y, z], ...],
    and optionally ``ft_wrench`` [[t, fx, fy, mz], ...]. Tip poses carry no
    orientation; they are projected into the plane with yaw 0. Streams are
    linearly interpolated onto the object-pose timestamps. Shape and friction
    metadata are not part of these logs and must be attached by the caller.
    """
    if not isinstance(data, dict):
        with open(data) as fh:
            data = json.load(fh)
    plane = plane if plane is not None else Plane3.xy()
    try:
        obj = np.asarray(data["object_pose"], dtype=float)
        tip = np.asarray(data["tip_pose"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ParseError("MIT-style log needs object_pose and tip_pose columns") from exc
    if obj.ndim != 2 or obj.shape[1] != 4 or tip.ndim != 2 or tip.shape[1] != 4:
        raise ParseError("object_pose/tip_pose must be (N, 4) arrays")
    wrench = np.asarray(data["ft_wrench"], dtype=float) if "ft_wrench" in data else None

    ts = obj[:, 0]
    if np.any(np.diff(ts) <= 0):
        raise NonMonotonicTimestamps("object_pose timestamps must increase")

    def interp_cols(src, cols):
        return np.column_stack([np.interp(ts, src[:, 0], src[:, c]) for c in cols])

    tip_xyz = interp_cols(tip, (1, 2, 3))
    steps = []
    for i, t in enumerate(ts):
        tip_pose = Pose3(tip_xyz[i], np.array([1.0, 0.0, 0.0, 0.0]))
        alpha = None
        if wrench is not None:
            alpha = interp_cols(wrench, (1, 2))[i]
        steps.append(
            TrajectoryStep(
                t=float(t),
                y=PlanarPose(obj[i, 1], obj[i, 2], obj[i, 3]),
                z=project_to_plane(tip_pose, plane),
                w=None,
                alpha=alpha,
            )
        )
    return MeasuredTrajectory(steps=steps, plane=plane)


# ---------------------------------------------------------------------------
# corruption
# ---------------------------------------------------------------------------


def sample_bimodal_triangular(rng, mode_offset: float, half_width: float, size=None):
    """Even mixture of triangular bumps centered at +/- mode_offset."""
    sign = rng.choice([-1.0, 1.0], size=size)
    center = sign * mode_offset
    return rng.triangular(center - half_width, center, center + half_width, size=size)


def _perturb_pose(pose, dxy, dtheta):
    return PlanarPose(pose.x + dxy[0], pose.y + dxy[1], pose.theta + dtheta)


def inject_noise(traj: MeasuredTrajectory, spec: NoiseSpec) -> MeasuredTrajectory:
    """Additive measurement corruption; ground truth is left untouched.

    Spatial pose measurements are projected into the plane before the planar
    perturbation is applied. Missing entries stay missing. Deterministic for
    a given (trajectory, spec.seed).
    """
    rng = np.random.default_rng(spec.seed)
    steps = []
    for s in traj.steps:
        y, z, w, alpha = s.y, s.z, s.w, s.alpha
        if y is not None and "y" in spec.channels:
            y = traj.planar_measurement(y)
            if spec.kind == "gaussian":
                y = _perturb_pose(y, rng.normal(0.0, spec.sigma_x_trans, 2), rng.normal(0.0, spec.sigma_x_rot))
        if z is not None and "z" in spec.channels:
            z = traj.planar_measurement(z)
            if spec.kind == "gaussian":
                z = _perturb_pose(z, rng.normal(0.0, spec.sigma_e_trans, 2), rng.normal(0.0, spec.sigma_e_rot))
        if w is not None and "w" in spec.channels:
            if spec.kind == "gaussian":
                w = w + rng.normal(0.0, spec.sigma_contact, 2)
            else:
                w = w + sample_bimodal_triangular(rng, spec.contact_mode_offset, spec.contact_half_width, 2)
        if alpha is not None and "alpha" in spec.channels:
            alpha = np.asarray(alpha, dtype=float).copy()
            if spec.kind == "gaussian":
                alpha[:2] = alpha[:2] + rng.normal(0.0, spec.sigma_force, 2)
            else:
                alpha[:2] = alpha[:2] + sample_bimodal_triangular(
                    rng, spec.force_mode_offset, spec.force_half_width, 2
                )
        steps.append(replace(s, y=y, z=z, w=w, alpha=alpha))
    return replace(traj, steps=steps, noise=spec)


def apply_occlusion(traj: MeasuredTrajectory, window, channels=("y",)) -> MeasuredTrajectory:
    """Mark measurements missing inside a fractional trajectory window.

    window is (lo, hi) with 0 <= lo <= hi <= 1; step i is occluded when
    lo <= i / T < hi. Only the listed channels are dropped; a name outside
    CHANNELS raises ValueError.
    """
    lo, hi = float(window[0]), float(window[1])
    if not (0.0 <= lo <= hi <= 1.0):
        raise ValueError("occlusion window must satisfy 0 <= lo <= hi <= 1")
    dropped = dict.fromkeys(_check_channels(channels))
    T = len(traj.steps)
    steps = [replace(s, **(dropped if lo <= i / T < hi else {})) for i, s in enumerate(traj.steps)]
    return replace(traj, steps=steps)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


@dataclass
class ChannelStats:
    rmse: float
    mae: float
    std: float
    count: int


@dataclass
class Metrics:
    """Per-channel error statistics.

    Channel units: x_trans/e_trans/contact in cm, x_rot/e_rot in rad,
    force_mag in N, force_dir in deg.
    """

    channels: dict[str, ChannelStats] = field(default_factory=dict)
    covariance_traces: dict[str, float] = field(default_factory=dict)

    def rmse(self, channel: str) -> float:
        return self.channels[channel].rmse

    def mae(self, channel: str) -> float:
        return self.channels[channel].mae


def _stats(err: np.ndarray) -> ChannelStats:
    err = np.asarray(err, dtype=float)
    err = err[np.isfinite(err)]
    if len(err) == 0:
        return ChannelStats(math.nan, math.nan, math.nan, 0)
    return ChannelStats(
        rmse=float(np.sqrt(np.mean(err**2))),
        mae=float(np.mean(np.abs(err))),
        std=float(np.std(err)),
        count=int(len(err)),
    )


def motion_mask(truth: TrajectoryArrays, threshold: float = 1e-4) -> np.ndarray:
    """Steps where the object translates faster than threshold (m/s)."""
    ts = truth.timestamps
    x = truth.x
    mask = np.zeros(len(ts), dtype=bool)
    for t in range(1, len(ts)):
        v = np.linalg.norm(x[t, :2] - x[t - 1, :2]) / (ts[t] - ts[t - 1])
        mask[t] = v > threshold
    if len(ts) > 1:
        mask[0] = mask[1]
    return mask


def compute_metrics(estimate: TrajectoryArrays, truth: TrajectoryArrays,
                    motion_threshold: float = 1e-4) -> Metrics:
    """Error statistics per channel; object-pose channels only while moving."""
    if len(estimate.timestamps) != len(truth.timestamps) or not np.allclose(
        estimate.timestamps, truth.timestamps
    ):
        raise LengthMismatch("estimate and ground truth timestamps differ")
    m = Metrics()
    moving = motion_mask(truth, motion_threshold)
    if estimate.x is not None and truth.x is not None:
        trans_err = np.linalg.norm(estimate.x[:, :2] - truth.x[:, :2], axis=1)
        rot_err = np.array([abs(angle_diff(a, b)) for a, b in zip(estimate.x[:, 2], truth.x[:, 2])])
        sel = moving & np.isfinite(trans_err)
        m.channels["x_trans"] = _stats(trans_err[sel] * 100.0)
        m.channels["x_rot"] = _stats(rot_err[sel])
    if estimate.e is not None and truth.e is not None:
        trans_err = np.linalg.norm(estimate.e[:, :2] - truth.e[:, :2], axis=1)
        rot_err = np.array([abs(angle_diff(a, b)) for a, b in zip(estimate.e[:, 2], truth.e[:, 2])])
        m.channels["e_trans"] = _stats(trans_err * 100.0)
        m.channels["e_rot"] = _stats(rot_err)
    if estimate.p is not None and truth.p is not None:
        m.channels["contact"] = _stats(np.linalg.norm(estimate.p - truth.p, axis=1) * 100.0)
    if estimate.f is not None and truth.f is not None:
        mag_est = np.linalg.norm(estimate.f, axis=1)
        mag_tru = np.linalg.norm(truth.f, axis=1)
        m.channels["force_mag"] = _stats(np.abs(mag_est - mag_tru))
        dir_err = np.full(len(mag_tru), np.nan)
        for t in range(len(mag_tru)):
            if mag_tru[t] > 1e-9 and mag_est[t] > 1e-9:
                dir_err[t] = math.degrees(
                    math.atan2(abs(cross2(estimate.f[t], truth.f[t])), float(estimate.f[t] @ truth.f[t]))
                )
        m.channels["force_dir"] = _stats(dir_err)
    return m


# ---------------------------------------------------------------------------
# results export
# ---------------------------------------------------------------------------

RESULT_COLUMNS = [
    "t",
    "x", "y", "theta",
    "e_x", "e_y", "e_theta",
    "p_x", "p_y",
    "f_x", "f_y",
    "x_2sigma_major", "x_2sigma_minor", "x_sigma_theta",
    "p_2sigma_major", "p_2sigma_minor",
    "f_2sigma_major", "f_2sigma_minor",
]


def _ellipse_axes(cov2: np.ndarray) -> tuple[float, float]:
    """2-sigma ellipse semi-axes: 2 sqrt(eigenvalues) of a 2x2 marginal."""
    w = np.linalg.eigvalsh(0.5 * (cov2 + cov2.T))
    w = np.clip(w, 0.0, None)
    return 2.0 * math.sqrt(float(w[1])), 2.0 * math.sqrt(float(w[0]))


def export_results(estimate: TrajectoryArrays, covariances: dict | None, path,
                   config_echo: dict | None = None) -> None:
    """Write per-timestep estimates and 2-sigma summaries as CSV.

    covariances may provide "x" (T,3,3), "p" (T,2,2), "f" (T,2,2) blocks;
    absent blocks are written as NaN. Comment lines starting with '#' carry
    the provenance echo.
    """
    T = len(estimate.timestamps)

    def cov_cols(t):
        out = []
        if covariances and covariances.get("x") is not None:
            major, minor = _ellipse_axes(covariances["x"][t][:2, :2])
            out += [major, minor, math.sqrt(max(0.0, covariances["x"][t][2, 2]))]
        else:
            out += [math.nan] * 3
        for key in ("p", "f"):
            if covariances and covariances.get(key) is not None:
                major, minor = _ellipse_axes(covariances[key][t])
                out += [major, minor]
            else:
                out += [math.nan] * 2
        return out

    try:
        with open(path, "w") as fh:
            if config_echo:
                fh.write("# config: " + json.dumps(config_echo, sort_keys=True) + "\n")
            fh.write(",".join(RESULT_COLUMNS) + "\n")
            for t in range(T):
                row = [estimate.timestamps[t]]
                row += list(estimate.x[t]) if estimate.x is not None else [math.nan] * 3
                row += list(estimate.e[t]) if estimate.e is not None else [math.nan] * 3
                row += list(estimate.p[t]) if estimate.p is not None else [math.nan] * 2
                row += list(estimate.f[t]) if estimate.f is not None else [math.nan] * 2
                row += cov_cols(t)
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
    except OSError as exc:
        raise IoError(str(exc)) from exc


def read_results_csv(path) -> dict[str, np.ndarray]:
    """Parse a results CSV back into named columns (skips comment lines)."""
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    except OSError as exc:
        raise IoError(str(exc)) from exc
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    if data.size and data.shape[1] != len(header):
        raise ParseError("column count mismatch in results CSV")
    return {name: data[:, i] if data.size else np.array([]) for i, name in enumerate(header)}
