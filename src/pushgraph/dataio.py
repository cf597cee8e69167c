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
with the quaternion ordered (w, x, y, z). The loader projects a spatial pose
into the file's plane as it reads it, so a loaded trajectory holds only
planar poses, and files are written planar. Missing measurements are null.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import IoError, LengthMismatch, NonMonotonicTimestamps, ParseError, SchemaVersionError
from .geometry import PlanarPose, Plane3, Pose3, Shape2D, angle_diff, cross2, project_to_plane
from .pushsim import GroundTruthTrajectory, PushParams

SCHEMA_VERSION = 1
CHANNELS = ("y", "z", "w", "alpha")  # object pose, ee pose, contact point, force
# the channel each noise sigma corrupts
_SIGMA_CHANNELS = {"sigma_x_trans": "y", "sigma_x_rot": "y", "sigma_e_trans": "z", "sigma_e_rot": "z",
                   "sigma_contact": "w", "sigma_force": "alpha"}


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
    y: PlanarPose | None = None
    z: PlanarPose | None = None
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
        for name in (*_SIGMA_CHANNELS, "contact_mode_offset", "contact_half_width",
                     "force_mode_offset", "force_half_width"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in _SIGMA_CHANNELS:
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.contact_half_width <= 0.0 or self.force_half_width <= 0.0:
            raise ValueError("triangular half-widths must be positive")
        if self.kind not in ("gaussian", "bimodal_triangular"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        self.channels = _check_channels(self.channels)

    def sigmas(self) -> dict[str, float]:
        """The standard deviation this spec adds to each measured quantity.

        Keys are the sigma field names; a quantity the spec leaves unchanged
        has 0. Bimodal corruption leaves the poses unchanged and gives the
        contact and the force its matched-variance sigma,
        sqrt(mode^2 + half^2 / 6).
        """
        if self.kind == "gaussian":
            added = {name: getattr(self, name) for name in _SIGMA_CHANNELS}
        else:
            added = dict.fromkeys(_SIGMA_CHANNELS, 0.0)
            added["sigma_contact"] = math.sqrt(self.contact_mode_offset**2 + self.contact_half_width**2 / 6.0)
            added["sigma_force"] = math.sqrt(self.force_mode_offset**2 + self.force_half_width**2 / 6.0)
        return {name: sigma if _SIGMA_CHANNELS[name] in self.channels else 0.0 for name, sigma in added.items()}


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
                x[i] = s.y.as_array()
            if s.z is not None:
                e[i] = s.z.as_array()
            if s.w is not None:
                p[i] = s.w
            if s.alpha is not None:
                f[i] = s.alpha[:2]
        return TrajectoryArrays(timestamps=self.timestamps, x=x, e=e, p=p, f=f)


@dataclass
class TrajectoryArrays:
    """Per-timestep states as dense arrays, the form metrics and export take.

    Ground truth, measurements and estimates all fill every field; a
    measurement that is missing at a step is a NaN row.
    """

    timestamps: np.ndarray
    x: np.ndarray  # (T, 3) object poses
    e: np.ndarray  # (T, 3) pusher poses
    p: np.ndarray  # (T, 2) contact points
    f: np.ndarray  # (T, 2) contact forces


def from_ground_truth(gt: GroundTruthTrajectory) -> MeasuredTrajectory:
    """Wrap simulator output as a trajectory in the xy plane with noiseless measurements."""
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
        plane=Plane3.xy(),
        object_shape=gt.object_shape,
        ee_shape=gt.ee_shape,
        params=gt.params,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _pose_to_json(pose: PlanarPose | None):
    return None if pose is None else {"x": pose.x, "y": pose.y, "theta": pose.theta}


def _pose_from_json(obj, plane: Plane3) -> PlanarPose | None:
    """A planar pose, or a spatial one projected into the plane."""
    if obj is None:
        return None
    if "theta" in obj:
        return PlanarPose(obj["x"], obj["y"], obj["theta"])
    return project_to_plane(Pose3(np.array(obj["t"]), np.array(obj["q"])), plane)


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


def _vector(value, sizes: tuple, where: str) -> np.ndarray:
    """value as a vector of one of the given lengths, or a ParseError naming where it is."""
    v = np.asarray(value, dtype=float)
    if v.ndim != 1 or len(v) not in sizes:
        raise ParseError(f"{where} must hold {' or '.join(map(str, sizes))} numbers, got {value!r}")
    return v


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
        "params": None if traj.params is None else asdict(traj.params),
        "noise": None
        if traj.noise is None
        else {**asdict(traj.noise), "channels": list(traj.noise.channels)},
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
            vectors = {ch: None if s.get(ch) is None else _vector(s[ch], sizes, f"step {i}: channel {ch!r}")
                       for ch, sizes in (("w", (2,)), ("alpha", (2, 3)))}
            truth = None
            if s.get("truth") is not None:
                tr = s["truth"]
                truth = StepTruth(
                    x=_pose_from_json(tr["x"], plane),
                    e=_pose_from_json(tr["e"], plane),
                    p=_vector(tr["p"], (2,), f"step {i}: truth 'p'"),
                    f=_vector(tr["f"], (2,), f"step {i}: truth 'f'"),
                )
            steps.append(
                TrajectoryStep(
                    t=float(s["t"]),
                    y=_pose_from_json(s.get("y"), plane),
                    z=_pose_from_json(s.get("z"), plane),
                    **vectors,
                    truth=truth,
                )
            )
        if not steps:
            raise ParseError("trajectory has no steps")
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


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc)) from exc


def load_trajectory(path) -> MeasuredTrajectory:
    return trajectory_from_dict(_read_json(path))


def import_mit_log(data) -> MeasuredTrajectory:
    """Adapter for MIT-pushing-style logs.

    Expects a dict (or path to a JSON file) with columns
    ``object_pose`` [[t, x, y, theta], ...], ``tip_pose`` [[t, x, y, z], ...],
    and optionally ``ft_wrench`` [[t, fx, fy, mz], ...]. Tip poses carry no
    orientation; they are projected into the xy plane with yaw 0. Streams are
    linearly interpolated onto the object-pose timestamps. Shape and friction
    metadata are not part of these logs and must be attached by the caller.
    As in load_trajectory, a path that cannot be read raises IoError, and a
    file that is not JSON, or a log without these (N, 4) columns, ParseError.
    """
    if not isinstance(data, dict):
        data = _read_json(data)
    plane = Plane3.xy()
    try:
        obj = np.asarray(data["object_pose"], dtype=float)
        tip = np.asarray(data["tip_pose"], dtype=float)
        wrench = np.asarray(data["ft_wrench"], dtype=float) if "ft_wrench" in data else None
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("MIT-style log needs numeric object_pose, tip_pose and (if any) ft_wrench columns") from exc
    for name, column in (("object_pose", obj), ("tip_pose", tip), ("ft_wrench", wrench)):
        if column is not None and (column.ndim != 2 or column.shape[1] != 4):
            raise ParseError(f"{name} must be an (N, 4) array, got shape {column.shape}")

    ts = obj[:, 0]
    if np.any(np.diff(ts) <= 0):
        raise NonMonotonicTimestamps("object_pose timestamps must increase")

    def interp_cols(src, cols):
        return np.column_stack([np.interp(ts, src[:, 0], src[:, c]) for c in cols])

    tip_xyz = interp_cols(tip, (1, 2, 3))
    force_xy = interp_cols(wrench, (1, 2)) if wrench is not None else None
    steps = []
    for i, t in enumerate(ts):
        tip_pose = Pose3(tip_xyz[i], np.array([1.0, 0.0, 0.0, 0.0]))
        steps.append(
            TrajectoryStep(
                t=float(t),
                y=PlanarPose(obj[i, 1], obj[i, 2], obj[i, 3]),
                z=project_to_plane(tip_pose, plane),
                w=None,
                alpha=None if force_xy is None else force_xy[i],
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

    Missing entries stay missing. Deterministic for a given
    (trajectory, spec.seed).
    """
    rng = np.random.default_rng(spec.seed)
    steps = []
    for s in traj.steps:
        y, z, w, alpha = s.y, s.z, s.w, s.alpha
        if y is not None and "y" in spec.channels and spec.kind == "gaussian":
            y = _perturb_pose(y, rng.normal(0.0, spec.sigma_x_trans, 2), rng.normal(0.0, spec.sigma_x_rot))
        if z is not None and "z" in spec.channels and spec.kind == "gaussian":
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


MOTION_THRESHOLD = 1e-4  # m/s; slower object steps are left out of the object-pose channels


def motion_mask(truth: TrajectoryArrays) -> np.ndarray:
    """Steps where the object translates faster than MOTION_THRESHOLD."""
    ts = truth.timestamps
    x = truth.x
    mask = np.zeros(len(ts), dtype=bool)
    for t in range(1, len(ts)):
        v = np.linalg.norm(x[t, :2] - x[t - 1, :2]) / (ts[t] - ts[t - 1])
        mask[t] = v > MOTION_THRESHOLD
    if len(ts) > 1:
        mask[0] = mask[1]
    return mask


def compute_metrics(estimate: TrajectoryArrays, truth: TrajectoryArrays) -> Metrics:
    """Error statistics of every channel; NaN rows of the estimate are left out.

    The object-pose channels count only the steps where the true object
    moves faster than MOTION_THRESHOLD (1e-4 m/s).
    """
    if len(estimate.timestamps) != len(truth.timestamps) or not np.allclose(
        estimate.timestamps, truth.timestamps
    ):
        raise LengthMismatch("estimate and ground truth timestamps differ")
    m = Metrics()
    trans_err = np.linalg.norm(estimate.x[:, :2] - truth.x[:, :2], axis=1)
    rot_err = np.array([abs(angle_diff(a, b)) for a, b in zip(estimate.x[:, 2], truth.x[:, 2])])
    sel = motion_mask(truth) & np.isfinite(trans_err)
    m.channels["x_trans"] = _stats(trans_err[sel] * 100.0)
    m.channels["x_rot"] = _stats(rot_err[sel])
    trans_err = np.linalg.norm(estimate.e[:, :2] - truth.e[:, :2], axis=1)
    rot_err = np.array([abs(angle_diff(a, b)) for a, b in zip(estimate.e[:, 2], truth.e[:, 2])])
    m.channels["e_trans"] = _stats(trans_err * 100.0)
    m.channels["e_rot"] = _stats(rot_err)
    m.channels["contact"] = _stats(np.linalg.norm(estimate.p - truth.p, axis=1) * 100.0)
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

    covariances is None, written as NaN columns, or holds all three blocks:
    "x" (T,3,3), "p" (T,2,2) and "f" (T,2,2). Comment lines starting with
    '#' carry the provenance echo.
    """
    T = len(estimate.timestamps)

    def cov_cols(t):
        if covariances is None:
            return [math.nan] * 7
        x = covariances["x"][t]
        return [*_ellipse_axes(x[:2, :2]), math.sqrt(max(0.0, x[2, 2])),
                *_ellipse_axes(covariances["p"][t]), *_ellipse_axes(covariances["f"][t])]

    try:
        with open(path, "w") as fh:
            if config_echo:
                fh.write("# config: " + json.dumps(config_echo, sort_keys=True) + "\n")
            fh.write(",".join(RESULT_COLUMNS) + "\n")
            for t in range(T):
                row = [estimate.timestamps[t], *estimate.x[t], *estimate.e[t], *estimate.p[t],
                       *estimate.f[t], *cov_cols(t)]
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
