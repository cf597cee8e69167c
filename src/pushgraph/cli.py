"""Command-line front end: simulate, corrupt, estimate, benchmark, inspect.

Reproducibility rules: every command is deterministic given its effective
config and seed, and the effective config is echoed into every output file.
Config precedence is CLI flags > --config file (JSON) > built-in defaults.
Each command's flags, with their defaults, help and converters, come from one
table (SIM_FLAGS, CORRUPT_FLAGS, EST_FLAGS, BENCH_FLAGS). Every value goes
through its flag's converter once, whether it came from the command line, the
config file or the default; a value that does not convert is an error naming
the flag (exit 2).
Per-trial benchmark seeds derive from the master seed as
SeedSequence(master_seed, spawn_key=(trial,)), independent of worker count.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import dataio, graphcore, pushsim
from .errors import PushGraphError
from .geometry import PlanarPose, Shape2D
from .graphcore import (
    GaussNewtonOptions,
    GraphConfig,
    SolveReport,
    marginal_covariances,
    obj_key,
    pf_key,
    solve_batch,
    solve_incremental,
    values_to_arrays,
)


def build_shape(spec: str) -> Shape2D:
    """Parse a shape spec: box:WxH, disc:R, ellipse:AxB (meters)."""
    kind, _, dims = spec.partition(":")
    try:
        if kind == "disc":
            return Shape2D.disc(float(dims))
        if kind == "box":
            w, h = (float(v) for v in dims.split("x"))
            return Shape2D.box(w, h)
        if kind == "ellipse":
            a, b = (float(v) for v in dims.split("x"))
            return Shape2D.ellipse(a, b)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad shape spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown shape kind {kind!r} (box|disc|ellipse)")


def parse_window(spec: str) -> tuple[float, float]:
    """An occlusion window LO:HI of trajectory fractions, 0 <= LO <= HI <= 1."""
    try:
        lo, hi = (float(v) for v in spec.split(":"))
    except ValueError:
        raise ValueError(f"must be LO:HI, got {spec!r}") from None
    if not 0.0 <= lo <= hi <= 1.0:
        raise ValueError(f"must satisfy 0 <= LO <= HI <= 1, got {spec!r}")
    return lo, hi


def trial_seed(master_seed: int, trial: int) -> int:
    """Documented per-trial seed split, stable under any parallelism degree."""
    return int(np.random.SeedSequence(master_seed, spawn_key=(trial,)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def run_simulate(cfg: dict) -> dataio.MeasuredTrajectory:
    obj_shape = build_shape(cfg["shape"])
    ee_shape = build_shape(cfg["ee_shape"])
    params = pushsim.limit_surface_constants(obj_shape, cfg["mu"], cfg["mass"], cfg["gravity"])
    dt, dur, speed = cfg["dt"], cfg["dur"], cfg["speed"]
    T = max(1, round(dur / dt))
    if cfg["path"] == "straight":
        _, e0 = pushsim.make_push_scene(obj_shape, ee_shape, cfg["direction"], cfg["offset"])
        path = pushsim.straight_path(e0, speed, dur, dt)
        gt = pushsim.simulate_push(path, PlanarPose.identity(), obj_shape, ee_shape, params, dt)
    elif cfg["path"] == "arc":
        _, e0 = pushsim.make_push_scene(obj_shape, ee_shape, cfg["direction"], cfg["offset"])
        path = pushsim.arc_path(e0, speed, cfg["curvature"], dur, dt)
        gt = pushsim.simulate_push(path, PlanarPose.identity(), obj_shape, ee_shape, params, dt)
    elif cfg["path"] == "random":
        steer = pushsim.steering_profile(T, dt, seed=cfg["seed"], amplitude=cfg["steer_amplitude"])
        gt = pushsim.servo_push(PlanarPose.identity(), obj_shape, ee_shape, params, speed, dur, dt,
                                steer, lateral_offset=cfg["offset"], direction=cfg["direction"])
    else:
        raise ValueError(f"unknown path family {cfg['path']!r}")
    traj = dataio.from_ground_truth(gt)
    traj.config = dict(cfg)
    return traj


# ---------------------------------------------------------------------------
# corrupt
# ---------------------------------------------------------------------------


def make_noise_spec(cfg: dict) -> dataio.NoiseSpec:
    kind = "bimodal_triangular" if cfg["kind"] == "bimodal" else cfg["kind"]
    channels = tuple(cfg["channels"].split(","))
    if kind == "bimodal_triangular":
        # bimodal corruption is for contact and force; pose channels drop out
        channels = tuple(c for c in channels if c not in ("y", "z")) or ("w", "alpha")
    return dataio.NoiseSpec(
        kind=kind,
        sigma_x_trans=cfg["sigma_x_trans"],
        sigma_x_rot=cfg["sigma_x_rot"],
        sigma_e_trans=cfg["sigma_e_trans"],
        sigma_e_rot=cfg["sigma_e_rot"],
        sigma_contact=cfg["sigma_contact"],
        sigma_force=cfg["sigma_force"],
        contact_mode_offset=cfg["mode_offset_contact"],
        contact_half_width=cfg["half_width_contact"],
        force_mode_offset=cfg["mode_offset_force"],
        force_half_width=cfg["half_width_force"],
        channels=channels,
        seed=cfg["seed"],
    )


def run_corrupt(cfg: dict, traj: dataio.MeasuredTrajectory) -> dataio.MeasuredTrajectory:
    out = dataio.inject_noise(traj, make_noise_spec(cfg))
    if cfg["occlude"] is not None:
        out = dataio.apply_occlusion(out, parse_window(cfg["occlude"]),
                                     channels=tuple(cfg["occlude_channels"].split(",")))
    out.config = dict(cfg)
    return out


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def combined_report(reports: list[SolveReport]) -> SolveReport:
    """One report over every window of a fixed-lag run.

    Iterations add up; the costs, and their per-kind chi^2, are the first
    window's initial and the last window's final ones. The run converged
    only if every window did, and the reason is the first unconverged
    window's, else the last one's. Its final_step_sigma is the largest
    finite one over the windows: the farthest a window stopped from its
    minimum.
    """
    unconverged = [r for r in reports if not r.converged]
    step_sigmas = [r.final_step_sigma for r in reports if math.isfinite(r.final_step_sigma)]
    return SolveReport(
        iterations=sum(r.iterations for r in reports),
        initial_cost=reports[0].initial_cost,
        final_cost=reports[-1].final_cost,
        reason=(unconverged[0] if unconverged else reports[-1]).reason,
        chi2_initial=reports[0].chi2_initial,
        chi2_final=reports[-1].chi2_final,
        final_step_sigma=max(step_sigmas, default=math.nan),
    )


def run_estimate(cfg: dict, traj: dataio.MeasuredTrajectory):
    """Solve one trajectory; returns (arrays, covariances, report, metrics)."""
    if cfg["mode"] not in ("batch", "incremental"):
        raise ValueError(f"unknown mode {cfg['mode']!r} (batch|incremental)")
    model = cfg["model"]
    opts = GaussNewtonOptions(max_iter=cfg["max_iter"])
    gconf = GraphConfig.from_trajectory(traj)
    T = len(traj)
    if cfg["mode"] == "batch":
        values, report, graph = solve_batch(model, traj, gconf, opts)
    else:
        values, smoother = solve_incremental(model, traj, gconf, lag=cfg["lag"],
                                             batch_every=cfg["batch_every"], opts=opts)
        report = combined_report(smoother.reports)
        graph = None
    arrays = values_to_arrays(values, T, traj.timestamps)
    covs = None
    if cfg["covariances"] and graph is not None:
        keys = [obj_key(t) for t in range(T)] + [pf_key(t) for t in range(T)]
        blocks = marginal_covariances(graph, values, keys)
        covs = {
            "x": np.array([blocks[obj_key(t)] for t in range(T)]),
            "p": np.array([blocks[pf_key(t)][:2, :2] for t in range(T)]),
            "f": np.array([blocks[pf_key(t)][2:, 2:] for t in range(T)]),
        }
    metrics = None
    if all(s.truth is not None for s in traj.steps):
        truth = traj.truth_arrays()
        metrics = dataio.compute_metrics(arrays, truth)
        if covs is not None:
            metrics.covariance_traces = {
                "x": float(np.mean([np.trace(c) for c in covs["x"]])),
                "p": float(np.mean([np.trace(c) for c in covs["p"]])),
                "f": float(np.mean([np.trace(c) for c in covs["f"]])),
            }
    return arrays, covs, report, metrics


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

BENCH_CHANNELS = ("x_trans", "x_rot", "contact", "force_mag", "force_dir")


def run_benchmark_trial(cfg: dict, trial: int) -> list[dict]:
    """One benchmark trial: simulate, corrupt, estimate every model."""
    seed = trial_seed(cfg["seed"], trial)
    gt = pushsim.benchmark_scenario(seed, duration=cfg["dur"], dt=cfg["dt"])
    traj = dataio.from_ground_truth(gt)
    corrupt_cfg = dict(cfg)
    corrupt_cfg["seed"] = seed
    noisy = run_corrupt(corrupt_cfg, traj)
    truth = traj.truth_arrays()
    raw = dataio.compute_metrics(noisy.measured_arrays(), truth)
    rows = []
    for model in cfg["models"].split(","):
        est_cfg = dict(cfg)
        est_cfg["model"] = model
        est_cfg["covariances"] = cfg["covariances"]
        try:
            arrays, covs, report, metrics = run_estimate(est_cfg, noisy)
            row = {
                "trial": trial,
                "model": model,
                "seed": seed,
                "steps": len(traj),
                "converged": int(report.converged),
                "iterations": report.iterations,
                "step_sigma": report.final_step_sigma,
                "failed": 0,
            }
            for ch in BENCH_CHANNELS:
                has = metrics is not None and ch in metrics.channels
                row[f"est_rmse_{ch}"] = metrics.channels[ch].rmse if has else math.nan
                row[f"est_mae_{ch}"] = metrics.channels[ch].mae if has else math.nan
                row[f"raw_rmse_{ch}"] = raw.channels[ch].rmse if ch in raw.channels else math.nan
                row[f"raw_mae_{ch}"] = raw.channels[ch].mae if ch in raw.channels else math.nan
            if metrics is not None and metrics.covariance_traces:
                row["post_trace_x"] = metrics.covariance_traces["x"]
                row["post_trace_p"] = metrics.covariance_traces["p"]
            # each factor kind's share of the final cost (the last window's, incrementally)
            for kind, chi2 in report.chi2_final.items():
                row[f"chi2_{kind}"] = chi2
        except PushGraphError as exc:
            row = {"trial": trial, "model": model, "seed": seed, "steps": len(traj),
                   "converged": 0, "iterations": 0, "failed": 1, "error": str(exc)}
        rows.append(row)
    return rows


def run_benchmark(cfg: dict) -> tuple[list[dict], list[dict]]:
    """All trials plus aggregate mean/std rows per model, each over a column's
    finite values, and NaN where there are none (a channel never measured)."""
    trials = range(cfg["trials"])
    if cfg["jobs"] > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg["jobs"]) as pool:
            results = list(pool.map(_trial_star, [(cfg, t) for t in trials]))
    else:
        results = [run_benchmark_trial(cfg, t) for t in trials]
    rows = [row for batch in results for row in batch]
    rows.sort(key=lambda r: (r["trial"], r["model"]))

    aggregates = []
    numeric = [k for k in _columns(rows) if k not in ("trial", "model", "seed", "error")]
    for model in cfg["models"].split(","):
        sub = [r for r in rows if r["model"] == model and not r.get("failed")]
        for stat, fn in (("mean", np.mean), ("std", np.std)):
            agg = {"trial": -1 if stat == "mean" else -2, "model": model, "seed": -1}
            for k in numeric:
                vals = np.asarray([r.get(k, math.nan) for r in sub], dtype=float)
                vals = vals[np.isfinite(vals)]
                agg[k] = float(fn(vals)) if len(vals) else math.nan
            aggregates.append(agg)
    return rows, aggregates


def _trial_star(args):
    return run_benchmark_trial(*args)


def _columns(rows) -> list[str]:
    """Union of the rows' keys in first-seen order; a failed row has fewer keys."""
    return list(dict.fromkeys(k for row in rows for k in row))


def write_benchmark_csv(rows, aggregates, path, cfg):
    import io

    columns = [c for c in _columns(rows) if c != "error"]
    buf = io.StringIO()
    buf.write("# config: " + json.dumps(cfg, sort_keys=True) + "\n")
    buf.write("# aggregate rows: trial=-1 mean, trial=-2 std\n")
    buf.write(",".join(columns) + "\n")
    for row in rows + aggregates:
        buf.write(",".join(_fmt(row.get(c, math.nan)) for c in columns) + "\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def _fmt(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def _checked(kind: Callable, test: Callable, need: str) -> Callable:
    """A converter: kind(value), refused unless test holds for it."""
    def convert(value):
        number = kind(value)
        if not test(number):
            raise ValueError(f"must be {need}, got {number}")
        return number
    return convert


_finite = _checked(float, math.isfinite, "finite")
_positive = _checked(float, lambda x: math.isfinite(x) and x > 0.0, "finite and positive")
_count = _checked(_integer, lambda n: n >= 1, "at least 1")
_seed = _checked(_integer, lambda n: n >= 0, "non-negative")


def _window(value):
    """An --occlude value: None, or a LO:HI text that parse_window accepts, kept as text."""
    if value is None:
        return None
    parse_window(str(value))
    return str(value)


class Flag(NamedTuple):
    """A setting's default, help text, and the converter every value of it goes through."""

    default: object
    help: str
    convert: Callable = str


SIM_FLAGS = {
    "shape": Flag("box:0.1x0.1", "object shape, box:WxH | disc:R | ellipse:AxB (m)"),
    "ee_shape": Flag("disc:0.008", "pusher shape (m)"),
    "mu": Flag(0.3, "support friction coefficient (unitless)", _positive),
    "mass": Flag(1.0, "object mass (kg)", _positive),
    "gravity": Flag(9.81, "gravity (m/s^2)", _positive),
    "path": Flag("straight", "pusher path family: straight | arc | random"),
    "curvature": Flag(1.0, "arc curvature (1/m)", _finite),
    "steer_amplitude": Flag(0.3, "random-path steering bound (rad)", _finite),
    "offset": Flag(0.0, "lateral contact offset (m)", _finite),
    "direction": Flag(0.0, "push heading (rad)", _finite),
    "speed": Flag(0.06, "pusher speed (m/s)", _finite),
    "dur": Flag(10.0, "duration (s)", _positive),
    "dt": Flag(0.04, "timestep (s)", _positive),
    "seed": Flag(0, "random-path seed", _seed),
}

CORRUPT_FLAGS = {
    "kind": Flag("gaussian", "noise family: gaussian | bimodal"),
    "sigma_x_trans": Flag(0.005, "object pose translation sigma (m)", _finite),
    "sigma_x_rot": Flag(0.5, "object pose rotation sigma (rad)", _finite),
    "sigma_e_trans": Flag(0.005, "ee pose translation sigma (m)", _finite),
    "sigma_e_rot": Flag(0.5, "ee pose rotation sigma (rad)", _finite),
    "sigma_contact": Flag(0.005, "contact point sigma (m)", _finite),
    "sigma_force": Flag(0.5, "force sigma (N)", _finite),
    "mode_offset_contact": Flag(0.003, "bimodal contact mode (m)", _finite),
    "half_width_contact": Flag(0.002, "bimodal contact half-width (m)", _finite),
    "mode_offset_force": Flag(0.3, "bimodal force mode (N)", _finite),
    "half_width_force": Flag(0.2, "bimodal force half-width (N)", _finite),
    "channels": Flag("y,z,w,alpha", "channels to corrupt (subset of y,z,w,alpha)"),
    "occlude": Flag(None, "occlusion window LO:HI (trajectory fraction)", _window),
    "occlude_channels": Flag("y", "channels dropped in the window"),
    "seed": Flag(0, "corruption seed", _seed),
}

EST_FLAGS = {
    "model": Flag("QS", "graph model: CP | SDF | QS"),
    "mode": Flag("batch", "batch | incremental"),
    "lag": Flag(20, "fixed-lag window (timesteps)", _integer),
    "batch_every": Flag(5, "re-optimize after this many timesteps", _integer),
    "max_iter": Flag(100, "optimizer iteration cap", _count),
    "covariances": Flag(True, "report posterior marginal covariances "
                        "(batch mode only; incremental writes NaN columns)", _boolean),
}

# a benchmark trial corrupts and estimates with these settings; --models
# stands in for --model, and --seed is the master seed
BENCH_FLAGS = {
    "models": Flag("CP,SDF,QS", "comma-separated models to run"),
    "trials": Flag(10, "number of simulated trials", _count),
    "dur": Flag(4.0, "trial duration (s)", _positive),
    "dt": Flag(0.1, "trial timestep (s)", _positive),
    "jobs": Flag(1, "parallel workers", _count),
    **CORRUPT_FLAGS,
    **{name: flag for name, flag in EST_FLAGS.items() if name != "model"},
    "covariances": EST_FLAGS["covariances"]._replace(default=False),
    "seed": Flag(0, "master seed for the trial-seed split", _seed),
}


CORRUPT_DEFAULTS = {name: flag.default for name, flag in CORRUPT_FLAGS.items()}
BENCH_DEFAULTS = {name: flag.default for name, flag in BENCH_FLAGS.items()}

# command: (help, flags, --in help or None, --out help or None, --out required)
COMMANDS = {
    "simulate": ("generate a ground-truth pushing trajectory", SIM_FLAGS,
                 None, "output trajectory JSON path", True),
    "corrupt": ("inject measurement noise / occlusion", CORRUPT_FLAGS,
                "input trajectory JSON", "output trajectory JSON path", True),
    "estimate": ("MAP-optimize a trajectory file", EST_FLAGS,
                 "input trajectory JSON", "results CSV path", False),
    "benchmark": ("multi-trial model comparison", BENCH_FLAGS,
                  None, "benchmark table CSV path", False),
    "inspect": ("summarize a trajectory file", {}, "trajectory JSON", None, False),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def make_parser() -> argparse.ArgumentParser:
    """The command line; it parses flag values as text and effective_config converts them."""
    parser = argparse.ArgumentParser(
        prog="pushgraph",
        description="Planar-push trajectory estimation: simulate, corrupt, estimate, benchmark.",
    )
    parser.add_argument("--config", default=None, help="JSON file with defaults for any flag (CLI flags win)")
    parser.add_argument("--quiet", action="store_true", help="suppress console output")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags, in_help, out_help, out_required) in COMMANDS.items():
        cmd = sub.add_parser(command, help=help_text)
        if in_help:
            cmd.add_argument("--in", dest="infile", required=True, help=in_help)
        for name, flag in flags.items():
            action = argparse.BooleanOptionalAction if flag.convert is _boolean else "store"
            cmd.add_argument(_flag(name), dest=name, action=action, default=None, help=flag.help)
        if out_help:
            cmd.add_argument("--out", required=out_required, default=None, help=out_help)
    return parser


def effective_config(args: argparse.Namespace, flags: dict[str, Flag]) -> dict:
    """Each flag's value from the command line, else the config file, else its default,
    through the flag's converter; a value that does not convert raises ValueError naming
    the flag. Config-file keys that are not flags of this command are ignored."""
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("--config must hold a JSON object")
    cfg = {}
    for name, flag in flags.items():
        value = getattr(args, name)
        if value is None:
            value = file_cfg.get(name, flag.default)
        try:
            cfg[name] = flag.convert(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{_flag(name)}: {exc}") from None
    return cfg


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    quiet = args.quiet

    def say(msg):
        if not quiet:
            print(msg)

    try:
        cfg = effective_config(args, COMMANDS[args.command][1])
        if args.command == "simulate":
            traj = run_simulate(cfg)
            dataio.save_trajectory(traj, args.out)
            say(f"wrote {len(traj)} steps to {args.out}")
            return 0

        if args.command == "corrupt":
            traj = dataio.load_trajectory(args.infile)
            out = run_corrupt(cfg, traj)
            dataio.save_trajectory(out, args.out)
            say(f"wrote corrupted trajectory to {args.out}")
            return 0

        if args.command == "estimate":
            traj = dataio.load_trajectory(args.infile)
            arrays, covs, report, metrics = run_estimate(cfg, traj)
            say(f"model={cfg['model']} mode={cfg['mode']} iterations={report.iterations} "
                f"cost {report.initial_cost:.4e} -> {report.final_cost:.4e} "
                f"converged={report.converged} ({report.reason}) step_sigma={report.final_step_sigma:.3g}")
            for kind in dict.fromkeys([*report.chi2_initial, *report.chi2_final]):
                say(f"  chi2 {kind}: {report.chi2_initial.get(kind, 0.0):.4e} -> "
                    f"{report.chi2_final.get(kind, 0.0):.4e}")
            if metrics is not None:
                for ch, st in sorted(metrics.channels.items()):
                    say(f"  {ch}: rmse={st.rmse:.4g} mae={st.mae:.4g} std={st.std:.4g} n={st.count}")
                if metrics.covariance_traces:
                    for k, v in sorted(metrics.covariance_traces.items()):
                        say(f"  posterior trace {k}: {v:.4e}")
            if args.out:
                dataio.export_results(arrays, covs, args.out, config_echo=cfg)
                say(f"wrote results to {args.out}")
            return 0 if report.converged else 1

        if args.command == "benchmark":
            rows, aggregates = run_benchmark(cfg)
            for agg in aggregates:
                if agg["trial"] == -1:
                    say(f"{agg['model']}: x_trans rmse {agg.get('est_rmse_x_trans', math.nan):.4g} cm "
                        f"(raw {agg.get('raw_rmse_x_trans', math.nan):.4g}), "
                        f"contact rmse {agg.get('est_rmse_contact', math.nan):.4g} cm "
                        f"(raw {agg.get('raw_rmse_contact', math.nan):.4g})")
            if args.out:
                write_benchmark_csv(rows, aggregates, args.out, cfg)
                say(f"wrote benchmark table to {args.out}")
            ok = all(r["converged"] and not r.get("failed") for r in rows)
            return 0 if ok else 1

        if args.command == "inspect":
            traj = dataio.load_trajectory(args.infile)
            present = {ch: 0 for ch in ("y", "z", "w", "alpha", "truth")}
            for s in traj.steps:
                for ch in present:
                    if getattr(s, ch) is not None:
                        present[ch] += 1
            say(f"steps: {len(traj)}  span: {traj.timestamps[0]:.3f}..{traj.timestamps[-1]:.3f} s")
            for ch, n in present.items():
                say(f"  {ch}: {n}/{len(traj)} present")
            if traj.object_shape is not None:
                say(f"  object shape: {traj.object_shape.kind}")
            if traj.params is not None:
                say(f"  params: f_max={traj.params.f_max:.4g} N, tau_max={traj.params.tau_max:.4g} N*m, "
                    f"c={traj.params.c:.4g} m")
            if traj.noise is not None:
                say(f"  corruption: {traj.noise.kind} seed={traj.noise.seed}")
            return 0

    except (PushGraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1


if __name__ == "__main__":
    sys.exit(main())
