"""Command-line front end: simulate, corrupt, estimate, benchmark, inspect.

Reproducibility rules: every command is deterministic given its effective
config and seed, and the effective config is echoed into every output file.
Config precedence is CLI flags > --config file (JSON) > built-in defaults.
Per-trial benchmark seeds derive from the master seed as
SeedSequence(master_seed, spawn_key=(trial,)), independent of worker count.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import sys

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
    lo, _, hi = spec.partition(":")
    return float(lo), float(hi)


def trial_seed(master_seed: int, trial: int) -> int:
    """Documented per-trial seed split, stable under any parallelism degree."""
    return int(np.random.SeedSequence(master_seed, spawn_key=(trial,)).generate_state(1)[0])


def _echo(cfg: dict) -> dict:
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in sorted(cfg.items())}


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


_SIM_POSITIVE = ("dt", "dur")
_SIM_FINITE = ("mu", "mass", "gravity", "speed", "offset", "direction", "curvature", "steer_amplitude")


def _check_simulate_numbers(cfg: dict):
    """Raise ValueError naming the flag of a non-finite number, or of a dt or dur that is not positive."""
    for name in _SIM_POSITIVE + _SIM_FINITE:
        value = float(cfg[name])
        flag = "--" + name.replace("_", "-")
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
        if name in _SIM_POSITIVE and value <= 0.0:
            raise ValueError(f"{flag} must be positive, got {value}")


def run_simulate(cfg: dict) -> dataio.MeasuredTrajectory:
    _check_simulate_numbers(cfg)
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
    traj.config = _echo(cfg)
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
    out.config = _echo(cfg)
    return out


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def combined_report(reports: list[SolveReport]) -> SolveReport:
    """One report over every window of a fixed-lag run.

    Iterations add up; the costs, and their per-kind chi^2, are the first
    window's initial and the last window's final ones. The run converged
    only if every window did, and the reason is the first unconverged
    window's, else the last one's.
    """
    unconverged = [r for r in reports if not r.converged]
    return SolveReport(
        iterations=sum(r.iterations for r in reports),
        initial_cost=reports[0].initial_cost,
        final_cost=reports[-1].final_cost,
        reason=(unconverged[0] if unconverged else reports[-1]).reason,
        chi2_initial=reports[0].chi2_initial,
        chi2_final=reports[-1].chi2_final,
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
        except PushGraphError as exc:
            row = {"trial": trial, "model": model, "seed": seed, "steps": len(traj),
                   "converged": 0, "iterations": 0, "failed": 1, "error": str(exc)}
        rows.append(row)
    return rows


def run_benchmark(cfg: dict) -> tuple[list[dict], list[dict]]:
    """All trials plus aggregate mean/std rows per model."""
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
        for stat, fn in (("mean", np.nanmean), ("std", np.nanstd)):
            agg = {"trial": -1 if stat == "mean" else -2, "model": model, "seed": -1}
            for k in numeric:
                vals = [r.get(k, math.nan) for r in sub]
                agg[k] = float(fn(np.asarray(vals, dtype=float))) if sub else math.nan
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
    buf.write("# config: " + json.dumps(_echo(cfg), sort_keys=True) + "\n")
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

SIM_DEFAULTS = {
    "shape": "box:0.1x0.1", "ee_shape": "disc:0.008", "mu": 0.3, "mass": 1.0, "gravity": 9.81,
    "path": "straight", "curvature": 1.0, "steer_amplitude": 0.3, "offset": 0.0,
    "direction": 0.0, "speed": 0.06, "dur": 10.0, "dt": 0.04, "seed": 0,
}

CORRUPT_DEFAULTS = {
    "kind": "gaussian", "sigma_x_trans": 0.005, "sigma_x_rot": 0.5,
    "sigma_e_trans": 0.005, "sigma_e_rot": 0.5, "sigma_contact": 0.005, "sigma_force": 0.5,
    "mode_offset_contact": 0.003, "half_width_contact": 0.002,
    "mode_offset_force": 0.3, "half_width_force": 0.2,
    "channels": "y,z,w,alpha", "occlude": None, "occlude_channels": "y", "seed": 0,
}

EST_DEFAULTS = {
    "model": "QS", "mode": "batch", "lag": 20, "batch_every": 5,
    "max_iter": 100, "covariances": True, "seed": 0,
}

BENCH_DEFAULTS = {
    **CORRUPT_DEFAULTS, **EST_DEFAULTS,
    "models": "CP,SDF,QS", "trials": 10, "dur": 4.0, "dt": 0.1, "jobs": 1, "covariances": False,
}


def _add(parser, name, default, help_text, kind=None):
    flag = "--" + name.replace("_", "-")
    if isinstance(default, bool):
        group = parser.add_mutually_exclusive_group()
        group.add_argument(flag, dest=name, action="store_true", default=None, help=help_text)
        group.add_argument("--no-" + name.replace("_", "-"), dest=name, action="store_false",
                           default=None, help=f"disable {name}")
        return
    kind = kind or (type(default) if default is not None else str)
    parser.add_argument(flag, dest=name, type=kind, default=None, help=help_text)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pushgraph",
        description="Planar-push trajectory estimation: simulate, corrupt, estimate, benchmark.",
    )
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file with defaults for any flag (CLI flags win)")
    parser.add_argument("--quiet", action="store_true", help="suppress console output")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a ground-truth pushing trajectory")
    _add(sim, "shape", SIM_DEFAULTS["shape"], "object shape, box:WxH | disc:R | ellipse:AxB (m)")
    _add(sim, "ee_shape", SIM_DEFAULTS["ee_shape"], "pusher shape (m)")
    _add(sim, "mu", SIM_DEFAULTS["mu"], "support friction coefficient (unitless)")
    _add(sim, "mass", SIM_DEFAULTS["mass"], "object mass (kg)")
    _add(sim, "gravity", SIM_DEFAULTS["gravity"], "gravity (m/s^2)")
    _add(sim, "path", SIM_DEFAULTS["path"], "pusher path family: straight | arc | random")
    _add(sim, "curvature", SIM_DEFAULTS["curvature"], "arc curvature (1/m)")
    _add(sim, "steer_amplitude", SIM_DEFAULTS["steer_amplitude"], "random-path steering bound (rad)")
    _add(sim, "offset", SIM_DEFAULTS["offset"], "lateral contact offset (m)")
    _add(sim, "direction", SIM_DEFAULTS["direction"], "push heading (rad)")
    _add(sim, "speed", SIM_DEFAULTS["speed"], "pusher speed (m/s)")
    _add(sim, "dur", SIM_DEFAULTS["dur"], "duration (s)")
    _add(sim, "dt", SIM_DEFAULTS["dt"], "timestep (s)")
    _add(sim, "seed", SIM_DEFAULTS["seed"], "random-path seed")
    sim.add_argument("--out", type=str, required=True, help="output trajectory JSON path")

    cor = sub.add_parser("corrupt", help="inject measurement noise / occlusion")
    cor.add_argument("--in", dest="infile", type=str, required=True, help="input trajectory JSON")
    _add(cor, "kind", CORRUPT_DEFAULTS["kind"], "noise family: gaussian | bimodal")
    _add(cor, "sigma_x_trans", CORRUPT_DEFAULTS["sigma_x_trans"], "object pose translation sigma (m)")
    _add(cor, "sigma_x_rot", CORRUPT_DEFAULTS["sigma_x_rot"], "object pose rotation sigma (rad)")
    _add(cor, "sigma_e_trans", CORRUPT_DEFAULTS["sigma_e_trans"], "ee pose translation sigma (m)")
    _add(cor, "sigma_e_rot", CORRUPT_DEFAULTS["sigma_e_rot"], "ee pose rotation sigma (rad)")
    _add(cor, "sigma_contact", CORRUPT_DEFAULTS["sigma_contact"], "contact point sigma (m)")
    _add(cor, "sigma_force", CORRUPT_DEFAULTS["sigma_force"], "force sigma (N)")
    _add(cor, "mode_offset_contact", CORRUPT_DEFAULTS["mode_offset_contact"], "bimodal contact mode (m)")
    _add(cor, "half_width_contact", CORRUPT_DEFAULTS["half_width_contact"], "bimodal contact half-width (m)")
    _add(cor, "mode_offset_force", CORRUPT_DEFAULTS["mode_offset_force"], "bimodal force mode (N)")
    _add(cor, "half_width_force", CORRUPT_DEFAULTS["half_width_force"], "bimodal force half-width (N)")
    _add(cor, "channels", CORRUPT_DEFAULTS["channels"], "channels to corrupt (subset of y,z,w,alpha)")
    _add(cor, "occlude", CORRUPT_DEFAULTS["occlude"], "occlusion window LO:HI (trajectory fraction)", str)
    _add(cor, "occlude_channels", CORRUPT_DEFAULTS["occlude_channels"], "channels dropped in the window")
    _add(cor, "seed", CORRUPT_DEFAULTS["seed"], "corruption seed")
    cor.add_argument("--out", type=str, required=True, help="output trajectory JSON path")

    est = sub.add_parser("estimate", help="MAP-optimize a trajectory file")
    est.add_argument("--in", dest="infile", type=str, required=True, help="input trajectory JSON")
    _add(est, "model", EST_DEFAULTS["model"], "graph model: CP | SDF | QS")
    _add(est, "mode", EST_DEFAULTS["mode"], "batch | incremental")
    _add(est, "lag", EST_DEFAULTS["lag"], "fixed-lag window (timesteps)")
    _add(est, "batch_every", EST_DEFAULTS["batch_every"], "re-optimize after this many timesteps")
    _add(est, "max_iter", EST_DEFAULTS["max_iter"], "optimizer iteration cap")
    _add(est, "covariances", EST_DEFAULTS["covariances"],
         "report posterior marginal covariances (batch mode only; incremental writes NaN columns)")
    est.add_argument("--out", type=str, default=None, help="results CSV path")

    ben = sub.add_parser("benchmark", help="multi-trial model comparison")
    _add(ben, "models", BENCH_DEFAULTS["models"], "comma-separated models to run")
    _add(ben, "trials", BENCH_DEFAULTS["trials"], "number of simulated trials")
    _add(ben, "dur", BENCH_DEFAULTS["dur"], "trial duration (s)")
    _add(ben, "dt", BENCH_DEFAULTS["dt"], "trial timestep (s)")
    _add(ben, "jobs", BENCH_DEFAULTS["jobs"], "parallel workers")
    for name in ("kind", "sigma_x_trans", "sigma_x_rot", "sigma_e_trans", "sigma_e_rot",
                 "sigma_contact", "sigma_force", "mode_offset_contact", "half_width_contact",
                 "mode_offset_force", "half_width_force", "channels", "occlude",
                 "occlude_channels", "mode", "lag", "batch_every", "max_iter", "covariances"):
        _add(ben, name, BENCH_DEFAULTS[name], f"see corrupt/estimate ({name})",
             str if name == "occlude" else None)
    _add(ben, "seed", 0, "master seed for the trial-seed split")
    ben.add_argument("--out", type=str, default=None, help="benchmark table CSV path")

    ins = sub.add_parser("inspect", help="summarize a trajectory file")
    ins.add_argument("--in", dest="infile", type=str, required=True, help="trajectory JSON")

    return parser


def effective_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge defaults, config-file values, and explicitly passed flags."""
    cfg = dict(defaults)
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        for k, v in file_cfg.items():
            if k in cfg:
                cfg[k] = v
    for k in cfg:
        v = getattr(args, k, None)
        if v is not None:
            cfg[k] = v
    return cfg


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    quiet = args.quiet

    def say(msg):
        if not quiet:
            print(msg)

    try:
        if args.command == "simulate":
            cfg = effective_config(args, SIM_DEFAULTS)
            traj = run_simulate(cfg)
            dataio.save_trajectory(traj, args.out)
            say(f"wrote {len(traj)} steps to {args.out}")
            return 0

        if args.command == "corrupt":
            cfg = effective_config(args, CORRUPT_DEFAULTS)
            traj = dataio.load_trajectory(args.infile)
            out = run_corrupt(cfg, traj)
            dataio.save_trajectory(out, args.out)
            say(f"wrote corrupted trajectory to {args.out}")
            return 0

        if args.command == "estimate":
            cfg = effective_config(args, EST_DEFAULTS)
            traj = dataio.load_trajectory(args.infile)
            arrays, covs, report, metrics = run_estimate(cfg, traj)
            say(f"model={cfg['model']} mode={cfg['mode']} iterations={report.iterations} "
                f"cost {report.initial_cost:.4e} -> {report.final_cost:.4e} "
                f"converged={report.converged} ({report.reason})")
            if metrics is not None:
                for ch, st in sorted(metrics.channels.items()):
                    say(f"  {ch}: rmse={st.rmse:.4g} mae={st.mae:.4g} std={st.std:.4g} n={st.count}")
                if metrics.covariance_traces:
                    for k, v in sorted(metrics.covariance_traces.items()):
                        say(f"  posterior trace {k}: {v:.4e}")
            if args.out:
                dataio.export_results(arrays, covs, args.out, config_echo=_echo(cfg))
                say(f"wrote results to {args.out}")
            return 0 if report.converged else 1

        if args.command == "benchmark":
            cfg = effective_config(args, BENCH_DEFAULTS)
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

    except (PushGraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    return 1


if __name__ == "__main__":
    sys.exit(main())
