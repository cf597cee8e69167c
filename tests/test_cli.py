"""Command-line round trips, config precedence, exit codes, benchmark tables."""

import argparse
import json
import math
import re

import numpy as np
import pytest

from pushgraph import cli, dataio, graphcore, pushsim
from pushgraph.errors import NonFiniteCost
from pushgraph.geometry import PlanarPose, embed_in_plane
from pushgraph.graphcore import (
    GaussNewtonOptions,
    GraphConfig,
    SolveReport,
    marginal_covariances,
    obj_key,
    pf_key,
    solve_batch,
    solve_incremental,
)


def run(*argv):
    return cli.main(["--quiet", *map(str, argv)])


@pytest.fixture(scope="module")
def noisy_file(tmp_path_factory):
    """A short simulated push, corrupted with the default Gaussian noise."""
    d = tmp_path_factory.mktemp("cli")
    sim, noisy = d / "sim.json", d / "noisy.json"
    assert run("simulate", "--dur", 1.0, "--dt", 0.1, "--out", sim) == 0
    assert run("corrupt", "--in", sim, "--seed", 3, "--out", noisy) == 0
    return noisy


def test_simulate_corrupt_estimate_inspect_round_trip(noisy_file, tmp_path, capsys):
    traj = dataio.load_trajectory(noisy_file)
    assert len(traj) == 10
    assert traj.noise is not None and traj.noise.seed == 3
    assert all(s.truth is not None for s in traj.steps)

    for mode in ("batch", "incremental"):
        out = tmp_path / f"{mode}.csv"
        assert run("estimate", "--in", noisy_file, "--mode", mode, "--lag", 5, "--out", out) == 0
        results = dataio.read_results_csv(out)
        for column in ("t", "x", "y", "theta", "p_x", "p_y", "f_x", "f_y"):
            assert results[column].shape == (10,)
            assert np.all(np.isfinite(results[column]))
        assert json.loads(out.read_text().splitlines()[0].removeprefix("# config: "))["mode"] == mode

    assert cli.main(["inspect", "--in", str(noisy_file)]) == 0
    printed = capsys.readouterr().out
    assert "steps: 10" in printed
    assert "corruption: gaussian seed=3" in printed


def test_batch_csv_carries_marginal_ellipses(noisy_file, tmp_path):
    traj = dataio.load_trajectory(noisy_file)
    T = len(traj)
    values, _, graph = solve_batch("QS", traj, GraphConfig.from_trajectory(traj))
    blocks = marginal_covariances(graph, values, [obj_key(t) for t in range(T)] + [pf_key(t) for t in range(T)])
    want = {}
    for t in range(T):
        x, pf = blocks[obj_key(t)], blocks[pf_key(t)]
        for name, cov in (("x", x[:2, :2]), ("p", pf[:2, :2]), ("f", pf[2:, 2:])):
            minor, major = 2.0 * np.sqrt(np.linalg.eigvalsh(cov))
            want.setdefault(f"{name}_2sigma_major", []).append(major)
            want.setdefault(f"{name}_2sigma_minor", []).append(minor)
        want.setdefault("x_sigma_theta", []).append(np.sqrt(x[2, 2]))

    batch, incremental = tmp_path / "batch.csv", tmp_path / "incremental.csv"
    assert run("estimate", "--in", noisy_file, "--mode", "batch", "--out", batch) == 0
    assert run("estimate", "--in", noisy_file, "--mode", "incremental", "--lag", 5, "--out", incremental) == 0
    got, unset = dataio.read_results_csv(batch), dataio.read_results_csv(incremental)
    for column, expected in want.items():
        assert np.all(np.isfinite(got[column])) and np.all(got[column] > 0.0)
        np.testing.assert_allclose(got[column], expected, rtol=1e-9, atol=0.0)
        assert np.all(np.isnan(unset[column]))


def test_incremental_report_covers_every_window(noisy_file, capsys):
    assert cli.main(["estimate", "--in", str(noisy_file), "--mode", "incremental",
                     "--lag", "5", "--batch-every", "2"]) in (0, 1)
    printed = capsys.readouterr().out
    traj = dataio.load_trajectory(noisy_file)
    _, smoother = solve_incremental("QS", traj, GraphConfig.from_trajectory(traj), lag=5, batch_every=2)
    assert len(smoother.reports) > 1
    assert f"iterations={sum(r.iterations for r in smoother.reports)} " in printed
    combined = cli.combined_report(smoother.reports)
    assert sum(combined.chi2_initial.values()) == pytest.approx(combined.initial_cost, rel=1e-12)
    assert sum(combined.chi2_final.values()) == pytest.approx(combined.final_cost, rel=1e-12)


def test_combined_report_is_converged_by_its_reason():
    def report(reason):
        return SolveReport(1, 2.0, 1.0, reason)

    for reason, converged in (("cost", True), ("no_improving_step", False), ("max_iter", False)):
        assert report(reason).converged is converged
        combined = cli.combined_report([report("cost"), report(reason), report("cost")])
        assert combined.converged is converged
        assert combined.reason == reason
    # the first unconverged window names the run's reason
    combined = cli.combined_report([report("cost"), report("max_iter"), report("no_improving_step")])
    assert (combined.converged, combined.reason) == (False, "max_iter")


def test_combined_report_takes_the_farthest_window_stop():
    def report(step_sigma):
        return SolveReport(1, 2.0, 1.0, "cost", final_step_sigma=step_sigma)

    assert cli.combined_report([report(0.05), report(math.nan), report(0.08), report(0.01)]).final_step_sigma == 0.08
    assert math.isnan(cli.combined_report([report(math.nan), report(math.nan)]).final_step_sigma)


@pytest.mark.parametrize("seed", [0, 3])
def test_zero_sigma_channel_is_treated_as_exact(tmp_path, seed):
    sim, noisy = tmp_path / "sim.json", tmp_path / "noisy.json"
    assert run("simulate", "--dur", 1.0, "--dt", 0.1, "--out", sim) == 0
    assert run("corrupt", "--in", sim, "--sigma-x-trans", 0, "--seed", seed, "--out", noisy) == 0
    assert run("estimate", "--in", noisy) == 0
    assert GraphConfig.from_trajectory(dataio.load_trajectory(noisy)).sigma_x_trans == 1e-4


# Solves that a damping ladder ending at 1e2 reported as "no_improving_step"
# a little short of these costs, the ones reached with the ladder run to 1e10
@pytest.mark.parametrize("corrupt_args, cost", [
    (["--seed", 0], 103.650831),
    (["--sigma-x-trans", 0, "--seed", 3], 145.315428),
])
def test_solve_next_to_a_minimum_ends_converged(tmp_path, corrupt_args, cost):
    sim, noisy = tmp_path / "sim.json", tmp_path / "noisy.json"
    assert run("simulate", "--dur", 1.0, "--dt", 0.1, "--out", sim) == 0
    assert run("corrupt", "--in", sim, *corrupt_args, "--out", noisy) == 0
    assert run("estimate", "--in", noisy) == 0
    traj = dataio.load_trajectory(noisy)
    _, report, _ = solve_batch("QS", traj, GraphConfig.from_trajectory(traj))
    assert report.reason == "cost"
    assert report.final_cost == pytest.approx(cost, rel=1e-6)


@pytest.mark.parametrize("scene, duration, noise_seed, cost", [
    (7, 25.0, 0, 1983.822111),
    (cli.trial_seed(0, 6), 4.0, cli.trial_seed(0, 6), 281.9002251),
])
def test_benchmark_scene_next_to_a_minimum_ends_converged(scene, duration, noise_seed, cost):
    traj = dataio.from_ground_truth(pushsim.benchmark_scenario(scene, duration=duration))
    noisy = cli.run_corrupt(dict(cli.CORRUPT_DEFAULTS, seed=noise_seed), traj)
    _, report, _ = solve_batch("QS", noisy, GraphConfig.from_trajectory(noisy))
    assert report.reason == "cost"
    assert report.final_cost == pytest.approx(cost, rel=1e-6)


@pytest.mark.parametrize("mode", ["batch", "incremental"])
def test_estimate_prints_chi2_by_factor_kind(noisy_file, capsys, mode):
    assert cli.main(["estimate", "--in", str(noisy_file), "--mode", mode, "--lag", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    initial, final = re.search(r" cost (\S+) -> (\S+) ", lines[0]).groups()
    rows = [m.groups() for m in map(re.compile(r"  chi2 (\w+): (\S+) -> (\S+)").fullmatch, lines) if m]
    kinds = [kind for kind, _, _ in rows]
    assert {"m_pose", "m_contactforce", "c_object", "d", "v"} <= set(kinds)
    assert len(set(kinds)) == len(kinds)
    for column, cost in ((1, initial), (2, final)):
        # each value is printed to 5 digits, so the sum is good to about 1e-4
        assert sum(float(row[column]) for row in rows) == pytest.approx(float(cost), rel=1e-4)


def test_flat_pusher_simulates_at_the_requested_offset(tmp_path):
    out = tmp_path / "sim.json"
    assert run("simulate", "--ee-shape", "box:0.03x0.02", "--offset", 0.01, "--dur", 0.5, "--dt", 0.1,
               "--out", out) == 0
    p0 = dataio.load_trajectory(out).truth_arrays().p[0]
    np.testing.assert_allclose(p0, [-0.05, 0.01], rtol=0, atol=1e-12)


def test_unknown_occlusion_channel_exits_2(noisy_file, tmp_path):
    out = tmp_path / "occ.json"
    assert run("corrupt", "--in", noisy_file, "--occlude", "0.2:0.5", "--occlude-channels", "q",
               "--out", out) == 2
    assert not out.exists()


def test_one_step_trajectory_exits_2_in_both_modes(tmp_path):
    sim = tmp_path / "one.json"
    assert run("simulate", "--dur", 0.1, "--dt", 0.1, "--out", sim) == 0
    assert len(dataio.load_trajectory(sim)) == 1
    for mode in ("batch", "incremental"):
        assert run("estimate", "--in", sim, "--mode", mode) == 2


@pytest.mark.parametrize("spec", ["box:0.1", "box:0.1xq", "disc:abc", "hexagon:1",
                                  "disc:nan", "box:infx1", "box:0x1"])
@pytest.mark.parametrize("flag", ["--shape", "--ee-shape"])
def test_malformed_shape_spec_exits_2(tmp_path, capsys, flag, spec):
    out = tmp_path / "sim.json"
    assert run("simulate", flag, spec, "--dur", 0.2, "--dt", 0.1, "--out", out) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--dt", 0), ("--dt", -0.1), ("--dt", "nan"), ("--dur", -1), ("--dur", 0), ("--dur", "inf"),
    ("--mu", "nan"), ("--speed", "nan"), ("--offset", "nan"), ("--curvature", "inf"),
    ("--steer-amplitude", "nan"), ("--mass", "inf"), ("--mu", 0), ("--mass", 0), ("--gravity", 0),
])
def test_bad_simulate_number_exits_2(tmp_path, capsys, flag, value):
    out = tmp_path / "sim.json"
    argv = ["--path", "random"] if flag == "--steer-amplitude" else []
    assert run("simulate", "--dur", 0.5, "--dt", 0.1, *argv, flag, value, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err
    assert not out.exists()


def test_unknown_mode_exits_2(noisy_file, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"mode": "bogus"}))
    out = tmp_path / "out.csv"
    for argv in (["estimate", "--in", noisy_file, "--mode", "bogus", "--out", out],
                 ["--config", config, "estimate", "--in", noisy_file, "--out", out],
                 [*BENCH_ARGS, "--trials", 1, "--mode", "bogus", "--out", out],
                 ["--config", config, *BENCH_ARGS, "--trials", 1, "--out", out]):
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert "'bogus'" in err and "batch" in err and "incremental" in err
        assert not out.exists()


def test_batch_every_beyond_the_lag_exits_2(noisy_file):
    assert run("estimate", "--in", noisy_file, "--mode", "incremental", "--lag", 20,
               "--batch-every", 30) == 2


def test_explicit_flag_beats_config_file(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"dur": 2.0, "dt": 0.1}))
    out = tmp_path / "sim.json"
    assert run("--config", config, "simulate", "--dur", 0.5, "--out", out) == 0
    traj = dataio.load_trajectory(out)
    assert len(traj) == 5  # dur from the flag, dt from the file
    assert traj.config["dur"] == 0.5 and traj.config["dt"] == 0.1


@pytest.mark.parametrize("text", [
    "{not json",
    json.dumps({"schema_version": 1, "steps": [{"bogus": 1}]}),
    json.dumps({"schema_version": 1, "plane": {"origin": [0, 0, 0], "normal": [0, 0, 1], "x_axis": [1, 0, 0]},
                "steps": []}),
])
def test_malformed_input_exits_2(tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    for command in ("estimate", "inspect", "corrupt"):
        extra = ["--out", tmp_path / "out.json"] if command == "corrupt" else []
        assert run(command, "--in", bad, *extra) == 2


@pytest.mark.parametrize("channel, value", [("w", [0.1]), ("w", [0.1, 0.2, 0.3]), ("alpha", [1.0]),
                                            ("alpha", [1.0, 2.0, 0.5, 0.1])])
def test_vector_of_the_wrong_length_exits_2(noisy_file, tmp_path, capsys, channel, value):
    data = json.loads(noisy_file.read_text())
    data["steps"][3][channel] = value
    bad, out = tmp_path / "short.json", tmp_path / "estimate.csv"
    bad.write_text(json.dumps(data))
    assert run("estimate", "--in", bad, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"step 3: channel '{channel}'" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("model", ["QS", "CP"])
def test_non_finite_measurement_exits_2(noisy_file, tmp_path, model):
    data = json.loads(noisy_file.read_text())
    data["steps"][3]["w"][0] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(data))
    assert run("estimate", "--in", bad, "--model", model) == 2


def test_estimate_prints_the_final_step_in_sigmas(noisy_file, capsys):
    assert cli.main(["estimate", "--in", str(noisy_file)]) == 0
    printed = re.search(r" step_sigma=(\S+)$", capsys.readouterr().out.splitlines()[0]).group(1)
    traj = dataio.load_trajectory(noisy_file)
    _, report, _ = solve_batch("QS", traj, GraphConfig.from_trajectory(traj))
    assert printed == f"{report.final_step_sigma:.3g}"


def test_box_pusher_against_a_disc_converges(tmp_path):
    # CP crept here at forecasts between 1e-3 and 1e-2 chi^2 a step, to max_iter
    sim, noisy = tmp_path / "sim.json", tmp_path / "noisy.json"
    assert run("simulate", "--shape", "disc:0.06", "--ee-shape", "box:0.01x0.03", "--path", "random",
               "--dur", 2.0, "--dt", 0.1, "--out", sim) == 0
    assert run("corrupt", "--in", sim, "--seed", 4, "--out", noisy) == 0
    assert run("estimate", "--model", "CP", "--in", noisy) == 0


BENCH_ARGS = ("benchmark", "--trials", 2, "--dur", 0.6, "--models", "CP,QS")


def _table_rows(path):
    # the first line echoes the config, which includes --jobs
    return [line for line in path.read_text().splitlines() if not line.startswith("# config")]


def test_benchmark_rows_do_not_depend_on_jobs(tmp_path):
    one, two = tmp_path / "jobs1.csv", tmp_path / "jobs2.csv"
    assert run(*BENCH_ARGS, "--jobs", 1, "--out", one) == run(*BENCH_ARGS, "--jobs", 2, "--out", two)
    assert _table_rows(one) == _table_rows(two)
    assert len(_table_rows(one)) == 1 + 1 + 2 * 2 + 2 * 2  # comment, header, rows, mean/std


def test_benchmark_columns_survive_a_failed_first_row(tmp_path, monkeypatch):
    real = cli.run_estimate
    calls = []

    def first_call_fails(cfg, traj):
        calls.append(cfg["model"])
        if len(calls) == 1:
            raise NonFiniteCost("injected")
        return real(cfg, traj)

    monkeypatch.setattr(cli, "run_estimate", first_call_fails)
    cfg = {**cli.BENCH_DEFAULTS, "trials": 2, "dur": 0.6, "models": "CP,QS"}
    rows, aggregates = cli.run_benchmark(cfg)
    assert rows[0]["failed"] == 1 and "est_rmse_x_trans" not in rows[0]
    for agg in aggregates:
        if agg["trial"] == -1:
            assert np.isfinite(agg["est_rmse_x_trans"]) and np.isfinite(agg["raw_rmse_contact"])

    out = tmp_path / "bench.csv"
    cli.write_benchmark_csv(rows, aggregates, out, cfg)
    header = _table_rows(out)[1].split(",")
    assert "est_rmse_x_trans" in header and "raw_mae_force_dir" in header
    assert "error" not in header


@pytest.mark.parametrize("mode", ["batch", "incremental"])
def test_benchmark_rows_carry_each_kinds_final_chi2(tmp_path, monkeypatch, mode):
    real = cli.run_estimate
    reports = []

    def recorded(cfg, traj):
        out = real(cfg, traj)
        reports.append(out[2])
        return out

    monkeypatch.setattr(cli, "run_estimate", recorded)
    cfg = {**cli.BENCH_DEFAULTS, "trials": 1, "dur": 0.6, "models": "CP,QS", "mode": mode, "lag": 3,
           "batch_every": 2}
    rows, aggregates = cli.run_benchmark(cfg)
    # rows are sorted by model, and CP runs first
    for row, report in zip(rows, reports):
        chi2 = {k[len("chi2_"):]: v for k, v in row.items() if k.startswith("chi2_")}
        assert chi2 == report.chi2_final
        # incrementally, the combined report's: the largest finite value over the windows;
        # NaN where no solve ended on the model rule, else at most sqrt(tau)
        assert np.array_equal(row["step_sigma"], report.final_step_sigma, equal_nan=True)
        assert not row["step_sigma"] > math.sqrt(graphcore._MODEL_TOL_RATIO * GaussNewtonOptions().rel_cost_tol)
        if mode == "batch":
            assert sum(chi2.values()) == pytest.approx(report.final_cost, rel=1e-12)
    cp, qs = rows
    assert "chi2_d" not in cp and qs["chi2_d"] > 0.0 and qs["chi2_s"] >= 0.0
    out = tmp_path / "bench.csv"
    cli.write_benchmark_csv(rows, aggregates, out, cfg)
    header, *lines = _table_rows(out)[1:]
    table = [dict(zip(header.split(","), line.split(","))) for line in lines]
    # a CP row has no D, and its aggregates skip the missing values: rows, then mean and std per model
    assert [(row["model"], np.isnan(float(row["chi2_d"]))) for row in table] == [
        ("CP", True), ("QS", False), ("CP", True), ("CP", True), ("QS", False), ("QS", False)]


# Each command's flags and the effective config it runs with when none is
# given, as they stood before the flags came from one table. Two keys are
# gone on purpose: estimate's "seed" and benchmark's "model", which no flag
# set and which were only echoed.
PINNED = {
    "simulate": ("--out", {
        "shape": "box:0.1x0.1", "ee_shape": "disc:0.008", "mu": 0.3, "mass": 1.0, "gravity": 9.81,
        "path": "straight", "curvature": 1.0, "steer_amplitude": 0.3, "offset": 0.0,
        "direction": 0.0, "speed": 0.06, "dur": 10.0, "dt": 0.04, "seed": 0,
    }),
    "corrupt": ("--in --out", {
        "kind": "gaussian", "sigma_x_trans": 0.005, "sigma_x_rot": 0.5, "sigma_e_trans": 0.005,
        "sigma_e_rot": 0.5, "sigma_contact": 0.005, "sigma_force": 0.5, "mode_offset_contact": 0.003,
        "half_width_contact": 0.002, "mode_offset_force": 0.3, "half_width_force": 0.2,
        "channels": "y,z,w,alpha", "occlude": None, "occlude_channels": "y", "seed": 0,
    }),
    "estimate": ("--in --out --no-covariances", {
        "model": "QS", "mode": "batch", "lag": 20, "batch_every": 5, "max_iter": 100, "covariances": True,
    }),
    "benchmark": ("--out --no-covariances", {
        "kind": "gaussian", "sigma_x_trans": 0.005, "sigma_x_rot": 0.5, "sigma_e_trans": 0.005,
        "sigma_e_rot": 0.5, "sigma_contact": 0.005, "sigma_force": 0.5, "mode_offset_contact": 0.003,
        "half_width_contact": 0.002, "mode_offset_force": 0.3, "half_width_force": 0.2,
        "channels": "y,z,w,alpha", "occlude": None, "occlude_channels": "y", "seed": 0,
        "mode": "batch", "lag": 20, "batch_every": 5, "max_iter": 100, "covariances": False,
        "models": "CP,SDF,QS", "trials": 10, "dur": 4.0, "dt": 0.1, "jobs": 1,
    }),
    "inspect": ("--in", {}),
}


def test_every_command_keeps_its_flags_and_defaults():
    parser = cli.make_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(PINNED)
    for command, (other_flags, defaults) in PINNED.items():
        flags = {option for action in commands[command]._actions for option in action.option_strings}
        assert flags - {"-h", "--help"} == {"--" + name.replace("_", "-") for name in defaults} | set(
            other_flags.split())
        args = parser.parse_args([command] + (["--in", "x"] if "--in" in other_flags else [])
                                 + (["--out", "x"] if command in ("simulate", "corrupt") else []))
        cfg = cli.effective_config(args, cli.COMMANDS[command][1])
        assert cfg == defaults
        assert [type(v) for v in cfg.values()] == [type(defaults[k]) for k in cfg]
    assert cli.CORRUPT_DEFAULTS == PINNED["corrupt"][1]
    assert cli.BENCH_DEFAULTS == PINNED["benchmark"][1]


@pytest.mark.parametrize("command", ["simulate", "corrupt", "estimate"])
def test_output_in_a_missing_directory_exits_2(noisy_file, tmp_path, capsys, command):
    argv = {"simulate": ["--dur", 0.5, "--dt", 0.1], "corrupt": ["--in", noisy_file],
            "estimate": ["--in", noisy_file]}[command]
    assert run(command, *argv, "--out", tmp_path / "missing" / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "missing" in err and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_spatial_poses_estimate_like_their_plane_projections(noisy_file, tmp_path, capsys):
    data = json.loads(noisy_file.read_text())
    plane = dataio.trajectory_from_dict(data).plane
    for step in data["steps"]:
        for holder, key in ((step, "y"), (step, "z"), (step["truth"], "x"), (step["truth"], "e")):
            pose = embed_in_plane(PlanarPose(**holder[key]), plane)
            lifted = pose.translation + 0.05 * plane.normal
            holder[key] = {"t": lifted.tolist(), "q": pose.quaternion.tolist()}
    spatial = tmp_path / "spatial.json"
    spatial.write_text(json.dumps(data))

    printed = []
    for path in (noisy_file, spatial):
        assert cli.main(["estimate", "--in", str(path)]) == 0
        printed.append(capsys.readouterr().out)
    assert "x_trans: rmse=" in printed[1] and "force_dir: rmse=" in printed[1]
    assert printed[1] == printed[0]


@pytest.mark.parametrize("argv", [
    ["corrupt", "--sigma-x-trans", "nan"],
    ["corrupt", "--sigma-force", "inf"],
    ["corrupt", "--kind", "bimodal", "--half-width-force", "nan"],
    ["estimate", "--max-iter", -3],
    ["estimate", "--max-iter", 0],
    ["estimate", "--lag", 2.5],
    [*BENCH_ARGS, "--trials", 0],
    [*BENCH_ARGS, "--jobs", 0],
    [*BENCH_ARGS, "--dt", 0],
    [*BENCH_ARGS, "--dur", "nan"],
    ["corrupt", "--occlude", "abc"],
    ["corrupt", "--occlude", "0.1:0.2:0.3"],
    ["corrupt", "--occlude", "0.6:0.3"],
    ["corrupt", "--seed", -1],
    ["simulate", "--seed", -1],
    [*BENCH_ARGS, "--seed", -1],
])
def test_bad_flag_value_exits_2_naming_the_flag(noisy_file, tmp_path, capsys, argv):
    out = tmp_path / "out"
    io = ["--in", noisy_file] if argv[0] in ("corrupt", "estimate") else []
    assert run(*argv[:1], *io, *argv[1:], "--out", out) == 2
    err = capsys.readouterr().err
    flag = next(a for a in reversed(argv) if str(a).startswith("--"))
    assert err.startswith(f"error: {flag}:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, config, flag", [
    ("estimate", {"max_iter": "ten"}, "--max-iter"),
    ("estimate", {"covariances": "no"}, "--covariances"),
    ("corrupt", {"seed": 1.5}, "--seed"),
    ("corrupt", {"sigma_contact": None}, "--sigma-contact"),
    ("simulate", {"dt": [0.1]}, "--dt"),
    ("simulate", {"dur": "-1"}, "--dur"),
    ("benchmark", {"trials": "0"}, "--trials"),
    ("estimate", [1, 2], "--config"),
    ("corrupt", {"occlude": "abc"}, "--occlude"),
    ("corrupt", {"occlude": 0.5}, "--occlude"),
    ("corrupt", {"seed": -1}, "--seed"),
    ("simulate", {"seed": "-3"}, "--seed"),
    ("benchmark", {"seed": -1}, "--seed"),
])
def test_bad_config_value_exits_2_naming_the_flag(noisy_file, tmp_path, capsys, command, config, flag):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    io = ["--in", noisy_file] if command in ("corrupt", "estimate") else []
    assert run("--config", path, command, *io, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}") and "Traceback" not in err
    assert not out.exists()


def test_missing_config_file_exits_2_with_error(noisy_file, tmp_path, capsys):
    missing = tmp_path / "nofile.json"
    assert run("--config", missing, "estimate", "--in", noisy_file) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nofile.json" in err and "Traceback" not in err


def test_config_values_are_converted_like_flags(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"dur": "0.5", "dt": 0.1, "seed": "4", "path": "random"}))
    out = tmp_path / "sim.json"
    assert run("--config", config, "simulate", "--out", out) == 0
    echo = dataio.load_trajectory(out).config
    assert len(dataio.load_trajectory(out)) == 5
    assert (echo["dur"], echo["dt"], echo["seed"]) == (0.5, 0.1, 4)


def test_benchmark_aggregates_skip_a_channel_never_measured(tmp_path):
    out = tmp_path / "blind.csv"
    assert run("benchmark", "--trials", 2, "--dur", 0.6, "--occlude", "0:1", "--occlude-channels", "w",
               "--out", out) == 0
    header, *lines = _table_rows(out)[1:]
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    aggregates = [row for row in rows if row["trial"] in ("-1", "-2")]
    assert aggregates
    for row in aggregates:
        for stat in ("rmse", "mae"):
            assert np.isnan(float(row[f"raw_{stat}_contact"]))
            assert np.isfinite(float(row[f"est_{stat}_contact"]))


# the paper's four benchmark conditions: what each corrupts, on top of the benchmark's defaults
PAPER_CONDITIONS = {
    "gaussian": {},
    "y occluded 0.2:0.9": {"occlude": "0.2:0.9", "occlude_channels": "y"},
    "bimodal w and alpha": {"kind": "bimodal", "channels": "w,alpha"},
    "no contact sensing": {"occlude": "0:1", "occlude_channels": "w"},
}


def test_benchmark_keeps_the_papers_orderings():
    means = {}
    for condition, corruption in PAPER_CONDITIONS.items():
        rows, aggregates = cli.run_benchmark({**cli.BENCH_DEFAULTS, "trials": 3, "dur": 4.0, "seed": 0, **corruption})
        assert not any(row["failed"] for row in rows), condition
        means[condition] = {agg["model"]: agg for agg in aggregates if agg["trial"] == -1}
    for condition, models in means.items():
        for model, agg in models.items():
            # every estimate beats the raw measurement where it is corrupted
            if condition != "bimodal w and alpha":
                assert agg["est_rmse_x_trans"] < agg["raw_rmse_x_trans"], (condition, model)
            if condition != "no contact sensing":
                assert agg["est_rmse_contact"] < agg["raw_rmse_contact"], (condition, model)
    occluded = means["y occluded 0.2:0.9"]
    assert occluded["QS"]["est_rmse_x_trans"] <= occluded["CP"]["est_rmse_x_trans"]
