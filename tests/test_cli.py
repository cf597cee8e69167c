"""Command-line round trips, config precedence, exit codes, benchmark tables."""

import json

import numpy as np
import pytest

from pushgraph import cli, dataio
from pushgraph.errors import NonFiniteCost
from pushgraph.graphcore import GraphConfig, solve_incremental


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


def test_incremental_report_covers_every_window(noisy_file, capsys):
    assert cli.main(["estimate", "--in", str(noisy_file), "--mode", "incremental",
                     "--lag", "5", "--batch-every", "2"]) in (0, 1)
    printed = capsys.readouterr().out
    traj = dataio.load_trajectory(noisy_file)
    _, smoother = solve_incremental("QS", traj, GraphConfig.from_trajectory(traj), lag=5, batch_every=2)
    assert len(smoother.reports) > 1
    assert f"iterations={sum(r.iterations for r in smoother.reports)} " in printed


def test_unknown_occlusion_channel_exits_2(noisy_file, tmp_path):
    out = tmp_path / "occ.json"
    assert run("corrupt", "--in", noisy_file, "--occlude", "0.2:0.5", "--occlude-channels", "q",
               "--out", out) == 2
    assert not out.exists()


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
])
def test_malformed_input_exits_2(tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    for command in ("estimate", "inspect", "corrupt"):
        extra = ["--out", tmp_path / "out.json"] if command == "corrupt" else []
        assert run(command, "--in", bad, *extra) == 2


@pytest.mark.parametrize("model", ["QS", "CP"])
def test_non_finite_measurement_exits_2(noisy_file, tmp_path, model):
    data = json.loads(noisy_file.read_text())
    data["steps"][3]["w"][0] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(data))
    assert run("estimate", "--in", bad, "--model", model) == 2


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
