"""Self-test of the benchmark on tiny inputs.

Every workload must emit every metric named in BENCHMARK.json with its unit,
and the counts and accuracy figures must repeat exactly for the same seed:
on a noisy host those exact repeats are what anchors the timings.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import workloads
from pushgraph import graphcore
from pushgraph.errors import PushGraphError

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}


def tiny(workload):
    # one scene per model, so every model still runs
    return dataclasses.replace(
        workload,
        scenes=len(workload.models),
        steps=12 if workload.fixed_lag else 8,
        lag=4,
        batch_every=2,
    )


def units(result):
    return {name: unit for name, (_, unit) in result.metrics.items()}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_metrics_emitted_and_repeatable(name):
    workload = tiny(workloads.WORKLOADS[name])
    timed = [workloads.run_timed(workload, seed=3, seconds=0) for _ in range(2)]
    traced = [workloads.run_traced(workload, seed=3) for _ in range(2)]

    for result in timed + traced:
        assert result.correct, result.problems
        assert result.failed == 0
        assert all(math.isfinite(v) for v, _ in result.metrics.values())
    assert units(timed[0]) == END_TO_END
    assert units(traced[0]) == PER_LAYER
    assert timed[0].diagnostics["estimations"] == workload.scenes

    accuracy = [{k: r.metrics[k] for k in workloads.ACCURACY} for r in timed]
    assert accuracy[0] == accuracy[1]
    counts = [{k: v for k, (v, unit) in r.metrics.items() if unit in ("count", "ratio")}
              for r in traced]
    assert counts[0] == counts[1]
    assert counts[0]["graphcore.iterations"] > 0
    if workload.fixed_lag:
        assert counts[0]["smoother.windows"] > 0
        assert counts[0]["smoother.marginalize.calls"] > 0


def test_repeats_inputs_until_the_time_is_spent():
    workload = tiny(workloads.WORKLOADS["batch-disc"])
    result = workloads.run_timed(workload, seed=3, seconds=1.0)
    assert result.correct, result.problems
    assert result.diagnostics["estimations"] > workload.scenes


def test_raising_solver_is_a_failed_check(monkeypatch):
    def raising(graph, *args, **kwargs):
        raise PushGraphError("no solve")

    monkeypatch.setattr(graphcore, "gauss_newton", raising)
    result = workloads.run_timed(tiny(workloads.WORKLOADS["batch-disc"]), seed=3, seconds=0)
    assert not result.correct
    assert result.failed == result.attempted
    assert any("x_trans_rmse_cm is nan" in p for p in result.problems)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_iteration_cap_stop_is_counted_not_failed(monkeypatch, name):
    # three iterations stop every tiny batch solve and most windows at the cap,
    # yet leave estimates that pass the checks
    gauss_newton = graphcore.gauss_newton
    monkeypatch.setattr(graphcore, "gauss_newton", lambda graph, init=None, opts=None:
                        gauss_newton(graph, init, graphcore.GaussNewtonOptions(max_iter=3)))
    workload = tiny(workloads.WORKLOADS[name])
    timed = workloads.run_timed(workload, seed=3, seconds=0)
    traced = workloads.run_traced(workload, seed=3)
    for result in (timed, traced):
        assert result.correct, result.problems
        assert result.failed == 0
        assert result.diagnostics["iteration_cap_stops"] > 0
    assert traced.metrics["graphcore.capped_solves"][0] > 0


def test_tracing_restores_the_program():
    before = (graphcore.gauss_newton, graphcore.linearize, graphcore.FactorGraph.cost)
    with spans.installed(spans.Tracer()):
        assert graphcore.gauss_newton is not before[0]
    assert (graphcore.gauss_newton, graphcore.linearize, graphcore.FactorGraph.cost) == before


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch-disc", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
