"""Benchmark workloads: generated inputs, closed-loop estimation, checks.

One single-threaded process drives the estimator in a closed loop: each
solve or update starts after the previous one returns. The program only
receives generated inputs.

Scenes are fixed per workload: the first disc scenes of
`pushsim.benchmark_scenario(cli.trial_seed(MASTER, i))`, walking i upward.
The run's --seed draws the sensor noise (the CLI benchmark's default
corruption), one noise seed per scene. Solver work and error swing by a
factor of two or more from one scene to the next, so fixed scenes keep a
run's figures comparable across seeds, while fresh noise keeps every seed
a new input. A batch workload solves each scene once, cycling through its
models, which spends the run on many scenes rather than on repeats of one.

Polygon scenes are left out: at the lengths that fit a run (15 to 30
steps) a third of the seeds hold a solve that stops at the 100-iteration
cap, and the iteration total of 48 box solves still spreads 27% (IQR over
median) from seed to seed, beyond any bound a regression check can use.

The fixed-lag smoother keeps a lag of 5 steps at T=20, so the occluded
span (6 steps) is longer than the lag: the occluded poses leave the window
before the object is seen again, which is what makes the occlusion error
large (1.7 cm, against 0.27 cm for the same trajectories unoccluded). One
noise draw moves a trajectory's error between 0.2 and 5 cm (coefficient of
variation 0.6), so the mean needs some 100 trajectories to hold within a
few percent from seed to seed; at 0.3 s a trajectory, 110 fit in a run.
At the CLI's lag of 20 the occlusion must last past 20 steps (T >= 70) and
a trajectory costs 2.4 s; at lag 10 and T=40 it costs 0.9 s, and the 36
that fit in a run left the mean error spreading 15-33% between seeds.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pushgraph import cli, dataio, graphcore, pushsim
from pushgraph.errors import PushGraphError

import spans

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
ACCURACY = {
    "x_trans_rmse_cm": "x_trans",
    "x_rot_rmse_rad": "x_rot",
    "contact_rmse_cm": "contact",
    "force_mag_rmse_n": "force_mag",
    "force_dir_rmse_deg": "force_dir",
}
DT = 0.1  # s, the sensor period of every scene
MASTER = 0  # master seed the scenes are drawn from
SETUP_REPEATS = 3
CALIBRATION_MS = 10.0  # nominal calibration_ms(); end-to-end times are scaled to it
DYNAMICS_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    scenes: int  # disc scenes, each estimated at least once per run
    steps: int  # T, timesteps per scene
    models: tuple[str, ...]
    fixed_lag: bool = False  # feed a FixedLagSmoother step by step instead of batch solves
    lag: int = 20
    batch_every: int = 5
    occlude: tuple[float, float] | None = None  # object-pose occlusion window


WORKLOADS = {
    w.name: w
    for w in (
        Workload(name="batch-disc", scenes=45, steps=40, models=("CP", "SDF", "QS")),
        Workload(name="fixedlag-occluded", scenes=110, steps=20, models=("QS",),
                 fixed_lag=True, lag=5, occlude=(0.3, 0.6)),
    )
}


@dataclass(frozen=True)
class Input:
    scene: int  # scenario seed
    noise: int  # corruption seed
    model: str


def inputs(workload: Workload, seed: int) -> list[Input]:
    """The workload's scenes, each with its model and a noise seed from seed."""
    out = []
    trial = 0
    while len(out) < workload.scenes:
        scene = cli.trial_seed(MASTER, trial)
        trial += 1
        # the shape is drawn from the seed alone; a two-step run reveals it
        probe = pushsim.benchmark_scenario(scene, duration=2 * DT, dt=DT)
        if probe.object_shape.kind == "disc":
            model = workload.models[len(out) % len(workload.models)]
            out.append(Input(scene, cli.trial_seed(seed, len(out)), model))
    return out


@dataclass
class Case:
    input: Input
    truth_traj: dataio.MeasuredTrajectory
    dynamics_residual: float
    noisy: dataio.MeasuredTrajectory

    @property
    def label(self) -> str:
        return f"scene {self.input.scene} noise {self.input.noise} {self.input.model}"


def make_case(workload: Workload, inp: Input) -> Case:
    gt = pushsim.benchmark_scenario(inp.scene, duration=workload.steps * DT, dt=DT)
    traj = dataio.from_ground_truth(gt)
    noisy = dataio.inject_noise(traj, cli.make_noise_spec({**cli.CORRUPT_DEFAULTS, "seed": inp.noise}))
    if workload.occlude is not None:
        noisy = dataio.apply_occlusion(noisy, workload.occlude, channels=("y",))
    return Case(inp, traj, gt.max_dynamics_residual(), noisy)


def make_estimator(workload: Workload, case: Case):
    """A batch graph, or a fixed-lag smoother, for one case."""
    if workload.fixed_lag:
        return graphcore.FixedLagSmoother(case.input.model, case.noisy, lag=workload.lag,
                                          batch_every=workload.batch_every)
    return graphcore.build_graph(case.input.model, case.noisy)


def setup(workload: Workload, plan: list[Input]):
    """Everything before the first optimizer iteration, timed as setup_s."""
    t0 = time.perf_counter()
    cases = [make_case(workload, inp) for inp in plan]
    estimators = [make_estimator(workload, c) for c in cases]
    return cases, estimators, time.perf_counter() - t0


def calibration_ms() -> float:
    """Time a fixed pure-Python loop, a gauge of how fast the host runs now.

    On a shared host the same work runs up to 1.5 times as fast at one time
    as at another. The loop slows and speeds with the estimators: over
    blocks of 36 fixed-lag trajectories (lag 10, T=40, about 30 s) the
    summed time varied by 13% (coefficient of variation), and the summed
    time over the loop's median in the block by 4%. A set-up of a few
    seconds is scaled by the loop timed around it instead: scaled by the
    run's median, batch-disc setup_s spread 18-24% (IQR over median) over
    ten seeds, scaled by its own loop 4% over five.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return 1e3 * (time.perf_counter() - t0)


@dataclass
class Outcome:
    """One closed-loop estimation of one case."""

    seconds: float  # summed latency of the estimator calls
    latencies_s: list[float]  # per fixed-lag update, or the solve's mean iteration time
    attempted: int
    failed: int  # estimator calls that raised or gave a non-finite estimate
    capped: int  # solves or fixed-lag windows stopped at the iteration cap
    problems: list[str]
    accuracy: dataio.Metrics | None  # None when no estimate came back


def _finite(values: dict) -> bool:
    return all(np.all(np.isfinite(v)) for v in values.values())


def _covariance_problem(covs: dict) -> str | None:
    for key, c in covs.items():
        if not np.all(np.isfinite(c)):
            return f"covariance of {key} is not finite"
        if np.max(np.abs(c - c.T)) > 1e-9 * max(1.0, np.max(np.abs(c))):
            return f"covariance of {key} is not symmetric"
        if np.linalg.eigvalsh(c).min() < -1e-12 * max(1.0, np.max(np.abs(c))):
            return f"covariance of {key} is not positive semidefinite"
    return None


def _batch_solve(case: Case, graph) -> Outcome:
    T = len(case.noisy)
    keys = [graphcore.obj_key(t) for t in range(T)] + [graphcore.pf_key(t) for t in range(T)]
    t0 = time.perf_counter()
    try:
        values, report = graphcore.gauss_newton(graph)
        t1 = time.perf_counter()
        covs = graphcore.marginal_covariances(graph, values, keys)
    except PushGraphError as exc:
        elapsed = time.perf_counter() - t0
        return Outcome(elapsed, [elapsed], 1, 1, 0, [f"{case.label}: {exc!r}"], None)
    elapsed = time.perf_counter() - t0
    # every Gauss-Newton iteration hands out a new estimate; one sample per
    # solve keeps the CP/SDF/QS mix of the samples fixed
    latencies = [(t1 - t0) / max(report.iterations, 1)]
    # a solve that stops at the iteration cap still hands back its estimate,
    # which is checked like any other; the stop is counted, not failed
    capped = int(report.reason == "max_iter")
    if not _finite(values):
        return Outcome(elapsed, latencies, 1, 1, capped, [f"{case.label}: non-finite estimate"], None)

    problems = []
    if msg := _covariance_problem(covs):
        problems.append(f"{case.label}: {msg}")
    truth = case.truth_traj.truth_arrays()
    est = dataio.compute_metrics(graphcore.values_to_arrays(values, T, case.noisy.timestamps), truth)
    raw = dataio.compute_metrics(case.noisy.measured_arrays(), truth)
    for ch in ("x_trans", "contact"):
        if not est.rmse(ch) < raw.rmse(ch):
            problems.append(f"{case.label}: {ch} RMSE {est.rmse(ch):.4g} does not beat "
                            f"the raw measurements ({raw.rmse(ch):.4g})")
    return Outcome(elapsed, latencies, 1, 0, capped, problems, est)


def _fixed_lag_run(case: Case, smoother) -> Outcome:
    latencies, capped = [], 0
    calls = [(smoother.update, step) for step in case.noisy.steps] + [(smoother.finalize,)]
    for fn, *args in calls:
        windows = len(smoother.reports)
        t0 = time.perf_counter()
        try:
            values = fn(*args)
        except PushGraphError as exc:
            latencies.append(time.perf_counter() - t0)
            return Outcome(sum(latencies), latencies, len(latencies), 1, capped,
                           [f"{case.label}: {exc!r}"], None)
        latencies.append(time.perf_counter() - t0)
        # windows of the occlusion reach the iteration cap now and then (the
        # occlusion defect); the update still hands back a finite estimate
        capped += any(r.reason == "max_iter" for r in smoother.reports[windows:])
    if not _finite(values):
        return Outcome(sum(latencies), latencies, len(latencies), 1, capped,
                       [f"{case.label}: non-finite fixed-lag estimate"], None)
    # the occlusion error is recorded, not gated
    accuracy = dataio.compute_metrics(smoother.estimate_arrays(), case.truth_traj.truth_arrays())
    return Outcome(sum(latencies), latencies, len(latencies), 0, capped, [], accuracy)


def estimate(workload: Workload, case: Case, estimator) -> Outcome:
    if workload.fixed_lag:
        return _fixed_lag_run(case, estimator)
    return _batch_solve(case, estimator)


def mean_accuracy(outcomes: list[Outcome]) -> dict[str, float]:
    """The five error channels, each the mean over the estimates that came back."""
    done = [o.accuracy for o in outcomes if o.accuracy is not None]
    if not done:
        return {name: math.nan for name in ACCURACY}
    return {name: statistics.fmean(m.rmse(ch) for m in done) for name, ch in ACCURACY.items()}


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    return float(np.percentile(np.asarray(values), q))


def _check_inputs(cases: list[Case]) -> list[str]:
    return [f"{c.label}: ground truth dynamics residual {c.dynamics_residual:.3g}"
            for c in cases if not c.dynamics_residual < DYNAMICS_TOL]


def _check_accuracy(accuracy: dict[str, float]) -> list[str]:
    return [f"{name} is {value}" for name, value in accuracy.items() if not math.isfinite(value)]


def _rmse(outcome: Outcome) -> np.ndarray:
    if outcome.accuracy is None:
        return np.full(len(ACCURACY), np.nan)
    return np.array([outcome.accuracy.rmse(ch) for ch in ACCURACY.values()])


def _check_repeat(cases: list[Case], visits: list[list[Outcome]]) -> list[str]:
    """The same input must give a bit-identical answer on every visit."""
    return [f"{case.label}: visit {i} differs from visit 0"
            for case, outcomes in zip(cases, visits)
            for i, o in enumerate(outcomes[1:], 1)
            if not np.array_equal(_rmse(o), _rmse(outcomes[0]), equal_nan=True)]


@dataclass
class Result:
    correct: bool
    problems: list[str]
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    diagnostics: dict[str, float]


def run_timed(workload: Workload, seed: int, seconds: float) -> Result:
    """Untraced run: repeated set-ups, then estimation until the time is spent.

    The cases are estimated in order, each once, and then again from the
    first with a fresh estimator until `seconds` have passed. solve_s is
    the number of cases times the median case, each case taken at the
    median of its estimations. Noise decides how many iterations a case
    takes, and a few cases per run go to the iteration cap at several
    times the usual cost, so the plain sum swung 20% from seed to seed at a
    steady host speed; the median holds still and the stops stay counted
    in the diagnostics as `iteration_cap_stops`.

    The calibration loop runs three times before and after every set-up,
    which is scaled by CALIBRATION_MS over the median of those six, and
    after every estimation; the estimation times are scaled by
    CALIBRATION_MS over the median of the latter.
    """
    plan = inputs(workload, seed)
    setup_times, calibration = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # start each set-up from the same heap state
        around = [calibration_ms() for _ in range(3)]
        cases, estimators, elapsed = setup(workload, plan)
        around += [calibration_ms() for _ in range(3)]
        setup_times.append(elapsed * CALIBRATION_MS / statistics.median(around))

    gc.collect()
    visits: list[list[Outcome]] = [[] for _ in cases]
    started = time.perf_counter()
    done = 0
    while done < len(cases) or time.perf_counter() - started < seconds:
        k = done % len(cases)
        estimator = estimators[k] if done < len(cases) else make_estimator(workload, cases[k])
        visits[k].append(estimate(workload, cases[k], estimator))
        calibration.append(calibration_ms())
        done += 1

    scale = CALIBRATION_MS / statistics.median(calibration)
    outcomes = [o for per_case in visits for o in per_case]
    latencies_ms = [1e3 * x for o in outcomes for x in o.latencies_s]
    solve_s = len(cases) * statistics.median(
        statistics.median(o.seconds for o in per_case) for per_case in visits)
    accuracy = mean_accuracy([per_case[0] for per_case in visits])
    metrics = {
        "setup_s": statistics.median(setup_times),
        "solve_s": scale * solve_s,
        "update_ms_p50": scale * percentile(latencies_ms, 50),
        "update_ms_p95": scale * percentile(latencies_ms, 95),
        **accuracy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    problems = (_check_inputs(cases) + [m for o in outcomes for m in o.problems]
                + _check_accuracy(accuracy) + _check_repeat(cases, visits))
    diagnostics = {
        "estimations": len(outcomes),
        "updates": len(latencies_ms),
        "calibration_ms": statistics.median(calibration),
        "unscaled_solve_s": solve_s,
        "iteration_cap_stops": sum(o.capped for o in outcomes),
    }
    return Result(
        correct=not problems,
        problems=problems,
        attempted=sum(o.attempted for o in outcomes),
        failed=sum(o.failed for o in outcomes),
        metrics={k: (v, UNITS[k]) for k, v in metrics.items()},
        diagnostics=diagnostics,
    )


def run_traced(workload: Workload, seed: int) -> Result:
    """One untraced round for reference, then a traced set-up and round.

    Both cover the first third of the scenes, so a traced run takes about
    as long as an untraced one.
    """
    calibration_before = calibration_ms()
    plan = inputs(workload, seed)
    plan = plan[:max(len(workload.models), len(plan) // 3)]
    cases, estimators, _ = setup(workload, plan)
    plain = [estimate(workload, c, e) for c, e in zip(cases, estimators)]

    tracer = spans.Tracer()
    with spans.installed(tracer):
        cases, estimators, _ = setup(workload, plan)
        traced = [estimate(workload, c, e) for c, e in zip(cases, estimators)]

    plain_s = sum(o.seconds for o in plain)
    traced_s = sum(o.seconds for o in traced)
    metrics = spans.layer_metrics(tracer)
    metrics["diag.trace_overhead_s"] = (traced_s - plain_s, "s")
    metrics["diag.calibration_before_ms"] = (calibration_before, "ms")
    metrics["diag.calibration_after_ms"] = (calibration_ms(), "ms")
    outcomes = plain + traced
    problems = (_check_inputs(cases) + [m for o in outcomes for m in o.problems]
                + _check_accuracy(mean_accuracy(plain))
                + _check_repeat(cases, [[p, t] for p, t in zip(plain, traced)]))
    return Result(
        correct=not problems,
        problems=problems,
        attempted=sum(o.attempted for o in outcomes),
        failed=sum(o.failed for o in outcomes),
        metrics=metrics,
        diagnostics={"untraced_solve_s": plain_s, "traced_solve_s": traced_s,
                     "iteration_cap_stops": sum(o.capped for o in outcomes)},
    )
