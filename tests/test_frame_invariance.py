"""Estimates move with the frame and the clock.

A trajectory seen from a turned and moved frame, or stamped by a later
clock, is estimated as the same motion: each estimate, mapped back, is the
untransformed one, and each solve ends at the same cost.
"""

import dataclasses
import functools

import numpy as np
import pytest

from pushgraph import cli
from pushgraph.dataio import MeasuredTrajectory, StepTruth, from_ground_truth
from pushgraph.geometry import PlanarPose, wrap_angles
from pushgraph.graphcore import GaussNewtonOptions, Role, solve_batch, solve_incremental
from pushgraph.pushsim import benchmark_scenario

# (turn in rad, move in m, clock shift in s); the turned headings cross +-pi
TRANSFORMS = [(2.5, (0.7, -0.4), 0.0), (3.1, (0.7, -0.4), 0.0), (-2.9, (0.7, -0.4), 0.0),
              (0.0, (6.0, -8.0), 0.0), (0.0, (0.0, 0.0), 1000.0)]
# iterate to float-level convergence, so that the stopping point is the minimum itself
TIGHT = GaussNewtonOptions(max_iter=200, rel_cost_tol=1e-18)


@functools.cache
def scene(i):
    """Benchmark scene i, 4 s long, with the default noise seeded by the scene: every channel measured."""
    seed = cli.trial_seed(0, i)
    return cli.run_corrupt({**cli.CORRUPT_DEFAULTS, "seed": seed}, from_ground_truth(benchmark_scenario(seed, 4.0)))


def moved(traj: MeasuredTrajectory, turn: float, move, clock: float) -> MeasuredTrajectory:
    """traj as a frame turned by turn and moved by move sees it, on a clock running clock later.

    Poses, contact points and forces, measured and true, are all mapped.
    """
    frame = PlanarPose(*move, turn)

    def pose(p):
        return None if p is None else PlanarPose(*frame.transform_point(p.translation), p.theta + turn)

    def point(q):
        return None if q is None else frame.transform_point(q)

    def force(f):
        return None if f is None else frame.rotation() @ np.asarray(f, dtype=float)

    def truth(s):
        return None if s is None else StepTruth(x=pose(s.x), e=pose(s.e), p=point(s.p), f=force(s.f))

    steps = [dataclasses.replace(s, t=s.t + clock, y=pose(s.y), z=pose(s.z), w=point(s.w), alpha=force(s.alpha),
                                 truth=truth(s.truth)) for s in traj.steps]
    return dataclasses.replace(traj, steps=steps)


def moved_back(values: dict, turn: float, move) -> dict:
    """Estimates made in the moved frame, mapped back to the original one."""
    frame = PlanarPose(*move, turn)
    out = {}
    for key, v in values.items():
        if key.role is Role.CONTACT_FORCE:
            out[key] = np.r_[frame.inverse_transform_point(v[:2]), frame.rotation().T @ v[2:]]
        else:
            out[key] = np.r_[frame.inverse_transform_point(v[:2]), v[2] - turn]
    return out


def assert_same_estimates(got: dict, want: dict):
    assert got.keys() == want.keys()
    for key, v in want.items():
        gap = got[key] - v
        if key.role is not Role.CONTACT_FORCE:
            gap[2] = wrap_angles(gap[2])
        assert np.max(np.abs(gap)) <= 1e-7, (key, gap)


@pytest.mark.parametrize("transform", TRANSFORMS, ids=["turn2.5", "turn3.1", "turn-2.9", "move10m", "clock1000s"])
@pytest.mark.parametrize("i", [0, 1, 2])
def test_batch_estimates_move_with_the_frame(i, transform):
    turn, move, clock = transform
    traj = scene(i)
    for model in ("CP", "SDF", "QS"):
        want, want_report, _ = solve_batch(model, traj, opts=TIGHT)
        got, got_report, _ = solve_batch(model, moved(traj, turn, move, clock), opts=TIGHT)
        assert want_report.converged and got_report.converged
        assert_same_estimates(moved_back(got, turn, move), want)
        assert got_report.final_cost == pytest.approx(want_report.final_cost, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("transform", TRANSFORMS, ids=["turn2.5", "turn3.1", "turn-2.9", "move10m", "clock1000s"])
@pytest.mark.parametrize("i", [0, 1, 2])
def test_cp_smoother_estimates_move_with_the_frame(i, transform):
    # the default lag of 20 over 40 steps: the estimates pass through marginalizations
    turn, move, clock = transform
    traj = scene(i)
    want, want_smoother = solve_incremental("CP", traj)
    got, got_smoother = solve_incremental("CP", moved(traj, turn, move, clock))
    assert want_smoother.first_active_t > 0
    assert_same_estimates(moved_back(got, turn, move), want)
    assert len(got_smoother.reports) == len(want_smoother.reports)
    # the last window's; an earlier window stops on the default tolerances,
    # a chi^2 of the order of _MODEL_TOL_RATIO * rel_cost_tol from its minimum,
    # and later windows solve its steps again
    final = got_smoother.reports[-1].final_cost
    assert final == pytest.approx(want_smoother.reports[-1].final_cost, rel=1e-9, abs=0.0)
