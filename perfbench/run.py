"""pushgraph benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the repository root:

    python3 perfbench/run.py --workload batch-disc --seed 0 --seconds 45 --trace 0

Workloads are defined in perfbench/workloads.py. With --trace 0 the run
sets up the workload's inputs several times (setup_s is the median), then
estimates every input once in a closed loop, and goes on estimating them
again from the first until --seconds is spent. It prints the end-to-end
metrics:

  setup_s        simulate, corrupt, and build the graphs or smoothers
  solve_s        latency of the estimator calls for the whole input set at
                 the median input's cost (inputs times the median input,
                 each at its median over its estimations); batch calls
                 include marginal covariances
  update_ms_p50  latency per estimate update: one fixed-lag update (finalize
  update_ms_p95  counted), or one batch Gauss-Newton iteration, taken per
                 solve as its time over its iterations
  *_rmse_*       the paper's five error channels, mean over the solves
  peak_rss_mb    peak resident memory of the process

The four times are scaled to a nominal host speed: a fixed pure-Python
loop is timed, and a time is multiplied by the loop's nominal 10 ms over
the loop's median. Each set-up is scaled by the loop timed three times
before and three times after it; the estimation times by the loop timed
after every estimation. The latter median, the unscaled solve_s and the
count of solves or windows stopped at the iteration cap are on the
diagnostics line. Such a stop still returns an estimate, which is checked;
only an estimator call that raises or returns non-finite values is failed.

With --trace 1 it takes the first third of the scenes, estimates them once
untraced, then sets them up and estimates them once traced. It prints the
per-layer metrics of the traced execution, the tracing overhead, and the
time of a fixed pure-Python loop before and after, a gauge of host drift.

Every run checks its outputs; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads, so no second thread competes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the measurement noise")
    parser.add_argument("--seconds", type=float, required=True, help="time spent estimating")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pushgraph").is_dir():
        print(f"error: pushgraph sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.trace:
        result = workloads.run_traced(workload, args.seed)
    else:
        result = workloads.run_timed(workload, args.seed, args.seconds)

    for name, (value, unit) in result.metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    print("diagnostics " + json.dumps(result.diagnostics))
    for problem in result.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
