"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/steadiness.py --workloads batch-disc,fixedlag-occluded \
        --seeds 0-9 [--seconds 45] [--out perfbench/baseline.json]

For every end-to-end metric it prints the median and the interquartile
range as a share of the median, with quartiles from
statistics.quantiles(values, n=4), next to the metric's bound in
BENCHMARK.json. Runs are sequential, so they never compete for the CPU.
--out writes each workload's parameters, every run's metrics and the
summary, the form perfbench/baseline.json keeps.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def parse_seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("diagnostics "):
            result["diagnostics"] = json.loads(line.removeprefix("diagnostics "))
    return result


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range as a share of the median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", default="0-9", help="seed range LO-HI, inclusive")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length; defaults to run_seconds in BENCHMARK.json")
    parser.add_argument("--out", default=None, help="write all runs and spreads as JSON")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, seconds, 0)
            runs.append({
                "seed": seed,
                **{k: result[k] for k in ("correct", "attempted", "failed")},
                "metrics": {name: m["value"] for name, m in result["metrics"].items()},
                "diagnostics": result.get("diagnostics", {}),
            })
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        summary = {}
        for name, bound in bounds.items():
            med, rel = spread([r["metrics"][name] for r in runs])
            summary[name] = {"median": med, "spread": rel, "bound": bound}
            flag = "" if rel < bound / 3 else ("  above bound/3" if rel <= bound else "  ABOVE BOUND")
            print(f"  {name:22s} median {med:12.6g}  spread {rel:7.4f}  bound {bound}{flag}")
        params = {**dataclasses.asdict(workloads.WORKLOADS[workload]),
                  "dt": workloads.DT, "master": workloads.MASTER}
        report[workload] = {"params": params, "seconds": seconds, "summary": summary, "runs": runs}
    if args.out:
        import numpy
        import scipy

        environment = {
            "machine": platform.machine(), "cpus": os.cpu_count(), "system": platform.system(),
            "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        }
        Path(args.out).write_text(json.dumps({"environment": environment, "workloads": report},
                                             indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
