"""Layer spans for the benchmark, installed from outside the package.

`installed(tracer)` wraps pushgraph's functions at each layer boundary and
restores the originals on exit; nothing under src/ is edited. A wrapped
call opens a span (name, start, parent = the span open beneath it) and
closes it on return. A closed span is folded at once into per-name totals:
its self time (duration minus the time its child spans cover) and its call
count. Keeping totals instead of span records keeps memory flat over the
millions of factor and geometry calls of a run.

Nesting, outermost first:
  graphcore.gauss_newton > graphcore.cost | graphcore.linearize | graphcore.solve
  graphcore.cost | graphcore.linearize > factors.<kind>.residual | factors.<kind>.lin
  factors.<kind>.* > geometry.*
  smoother.update > smoother.window > smoother.marginalize | graphcore.gauss_newton
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from pushgraph import dataio, factors, graphcore, pushsim

FACTOR_KINDS = ("prior", "m_pose", "m_contactforce", "c_object", "c_ee", "c_objee",
                "s", "v", "d", "linearized_prior")

# factor classes whose own __dict__ defines evaluation methods
_FACTOR_CLASSES = (
    factors.Factor,
    factors.PriorFactor,
    factors.ContactForceMeasurementFactor,
    factors.ContactSurfaceFactor,
    factors.SurfaceGapFactor,
    factors.IntersectionFactor,
    factors.ConstantVelocityFactor,
    factors.QuasiStaticFactor,
    graphcore.LinearizedPriorFactor,
)
_FACTOR_METHODS = {"residual": "residual", "jacobians": "lin", "residual_and_jacobians": "lin"}

# geometry calls as the factor module imported them
_GEOMETRY = {
    "closest_point_with_jacobians": "geometry.closest_point",
    "shapes_intersect": "geometry.shapes_intersect",
    "closest_pair": "geometry.closest_pair",
}


class Tracer:
    """Open-span stack plus per-name self time, call counts and counters."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # [name, start, child seconds]

    def enter(self, name: str):
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self):
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def top_is_factor(self) -> bool:
        return bool(self._stack) and self._stack[-1][0].startswith("factors.")

    def wrap(self, fn, name_of):
        """Span around fn; name_of(args) gives the span name, None for no span."""

        def wrapper(*args, **kwargs):
            name = name_of(args)
            if name is None:
                return fn(*args, **kwargs)
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return wrapper


def _fixed(name):
    return lambda args: name


@contextmanager
def installed(tracer: Tracer):
    """Wrap every layer boundary for the duration of the block."""
    originals = []

    def patch(owner, attr, name_of):
        original = owner.__dict__[attr]
        originals.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name_of))

    def factor_span(suffix):
        # a factor method calling another method of the same factor stays one span
        return lambda args: None if tracer.top_is_factor() else f"factors.{args[0].kind}.{suffix}"

    try:
        patch(pushsim, "quasi_static_step", _fixed("pushsim.step"))
        patch(dataio, "inject_noise", _fixed("dataio.corrupt"))
        patch(dataio, "apply_occlusion", _fixed("dataio.corrupt"))
        patch(graphcore, "build_graph", _fixed("graphcore.build_graph"))
        patch(graphcore.FactorGraph, "cost", _fixed("graphcore.cost"))
        patch(graphcore, "linearize", _fixed("graphcore.linearize"))
        patch(graphcore, "_solve_normal", _fixed("graphcore.solve"))
        patch(graphcore, "marginal_covariances", _fixed("graphcore.marginals"))
        patch(graphcore.FixedLagSmoother, "update", _fixed("smoother.update"))
        patch(graphcore.FixedLagSmoother, "finalize", _fixed("smoother.update"))
        patch(graphcore.FixedLagSmoother, "_optimize", _fixed("smoother.window"))
        patch(graphcore.FixedLagSmoother, "_marginalize_upto", _fixed("smoother.marginalize"))
        for attr, name in _GEOMETRY.items():
            patch(factors, attr, _fixed(name))
        for cls in _FACTOR_CLASSES:
            for attr, suffix in _FACTOR_METHODS.items():
                if attr in cls.__dict__:
                    patch(cls, attr, factor_span(suffix))

        spanned_gn = tracer.wrap(graphcore.__dict__["gauss_newton"], _fixed("graphcore.gauss_newton"))

        def gauss_newton(graph, init=None, opts=None):
            for kind, n in graph.counts_by_kind().items():
                tracer.counts[f"graphcore.factors.{kind}"] += n
            values, report = spanned_gn(graph, init, opts)
            tracer.counts["graphcore.iterations"] += report.iterations
            tracer.counts["graphcore.accepted_steps"] += len(report.cost_trace) - 1
            tracer.counts["graphcore.stalled_solves"] += report.reason == "no_improving_step"
            tracer.counts["graphcore.capped_solves"] += report.reason == "max_iter"
            if tracer.inside("smoother.window"):
                tracer.counts["smoother.window_iterations"] += report.iterations
            return values, report

        originals.append((graphcore, "gauss_newton", graphcore.__dict__["gauss_newton"]))
        graphcore.gauss_newton = gauss_newton
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as (value, unit), from one traced execution."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts

    def per_call_us(*names):
        n = sum(calls[k] for k in names)
        return 1e6 * sum(self_s[k] for k in names) / n if n else 0.0

    def total_ms(name):
        return 1e3 * self_s[name]

    out: dict[str, tuple[float, str]] = {
        "pushsim.step_us": (per_call_us("pushsim.step"), "us"),
        "pushsim.steps": (calls["pushsim.step"], "count"),
        "dataio.corrupt_ms": (total_ms("dataio.corrupt"), "ms"),
        "graphcore.build_graph_ms": (total_ms("graphcore.build_graph"), "ms"),
    }
    for kind in FACTOR_KINDS:
        out[f"graphcore.factors.{kind}"] = (counts[f"graphcore.factors.{kind}"], "count")
    for kind in FACTOR_KINDS:
        res, lin = f"factors.{kind}.residual", f"factors.{kind}.lin"
        out[f"factors.{kind}.calls"] = (calls[res] + calls[lin], "count")
        out[f"factors.{kind}.residual_us"] = (per_call_us(res), "us")
        out[f"factors.{kind}.lin_us"] = (per_call_us(lin), "us")
    for name in _GEOMETRY.values():
        out[f"{name}_us"] = (per_call_us(name), "us")
        out[f"{name}.calls"] = (calls[name], "count")
    for layer in ("cost", "linearize", "solve"):
        out[f"graphcore.{layer}.calls"] = (calls[f"graphcore.{layer}"], "count")
        out[f"graphcore.{layer}.ms"] = (total_ms(f"graphcore.{layer}"), "ms")
    out["graphcore.marginals.ms"] = (total_ms("graphcore.marginals"), "ms")
    iterations = counts["graphcore.iterations"]
    solves = calls["graphcore.solve"]
    out["graphcore.iterations"] = (iterations, "count")
    out["graphcore.step_accept_ratio"] = (
        counts["graphcore.accepted_steps"] / solves if solves else 0.0, "ratio")
    out["graphcore.cost_sweeps_per_iter"] = (
        calls["graphcore.cost"] / iterations if iterations else 0.0, "ratio")
    out["graphcore.stalled_solves"] = (counts["graphcore.stalled_solves"], "count")
    out["graphcore.capped_solves"] = (counts["graphcore.capped_solves"], "count")
    out["smoother.windows"] = (calls["smoother.window"], "count")
    out["smoother.window_iterations"] = (counts["smoother.window_iterations"], "count")
    out["smoother.marginalize.calls"] = (calls["smoother.marginalize"], "count")
    out["smoother.marginalize.ms"] = (total_ms("smoother.marginalize"), "ms")
    return out
