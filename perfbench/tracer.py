"""In-memory span tracer that wraps axisym names from outside the package.

A span is recorded for every call through a wrapped module attribute:
its name, start, end, parent span and a few attributes read from the
call's arguments or result (``nfev`` of a ``solve_ivp`` solution, the
bytes a CSV writer produced).  Nothing inside ``axisym`` is edited, and
the right-hand side function is never wrapped: a span per RHS call
would measure the tracer, so RHS calls are counted from ``sol.nfev``.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict


def _solve_ivp_attrs(args, kwargs, sol):
    return {"nfev": int(sol.nfev), "status": int(sol.status)}


def _conservation_attrs(args, kwargs, drifts):
    return {"attempts": int(drifts["attempts"]), "completed": int(kwargs["n_ic"])}


def _csv_attrs(args, kwargs, labels):
    return {"bytes": os.path.getsize(args[0])}


def _figure_attrs(args, kwargs, meta):
    return {"figure": int(args[0])}


# (module, attribute, attribute hook).  Each is a name one layer calls in
# another, or the benchmark calls in a layer.
WRAPPED = (
    ("axisym.dynamics", "solve_ivp", _solve_ivp_attrs),
    ("axisym.dynamics", "integrate", None),
    ("axisym.dynamics", "conservation_suite", _conservation_attrs),
    ("axisym.figures", "run_figure", _figure_attrs),
    ("axisym.figures", "detect_period", None),
    ("axisym.figures", "integrate", None),
    ("axisym.io", "write_trajectory_csv", _csv_attrs),
    ("axisym.io", "write_meta", None),
    ("axisym.svg", "write_projections", None),
    ("axisym.verify", "verify_system", None),
    ("axisym.verify", "rank_vote", None),
    ("axisym.verify", "determining_residuals", None),
    ("axisym.verify", "closure_residual", None),
)


# Metric name prefix -> the wrapped name its spans come from.  Metrics of
# a name that is no longer there are left out rather than read as zero.
METRIC_SOURCES = {
    "dynamics.rhs_calls": "dynamics.solve_ivp",
    "dynamics.us_per_rhs_call": "dynamics.solve_ivp",
    "dynamics.attempts": "dynamics.conservation_suite",
    "dynamics.conservation_suite_s": "dynamics.conservation_suite",
    "dynamics.useful_draw_ratio": "dynamics.conservation_suite",
    "dynamics.integrate_s": "dynamics.integrate",
    "dynamics.integrate_self_s": "dynamics.integrate",
    "dynamics.detect_period_s": "figures.detect_period",
    "figures.integrate_calls": "figures.integrate",
    "figures.run_figure_s": "figures.run_figure",
    "io.write_trajectory_csv_s": "io.write_trajectory_csv",
    "io.csv_bytes": "io.write_trajectory_csv",
    "io.write_meta_s": "io.write_meta",
    "svg.write_projections_s": "svg.write_projections",
    "verify.verify_system_ms": "verify.verify_system",
    "verify.determining_residuals_ms": "verify.determining_residuals",
    "verify.closure_residual_ms": "verify.closure_residual",
    "verify.rank_vote_ms": "verify.rank_vote",
}


class Tracer:
    """Collects spans while installed; restores every wrapped name on close.

    ``tag`` is set by the workload (a config key or figure id) and copied
    into each span opened while it is set.
    """

    def __init__(self):
        self.spans = []
        self.tag = None
        # Seconds spent in the wrappers outside the calls they wrap.
        self.own_s = 0.0
        self.missing = set()
        self._stack = []
        self._restore = []

    def install(self):
        import importlib

        for modname, attr, hook in WRAPPED:
            module = importlib.import_module(modname)
            # A name a later change removes is skipped: its metrics read
            # as absent rather than zero.
            if hasattr(module, attr):
                self._wrap(module, attr, hook)
            else:
                self.missing.add(f"{modname.rsplit('.', 1)[-1]}.{attr}")
        return self

    def measures(self, metric):
        """False when the metric's wrapped name no longer exists."""
        return not any(metric.startswith(prefix) and source in self.missing
                       for prefix, source in METRIC_SOURCES.items())

    def close(self):
        for module, attr, orig in reversed(self._restore):
            setattr(module, attr, orig)
        self._restore.clear()

    def _wrap(self, module, attr, hook):
        orig = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            span = {"name": name, "tag": self.tag,
                    "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                span.update(hook(args, kwargs, result))
            self.own_s += time.perf_counter() - entered - _dur(span)
            return result

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, orig))


def _dur(span):
    return span["end"] - span["start"]


def span_metrics(spans, traced_wall, own_s):
    """Per-layer metrics derived from one traced pass.

    ``own_s`` is the tracer's own time in that pass.  Returns name ->
    (value, unit).  Only metrics whose spans occurred are present; the
    caller fills the rest.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    out = {}

    def total(name):
        return sum(_dur(s) for s in by_name[name])

    top = sum(_dur(s) for s in spans if s["parent"] is None)
    out["bench.span_coverage_frac"] = (top / traced_wall, "ratio")
    out["bench.trace_overhead_frac"] = (own_s / (traced_wall - own_s), "ratio")

    ivp_by_tag = defaultdict(list)
    for s in by_name["dynamics.solve_ivp"]:
        ivp_by_tag[s["tag"]].append(s)
    for tag, group in ivp_by_tag.items():
        nfev = sum(s["nfev"] for s in group)
        out[f"dynamics.rhs_calls.{tag}"] = (nfev, "count")
        out[f"dynamics.us_per_rhs_call.{tag}"] = (
            1e6 * sum(_dur(s) for s in group) / nfev, "us")

    suites = by_name["dynamics.conservation_suite"]
    if suites:
        per_tag = defaultdict(list)
        for s in suites:
            per_tag[s["tag"]].append(s)
        for tag, group in per_tag.items():
            out[f"dynamics.conservation_suite_s.{tag}"] = (sum(_dur(s) for s in group), "s")
            out[f"dynamics.attempts.{tag}"] = (sum(s["attempts"] for s in group), "count")
        out["dynamics.useful_draw_ratio"] = (
            sum(s["completed"] for s in suites) / sum(s["attempts"] for s in suites),
            "ratio")
        # A terminal event (status 1) inside the suite is a discarded draw.
        out["dynamics.rhs_calls_discarded"] = (
            sum(s["nfev"] for s in by_name["dynamics.solve_ivp"] if s["status"] == 1),
            "count")

    integrates = [i for i, s in enumerate(spans)
                  if s["name"] in ("dynamics.integrate", "figures.integrate")]
    if integrates:
        child = defaultdict(float)
        for s in by_name["dynamics.solve_ivp"]:
            child[s["parent"]] += _dur(s)
        out["dynamics.integrate_s"] = (sum(_dur(spans[i]) for i in integrates), "s")
        out["dynamics.integrate_self_s"] = (
            sum(_dur(spans[i]) - child[i] for i in integrates), "s")
    if by_name["figures.integrate"]:
        out["figures.integrate_calls"] = (len(by_name["figures.integrate"]), "count")
    if by_name["figures.detect_period"]:
        out["dynamics.detect_period_s"] = (total("figures.detect_period"), "s")
    for s in by_name["figures.run_figure"]:
        out[f"figures.run_figure_s.{s['figure']}"] = (_dur(s), "s")

    if by_name["io.write_trajectory_csv"]:
        out["io.write_trajectory_csv_s"] = (total("io.write_trajectory_csv"), "s")
        out["io.csv_bytes"] = (
            sum(s["bytes"] for s in by_name["io.write_trajectory_csv"]), "bytes")
    if by_name["io.write_meta"]:
        out["io.write_meta_s"] = (total("io.write_meta"), "s")
    if by_name["svg.write_projections"]:
        out["svg.write_projections_s"] = (total("svg.write_projections"), "s")

    for name, key in (("verify.verify_system", "verify.verify_system_ms"),
                      ("verify.determining_residuals", "verify.determining_residuals_ms")):
        per_tag = defaultdict(list)
        for s in by_name[name]:
            per_tag[s["tag"]].append(_dur(s))
        for tag, durs in per_tag.items():
            out[f"{key}.{tag}"] = (1e3 * sum(durs) / len(durs), "ms")
    for name in ("verify.closure_residual", "verify.rank_vote"):
        if by_name[name]:
            out[f"{name}_ms"] = (1e3 * total(name) / len(by_name[name]), "ms")
    return out
