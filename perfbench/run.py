"""axisym benchmark: one workload, timed passes, checked outputs, one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload conserve --seed 20260823 --seconds 30 --trace 0

``--trace 0`` repeats whole passes of the workload while the next one is
expected to fit in ``--seconds`` (at least one pass) and reports the
end-to-end metrics, timed in reference seconds (see refclock.py).
``--trace 1`` runs one traced pass, then the layer probes (and, for
``verify``, the CLI commands), and reports the per-layer metrics.  The
last line of standard output is ``{"correct", "attempted", "failed", "metrics"}``.  See
perfbench/README.md.
"""

from __future__ import annotations

import os

# One thread everywhere: set before numpy is imported, inherited by children.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "item_p50_s": "s", "peak_rss_mb": "MB"}


def per_layer_units():
    """Every per-layer metric name -> unit, in BENCHMARK.json order."""
    import probes
    import workloads

    cfgs = list(workloads.CONFIGS)
    figs = [f"fig{fid}" for fid in range(1, 7)]
    units = {}
    for tag in cfgs + figs:
        units[f"dynamics.rhs_calls.{tag}"] = "count"
        units[f"dynamics.us_per_rhs_call.{tag}"] = "us"
    for cfg in cfgs:
        units[f"dynamics.attempts.{cfg}"] = "count"
        units[f"dynamics.conservation_suite_s.{cfg}"] = "s"
    units.update({
        "dynamics.rhs_calls_discarded": "count",
        "dynamics.useful_draw_ratio": "ratio",
        "dynamics.worst_drift_ratio": "ratio",
        "dynamics.integrate_s": "s",
        "dynamics.integrate_self_s": "s",
        "dynamics.detect_period_s": "s",
        "figures.integrate_calls": "count",
    })
    for fid in range(1, 7):
        units[f"figures.run_figure_s.{fid}"] = "s"
    units.update({
        "io.write_trajectory_csv_s": "s",
        "io.csv_bytes": "bytes",
        "io.write_meta_s": "s",
        "svg.write_projections_s": "s",
    })
    for key in (*cfgs, *workloads.FAMILY_ARGS, "op_min_100k"):
        units[f"verify.verify_system_ms.{key}"] = "ms"
    for key in workloads.DETERMINING_CONFIGS:
        units[f"verify.determining_residuals_ms.{key}"] = "ms"
    units["verify.closure_residual_ms"] = "ms"
    units["verify.rank_vote_ms"] = "ms"
    for key in ("op_min", "op_min_100k"):
        units[f"verify.closure_residual_ratio.{key}"] = "ratio"
    for cfg in cfgs:
        units[f"dynamics.scalar_rhs_us.{cfg}"] = "us"
        units[f"dynamics.eom_rhs_us_per_state.{cfg}"] = "us"
        units[f"catalog.observables_us_per_state.{cfg}"] = "us"
    for k in probes.GRADIENT_LANES:
        units[f"phase.gradient6_us_per_state.{k}"] = "us"
    units.update({
        "closedform.cartesian_state_us": "us",
        "coords.cartesian_to_chart_us": "us",
        "catalog.build_ms": "ms",
        "families.build_family_ms": "ms",
        "cli.import_s": "s",
    })
    for stem, *_ in probes.CLI_COMMANDS:
        units[f"cli.{stem}_s"] = "s"
    units["bench.trace_overhead_frac"] = "ratio"
    units["bench.span_coverage_frac"] = "ratio"
    return units


def environment():
    """What a result was measured on."""
    from importlib import metadata, util

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except OSError:
        commit = ""
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "commit": commit or "unknown",
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "sympy": version("sympy"),
        "numba_importable": util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def setup_intervals(workload):
    """perf_counter intervals from fresh interpreter start to import plus
    builds done, one per sample."""
    code = ("import sys; sys.path[:0] = [{!r}, {!r}]; import workloads; "
            "workloads.WORKLOADS[{!r}][0](); print('ready', flush=True)"
            ).format(SRC, BENCH_DIR, workload)
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            samples.append((t0, time.perf_counter()))
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up of {workload} failed (exit {proc.returncode})")
    return samples


def run_passes(run_pass, check, ctx, seconds):
    """Whole passes while another one of the last one's length still fits
    in ``seconds`` (at least one pass).  Passes and units are returned as
    perf_counter intervals, units as one list per pass."""
    passes, units, checks = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        pass_units, outputs = run_pass(ctx, len(passes))
        t1 = time.perf_counter()
        passes.append((t0, t1))
        units.append(pass_units)
        checks.extend(check(outputs))
        if t1 - start + (t1 - t0) > seconds:
            return passes, units, checks


def measure(name, seed, seconds, tmp):
    """End-to-end metrics; timings in reference seconds (see refclock.py)."""
    import workloads
    from refclock import RefClock

    _, new_ctx, run_pass, check = workloads.WORKLOADS[name]
    with RefClock() as clock:
        setups = setup_intervals(name)
        passes, units, checks = run_passes(run_pass, check, new_ctx(seed, tmp), seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def median(intervals, scale):
        return statistics.median(scale(t0, t1) for t0, t1 in intervals)

    # item_p50_s is the median over passes of each pass's median unit.
    # Every pass holds the same units, so in `verify` the median of all
    # units would fall on the edge between two configs' clusters: on the
    # slowest sweep of one config and the fastest of the next.
    def timings(scale):
        return {"setup_s": median(setups, scale), "wall_s": median(passes, scale),
                "item_p50_s": statistics.median(median(u, scale) for u in units)}

    values = dict(timings(clock.seconds), peak_rss_mb=rss_mb)
    print(f"{name}: {len(passes)} pass(es), {sum(map(len, units))} units, "
          f"{len(clock.samples)} speed samples")
    print("wall seconds, not scaled: " + ", ".join(
        f"{k} = {v:.6g} s" for k, v in timings(lambda t0, t1: t1 - t0).items()))
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, checks


def traced_pass(name, seed, tmp):
    """One traced pass: (span metrics, tracer, pass outputs, wall seconds)."""
    import workloads
    from tracer import Tracer, span_metrics

    _, new_ctx, run_pass, _ = workloads.WORKLOADS[name]
    ctx = new_ctx(seed, tmp)
    tracer = Tracer().install()
    try:
        t0 = time.perf_counter()
        _, outputs = run_pass(ctx, 0, tracer=tracer)
        wall = time.perf_counter() - t0
    finally:
        tracer.close()
    metrics = span_metrics(tracer.spans, wall, tracer.own_s)
    if name == "conserve":
        metrics["dynamics.worst_drift_ratio"] = (workloads.worst_drift_ratio(outputs), "ratio")
    if name == "verify":
        for key, ratio in outputs["known_defect_ratio"].items():
            metrics[f"verify.closure_residual_ratio.{key}"] = (ratio, "ratio")
    return metrics, tracer, outputs, wall


def measure_traced(name, seed, tmp):
    import probes
    import workloads

    check = workloads.WORKLOADS[name][3]
    metrics, tracer, outputs, _ = traced_pass(name, seed, tmp)
    checks = check(outputs)
    metrics.update(probes.layer_probes())
    if name == "verify":
        # The CLI sequence rides on the shortest traced run.
        cli_metrics, results = probes.run_cli(SRC, os.path.join(tmp, "cli"))
        metrics.update(cli_metrics)
        checks += probes.check_cli(results)
    # Exactly the declared metrics.  A layer the workload does not call
    # reads 0 (no calls, no time); one whose name is gone is left out.
    declared = {m: metrics.get(m, (0, unit)) for m, unit in per_layer_units().items()
                if tracer.measures(m)}
    return {m: vu for m, vu in declared.items() if vu[0] is not None}, checks


def main(argv=None):
    sys.path.insert(0, BENCH_DIR)
    if not os.path.isfile(os.path.join(SRC, "axisym", "__init__.py")):
        print(f"perfbench: no axisym sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.CRITERION_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # On SIGTERM unwind normally: children are killed and waited for and
    # the temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if args.trace:
            metrics, checks = measure_traced(args.workload, args.seed, tmp)
        else:
            metrics, checks = measure(args.workload, args.seed, args.seconds, tmp)

    failed = [label for label, ok in checks if not ok]
    print("env: " + json.dumps(environment(), sort_keys=True))
    for metric, (value, unit) in metrics.items():
        print(f"{metric} = {value:.6g} {unit}")
    print(f"failed_frac = {len(failed)}/{len(checks)}"
          + (f" ({', '.join(failed[:10])})" if failed else ""))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
