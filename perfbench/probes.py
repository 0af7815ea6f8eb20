"""Per-layer probes of the traced run, and the CLI command sequence.

The probes time public functions of single layers on fixed inputs, so
their numbers are there on every workload.  The CLI commands run as
sequential subprocesses, one at a time, and are checked by exit code and
by the files each must write.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

from axisym import autodiff, catalog, closedform, coords, dynamics, families, phase
import workloads

SCALAR_RHS_CALLS = 2000
GRADIENT_LANES = (1000, 100_000)
PROBE_STATES = 1000


def _per_call(fn, reps):
    t0 = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - t0) / reps


def layer_probes():
    """name -> (value, unit) for the single-layer probes."""
    out = {}
    rng = phase.make_rng(workloads.CRITERION_SEED)
    states = phase.sample_safe_states(rng, max(GRADIENT_LANES))

    t = _per_call(lambda: [catalog.build(sid, p) for sid, p in workloads.CONFIGS.values()], 5)
    out["catalog.build_ms"] = (1e3 * t / len(workloads.CONFIGS), "ms")
    fams = [workloads.chart_family(kind, a) for kind, a in workloads.FAMILY_ARGS.values()]
    t = _per_call(lambda: [families.build_family(f) for f in fams], 5)
    out["families.build_family_ms"] = (1e3 * t / len(fams), "ms")

    wide = np.asarray(states[:, :PROBE_STATES], dtype=np.longdouble)
    cols = [wide[i] for i in range(6)]
    y0 = np.ascontiguousarray(states[:, 0])
    # The single-state RHS `integrate` hands to solve_ivp.  It is private:
    # if a later change removes the factory, the metric is left out.
    make_scalar_rhs = getattr(dynamics, "_make_scalar_rhs", None)
    for key, (sid, params) in workloads.CONFIGS.items():
        spec = catalog.build(sid, params)
        t = None
        if make_scalar_rhs is not None:
            rhs = make_scalar_rhs(spec)
            t = 1e6 * _per_call(lambda: rhs(0.0, y0), SCALAR_RHS_CALLS)
        out[f"dynamics.scalar_rhs_us.{key}"] = (t, "us")
        # The array path, per state of a block.
        block = states[:, :PROBE_STATES]
        t = _per_call(lambda: dynamics.eom_rhs(spec, block), 2)
        out[f"dynamics.eom_rhs_us_per_state.{key}"] = (1e6 * t / PROBE_STATES, "us")
        t = _per_call(lambda: [autodiff.value(o.fn(cols)) for o in spec.observables()], 3)
        out[f"catalog.observables_us_per_state.{key}"] = (1e6 * t / PROBE_STATES, "us")

    h = catalog.build(*workloads.CONFIGS["op_min"]).hamiltonian.fn
    for k in GRADIENT_LANES:
        cols = [states[i, :k] for i in range(6)]
        t = _per_call(lambda: phase.gradient6(h, cols), 2)
        out[f"phase.gradient6_us_per_state.{k}"] = (1e6 * t / k, "us")

    sid, params = workloads.CONFIGS["op_min"]
    _, cs = workloads.CLOSED_FORM_CASES[closedform.OP_MIN]
    c = closedform.constants(closedform.OP_MIN, params, Lz=1.0, **cs)
    ts = np.linspace(0.0, 10.0, 200)
    t = _per_call(lambda: [closedform.cartesian_state(closedform.OP_MIN, c, params, x)
                           for x in ts], 3)
    out["closedform.cartesian_state_us"] = (1e6 * t / ts.size, "us")

    x, y, z = states[0, :PROBE_STATES], states[1, :PROBE_STATES], states[2, :PROBE_STATES]
    charts = ((coords.CIRCULAR_PARABOLIC, None), (coords.OBLATE, 1.3), (coords.PROLATE, 1.3))
    t = _per_call(lambda: [coords.cartesian_to_chart(kind, x, y, z, a) for kind, a in charts], 5)
    out["coords.cartesian_to_chart_us"] = (1e6 * t / (len(charts) * PROBE_STATES), "us")
    return out


# ------------------------------------------------------------------------ CLI

OP_PARAMS = "u1=2,u2=1.5,u3=-1,bz=7,bp=4,bs=2"

# (metric stem, arguments, expected exit code, files the command must write).
# Left out: `simulate cp_min --params u1=10,u2=1.5,u3=1,bz=2,bq=4 --ic
# 0.745,1.77,-1.02,1.333,-0.125,0.935 --t-end 50` runs for more than
# 300 s and never ends with a reason; add it once it does.
CLI_COMMANDS = (
    ("list", ["list"], 0, []),
    ("verify", ["verify", "op_min", "--params", OP_PARAMS], 0, []),
    ("verify_mutate", ["verify", "op_min", "--params", OP_PARAMS,
                       "--mutate", "u1=+0.001"], 1, []),
    ("simulate_max5", ["simulate", "max5", "--params", "u2=1.5,bz=2,n=3,m=2",
                       "--ic", "1,-1,1,1,0,0", "--t-end", "30", "--tol", "1e-12",
                       "--detect-period", "--out", "run_max5"], 0,
     ["run_max5/max5_trajectory.csv", "run_max5/max5_trajectory_meta.json"]),
    ("simulate_op_min", ["simulate", "op_min", "--params", OP_PARAMS,
                         "--t-end", "50", "--tol", "1e-12", "--out", "run_op_min"], 0,
     ["run_op_min/op_min_trajectory.csv", "run_op_min/op_min_trajectory_meta.json"]),
    ("figure6", ["figure", "6", "--out", "fig6"], 0,
     ["fig6/figure6_t8p37758.csv", "fig6/figure6_meta.json"]
     + [f"fig6/figure6_t8p37758_{v}.svg" for v in ("xy", "xz", "yz", "3d")]),
)


def run_timed(argv, cwd, env):
    """Wall time and exit code (None on timeout) of one subprocess."""
    t0 = time.perf_counter()
    try:
        code = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=120).returncode
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        code = None
    return time.perf_counter() - t0, code


def run_cli(src, outdir):
    """Time each command once; returns (metrics, check results)."""
    env = dict(os.environ, PYTHONPATH=src)
    os.makedirs(outdir, exist_ok=True)
    metrics, results = {}, []
    wall, _ = run_timed([sys.executable, "-c", "import axisym.cli"], outdir, env)
    metrics["cli.import_s"] = (wall, "s")
    for stem, args, expected, files in CLI_COMMANDS:
        wall, code = run_timed([sys.executable, "-m", "axisym.cli", *args], outdir, env)
        metrics[f"cli.{stem}_s"] = (wall, "s")
        missing = [f for f in files if not os.path.isfile(os.path.join(outdir, f))]
        results.append({"command": stem, "exit": code, "expected": expected,
                        "missing": missing})
    return metrics, results


def check_cli(results):
    return [(f"cli.{r['command']}", r["exit"] == r["expected"] and not r["missing"])
            for r in results]
