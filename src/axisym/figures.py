"""Reference trajectory recipes and their reproduction pipeline.

Six canonical runs, all started from the same state
(x, y, z, px, py, pz) = (1, -1, 1, 1, 0, 0) with canonical momenta in
the catalog gauge.  Two of them close exactly at rational multiples of
pi, two close approximately (the measured period is reported without
an exactness claim), and two do not close at all within the scanned
horizon.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Optional

from . import io as aio
from . import svg, trace
from .catalog import REFERENCE_STATE, SystemParams, build
from .dynamics import TOL_MAX, TOL_MIN, detect_period, integrate, prefix, search_period
from .phase import PhasePoint

DETECT_HORIZON_OPEN = 200.0


@dataclass(frozen=True)
class FigureRecipe:
    """One reference run: system, parameters, horizons, expected closure."""

    figure_id: int
    system_id: str
    params: SystemParams
    ic: tuple = REFERENCE_STATE
    horizons: tuple = (50.0,)          # plotted time windows
    expected_period: Optional[float] = None
    period_slack: float = 1e-4         # relative (exact) or absolute (approx)
    exact: bool = True                 # exact rational-multiple-of-pi closure
    detect_horizon: float = DETECT_HORIZON_OPEN
    tol_return: float = 1e-4


RECIPES = {
    1: FigureRecipe(
        figure_id=1, system_id="op_min",
        params=SystemParams(u1=2, u2=1.5, u3=-1, bz=7, bp=4, bs=2),
        horizons=(2.0, 7.0, 50.0), expected_period=None,
    ),
    2: FigureRecipe(
        figure_id=2, system_id="op_min",
        params=SystemParams(u1=1, u2=1.5, u3=-1, bz=2, bp=4, bs=2),
        horizons=(18.85,), expected_period=18.85, period_slack=0.05,
        exact=False, detect_horizon=25.0, tol_return=1e-3,
    ),
    3: FigureRecipe(
        figure_id=3, system_id="max5",
        params=SystemParams(u2=1.5, bz=2, n=3, m=2),
        horizons=(8.0 * math.pi,), expected_period=8.0 * math.pi,
        detect_horizon=30.0,
    ),
    4: FigureRecipe(
        figure_id=4, system_id="cp_min",
        params=SystemParams(u1=10, u2=1.5, u3=1, bz=2, bq=4),
        horizons=(3.0, 8.0, 50.0), expected_period=None,
    ),
    5: FigureRecipe(
        figure_id=5, system_id="cp_min",
        params=SystemParams(u1=1, u2=1.5, u3=0.5, bz=4),
        horizons=(12.57,), expected_period=12.57, period_slack=0.05,
        exact=False, detect_horizon=20.0, tol_return=1e-3,
    ),
    6: FigureRecipe(
        figure_id=6, system_id="max6",
        params=SystemParams(bz=3, n=1, m=2),
        horizons=(8.0 * math.pi / 3.0,), expected_period=8.0 * math.pi / 3.0,
        detect_horizon=12.0,
    ),
}


@functools.lru_cache(maxsize=None)
def _spec(system_id: str, params: SystemParams):
    """One built spec per recipe system, so its traced programs are kept."""
    return build(system_id, params)


def run_figure(figure_id: int, outdir: str, tol: float = 1e-12) -> dict:
    """Reproduce one reference figure: CSV, SVG projections, meta JSON.

    ``tol`` must lie in ``[TOL_MIN, TOL_MAX]`` of
    :mod:`axisym.dynamics` (ValueError, before ``outdir`` is made).  The
    period search runs at ``max(tol, 1e-12)`` on horizons up to 50 and at
    ``max(tol, 1e-10)`` beyond.  Each plotted horizon is a
    :func:`~axisym.dynamics.prefix` of one dense run at ``tol``, so a
    plotted CSV differs from a separate run to that horizon only on that
    run's last step.  The run evaluates no traces: each prefix traces
    the nodes it plots.  When the search tolerance equals ``tol`` the
    same run, made to the longest of the search and plotted horizons,
    also serves the search; otherwise
    :func:`~axisym.dynamics.detect_period` makes its own run.  With more
    than one plotted horizon (figures 1 and 4) the plots do not depend on
    the search, which then runs in a forked child where ``os.fork`` and
    at least 2 CPUs are available: the parent makes the plotting run and
    writes every CSV and SVG beside it, then waits for the report and,
    only if the orbit closes, writes the SVGs again with the closure
    annotation.  The files and the report are those of a serial run, but
    a search that raises leaves the CSV and SVG files without a meta
    JSON.  Returns the meta dictionary, period report included.
    """
    recipe = RECIPES[figure_id]
    if not (TOL_MIN <= tol <= TOL_MAX):     # NaN fails too
        raise ValueError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}]")
    spec = _spec(recipe.system_id, recipe.params)
    ic = PhasePoint.from_state(recipe.ic)
    aio.ensure_dir(outdir)

    meta = {
        "figure": figure_id,
        "system_id": recipe.system_id,
        "params": recipe.params.as_dict(),
        "ic": list(recipe.ic),
        "tol": tol,
        "momenta": "canonical",
        "expected_period": recipe.expected_period,
        "files": [],
    }

    def write_svgs(base, traj, report):
        annotation = None
        if report is not None and report.closed:
            annotation = f"closes near t = {report.period:.6g}"
        return svg.write_projections(
            base, traj.states[:, :3],
            title=f"reference trajectory {figure_id}", annotation=annotation)

    def write_plots(run, t_ends, report):
        """Each horizon's CSV and SVGs; returns the (base path, prefix) pairs."""
        plots = []
        for horizon, t_end in zip(recipe.horizons, t_ends):
            traj = prefix(spec, run, t_end)
            base = os.path.join(outdir, f"figure{figure_id}_t{horizon:g}".replace(".", "p"))
            labels = aio.write_trajectory_csv(base + ".csv", traj.times, traj.states,
                                              traj.traces)
            meta["files"].append({"csv": base + ".csv",
                                  "svg": write_svgs(base, traj, report),
                                  "columns": ["t", "x", "y", "z", "px", "py", "pz", *labels],
                                  "t_end": t_end})
            plots.append((base, traj))
        return plots

    run = plots = None
    t_ends = list(recipe.horizons)
    detect_tol = max(tol, 1e-12 if recipe.detect_horizon <= 50 else 1e-10)
    search = functools.partial(detect_period, spec, ic, recipe.detect_horizon,
                               tol_return=recipe.tol_return, tol=detect_tol)
    if detect_tol == tol:
        run = integrate(spec, ic, max(recipe.detect_horizon, *t_ends), tol=tol,
                        traced=False)
        report = search_period(prefix(spec, run, recipe.detect_horizon, traced=False),
                               recipe.tol_return)
    elif len(t_ends) > 1:
        # Only the SVG annotation reads the report: write every file while
        # the search runs, and annotate the SVGs afterwards if it closes.
        with trace.beside(search) as searched:
            plots = write_plots(integrate(spec, ic, max(t_ends), tol=tol, traced=False),
                                t_ends, None)
            report = searched()
        if report.closed:
            for base, traj in plots:
                write_svgs(base, traj, report)
    else:
        report = search()
    meta["period_report"] = report.as_dict()

    if plots is None:
        # Plot the measured period when the expected value is approximate.
        if report.closed and len(t_ends) == 1:
            t_ends = [report.period]
        if run is None:
            run = integrate(spec, ic, max(t_ends), tol=tol, traced=False)
        write_plots(run, t_ends, report)

    aio.write_meta(os.path.join(outdir, f"figure{figure_id}_meta.json"), meta)
    return meta
