"""Reference figures: the period search forked beside the plotting run and writes."""

import dataclasses
import math
import os
import threading
import time

import pytest

from axisym import dynamics, figures, trace
from axisym import io as aio
from axisym.dynamics import PeriodReport


@pytest.fixture
def cheap_figure4(monkeypatch):
    # Figure 4's recipe on short horizons: the search still runs at its own
    # tolerance (1e-10, past 50) and the plots do not depend on it.
    recipe = dataclasses.replace(figures.RECIPES[4], detect_horizon=60.0,
                                 horizons=(3.0, 8.0))
    monkeypatch.setitem(figures.RECIPES, 4, recipe)
    return recipe


def _on_cpus(monkeypatch, n):
    # The count the process reads, not its affinity, which stays as it is.
    monkeypatch.setattr(trace, "_cpus", lambda: n)


def _without_paths(meta):
    files = [{k: v for k, v in entry.items() if k not in ("csv", "svg")}
             for entry in meta["files"]]
    return {**meta, "files": files}


def _closed_search(*args, **kwargs):
    # A stand-in search whose orbit closes: every SVG carries the annotation.
    return PeriodReport(closed=True, period=1.25, return_distance=0.0,
                        reason="completed", nfev=1, steps=1)


@pytest.mark.parametrize("closes", [False, True], ids=["open", "closed_stand_in"])
def test_forked_search_gives_the_serial_files(monkeypatch, tmp_path, cheap_figure4, forks,
                                              closes):
    if closes:
        monkeypatch.setattr(figures, "detect_period", _closed_search)
    metas = {}
    for n in (1, 2):
        _on_cpus(monkeypatch, n)
        metas[n] = figures.run_figure(4, str(tmp_path / f"cpus{n}"))
    assert len(forks) == 1
    assert _without_paths(metas[1]) == _without_paths(metas[2])
    report = metas[2]["period_report"]
    assert report["closed"] is closes
    # Both paths report the same search work, compared with the metas above.
    assert report["reason"] == "completed"
    assert report["nfev"] > 0 and report["steps"] > 0
    serial = sorted(os.listdir(tmp_path / "cpus1"))
    assert serial == sorted(os.listdir(tmp_path / "cpus2"))
    assert len(serial) == 2 * 5 + 1
    # The meta files name their directories; their dicts are compared above.
    for name in (n for n in serial if not n.endswith("_meta.json")):
        assert ((tmp_path / "cpus1" / name).read_bytes()
                == (tmp_path / "cpus2" / name).read_bytes())
    svgs = [n for n in serial if n.endswith(".svg")]
    assert [("closes near t = 1.25" in (tmp_path / "cpus2" / n).read_text())
            for n in svgs] == [closes] * 8


def test_the_plots_are_written_beside_the_search(monkeypatch, tmp_path, cheap_figure4, forks):
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform: the search runs in place first")
    if threading.active_count() != 1:
        pytest.skip("another thread is alive: the search runs in place first")
    _on_cpus(monkeypatch, 2)
    csv = tmp_path / "figure4_t3.csv"

    def waiting_search(*args, **kwargs):
        # In the child: wait a bounded time for the parent's first CSV.
        deadline = time.monotonic() + 30
        while not csv.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return PeriodReport(closed=False, period=None, return_distance=math.inf,
                            reason="csv seen" if csv.exists() else "no csv")

    monkeypatch.setattr(figures, "detect_period", waiting_search)
    meta = figures.run_figure(4, str(tmp_path))
    if not forks:
        pytest.skip("the fork failed: the search ran in place first")
    assert meta["period_report"]["reason"] == "csv seen"


def test_the_childs_exception_reaches_the_caller(monkeypatch, tmp_path, cheap_figure4, forks):
    _on_cpus(monkeypatch, 2)

    def failing_search(*args, **kwargs):
        raise ValueError("no search in the child")

    monkeypatch.setattr(figures, "detect_period", failing_search)
    with pytest.raises(ValueError, match="no search in the child"):
        figures.run_figure(4, str(tmp_path))
    assert len(forks) == 1


def test_an_exception_that_cannot_be_pickled_arrives_as_its_repr(monkeypatch, forks):
    _on_cpus(monkeypatch, 2)

    class Local(Exception):
        pass

    def fail():
        raise Local("local class")

    with pytest.raises(RuntimeError, match="Local.*local class"):
        with trace.beside(fail) as result:
            result()
    assert len(forks) == 1


@pytest.mark.parametrize("module, name", [(figures, "integrate"),
                                          (aio, "write_trajectory_csv")],
                         ids=["plotting_run", "csv_write"])
def test_an_error_in_the_parent_kills_and_reaps_the_child(monkeypatch, tmp_path,
                                                         cheap_figure4, forks,
                                                         module, name):
    _on_cpus(monkeypatch, 2)

    def endless_search(*args, **kwargs):
        time.sleep(600)

    def failing(*args, **kwargs):
        raise RuntimeError("the parent failed")

    monkeypatch.setattr(figures, "detect_period", endless_search)
    monkeypatch.setattr(module, name, failing)
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="the parent failed"):
        figures.run_figure(4, str(tmp_path))
    assert time.perf_counter() - t0 < 60
    assert len(forks) == 1
    with pytest.raises(ProcessLookupError):
        os.kill(forks[0], 0)


def test_another_live_thread_keeps_the_search_in_place(monkeypatch, tmp_path,
                                                       cheap_figure4, forks):
    _on_cpus(monkeypatch, 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        meta = figures.run_figure(4, str(tmp_path))
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert forks == []
    assert meta["period_report"]["closed"] is False


def test_a_failed_fork_runs_the_search_in_place(monkeypatch):
    _on_cpus(monkeypatch, 2)

    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    calls = []

    def search():
        calls.append(os.getpid())
        return "value"

    with trace.beside(search) as result:
        assert calls == [os.getpid()]       # ran in place, before the body
    assert result() == "value"


@pytest.mark.parametrize("tol", [1e-3, 1e-15, math.nan])
def test_a_bad_tolerance_creates_no_directory(tmp_path, tol):
    out = tmp_path / "fig6"
    with pytest.raises(ValueError, match="tol must lie in"):
        figures.run_figure(6, str(out), tol=tol)
    assert list(tmp_path.iterdir()) == []


def test_a_figure_traces_only_the_horizons_it_plots(monkeypatch, tmp_path):
    # The shared run and the search evaluate no observable: each plotted
    # horizon traces its own nodes once.  Figures 1 and 4 search in a
    # forked child, which traces nothing either.
    calls = []
    trace_all = dynamics._trace_all

    def counted(spec, states):
        calls.append(states.shape[0])
        return trace_all(spec, states)

    monkeypatch.setattr(dynamics, "_trace_all", counted)
    for fid, recipe in sorted(figures.RECIPES.items()):
        calls.clear()
        meta = figures.run_figure(fid, str(tmp_path / f"fig{fid}"))
        assert len(calls) == len(recipe.horizons) == len(meta["files"]), fid
