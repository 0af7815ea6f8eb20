"""Reference figures: the period search forked beside the plotting run."""

import dataclasses
import os
import threading
import time

import pytest

from axisym import figures, trace


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


def test_forked_search_gives_the_serial_files(monkeypatch, tmp_path, cheap_figure4, forks):
    metas = {}
    for n in (1, 2):
        _on_cpus(monkeypatch, n)
        metas[n] = figures.run_figure(4, str(tmp_path / f"cpus{n}"))
    assert len(forks) == 1
    assert _without_paths(metas[1]) == _without_paths(metas[2])
    assert metas[2]["period_report"]["closed"] is False
    serial = sorted(os.listdir(tmp_path / "cpus1"))
    assert serial == sorted(os.listdir(tmp_path / "cpus2"))
    assert len(serial) == 2 * 5 + 1
    # The meta files name their directories; their dicts are compared above.
    for name in (n for n in serial if not n.endswith("_meta.json")):
        assert ((tmp_path / "cpus1" / name).read_bytes()
                == (tmp_path / "cpus2" / name).read_bytes())


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


def test_an_error_in_the_parent_kills_and_reaps_the_child(monkeypatch, tmp_path,
                                                         cheap_figure4, forks):
    _on_cpus(monkeypatch, 2)

    def endless_search(*args, **kwargs):
        time.sleep(600)

    def failing_integrate(*args, **kwargs):
        raise RuntimeError("plotting run failed")

    monkeypatch.setattr(figures, "detect_period", endless_search)
    monkeypatch.setattr(figures, "integrate", failing_integrate)
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="plotting run failed"):
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
