"""Traced 6-gradients: bit-equal to the dual-number gradient, blocked, lazy."""

import numpy as np
import pytest

from axisym import trace
from axisym.catalog import build
from axisym.families import build_family
from axisym.phase import gradient6, make_rng, sample_safe_states
from axisym.verify import bracket_residuals, functional_rank, rank_vote, verify_system

from conftest import FAMILY_ARGS, PARAMS, SYSTEM_OF, chart_family

# Fields whose gradients stay on dual numbers: Y4 of max5/max6 uses
# complex constants, the chart families' H and X1 call math functions.
UNTRACEABLE = {("max5", "Y4"), ("max6", "Y4"),
               *((key, label) for key in FAMILY_ARGS for label in ("H", "X1"))}


def _spec(key):
    if key in FAMILY_ARGS:
        return build_family(chart_family(*FAMILY_ARGS[key]))
    return build(SYSTEM_OF[key], PARAMS[key])


def _assert_same_gradient(fn, state):
    got = trace.gradient(fn, state)
    want = gradient6(fn, state)
    shape = np.shape(state[0])
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(np.broadcast_to(g, shape), np.broadcast_to(w, shape))
    return got


@pytest.mark.parametrize("key", [*PARAMS, *FAMILY_ARGS])
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_traced_gradient_equals_dual_gradient(key, dtype):
    spec = _spec(key)
    states = sample_safe_states(make_rng(41), 200).astype(dtype)
    for obs in spec.observables():
        traced = trace.traced_gradient(obs.fn) is not None
        assert traced == ((key, obs.label) not in UNTRACEABLE), (key, obs.label)
        got = _assert_same_gradient(obs.fn, list(states))
        if traced:
            assert all(g.dtype == dtype and g.shape == (200,) for g in got)


@pytest.mark.parametrize("n", [1, trace.BLOCK - 1, trace.BLOCK, trace.BLOCK + 1])
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_traced_gradient_across_block_edges(n, dtype):
    spec = build("op_min", PARAMS["op_min"])
    states = sample_safe_states(make_rng(42), n).astype(dtype)
    for obs in spec.observables():
        _assert_same_gradient(obs.fn, list(states))


def test_traced_gradient_on_one_state_of_floats():
    state = [float(v) for v in sample_safe_states(make_rng(43), 1)[:, 0]]
    for key in PARAMS:
        for obs in build(SYSTEM_OF[key], PARAMS[key]).observables():
            got = _assert_same_gradient(obs.fn, state)
            assert all(np.ndim(g) == 0 for g in got)


@pytest.mark.parametrize("key", [*PARAMS, *FAMILY_ARGS])
def test_rank_vote_is_majority_of_functional_ranks(key):
    # The criterion-6 states.
    states = sample_safe_states(make_rng(20260823 + 2), 25)
    observables = list(_spec(key).observables())
    ranks = [functional_rank(observables, states[:, i]) for i in range(25)]
    values, counts = np.unique(ranks, return_counts=True)
    assert rank_vote(observables, states) == values[np.argmax(counts)]


def test_bracket_residuals_equal_dual_reference():
    spec = build("op_min", PARAMS["op_min"])
    states = sample_safe_states(make_rng(44), 1000)
    pairs = [(g, spec.hamiltonian) for g in spec.integrals]
    pairs += [(spec.integral(a), spec.integral(b)) for a, b in spec.involutions]
    for f, g in pairs:
        gf = gradient6(f.fn, list(states))
        gg = gradient6(g.fn, list(states))
        br = 0.0
        for i in range(3):
            br = br + gf[i] * gg[i + 3] - gf[i + 3] * gg[i]
        nf = np.sqrt(sum(c ** 2 for c in gf))
        ng = np.sqrt(sum(c ** 2 for c in gg))
        want = np.abs(br) / np.maximum(nf * ng, 1e-300)
        assert np.array_equal(bracket_residuals(f, g, states), want), (f.label, g.label)


def test_reports_name_the_gradient_backend():
    reports = verify_system(build("max5", PARAMS["max5"]), samples=50,
                            rank_points=5, seed=1)
    backend = {r.check: r.gradient for r in reports}
    assert backend.pop("{Y4,H}=0") == "dual"
    assert backend.pop("functional_rank") == "dual"
    assert set(backend.values()) == {"generated"}
    family = verify_system(_spec("family_oblate"), samples=50, rank_points=5, seed=1)
    assert {r.check: r.gradient for r in family}["{X2,H}=0"] == "dual"


def test_building_specs_traces_nothing(monkeypatch):
    # Gradients are traced on first use, so building stays cheap.
    tapes = []
    init = trace._Tape.__init__

    def counting_init(self):
        tapes.append(self)
        init(self)

    monkeypatch.setattr(trace._Tape, "__init__", counting_init)
    specs = [_spec(key) for key in [*PARAMS, *FAMILY_ARGS]]
    assert tapes == []
    assert not any(obs.fn in trace._GRADIENTS
                   for spec in specs for obs in spec.observables())
