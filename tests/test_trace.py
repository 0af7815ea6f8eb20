"""Traced programs: bit-equal to dual numbers and direct values, blocked, lazy."""

import dataclasses

import numpy as np
import pytest

from axisym import autodiff as ad
from axisym import trace, verify
from axisym.catalog import build, op_closure_polynomial
from axisym.families import build_family
from axisym.phase import (
    EvaluationError,
    Observable,
    gradient6,
    make_rng,
    sample_safe_states,
)
from axisym.verify import (
    bracket_residuals,
    closure_residual,
    functional_rank,
    rank_vote,
    verify_system,
)

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
    states = sample_safe_states(make_rng(44), 1000)
    for key in PARAMS:
        spec = _spec(key)
        pairs = [(g, spec.hamiltonian) for g in spec.integrals]
        pairs += [(spec.integral(a), spec.integral(b)) for a, b in spec.involutions]
        for f, g in pairs:
            traced = verify._bracket_program(f.fn, g.fn) is not None
            assert traced == ((key, f.label) not in UNTRACEABLE), (key, f.label)
            gf = gradient6(f.fn, list(states))
            gg = gradient6(g.fn, list(states))
            br = 0.0
            for i in range(3):
                br = br + gf[i] * gg[i + 3] - gf[i + 3] * gg[i]
            nf = np.sqrt(sum(c ** 2 for c in gf))
            ng = np.sqrt(sum(c ** 2 for c in gg))
            want = np.abs(br) / np.maximum(nf * ng, 1e-300)
            assert np.array_equal(bracket_residuals(f, g, states), want), (key, f.label, g.label)


def _mutated(spec):
    base = op_closure_polynomial(spec.params)

    def mutated(H, X1, X2, Y3):
        return base(H, X1, X2, Y3) + 0.01 * H * X1 * Y3
    return mutated


def _closure_reference(spec, states, poly):
    state = list(states.astype(np.longdouble))
    x1, x2, y3 = (spec.integral(k) for k in ("X1", "X2", "Y3"))
    gf, gg = gradient6(x1.fn, state), gradient6(y3.fn, state)
    br = 0.0
    for i in range(3):
        br = br + gf[i] * gg[i + 3] - gf[i + 3] * gg[i]
    values = [ad.value(o.fn(state)) for o in (spec.hamiltonian, x1, x2, y3)]
    return br ** 2, poly(*values)


@pytest.mark.parametrize("n", [1, trace.BLOCK - 1, trace.BLOCK, trace.BLOCK + 1])
@pytest.mark.parametrize("key", ["op_min", "op_min_mutated", "cp_min_bq", "cp_min_bz"])
def test_closure_equals_dual_reference(key, n):
    spec = _spec(key.removesuffix("_mutated"))
    poly = _mutated(spec) if key.endswith("_mutated") else spec.closure
    states = sample_safe_states(make_rng(45), n)
    want_lhs, want_rhs = _closure_reference(spec, states, poly)
    lhs, rhs, backend = verify._closure_sides(spec, states, poly)
    assert backend == "generated"
    assert lhs.dtype == rhs.dtype == np.longdouble
    assert np.array_equal(lhs, want_lhs) and np.array_equal(rhs, want_rhs)
    rep = closure_residual(spec, states, poly=poly)
    assert np.array_equal(rep.lhs, want_lhs.astype(float))
    assert np.array_equal(rep.rhs, want_rhs.astype(float))
    assert rep.gradient == "generated"


def _with_untraceable_h(spec):
    # H + 0 * sqrt(x^2): the same values, but sqrt cannot be traced.
    H = spec.hamiltonian.fn
    return dataclasses.replace(
        spec, meta={},
        hamiltonian=Observable(lambda s: H(s) + 0.0 * ad.sqrt(s[0] * s[0]), "H", 2))


def test_untraceable_checks_fall_back_to_duals_with_the_same_results():
    spec = _spec("op_min")
    slow = _with_untraceable_h(spec)
    states = sample_safe_states(make_rng(46), 300)
    traced, fallback = closure_residual(spec, states), closure_residual(slow, states)
    assert (traced.gradient, fallback.gradient) == ("generated", "dual")
    assert np.array_equal(traced.lhs, fallback.lhs)
    assert np.array_equal(traced.rhs, fallback.rhs)
    x1 = spec.integral("X1")
    assert verify._bracket_program(x1.fn, slow.hamiltonian.fn) is None
    assert np.array_equal(bracket_residuals(x1, spec.hamiltonian, states),
                          bracket_residuals(x1, slow.hamiltonian, states))
    # Reports name the path that ran, though X1's and Y3's gradients are traced.
    backend = {r.check: r.gradient for r in verify_system(slow, samples=50, rank_points=5)}
    assert backend["closure"] == backend["{X1,H}=0"] == "dual"
    assert backend["{X1,X2}=0"] == "generated"


def test_tape_emits_integer_powers_only():
    tape = trace._Tape()
    v = trace._Var(tape, "y0")
    assert (v ** 2).name == "v0" and tape.lines[-1][1] == "y0 ** 2"
    for bad in (0.5, 2.0, True, np.int64(2), v):
        with pytest.raises(TypeError):
            v ** bad
    with pytest.raises(TypeError):
        2.0 ** v
    cube = trace.straight_line(lambda t, y: (y[0] ** 3 - y[1] ** -1,), "cube", inputs=2)
    rows = np.linspace(0.5, 2.0, 7)
    assert cube(0.0, (1.5, 4.0)) == 1.5 ** 3 - 4.0 ** -1
    assert np.array_equal(cube(0.0, (rows, rows[::-1])), rows ** 3 - rows[::-1] ** -1)


@pytest.mark.parametrize("key", PARAMS)
def test_eval_runs_traced_value_equal_to_fn(key):
    spec = _spec(key)
    rows = sample_safe_states(make_rng(47), 200)
    for obs in spec.observables():
        traced = trace.traced_value(obs.fn) is not None
        assert traced == ((key, obs.label) not in UNTRACEABLE), (key, obs.label)
        for column in rows.T:
            for state in (column.tolist(), list(column)):
                assert obs.eval(state) == float(ad.value(obs.fn(state))), (key, obs.label)


def test_eval_on_the_axis_raises_evaluation_error():
    x1 = _spec("op_min").integral("X1")
    assert trace.traced_value(x1.fn) is not None
    on_axis = [0.0, 0.0, 1.0, 0.1, 0.2, 0.3]
    with pytest.raises(EvaluationError):
        x1.eval(on_axis)
    with pytest.raises(EvaluationError), np.errstate(divide="ignore", invalid="ignore"):
        x1.eval(np.array(on_axis))


def test_untraceable_fields_keep_the_dual_path():
    fields = [(key, obs) for key in [*PARAMS, *FAMILY_ARGS]
              for obs in _spec(key).observables() if (key, obs.label) in UNTRACEABLE]
    assert {(key, obs.label) for key, obs in fields} == UNTRACEABLE
    for key, obs in fields:
        assert trace.traced_value(obs.fn) is None
        assert trace.traced_gradient(obs.fn) is None
        assert verify._bracket_program(obs.fn, _spec(key).integrals[-1].fn) is None


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
    fns = [obs.fn for spec in specs for obs in spec.observables()]
    caches = (trace._GRADIENTS, trace._VALUES, verify._BRACKETS)
    assert not any(fn in cache for fn in fns for cache in caches)
    assert not any(spec.closure in verify._POLYNOMIALS for spec in specs if spec.closure)
    assert not any("_closure" in spec.meta for spec in specs)
