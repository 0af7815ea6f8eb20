"""Traced programs: bit-equal to dual numbers and direct values, blocked, lazy."""

import ast
import collections
import dataclasses
import gc
import os
import re
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from axisym import autodiff as ad
from axisym import trace, verify
from axisym.catalog import build, op_closure_polynomial
from axisym.closedform import CP_BL, CP_MIN, OP_MIN, cartesian_state, constants
from axisym.dynamics import _make_scalar_rhs, integrate
from axisym.families import build_family
from axisym.phase import (
    EvaluationError,
    Observable,
    PhasePoint,
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

from conftest import FAMILY_ARGS, PARAMS, SYSTEM_OF, chart_family, value_branch

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
        got = _assert_same_gradient(obs.fn, list(states))
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


def _dual_bracket_residuals(f, g, states):
    gf = gradient6(f.fn, list(states))
    gg = gradient6(g.fn, list(states))
    br = 0.0
    for i in range(3):
        br = br + gf[i] * gg[i + 3] - gf[i + 3] * gg[i]
    nf = np.sqrt(sum(c ** 2 for c in gf))
    ng = np.sqrt(sum(c ** 2 for c in gg))
    return np.abs(br) / np.maximum(nf * ng, 1e-300)


def test_bracket_residuals_equal_dual_reference():
    states = sample_safe_states(make_rng(44), 1000)
    for key in PARAMS:
        spec = _spec(key)
        pairs = [(g, spec.hamiltonian) for g in spec.integrals]
        pairs += [(spec.integral(a), spec.integral(b)) for a, b in spec.involutions]
        for f, g in pairs:
            assert np.array_equal(bracket_residuals(f, g, states),
                                  _dual_bracket_residuals(f, g, states)), (key, f.label, g.label)


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


def _assert_sides_equal_reference(spec, states, poly):
    """The closure programs on long-double states give the long-double
    reference bit for bit; on float64 states they give it rounded to
    float64 block by block.  Returns those float64 sides."""
    want_lhs, want_rhs = _closure_reference(spec, states, poly)
    lhs, rhs = verify._closure_sides(spec, states.astype(np.longdouble), poly)
    assert lhs.dtype == rhs.dtype == np.longdouble
    assert np.array_equal(lhs, want_lhs) and np.array_equal(rhs, want_rhs)
    lhs, rhs = verify._closure_sides(spec, states, poly)
    assert lhs.dtype == rhs.dtype == np.float64
    assert np.array_equal(lhs, want_lhs.astype(float))
    assert np.array_equal(rhs, want_rhs.astype(float))
    return lhs, rhs


@pytest.mark.parametrize("n", [1, trace.BLOCK - 1, trace.BLOCK, trace.BLOCK + 1])
@pytest.mark.parametrize("key", ["op_min", "op_min_mutated", "cp_min_bq", "cp_min_bz"])
def test_closure_equals_dual_reference(key, n):
    spec = _spec(key.removesuffix("_mutated"))
    poly = _mutated(spec) if key.endswith("_mutated") else spec.closure
    states = sample_safe_states(make_rng(45), n)
    lhs, rhs = _assert_sides_equal_reference(spec, states, poly)
    rep = closure_residual(spec, states, poly=poly)
    assert np.array_equal(rep.lhs, lhs) and np.array_equal(rep.rhs, rhs)


def _with_h(spec, H):
    return dataclasses.replace(spec, hamiltonian=Observable(H, "H", 2))


def _branching(obs):
    # The same values as ``obs``, but it branches on a value: it cannot be traced.
    return Observable(lambda s: obs.fn(s) + value_branch(s[0]), obs.label, obs.momentum_order)


def _with_branching_h(spec):
    return dataclasses.replace(spec, hamiltonian=_branching(spec.hamiltonian))


def _with_sqrt_h(spec):
    # H plus a term that calls sqrt, which the tape records.
    H = spec.hamiltonian.fn
    return _with_h(spec, lambda s: H(s) + 0.1 * ad.sqrt(s[0] * s[0] + s[1] * s[1]))


def _raises_naming(tag, call):
    """``call()`` raises TypeError naming the compile tag ``tag`` and
    leaves the program cache as it was."""
    gc.collect()        # no entry of an earlier test dies during the call
    before = dict(trace._CACHE)
    with pytest.raises(TypeError, match=re.escape(f"<{tag}>")):
        call()
    assert trace._CACHE == before


def test_a_field_that_cannot_be_traced_raises_naming_its_program():
    spec = _spec("op_min")
    y0 = sample_safe_states(make_rng(55), 1)[:, 0]
    W = spec.potential_sw
    branching_w = dataclasses.replace(spec, potential_sw=lambda s, w: W(s, w) + value_branch(s))
    _raises_naming("rhs op_min", lambda: integrate(branching_w, y0, 0.1))
    # The RHS is traced from g and W, so it traces; H is not.
    branching_h = _with_branching_h(spec)
    _make_scalar_rhs(branching_h)
    h = branching_h.hamiltonian
    _raises_naming(f"value {trace.name_of(h.fn)}", lambda: integrate(branching_h, y0, 0.1))
    _raises_naming(f"value {trace.name_of(h.fn)}", lambda: h.eval(y0))
    x1 = _branching(spec.integral("X1"))
    _raises_naming(f"bracket {trace.name_of(x1.fn)} {trace.name_of(spec.hamiltonian.fn)}",
                   lambda: verify.is_integral(spec, x1, samples=5))
    states = sample_safe_states(make_rng(55), 5)
    _raises_naming("closure op_min", lambda: closure_residual(branching_h, states))
    good = verify.y3_quadratic_ansatz(spec)
    branching = dataclasses.replace(good, s1=lambda x, y, z: good.s1(x, y, z) + value_branch(x))
    _raises_naming(f"determining {trace.name_of(spec.W)}",
                   lambda: verify.determining_residuals(branching, spec.B, spec.W,
                                                        verify.safe_grid(2)))

    # abs of a dual branches on the sign of its value, which a traced
    # value does not have: TypeError, not AttributeError.
    def abs_tangent(t, y):
        return (abs(ad.Dual(y[0], 1.0)).im,)
    _raises_naming("abs", lambda: trace.cached_program((abs_tangent,), abs_tangent, "abs"))


def test_math_function_checks_run_generated_code_equal_to_duals():
    spec = _with_sqrt_h(_spec("op_min"))
    states = sample_safe_states(make_rng(46), 300)
    _assert_sides_equal_reference(spec, states, spec.closure)
    x1 = spec.integral("X1")
    assert np.array_equal(bracket_residuals(x1, spec.hamiltonian, states),
                          _dual_bracket_residuals(x1, spec.hamiltonian, states))
    # Every check of the sweep traces, or the sweep would raise TypeError.
    verify_system(spec, samples=50, rank_points=5)


def _program_values(spec, states):
    """Closure sides, scalar H and RHS of ``spec``, each from its own program."""
    y = tuple(states[:, 0].tolist())
    lhs, rhs = verify._closure_sides(spec, states, spec.closure)
    H = trace.traced_value(spec.hamiltonian.fn)
    return lhs, rhs, H(0.0, y), _make_scalar_rhs(spec)(0.0, y)


@pytest.mark.parametrize("first", ["original", "replaced"])
def test_a_replaced_spec_runs_its_own_programs(first):
    # Whichever spec traces its programs first, the other one runs its own.
    original = _spec("op_min")
    h3 = build("op_min", dataclasses.replace(PARAMS["op_min"], u1=3.0)).hamiltonian
    replaced = dataclasses.replace(original, hamiltonian=h3)
    states = sample_safe_states(make_rng(49), 50)
    # The same fields, never traced for another spec.
    reference = {"original": _spec("op_min"),
                 "replaced": dataclasses.replace(_spec("op_min"), hamiltonian=h3)}
    specs = {"original": original, "replaced": replaced}
    order = [first, *({"original", "replaced"} - {first})]
    got = {}
    for key in order:
        got[key] = _program_values(specs[key], states)
    assert replaced.meta is not original.meta
    for key in order:
        want = _program_values(reference[key], states)
        for g, w in zip(got[key], want, strict=True):
            assert np.array_equal(g, w), key
    # The two H differ, so a shared program would have shown.
    assert got["original"][2] != got["replaced"][2]
    assert not np.array_equal(got["original"][1], got["replaced"][1])
    # Replacing a spec that holds programs drops them, and keeps the rest of meta.
    again = dataclasses.replace(replaced, claimed_rank=replaced.claimed_rank)
    assert again.meta == {k: v for k, v in replaced.meta.items() if not k.startswith("_")}


def _math_functions():
    """autodiff's function for each entry of its table, by ``math`` name,
    with the entry's ufunc."""
    return {m.__name__: (getattr(ad, m.__name__), u) for u, m in ad.FUNCTIONS.items()}


def _arguments(f, nargs):
    """Floats, ints and float64 scalars on which ``f`` is defined, as tuples."""
    grid, ints = [v / 4.0 for v in range(-12, 13)], list(range(-3, 4))
    if nargs == 1:
        cases = [[x] for x in grid + ints]
    else:
        cases = [[x, y] for x in grid[::3] for y in grid[::3]]
        cases += [[x, y] for x in ints for y in ints]
    cases += [[np.float64(v) for v in c] for c in cases if isinstance(c[0], float)]
    out = []
    for c in cases:
        try:
            f(*c)
        except ValueError:
            continue
        out.append(tuple(c))
    return out


def test_every_autodiff_math_function_traces_bit_for_bit():
    functions = _math_functions()
    assert functions.keys() == {"sqrt", "exp", "log", "sin", "cos", "tan", "sinh", "cosh",
                                "atan", "asin", "acos", "asinh", "atan2", "floor"}
    assert trace.FUNCTIONS is ad.FUNCTIONS
    for name, (f, ufunc) in functions.items():
        nargs = f.__code__.co_argcount
        # Traced, the function is one call of its own ufunc.
        source = trace._trace(lambda t, y: (f(*y),), False, nargs)
        assert f"= {ufunc.__name__}(y0" in source, (name, source)
        program = trace.straight_line(lambda t, y: (f(*y),), f"fn {name}", inputs=nargs)
        cases = _arguments(f, nargs)
        assert len(cases) > 10, name
        for args in cases:
            got, want = program(0.0, args), f(*args)
            assert type(got) is type(want) and repr(got) == repr(want), (name, args)
        floats = [c for c in cases if type(c[0]) is float]
        for dtype in (np.float64, np.longdouble):
            rows = tuple(np.array([c[i] for c in floats], dtype=dtype) for i in range(nargs))
            with np.errstate(all="ignore"):
                got, want = program(0.0, rows), f(*rows)
            assert got.dtype == want.dtype == dtype, name
            assert np.array_equal(got, want, equal_nan=True), (name, dtype)


def test_programs_without_math_functions_are_returned_unwrapped():
    plain = trace.straight_line(lambda t, y: (y[0] * y[1],), "plain", inputs=2)
    assert plain.__code__.co_filename == "<plain>"
    calls = trace.straight_line(lambda t, y: (y[0] * 0.0 * ad.sqrt(y[1]),), "dead", inputs=2)
    assert calls.__code__.co_filename == "<dead>"      # the sqrt line is dead
    with pytest.raises(TypeError):
        trace.straight_line(lambda t, y: (np.expm1(y[0]),), "expm1", inputs=1)
    with pytest.raises(TypeError):
        trace.straight_line(lambda t, y: (np.float64(2.0) < y[0],), "less", inputs=1)
    # Numpy scalar constants trace like floats.
    scaled = trace.straight_line(lambda t, y: (np.float64(2.0) * y[0] - np.float64(1.0),),
                                 "scaled", inputs=1)
    assert scaled(0.0, (3.0,)) == 5.0


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


def test_exact_powers_fold_on_the_tape(monkeypatch):
    # v ** 1 is v and v ** 0 is 1.0 on every input, NaN and infinities
    # included, so neither reaches numpy's power loop.  Dual.__pow__
    # writes the derivative of a square as 2 * re ** 1 * im.
    sources = _compiled_sources(monkeypatch)

    def field(s):
        return s[0] ** 2 * s[1] ** 1 + s[2] ** 0 * s[3] - s[4] ** 2 * s[5] ** 2

    rows = sample_safe_states(make_rng(44), 50)
    for state in ([float(v) for v in rows[:, 0]], list(rows), list(rows.astype(np.longdouble))):
        _assert_same_gradient(field, state)
    (source,) = [s for tag, s in sources.items() if tag.startswith("<grad") and "field" in tag]
    assert "** 2" in source and not re.search(r"\*\* *\(?-?[01]\b", source)


def _powers_other_than_2(sources: list) -> list:
    """(tag, exponent) of each ``** n`` with n other than 2 in the
    (tag, source) pairs ``sources``."""
    return sorted({(tag, n) for tag, source in sources
                   for n in re.findall(r"\*\* *\(?(-?\d+)", source) if n != "2"})


def test_no_program_takes_a_power_above_two(monkeypatch):
    # Numpy's long-double power other than a square is glibc powl: per
    # 4096 columns, ** 4 took 1.47 ms and a multiply 15 us.  The fields
    # write such powers as products, so no traced program runs one.
    # Every source is kept: configs of one system share compile tags.
    sources = []

    def recording(source, filename, mode):
        sources.append((filename, source))
        return compile(source, filename, mode)

    monkeypatch.setattr(trace, "compile", recording, raising=False)
    states = sample_safe_states(make_rng(45), 4)
    for key in [*PARAMS, *FAMILY_ARGS]:
        spec = _spec(key)
        verify_system(spec, samples=4, rank_points=3, seed=1)
        if spec.closure is not None:
            closure_residual(spec, states)
            verify.determining_residuals(verify.y3_quadratic_ansatz(spec), spec.B, spec.W,
                                         verify.safe_grid(2))
        integrate(spec, states[:, 0], 0.05)
    for kind, key, Lz, cs in ((OP_MIN, "op_min", 1.0, (0.5, 0.3, 0.4, -0.2, 0.2)),
                              (CP_MIN, "cp_min_bq", 1.0, (0.4, -0.5, 0.3, 0.7, 0.1)),
                              (CP_BL, "cp_min_bl", 1.2, (0.3, 0.2, 0.5, -0.4, 0.3))):
        c = constants(kind, PARAMS[key], *cs, Lz=Lz)
        cartesian_state(kind, c, PARAMS[key], 0.1)
    tags = {tag.split()[0] for tag, _ in sources}
    assert {"<rhs", "<grad", "<value", "<bracket", "<closure", "<poly", "<determining",
            "<closed"} <= tags, tags
    assert _powers_other_than_2(sources) == []
    # Control: a closure polynomial with a fourth power is flagged.
    sources.clear()
    spec = _spec("op_min")
    closure_residual(spec, states, poly=lambda H, X1, X2, Y3: (
        spec.closure(H, X1, X2, Y3) - X2 ** 2 * X2 ** 2 + X2 ** 4))
    assert [n for _, n in _powers_other_than_2(sources)] == ["4"]


def _paren_depth(line: str) -> int:
    depth = deepest = 0
    for c in line:
        depth += (c == "(") - (c == ")")
        deepest = max(deepest, depth)
    return deepest


def test_a_deep_chain_of_values_read_once_is_cut_into_lines():
    # Horner's rule for a polynomial of degree 1000: 2000 operations, each
    # read once by the next.
    coefficients = [1.0 + k / 997.0 for k in range(1001)]

    def horner(t, y):
        p = coefficients[0]
        for c in coefficients[1:]:
            p = p * y[0] + c
        return (p,)

    program = trace.cached_program((horner,), horner, "horner", inputs=1)
    lines = trace._trace(horner, True, 1).splitlines()
    assert len([s for s in lines if " = " in s]) <= 2000 // trace.NEST_DEPTH + 2
    assert max(map(_paren_depth, lines)) <= trace.NEST_DEPTH
    for x in (-1.1, -0.3, 0.0, 0.5, 0.999):
        assert repr(program(0.0, (x,))) == repr(horner(0.0, (x,))[0])
    for dtype in (np.float64, np.longdouble):
        row = np.linspace(-1.1, 1.1, 301, dtype=dtype)
        got, want = program(0.0, (row,)), horner(0.0, (row,))[0]
        assert got.dtype == want.dtype == dtype and np.array_equal(got, want)


def _assert_names_freed(source: str):
    """Each name is assigned before it is read and not read after its
    ``del``; every local that is not an output is deleted."""
    (fn,) = ast.parse(source).body
    assigned, deleted = set(), set()

    def reads(node):
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                yield n.id

    for stmt in fn.body:
        for name in reads(stmt):
            if name in trace._ROW_FUNCTIONS and name not in assigned:
                continue        # a math function
            assert name in assigned | {"y"} and name not in deleted, (name, ast.unparse(stmt))
        if isinstance(stmt, ast.Assign):
            (target,) = stmt.targets
            names = [target] if isinstance(target, ast.Name) else target.elts
            assert not {n.id for n in names} & assigned
            assigned |= {n.id for n in names}
        elif isinstance(stmt, ast.Delete):
            names = {n.id for n in stmt.targets}
            assert names <= assigned and not names & deleted
            deleted |= names
    outputs = set(reads(fn.body[-1]))
    assert isinstance(fn.body[-1], ast.Return)
    assert assigned - outputs == deleted


def _compiled_sources(monkeypatch) -> dict:
    """Compile tag -> source of each program traced from now on."""
    sources = {}

    def recording(source, filename, mode):
        sources[filename] = source
        return compile(source, filename, mode)

    monkeypatch.setattr(trace, "compile", recording, raising=False)
    return sources


def _live_rows(source: str) -> int:
    """Static peak of the named rows a generated program holds: names
    assigned and not yet deleted, its inputs included."""
    (fn,) = ast.parse(source).body
    live, peak = set(), 0
    for stmt in fn.body:
        if isinstance(stmt, ast.Assign):
            (target,) = stmt.targets
            names = [target] if isinstance(target, ast.Name) else target.elts
            live |= {n.id for n in names}
            peak = max(peak, len(live))
        elif isinstance(stmt, ast.Delete):
            live -= {n.id for n in stmt.targets}
    return peak


def test_freeing_programs_delete_every_local_after_its_reads(monkeypatch):
    sources = _compiled_sources(monkeypatch)
    states = sample_safe_states(make_rng(5), 50)
    closure_residual(build("op_min", PARAMS["op_min"]), states)
    family = build_family(chart_family(*FAMILY_ARGS["family_prolate"]))
    bracket_residuals(family.integral("X1"), family.hamiltonian, states)
    closure = sources["<closure op_min>"]
    (bracket,) = [s for tag, s in sources.items() if tag.startswith("<bracket")]
    assert "sqrt(" in bracket
    for source in (closure, bracket):
        _assert_names_freed(source)
        assert "((" in source              # values read once are nested


def test_freeing_programs_name_a_value_whose_reads_free_rows(monkeypatch):
    # A value read once stays a named line where two or more rows are read
    # for the last time in it, so they are freed there, not at its reader
    # (Sethi & Ullman, JACM 17, 1970).  Nested everywhere, the closure
    # program held 67 rows at once; with one line per operation, 51.
    sources = _compiled_sources(monkeypatch)
    spec = build("op_min", PARAMS["op_min"])
    closure_residual(spec, sample_safe_states(make_rng(5), 50))
    _make_scalar_rhs(spec)
    assert _live_rows(sources["<closure op_min>"]) <= 51
    # A program that frees nothing, the integrator's RHS, nests every
    # value read once: each named local that is not an output is read
    # twice or more.
    (fn,) = ast.parse(sources["<rhs op_min>"]).body
    assert not any(isinstance(stmt, ast.Delete) for stmt in fn.body)
    reads = collections.Counter(n.id for n in ast.walk(fn)
                                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
    outputs = {n.id for n in ast.walk(fn.body[-1]) if isinstance(n, ast.Name)}
    named = {t.id for stmt in fn.body[1:-1] for t in stmt.targets}
    assert named and all(reads[v] >= 2 for v in named - outputs)


@pytest.mark.parametrize("key", [*PARAMS, *FAMILY_ARGS])
def test_eval_runs_traced_value_equal_to_fn(key):
    spec = _spec(key)
    rows = sample_safe_states(make_rng(47), 200)
    for obs in spec.observables():
        for column in rows.T:
            for state in (column, PhasePoint.from_state(column), column.tolist(),
                          list(column)):
                # An array is read as float64 scalars, as fn reads it.
                want = ad.value(obs.fn(state if isinstance(state, list) else list(column)))
                assert obs.eval(state) == float(want), (key, obs.label)


def test_eval_on_the_axis_raises_evaluation_error():
    x1 = _spec("op_min").integral("X1")
    on_axis = [0.0, 0.0, 1.0, 0.1, 0.2, 0.3]
    with pytest.raises(EvaluationError):
        x1.eval(on_axis)
    with pytest.raises(EvaluationError), np.errstate(divide="ignore", invalid="ignore"):
        x1.eval(np.array(on_axis))


def test_reports_name_the_gradient_backend():
    # Every check runs traced code, and every report of max5 and of a
    # chart family passes.
    reports = verify_system(build("max5", PARAMS["max5"]), samples=50,
                            rank_points=5, seed=1)
    assert reports and all(r.passed for r in reports)
    family = _spec("family_oblate")
    reports = verify_system(family, samples=50, rank_points=5, seed=1)
    assert reports and all(r.passed for r in reports)


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
    built = {id(o) for spec in specs
             for o in (spec, spec.closure, *(obs.fn for obs in spec.observables()))}
    assert not any(built & set(entry[1:]) for entry in trace._CACHE)


def _observable_entries():
    fn = Observable(lambda s: s[0] * s[4] - s[1] * s[3], "Lz", 1).fn
    trace.gradient(fn, [0.5, 0.6, 0.7, 0.1, 0.2, 0.3])
    trace.traced_value(fn)
    return fn, (), {"grad", "value"}


def _bracket_entries():
    # Dropping one function of the pair drops the pair's program.
    f, g = (lambda s: s[0] * s[3]), (lambda s: s[1] * s[4])
    verify.poisson(f, g, [0.5, 0.6, 0.7, 0.1, 0.2, 0.3])
    bracket_residuals(f, g, sample_safe_states(make_rng(53), 3))
    return f, (g,), {"bracket"}


def _polynomial_entries():
    spec = _spec("op_min")
    poly = _mutated(spec)
    closure_residual(spec, sample_safe_states(make_rng(53), 3), poly=poly)
    return poly, (spec,), {"poly"}


def _ansatz_entries():
    # An ansatz not built by the cache: only its determining program is kept.
    spec = _spec("op_min")
    ansatz = dataclasses.replace(verify.y3_quadratic_ansatz(spec))
    verify.determining_residuals(ansatz, spec.B, spec.W, verify.safe_grid(2))
    return ansatz, (spec,), {"determining"}


def _constants_entries():
    params = PARAMS["op_min"]
    c = constants(OP_MIN, params, 0.5, 0.3, 0.4, -0.2, 0.2, Lz=1.0)
    cartesian_state(OP_MIN, c, params, 0.1)
    return c, (params,), {"closed form"}


def _spec_entries():
    # The spec's RHS and closure; its ansatz, and with the ansatz its
    # determining program; its observables' values and gradients.
    spec = _spec("op_min")
    integrate(spec, sample_safe_states(make_rng(53), 1)[:, 0], 0.1)
    verify_system(spec, samples=20, rank_points=3, seed=1)
    ansatz = verify.y3_quadratic_ansatz(spec)
    verify.determining_residuals(ansatz, spec.B, spec.W, verify.safe_grid(2))
    spec.hamiltonian.eval(sample_safe_states(make_rng(53), 1)[:, 0])
    return spec, (), {"rhs op_min", "closure op_min", "ansatz", "determining",
                      "grad", "value", "bracket"}


@pytest.mark.parametrize("make", [_observable_entries, _bracket_entries, _polynomial_entries,
                                  _ansatz_entries, _constants_entries, _spec_entries],
                         ids=["observable", "bracket", "polynomial", "ansatz", "constants",
                              "spec"])
def test_an_entry_dies_with_its_key(make):
    # ``make`` uses fresh objects and returns the one to drop, the others
    # it keeps alive, and the tags of the entries that must die with it.
    gc.collect()
    before = set(trace._CACHE)
    key, kept, tags = make()
    doomed = {entry for entry in set(trace._CACHE) - before if entry[0].startswith(tuple(tags))}
    for tag in tags:
        assert any(entry[0].startswith(tag) for entry in doomed), tag
    ref = weakref.ref(key)
    del key
    gc.collect()
    assert ref() is None
    assert not doomed & set(trace._CACHE)
    del kept    # held until here, so that only ``key`` died


def test_spec_meta_holds_data_only():
    specs = [_spec("op_min"), _spec("cp_min_bq")]
    for spec in specs:
        integrate(spec, sample_safe_states(make_rng(54), 1)[:, 0], 1.0)
        verify_system(spec, samples=20, rank_points=3, seed=1)
        verify.determining_residuals(verify.y3_quadratic_ansatz(spec), spec.B, spec.W,
                                     verify.safe_grid(2))
    c = constants(OP_MIN, specs[0].params, 0.5, 0.3, 0.4, -0.2, 0.2, Lz=1.0)
    cartesian_state(OP_MIN, c, specs[0].params, 0.1)
    for spec in specs:
        assert spec.closure is not None
        assert not any(callable(v) or k.startswith("_") for k, v in spec.meta.items())


def _on_cpus(monkeypatch, n):
    # The count the process reads, not its affinity, which stays as it is.
    monkeypatch.setattr(trace, "_cpus", lambda: n)


SPLIT = trace.SPLIT_BLOCKS * trace.BLOCK


@pytest.mark.parametrize("n", [trace.BLOCK - 1, trace.BLOCK, trace.BLOCK + 1,
                               2 * trace.BLOCK + 3, SPLIT - trace.BLOCK,
                               SPLIT - trace.BLOCK + 1, SPLIT - 1, SPLIT + 1, 100_000])
def test_two_threads_give_the_serial_closure_sides(monkeypatch, forks, n):
    # Two processes: a call of SPLIT_BLOCKS blocks or more forks once, on
    # long-double states and on float64 ones, whose sides are float64.
    spec = _spec("op_min")
    states = sample_safe_states(make_rng(46), n)
    for dtype in (np.longdouble, np.float64):
        forks.clear()
        _on_cpus(monkeypatch, 1)
        serial = verify._closure_sides(spec, states.astype(dtype), spec.closure)
        assert forks == []
        _on_cpus(monkeypatch, 2)
        split = verify._closure_sides(spec, states.astype(dtype), spec.closure)
        assert len(forks) == (n > SPLIT - trace.BLOCK)
        for got, want in zip(split[:2], serial[:2], strict=True):
            assert got.dtype == dtype and np.array_equal(got, want)


def _columns(n, dtype=np.longdouble):
    # One row whose entries are their column numbers.
    return [np.arange(n, dtype=dtype)]


def test_an_error_in_the_workers_half_reaches_the_caller(monkeypatch, forks):
    _on_cpus(monkeypatch, 2)

    def fn(t, y):
        if y[0][0] == trace.BLOCK:       # the first block of the child
            raise ArithmeticError(f"raised in {os.getpid()}")
        return (y[0],)

    with pytest.raises(ArithmeticError) as raised:
        trace.evaluate_blocks(fn, _columns(SPLIT), 1)
    assert len(forks) == 1 and str(raised.value) == f"raised in {forks[0]}"


def test_the_worker_keeps_the_callers_error_state(monkeypatch, forks):
    _on_cpus(monkeypatch, 2)

    def reciprocal(t, y):
        return (1.0 / y[0],)

    for dtype in (np.float64, np.longdouble):
        y = [np.ones(SPLIT, dtype)]
        y[0][trace.BLOCK + 1] = 0.0         # in the child's first block
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            trace.evaluate_blocks(reciprocal, y, 1)
        with np.errstate(divide="ignore"):
            (got,) = trace.evaluate_blocks(reciprocal, y, 1)
        assert np.isinf(got[trace.BLOCK + 1]) and got.dtype == dtype
    assert len(forks) == 4


def test_one_cpu_runs_long_double_blocks_serially(monkeypatch, forks):
    _on_cpus(monkeypatch, 1)
    (got,) = trace.evaluate_blocks(lambda t, y: (y[0] * 2,), _columns(SPLIT + 3), 1)
    assert np.array_equal(got, 2 * _columns(SPLIT + 3)[0])
    assert forks == []


@pytest.mark.parametrize("obstacle", ["live thread", "failed fork"])
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_blocks_run_in_place_beside_a_thread_or_after_a_failed_fork(monkeypatch, forks,
                                                                  obstacle, dtype):
    _on_cpus(monkeypatch, 2)
    refused, pids = [], []

    def no_fork():
        refused.append(True)
        raise OSError("fork refused")

    def double(t, y):
        pids.append(os.getpid())
        return (y[0] * 2,)

    release = threading.Event()
    other = threading.Thread(target=release.wait)
    if obstacle == "failed fork":
        monkeypatch.setattr(os, "fork", no_fork)
    else:
        other.start()
    try:
        (got,) = trace.evaluate_blocks(double, _columns(SPLIT + 3, dtype), 1)
    finally:
        release.set()
        if other.is_alive():
            other.join(timeout=10)
    assert not other.is_alive() and forks == []
    assert refused == ([True] if obstacle == "failed fork" else [])
    assert pids == [os.getpid()] * (trace.SPLIT_BLOCKS + 1)
    assert np.array_equal(got, 2 * _columns(SPLIT + 3, dtype)[0]) and got.dtype == dtype


def test_cpu_count_reads_the_affinity_else_the_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert trace._cpus() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert trace._cpus() == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert trace._cpus() == 1


def test_float64_at_100k_forks_once_and_equals_serial(monkeypatch, forks):
    spec = _spec("op_min")
    states = sample_safe_states(make_rng(47), 100_000)
    x1 = spec.integral("X1")
    values = {}
    for n in (1, 2):
        _on_cpus(monkeypatch, n)
        values[n] = [*trace.gradient(x1.fn, list(states)),
                     bracket_residuals(x1, spec.hamiltonian, states)]
    assert len(forks) == 2
    for got, want in zip(values[2], values[1], strict=True):
        assert got.dtype == np.float64 and np.array_equal(got, want)
    (got,) = trace.evaluate_blocks(lambda t, y: (y[0],), [states[0]], 1)
    assert np.array_equal(got, states[0]) and len(forks) == 3


def test_import_leaves_the_thread_pool_unloaded():
    # ``import axisym``, whose time every CLI call pays, loads neither the
    # shared mapping of a split call nor a thread pool.
    src = str(Path(trace.__file__).parents[1])
    code = ("import sys, axisym; "
            "loaded = {'mmap', 'concurrent.futures'} & sys.modules.keys(); "
            "assert not loaded, loaded")
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
