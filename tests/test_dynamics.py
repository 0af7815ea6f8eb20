"""Equations of motion, integration accuracy, and period detection."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from scipy.integrate._ivp import dop853_coefficients

from axisym import autodiff as ad
from axisym import dynamics
from axisym.catalog import SystemParams, SystemSpec, build
from axisym.closedform import oscillator_image
from axisym.families import build_family
from axisym.figures import RECIPES, run_figure
from axisym.dynamics import (
    DRIFT_STOP,
    GUARD_RADIUS,
    STEP_BUDGET,
    conservation_suite,
    detect_period,
    eom_rhs,
    integrate,
    prefix,
    radial_frequency,
    reverse_momenta,
    _guard_events,
    _make_dual_rhs,
    _make_scalar_rhs,
    _output_nodes,
)
from axisym.phase import (
    DEFAULT_SEED,
    CovectorField,
    DomainError,
    Observable,
    PhasePoint,
    TwoForm,
    hamiltonian_observable,
    make_rng,
    sample_safe_states,
)
from axisym.trace import evaluate_rows, traced_value

from conftest import FAMILY_ARGS, PARAMS, SYSTEM_OF, chart_family

# The seed of acceptance criterion 1.
CRITERION_SEED = 20260823

# Criterion-1 draw 3 of op_min: its orbit reaches the z = 0 guard plane
# between the output nodes 0.5 and 0.75.
OP_MIN_PLANE_DRAW = [0.3456716522152773, 1.5998543023085443, -1.235753618668447,
                     1.8592047491527839, -1.4465184004039107, -1.0685734363711399]


def _free_particle() -> SystemSpec:
    A = CovectorField(lambda x, y, z: (0.0 * x, 0.0 * y, 0.0 * z))
    B = TwoForm(lambda x, y, z: (0.0 * x, 0.0 * y, 0.0 * z))
    W = lambda x, y, z: 0.0 * x
    return SystemSpec(
        system_id="free", params=SystemParams(),
        W=W, A=A, B=B,
        hamiltonian=hamiltonian_observable(A, W),
        integrals=(Observable(lambda s: s[3], "X1", 1),),
        claimed_rank=4,
        gauge_factor=lambda s, w: 0.0 * s + 0.0 * w,
        potential_sw=lambda s, w: 0.0 * s + 0.0 * w,
    )


def test_free_particle_rhs_and_straight_line():
    spec = _free_particle()
    state = np.array([0.5, -0.5, 1.0, 1.0, 2.0, -1.0])
    rhs = eom_rhs(spec, state)
    assert np.allclose(rhs, [1.0, 2.0, -1.0, 0.0, 0.0, 0.0])
    traj = integrate(spec, state, 2.0, tol=1e-12)
    assert np.allclose(traj.states[-1][:3], state[:3] + 2.0 * state[3:],
                       atol=1e-10)


@pytest.mark.parametrize("key", [*PARAMS, "osc_max5", *FAMILY_ARGS])
def test_fast_rhs_paths_agree_with_hamiltonian_gradient(key):
    # The field-free oscillator image has a zero gauge, which the
    # generated RHS reduces to a constant; the chart families' g and W
    # call math functions.
    if key == "osc_max5":
        spec = oscillator_image("max5", PARAMS["max5"])
    elif key in FAMILY_ARGS:
        spec = build_family(chart_family(*FAMILY_ARGS[key]))
    else:
        spec = build(SYSTEM_OF[key], PARAMS[key])
    rng = make_rng(31)
    states = sample_safe_states(rng, 10)
    dual_rhs = _make_dual_rhs(spec)
    fast_rhs = _make_scalar_rhs(spec)
    from axisym.phase import gradient6
    for state in states.T:
        grad = [float(v) for v in gradient6(spec.hamiltonian.fn, list(state))]
        expected = np.r_[grad[3:], [-grad[0], -grad[1], -grad[2]]]
        assert np.allclose(dual_rhs(0.0, state), expected, rtol=1e-11, atol=1e-11)
        assert np.allclose(fast_rhs(0.0, state), expected, rtol=1e-11, atol=1e-11)
        assert np.allclose(eom_rhs(spec, state), expected, rtol=1e-11, atol=1e-11)
    # eom_rhs runs the same generated function on the whole block, and
    # on six floats for one state, so each state gives its block column.
    # The families' code calls math on floats and numpy on rows, which
    # may differ in the last bit, so their columns agree within rounding.
    columns = np.array([fast_rhs(0.0, tuple(state.tolist())) for state in states.T]).T
    block = eom_rhs(spec, states)
    if key in FAMILY_ARGS:
        assert np.allclose(block, columns, rtol=1e-15, atol=1e-15)
    else:
        assert np.array_equal(block, columns)
    for k, state in enumerate(states.T):
        assert np.array_equal(eom_rhs(spec, state), columns[:, k])
        assert np.array_equal(eom_rhs(spec, list(state)), columns[:, k])
        assert np.array_equal(eom_rhs(spec, PhasePoint.from_state(state)), columns[:, k])


def _well(W_sw) -> SystemSpec:
    """A field-free system in the potential W_sw(x^2 + y^2, z)."""
    A = CovectorField(lambda x, y, z: (0.0 * x, 0.0 * y, 0.0 * z))
    B = TwoForm(lambda x, y, z: (0.0 * x, 0.0 * y, 0.0 * z))
    W = lambda x, y, z: W_sw(x * x + y * y, z)
    return SystemSpec(
        system_id="well", params=SystemParams(),
        W=W, A=A, B=B,
        hamiltonian=hamiltonian_observable(A, W),
        integrals=(),
        claimed_rank=2,
        gauge_factor=lambda s, w: 0.0 * s + 0.0 * w,
        potential_sw=W_sw,
    )


def _gaussian_well(calls=None) -> SystemSpec:
    # exp() is recorded on the tape as one line; ``calls`` counts W's calls.
    def W_sw(s, w):
        if calls is not None:
            calls.append(s)
        return ad.exp(-s) + w * w
    return _well(W_sw)


def test_math_function_fields_run_generated_code_equal_to_duals():
    calls = []
    spec = _gaussian_well(calls)
    rhs, H = _make_scalar_rhs(spec), traced_value(spec.hamiltonian.fn)
    y0 = (0.5, -0.7, 1.0, 1.0, 2.0, -1.0)
    integrate(spec, y0, 0.1)
    traced = len(calls)
    states = sample_safe_states(make_rng(35), 50)
    ys = [tuple(state.tolist()) for state in states.T]
    got = [(rhs(0.0, y), H(0.0, y)) for y in ys]
    assert len(calls) == traced                 # the generated code does not call W
    dual = _make_dual_rhs(spec)
    assert got == [(dual(0.0, y), spec.hamiltonian.fn(y)) for y in ys]
    block = eom_rhs(spec, states)
    assert np.array_equal(block, evaluate_rows(dual, 0.0, states))
    for dtype in (np.float64, np.longdouble):
        rows = states.astype(dtype)
        assert np.array_equal(evaluate_rows(rhs, 0.0, rows), evaluate_rows(dual, 0.0, rows))
    # The run is the dual RHS's run, through both solvers.
    y0 = np.array([0.5, -0.7, 1.0, 1.0, 2.0, -1.0])
    ours, ref = _both_solvers(rhs, _guard_events(spec), y0, 3.0, dense=True)
    _assert_same_run(ours, ref, dense=True)
    duals, _ = _both_solvers(dual, _guard_events(spec), y0, 3.0, dense=True)
    assert (ours.nfev, ours.steps) == (duals.nfev, duals.steps)
    assert np.array_equal(ours.y, duals.y) and np.array_equal(ours.sol.rows, duals.sol.rows)


@pytest.mark.parametrize("key", list(PARAMS))
def test_traced_hamiltonian_equals_the_observable(key):
    spec = build(SYSTEM_OF[key], PARAMS[key])
    H = traced_value(spec.hamiltonian.fn)
    assert H.__code__.co_filename.startswith("<value ")
    for state in sample_safe_states(make_rng(34), 200).T:
        y = tuple(state.tolist())
        assert H(0.0, y) == spec.hamiltonian.fn(y)


def _both_solvers(rhs, events, y0, t_end, dense):
    """The same run through the float DOP853 solver and through scipy."""
    for ev in events:      # how scipy reads these stop events
        ev.terminal, ev.direction = True, -1
    nodes = None if dense else _output_nodes(t_end, None)
    kwargs = dict(rtol=1e-12, atol=1e-12, dense_output=dense, t_eval=nodes,
                  events=events)
    ours = dynamics.solve_ivp(rhs, (0.0, t_end), y0, **kwargs)
    ref = scipy.integrate.solve_ivp(rhs, (0.0, t_end), y0, method="DOP853", **kwargs)
    return ours, ref


def _assert_same_run(ours, ref, dense):
    assert ours.nfev == ref.nfev
    assert ours.status == ref.status
    if dense:
        assert ours.t_final == pytest.approx(ref.t[-1], abs=1e-9)
        ts = np.random.default_rng(5).uniform(0.0, ours.t_final, 500)
        assert np.allclose(ours.sol(ts), ref.sol(ts), rtol=0, atol=1e-9)
    else:
        # Scipy stops at the last node before a terminal event; this
        # solver also outputs the stop.
        n = ref.t.size
        assert np.array_equal(ours.t[:n], ref.t)
        assert ours.t.size == n + ours.status
        assert np.allclose(ours.y[:, :n], ref.y, rtol=0, atol=1e-9)


@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("key", list(PARAMS))
def test_solve_ivp_matches_scipy_dop853(key, dense, reference_ic):
    spec = build(SYSTEM_OF[key], PARAMS[key])
    ours, ref = _both_solvers(_make_scalar_rhs(spec), _guard_events(spec),
                              reference_ic, 5.0, dense)
    _assert_same_run(ours, ref, dense)


@pytest.mark.parametrize("dense", [False, True])
def test_solve_ivp_matches_scipy_dop853_on_a_guard_stop(dense):
    spec = build("op_min", PARAMS["op_min"])
    ours, ref = _both_solvers(_make_scalar_rhs(spec), _guard_events(spec),
                              OP_MIN_PLANE_DRAW, 5.0, dense)
    _assert_same_run(ours, ref, dense)
    assert ours.reason == "plane_guard"


def test_solve_ivp_ends_on_a_nan_step():
    # A RHS that is NaN at the start gives a NaN first step, which
    # compares False to the step floor; the run must still end there.
    calls = []

    def rhs(t, y):
        calls.append(t)
        assert len(calls) < 1000, "the step-size loop did not end"
        return (np.nan,) * 6

    sol = dynamics.solve_ivp(rhs, (0.0, 1.0), (1.0,) * 6, 1e-10, 1e-10,
                             dense_output=True)
    assert (sol.status, sol.reason) == (-1, "step_size")
    assert sol.steps == 0



def test_dense_run_of_several_blocks_matches_scipy():
    # The figure-1 orbit at 1e-12 takes about 3.8k steps to t = 50, so
    # its interpolant rows are computed in several blocks.
    recipe = RECIPES[1]
    spec = build(recipe.system_id, recipe.params)
    ours, ref = _both_solvers(_make_scalar_rhs(spec), _guard_events(spec),
                              recipe.ic, 50.0, dense=True)
    assert ours.steps >= 3 * dynamics._CHUNK
    _assert_same_run(ours, ref, dense=True)


def test_t_eval_stop_inside_a_partly_filled_block_matches_scipy(monkeypatch):
    flushes = _recorded(monkeypatch, "_flush")
    recipe = RECIPES[1]
    spec = build(recipe.system_id, recipe.params)

    def halt(t, y):
        return 9.4567 - t
    ours, ref = _both_solvers(_make_scalar_rhs(spec), [*_guard_events(spec), halt],
                              recipe.ic, 50.0, dense=False)
    assert ours.reason == "halt" and ours.t_final == pytest.approx(9.4567, abs=1e-12)
    # Most steps hold a node: one full block, then the stop in a partly
    # filled one.
    sizes = [out.shape[0] for _, _, out in flushes]
    assert sizes[0] == dynamics._CHUNK and 0 < sizes[-1] < dynamics._CHUNK
    _assert_same_run(ours, ref, dense=False)


@pytest.mark.parametrize("key", list(PARAMS))
def test_block_rows_equal_rows_computed_one_step_at_a_time(monkeypatch, key, reference_ic):
    # op_min and cp_min_bq take about 1.5k steps to t = 20: several blocks.
    spec = build(SYSTEM_OF[key], PARAMS[key])
    rhs = _make_scalar_rhs(spec)

    def run():
        return dynamics.solve_ivp(rhs, (0.0, 20.0), reference_ic, 1e-12, 1e-12,
                                  dense_output=True, events=_guard_events(spec))
    blocks = run()
    monkeypatch.setattr(dynamics, "_CHUNK", 1)
    one_by_one = run()
    assert np.array_equal(blocks.sol.rows, one_by_one.sol.rows)
    assert np.array_equal(blocks.sol.t_ends, one_by_one.sol.t_ends)
    for fld in dataclasses.fields(blocks):
        if fld.name != "sol":
            assert np.array_equal(getattr(blocks, fld.name), getattr(one_by_one, fld.name)), fld.name


def _dense(entries, size):
    return np.array([entries.get(j, 0.0) for j in range(size)])


def test_inlined_tableau_is_scipys():
    co = dop853_coefficients
    n = co.N_STAGES_EXTENDED
    A = np.array([_dense(dynamics._DOP853_A.get(s, {}), n) for s in range(n)])
    assert np.array_equal(A, co.A)
    assert np.array_equal(np.array(dynamics._DOP853_C), co.C)
    assert np.array_equal(_dense(dynamics._DOP853_B, co.B.size), co.B)
    assert np.array_equal(_dense(dynamics._DOP853_E3, co.E3.size), co.E3)
    assert np.array_equal(_dense(dynamics._DOP853_E5, co.E5.size), co.E5)
    assert np.array_equal(np.array([_dense(row, n) for row in dynamics._DOP853_D]), co.D)


def _recorded(monkeypatch, name):
    """Record every call to ``dynamics.<name>`` (args, kwargs, result)."""
    calls = []
    orig = getattr(dynamics, name)

    def record(*args, **kwargs):
        out = orig(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out
    monkeypatch.setattr(dynamics, name, record)
    return calls


def _criterion_draw(k):
    """Draw ``k`` of acceptance criterion 1 (the same for every config)."""
    rng = make_rng(CRITERION_SEED)
    for _ in range(k - 1):
        sample_safe_states(rng, 1)
    return sample_safe_states(rng, 1)[:, 0]


@pytest.mark.parametrize("system_id, params, ic, reason", [
    ("op_min", PARAMS["op_min"], OP_MIN_PLANE_DRAW, "plane_guard"),
    ("cp_min", PARAMS["cp_min_bq"], _criterion_draw(4), "drift"),
    ("linear_min", SystemParams(u1=1e-4, bz=2.0), [1.0, 0.0, 0.0, -1.5, 0.0, 0.0],
     "axis_guard"),
], ids=["op_min", "cp_min_bq", "linear_min"])
def test_brentq_port_matches_scipy_on_stop_brackets(monkeypatch, system_id, params,
                                                    ic, reason):
    spec = build(system_id, params)
    calls = _recorded(monkeypatch, "_brentq")
    for dense in (True, False):
        traj = integrate(spec, ic, 50.0, tol=1e-12, dense=dense, max_steps=STEP_BUDGET)
        assert traj.meta["reason"] == reason
    assert len(calls) == 2
    for (f, a, b, xtol, rtol), _, root in calls:
        assert root == scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=rtol)


def test_brentq_port_raises_as_scipy():
    eps4 = 4 * np.finfo(float).eps
    for f, a, b in [(lambda x: np.nan, 0.0, 1.0),
                    (lambda x: x - 0.5 if x < 0.7 else np.nan, 0.0, 1.0),
                    (lambda x: x * x + 1.0, -1.0, 1.0)]:
        with pytest.raises(ValueError):
            scipy.optimize.brentq(f, a, b, xtol=eps4, rtol=eps4)
        with pytest.raises(ValueError):
            dynamics._brentq(f, a, b, eps4, eps4)
    f = lambda x: x ** 3 - 0.2
    with pytest.raises(RuntimeError):
        scipy.optimize.brentq(f, 0.0, 1.0, xtol=eps4, rtol=eps4, maxiter=3)
    with pytest.raises(RuntimeError):
        dynamics._brentq(f, 0.0, 1.0, eps4, eps4, maxiter=3)
    assert dynamics._brentq(f, 0.0, 1.0, eps4, eps4) == scipy.optimize.brentq(
        f, 0.0, 1.0, xtol=eps4, rtol=eps4)


def test_fminbound_port_matches_scipy_on_the_figures_polish_calls(monkeypatch):
    calls = _recorded(monkeypatch, "_fminbound")
    for recipe in RECIPES.values():
        spec = build(recipe.system_id, recipe.params)
        # run_figure's period search at its default tol of 1e-12
        detect_period(spec, recipe.ic, recipe.detect_horizon,
                      tol_return=recipe.tol_return,
                      tol=1e-12 if recipe.detect_horizon <= 50 else 1e-10)
    assert len(calls) >= 4
    for (func, a, b), kwargs, out in calls:
        ref = scipy.optimize.minimize_scalar(func, bounds=(a, b), method="bounded",
                                             options={"xatol": kwargs["xatol"]})
        assert out == (ref.x, ref.fun, ref.nfev)


def test_eom_rhs_accepts_batches_and_phase_points():
    spec = build("max6", PARAMS["max6"])
    states = sample_safe_states(make_rng(32), 5)
    batch = eom_rhs(spec, states)
    assert batch.shape == (6, 5)
    one = eom_rhs(spec, PhasePoint.from_state(states[:, 0]))
    assert np.allclose(batch[:, 0], one)


def test_drift_certificate_short_run(reference_ic):
    spec = build("op_min", PARAMS["op_min"])
    traj = integrate(spec, reference_ic, 10.0, tol=1e-12)
    for label in ("H", "X1", "X2", "Y3"):
        assert traj.drift(label) < 1e-10, label


def test_convergence_with_tolerance(reference_ic):
    spec = build("max5", PARAMS["max5"])
    ref = integrate(spec, reference_ic, 5.0, tol=1e-13).states[-1]
    errs = []
    for tol in (1e-6, 1e-9, 1e-12):
        end = integrate(spec, reference_ic, 5.0, tol=tol).states[-1]
        errs.append(np.max(np.abs(end - ref)))
    assert errs[0] > errs[2]
    assert errs[2] < 1e-9


def test_time_reversal_with_mirrored_field(reference_ic):
    # With a magnetic field, retracing an orbit requires flipping the
    # field as well: under B -> -B the gauge flips sign, so the kinetic
    # reversal reduces to a plain momentum negation.
    spec = build("cp_min", PARAMS["cp_min_bz"])
    mirror = build("cp_min", dataclasses.replace(
        PARAMS["cp_min_bz"], bz=-PARAMS["cp_min_bz"].bz))
    t_end = 4.0
    fwd = integrate(spec, reference_ic, t_end, tol=1e-12)
    end = fwd.states[-1]
    back = integrate(mirror, np.r_[end[:3], -end[3:]], t_end, tol=1e-12)
    recovered = np.r_[back.states[-1][:3], -back.states[-1][3:]]
    assert np.allclose(recovered, reference_ic, atol=1e-8)


def test_reverse_momenta_flips_kinetic_momentum():
    spec = build("op_min", PARAMS["op_min"])
    import axisym.autodiff as ad
    pt = PhasePoint.from_state([1.0, -1.0, 1.0, 0.7, 0.2, -0.4])
    rev = reverse_momenta(spec, pt)
    a = np.asarray([float(ad.value(c)) for c in spec.A(pt.q)])
    assert np.allclose(rev.p + a, -(pt.p + a), atol=1e-14)
    assert np.allclose(rev.q, pt.q)


def test_angular_momentum_constant_along_trajectory(reference_ic):
    # X2 is canonical Lz in this gauge; its trace must stay flat.
    spec = build("max6", PARAMS["max6"])
    traj = integrate(spec, reference_ic, 8.0, tol=1e-12)
    lz = traj.traces["X2"]
    assert np.max(np.abs(lz - lz[0])) < 1e-10


def test_guard_rejects_singular_start():
    spec = build("op_min", PARAMS["op_min"])
    with pytest.raises(DomainError):
        integrate(spec, [GUARD_RADIUS / 2, 0.0, 1.0, 0.0, 0.0, 0.0], 1.0)
    with pytest.raises(DomainError):
        eom_rhs(spec, [1.0, 0.0, GUARD_RADIUS / 2, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("big", [dynamics.ESCAPE_BOUND, 2e4, 1e160, float("nan")])
def test_start_at_or_beyond_the_escape_bound_is_rejected(big):
    # The escape event fires only on a crossing, so such a start would
    # run to its horizon, or (1e160) overflow the first step's estimate.
    spec = build("linear_min", SystemParams(u1=1.0, bz=2.0))
    with pytest.raises(DomainError, match="escape bound"):
        integrate(spec, [1.0, 1.0, 1.0, big, 1.0, 1.0], 1.0)


def test_initial_step_of_an_overflowing_rhs():
    # d1 = inf gives h0 = 0, where scipy's select_initial_step takes
    # d2 = inf from numpy's division.
    y0, f0 = (1.0,) * 6, (math.inf,) * 6
    assert dynamics._initial_step(lambda t, y: f0, 0.0, y0, f0, 1.0, 1e-10, 1e-10) == 0.0


def test_guard_aborts_on_approach():
    # Singular on the axis; a weak inverse-square coefficient puts the
    # radial turning point inside the guard radius, so an inward launch
    # must hit the guard and abort.
    spec = build("linear_min", SystemParams(u1=1e-4, bz=2.0))
    traj = integrate(spec, [1.0, 0.0, 0.0, -1.5, 0.0, 0.0], 5.0, tol=1e-10)
    assert traj.aborted
    assert traj.meta["reason"] == "axis_guard"
    assert traj.meta["t_final"] < 5.0
    r_end = np.hypot(traj.states[-1, 0], traj.states[-1, 1])
    assert r_end == pytest.approx(GUARD_RADIUS, abs=1e-3)


@pytest.mark.parametrize("dense", [True, False])
def test_plane_guard_aborts_and_output_ends_at_the_stop(dense):
    spec = build("op_min", PARAMS["op_min"])
    traj = integrate(spec, OP_MIN_PLANE_DRAW, 50.0, tol=1e-12, dt_out=0.25,
                     dense=dense)
    assert traj.aborted
    assert traj.meta["reason"] == "plane_guard"
    t_final = traj.meta["t_final"]
    assert 0.5 < t_final < 0.75
    assert traj.times[-1] == t_final
    assert list(traj.times[:-1]) == [0.0, 0.25, 0.5]
    assert abs(traj.states[-1, 2]) == pytest.approx(GUARD_RADIUS, abs=1e-9)


def test_completed_run_reports_its_work(reference_ic):
    spec = build("max6", PARAMS["max6"])
    traj = integrate(spec, reference_ic, 8.0, tol=1e-12)
    meta = traj.meta
    assert not traj.aborted
    assert meta["reason"] == "completed"
    assert meta["t_final"] == 8.0
    assert 0.0 < meta["last_step"] < 8.0
    assert meta["wall_s"] > 0.0
    # Two calls choose the first step, twelve per attempt, and the dense
    # output adds three per accepted step.
    attempts = meta["steps"] + meta["rejected_steps"]
    assert meta["nfev"] == 2 + 12 * attempts + 3 * meta["steps"]


def test_step_budget_aborts():
    # The budget stops a run after exactly max_steps accepted steps, in
    # both output modes, and only cuts it short: the end state lies on
    # the unbudgeted run.
    spec = build("op_min", PARAMS["op_min"])
    ic = [1.0, -1.0, 1.0, 1.0, 0.0, 0.0]
    full = integrate(spec, ic, 50.0, tol=1e-10)
    assert full.meta["reason"] == "completed"
    assert full.meta["steps"] > 20
    for dense in (True, False):
        traj = integrate(spec, ic, 50.0, tol=1e-10, max_steps=20, dense=dense)
        assert traj.aborted
        assert traj.meta["reason"] == "step_budget"
        assert traj.meta["steps"] == 20
        assert 0.0 < traj.meta["t_final"] < 50.0
        assert traj.times[-1] == traj.meta["t_final"]
        assert np.allclose(traj.states[-1], full.dense(traj.meta["t_final"]),
                           rtol=0, atol=1e-12)


@pytest.mark.parametrize("dense", [True, False])
def test_runaway_stops_on_h_drift(dense):
    # Criterion-1 draw 4 of cp_min_bq runs away with a collapsing step
    # size; its H drift passes the bound long before the step budget.
    spec = build("cp_min", PARAMS["cp_min_bq"])
    ic = _criterion_draw(4)
    tol = 1e-12
    traj = integrate(spec, ic, 50.0, tol=tol, dt_out=0.25, dense=dense,
                     max_steps=STEP_BUDGET)
    assert traj.aborted
    assert traj.meta["reason"] == "drift"
    assert traj.meta["steps"] < 10_000
    t_final = traj.meta["t_final"]
    assert 0.0 < t_final < 50.0
    assert traj.times[-1] == t_final
    # The run ends where |H - H0| reaches the bound.
    H = traced_value(spec.hamiltonian.fn)
    h0 = H(0.0, tuple(ic.tolist()))
    limit = DRIFT_STOP * tol * max(1.0, abs(h0))
    assert abs(H(0.0, tuple(traj.states[-1].tolist())) - h0) == pytest.approx(limit, rel=1e-3)


def test_drift_stop_does_not_pass_a_hamiltonian_that_is_not_conserved():
    # Negative control: integrate op_min but monitor the H of a perturbed
    # op_min.  The first draw that H drifts on stops at an ordinary step
    # size, which is no runaway, so the suite raises instead of
    # discarding it.
    spec = build("op_min", PARAMS["op_min"])
    bad = build("op_min", dataclasses.replace(PARAMS["op_min"],
                                              u1=PARAMS["op_min"].u1 + 1e-3))
    mixed = dataclasses.replace(spec, hamiltonian=bad.hamiltonian)
    with pytest.raises(RuntimeError, match="not running away"):
        conservation_suite(mixed, n_ic=1, t_end=50.0, tol=1e-12, seed=5)


def test_drift_stop_does_not_discard_draws_that_break_h_in_part_of_phase_space():
    # Negative control: H gains a wrong term only where z > 0.  At seed 7
    # linear_max's first draw stays at z < 0 and completes with H kept;
    # its next three enter z > 0 and stop on their drift, and the fifth
    # stays at z < 0 again.  Were drift stops discarded as runaways, the
    # suite would return a passing drift after five draws.
    spec = build("linear_max", PARAMS["linear_max"])
    H = spec.hamiltonian.fn

    def broken(s):
        # max(z, 0), exactly in IEEE arithmetic, as straight-line code.
        return H(s) + 1e-3 * ((s[2] + ad.sqrt(s[2] * s[2])) / 2) ** 2

    mixed = dataclasses.replace(spec, hamiltonian=Observable(broken, "H", 2))
    drifts = conservation_suite(mixed, n_ic=1, t_end=50.0, tol=1e-12, seed=7)
    assert drifts["attempts"] == 1 and drifts["H"] < 1e-10
    rng = make_rng(7)
    sample_safe_states(rng, 1)
    second = integrate(mixed, sample_safe_states(rng, 1)[:, 0], 50.0, tol=1e-12)
    assert second.meta["reason"] == "drift"
    with pytest.raises(RuntimeError, match="not running away"):
        conservation_suite(mixed, n_ic=2, t_end=50.0, tol=1e-12, seed=7)


def test_escape_guard_stops_blowup(monkeypatch):
    # This potential is unbounded below along z; some launches blow up
    # in finite time.  Tighten the amplitude bound so the escape event
    # terminates the run as soon as the state leaves the bounded region.
    from axisym import dynamics

    monkeypatch.setattr(dynamics, "ESCAPE_BOUND", 50.0)
    spec = build("cp_min", PARAMS["cp_min_bq"])
    ic = [0.745, 1.77, -1.02, 1.333, -0.125, 0.935]
    traj = integrate(spec, ic, 50.0, tol=1e-10)
    assert traj.aborted
    assert traj.meta["reason"] == "escape"
    assert traj.meta["t_final"] < 50.0
    assert np.max(np.abs(traj.states[-1])) == pytest.approx(50.0, rel=1e-3)


def test_dense_false_matches_dense_true(reference_ic):
    spec = build("max5", PARAMS["max5"])
    a = integrate(spec, reference_ic, 3.0, tol=1e-11, dt_out=0.1, dense=True)
    b = integrate(spec, reference_ic, 3.0, tol=1e-11, dt_out=0.1, dense=False)
    assert np.allclose(a.times, b.times, atol=1e-12)
    assert np.allclose(a.states, b.states, atol=1e-9)
    assert a.dense is not None and b.dense is None


def test_tolerance_validation(reference_ic):
    spec = build("max6", PARAMS["max6"])
    with pytest.raises(ValueError):
        integrate(spec, reference_ic, 1.0, tol=1e-3)
    for t_end in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="t_end"):
            integrate(spec, reference_ic, t_end)


@pytest.mark.parametrize("dt_out", [-1.0, 0.0, np.nan])
def test_output_step_validation(reference_ic, dt_out):
    # Without the check -1.0 gave two nodes, 0.0 a ZeroDivisionError and
    # nan a failed int conversion.
    spec = build("max6", PARAMS["max6"])
    with pytest.raises(ValueError, match="dt_out"):
        integrate(spec, reference_ic, 1.0, dt_out=dt_out)


@pytest.mark.parametrize("max_steps", [0, -3, 2.5, np.nan, "20"])
def test_step_budget_validation(reference_ic, max_steps):
    # Without the check each of these ran with no budget and reported
    # "completed".
    spec = build("linear_min", PARAMS["linear_min"])
    with pytest.raises(ValueError, match="max_steps"):
        integrate(spec, reference_ic, 1.0, max_steps=max_steps)


def test_step_budget_takes_any_integer_type(reference_ic):
    spec = build("linear_min", PARAMS["linear_min"])
    for max_steps in (1, np.int64(1)):
        traj = integrate(spec, reference_ic, 1.0, max_steps=max_steps)
        assert traj.meta["reason"] == "step_budget" and traj.meta["steps"] == 1


@pytest.mark.parametrize("fid", sorted(RECIPES))
def test_prefix_matches_a_separate_run_but_on_its_last_step(fid):
    recipe = RECIPES[fid]
    spec = build(recipe.system_id, recipe.params)
    # The run run_figure plots from: it serves the search too when the
    # search horizon is at most 50 and so runs at the plotting tolerance.
    run_end = max(recipe.horizons)
    if recipe.detect_horizon <= 50:
        run_end = max(run_end, recipe.detect_horizon)
    run = integrate(spec, recipe.ic, run_end, tol=1e-12)
    for horizon in recipe.horizons:
        part = prefix(spec, run, horizon)
        fresh = integrate(spec, recipe.ic, horizon, tol=1e-12)
        assert not part.aborted and part.meta["t_end"] == horizon
        assert np.array_equal(part.times, fresh.times)
        before = fresh.times <= fresh.dense.t_ends[-2]
        assert before.sum() > 0.9 * before.size
        assert np.array_equal(part.states[before], fresh.states[before])
        last = ~before
        assert np.allclose(part.states[last], fresh.states[last], rtol=0, atol=1e-10)
        for lbl, tr in fresh.traces.items():
            assert np.array_equal(part.traces[lbl][before], tr[before])
            assert np.allclose(part.traces[lbl][last], tr[last], rtol=0, atol=1e-9)
    assert prefix(spec, run, run_end) is run
    with pytest.raises(ValueError):
        prefix(spec, run, 1.5 * run_end)


@pytest.mark.parametrize("horizon", [0.5, 3.0])
def test_prefix_of_an_aborted_run_equals_a_run_to_its_horizon(horizon):
    # The axis-guard run of test_guard_aborts_on_approach stops near t = 0.63.
    spec = build("linear_min", SystemParams(u1=1e-4, bz=2.0))
    ic = [1.0, 0.0, 0.0, -1.5, 0.0, 0.0]
    run = integrate(spec, ic, 5.0)
    part = prefix(spec, run, horizon)
    fresh = integrate(spec, ic, horizon)
    assert part.aborted == fresh.aborted == (horizon > run.meta["t_final"])
    assert part.meta["t_final"] == fresh.meta["t_final"]
    assert part.meta["reason"] == fresh.meta["reason"]
    assert np.array_equal(part.times, fresh.times)


def test_six_figures_integrate_once_per_tolerance(monkeypatch, tmp_path):
    # One run for each figure whose search runs at the plotting tolerance,
    # two (the 200-unit search at 1e-10, the plots at 1e-12) for figures
    # 1 and 4: no plotted horizon is integrated again.  Their searches
    # may run in forked children, so every call is logged to a file.
    log = tmp_path / "solve_ivp.log"
    solve_ivp = dynamics.solve_ivp

    def logged(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(dynamics, "solve_ivp", logged)
    for fid in sorted(RECIPES):
        run_figure(fid, str(tmp_path / f"fig{fid}"))
    assert len(log.read_text().split()) == 8


def test_detect_period_exact_closure(reference_ic):
    spec = build("max5", PARAMS["max5"])
    rep = detect_period(spec, PhasePoint.from_state(reference_ic), 30.0,
                        tol=1e-12)
    assert rep.closed
    assert rep.period == pytest.approx(8.0 * np.pi, rel=1e-6)
    assert rep.return_distance < 1e-4


def test_detect_period_evaluates_no_observable(monkeypatch, reference_ic):
    spec = build("max5", PARAMS["max5"])
    calls = _recorded(monkeypatch, "_trace_all")
    rep = detect_period(spec, reference_ic, 30.0, tol=1e-12)
    assert rep.closed
    assert calls == []
    # The report records the work of the run it searched.
    meta = integrate(spec, reference_ic, 30.0, tol=1e-12).meta
    assert len(calls) == 1
    assert (rep.reason, rep.nfev, rep.steps) == ("completed", meta["nfev"], meta["steps"])
    assert {k: rep.as_dict()[k] for k in ("reason", "nfev", "steps")} == {
        "reason": "completed", "nfev": meta["nfev"], "steps": meta["steps"]}


def _field_traces(spec, states):
    """H and the integrals as their fields give them on long-double columns."""
    wide = np.asarray(states, dtype=np.longdouble)
    cols = [wide[:, i] for i in range(6)]
    return {obs.label or "H": np.broadcast_to(
                np.asarray(ad.value(obs.fn(cols)), dtype=float), (states.shape[0],))
            for obs in spec.observables()}


@pytest.mark.parametrize("n", [201, 5001])
@pytest.mark.parametrize("key", [*PARAMS, *FAMILY_ARGS])
def test_traces_run_the_traced_value_programs_with_the_fields_values(key, n):
    if key in FAMILY_ARGS:
        spec = build_family(chart_family(*FAMILY_ARGS[key]))
    else:
        spec = build(SYSTEM_OF[key], PARAMS[key])
    states = sample_safe_states(make_rng(n), n).T
    got = dynamics._trace_all(spec, states)
    want = _field_traces(spec, states)
    assert list(got) == list(want)
    for lbl in want:
        assert got[lbl].shape == (n,) and got[lbl].dtype == np.float64
        assert np.array_equal(got[lbl], want[lbl], equal_nan=True), lbl


def test_detect_period_from_a_singular_start_reports_no_run():
    spec = build("op_min", PARAMS["op_min"])
    rep = detect_period(spec, [GUARD_RADIUS / 2, 0.0, 1.0, 0.0, 0.0, 0.0], 10.0)
    assert not rep.closed and rep.return_distance == math.inf
    assert (rep.reason, rep.nfev, rep.steps) == (None, None, None)
    assert rep.as_dict()["nfev"] is None


def test_detect_period_open_orbit(reference_ic):
    spec = build("op_min", PARAMS["op_min"])
    rep = detect_period(spec, PhasePoint.from_state(reference_ic), 40.0,
                        tol=1e-10)
    assert not rep.closed
    assert rep.period is None
    assert np.isfinite(rep.return_distance)


def test_radial_frequency_matches_closed_form(reference_ic):
    from axisym.closedform import frequency

    spec = build("cp_min", PARAMS["cp_min_bz"])
    Lz = spec.integral("X2").eval(reference_ic)
    nu = frequency("cp_min", spec.params, Lz)
    measured = radial_frequency(spec, reference_ic, horizon=40.0, tol=1e-11)
    assert measured == pytest.approx(nu, rel=2e-3)


def test_conservation_suite_smoke():
    spec = build("max6", PARAMS["max6"])
    drifts = conservation_suite(spec, n_ic=3, t_end=10.0, tol=1e-11, seed=5)
    attempts = drifts.pop("attempts")
    assert attempts >= 3
    assert set(drifts) == {"H", "X1", "X2", "Y3", "Y4"}
    assert all(v < 1e-7 for v in drifts.values())


@pytest.mark.parametrize("n_ic", [0, -3, 2.5, "20"])
def test_conservation_suite_rejects_a_bad_draw_count(n_ic):
    # Without the check 0 and -3 returned {"attempts": 0}, a check of
    # nothing; 2.5 ran 3 draws and "20" raised TypeError in the loop.
    spec = build("linear_min", PARAMS["linear_min"])
    with pytest.raises(ValueError, match="n_ic"):
        conservation_suite(spec, n_ic=n_ic, t_end=1.0, tol=1e-10, seed=5)


def test_conservation_suite_takes_any_integer_type():
    spec = build("linear_min", PARAMS["linear_min"])
    drifts = conservation_suite(spec, n_ic=np.int64(1), t_end=1.0, tol=1e-10, seed=5)
    assert drifts == conservation_suite(spec, n_ic=1, t_end=1.0, tol=1e-10, seed=5)
    assert drifts["attempts"] >= 1


def test_unseeded_conservation_suite_is_reproducible():
    # With neither seed nor rng the draws come from DEFAULT_SEED, not
    # from OS entropy.
    spec = build("linear_min", PARAMS["linear_min"])
    first, second = (conservation_suite(spec, n_ic=1, t_end=1.0, tol=1e-10) for _ in range(2))
    assert first == second
    assert first == conservation_suite(spec, n_ic=1, t_end=1.0, tol=1e-10, seed=DEFAULT_SEED)


@pytest.mark.parametrize("bad_draw", [1, 3], ids=["first_draw", "later_draw"])
def test_conservation_suite_raises_on_a_nan_trace(monkeypatch, bad_draw):
    # max(0.0, nan) is 0.0: a NaN drift must not count as conserving.
    spec = build("max6", PARAMS["max6"])
    inner = dynamics.integrate
    completed = []

    def nan_trace(*args, **kwargs):
        traj = inner(*args, **kwargs)
        if not traj.aborted:
            completed.append(traj)
            if len(completed) == bad_draw:
                x1 = traj.traces["X1"].copy()
                x1[x1.size // 2] = np.nan
                traj = dataclasses.replace(traj, traces={**traj.traces, "X1": x1})
        return traj

    monkeypatch.setattr(dynamics, "integrate", nan_trace)
    with pytest.raises(RuntimeError, match="X1 trace of a completed run is not finite"):
        conservation_suite(spec, n_ic=4, t_end=10.0, tol=1e-11, seed=5)
    assert len(completed) == bad_draw


RUN_WITHOUT_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())

import axisym
from axisym.catalog import SystemParams, build
from axisym.dynamics import detect_period, integrate
from axisym.figures import RECIPES
from axisym.verify import verify_system

spec = build("linear_min", SystemParams(u1=1e-4, bz=2.0))
traj = integrate(spec, [1.0, 0.0, 0.0, -1.5, 0.0, 0.0], 5.0)
assert traj.meta["reason"] == "axis_guard"
recipe = RECIPES[6]
rep = detect_period(build(recipe.system_id, recipe.params), recipe.ic,
                    recipe.detect_horizon, tol_return=recipe.tol_return)
assert rep.closed
assert verify_system(spec, samples=50, seed=1)
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, loaded
"""


def test_runtime_does_not_import_scipy():
    # scipy is a test dependency only: import, a guard stop, period
    # polishing and verification run with every scipy import blocked.
    src = str(Path(dynamics.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", RUN_WITHOUT_SCIPY], env=env, check=True)
