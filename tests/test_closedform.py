"""Closed-form trajectories, resonance detection, and the rotating frame."""

import math

import numpy as np
import pytest

from axisym import closedform
from axisym.catalog import SystemParams, build
from axisym.closedform import (
    CP_BL,
    CP_MIN,
    OP_MIN,
    ResonanceParams,
    cartesian_state,
    closed_state,
    constants,
    frequency,
    oscillator_image,
    resonance_check,
    rotating_frame,
)
from axisym.dynamics import eom_rhs, integrate, radial_frequency
from axisym.phase import DomainError, PhasePoint, make_rng, sample_safe_states

from conftest import PARAMS


# One consistent setup per branch: catalog parameters, the conserved
# angular momentum, and a generic set of integration constants.
CASES = {
    OP_MIN: ("op_min", PARAMS["op_min"], 1.0,
             dict(c1=0.5, c2=0.3, c3=0.4, c4=-0.2, c5=0.2)),
    CP_MIN: ("cp_min", PARAMS["cp_min_bq"], 1.0,
             dict(c1=0.4, c2=-0.5, c3=0.3, c4=0.7, c5=0.1)),
    CP_BL: ("cp_min", PARAMS["cp_min_bl"], 1.2,
            dict(c1=0.3, c2=0.2, c3=0.5, c4=-0.4, c5=0.3)),
}


def _case(kind):
    system_id, params, Lz, cs = CASES[kind]
    spec = build(system_id, params)
    c = constants(kind, params, Lz=Lz, **cs)
    return spec, params, c


def test_frequency_formulas():
    p = PARAMS["op_min"]  # bz=7, u3=-1, bp=4, bs=2
    assert frequency(OP_MIN, p, Lz=1.0) == pytest.approx(7.0)
    assert frequency(CP_MIN, PARAMS["cp_min_bz"], Lz=0.3) == pytest.approx(2.0)
    assert frequency(CP_MIN, PARAMS["cp_min_bq"], Lz=1.0) == pytest.approx(4.0)
    assert frequency(CP_BL, PARAMS["cp_min_bl"], Lz=5.0) == pytest.approx(2.0)


def test_frequency_rejects_nonpositive_radicand():
    with pytest.raises(DomainError):
        frequency(CP_MIN, SystemParams(u1=1.0, u3=-1.0, bz=2.0), Lz=0.0)
    with pytest.raises(DomainError):
        frequency(CP_BL, SystemParams(u1=1.0, u3=0.0, bl=1.0), Lz=0.0)
    with pytest.raises(ValueError):
        frequency("nope", SystemParams(), Lz=0.0)


def test_constants_validation():
    p = PARAMS["cp_min_bz"]
    with pytest.raises(ValueError):
        constants(CP_MIN, p, 0.1, 0.0, 0.1, 0.0, 0.0, Lz=0.0, eps=2)
    # Lz^2 + 2 u2 must be positive for the radial amplitude
    bad = SystemParams(u1=1.0, u2=-0.5, u3=0.5, bz=4.0)
    with pytest.raises(DomainError):
        constants(CP_MIN, bad, 0.1, 0.0, 0.1, 0.0, 0.0, Lz=1.0)
    c = constants(CP_MIN, p, 0.1, 0.0, 0.1, 0.0, 0.0, Lz=1.0)
    assert c.nu == pytest.approx(2.0)
    with pytest.raises(ValueError):
        closed_state(OP_MIN, c, p, 0.0)


@pytest.mark.parametrize("kind", [OP_MIN, CP_MIN, CP_BL])
def test_closed_form_matches_numerical_integration(kind):
    spec, params, c = _case(kind)
    period = 2.0 * math.pi / c.nu
    ic = cartesian_state(kind, c, params, 0.0)
    assert spec.integral("X2").eval(ic) == pytest.approx(c.Lz, rel=1e-12)
    times = np.linspace(0.0, period, 41)
    traj = integrate(spec, ic, period, tol=1e-12, dt_out=period / 40.0)
    assert np.allclose(traj.times, times, atol=1e-12)
    worst = 0.0
    for t, numeric in zip(traj.times, traj.states):
        analytic = cartesian_state(kind, c, params, t)
        worst = max(worst, float(np.max(np.abs(analytic - numeric))))
    assert worst < 1e-6, (kind, worst)


@pytest.mark.parametrize("kind", [OP_MIN, CP_MIN, CP_BL])
def test_closed_form_satisfies_equations_of_motion(kind):
    spec, params, c = _case(kind)
    h = 1e-5
    for t in np.linspace(0.1, 0.1 + 4.0 * math.pi / c.nu, 17):
        state = cartesian_state(kind, c, params, t)
        fd = (cartesian_state(kind, c, params, t + h)
              - cartesian_state(kind, c, params, t - h)) / (2.0 * h)
        rhs = eom_rhs(spec, state)
        assert np.max(np.abs(fd - rhs)) < 1e-5, (kind, t)


@pytest.mark.parametrize("kind", [OP_MIN, CP_MIN, CP_BL])
def test_cartesian_state_on_an_array_of_times(kind):
    _, params, c = _case(kind)
    ts = np.linspace(0.0, 8.0 * math.pi / c.nu, 501)
    block = cartesian_state(kind, c, params, ts)
    loop = np.stack([cartesian_state(kind, c, params, t) for t in ts], axis=1)
    assert block.shape == (6, ts.size)
    # numpy's cos, sin, tan and arctan may differ from math's in the last bit.
    np.testing.assert_allclose(block, loop, rtol=1e-14, atol=1e-14)
    pos, vel = closed_state(kind, c, params, ts)
    assert all(np.shape(v) == ts.shape for v in (*pos, *vel))
    (r, z, theta), _ = closed_state(kind, c, params, ts[7])
    assert all(type(v) is float for v in (r, z, theta))


@pytest.mark.parametrize("kind", [OP_MIN, CP_MIN, CP_BL])
def test_scalar_states_equal_the_dual_evaluation(kind):
    _, params, c = _case(kind)
    for t in np.linspace(0.0, 8.0 * math.pi / c.nu, 2001):
        want = closedform._dual_state(kind, c, params, float(t))
        pos, vel = closed_state(kind, c, params, t)
        assert np.array_equal([*pos, *vel], want[:6]), (kind, t)
        assert np.array_equal(cartesian_state(kind, c, params, t), want[6:]), (kind, t)


def test_degenerate_constant_amplitudes_give_circular_orbit():
    params = PARAMS["cp_min_bz"]
    spec = build("cp_min", params)
    c = constants(CP_MIN, params, 0.0, 0.0, 0.0, 0.0, 0.0, Lz=1.0)
    for t in (0.0, 0.7, 2.3):
        (r, z, _), (rdot, zdot, _) = closed_state(CP_MIN, c, params, t)
        assert rdot == pytest.approx(0.0, abs=1e-12)
        assert zdot == pytest.approx(0.0, abs=1e-12)
        assert z == pytest.approx(-params.u1 / c.nu ** 2)
    (_, z, _), (rdot, zdot, _) = closed_state(CP_MIN, c, params, np.array([0.0, 0.7, 2.3]))
    assert np.all(np.abs(rdot) < 1e-12) and np.all(np.abs(zdot) < 1e-12)
    assert np.shape(z) == (3,)
    ic = cartesian_state(CP_MIN, c, params, 0.0)
    traj = integrate(spec, ic, 3.0, tol=1e-12)
    r = np.hypot(traj.states[:, 0], traj.states[:, 1])
    assert np.max(np.abs(r - r[0])) < 1e-9


@pytest.mark.parametrize("kind", [OP_MIN, CP_MIN])
def test_measured_frequency_matches_formula(kind):
    spec, params, c = _case(kind)
    ic = cartesian_state(kind, c, params, 0.0)
    horizon = 8.0 * 2.0 * math.pi / c.nu
    measured = radial_frequency(spec, ic, horizon=horizon, tol=1e-12)
    assert measured == pytest.approx(c.nu, rel=1e-4)


def test_isochronicity_without_bs_bp():
    # With bs = bp = 0 the frequency loses its Lz dependence entirely.
    params = SystemParams(u1=2.0, u2=1.5, u3=-1.0, bz=7.0)
    nu0 = math.sqrt(params.bz ** 2 - 8.0 * params.u3)
    rng = make_rng(41)
    for Lz in rng.uniform(-2.0, 2.0, size=100):
        assert frequency(OP_MIN, params, Lz) == nu0
    # and measured periods agree across distinct angular momenta
    spec = build("op_min", params)
    for Lz in (0.5, 1.0, 1.7):
        c = constants(OP_MIN, params, 0.3, 0.1, 0.2, -0.4, 0.0, Lz=Lz)
        ic = cartesian_state(OP_MIN, c, params, 0.0)
        measured = radial_frequency(spec, ic, horizon=16.0 * math.pi / nu0,
                                    tol=1e-12)
        assert measured == pytest.approx(nu0, rel=1e-4)


def test_resonance_check_examples():
    bz = 2.0
    u3 = bz ** 2 / 8.0 * (1.0 - 9.0 / 16.0)
    res = resonance_check(SystemParams(u3=u3, bz=bz), OP_MIN)
    assert (res.n, res.m) == (3, 2)

    res = resonance_check(SystemParams(u3=9.0 / 32.0, bz=3.0), CP_MIN)
    assert (res.n, res.m) == (1, 2)

    assert resonance_check(SystemParams(u3=0.1234, bz=2.0), OP_MIN) is None
    # non-positive ratio squared: no real resonance
    assert resonance_check(SystemParams(u3=1.0, bz=2.0), OP_MIN) is None
    with pytest.raises(ValueError):
        resonance_check(SystemParams(u3=0.5), OP_MIN)
    with pytest.raises(ValueError):
        resonance_check(SystemParams(u3=0.5, bz=1.0), "nope")


def test_resonance_params_reduce():
    assert ResonanceParams(4, 2) == ResonanceParams(2, 1)
    with pytest.raises(ValueError):
        ResonanceParams(0, 1)


def test_rotating_frame_basic_angles():
    state = [1.0, 2.0, 3.0, 0.5, -0.5, 0.25]
    same = rotating_frame(2.0, 0.0, state)
    assert np.allclose(np.r_[same.q, same.p], state)
    # at t = 2 pi / bz the frame has turned by half a revolution
    half = rotating_frame(2.0, math.pi, state)
    assert np.allclose(half.q, [-1.0, -2.0, 3.0], atol=1e-14)
    assert np.allclose(half.p, [-0.5, 0.5, 0.25], atol=1e-14)


def _rotation_and_rate(bz, t):
    ang = -bz * t / 2.0
    ca, sa = math.cos(ang), math.sin(ang)
    R = np.asarray([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    dR = (-bz / 2.0) * np.asarray([[-sa, -ca, 0.0], [ca, -sa, 0.0],
                                   [0.0, 0.0, 0.0]])
    return R, dR


@pytest.mark.parametrize("key,kind", [("max5", "max5"), ("max6", "max6")])
def test_rotating_frame_conjugates_to_oscillator(key, kind):
    spec = build(kind, PARAMS[key])
    osc = oscillator_image(kind, spec.params)
    ic = [1.0, -1.0, 1.0, 1.0, 0.0, 0.0]
    traj = integrate(spec, ic, 6.0, tol=1e-12, dt_out=0.2)
    worst = 0.0
    for t, state in zip(traj.times, traj.states):
        R, dR = _rotation_and_rate(spec.params.bz, t)
        q, p = state[:3], state[3:]
        mapped = np.r_[R @ q, R @ p]
        qdot, pdot = eom_rhs(spec, state)[:3], eom_rhs(spec, state)[3:]
        lhs = np.r_[dR @ q + R @ qdot, dR @ p + R @ pdot]
        rhs = eom_rhs(osc, mapped)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < 1e-8, (kind, worst)


@pytest.mark.parametrize("key", ["max5", "max6"])
def test_oscillator_images_are_the_field_free_oscillators(key):
    # max5: H = |p|^2/2 + u2/z^2 + n^2 bz^2 R^2 / (32 m^2), caged;
    # max6: H = |p|^2/2 + n^2 bz^2 (x^2 + y^2 + 4 z^2) / (8 m^2).
    p = PARAMS[key]
    osc = oscillator_image(key, p)
    w = p.n * p.n * p.bz * p.bz / (p.m * p.m)
    states = sample_safe_states(make_rng(12), 200)
    x, y, z, px, py, pz = states
    if key == "max5":
        force = (-w / 16.0 * x, -w / 16.0 * y, -w / 16.0 * z + 2.0 * p.u2 / z ** 3)
    else:
        force = (-w / 4.0 * x, -w / 4.0 * y, -w * z)
    assert np.allclose(eom_rhs(osc, states), [px, py, pz, *force], rtol=1e-13, atol=1e-13)
    assert osc.meta == {"nu": p.n * p.bz / (2.0 * p.m), "source": key}
    assert osc.claimed_rank == 3 and osc.params == SystemParams(u2=p.u2)


def test_oscillator_image_preconditions():
    with pytest.raises(ValueError):
        oscillator_image("max5", SystemParams(u1=1.0, u2=1.0, bz=2.0, n=1, m=1))
    with pytest.raises(ValueError):
        oscillator_image("max6", SystemParams(u2=1.0, bz=2.0, n=1, m=1))
    with pytest.raises(ValueError):
        oscillator_image("max5", SystemParams(u2=1.0, bz=2.0))
    with pytest.raises(ValueError):
        oscillator_image("op_min", SystemParams(bz=2.0, n=1, m=1))
    osc = oscillator_image("max6", SystemParams(bz=3.0, n=1, m=2))
    assert osc.meta["nu"] == pytest.approx(0.75)
    assert not osc.serializable
