"""Verification machinery: brackets, closure identities, determining tiers."""

import dataclasses
import inspect
import re

import numpy as np
import pytest

from axisym import verify
from axisym.catalog import SystemParams, build
from axisym.families import build_family
from axisym.phase import Observable, make_rng, sample_safe_states
from axisym.verify import (
    QuadraticAnsatz,
    closure_residual,
    determining_residuals,
    functional_rank,
    is_integral,
    poisson,
    quadratic_ansatz,
    rank_vote,
    safe_grid,
    verify_system,
    y3_quadratic_ansatz,
)

from conftest import FAMILY_ARGS, PARAMS, SYSTEM_OF, chart_family


def test_poisson_canonical_pairs():
    x = Observable(lambda s: s[0], "x")
    px = Observable(lambda s: s[3], "px")
    py = Observable(lambda s: s[4], "py")
    state = [0.3, 0.6, -0.2, 1.0, 0.5, -0.4]
    assert poisson(x, px, state) == pytest.approx(1.0)
    assert poisson(x, py, state) == pytest.approx(0.0)
    assert poisson(px, x, state) == pytest.approx(-1.0)


def test_poisson_angular_momentum_algebra():
    lx = Observable(lambda s: s[1] * s[5] - s[2] * s[4], "Lx")
    ly = Observable(lambda s: s[2] * s[3] - s[0] * s[5], "Ly")
    lz = Observable(lambda s: s[0] * s[4] - s[1] * s[3], "Lz")
    state = [0.4, -0.8, 1.3, 0.2, 0.9, -0.5]
    assert poisson(lx, ly, state) == pytest.approx(lz.eval(state), rel=1e-12)


@pytest.mark.parametrize("key", list(PARAMS))
def test_is_integral_passes_for_catalog(key):
    spec = build(SYSTEM_OF[key], PARAMS[key])
    rng = make_rng(21)
    for g in spec.integrals:
        tol = 1e-8 if g.label == "Y4" else 1e-10
        rep = is_integral(spec, g, samples=300, tol=tol, rng=rng)
        assert rep.passed, (key, g.label, rep.max_residual)


def test_negative_control_perturbed_parameter_fails():
    good = build("op_min", PARAMS["op_min"])
    bad_params = dataclasses.replace(PARAMS["op_min"], u1=PARAMS["op_min"].u1 + 1e-3)
    bad = build("op_min", bad_params)
    rng = make_rng(22)
    # X1 of the perturbed system against the original Hamiltonian: the
    # u1-dependent term no longer matches the potential.
    rep = is_integral(good, bad.integral("X1"), samples=200, tol=1e-10, rng=rng)
    assert not rep.passed
    assert rep.max_residual > 1e-6

    # Perturbing u2 breaks Y3 as well.
    bad2 = build("op_min", dataclasses.replace(
        PARAMS["op_min"], u2=PARAMS["op_min"].u2 + 1e-3))
    rep = is_integral(good, bad2.integral("Y3"), samples=200, tol=1e-10, rng=rng)
    assert not rep.passed
    assert rep.max_residual > 1e-6


def test_rank_votes():
    states = sample_safe_states(make_rng(23), 25)
    for key, expected in [("op_min", 4), ("cp_min_bq", 4), ("max5", 5),
                          ("max6", 5), ("linear_max", 5)]:
        spec = build(SYSTEM_OF[key], PARAMS[key])
        assert rank_vote(list(spec.observables()), states) == expected, key


def test_functional_rank_detects_dependence():
    h = Observable(lambda s: s[3] * s[3] + s[4] * s[4], "h")
    h2 = Observable(lambda s: 3.0 * (s[3] * s[3] + s[4] * s[4]) + 1.0, "h2")
    other = Observable(lambda s: s[0], "x")
    state = [0.5, 0.2, 0.1, 1.0, 0.7, -0.3]
    assert functional_rank([h, h2], state) == 1
    assert functional_rank([h, other], state) == 2


@pytest.mark.parametrize("key", ["op_min", "cp_min_bq", "cp_min_bz"])
def test_closure_polynomial_holds(key):
    spec = build(SYSTEM_OF[key], PARAMS[key])
    states = sample_safe_states(make_rng(24), 500)
    rep = closure_residual(spec, states)
    assert rep.max_residual < 1e-9, (key, rep.max_residual)
    assert rep.passed


def test_closure_mutated_coefficient_control_fails():
    spec = build("op_min", PARAMS["op_min"])
    base = spec.params

    def mutated(H, X1, X2, Y3):
        from axisym.catalog import op_closure_polynomial
        # Perturb one printed coefficient: 32 H X1 Y3 -> 32.01 H X1 Y3.
        return op_closure_polynomial(base)(H, X1, X2, Y3) + 0.01 * H * X1 * Y3

    states = sample_safe_states(make_rng(25), 500)
    rep = closure_residual(spec, states, poly=mutated)
    assert rep.max_residual > 1e-2


def _spec(key):
    if key in FAMILY_ARGS:
        return build_family(chart_family(*FAMILY_ARGS[key]))
    return build(SYSTEM_OF[key], PARAMS[key])


@pytest.mark.parametrize("key", [*PARAMS, *FAMILY_ARGS])
def test_determining_tiers_vanish(key):
    # Every observable at most quadratic in momenta, H included, with
    # its (f, s, m0) read from the integral itself.
    spec = _spec(key)
    checked = []
    for obs in spec.observables():
        if not 0 <= obs.momentum_order <= 2:
            continue
        tiers = determining_residuals(quadratic_ansatz(spec, obs), spec.B,
                                      spec.W, safe_grid(3))
        bound = 1e-12 if obs.label == "H" else 1e-10
        assert max(tiers.values()) < bound, (key, obs.label, tiers)
        checked.append(obs.label)
    assert checked[:3] == ["H", "X1", "X2"]


def test_determining_tiers_hamiltonian_is_trivial_solution():
    spec = build("op_min", PARAMS["op_min"])
    tiers = determining_residuals(quadratic_ansatz(spec, spec.hamiltonian),
                                  spec.B, spec.W, safe_grid(3))
    assert max(tiers.values()) < 1e-12


def test_y3_ansatz_is_read_from_the_integral():
    spec = build("op_min", PARAMS["op_min"])
    ansatz = y3_quadratic_ansatz(spec)
    x, y, z = 0.7, 1.1, 0.9
    g = spec.params.bp / (z * z) + spec.params.bs * z * z
    assert ansatz.f33(x, y, z) == pytest.approx(1.0, abs=1e-14)
    for name in ("f11", "f22", "f12", "f13", "f23", "s3"):
        assert getattr(ansatz, name)(x, y, z) == pytest.approx(0.0, abs=1e-14)
    assert ansatz.s1(x, y, z) == pytest.approx(-y * g, rel=1e-14)
    assert ansatz.s2(x, y, z) == pytest.approx(x * g, rel=1e-14)
    with pytest.raises(ValueError):
        quadratic_ansatz(spec, Observable(lambda s: s[3] ** 3, "P3", 3))


@pytest.mark.parametrize("field,label", [("u2", "Y3"), ("bp", "X1")])
def test_determining_tiers_reject_a_perturbed_integral(field, label):
    # The perturbed system's integral against the original B and W.
    good = build("op_min", PARAMS["op_min"])
    bad = build("op_min", dataclasses.replace(
        PARAMS["op_min"], **{field: getattr(PARAMS["op_min"], field) + 1e-3}))
    tiers = determining_residuals(quadratic_ansatz(good, bad.integral(label)),
                                  good.B, good.W, safe_grid(3))
    assert tiers["first"] > 1e-3, (field, label, tiers)


def test_determining_tiers_broken_ansatz_fails():
    spec = build("op_min", PARAMS["op_min"])
    good = y3_quadratic_ansatz(spec)
    broken = dataclasses.replace(good, s1=lambda x, y, z: good.s1(x, y, z) + 0.01 * x)
    tiers = determining_residuals(broken, spec.B, spec.W, safe_grid(3))
    assert tiers["third"] < 1e-10          # leading tier untouched
    assert tiers["second"] > 1e-4          # linear tier now inconsistent


def test_verify_system_reports():
    spec = build("cp_min", PARAMS["cp_min_bq"])
    reports = verify_system(spec, samples=200, rank_points=10, seed=3)
    assert all(r.passed for r in reports), [
        (r.check, r.max_residual) for r in reports if not r.passed]
    checks = {r.check for r in reports}
    assert "{X1,H}=0" in checks
    assert "functional_rank" in checks
    assert "{X1,X2}=0" in checks and "{X2,Y3}=0" in checks
    assert "closure" in checks
    d = reports[0].as_dict()
    assert set(d) == {"system_id", "check", "samples", "max_residual",
                      "tolerance", "pass"}


def test_verify_does_not_dispatch_on_system_names():
    # Per-system data lives on the SystemSpec, not in string switches.
    source = inspect.getsource(verify)
    assert not re.search(r"system_id\s*(==|in\b)", source)
    assert 'meta.get("branch")' not in source


def test_closure_and_involutions_are_spec_data():
    bl = build("cp_min", PARAMS["cp_min_bl"])
    assert bl.closure is None and bl.involutions
    with pytest.raises(ValueError):
        closure_residual(bl, sample_safe_states(make_rng(26), 10))
    assert build("max5", PARAMS["max5"]).involutions == ()


def test_safe_grid_shape():
    grid = safe_grid(4)
    assert len(grid) == 64
    arr = np.asarray(grid)
    assert arr.min() >= 0.4 and arr.max() <= 1.8
