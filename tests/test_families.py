"""Chart-based integrable families: brackets, limits, known field shapes."""

import numpy as np
import pytest

from axisym import autodiff as ad
from axisym.dynamics import GUARD_RADIUS, _make_dual_rhs, _make_scalar_rhs, eom_rhs, integrate
from axisym.families import IntegrableFamily, build_family
from axisym.phase import DomainError, make_rng, sample_safe_states
from axisym.trace import evaluate_rows
from axisym.verify import bracket_residuals

from conftest import chart_family

BRACKET_TOL = 1e-10


def _safe_family_states(n, seed=0):
    # Keep clear of the symmetry axis and the focal sets of the charts.
    rng = make_rng(seed)
    states = sample_safe_states(rng, 4 * n)
    r = np.hypot(states[0], states[1])
    keep = (r > 0.5) & (np.abs(states[2]) > 0.5)
    states = states[:, keep]
    assert states.shape[1] >= n
    return states[:, :n]


@pytest.mark.parametrize("kind,a", [
    ("circular_parabolic", None),
    ("oblate", 1.3),
    ("prolate", 1.3),
])
def test_family_brackets_vanish(kind, a):
    spec = build_family(chart_family(kind, a))
    states = _safe_family_states(60, seed=11)
    for obs in spec.integrals:
        res = bracket_residuals(obs, spec.hamiltonian, states)
        assert np.max(res) < BRACKET_TOL, (kind, obs.label)
    # X1 and X2 are in involution as well
    res = bracket_residuals(spec.integrals[0], spec.integrals[1], states)
    assert np.max(res) < BRACKET_TOL


def test_family_equations_of_motion_and_integration():
    # Chart families carry the catalog's axial-gauge data g and W: their
    # RHS is the one closed form, traced with its math functions, equal
    # to the dual-number RHS on blocks and on single states alike.
    spec = build_family(chart_family("oblate", 1.3))
    states = _safe_family_states(4, seed=15)
    dual = _make_dual_rhs(spec)
    assert np.array_equal(eom_rhs(spec, states), evaluate_rows(dual, 0.0, states))
    for state in states.T:
        y = tuple(state.tolist())
        assert _make_scalar_rhs(spec)(0.0, y) == dual(0.0, y)
    traj = integrate(spec, states[:, 0], 1.0, tol=1e-10)
    assert traj.meta["reason"] == "completed"
    assert traj.meta["nfev"] == 764          # as on dual numbers, axis guard or not
    for label in ("H", "X1", "X2"):
        assert traj.drift(label) < 1e-8, label


@pytest.mark.parametrize("kind,a", [
    ("circular_parabolic", None),
    ("oblate", 1.3),
    ("prolate", 1.3),
])
def test_family_run_towards_the_axis_stops_at_the_guard(kind, a):
    # rho1 pulls towards the axis, where every chart is singular; with
    # Lz = x py - y px = 0 nothing holds the particle off it.
    spec = build_family(IntegrableFamily(kind=kind, a=a, rho1=lambda e: 0.5 * e))
    assert spec.singular_in == {"r"}
    traj = integrate(spec, [0.5, 0.0, 0.3, -1.0, 0.0, 0.0], 5.0, tol=1e-10)
    assert traj.meta["reason"] == "axis_guard" and traj.aborted
    assert np.hypot(*traj.states[-1, :2]) == pytest.approx(GUARD_RADIUS, rel=1e-6)
    with pytest.raises(DomainError):
        eom_rhs(spec, [0.01, 0.0, 0.3, -1.0, 0.0, 0.0])


def test_family_free_particle_limit():
    # All four structure functions zero: no field, no potential.
    spec = build_family(IntegrableFamily(kind="circular_parabolic"))
    states = _safe_family_states(20, seed=12)
    for state in states.T:
        x, y, z, px, py, pz = state
        assert spec.hamiltonian.eval(state) == pytest.approx(
            0.5 * (px * px + py * py + pz * pz), rel=1e-10)
        B = [float(ad.value(c)) for c in spec.B(state[:3])]
        assert np.allclose(B, 0.0, atol=1e-10)


def test_oblate_family_constant_field_member():
    # beta choices that realize a uniform field along z on the oblate chart.
    bz, a = 1.7, 1.2
    fam = IntegrableFamily(
        kind="oblate",
        beta1=lambda eta: bz * a * a * ad.sin(eta) ** 4,
        beta2=lambda xi: bz * a * a * ad.cosh(xi) ** 4,
        a=a,
    )
    spec = build_family(fam)
    states = _safe_family_states(20, seed=13)
    for state in states.T:
        B = [float(ad.value(c)) for c in spec.B(state[:3])]
        assert B == pytest.approx([0.0, 0.0, bz], abs=1e-9)


def test_family_x2_is_angular_momentum():
    fam = IntegrableFamily(kind="prolate", beta1=lambda e: 0.3, a=1.1)
    spec = build_family(fam)
    for state in _safe_family_states(10, seed=14).T:
        x, y, _, px, py, _ = state
        assert spec.integrals[1].eval(state) == pytest.approx(
            x * py - y * px, rel=1e-12)


def test_family_validation():
    with pytest.raises(ValueError):
        IntegrableFamily(kind="cartesian")
    with pytest.raises(DomainError):
        IntegrableFamily(kind="oblate")  # missing scale
    fam = IntegrableFamily(kind="oblate_spheroidal", a=2.0)
    assert fam.kind == "oblate_spheroidal"


def test_family_spec_is_not_serializable():
    spec = build_family(IntegrableFamily(kind="circular_parabolic"))
    assert not spec.serializable
    with pytest.raises(ValueError):
        spec.to_json()
