"""Chart-based integrable families: brackets, limits, known field shapes."""

import numpy as np
import pytest

from axisym import autodiff as ad
from axisym.dynamics import eom_rhs, integrate
from axisym.families import IntegrableFamily, build_family
from axisym.phase import DomainError, gradient6, make_rng, sample_safe_states
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
    # Chart families carry no axial-gauge data g and W: their RHS is
    # the exact 6-gradient of H, on blocks and on single states alike.
    spec = build_family(chart_family("oblate", 1.3))
    assert spec.gauge_factor is None and spec.potential_sw is None
    states = _safe_family_states(4, seed=15)
    grad = gradient6(spec.hamiltonian.fn, list(states))
    expected = np.array([grad[3], grad[4], grad[5], -grad[0], -grad[1], -grad[2]])
    assert np.allclose(eom_rhs(spec, states), expected, rtol=1e-12, atol=1e-12)
    traj = integrate(spec, states[:, 0], 1.0, tol=1e-10)
    assert traj.meta["reason"] == "completed"
    assert traj.meta["rhs_backend"] == "dual"
    for label in ("H", "X1", "X2"):
        assert traj.drift(label) < 1e-8, label


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
