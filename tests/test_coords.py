"""Curvilinear charts: known points, inverse roundtrips, momenta transforms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axisym import autodiff as ad
from axisym import coords
from axisym.coords import (
    CIRCULAR_PARABOLIC,
    OBLATE,
    PROLATE,
    CurvilinearCoords,
    axial_to_chart,
    cartesian_to_chart,
    chart_jacobian,
    chart_to_cartesian,
    momenta_to_chart,
)
from axisym.phase import DomainError


def test_circular_parabolic_unit_point():
    c = CurvilinearCoords(CIRCULAR_PARABOLIC, (1.0, 1.0, 0.0))
    assert chart_to_cartesian(c.kind, c.values) == pytest.approx((1.0, 0.0, 0.0))


def test_oblate_axis_degenerate_point_maps_to_origin():
    # xi = 0 with eta -> 0 lies on the focal disc boundary; the forward
    # transform itself is well defined and sends (0, 0, phi) to the origin.
    x, y, z = chart_to_cartesian(OBLATE, (0.0, 0.0, 0.3), a=1.5)
    assert (float(x), float(y), float(z)) == pytest.approx((0.0, 0.0, 1.5 * 0.0 * 1.0), abs=1e-15)
    # but eta = 0 is outside the validated chart domain
    with pytest.raises(DomainError):
        CurvilinearCoords(OBLATE, (0.0, 0.0, 0.3), a=1.5)


def test_prolate_reference_point():
    c = CurvilinearCoords(PROLATE, (1.0, math.pi / 2.0, math.pi), a=2.0)
    x, y, z = chart_to_cartesian(c.kind, c.values, c.a)
    assert x == pytest.approx(-2.0 * math.sinh(1.0), rel=1e-14)
    assert y == pytest.approx(0.0, abs=1e-14)
    assert z == pytest.approx(0.0, abs=1e-14)


def test_domain_validation():
    with pytest.raises(DomainError):
        CurvilinearCoords(CIRCULAR_PARABOLIC, (0.0, 1.0, 0.0))
    with pytest.raises(DomainError):
        CurvilinearCoords(PROLATE, (1.0, 0.0, 0.0), a=1.0)
    with pytest.raises(DomainError):
        CurvilinearCoords(OBLATE, (1.0, 1.0, 0.0))  # missing scale
    with pytest.raises(ValueError):
        CurvilinearCoords("nope", (1.0, 1.0, 0.0))


@given(st.floats(0.2, 2.0), st.floats(0.2, 2.0), st.floats(-3.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_circular_parabolic_roundtrip(xi, eta, phi):
    x, y, z = chart_to_cartesian(CIRCULAR_PARABOLIC, (xi, eta, phi))
    xi2, eta2, phi2 = cartesian_to_chart(CIRCULAR_PARABOLIC, x, y, z)
    assert xi2 == pytest.approx(xi, rel=1e-10)
    assert eta2 == pytest.approx(eta, rel=1e-10)
    x2, y2, z2 = chart_to_cartesian(CIRCULAR_PARABOLIC, (xi2, eta2, phi2))
    assert (float(x2), float(y2), float(z2)) == pytest.approx((x, y, z), rel=1e-10)


@pytest.mark.parametrize("kind", [OBLATE, PROLATE])
@given(xi=st.floats(0.2, 1.5), eta=st.floats(0.3, 2.8), phi=st.floats(-3.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_spheroidal_roundtrips(kind, xi, eta, phi):
    a = 1.3
    x, y, z = chart_to_cartesian(kind, (xi, eta, phi), a)
    xi2, eta2, _ = cartesian_to_chart(kind, x, y, z, a)
    assert float(xi2) == pytest.approx(xi, rel=1e-8, abs=1e-9)
    assert float(eta2) == pytest.approx(eta, rel=1e-8, abs=1e-9)


@pytest.mark.parametrize("kind,a", [(CIRCULAR_PARABOLIC, None), (OBLATE, 1.3), (PROLATE, 1.3)])
def test_axial_chart_and_atan2_give_cartesian_to_chart(kind, a):
    # (xi, eta) depend on (s, z) alone; with phi = atan2(y, x) they are
    # the inverse transform bit for bit, on floats and on rows.
    rng = np.random.default_rng(5)
    rows = rng.uniform(-2.0, 2.0, size=(3, 200))
    rows[:2] += np.where(rows[:2] < 0.0, -0.1, 0.1)    # off the axis
    for x, y, z in [*(tuple(map(float, col)) for col in rows.T), tuple(rows)]:
        xi, eta = axial_to_chart(kind, x * x + y * y, z, a)
        want = cartesian_to_chart(kind, x, y, z, a)
        assert np.array_equal(want, (xi, eta, ad.atan2(y, x)))


def test_jacobian_matches_finite_differences():
    h = 1e-7
    for kind, vals, a in [
        (CIRCULAR_PARABOLIC, (0.8, 1.1, 0.4), None),
        (OBLATE, (0.6, 1.0, -0.3), 1.7),
        (PROLATE, (0.9, 1.2, 2.0), 1.7),
    ]:
        jac = chart_jacobian(kind, vals, a)
        for j in range(3):
            up = list(vals)
            dn = list(vals)
            up[j] += h
            dn[j] -= h
            fu = chart_to_cartesian(kind, up, a)
            fd = chart_to_cartesian(kind, dn, a)
            for i in range(3):
                fdij = (float(fu[i]) - float(fd[i])) / (2.0 * h)
                assert float(jac[i][j]) == pytest.approx(fdij, rel=1e-6, abs=1e-6)


def test_momenta_transform_preserves_kinetic_pairing():
    # p_chart . qdot_chart == p_cart . qdot_cart for any linear motion
    # consistent with the chart jacobian (point transformation test).
    kind, vals, a = PROLATE, (0.7, 1.3, 0.5), 1.4
    p_cart = (0.3, -1.1, 0.8)
    jac = np.asarray([[float(c) for c in row]
                      for row in chart_jacobian(kind, vals, a)])
    p_chart = np.asarray([float(c) for c in
                          momenta_to_chart(kind, vals, p_cart, a)])
    qdot_chart = np.asarray([0.2, -0.4, 0.9])
    qdot_cart = jac @ qdot_chart
    assert p_chart @ qdot_chart == pytest.approx(np.asarray(p_cart) @ qdot_cart,
                                                 rel=1e-12)


def test_cylindrical_and_spherical_forward():
    x, y, z = chart_to_cartesian(coords.CYLINDRICAL, (2.0, math.pi / 2, 5.0))
    assert (float(x), float(y), float(z)) == pytest.approx((0.0, 2.0, 5.0), abs=1e-15)
    x, y, z = chart_to_cartesian(coords.SPHERICAL, (2.0, math.pi / 2, 0.0))
    assert (float(x), float(y), float(z)) == pytest.approx((2.0, 0.0, 0.0), abs=1e-15)
