"""Curvilinear coordinate charts and their Cartesian transforms.

Chart domains: circular parabolic xi, eta > 0, phi in [0, 2pi); oblate
spheroidal xi >= 0, eta in (0, pi); prolate spheroidal xi > 0, eta in
(0, pi).  Spheroidal charts carry a scale parameter a > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import autodiff as ad
from .autodiff import Dual
from .phase import DomainError

CIRCULAR_PARABOLIC = "circular_parabolic"
OBLATE = "oblate_spheroidal"
PROLATE = "prolate_spheroidal"
CYLINDRICAL = "cylindrical"
SPHERICAL = "spherical"

_SPHEROIDAL = (OBLATE, PROLATE)
KINDS = (CIRCULAR_PARABOLIC, OBLATE, PROLATE, CYLINDRICAL, SPHERICAL)


@dataclass(frozen=True)
class CurvilinearCoords:
    """A point in one of the supported orthogonal charts."""

    kind: str
    values: tuple  # (xi, eta, phi) or (r, theta, z) or (R, theta_sph, phi)
    a: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown chart kind {self.kind!r}")
        if len(self.values) != 3:
            raise ValueError("chart point needs three coordinates")
        if self.kind in _SPHEROIDAL:
            if self.a is None or not self.a > 0:
                raise DomainError("spheroidal charts require scale a > 0")
        _check_domain(self.kind, self.values)


def _check_domain(kind, values):
    u, v, _ = values
    if kind == CIRCULAR_PARABOLIC:
        if not (u > 0 and v > 0):
            raise DomainError("circular parabolic chart requires xi, eta > 0")
    elif kind == OBLATE:
        if not (u >= 0 and 0 < v < math.pi):
            raise DomainError("oblate chart requires xi >= 0, eta in (0, pi)")
    elif kind == PROLATE:
        if not (u > 0 and 0 < v < math.pi):
            raise DomainError("prolate chart requires xi > 0, eta in (0, pi)")
    elif kind == CYLINDRICAL:
        if not u >= 0:
            raise DomainError("cylindrical chart requires r >= 0")
    elif kind == SPHERICAL:
        if not (u >= 0 and 0 <= v <= math.pi):
            raise DomainError("spherical chart requires R >= 0, theta in [0, pi]")


def chart_to_cartesian(kind, values, a=None):
    """Generic (dual-friendly) forward transform of one chart point."""
    u, v, w = values
    if kind == CIRCULAR_PARABOLIC:
        xi, eta, phi = u, v, w
        return (xi * eta * ad.cos(phi),
                xi * eta * ad.sin(phi),
                0.5 * (xi * xi - eta * eta))
    if kind == OBLATE:
        xi, eta, phi = u, v, w
        rho = a * ad.cosh(xi) * ad.sin(eta)
        return (rho * ad.cos(phi), rho * ad.sin(phi),
                a * ad.sinh(xi) * ad.cos(eta))
    if kind == PROLATE:
        xi, eta, phi = u, v, w
        rho = a * ad.sinh(xi) * ad.sin(eta)
        return (rho * ad.cos(phi), rho * ad.sin(phi),
                a * ad.cosh(xi) * ad.cos(eta))
    if kind == CYLINDRICAL:
        r, theta, z = u, v, w
        return (r * ad.cos(theta), r * ad.sin(theta), z)
    if kind == SPHERICAL:
        R, theta, phi = u, v, w
        return (R * ad.sin(theta) * ad.cos(phi),
                R * ad.sin(theta) * ad.sin(phi),
                R * ad.cos(theta))
    raise ValueError(kind)


def cartesian_to_chart(kind, x, y, z, a=None):
    """Inverse transform; generic over floats, arrays, and duals.

    Returns (xi, eta, phi) for the three rotational charts.  Valid on
    chart interiors (off the axis and away from focal sets).
    """
    s = x * x + y * y
    phi = ad.atan2(y, x)
    xi, eta = axial_to_chart(kind, s, z, a)
    return xi, eta, phi


def axial_to_chart(kind, s, z, a=None):
    """(xi, eta) of the rotational chart ``kind`` at s = x^2 + y^2 and z.

    The meridian coordinates depend on (s, z) alone; generic over
    floats, arrays, and duals.
    """
    if kind == CIRCULAR_PARABOLIC:
        R = ad.sqrt(s + z * z)
        return ad.sqrt(R + z), ad.sqrt(R - z)
    if kind == OBLATE:
        rho2 = s / (a * a)
        zeta2 = (z * z) / (a * a)
        t = rho2 + zeta2 - 1.0
        u = 0.5 * (t + ad.sqrt(t * t + 4.0 * zeta2))  # sinh(xi)^2
        return ad.asinh(ad.sqrt(u)), ad.acos(z / (a * ad.sqrt(u)))
    if kind == PROLATE:
        rho2 = s / (a * a)
        zeta2 = (z * z) / (a * a)
        t = rho2 + zeta2 - 1.0
        u = 0.5 * (t + ad.sqrt(t * t + 4.0 * rho2))  # sinh(xi)^2
        return ad.asinh(ad.sqrt(u)), ad.acos(z / (a * ad.sqrt(u + 1.0)))
    raise ValueError(f"no inverse implemented for chart {kind!r}")


def chart_jacobian(kind, values, a=None):
    """J[i][j] = d(cartesian_i) / d(curvilinear_j), exact via duals."""
    jac = [[None] * 3 for _ in range(3)]
    for j in range(3):
        # Promote every component to a fresh derivative level so that
        # pre-existing dual tangents on the inputs stay separate from
        # the seed direction (no perturbation confusion).
        seeded = [Dual(v, 1.0 if i == j else 0.0)
                  for i, v in enumerate(values)]
        xyz = chart_to_cartesian(kind, seeded, a)
        for i in range(3):
            jac[i][j] = ad.tangent(xyz[i])
    return jac


def momenta_to_chart(kind, values, p_cart, a=None):
    """Canonical chart momenta from Cartesian ones (point transformation).

    p_chart_j = sum_i (d x_i / d c_j) p_i.
    """
    jac = chart_jacobian(kind, values, a)
    return tuple(
        jac[0][j] * p_cart[0] + jac[1][j] * p_cart[1] + jac[2][j] * p_cart[2]
        for j in range(3)
    )
