"""Integrable axially symmetric families on non-subgroup rotational charts.

Each family lives on one of the circular parabolic, oblate spheroidal,
or prolate spheroidal charts and is parametrized by four user-supplied
scalar functions: beta1(eta) and beta2(xi) shape the magnetic field
(and feed back into the scalar potential), rho1(eta) and rho2(xi)
appear in the scalar potential only.  The gauge is fixed so that the
axial integral X2 is exactly the canonical angular momentum p_phi; it
is the catalog's axial gauge, so each member is a catalog-style system
with H derived from its A and W.

All quantities are exposed on Cartesian phase-space states: positions
and momenta are pulled back through the inverse chart (a point
transformation), evaluated with exact forward-mode derivatives so the
resulting observables can be differentiated like any other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import autodiff as ad
from . import coords
from .catalog import SystemParams, SystemSpec, _axial_spec
from .phase import DomainError, Observable, exterior_derivative

# Accept both the short kind names and the full chart names.
_KIND_ALIASES = {
    "circular_parabolic": coords.CIRCULAR_PARABOLIC,
    "oblate": coords.OBLATE,
    "oblate_spheroidal": coords.OBLATE,
    "prolate": coords.PROLATE,
    "prolate_spheroidal": coords.PROLATE,
}


def _zero(_):
    return 0.0


@dataclass(frozen=True)
class IntegrableFamily:
    """One member of a chart-based integrable family.

    ``beta1``/``rho1`` are functions of eta, ``beta2``/``rho2`` of xi;
    each must be finite and differentiable on the chart domain and
    written against :mod:`axisym.autodiff` math so derivatives are
    exact.  ``a`` is the spheroidal scale (ignored for the circular
    parabolic chart).
    """

    kind: str
    beta1: Callable = _zero
    beta2: Callable = _zero
    rho1: Callable = _zero
    rho2: Callable = _zero
    a: Optional[float] = None

    def __post_init__(self):
        if self.kind not in _KIND_ALIASES:
            raise ValueError(f"unknown family kind {self.kind!r}")
        object.__setattr__(self, "kind", _KIND_ALIASES[self.kind])
        if self.kind in (coords.OBLATE, coords.PROLATE):
            if self.a is None or not self.a > 0:
                raise DomainError("spheroidal families require scale a > 0")


def _gauge_chart(f: IntegrableFamily):
    """G(xi, eta) with A_phi = -G in the chart gauge where X2 = p_phi."""
    if f.kind == coords.CIRCULAR_PARABOLIC:
        def G(xi, eta):
            return ((xi * xi * f.beta1(eta) + eta * eta * f.beta2(xi))
                    / (xi * xi + eta * eta))
    elif f.kind == coords.OBLATE:
        def G(xi, eta):
            ch2 = ad.cosh(xi) ** 2
            sn2 = ad.sin(eta) ** 2
            return (ch2 * f.beta1(eta) - sn2 * f.beta2(xi)) / (2.0 * (ch2 - sn2))
    else:  # prolate
        def G(xi, eta):
            sh2 = ad.sinh(xi) ** 2
            sn2 = ad.sin(eta) ** 2
            return (sh2 * f.beta1(eta) + sn2 * f.beta2(xi)) / (2.0 * (sh2 + sn2))
    return G


def _potential_chart(f: IntegrableFamily):
    """Scalar potential W(xi, eta) of the family."""
    if f.kind == coords.CIRCULAR_PARABOLIC:
        def W(xi, eta):
            x2, e2 = xi * xi, eta * eta
            db = (f.beta1(eta) - f.beta2(xi)) / (x2 + e2)
            return (0.5 * db * db
                    + (e2 * f.rho2(xi) - x2 * f.rho1(eta)) / (x2 * e2 * (x2 + e2)))
    elif f.kind == coords.OBLATE:
        a = f.a

        def W(xi, eta):
            ch2 = ad.cosh(xi) ** 2
            sn2 = ad.sin(eta) ** 2
            db = (f.beta1(eta) - f.beta2(xi)) / (2.0 * a * (ch2 - sn2))
            return (-0.5 * db * db
                    + (f.rho1(eta) + f.rho2(xi)) / (2.0 * a * a * (ch2 - sn2)))
    else:  # prolate
        a = f.a

        def W(xi, eta):
            sh2 = ad.sinh(xi) ** 2
            sn2 = ad.sin(eta) ** 2
            db = (f.beta1(eta) - f.beta2(xi)) / (2.0 * a * (sh2 + sn2))
            return (0.5 * db * db
                    + (f.rho1(eta) + f.rho2(xi)) / (2.0 * a * a * (sh2 + sn2)))
    return W


def _x1_chart(f: IntegrableFamily, G):
    """X1(xi, eta, p_xi, p_eta, p_phi) in the fixed gauge (A_xi = A_eta = 0)."""
    if f.kind == coords.CIRCULAR_PARABOLIC:
        def X1(xi, eta, pxi, peta, pphi):
            x2, e2 = xi * xi, eta * eta
            pf = pphi - G(xi, eta)
            return ((e2 * pxi * pxi - x2 * peta * peta) / (2.0 * (x2 + e2))
                    + (e2 - x2) / (2.0 * x2 * e2) * pf * pf
                    + (f.beta1(eta) - f.beta2(xi)) / (x2 + e2) * pf
                    + (x2 * x2 * f.rho1(eta) + e2 * e2 * f.rho2(xi))
                    / (x2 * e2 * (x2 + e2)))
    elif f.kind == coords.OBLATE:
        def X1(xi, eta, pxi, peta, pphi):
            ch2 = ad.cosh(xi) ** 2
            sn2 = ad.sin(eta) ** 2
            pf = pphi - G(xi, eta)
            return ((sn2 * pxi * pxi + ch2 * peta * peta) / (ch2 - sn2)
                    + (ch2 + sn2) / (ch2 * sn2) * pf * pf
                    + (f.beta1(eta) - f.beta2(xi)) / (ch2 - sn2) * pf
                    + (ch2 * f.rho1(eta) + sn2 * f.rho2(xi)) / (ch2 - sn2))
    else:  # prolate
        def X1(xi, eta, pxi, peta, pphi):
            sh2 = ad.sinh(xi) ** 2
            sn2 = ad.sin(eta) ** 2
            pf = pphi - G(xi, eta)
            return ((sh2 * peta * peta - sn2 * pxi * pxi) / (sh2 + sn2)
                    + (sh2 - sn2) / (sh2 * sn2) * pf * pf
                    + (f.beta2(xi) - f.beta1(eta)) / (sh2 + sn2) * pf
                    + (sh2 * f.rho1(eta) - sn2 * f.rho2(xi)) / (sh2 + sn2))
    return X1


def _chart_state(kind, a, state):
    """Chart coordinates and canonical chart momenta of a Cartesian state."""
    x, y, z, px, py, pz = state
    xi, eta, phi = coords.cartesian_to_chart(kind, x, y, z, a)
    pxi, peta, pphi = coords.momenta_to_chart(kind, (xi, eta, phi),
                                              (px, py, pz), a)
    return xi, eta, pxi, peta, pphi


def build_family(f: IntegrableFamily) -> SystemSpec:
    """Assemble the family member as a system on Cartesian phase space.

    The family is axially symmetric, so it is built like every catalog
    system (:func:`axisym.catalog._axial_spec`): its chart gauge
    A = -G dphi is the axial gauge A = g (-y, x, 0) with
    g(s, w) = -G(xi, eta) / s, its potential is W(s, w) = W(xi, eta),
    with (xi, eta) from :func:`axisym.coords.axial_to_chart`, and
    H = |p + A|^2 / 2 + W.  The magnetic field is dA, X1 is written in
    the chart and X2 = p_phi = x py - y px.  Evaluation at
    chart-singular points (the symmetry axis, the focal set of the
    spheroidal charts) is undefined and will not return finite values;
    integration stops at the guard radius of the axis
    (``singular_in={"r"}``).  Claimed functional rank is 3 (H, X1, X2).
    """
    kind, a = f.kind, f.a
    G = _gauge_chart(f)
    Wc = _potential_chart(f)
    X1c = _x1_chart(f, G)

    def g(s, w):
        return -G(*coords.axial_to_chart(kind, s, w, a)) / s

    def W_sw(s, w):
        return Wc(*coords.axial_to_chart(kind, s, w, a))

    def b_fn(x, y, z):    # dA of the spec's own gauge
        return exterior_derivative(spec.A, (x, y, z))

    def X1_fn(state):
        xi, eta, pxi, peta, pphi = _chart_state(kind, a, state)
        return X1c(xi, eta, pxi, peta, pphi)

    def X2_fn(state):
        x, y, _, px, py, _ = state
        return x * py - y * px  # canonical p_phi in this gauge

    params = SystemParams(a=a) if a is not None else SystemParams()
    spec = _axial_spec(
        f"family_{kind}", params, g, W_sw, b_fn,
        (Observable(X1_fn, label="X1", momentum_order=2),
         Observable(X2_fn, label="X2", momentum_order=1)),
        singular_in=frozenset({"r"}), serializable=False,
        meta={"kind": kind, "family": True})
    return spec
