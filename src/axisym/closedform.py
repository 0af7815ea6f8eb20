"""Analytic trajectories, resonance analysis, and the rotating frame.

The two quadratic minimally superintegrable systems (and the shifted
branch of the second one) admit closed-form solutions in cylindrical
coordinates: r and z oscillate with one shared frequency nu fixed by
the conserved angular momentum, while theta combines a linear drift
with bounded oscillatory terms.  Derivatives are obtained by running
the same expressions on dual numbers, so the solutions can be checked
directly against the equations of motion.  That evaluation is traced
once per set of constants into straight-line code (:mod:`axisym.trace`),
which gives its values bit for bit on a time or an array of times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import trace
from .autodiff import Dual
from .catalog import SystemParams, SystemSpec, _axial_spec, _constant_field, _x2, build
from .phase import DomainError, Observable, PhasePoint

OP_MIN = "op_min"
CP_MIN = "cp_min"
CP_BL = "cp_blbranch"
KINDS = (OP_MIN, CP_MIN, CP_BL)

RESONANCE_MAX_DENOMINATOR = 64
RESONANCE_RTOL = 1e-12


def frequency(kind: str, params: SystemParams, Lz: float) -> float:
    """Shared oscillation frequency of r and z for the given branch.

    Raises DomainError when the radicand is not positive (unbounded or
    degenerate motion).
    """
    if kind == OP_MIN:
        rad = (params.bz ** 2 - 8.0 * params.u3
               + 2.0 * params.bs * (2.0 * Lz - params.bp))
    elif kind == CP_MIN:
        rad = 8.0 * params.u3 + 2.0 * params.bq * Lz
    elif kind == CP_BL:
        rad = 8.0 * params.u3
    else:
        raise ValueError(f"unknown closed-form kind {kind!r}")
    if not rad > 0.0:
        raise DomainError(f"{kind}: frequency radicand {rad} is not positive")
    return math.sqrt(rad)


@dataclass(frozen=True)
class ClosedFormConstants:
    """Integration constants plus the derived frequency data.

    Build with :func:`constants`, which validates every radicand and
    fills in nu and the k coefficients for the chosen branch.
    """

    kind: str
    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    Lz: float
    eps: int = 1
    nu: float = 0.0
    k1: float = 0.0
    k2: float = 0.0
    k3: Optional[float] = None


def constants(kind: str, params: SystemParams, c1: float, c2: float,
              c3: float, c4: float, c5: float, Lz: float,
              eps: int = 1) -> ClosedFormConstants:
    """Validate and complete a set of closed-form constants."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    c = ClosedFormConstants(kind=kind, c1=c1, c2=c2, c3=c3, c4=c4, c5=c5, Lz=Lz,
                            eps=eps, nu=frequency(kind, params, Lz))
    (k1, k2, k3), _ = _solution(kind, c, params, 0.0)
    return replace(c, k1=k1, k2=k2, k3=k3)


def _radial(c: float, a: float, nu: float, what: str) -> tuple:
    """(S, k) of the motion q^2 = c cos(u) + S, u = nu t + const.

    It is the motion of r^2 on every branch, with a = Lz^2 + 2 u, and of
    op_min's z^2, with a = bp Lz + 2 u2; k is the coefficient of the
    angle's term atan(k tan(u / 2)).  ``what`` names a in the DomainError
    raised unless a > 0.
    """
    if not a > 0.0:
        raise DomainError(f"closed form needs {what} > 0, not {a}")
    S = math.sqrt(c * c + 4.0 * a / nu ** 2)
    return S, math.sqrt(1.0 + c * c * nu * nu / (4.0 * a)) - c * nu / (2.0 * math.sqrt(a))


def _atan_unwrapped(k, u):
    """Continuous branch of atan(k * tan(u/2)).

    The principal branch jumps by -pi whenever u crosses pi (mod 2 pi);
    adding pi * floor((u + pi) / (2 pi)) restores continuity.
    """
    return ad.atan(k * ad.tan(u / 2.0)) + math.pi * ad.floor((u + math.pi) / (2.0 * math.pi))


def _solution(kind: str, c: ClosedFormConstants, params: SystemParams, t) -> tuple:
    """((k1, k2, k3), (r, z, theta) at time t) of the branch ``kind``.

    Reads c1-c5, Lz, eps and nu of ``c``, not its k fields; t may be a
    float, a dual or an array.  k3 is None off op_min.
    """
    nu, Lz = c.nu, c.Lz
    u_r = nu * t + c.c2
    u_z = nu * t + c.c4
    a_r = Lz * Lz + 2.0 * (params.u1 if kind == OP_MIN else params.u2)
    S1, k2 = _radial(c.c1, a_r, nu, "Lz^2 + 2 u1" if kind == OP_MIN else "Lz^2 + 2 u2")
    r = ad.sqrt(c.c1 * ad.cos(u_r) + S1)
    spin = Lz / math.sqrt(a_r) * _atan_unwrapped(k2, u_r)
    k3 = None
    if kind == OP_MIN:
        a_z = params.bp * Lz + 2.0 * params.u2
        S3, k3 = _radial(c.c3, a_z, nu, "bp Lz + 2 u2")
        k1 = params.bz / 2.0 + params.bs / 2.0 * (S1 + S3)
        z = c.eps * ad.sqrt(c.c3 * ad.cos(u_z) + S3)
        theta = (c.c5 + k1 * t
                 + params.bs / (2.0 * nu) * (c.c1 * ad.sin(u_r) + c.c3 * ad.sin(u_z))
                 + spin
                 + params.bp / (2.0 * math.sqrt(a_z)) * _atan_unwrapped(k3, u_z))
    elif kind == CP_MIN:
        k1 = params.bz / 2.0 + params.bq * (c.c3 * c.c3 / 2.0
                                            + params.u1 ** 2 / nu ** 4
                                            + S1 / 4.0)
        z = c.c3 * ad.cos(u_z) - params.u1 / nu ** 2
        theta = (c.c5 + k1 * t
                 + spin
                 + params.bq / nu * (c.c1 / 4.0 * ad.sin(u_r)
                                     - 2.0 * c.c3 * params.u1 / nu ** 2 * ad.sin(u_z)
                                     + c.c3 ** 2 / 2.0 * ad.cos(u_z) * ad.sin(u_z)))
    elif kind == CP_BL:
        u3 = params.u3
        k1 = -params.bl * (params.bl * Lz - params.u1) / (8.0 * u3)
        z = c.c3 * ad.cos(u_z) + (params.bl * Lz - params.u1) / (8.0 * u3)
        theta = (c.c5 + k1 * t
                 - c.c3 * params.bl / nu * ad.sin(u_z)
                 + spin)
    else:
        raise ValueError(f"unknown closed-form kind {kind!r}")
    return (k1, k2, k3), (r, z, theta)


def _dual_state(kind: str, c: ClosedFormConstants, params: SystemParams, t) -> tuple:
    """(r, z, theta, rdot, zdot, thetadot, x, y, z, px, py, pz) at time t.

    Evaluated on one dual number, so the velocities are exact; ``t`` is
    a float or an array of times.  In the axial gauge of the catalog
    systems, p_r = rdot, p_z = zdot and the canonical angular momentum
    is the constant Lz, so the Cartesian canonical momenta follow from
    the point transformation.
    """
    _, (r, z, theta) = _solution(kind, c, params, Dual(t, 1.0))
    r, z, theta, rdot, zdot, thetadot = (*map(ad.value, (r, z, theta)),
                                         *map(ad.tangent, (r, z, theta)))
    ct, st = ad.cos(theta), ad.sin(theta)
    return (r, z, theta, rdot, zdot, thetadot,
            r * ct, r * st, z, rdot * ct - c.Lz / r * st, rdot * st + c.Lz / r * ct, zdot)


def _state(kind: str, c: ClosedFormConstants, params: SystemParams, t) -> tuple:
    """:func:`_dual_state` by its traced program, at a scalar or an array t.

    One program per constants and params object, kept while both live:
    floats for a scalar ``t``, arrays of its shape for an ndarray of times.
    """
    if c.kind != kind:
        raise ValueError("constants were built for a different branch")

    def fn(_, y):
        return _dual_state(kind, c, params, y[0])

    program = trace.cached_program((c, params), fn, f"closed form {kind}", inputs=1)
    if isinstance(t, np.ndarray) and t.ndim > 0:
        return [np.broadcast_to(v, t.shape) for v in program(0.0, (t.astype(float),))]
    return program(0.0, (float(t),))


def closed_state(kind: str, c: ClosedFormConstants, params: SystemParams, t):
    """Cylindrical position (r, z, theta) and its exact time derivative.

    Returns ((r, z, theta), (rdot, zdot, thetadot)) at time t: floats
    for a scalar t, arrays of its shape for an ndarray of times.
    """
    values = _state(kind, c, params, t)
    return tuple(values[:3]), tuple(values[3:6])


def cartesian_state(kind: str, c: ClosedFormConstants, params: SystemParams,
                    t) -> np.ndarray:
    """Cartesian state (x, y, z, px, py, pz) with canonical momenta.

    A scalar t gives a (6,) array, an (N,) ndarray of times a (6, N) block.
    """
    return np.asarray(_state(kind, c, params, t)[6:])


@dataclass(frozen=True)
class ResonanceParams:
    """Coprime frequency-ratio integers."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be positive")
        g = math.gcd(self.n, self.m)
        object.__setattr__(self, "n", self.n // g)
        object.__setattr__(self, "m", self.m // g)


def resonance_check(params: SystemParams, kind: str = OP_MIN) -> Optional[ResonanceParams]:
    """Detect whether u3 and bz satisfy the closure rationality relation.

    For the radial branch (``OP_MIN``, the relation of max5) it is
    u3 = (bz^2/8)(1 - n^2/(4m^2)); for the parabolic branch (``CP_MIN``,
    that of max6) it is u3 = n^2 bz^2 / (8 m^2).  Searches denominators
    m <= 64 and demands relative agreement 1e-12; returns the reduced
    (n, m) or None.
    """
    if params.bz == 0.0:
        raise ValueError("resonance analysis needs bz != 0")
    bz2 = params.bz ** 2
    if kind == OP_MIN:
        q2, per_m = 1.0 - 8.0 * params.u3 / bz2, 2        # (n / 2m)^2

        def u3_at(n, m):
            return bz2 / 8.0 * (1.0 - n * n / (4.0 * m * m))
    elif kind == CP_MIN:
        q2, per_m = params.u3 * 8.0 / bz2, 1              # (n / m)^2

        def u3_at(n, m):
            return n * n * bz2 / (8.0 * m * m)
    else:
        raise ValueError(f"unknown resonance kind {kind!r}")
    if q2 <= 0.0:
        return None
    q = math.sqrt(q2)
    scale = max(1.0, abs(params.u3))
    for m in range(1, RESONANCE_MAX_DENOMINATOR + 1):
        n = round(q * per_m * m)
        if n >= 1 and abs(u3_at(n, m) - params.u3) <= RESONANCE_RTOL * scale:
            return ResonanceParams(n, m)
    return None


def rotating_frame(bz: float, t: float, s) -> PhasePoint:
    """Rotate a state into the frame that cancels a constant field bz.

    The frame turns about the z-axis with angular velocity bz/2, so
    coordinates measured in it are rotated by the angle -bz t / 2
    (passive transformation); positions and canonical momenta rotate
    with the same matrix (a canonical point transformation).  With
    this orientation the transformed trajectories of the resonant
    systems obey the field-free oscillator equations of motion.
    """
    pt = s if isinstance(s, PhasePoint) else PhasePoint.from_state(s)
    ang = -bz * t / 2.0
    ca, sa = math.cos(ang), math.sin(ang)
    R = np.asarray([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    return PhasePoint(R @ pt.q, R @ pt.p)


def oscillator_image(kind: str, params: SystemParams) -> SystemSpec:
    """The field-free oscillator conjugate to the maximal system ``kind``.

    Builds the system (ValueError for a parameter it lacks or without
    n, m) and the oscillator of its ``meta["image"]``: for max5 a caged
    oscillator with frequency nu = n bz / (2 m) in all three directions
    plus the u2/z^2 barrier, for max6 a harmonic oscillator whose z
    frequency is twice the planar one.  ValueError for a system that has
    no image.
    """
    image = build(kind, params).meta.get("image")
    if image is None:
        raise ValueError(f"no oscillator image for kind {kind!r}")
    u2, nu_xy, nu_z = image["u2"], image["nu_xy"], image["nu_z"]
    g, b_fn = _constant_field(0.0)

    def W_sw(s, w):
        base = nu_xy ** 2 / 8.0 * s + nu_z ** 2 / 8.0 * w * w
        if u2 != 0.0:
            base = base + u2 / (w * w)
        return base

    def e_xy(state):
        x, y, _, px, py, _ = state
        return 0.5 * (px * px + py * py) + nu_xy ** 2 / 8.0 * (x * x + y * y)

    def e_z(state):
        z, pz = state[2], state[5]
        val = 0.5 * pz * pz + nu_z ** 2 / 8.0 * z * z
        if u2 != 0.0:
            val = val + u2 / (z * z)
        return val

    spec = _axial_spec(
        image["id"], SystemParams(u2=u2), g, W_sw, b_fn,
        (Observable(e_xy, "X1", 2), _x2(g), Observable(e_z, "Y3", 2)),
        singular_in=frozenset({"z"}) if u2 != 0.0 else frozenset(),
        serializable=False, meta={"nu": image["nu"], "source": kind})
    # H = X1 + Y3, so H and the three integrals have rank 3.
    return replace(spec, claimed_rank=3)
