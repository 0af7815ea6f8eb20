"""Catalog of axially symmetric 3D systems with magnetic fields.

Every Cartesian system here uses the axial gauge A = g(r^2, z) * (-y, x, 0),
so a single fast equations-of-motion path covers the whole catalog (see
:mod:`axisym.dynamics`).  Scalar potentials are stored as W(s, w) with
s = r^2 = x^2 + y^2 and w = z; the spherical radius obeys R^2 = s + w^2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from .phase import (
    CovectorField,
    Observable,
    TwoForm,
    hamiltonian_observable,
)

#: Reference phase-space point for one-time scale fixing of the
#: high-order integrals, and the initial point of every bundled figure
#: and of ``axisym simulate`` without ``--ic``.
REFERENCE_STATE = (1.0, -1.0, 1.0, 1.0, 0.0, 0.0)


@dataclass(frozen=True)
class SystemParams:
    """Scalar-potential strengths, field strengths, and resonance indices."""

    u1: float = 0.0
    u2: float = 0.0
    u3: float = 0.0
    bz: float = 0.0
    bp: float = 0.0
    bs: float = 0.0
    bq: float = 0.0
    bl: float = 0.0
    a: Optional[float] = None
    n: Optional[int] = None
    m: Optional[int] = None

    def __post_init__(self):
        for key, val in vars(self).items():
            if val is not None and not math.isfinite(val):
                raise ValueError(f"parameter {key} must be finite, not {val!r}")
        if (self.n is None) != (self.m is None):
            raise ValueError("resonance indices n, m must be given together")
        if self.n is not None:
            n, m = int(self.n), int(self.m)
            if n != self.n or m != self.m:
                raise ValueError("resonance indices n, m must be integers")
            if n < 1 or m < 1:
                raise ValueError("resonance indices must be >= 1")
            g = math.gcd(n, m)
            object.__setattr__(self, "n", n // g)
            object.__setattr__(self, "m", m // g)

    def as_dict(self) -> dict:
        out = {}
        for key in ("u1", "u2", "u3", "bz", "bp", "bs", "bq", "bl"):
            val = getattr(self, key)
            if val != 0.0:
                out[key] = val
        if self.a is not None:
            out["a"] = self.a
        if self.n is not None:
            out["n"] = self.n
            out["m"] = self.m
        return out


@dataclass(frozen=True)
class SystemSpec:
    """A parametrized Hamiltonian system and its named integrals."""

    system_id: str
    params: SystemParams
    W: Callable                      # W(x, y, z), generic
    A: CovectorField
    B: TwoForm
    hamiltonian: Observable
    integrals: tuple                 # ordered Observables (X1, X2, Y3[, Y4])
    claimed_rank: int
    gauge_factor: Callable                     # g(s, w) of A = g (-y, x, 0)
    potential_sw: Callable                     # W(s, w)
    singular_in: frozenset = frozenset()       # subset of {"r", "z"}
    serializable: bool = True
    closure: Optional[Callable] = None         # poly(H, X1, X2, Y3) = {X1, Y3}^2
    involutions: tuple = ()                    # label pairs claimed to commute
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        # A spec built from another one (``dataclasses.replace``) gets its
        # own copy of ``meta``.
        object.__setattr__(self, "meta", dict(self.meta))

    def integral(self, label: str) -> Observable:
        for obs in self.integrals:
            if obs.label == label:
                return obs
        raise KeyError(f"{self.system_id} has no integral {label!r}")

    def observables(self) -> tuple:
        """Hamiltonian followed by the listed integrals."""
        return (self.hamiltonian, *self.integrals)

    def to_json(self) -> str:
        if not self.serializable:
            raise ValueError(
                f"{self.system_id} holds runtime-supplied callables and "
                "cannot be serialized"
            )
        return json.dumps(
            {
                "id": self.system_id,
                "params": self.params.as_dict(),
                "claimed_rank": self.claimed_rank,
            },
            sort_keys=True,
        )


def _axial_spec(system_id, params, g, W_sw, b_fn, integrals, **fields) -> SystemSpec:
    """The system with gauge A = g(s, w) (-y, x, 0), potential W(s, w), field b_fn.

    It claims rank 1 + the number of listed ``integrals`` (H and each of
    them); ``fields`` are the other :class:`SystemSpec` fields.  A system
    of :data:`SYSTEM_INFO` raises ValueError for a parameter outside its
    list, which would change nothing yet be recorded.
    """
    for key in params.as_dict():
        _require(system_id not in SYSTEM_INFO or key in SYSTEM_INFO[system_id]["parameters"],
                 f"{system_id} has no parameter {key!r}")

    def W(x, y, z):
        return W_sw(x * x + y * y, z)

    def A_fn(x, y, z):
        f = g(x * x + y * y, z)
        return (-y * f, x * f, 0.0 * z)

    A = CovectorField(A_fn)
    return SystemSpec(
        system_id=system_id, params=params, W=W, A=A, B=TwoForm(b_fn),
        hamiltonian=hamiltonian_observable(A, W), integrals=integrals,
        claimed_rank=1 + len(integrals), gauge_factor=g, potential_sw=W_sw,
        **fields)


def _constant_field(bz):
    """Gauge factor and field of the constant field bz dx^dy."""

    def g(s, w):
        return bz / 2.0 + 0.0 * s + 0.0 * w

    def b_fn(x, y, z):
        return (0.0 * x, 0.0 * y, bz + 0.0 * z)

    return g, b_fn


def _covariant(state, gauge_factor):
    x, y, z, px, py, pz = state
    f = gauge_factor(x * x + y * y, z)
    return px - y * f, py + x * f, pz


def _angular(state, gauge_factor):
    """Covariant angular momenta (Lx^A, Ly^A, Lz^A)."""
    x, y, z = state[0], state[1], state[2]
    ax, ay, az = _covariant(state, gauge_factor)
    return (y * az - z * ay, z * ax - x * az, x * ay - y * ax)


def _x2(g) -> Observable:
    """The axial integral X2 = Lz^A - r^2 g, the canonical Lz."""

    def x2(state):
        x, y, z = state[0], state[1], state[2]
        lz = _angular(state, g)[2]
        s = x * x + y * y
        return lz - s * g(s, z)

    return Observable(x2, "X2", 1)


def _spherical_x1(g, bz, term) -> Observable:
    """X1 = |L^A|^2 - bz R^2 Lz^A + term(s, z) + bz^2/4 s R^2."""

    def x1(state):
        x, y, z = state[0], state[1], state[2]
        lx, ly, lz = _angular(state, g)
        s = x * x + y * y
        R2 = s + z * z
        return (lx * lx + ly * ly + lz * lz - bz * R2 * lz
                + term(s, z) + bz * bz / 4.0 * s * R2)

    return Observable(x1, "X1", 2)


def _pair_product(a, b):
    """(re, im) of the product of the complex numbers held as pairs a, b."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _pair_power(a, k: int):
    """(re, im) of a^k for an int k >= 1, by binary powering."""
    out = None
    while True:
        if k & 1:
            out = a if out is None else _pair_product(out, a)
        k >>= 1
        if not k:
            return out
        a = _pair_product(a, a)


def _y4(first, second, order: int):
    """Y4 = Re (f1 / c1)^k1 (f2 / c2)^k2 for (f, k) = ``first``, ``second``.

    Each factor f gives the (re, im) pair of a complex value, scaled by
    c = |f| at :data:`REFERENCE_STATE`, fixed once.  The factors expand
    their complex expressions term by term in the order complex
    arithmetic takes them, so on floats Y4 equals that of complex
    numbers bit for bit.  Returns Y4 and c1^k1 c2^k2, its
    ``meta["y4_scale"]``.
    """
    (f1, k1), (f2, k2) = first, second
    c1, c2 = math.hypot(*f1(REFERENCE_STATE)), math.hypot(*f2(REFERENCE_STATE))

    def y4(state):
        re1, im1 = _pair_power([v / c1 for v in f1(state)], k1)
        re2, im2 = _pair_power([v / c2 for v in f2(state)], k2)
        return re1 * re2 - im1 * im2

    return Observable(y4, "Y4", order), c1 ** k1 * c2 ** k2


def _require(cond, msg):
    if not cond:
        raise ValueError(msg)


# ---------------------------------------------------------------------------
# Linear superintegrable systems (constant field along z)
# ---------------------------------------------------------------------------

def build_linear_min(params: SystemParams) -> SystemSpec:
    """Minimally superintegrable system with extra integral Y3 = pz^A.

    H = |p^A|^2/2 + u1/r^2 - bz^2 r^2 / 8, constant B = bz dx^dy.
    """
    _require(params.bz != 0.0, "linear_min requires a nonzero bz")
    u1, bz = params.u1, params.bz
    g, b_fn = _constant_field(bz)

    def W_sw(s, w):
        return u1 / s - bz * bz * s / 8.0

    def y3(state):
        return _covariant(state, g)[2]

    return _axial_spec(
        "linear_min", params, g, W_sw, b_fn,
        (_spherical_x1(g, bz, lambda s, z: 2.0 * u1 * z * z / s),
         _x2(g), Observable(y3, "Y3", 1)),
        singular_in=frozenset({"r"}) if u1 != 0.0 else frozenset())


def build_linear_max(params: SystemParams) -> SystemSpec:
    """Maximally superintegrable system with Y3 = px^A + bz y, Y4 = py^A - bz x.

    H = |p^A|^2/2 + u1/z^2 + bz^2 z^2 / 8, constant B = bz dx^dy.
    """
    _require(params.bz != 0.0, "linear_max requires a nonzero bz")
    u1, bz = params.u1, params.bz
    g, b_fn = _constant_field(bz)

    def W_sw(s, w):
        return u1 / (w * w) + bz * bz * w * w / 8.0

    def y3(state):
        return _covariant(state, g)[0] + bz * state[1]

    def y4(state):
        return _covariant(state, g)[1] - bz * state[0]

    return _axial_spec(
        "linear_max", params, g, W_sw, b_fn,
        (_spherical_x1(g, bz, lambda s, z: 2.0 * u1 * s / (z * z)),
         _x2(g), Observable(y3, "Y3", 1), Observable(y4, "Y4", 1)),
        singular_in=frozenset({"z"}) if u1 != 0.0 else frozenset())


# ---------------------------------------------------------------------------
# Quadratic minimally superintegrable system, spheroidal/cylindrical overlap
# ---------------------------------------------------------------------------

def build_op_min(params: SystemParams) -> SystemSpec:
    """Quadratically minimally superintegrable system with Y3 = (pz^A)^2 + ...

    Overlap of the oblate/prolate spheroidal, cylindrical, and spherical
    classes; field strengths bz, bp, bs.
    """
    _require(any((params.bz, params.bp, params.bs)),
             "op_min requires a nonzero magnetic field")
    u1, u2, u3 = params.u1, params.u2, params.u3
    bz, bp, bs = params.bz, params.bp, params.bs

    def g(s, w):
        return (bz + bp / (w * w) + bs * (s + w * w)) / 2.0

    def W_sw(s, w):
        w2 = w * w
        R2 = s + w2
        return (u1 / s + u2 / w2 - u3 * R2
                - bp * bs / (4.0 * w2) * R2 * R2
                - bz * bp / (4.0 * w2) * s
                - bz * bs / 4.0 * s * R2
                - bs * bs / 8.0 * s * R2 * R2
                + bz * bz / 8.0 * w2
                - bp * bp / (8.0 * w2 * w2) * s)

    def b_fn(x, y, z):
        s = x * x + y * y
        R2 = s + z * z
        z3 = z * z * z
        return (bp * x / z3 - bs * x * z,
                bp * y / z3 - bs * y * z,
                bz + bp / (z * z) + bs * (s + R2))

    def x1(state):
        x, y, z = state[0], state[1], state[2]
        lx, ly, lz = _angular(state, g)
        s = x * x + y * y
        w2 = z * z
        R2 = s + w2
        return (lx * lx + ly * ly + lz * lz
                - (bz + bs * R2) * R2 * lz
                + 2.0 * u1 * w2 / s + 2.0 * u2 * s / w2
                + bz * bz / 4.0 * s * R2
                + bz * bs / 2.0 * s * R2 * R2
                - bp * bp / (4.0 * w2 * w2) * s * R2
                + bs * bs / 4.0 * s * R2 * R2 * R2)

    def y3(state):
        x, y, z = state[0], state[1], state[2]
        lz = _angular(state, g)[2]
        pz = _covariant(state, g)[2]
        s = x * x + y * y
        w2 = z * z
        R2 = s + w2
        return (pz * pz + (bp / w2 + bs * w2) * lz
                + 2.0 * u2 / w2 - 2.0 * u3 * w2 + bz * bz / 4.0 * w2
                - bz * bp / (2.0 * w2) * s
                - bz * bs / 2.0 * w2 * s
                - bp * bp / (2.0 * w2 * w2) * s
                - bp * bs / (2.0 * w2) * R2 * R2
                - bs * bs / 2.0 * w2 * s * R2)

    return _axial_spec(
        "op_min", params, g, W_sw, b_fn,
        (Observable(x1, "X1", 2), _x2(g), Observable(y3, "Y3", 2)),
        singular_in=frozenset({"r", "z"}),
        closure=op_closure_polynomial(params),
        involutions=(("X1", "X2"), ("X2", "Y3")))


def op_closure_polynomial(params: SystemParams):
    """Right-hand side of the closure identity for {X1, Y3}^2 (op_min)."""
    u1, u2, u3 = params.u1, params.u2, params.u3
    bz, bp, bs = params.bz, params.bp, params.bs

    def poly(H, X1, X2, Y3):
        return (
            32.0 * H * X1 * Y3
            - 32.0 * H * X2 ** 2 * Y3
            - 16.0 * X1 * Y3 ** 2
            + 16.0 * X2 * (-bs * X2 ** 2 * X2 ** 2 + 2.0 * bs * X1 * X2 ** 2
                           + bz * X2 ** 2 * Y3 - 4.0 * bp * H ** 2
                           + 2.0 * bp * H * Y3 - bs * X1 ** 2
                           - bz * X1 * Y3)
            - 128.0 * u2 * H ** 2
            + 64.0 * bp * bz * H * X2 ** 2
            + 128.0 * u2 * H * Y3
            + 4.0 * (2.0 * bp * bs - bz ** 2 + 8.0 * u3) * X1 ** 2
            + 8.0 * (bz ** 2 + 2.0 * bp * bs - 8.0 * u3) * X1 * X2 ** 2
            + 4.0 * (10.0 * bp * bs + 8.0 * u3 - bz ** 2) * X2 ** 2 * X2 ** 2
            - 16.0 * bp * bz * X2 ** 2 * Y3
            - 32.0 * (u1 + u2) * Y3 ** 2
            + 8.0 * (16.0 * bz * u2 * H
                     + bp * (bz ** 2 - 2.0 * bp * bs - 8.0 * u3) * X1
                     + (16.0 * bs * u2 - bz ** 2 * bp - 4.0 * bp ** 2 * bs
                        - 8.0 * bp * u3) * X2 ** 2
                     - 8.0 * bz * u2 * Y3) * X2
            + 4.0 * (2.0 * bp ** 3 * bs - bz ** 2 * bp ** 2
                     + 8.0 * bp ** 2 * u3 + 32.0 * bp * bs * u1
                     - 16.0 * bp * bs * u2 - 64.0 * u2 * u3) * X2 ** 2
            + 32.0 * u1 * (bz ** 2 * bp - 2.0 * bp ** 2 * bs
                           - 8.0 * bp * u3 + 8.0 * bs * u2) * X2
            + 64.0 * u1 * u2 * (bz ** 2 - 2.0 * bp * bs - 8.0 * u3)
        )

    return poly


# ---------------------------------------------------------------------------
# Quadratic minimally superintegrable system, circular parabolic/cylindrical
# ---------------------------------------------------------------------------

def _cp_fields(u1, u2, u3, bz, bq, bl):
    """Gauge factor / potential / field of the general parabolic system."""

    def g(s, w):
        return bz / 2.0 - bl * w + bq / 4.0 * (s + 4.0 * w * w)

    def W_sw(s, w):
        lin = 2.0 * bz - 4.0 * bl * w + bq * (s + 4.0 * w * w)
        return (-s / 32.0 * lin * lin + u1 * w + u2 / s
                + u3 * (s + 4.0 * w * w))

    def b_fn(x, y, z):
        s = x * x + y * y
        return (bl * x - 2.0 * bq * x * z,
                bl * y - 2.0 * bq * y * z,
                bz - 2.0 * bl * z + bq * (s + 2.0 * z * z))

    return g, W_sw, b_fn


def build_cp_raw(params: SystemParams) -> SystemSpec:
    """General parabolic-overlap system before the normalizing z-shift.

    Only the Hamiltonian, gauge, field, and the axial integral X2 are
    exposed; the full integral set is attached to the normalized
    branches built by :func:`build_cp_general`.
    """
    _require(any((params.bz, params.bq, params.bl)),
             "cp system requires a nonzero magnetic field")
    g, W_sw, b_fn = _cp_fields(params.u1, params.u2, params.u3,
                               params.bz, params.bq, params.bl)
    return _axial_spec(
        "cp_raw", params, g, W_sw, b_fn, (_x2(g),),
        singular_in=frozenset({"r"}) if params.u2 != 0.0 else frozenset())


def build_cp_general(params: SystemParams) -> SystemSpec:
    """Normalized parabolic-overlap system (three branches).

    bq != 0: shift z by bl/(2 bq) and redefine u1, bz to remove bl.
    bq == 0, bl != 0: shift z by bz/(2 bl) to absorb the constant field.
    bq == bl == 0: plain constant-field branch (requires bz != 0).
    """
    _require(any((params.bz, params.bq, params.bl)),
             "cp system requires a nonzero magnetic field")
    if params.bq != 0.0:
        shift = params.bl / (2.0 * params.bq)
        normalized = replace(
            params,
            u1=params.u1 + 8.0 * params.u3 * shift,
            bz=params.bz - params.bl ** 2 / (2.0 * params.bq),
            bl=0.0,
        )
        return _build_cp_min(normalized, branch="bq", z_shift=shift)
    if params.bl != 0.0:
        shift = params.bz / (2.0 * params.bl)
        normalized = replace(
            params,
            u1=params.u1 + 8.0 * params.u3 * shift,
            bz=0.0,
        )
        return _build_cp_bl(normalized, z_shift=shift)
    _require(params.bz != 0.0, "cp system requires a nonzero magnetic field")
    return _build_cp_min(params, branch="bz", z_shift=0.0)


def _build_cp_min(params: SystemParams, branch: str, z_shift: float) -> SystemSpec:
    u1, u2, u3 = params.u1, params.u2, params.u3
    bz, bq = params.bz, params.bq
    g, W_sw, b_fn = _cp_fields(u1, u2, u3, bz, bq, 0.0)

    def x1(state):
        x, y, z = state[0], state[1], state[2]
        lx, ly, lz = _angular(state, g)
        pax, pay, _ = _covariant(state, g)
        s = x * x + y * y
        w2 = z * z
        return (lx * pay - ly * pax
                + (bz + bq * (s + 2.0 * w2)) * z * lz
                - bz * bz / 4.0 * z * s
                - bz * bq / 2.0 * z * s * (s + 2.0 * w2)
                - bq * bq / 16.0 * z * s * (3.0 * s + 4.0 * w2) * (s + 4.0 * w2)
                + u1 / 2.0 * s - 2.0 * u2 * z / s + 2.0 * u3 * z * s)

    def y3(state):
        x, y, z = state[0], state[1], state[2]
        lz = _angular(state, g)[2]
        pz = _covariant(state, g)[2]
        s = x * x + y * y
        w2 = z * z
        return (pz * pz + 2.0 * bq * w2 * lz
                - (bz * bq + bq * bq / 2.0 * (s + 4.0 * w2)) * w2 * s
                + 2.0 * u1 * z + 8.0 * u3 * w2)

    return _axial_spec(
        "cp_min", params, g, W_sw, b_fn,
        (Observable(x1, "X1", 2), _x2(g), Observable(y3, "Y3", 2)),
        singular_in=frozenset({"r"}) if u2 != 0.0 else frozenset(),
        closure=cp_closure_polynomial(params),
        involutions=(("X1", "X2"), ("X2", "Y3")),
        meta={"branch": branch, "z_shift": z_shift})


def _build_cp_bl(params: SystemParams, z_shift: float) -> SystemSpec:
    u1, u2, u3, bl = params.u1, params.u2, params.u3, params.bl

    def g(s, w):
        return -bl * w + 0.0 * s

    def W_sw(s, w):
        return (-bl * bl / 2.0 * w * w * s + u1 * w + u2 / s
                + u3 * (s + 4.0 * w * w))

    def b_fn(x, y, z):
        return (bl * x, bl * y, -2.0 * bl * z)

    def x1(state):
        x, y, z = state[0], state[1], state[2]
        lx, ly, lz = _angular(state, g)
        pax, pay, _ = _covariant(state, g)
        s = x * x + y * y
        w2 = z * z
        return (lx * pay - ly * pax
                - bl / 2.0 * (s + 4.0 * w2) * lz
                + u1 / 2.0 * s - 2.0 * u2 * z / s + 2.0 * u3 * z * s
                - bl * bl / 2.0 * z * s * (s + 2.0 * w2))

    def y3(state):
        x, y, z = state[0], state[1], state[2]
        lz = _angular(state, g)[2]
        pz = _covariant(state, g)[2]
        s = x * x + y * y
        w2 = z * z
        return (pz * pz - 2.0 * bl * z * lz + 2.0 * u1 * z
                + 8.0 * u3 * w2 - 2.0 * bl * bl * w2 * s)

    return _axial_spec(
        "cp_min", params, g, W_sw, b_fn,
        (Observable(x1, "X1", 2), _x2(g), Observable(y3, "Y3", 2)),
        singular_in=frozenset({"r"}) if u2 != 0.0 else frozenset(),
        involutions=(("X1", "X2"), ("X2", "Y3")),
        meta={"branch": "bl", "z_shift": z_shift})


def cp_closure_polynomial(params: SystemParams):
    """Right-hand side of the closure identity for {Y3, X1}^2 (cp_min).

    The overall sign is fixed so that the polynomial matches the
    (necessarily nonnegative) squared bracket; cross-checked termwise
    against direct bracket evaluation over independent parameter draws.
    """
    u1, u2, u3 = params.u1, params.u2, params.u3
    bz, bq = params.bz, params.bq

    def poly(H, X1, X2, Y3):
        return -(
            -16.0 * H ** 2 * Y3
            + 16.0 * H * Y3 ** 2
            - 4.0 * Y3 ** 2 * Y3
            + 8.0 * (bq * X2 ** 2 * Y3 + 2.0 * bz * H * Y3
                     + bq * X1 ** 2 - bz * Y3 ** 2) * X2
            - 16.0 * u1 * H * X1
            + 32.0 * u3 * X1 ** 2
            + 8.0 * u1 * X1 * Y3
            + 4.0 * (8.0 * u3 - bz ** 2) * X2 ** 2 * Y3
            + 8.0 * (bz * u1 * X1 + 2.0 * bq * u2 * Y3) * X2
            + 4.0 * u1 ** 2 * X2 ** 2
            + 64.0 * u2 * u3 * Y3
            + 8.0 * u1 ** 2 * u2
        )

    return poly


# ---------------------------------------------------------------------------
# Maximally superintegrable families (resonant constant-field systems)
# ---------------------------------------------------------------------------

def build_max5(params: SystemParams) -> SystemSpec:
    """Isochronous maximal system linked to the caged oscillator.

    H = |p^A|^2/2 + u2/z^2 - bz^2 r^2/8 + n^2 bz^2 R^2/(32 m^2) with the
    constant field bz dx^dy; the extra integral Y4 has momentum order
    2(n + 2m): the real part of a product of factor powers, each factor a
    (re, im) pair of real fields scaled once at the reference point.
    ``meta["image"]`` is its field-free image
    (``closedform.oscillator_image``): the caged oscillator
    u2/z^2 + nu^2 R^2/8, nu = n bz / (2 m).
    """
    _require(params.bz != 0.0, "max5 requires a nonzero bz")
    _require(params.n is not None, "max5 requires resonance indices n, m")
    u2, bz = params.u2, params.bz
    n, m = params.n, params.m
    nu = n * bz / (2.0 * m)
    g, b_fn = _constant_field(bz)

    def W_sw(s, w):
        return (u2 / (w * w) - bz * bz / 8.0 * s
                + n * n * bz * bz / (32.0 * m * m) * (s + w * w))

    def y3(state):
        z = state[2]
        pz = _covariant(state, g)[2]
        return (pz * pz + 2.0 * u2 / (z * z)
                + n * n * bz * bz / (16.0 * m * m) * z * z)

    def axial_factor(state):
        z = state[2]
        pz = _covariant(state, g)[2]
        z2 = z * z
        d = n * bz * z2
        # (8i m n bz z^3 pz + bz^2 n^2 z^4 - 16 m^2 z^2 pz^2 - 32 m^2 u2) / d
        return ((bz * bz * n * n * z2 * z2 - 16.0 * m * m * z2 * pz * pz - 32.0 * m * m * u2) / d,
                8.0 * m * n * bz * z2 * z * pz / d)

    def planar_factor(state):
        x, y = state[0], state[1]
        pax, pay, _ = _covariant(state, g)
        # s1 (y - ix)^2 + s2 (x + iy)(pay - i pax) + 16 (pax + i pay)^2 + s4 (x + iy)^2 / m^2
        s1, s2, s4 = 4.0 * bz * bz, 16.0 * bz, n * n * bz * bz
        d2, xy2 = y * y - x * x, 2.0 * (x * y)
        return (s1 * d2 + (s2 * x * pay + s2 * y * pax) + 16.0 * (pax * pax - pay * pay)
                - s4 * d2 / (m * m),
                -s1 * xy2 + (s2 * y * pay - s2 * x * pax) + 32.0 * (pax * pay)
                + s4 * xy2 / (m * m))

    y4, y4_scale = _y4((axial_factor, 2 * m), (planar_factor, n), 2 * (n + 2 * m))
    return _axial_spec(
        "max5", params, g, W_sw, b_fn,
        (_spherical_x1(g, bz, lambda s, z: 2.0 * u2 / (z * z) * s),
         _x2(g), Observable(y3, "Y3", 2), y4),
        singular_in=frozenset({"z"}) if u2 != 0.0 else frozenset(),
        meta={"y4_scale": y4_scale,
              "image": {"id": "osc5", "u2": u2, "nu_xy": nu, "nu_z": nu, "nu": nu}})


def build_max6(params: SystemParams) -> SystemSpec:
    """Isochronous maximal system linked to the anisotropic oscillator.

    H = |p^A|^2/2 + bz^2 (n^2/m^2 - 1) r^2 / 8 + n^2 bz^2 z^2 / (2 m^2)
    with the constant field bz dx^dy; Y4 has momentum order 2n + m.
    ``meta["image"]`` is its harmonic oscillator, as for :func:`build_max5`.
    """
    _require(params.bz != 0.0, "max6 requires a nonzero bz")
    _require(params.n is not None, "max6 requires resonance indices n, m")
    bz = params.bz
    n, m = params.n, params.m
    nu = n * bz / (2.0 * m)
    g, b_fn = _constant_field(bz)

    def W_sw(s, w):
        return (bz * bz / 8.0 * (n * n / (m * m) - 1.0) * s
                + n * n * bz * bz / (2.0 * m * m) * w * w)

    def x1(state):
        x, y, z = state[0], state[1], state[2]
        lx, ly, lz = _angular(state, g)
        pax, pay, _ = _covariant(state, g)
        s = x * x + y * y
        return (lx * pay - ly * pax + bz * z * lz
                + bz * bz / 4.0 * (n * n / (m * m) - 1.0) * z * s)

    def y3(state):
        z = state[2]
        pz = _covariant(state, g)[2]
        return pz * pz + n * n * bz * bz / (m * m) * z * z

    def planar_factor(state):
        x, y = state[0], state[1]
        pax, pay, _ = _covariant(state, g)
        # s1 (y + ix)^2 - s2 (x - iy)(pay + i pax) + s3 (pay + i pax)^2
        s1, s2, s3 = (n * n - m * m) * bz * bz, 4.0 * m * m * bz, 4.0 * m * m
        xy2 = 2.0 * (x * y)
        return (s1 * (y * y - x * x) - (s2 * x * pay + s2 * y * pax) + s3 * (pay * pay - pax * pax),
                s1 * xy2 - (s2 * x * pax - s2 * y * pay) + s3 * (2.0 * (pax * pay)))

    def axial_factor(state):
        z = state[2]
        pz = _covariant(state, g)[2]
        return m * pz, n * bz * z

    y4, y4_scale = _y4((planar_factor, n), (axial_factor, m), 2 * n + m)
    return _axial_spec(
        "max6", params, g, W_sw, b_fn,
        (Observable(x1, "X1", 2), _x2(g), Observable(y3, "Y3", 2), y4),
        # Image potential nu^2 (x^2 + y^2 + 4 z^2) / 2: z oscillates twice as fast.
        meta={"y4_scale": y4_scale,
              "image": {"id": "osc6", "u2": 0.0, "nu_xy": 2.0 * nu, "nu_z": 4.0 * nu,
                        "nu": nu}})


def y4_explicit_max5(params: SystemParams) -> Observable:
    """The printed real polynomial form of Y4 for max5 with n = m = 1."""
    _require(params.n == 1 and params.m == 1,
             "explicit polynomial form only exists for n = m = 1")
    u2, bz = params.u2, params.bz
    g = _constant_field(bz)[0]

    def fn(state):
        x, y, z = state[0], state[1], state[2]
        px, py, pz = _covariant(state, g)
        z2 = z * z
        z3 = z2 * z
        z4 = z2 * z2
        px2, py2, pz2 = px * px, py * py, pz * pz
        d2 = px2 - py2
        c4 = bz * bz * z4 - 32.0 * u2
        return (
            d2 * pz2 * pz2
            + bz * pz * pz2 * (2.0 * z * px * py + y * px * pz + x * py * pz)
            - 3.0 * pz2 / (16.0 * z2) * (
                2.0 * bz * bz * z4 * d2
                + 16.0 * bz * bz / 3.0 * z3 * (x * px - y * py) * pz
                + bz * bz * (x * x - y * y) * z2 * pz2
                - 64.0 * u2 / 3.0 * d2)
            - 3.0 * bz * pz / (8.0 * z2) * (
                bz * bz * x * y * z3 * pz2
                + (3.0 * bz * bz * z4 - 32.0 * u2) / 3.0
                * (y * px + x * py) * pz
                + (bz * bz * z4 - 32.0 * u2) / 3.0 * z * px * py)
            + c4 * c4 / (256.0 * z4) * px2
            + bz * bz * c4 / (16.0 * z) * x * px * pz
            - c4 * c4 / (256.0 * z4) * py2
            - bz * bz * c4 / (16.0 * z) * y * py * pz
            + 3.0 * bz * bz / (128.0 * z2)
            * (3.0 * bz * bz * z4 - 32.0 * u2) * (x * x - y * y) * pz2
            + 3.0 * bz / (128.0 * z4) * c4 * (
                bz * bz / 6.0 * z4 * (y * px + x * py)
                + bz * bz * x * y * z3 * pz
                - 16.0 * u2 / 3.0 * (y * px + x * py))
            - 3.0 * bz * bz / (4096.0 * z4) * c4 * c4 * (x * x - y * y)
        )

    return Observable(fn, "Y4_explicit", 6)


def y4_explicit_max6(params: SystemParams) -> Observable:
    """The printed real polynomial form of Y4 for max6 with n = m = 1."""
    _require(params.n == 1 and params.m == 1,
             "explicit polynomial form only exists for n = m = 1")
    bz = params.bz
    g = _constant_field(bz)[0]

    def fn(state):
        x, y, z = state[0], state[1], state[2]
        px, py, pz = _covariant(state, g)
        return (pz * (px * px - py * py + bz * (x * py + y * px))
                + 2.0 * bz * z * px * py
                - bz * bz * z * (x * px - y * py))

    return Observable(fn, "Y4_explicit", 3)


# ---------------------------------------------------------------------------
# Registry used by the CLI
# ---------------------------------------------------------------------------

BUILDERS = {
    "linear_min": build_linear_min,
    "linear_max": build_linear_max,
    "op_min": build_op_min,
    "cp_min": build_cp_general,
    "cp_raw": build_cp_raw,
    "max5": build_max5,
    "max6": build_max6,
}

SYSTEM_INFO = {
    "linear_min": {
        "rank": 4,
        "parameters": ["u1", "bz"],
        "integrals": "X1, X2, Y3 (linear)",
        "description": "constant field, 1/r^2 potential; extra linear integral",
    },
    "linear_max": {
        "rank": 5,
        "parameters": ["u1", "bz"],
        "integrals": "X1, X2, Y3, Y4 (linear)",
        "description": "constant field, 1/z^2 potential; two extra linear integrals",
    },
    "op_min": {
        "rank": 4,
        "parameters": ["u1", "u2", "u3", "bz", "bp", "bs"],
        "integrals": "X1, X2, Y3 (quadratic)",
        "description": "spheroidal/cylindrical overlap, quadratic Y3",
    },
    "cp_min": {
        "rank": 4,
        "parameters": ["u1", "u2", "u3", "bz", "bq", "bl"],
        "integrals": "X1, X2, Y3 (quadratic)",
        "description": "parabolic/cylindrical overlap, quadratic Y3; three branches",
    },
    "cp_raw": {
        "rank": 2,
        "parameters": ["u1", "u2", "u3", "bz", "bq", "bl"],
        "integrals": "X2",
        "description": "parabolic overlap before the normalizing z-shift",
    },
    "max5": {
        "rank": 5,
        "parameters": ["u2", "bz", "n", "m"],
        "integrals": "X1, X2, Y3, Y4 of momentum order 2(n+2m)",
        "description": "resonant caged-oscillator image, maximal",
    },
    "max6": {
        "rank": 5,
        "parameters": ["bz", "n", "m"],
        "integrals": "X1, X2, Y3, Y4 of momentum order 2n+m",
        "description": "resonant harmonic-oscillator image, maximal",
    },
}


def build(system_id: str, params: SystemParams) -> SystemSpec:
    """The system ``system_id`` at ``params``; ValueError for a parameter it lacks."""
    if system_id not in BUILDERS:
        raise KeyError(f"unknown system {system_id!r}")
    return BUILDERS[system_id](params)
