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

import numpy as np

from . import autodiff as ad
from .phase import (
    CovectorField,
    DomainError,
    Observable,
    TwoForm,
    hamiltonian_observable,
)

#: Reference phase-space point for one-time scale fixing of the
#: high-order integrals (matches the trajectory initial point used in
#: all bundled simulations).
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
        if (self.n is None) != (self.m is None):
            raise ValueError("resonance indices n, m must be given together")
        if self.n is not None:
            n, m = int(self.n), int(self.m)
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
    gauge_factor: Optional[Callable] = None    # g(s, w) for axial gauge
    potential_sw: Optional[Callable] = None    # W(s, w)
    singular_in: frozenset = frozenset()       # subset of {"r", "z"}
    serializable: bool = True
    closure: Optional[Callable] = None         # poly(H, X1, X2, Y3) = {X1, Y3}^2
    involutions: tuple = ()                    # label pairs claimed to commute
    meta: dict = field(default_factory=dict)

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


def _axial_fields(gauge_factor, W_sw, b_fn):
    """Assemble W(x,y,z), CovectorField, and TwoForm for an axial system."""

    def W(x, y, z):
        return W_sw(x * x + y * y, z)

    def A_fn(x, y, z):
        f = gauge_factor(x * x + y * y, z)
        return (-y * f, x * f, 0.0 * z)

    return W, CovectorField(A_fn), TwoForm(b_fn)


def _covariant(state, gauge_factor):
    x, y, z, px, py, pz = state
    f = gauge_factor(x * x + y * y, z)
    return px - y * f, py + x * f, pz


def _angular(state, gauge_factor):
    """Covariant angular momenta (Lx^A, Ly^A, Lz^A)."""
    x, y, z = state[0], state[1], state[2]
    ax, ay, az = _covariant(state, gauge_factor)
    return (y * az - z * ay, z * ax - x * az, x * ay - y * ax)


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

    def g(s, w):
        return bz / 2.0 + 0.0 * s + 0.0 * w

    def W_sw(s, w):
        return u1 / s - bz * bz * s / 8.0

    def b_fn(x, y, z):
        return (0.0 * x, 0.0 * y, bz + 0.0 * z)

    W, A, B = _axial_fields(g, W_sw, b_fn)

    def x1(state):
        x, y, z = state[0], state[1], state[2]
        lx, ly, lz = _angular(state, g)
        s = x * x + y * y
        R2 = s + z * z
        return (lx * lx + ly * ly + lz * lz - bz * R2 * lz
                + 2.0 * u1 * z * z / s + bz * bz / 4.0 * s * R2)

    def x2(state):
        x, y = state[0], state[1]
        lz = _angular(state, g)[2]
        return lz - bz / 2.0 * (x * x + y * y)

    def y3(state):
        return _covariant(state, g)[2]

    return SystemSpec(
        system_id="linear_min",
        params=params,
        W=W, A=A, B=B,
        hamiltonian=hamiltonian_observable(A, W),
        integrals=(
            Observable(x1, "X1", 2),
            Observable(x2, "X2", 1),
            Observable(y3, "Y3", 1),
        ),
        claimed_rank=4,
        gauge_factor=g,
        potential_sw=W_sw,
        singular_in=frozenset({"r"}) if u1 != 0.0 else frozenset(),
    )


def build_linear_max(params: SystemParams) -> SystemSpec:
    """Maximally superintegrable system with Y3 = px^A + bz y, Y4 = py^A - bz x.

    H = |p^A|^2/2 + u1/z^2 + bz^2 z^2 / 8, constant B = bz dx^dy.
    """
    _require(params.bz != 0.0, "linear_max requires a nonzero bz")
    u1, bz = params.u1, params.bz

    def g(s, w):
        return bz / 2.0 + 0.0 * s + 0.0 * w

    def W_sw(s, w):
        return u1 / (w * w) + bz * bz * w * w / 8.0

    def b_fn(x, y, z):
        return (0.0 * x, 0.0 * y, bz + 0.0 * z)

    W, A, B = _axial_fields(g, W_sw, b_fn)

    def x1(state):
        x, y, z = state[0], state[1], state[2]
        lx, ly, lz = _angular(state, g)
        s = x * x + y * y
        R2 = s + z * z
        return (lx * lx + ly * ly + lz * lz - bz * R2 * lz
                + 2.0 * u1 * s / (z * z) + bz * bz / 4.0 * s * R2)

    def x2(state):
        x, y = state[0], state[1]
        lz = _angular(state, g)[2]
        return lz - bz / 2.0 * (x * x + y * y)

    def y3(state):
        return _covariant(state, g)[0] + bz * state[1]

    def y4(state):
        return _covariant(state, g)[1] - bz * state[0]

    return SystemSpec(
        system_id="linear_max",
        params=params,
        W=W, A=A, B=B,
        hamiltonian=hamiltonian_observable(A, W),
        integrals=(
            Observable(x1, "X1", 2),
            Observable(x2, "X2", 1),
            Observable(y3, "Y3", 1),
            Observable(y4, "Y4", 1),
        ),
        claimed_rank=5,
        gauge_factor=g,
        potential_sw=W_sw,
        singular_in=frozenset({"z"}) if u1 != 0.0 else frozenset(),
    )


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

    W, A, B = _axial_fields(g, W_sw, b_fn)

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

    def x2(state):
        x, y, z = state[0], state[1], state[2]
        lz = _angular(state, g)[2]
        s = x * x + y * y
        return lz - s * g(s, z)

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

    return SystemSpec(
        system_id="op_min",
        params=params,
        W=W, A=A, B=B,
        hamiltonian=hamiltonian_observable(A, W),
        integrals=(
            Observable(x1, "X1", 2),
            Observable(x2, "X2", 1),
            Observable(y3, "Y3", 2),
        ),
        claimed_rank=4,
        gauge_factor=g,
        potential_sw=W_sw,
        singular_in=frozenset({"r", "z"}),
        closure=op_closure_polynomial(params),
        involutions=(("X1", "X2"), ("X2", "Y3")),
    )


def op_closure_polynomial(params: SystemParams):
    """Right-hand side of the closure identity for {X1, Y3}^2 (op_min)."""
    u1, u2, u3 = params.u1, params.u2, params.u3
    bz, bp, bs = params.bz, params.bp, params.bs

    def poly(H, X1, X2, Y3):
        return (
            32.0 * H * X1 * Y3
            - 32.0 * H * X2 ** 2 * Y3
            - 16.0 * X1 * Y3 ** 2
            + 16.0 * X2 * (-bs * X2 ** 4 + 2.0 * bs * X1 * X2 ** 2
                           + bz * X2 ** 2 * Y3 - 4.0 * bp * H ** 2
                           + 2.0 * bp * H * Y3 - bs * X1 ** 2
                           - bz * X1 * Y3)
            - 128.0 * u2 * H ** 2
            + 64.0 * bp * bz * H * X2 ** 2
            + 128.0 * u2 * H * Y3
            + 4.0 * (2.0 * bp * bs - bz ** 2 + 8.0 * u3) * X1 ** 2
            + 8.0 * (bz ** 2 + 2.0 * bp * bs - 8.0 * u3) * X1 * X2 ** 2
            + 4.0 * (10.0 * bp * bs + 8.0 * u3 - bz ** 2) * X2 ** 4
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
    W, A, B = _axial_fields(g, W_sw, b_fn)

    def x2(state):
        x, y, z = state[0], state[1], state[2]
        lz = _angular(state, g)[2]
        s = x * x + y * y
        return lz - s * g(s, z)

    return SystemSpec(
        system_id="cp_raw",
        params=params,
        W=W, A=A, B=B,
        hamiltonian=hamiltonian_observable(A, W),
        integrals=(Observable(x2, "X2", 1),),
        claimed_rank=2,
        gauge_factor=g,
        potential_sw=W_sw,
        singular_in=frozenset({"r"}) if params.u2 != 0.0 else frozenset(),
    )


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
    W, A, B = _axial_fields(g, W_sw, b_fn)

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

    def x2(state):
        x, y, z = state[0], state[1], state[2]
        lz = _angular(state, g)[2]
        s = x * x + y * y
        return lz - s * g(s, z)

    def y3(state):
        x, y, z = state[0], state[1], state[2]
        lz = _angular(state, g)[2]
        pz = _covariant(state, g)[2]
        s = x * x + y * y
        w2 = z * z
        return (pz * pz + 2.0 * bq * w2 * lz
                - (bz * bq + bq * bq / 2.0 * (s + 4.0 * w2)) * w2 * s
                + 2.0 * u1 * z + 8.0 * u3 * w2)

    return SystemSpec(
        system_id="cp_min",
        params=params,
        W=W, A=A, B=B,
        hamiltonian=hamiltonian_observable(A, W),
        integrals=(
            Observable(x1, "X1", 2),
            Observable(x2, "X2", 1),
            Observable(y3, "Y3", 2),
        ),
        claimed_rank=4,
        gauge_factor=g,
        potential_sw=W_sw,
        singular_in=frozenset({"r"}) if u2 != 0.0 else frozenset(),
        closure=cp_closure_polynomial(params),
        involutions=(("X1", "X2"), ("X2", "Y3")),
        meta={"branch": branch, "z_shift": z_shift},
    )


def _build_cp_bl(params: SystemParams, z_shift: float) -> SystemSpec:
    u1, u2, u3, bl = params.u1, params.u2, params.u3, params.bl

    def g(s, w):
        return -bl * w + 0.0 * s

    def W_sw(s, w):
        return (-bl * bl / 2.0 * w * w * s + u1 * w + u2 / s
                + u3 * (s + 4.0 * w * w))

    def b_fn(x, y, z):
        return (bl * x, bl * y, -2.0 * bl * z)

    W, A, B = _axial_fields(g, W_sw, b_fn)

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

    def x2(state):
        x, y, z = state[0], state[1], state[2]
        lz = _angular(state, g)[2]
        return lz + bl * z * (x * x + y * y)

    def y3(state):
        x, y, z = state[0], state[1], state[2]
        lz = _angular(state, g)[2]
        pz = _covariant(state, g)[2]
        s = x * x + y * y
        w2 = z * z
        return (pz * pz - 2.0 * bl * z * lz + 2.0 * u1 * z
                + 8.0 * u3 * w2 - 2.0 * bl * bl * w2 * s)

    return SystemSpec(
        system_id="cp_min",
        params=params,
        W=W, A=A, B=B,
        hamiltonian=hamiltonian_observable(A, W),
        integrals=(
            Observable(x1, "X1", 2),
            Observable(x2, "X2", 1),
            Observable(y3, "Y3", 2),
        ),
        claimed_rank=4,
        gauge_factor=g,
        potential_sw=W_sw,
        singular_in=frozenset({"r"}) if u2 != 0.0 else frozenset(),
        involutions=(("X1", "X2"), ("X2", "Y3")),
        meta={"branch": "bl", "z_shift": z_shift},
    )


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
            - 4.0 * Y3 ** 3
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

def _scaled_complex_power(factor_fn, scale, exponent):
    def fn(state):
        return (factor_fn(state) / scale) ** exponent
    return fn


def build_max5(params: SystemParams) -> SystemSpec:
    """Isochronous maximal system linked to the caged oscillator.

    H = |p^A|^2/2 + u2/z^2 - bz^2 r^2/8 + n^2 bz^2 R^2/(32 m^2) with the
    constant field bz dx^dy; the extra integral Y4 has momentum order
    2(n + 2m) and is evaluated in complex arithmetic with per-factor
    magnitude scaling fixed once at the reference point.
    """
    _require(params.bz != 0.0, "max5 requires a nonzero bz")
    _require(params.n is not None, "max5 requires resonance indices n, m")
    u2, bz = params.u2, params.bz
    n, m = params.n, params.m

    def g(s, w):
        return bz / 2.0 + 0.0 * s + 0.0 * w

    def W_sw(s, w):
        return (u2 / (w * w) - bz * bz / 8.0 * s
                + n * n * bz * bz / (32.0 * m * m) * (s + w * w))

    def b_fn(x, y, z):
        return (0.0 * x, 0.0 * y, bz + 0.0 * z)

    W, A, B = _axial_fields(g, W_sw, b_fn)

    def x1(state):
        x, y, z = state[0], state[1], state[2]
        lx, ly, lz = _angular(state, g)
        s = x * x + y * y
        R2 = s + z * z
        return (lx * lx + ly * ly + lz * lz - bz * R2 * lz
                + 2.0 * u2 / (z * z) * s + bz * bz / 4.0 * s * R2)

    def x2(state):
        x, y = state[0], state[1]
        lz = _angular(state, g)[2]
        return lz - bz / 2.0 * (x * x + y * y)

    def y3(state):
        z = state[2]
        pz = _covariant(state, g)[2]
        return (pz * pz + 2.0 * u2 / (z * z)
                + n * n * bz * bz / (16.0 * m * m) * z * z)

    def axial_factor(state):
        z = state[2]
        pz = _covariant(state, g)[2]
        z2 = z * z
        return (8.0j * m * n * bz * z2 * z * pz
                + bz * bz * n * n * z2 * z2
                - 16.0 * m * m * z2 * pz * pz
                - 32.0 * m * m * u2) / (n * bz * z2)

    def planar_factor(state):
        x, y = state[0], state[1]
        pax, pay, _ = _covariant(state, g)
        return (4.0 * bz * bz * (y - 1.0j * x) ** 2
                + 16.0 * bz * (x + 1.0j * y) * (pay - 1.0j * pax)
                + 16.0 * (pax + 1.0j * pay) ** 2
                + n * n * bz * bz * (x + 1.0j * y) ** 2 / (m * m))

    ref = list(REFERENCE_STATE)
    scale_ax = abs(complex(ad.value(axial_factor(ref))))
    scale_pl = abs(complex(ad.value(planar_factor(ref))))
    ax_pow = _scaled_complex_power(axial_factor, scale_ax, 2 * m)
    pl_pow = _scaled_complex_power(planar_factor, scale_pl, n)

    def y4(state):
        return ad.real(ax_pow(state) * pl_pow(state))

    return SystemSpec(
        system_id="max5",
        params=params,
        W=W, A=A, B=B,
        hamiltonian=hamiltonian_observable(A, W),
        integrals=(
            Observable(x1, "X1", 2),
            Observable(x2, "X2", 1),
            Observable(y3, "Y3", 2),
            Observable(y4, "Y4", 2 * (n + 2 * m)),
        ),
        claimed_rank=5,
        gauge_factor=g,
        potential_sw=W_sw,
        singular_in=frozenset({"z"}) if u2 != 0.0 else frozenset(),
        meta={"y4_scale": scale_ax ** (2 * m) * scale_pl ** n},
    )


def build_max6(params: SystemParams) -> SystemSpec:
    """Isochronous maximal system linked to the anisotropic oscillator.

    H = |p^A|^2/2 + bz^2 (n^2/m^2 - 1) r^2 / 8 + n^2 bz^2 z^2 / (2 m^2)
    with the constant field bz dx^dy; Y4 has momentum order 2n + m.
    """
    _require(params.bz != 0.0, "max6 requires a nonzero bz")
    _require(params.n is not None, "max6 requires resonance indices n, m")
    bz = params.bz
    n, m = params.n, params.m

    def g(s, w):
        return bz / 2.0 + 0.0 * s + 0.0 * w

    def W_sw(s, w):
        return (bz * bz / 8.0 * (n * n / (m * m) - 1.0) * s
                + n * n * bz * bz / (2.0 * m * m) * w * w)

    def b_fn(x, y, z):
        return (0.0 * x, 0.0 * y, bz + 0.0 * z)

    W, A, B = _axial_fields(g, W_sw, b_fn)

    def x1(state):
        x, y, z = state[0], state[1], state[2]
        lx, ly, lz = _angular(state, g)
        pax, pay, _ = _covariant(state, g)
        s = x * x + y * y
        return (lx * pay - ly * pax + bz * z * lz
                + bz * bz / 4.0 * (n * n / (m * m) - 1.0) * z * s)

    def x2(state):
        x, y = state[0], state[1]
        lz = _angular(state, g)[2]
        return lz - bz / 2.0 * (x * x + y * y)

    def y3(state):
        z = state[2]
        pz = _covariant(state, g)[2]
        return pz * pz + n * n * bz * bz / (m * m) * z * z

    def planar_factor(state):
        x, y = state[0], state[1]
        pax, pay, _ = _covariant(state, g)
        return ((n * n - m * m) * bz * bz * (y + 1.0j * x) ** 2
                - 4.0 * m * m * bz * (x - 1.0j * y) * (pay + 1.0j * pax)
                + 4.0 * m * m * (pay + 1.0j * pax) ** 2)

    def axial_factor(state):
        z = state[2]
        pz = _covariant(state, g)[2]
        return m * pz + 1.0j * n * bz * z

    ref = list(REFERENCE_STATE)
    scale_pl = abs(complex(ad.value(planar_factor(ref))))
    scale_ax = abs(complex(ad.value(axial_factor(ref))))
    pl_pow = _scaled_complex_power(planar_factor, scale_pl, n)
    ax_pow = _scaled_complex_power(axial_factor, scale_ax, m)

    def y4(state):
        return ad.real(pl_pow(state) * ax_pow(state))

    return SystemSpec(
        system_id="max6",
        params=params,
        W=W, A=A, B=B,
        hamiltonian=hamiltonian_observable(A, W),
        integrals=(
            Observable(x1, "X1", 2),
            Observable(x2, "X2", 1),
            Observable(y3, "Y3", 2),
            Observable(y4, "Y4", 2 * n + m),
        ),
        claimed_rank=5,
        gauge_factor=g,
        potential_sw=W_sw,
        meta={"y4_scale": scale_pl ** n * scale_ax ** m},
    )


def y4_explicit_max5(params: SystemParams) -> Observable:
    """The printed real polynomial form of Y4 for max5 with n = m = 1."""
    _require(params.n == 1 and params.m == 1,
             "explicit polynomial form only exists for n = m = 1")
    u2, bz = params.u2, params.bz
    g = lambda s, w: bz / 2.0 + 0.0 * s

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
    g = lambda s, w: bz / 2.0 + 0.0 * s

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
    if system_id not in BUILDERS:
        raise KeyError(f"unknown system {system_id!r}")
    return BUILDERS[system_id](params)
