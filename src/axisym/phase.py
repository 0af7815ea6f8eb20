"""Phase-space primitives: points, observables, vector potentials, fields.

Positions and momenta are Cartesian throughout; the particle has unit
mass and charge -1, so the Hamiltonian is H = |p + A(q)|^2 / 2 + W(q)
with covariant momenta p^A = p + A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from . import trace


class DomainError(ValueError):
    """Input lies outside the chart or safe evaluation domain."""


class EvaluationError(ArithmeticError):
    """A scalar-field evaluation produced a non-finite component."""


# Safe sampling box: keeps 1/r^2, 1/z^2, 1/z^4 terms of the catalog
# well-conditioned.  Positions draw |coordinate| from [0.3, 2.0] with a
# random sign, momenta from [-2, 2].
SAFE_QMIN = 0.3
SAFE_QMAX = 2.0
SAFE_PMAX = 2.0

DEFAULT_SEED = 0x5EED

# Position signs drawn per call of ``integers`` in the sampler.  A chunk
# is 4 MB of int64, where one draw for all 3 n positions held 24 n bytes
# (24 MB at n = 10^6), and 100k states still take one draw: with chunks
# of 2^16 their sampling was 0.6% (best of 15) to 5% (median) slower.
SIGN_CHUNK = 1 << 19


def make_rng(seed: int = DEFAULT_SEED) -> np.random.Generator:
    """Counter-based 64-bit generator used for all property sampling."""
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class PhasePoint:
    """Cartesian position and canonical momenta."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if q.shape != (3,) or p.shape != (3,):
            raise ValueError("PhasePoint needs 3 positions and 3 momenta")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise DomainError("non-finite phase-space component")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @classmethod
    def from_state(cls, state: Sequence[float]) -> "PhasePoint":
        state = np.asarray(state, dtype=float)
        return cls(state[:3], state[3:6])

    @property
    def state(self) -> np.ndarray:
        return np.concatenate([self.q, self.p])

    @property
    def r2(self) -> float:
        return float(self.q[0] ** 2 + self.q[1] ** 2)

    @property
    def R2(self) -> float:
        return float(self.q[0] ** 2 + self.q[1] ** 2 + self.q[2] ** 2)


def sample_safe_states(rng: np.random.Generator, n: int) -> np.ndarray:
    """n random phase-space states in the safe box, shape (6, n).

    Three draws, in this order, written in place into one array: the
    position magnitudes, their signs, the momenta.  They are the draws
    of ``uniform(SAFE_QMIN, SAFE_QMAX)``, ``choice([-1.0, 1.0])`` and
    ``uniform(-SAFE_PMAX, SAFE_PMAX)``, each of shape (3, n), with the
    same values and the generator left in the same state: ``uniform``
    computes ``low + (high - low) * u`` from ``random()``, and
    ``choice`` picks by ``integers(0, 2)``.  The signs are drawn
    ``SIGN_CHUNK`` at a time and applied in place to the flattened
    positions; ``integers(0, 2)`` takes one value at a time from the
    generator's buffer, so the chunks give the values of one draw.
    """
    out = np.empty((6, n))
    q, p = out[:3], out[3:]
    rng.random(out=q)
    q *= SAFE_QMAX - SAFE_QMIN
    q += SAFE_QMIN
    flat = q.reshape(-1)
    for lo in range(0, flat.size, SIGN_CHUNK):
        sign = rng.integers(0, 2, size=min(SIGN_CHUNK, flat.size - lo))
        sign *= 2
        sign -= 1
        flat[lo:lo + SIGN_CHUNK] *= sign
    rng.random(out=p)
    p *= 2.0 * SAFE_PMAX
    p -= SAFE_PMAX
    return out


def _tangent_like(result, ref):
    t = ad.tangent(result)
    if isinstance(t, float) and t == 0.0 and isinstance(ref, np.ndarray):
        return np.zeros_like(ref, dtype=float)
    return t


def gradient6(fn: Callable, state: Sequence) -> list:
    """Exact 6-gradient (d/dq_i, d/dp_i) of a generic scalar field.

    ``state`` components may be floats, arrays (vectorized points), or
    duals (nested differentiation).  One forward pass per direction.
    """
    return [_tangent_like(fn(s), ad.value(v)) for s, v in zip(ad.seeded(state), state)]


@dataclass(frozen=True)
class Observable:
    """Differentiable scalar field on phase space.

    ``fn`` maps a 6-sequence (x, y, z, px, py, pz) of generic numbers to
    a scalar and must be written against :mod:`axisym.autodiff` math.
    ``momentum_order`` is the polynomial degree in momenta, -1 if the
    field is not polynomial.
    """

    fn: Callable
    label: str = ""
    momentum_order: int = -1

    def __call__(self, point_or_state):
        state = _as_state(point_or_state)
        return self.fn(state)

    @cached_property
    def _value_program(self):
        return trace.traced_value(self.fn)

    def eval(self, point_or_state) -> float:
        """Value at a point or state; EvaluationError if it is not finite.

        On one state of six floats (numpy float64 scalars included) the
        program of :func:`axisym.trace.traced_value` runs, else ``fn``.
        A PhasePoint or float64 array is read as Python floats.  A ``fn``
        that cannot be traced raises TypeError naming its program's tag.
        """
        state = point_or_state
        if isinstance(state, PhasePoint):
            state = state.state
        program = self._value_program
        if isinstance(state, np.ndarray) and state.dtype == np.float64 and state.ndim == 1:
            on_floats = True
            state = state.tolist()
        else:
            state = list(state)
            on_floats = all(isinstance(c, float) for c in state)
        try:
            val = program(0.0, state) if on_floats else self.fn(state)
        except (ZeroDivisionError, OverflowError) as exc:
            raise EvaluationError(f"{self.label or 'observable'}: {exc}") from exc
        val = ad.value(val)
        if isinstance(val, np.ndarray):
            if not np.all(np.isfinite(val)):
                raise EvaluationError(f"{self.label or 'observable'}: non-finite value")
            return val
        if not (math.isfinite(val) if isinstance(val, float) else np.isfinite(val)):
            raise EvaluationError(f"{self.label or 'observable'}: non-finite value")
        return float(val)

    def grad(self, point_or_state):
        state = _as_state(point_or_state)
        g = gradient6(self.fn, state)
        if any(isinstance(c, np.ndarray) for c in state):
            return g
        g = np.asarray([float(ad.value(c)) for c in g])
        if not np.all(np.isfinite(g)):
            raise EvaluationError(f"{self.label or 'observable'}: non-finite gradient")
        return g


def _as_state(point_or_state):
    if isinstance(point_or_state, PhasePoint):
        return list(point_or_state.state)
    return list(point_or_state)


@dataclass(frozen=True)
class CovectorField:
    """Vector potential A as three scalar fields of position."""

    fn: Callable  # (x, y, z) generic -> (Ax, Ay, Az)
    label: str = "A"

    def __call__(self, q):
        return self.fn(q[0], q[1], q[2])


@dataclass(frozen=True)
class TwoForm:
    """Magnetic field B: coefficients of dy^dz, dz^dx, dx^dy."""

    fn: Callable  # (x, y, z) generic -> (Bx, By, Bz)
    label: str = "B"

    def __call__(self, q):
        return self.fn(q[0], q[1], q[2])

    def divergence(self, q) -> float:
        parts = [ad.tangent(self.fn(*s)[i]) for i, s in enumerate(ad.seeded(q))]
        return float(sum(float(ad.value(c)) for c in parts))


def exterior_derivative(A: CovectorField, q) -> tuple:
    """Components of dA at position q, via exact position derivatives."""
    # d[j][i] = dA_i/dx_j
    d = [[ad.tangent(c) for c in A.fn(*s)] for s in ad.seeded(q)]
    return (d[1][2] - d[2][1],
            d[2][0] - d[0][2],
            d[0][1] - d[1][0])


def grad_position(F: Callable, q) -> list:
    """Exact spatial gradient of a scalar field F(x, y, z)."""
    return [ad.tangent(F(*s)) for s in ad.seeded(q)]


def apply_gauge(A: CovectorField, F: Callable) -> CovectorField:
    """Gauge transformation A -> A + grad F; leaves dA unchanged."""

    def gauged(x, y, z):
        ax, ay, az = A.fn(x, y, z)
        gx, gy, gz = grad_position(F, (x, y, z))
        return (ax + gx, ay + gy, az + gz)

    return CovectorField(gauged, label=f"{A.label}+gradF")


def hamiltonian_observable(A: CovectorField, W: Callable, label: str = "H") -> Observable:
    """H = |p + A(q)|^2 / 2 + W(q) as a generic observable."""

    def fn(state):
        x, y, z, px, py, pz = state
        ax, ay, az = A.fn(x, y, z)
        vx, vy, vz = px + ax, py + ay, pz + az
        return 0.5 * (vx * vx + vy * vy + vz * vz) + W(x, y, z)

    return Observable(fn, label=label, momentum_order=2)
