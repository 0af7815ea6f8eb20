"""Poisson brackets, integral checks, functional rank, determining equations.

All derivatives are exact (forward-mode duals); residuals are limited by
floating point, not step size.  Brackets are normalized by the product
of the two gradient norms at the evaluation point so that high-order
integrals with large magnitudes compare on the same scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .catalog import (
    SystemSpec,
    cp_closure_polynomial,
    op_closure_polynomial,
)
from .phase import (
    Observable,
    PhasePoint,
    gradient6,
    grad_position,
    make_rng,
    sample_safe_states,
)

RANK_THRESHOLD = 1e-8  # relative to the largest singular value


def _fn_of(obj) -> Callable:
    return obj.fn if isinstance(obj, Observable) else obj


def _as_state_list(s):
    if isinstance(s, PhasePoint):
        return list(s.state)
    return list(s)


def poisson(f, g, state):
    """Standard Poisson bracket {f, g} at one state (or array of states)."""
    state = _as_state_list(state)
    gf = gradient6(_fn_of(f), state)
    gg = gradient6(_fn_of(g), state)
    acc = 0.0
    for i in range(3):
        acc = acc + gf[i] * gg[i + 3] - gf[i + 3] * gg[i]
    return acc


def _grad_norms(f, g, state):
    gf = gradient6(_fn_of(f), state)
    gg = gradient6(_fn_of(g), state)
    nf = np.sqrt(sum(np.asarray(ad.value(c)) ** 2 for c in gf))
    ng = np.sqrt(sum(np.asarray(ad.value(c)) ** 2 for c in gg))
    return nf, ng


def bracket_residuals(f, g, states: np.ndarray) -> np.ndarray:
    """|{f,g}| / (|grad f| |grad g|) at each column of ``states`` (6, N)."""
    state = [states[i] for i in range(6)]
    br = np.asarray(ad.value(poisson(f, g, state)), dtype=float)
    nf, ng = _grad_norms(f, g, state)
    return np.abs(br) / np.maximum(nf * ng, 1e-300)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one sampled verification check."""

    system_id: str
    check: str
    samples: int
    max_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tolerance

    def as_dict(self) -> dict:
        return {
            "system_id": self.system_id,
            "check": self.check,
            "samples": self.samples,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def is_integral(spec: SystemSpec, g: Observable, samples: int = 1000,
                tol: float = 1e-10, rng=None) -> CheckReport:
    """Normalized max |{g, H}| over random safe states."""
    rng = rng if rng is not None else make_rng()
    states = sample_safe_states(rng, samples)
    res = bracket_residuals(g, spec.hamiltonian, states)
    return CheckReport(
        system_id=spec.system_id,
        check=f"{{{g.label},H}}=0",
        samples=samples,
        max_residual=float(np.max(res)),
        tolerance=tol,
    )


def functional_rank(observables: Sequence[Observable], point) -> int:
    """Numerical rank of the stacked 6-gradients via singular values."""
    state = _as_state_list(point)
    rows = [np.asarray([float(ad.value(c)) for c in gradient6(_fn_of(o), state)])
            for o in observables]
    sv = np.linalg.svd(np.vstack(rows), compute_uv=False)
    return int(np.sum(sv > RANK_THRESHOLD * sv[0]))


def rank_vote(observables: Sequence[Observable], states: np.ndarray) -> int:
    """Majority-vote rank over the columns of ``states`` (6, N)."""
    ranks = [functional_rank(observables, states[:, i])
             for i in range(states.shape[1])]
    values, counts = np.unique(ranks, return_counts=True)
    return int(values[np.argmax(counts)])


# ---------------------------------------------------------------------------
# Determining equations for quadratic integrals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticAnsatz:
    """Coefficients of X = sum f_ij p^A_i p^A_j + sum s_i p^A_i + m0.

    All ten fields are scalar functions of position (x, y, z), written
    against the generic math so spatial derivatives are exact.
    """

    f11: Callable
    f22: Callable
    f33: Callable
    f12: Callable
    f13: Callable
    f23: Callable
    s1: Callable
    s2: Callable
    s3: Callable
    m0: Callable


def _zero(x, y, z):
    return 0.0 * x


def hamiltonian_ansatz(W: Callable) -> QuadraticAnsatz:
    """The Hamiltonian itself as a (trivially integral) quadratic ansatz."""
    half = lambda x, y, z: 0.5 + 0.0 * x
    return QuadraticAnsatz(half, half, half, _zero, _zero, _zero,
                           _zero, _zero, _zero, W)


def y3_quadratic_ansatz(spec: SystemSpec) -> QuadraticAnsatz:
    """(f, s, m) decomposition of the quadratic integral Y3.

    Y3 = (pz^A)^2 + g(z) Lz^A + m0 for both quadratic catalog systems,
    so f33 = 1, s = g(z) * (-y, x, 0), and m0 is the scalar remainder.
    """
    p = spec.params
    if spec.system_id == "op_min":
        def gz(z):
            return p.bp / (z * z) + p.bs * z * z

        def m0(x, y, z):
            s = x * x + y * y
            w2 = z * z
            R2 = s + w2
            return (2.0 * p.u2 / w2 - 2.0 * p.u3 * w2
                    + p.bz * p.bz / 4.0 * w2
                    - p.bz * p.bp / (2.0 * w2) * s
                    - p.bz * p.bs / 2.0 * w2 * s
                    - p.bp * p.bp / (2.0 * w2 * w2) * s
                    - p.bp * p.bs / (2.0 * w2) * R2 * R2
                    - p.bs * p.bs / 2.0 * w2 * s * R2)
    elif spec.system_id == "cp_min" and spec.meta.get("branch") in ("bq", "bz"):
        def gz(z):
            return 2.0 * p.bq * z * z

        def m0(x, y, z):
            s = x * x + y * y
            w2 = z * z
            return (-(p.bz * p.bq + p.bq * p.bq / 2.0 * (s + 4.0 * w2))
                    * w2 * s + 2.0 * p.u1 * z + 8.0 * p.u3 * w2)
    elif spec.system_id == "cp_min":  # bl branch
        def gz(z):
            return -2.0 * p.bl * z

        def m0(x, y, z):
            s = x * x + y * y
            w2 = z * z
            return (2.0 * p.u1 * z + 8.0 * p.u3 * w2
                    - 2.0 * p.bl * p.bl * w2 * s)
    else:
        raise ValueError(f"no Y3 decomposition for {spec.system_id}")

    one = lambda x, y, z: 1.0 + 0.0 * x
    return QuadraticAnsatz(
        f11=_zero, f22=_zero, f33=one,
        f12=_zero, f13=_zero, f23=_zero,
        s1=lambda x, y, z: -y * gz(z),
        s2=lambda x, y, z: x * gz(z),
        s3=_zero,
        m0=m0,
    )


def determining_residuals(ansatz: QuadraticAnsatz, B, W: Callable,
                          grid) -> dict:
    """Max absolute residual of each determining-equation tier on a grid.

    Tier keys: "third", "second", "first", "zeroth"; the third-order
    tier constrains the leading coefficients, the second-order tier the
    linear coefficients against the field, the first/zeroth tiers the
    scalar part against the potential.
    """
    tiers = {"third": 0.0, "second": 0.0, "first": 0.0, "zeroth": 0.0}
    for q in grid:
        x, y, z = float(q[0]), float(q[1]), float(q[2])
        pt = (x, y, z)

        def d(F):
            return [float(ad.value(c)) for c in grad_position(F, pt)]

        f11, f22, f33 = ansatz.f11, ansatz.f22, ansatz.f33
        f12, f13, f23 = ansatz.f12, ansatz.f13, ansatz.f23
        df11, df22, df33 = d(f11), d(f22), d(f33)
        df12, df13, df23 = d(f12), d(f13), d(f23)
        third = [
            df11[0],
            df11[1] + df12[0],
            df11[2] + df13[0],
            df22[0] + df12[1],
            df22[1],
            df22[2] + df23[1],
            df33[0] + df13[2],
            df33[1] + df23[2],
            df33[2],
            df23[0] + df13[1] + df12[2],
        ]

        bx, by, bz = (float(ad.value(c)) for c in B(pt))
        v11, v22, v33 = f11(*pt), f22(*pt), f33(*pt)
        v12, v13, v23 = f12(*pt), f13(*pt), f23(*pt)
        ds1, ds2, ds3 = d(ansatz.s1), d(ansatz.s2), d(ansatz.s3)
        second = [
            ds1[0] - (v13 * by - v12 * bz),
            ds1[1] - (-ds2[0] - v13 * bx + v23 * by + 2.0 * (v11 - v22) * bz),
            ds2[1] - (-v23 * bx + v12 * bz),
            ds2[2] - (-ds3[1] + 2.0 * (v22 - v33) * bx - v12 * by + v13 * bz),
            ds3[2] - (v23 * bx - v13 * by),
            ds3[0] - (-ds1[2] + v12 * bx - 2.0 * (v11 - v33) * by - v23 * bz),
        ]

        dW = d(W)
        w1, w2, w3 = dW
        sv1, sv2, sv3 = ansatz.s1(*pt), ansatz.s2(*pt), ansatz.s3(*pt)
        dm = d(ansatz.m0)
        first = [
            dm[0] - (2.0 * v11 * w1 + v12 * w2 + v13 * w3 + sv3 * by - sv2 * bz),
            dm[1] - (v12 * w1 + 2.0 * v22 * w2 + v23 * w3 - sv3 * bx + sv1 * bz),
            dm[2] - (v13 * w1 + v23 * w2 + 2.0 * v33 * w3 + sv2 * bx - sv1 * by),
        ]

        zeroth = [sv1 * w1 + sv2 * w2 + sv3 * w3]

        tiers["third"] = max(tiers["third"], max(abs(v) for v in third))
        tiers["second"] = max(tiers["second"], max(abs(v) for v in second))
        tiers["first"] = max(tiers["first"], max(abs(v) for v in first))
        tiers["zeroth"] = max(tiers["zeroth"], abs(zeroth[0]))
    return tiers


def safe_grid(n: int = 5) -> list:
    """n^3 positions inside the safe box (all coordinates positive)."""
    vals = np.linspace(0.4, 1.8, n)
    return [(a, b, c) for a in vals for b in vals for c in vals]


# ---------------------------------------------------------------------------
# Polynomial algebra closure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosureReport:
    """Per-point comparison of {X1,Y3}^2 against the closure polynomial."""

    system_id: str
    lhs: np.ndarray
    rhs: np.ndarray
    tolerance: float

    @property
    def residuals(self) -> np.ndarray:
        scale = np.maximum(1.0, np.maximum(np.abs(self.lhs), np.abs(self.rhs)))
        return np.abs(self.lhs - self.rhs) / scale

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals))

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tolerance

    def as_dict(self) -> dict:
        return {
            "system_id": self.system_id,
            "check": "closure",
            "samples": int(self.lhs.size),
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def closure_polynomial(spec: SystemSpec):
    if spec.system_id == "op_min":
        return op_closure_polynomial(spec.params)
    if spec.system_id == "cp_min" and spec.meta.get("branch") in ("bq", "bz"):
        return cp_closure_polynomial(spec.params)
    raise ValueError(f"no closure polynomial for {spec.system_id}")


def closure_residual(spec: SystemSpec, states: np.ndarray,
                     tol: float = 1e-9, poly=None) -> ClosureReport:
    """Evaluate ({X1, Y3})^2 and the closure polynomial at given states."""
    poly = poly if poly is not None else closure_polynomial(spec)
    # Extended precision: the polynomial cancels across terms orders of
    # magnitude above the result, which float64 alone cannot resolve at
    # the required tolerance.
    states = np.asarray(states, dtype=np.longdouble)
    state = [states[i] for i in range(6)]
    x1 = spec.integral("X1")
    y3 = spec.integral("Y3")
    br = np.asarray(ad.value(poisson(x1, y3, state)))
    lhs = br ** 2
    H = np.asarray(ad.value(spec.hamiltonian.fn(state)))
    X1 = np.asarray(ad.value(x1.fn(state)))
    X2 = np.asarray(ad.value(spec.integral("X2").fn(state)))
    Y3 = np.asarray(ad.value(y3.fn(state)))
    rhs = np.asarray(poly(H, X1, X2, Y3))
    return ClosureReport(spec.system_id,
                         np.atleast_1d(lhs).astype(float),
                         np.atleast_1d(rhs).astype(float), tol)


def verify_system(spec: SystemSpec, samples: int = 1000,
                  tol: float = 1e-10, y4_tol: float = 1e-8,
                  rank_points: int = 20, seed=None) -> list:
    """Full verification sweep; returns a list of CheckReports."""
    rng = make_rng() if seed is None else make_rng(seed)
    reports = []
    for g in spec.integrals:
        t = y4_tol if g.label == "Y4" else tol
        reports.append(is_integral(spec, g, samples=samples, tol=t, rng=rng))

    states = sample_safe_states(rng, rank_points)
    rank = rank_vote(list(spec.observables()), states)
    reports.append(CheckReport(
        system_id=spec.system_id,
        check="functional_rank",
        samples=rank_points,
        max_residual=float(abs(rank - spec.claimed_rank)),
        tolerance=0.5,
    ))

    # Involution claims for the quadratic systems.
    if spec.system_id in ("op_min", "cp_min"):
        pts = sample_safe_states(rng, samples)
        for a, b in (("X1", "X2"), ("X2", "Y3")):
            res = bracket_residuals(spec.integral(a), spec.integral(b), pts)
            reports.append(CheckReport(
                system_id=spec.system_id,
                check=f"{{{a},{b}}}=0",
                samples=samples,
                max_residual=float(np.max(res)),
                tolerance=tol,
            ))
        try:
            closure = closure_residual(spec, sample_safe_states(rng, samples))
            reports.append(CheckReport(
                system_id=spec.system_id,
                check="closure",
                samples=samples,
                max_residual=closure.max_residual,
                tolerance=closure.tolerance,
            ))
        except ValueError:
            pass
    return reports
