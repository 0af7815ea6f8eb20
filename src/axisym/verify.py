"""Poisson brackets, integral checks, functional rank, determining equations.

All derivatives are exact (forward-mode duals); residuals are limited by
floating point, not step size.  Brackets are normalized by the product
of the two gradient norms at the evaluation point so that high-order
integrals with large magnitudes compare on the same scale.

The determining-equation tiers run on any integral at most quadratic in
the momenta, with its coefficients (f, s, m0) read from the integral
itself (:func:`quadratic_ansatz`).  The closure polynomial and the
involution claims a sweep checks are data on the :class:`SystemSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Dual
from .catalog import SystemSpec
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


def quadratic_ansatz(spec: SystemSpec, obs: Observable) -> QuadraticAnsatz:
    """(f, s, m0) of an integral at most quadratic in the covariant momenta.

    The coefficients are the Taylor coefficients of ``obs`` at
    p^A = p + A(q) = 0, read with one dual layer per momentum seed
    (hyper-dual numbers for the second derivatives).  Position and the
    unseeded momenta are lifted into every momentum layer, so a dual
    in q from an outer spatial derivative stays innermost and never
    mixes with the momentum seeds.
    """
    if not 0 <= obs.momentum_order <= 2:
        raise ValueError(f"{obs.label} is not at most quadratic in momenta")

    def coefficient(scale, *seeds):
        def c(x, y, z):
            ax, ay, az = spec.A.fn(x, y, z)
            state = [x, y, z, -ax, -ay, -az]
            for k in seeds:
                state = [Dual(v, 1.0 if i == k + 3 else 0.0)
                         for i, v in enumerate(state)]
            out = obs.fn(state)
            for _ in seeds:
                out = ad.tangent(out)
            return scale * out
        return c

    return QuadraticAnsatz(
        f11=coefficient(0.5, 0, 0), f22=coefficient(0.5, 1, 1),
        f33=coefficient(0.5, 2, 2), f12=coefficient(1.0, 0, 1),
        f13=coefficient(1.0, 0, 2), f23=coefficient(1.0, 1, 2),
        s1=coefficient(1.0, 0), s2=coefficient(1.0, 1),
        s3=coefficient(1.0, 2), m0=coefficient(1.0),
    )


def y3_quadratic_ansatz(spec: SystemSpec) -> QuadraticAnsatz:
    """(f, s, m0) decomposition of the spec's integral Y3."""
    return quadratic_ansatz(spec, spec.integral("Y3"))


def _value_and_gradient(F: Callable, q) -> tuple:
    """F and its spatial gradient at q; the value is the first pass's primal."""
    grad = []
    for j in range(3):
        seeded = list(q)
        seeded[j] = Dual(seeded[j], 1.0)
        out = F(*seeded)
        if j == 0:
            val = ad.value(out)
        grad.append(ad.tangent(out))
    return val, grad


def determining_residuals(ansatz: QuadraticAnsatz, B, W: Callable,
                          grid) -> dict:
    """Max absolute residual of each determining-equation tier on a grid.

    Tier keys: "third", "second", "first", "zeroth"; the third-order
    tier constrains the leading coefficients, the second-order tier the
    linear coefficients against the field, the first/zeroth tiers the
    scalar part against the potential.  The grid is evaluated as arrays.
    """
    q = np.asarray(grid, dtype=float)
    pt = (q[:, 0], q[:, 1], q[:, 2])
    ((v11, df11), (v22, df22), (v33, df33), (v12, df12), (v13, df13),
     (v23, df23), (sv1, ds1), (sv2, ds2), (sv3, ds3), (_, dm)) = [
        _value_and_gradient(getattr(ansatz, f.name), pt) for f in fields(ansatz)]
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

    bx, by, bz = (ad.value(c) for c in B(pt))
    second = [
        ds1[0] - (v13 * by - v12 * bz),
        ds1[1] - (-ds2[0] - v13 * bx + v23 * by + 2.0 * (v11 - v22) * bz),
        ds2[1] - (-v23 * bx + v12 * bz),
        ds2[2] - (-ds3[1] + 2.0 * (v22 - v33) * bx - v12 * by + v13 * bz),
        ds3[2] - (v23 * bx - v13 * by),
        ds3[0] - (-ds1[2] + v12 * bx - 2.0 * (v11 - v33) * by - v23 * bz),
    ]

    w1, w2, w3 = (ad.value(c) for c in grad_position(W, pt))
    first = [
        dm[0] - (2.0 * v11 * w1 + v12 * w2 + v13 * w3 + sv3 * by - sv2 * bz),
        dm[1] - (v12 * w1 + 2.0 * v22 * w2 + v23 * w3 - sv3 * bx + sv1 * bz),
        dm[2] - (v13 * w1 + v23 * w2 + 2.0 * v33 * w3 + sv2 * bx - sv1 * by),
    ]

    zeroth = [sv1 * w1 + sv2 * w2 + sv3 * w3]

    def worst(rows):
        return max(float(np.max(np.abs(r))) for r in rows)

    return {"third": worst(third), "second": worst(second),
            "first": worst(first), "zeroth": worst(zeroth)}


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


def closure_residual(spec: SystemSpec, states: np.ndarray,
                     tol: float = 1e-9, poly=None) -> ClosureReport:
    """Evaluate ({X1, Y3})^2 and the closure polynomial at given states."""
    poly = poly if poly is not None else spec.closure
    if poly is None:
        raise ValueError(f"no closure polynomial for {spec.system_id}")
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

    if spec.involutions:
        pts = sample_safe_states(rng, samples)
        for a, b in spec.involutions:
            res = bracket_residuals(spec.integral(a), spec.integral(b), pts)
            reports.append(CheckReport(
                system_id=spec.system_id,
                check=f"{{{a},{b}}}=0",
                samples=samples,
                max_residual=float(np.max(res)),
                tolerance=tol,
            ))
    if spec.closure is not None:
        closure = closure_residual(spec, sample_safe_states(rng, samples))
        reports.append(CheckReport(
            system_id=spec.system_id,
            check="closure",
            samples=samples,
            max_residual=closure.max_residual,
            tolerance=closure.tolerance,
        ))
    return reports
