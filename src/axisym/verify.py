"""Poisson brackets, integral checks, functional rank, determining equations.

All derivatives are exact; residuals are limited by floating point, not
step size.  Each check is traced into straight-line code
(:mod:`axisym.trace`) on first use and evaluated on blocks of
``trace.BLOCK`` states: one program per (f, g) gives the bracket and
both squared gradient norms; one per spec gives {X1,Y3}^2 with H, X1,
X2 and Y3 from a single tape, and one per closure polynomial evaluates
it on those values, both in long double, each block of the two sides
rounded to float64 as it is written; one per (ansatz, B, W) gives
every residual row of the determining equations, its nested (hyper-dual)
spatial and momentum derivatives traced with it.  Ranks use each
observable's traced 6-gradient.  A field that cannot be traced raises
TypeError naming its program's tag.  Brackets are normalized by the
product of the two gradient norms at the evaluation point so that
high-order integrals with large magnitudes compare on the same scale.

The determining-equation tiers run on any integral at most quadratic in
the momenta, with its coefficients (f, s, m0) read from the integral
itself (:func:`quadratic_ansatz`).  The closure polynomial and the
involution claims a sweep checks are data on the :class:`SystemSpec`.
A sweep (:func:`verify_system`) holds one sample set at a time: each set
and its residuals die when its check's report is made.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from . import trace
from .autodiff import Dual
from .catalog import SystemSpec
from .phase import (
    Observable,
    _as_state,
    grad_position,
    gradient6,
    make_rng,
    sample_safe_states,
)

RANK_THRESHOLD = 1e-8  # relative to the largest singular value


def _fn_of(obj) -> Callable:
    return obj.fn if isinstance(obj, Observable) else obj


def _bracket(gf, gg):
    acc = 0.0
    for i in range(3):
        acc = acc + gf[i] * gg[i + 3] - gf[i + 3] * gg[i]
    return acc


def poisson(f, g, state):
    """Standard Poisson bracket {f, g} at one state (or array of states)."""
    state = _as_state(state)
    return _bracket(trace.gradient(_fn_of(f), state),
                    trace.gradient(_fn_of(g), state))


def _bracket_program(f: Callable, g: Callable):
    """One traced program for {f, g} and both squared gradient norms."""
    def outputs(t, y):
        gf, gg = gradient6(f, list(y)), gradient6(g, list(y))
        return _bracket(gf, gg), sum(c ** 2 for c in gf), sum(c ** 2 for c in gg)

    return trace.cached_program((f, g), outputs,
                                f"bracket {trace.name_of(f)} {trace.name_of(g)}")


def bracket_residuals(f, g, states: np.ndarray) -> np.ndarray:
    """|{f,g}| / (|grad f| |grad g|) at each column of ``states`` (6, N)."""
    program = _bracket_program(_fn_of(f), _fn_of(g))

    def residual(t, y):
        br, nf2, ng2 = program(t, y)
        br = np.asarray(br, dtype=float)
        return (np.abs(br) / np.maximum(np.sqrt(nf2) * np.sqrt(ng2), 1e-300),)

    return trace.evaluate_blocks(residual, [states[i] for i in range(6)], 1)[0]


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


def _bracket_report(spec: SystemSpec, check: str, f, g, states: np.ndarray,
                    tol: float) -> CheckReport:
    """The report of ``check``, {f, g} = 0 at each column of ``states``.

    The residuals die with the call; a caller that passes the states
    without keeping them frees those too.
    """
    res = bracket_residuals(f, g, states)
    return CheckReport(spec.system_id, check, states.shape[1], float(np.max(res)), tol)


def _require_counts(**counts) -> None:
    """ValueError naming the first of ``counts`` that is not an integer >= 1."""
    for name, n in counts.items():
        if not (isinstance(n, numbers.Integral) and n >= 1):
            raise ValueError(f"{name} must be an integer >= 1, not {n!r}")


def is_integral(spec: SystemSpec, g: Observable, samples: int = 1000,
                tol: float = 1e-10, rng=None) -> CheckReport:
    """Normalized max |{g, H}| over random safe states."""
    _require_counts(samples=samples)
    rng = rng if rng is not None else make_rng()
    return _bracket_report(spec, f"{{{g.label},H}}=0", g, spec.hamiltonian,
                           sample_safe_states(rng, samples), tol)


def _ranks(observables: Sequence[Observable], states: np.ndarray) -> np.ndarray:
    """Numerical rank of the stacked 6-gradients at each column of ``states``."""
    states = np.asarray(states, dtype=float)
    stack = np.empty((states.shape[1], len(observables), 6))
    for j, o in enumerate(observables):
        for i, c in enumerate(trace.gradient(_fn_of(o), list(states))):
            stack[:, j, i] = ad.value(c)
    sv = np.linalg.svd(stack, compute_uv=False)
    return np.sum(sv > RANK_THRESHOLD * sv[:, :1], axis=1)


def functional_rank(observables: Sequence[Observable], point) -> int:
    """Numerical rank of the stacked 6-gradients via singular values."""
    return int(_ranks(observables, np.reshape(_as_state(point), (6, 1)))[0])


def rank_vote(observables: Sequence[Observable], states: np.ndarray) -> int:
    """Majority-vote rank over the columns of ``states`` (6, N)."""
    values, counts = np.unique(_ranks(observables, states), return_counts=True)
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
    mixes with the momentum seeds.  The ansatz is kept per (spec, obs)
    in the program cache (:func:`axisym.trace.cached`), so a repeated
    call returns the same object and its determining program
    (:func:`determining_residuals`) is traced once.
    """
    if not 0 <= obs.momentum_order <= 2:
        raise ValueError(f"{obs.label} is not at most quadratic in momenta")
    return trace.cached("ansatz", (spec, obs), lambda: _read_ansatz(spec.A.fn, obs.fn))


def _read_ansatz(A: Callable, fn: Callable) -> QuadraticAnsatz:
    # The coefficients hold A and fn, not the spec or the observable that
    # key the ansatz in the cache.
    def coefficient(scale, *seeds):
        def c(x, y, z):
            ax, ay, az = A(x, y, z)
            state = [x, y, z, -ax, -ay, -az]
            for k in seeds:
                state = [Dual(v, 1.0 if i == k + 3 else 0.0)
                         for i, v in enumerate(state)]
            out = fn(state)
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
    outs = [F(*s) for s in ad.seeded(q)]
    return ad.value(outs[0]), [ad.tangent(o) for o in outs]


# Tier -> its number of residual rows, in the order _tier_rows returns them.
_TIERS = {"third": 10, "second": 6, "first": 3, "zeroth": 1}


def _tier_rows(ansatz: QuadraticAnsatz, B, W: Callable, pt) -> tuple:
    """The residual rows of every tier at positions ``pt`` = (x, y, z).

    Third-order rows first, zeroth last (:data:`_TIERS`).  Run on arrays
    with dual numbers, or once on recording scalars to be traced.
    """
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
    return (*third, *second, *first, *zeroth)


def _determining_program(ansatz: QuadraticAnsatz, B, W: Callable):
    """``_tier_rows`` traced on three recording positions, cached."""
    return trace.cached_program((ansatz, B, W), lambda t, q: _tier_rows(ansatz, B, W, q),
                                f"determining {trace.name_of(W)}", inputs=3)


def _determining_rows(ansatz: QuadraticAnsatz, B, W: Callable, grid) -> list:
    """Every tier's residual rows on ``grid``, each of one value per position."""
    q = np.asarray(grid, dtype=float)
    pt = (q[:, 0], q[:, 1], q[:, 2])
    program = _determining_program(ansatz, B, W)
    return trace.evaluate_blocks(program, pt, sum(_TIERS.values()))


def determining_residuals(ansatz: QuadraticAnsatz, B, W: Callable,
                          grid) -> dict:
    """Max absolute residual of each determining-equation tier on a grid.

    Tier keys: "third", "second", "first", "zeroth"; the third-order
    tier constrains the leading coefficients, the second-order tier the
    linear coefficients against the field, the first/zeroth tiers the
    scalar part against the potential.  The tiers are one function of
    position (:func:`_tier_rows`), traced once per (ansatz, B, W) and
    run on blocks of the grid.
    """
    rows = iter(_determining_rows(ansatz, B, W, grid))
    return {tier: max(float(np.max(np.abs(next(rows)))) for _ in range(n))
            for tier, n in _TIERS.items()}


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


def _closure_program(spec: SystemSpec):
    """({X1,Y3}^2, H, X1, X2, Y3) from one tape, cached per spec.

    The four values share their lines with the primal parts of the two
    gradients.
    """
    x1, y3 = spec.integral("X1").fn, spec.integral("Y3").fn
    H, x2 = spec.hamiltonian.fn, spec.integral("X2").fn

    def outputs(t, y):
        y = list(y)
        br = _bracket(gradient6(x1, y), gradient6(y3, y))
        return br ** 2, H(y), x1(y), x2(y), y3(y)

    return trace.cached_program((spec,), outputs, f"closure {spec.system_id}")


def _closure_sides(spec: SystemSpec, states: np.ndarray, poly) -> tuple:
    """({X1,Y3}^2, poly(H, X1, X2, Y3)), computed in long double.

    Extended precision: the polynomial cancels across terms orders of
    magnitude above the result, which float64 alone cannot resolve at
    the closure tolerance.  The two programs run on blocks cast to long
    double one at a time, and each block of the two sides is rounded to
    the dtype of ``states`` as it is written, so float64 states give
    float64 sides and no long-double copy of all of them is made.
    """
    program = _closure_program(spec)
    poly_program = trace.cached_program((poly,), lambda t, v: (poly(*v),),
                                        f"poly {trace.name_of(poly)}", inputs=4)

    def sides(t, y):
        lhs, *values = program(t, y)
        return lhs, poly_program(t, values)

    states = np.asarray(states)
    lhs, rhs = trace.evaluate_blocks(sides, [states[i] for i in range(6)], 2, np.longdouble)
    return lhs, rhs


def closure_residual(spec: SystemSpec, states: np.ndarray,
                     tol: float = 1e-9, poly=None) -> ClosureReport:
    """Evaluate ({X1, Y3})^2 and the closure polynomial at given states."""
    poly = poly if poly is not None else spec.closure
    if poly is None:
        raise ValueError(f"no closure polynomial for {spec.system_id}")
    lhs, rhs = _closure_sides(spec, states, poly)
    return ClosureReport(spec.system_id,
                         np.atleast_1d(lhs).astype(float, copy=False),
                         np.atleast_1d(rhs).astype(float, copy=False), tol)


def verify_system(spec: SystemSpec, samples: int = 1000,
                  tol: float = 1e-10,
                  rank_points: int = 20, seed=None) -> list:
    """Full verification sweep; returns a list of CheckReports."""
    _require_counts(samples=samples, rank_points=rank_points)
    rng = make_rng() if seed is None else make_rng(seed)
    reports = []
    for g in spec.integrals:
        reports.append(is_integral(spec, g, samples=samples, tol=tol, rng=rng))

    observables = list(spec.observables())
    rank = rank_vote(observables, sample_safe_states(rng, rank_points))
    reports.append(CheckReport(
        system_id=spec.system_id,
        check="functional_rank",
        samples=rank_points,
        max_residual=float(abs(rank - spec.claimed_rank)),
        tolerance=0.5,
    ))

    if spec.involutions:
        pts = sample_safe_states(rng, samples)
        reports += [_bracket_report(spec, f"{{{a},{b}}}=0", spec.integral(a),
                                    spec.integral(b), pts, tol)
                    for a, b in spec.involutions]
        del pts         # before the closure check draws its own states
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
