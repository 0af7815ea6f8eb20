"""Equations of motion, adaptive integration, and period detection.

Hamilton's equations are generated from a SystemSpec's axial-gauge
data g(s, z) and W(s, z), with A = g * (-y, x, 0), which every spec
carries (catalog systems, oscillator images and chart families alike).
The closed-form right-hand side is traced once per spec into generated
Python without branches (:mod:`axisym.trace`; forward-mode derivatives
by source transformation), in which a value read once is nested into
the expression that reads it and only values read more often get a
name, so each call does plain float arithmetic with few local stores,
and :func:`eom_rhs` runs the same function on (6, k) blocks.

The integrator is DOP853 (Hairer, Norsett & Wanner), an adaptive
embedded Runge-Kutta pair of order 8(5,3) with dense output, run on a
state of six Python floats.  Its tableau is scipy's
(``scipy.integrate._ivp.dop853_coefficients``), shipped here as float
literals and written out once as straight-line code; the initial step,
error norm and step-size controller are scipy's too, so a run makes the
same RHS calls as ``scipy.integrate.solve_ivp``.  The interpolant rows
of the dense output are computed after the steps, in blocks of steps on
(6, k) arrays, so the RHS must also accept a tuple of six (k,) rows.
Guard and escape events are checked at accepted steps and located on
the interpolant with Brent's root finder, and detected periods are
polished with Brent's bounded minimizer (Brent, "Algorithms for
Minimization without Derivatives", 1973), both ported from scipy so
that they give its results; the module needs numpy alone.  A step
budget bounds the work of a run, and a run stops ("drift") once
|H - H0| exceeds ``DRIFT_STOP * tol * max(1, |H0|)``, far above the
slow drift of an accurate run.  Each run reports why it stopped.
Conserved quantities are monitored along the output nodes rather than
enforced, which provides a drift certificate tied to the local
tolerance.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from array import array
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .autodiff import seeded, tangent, value
from .catalog import SystemSpec
from .phase import DomainError, PhasePoint
from .trace import cached_program, evaluate_rows, traced_value

GUARD_RADIUS = 0.05
ESCAPE_BOUND = 1e4
TOL_MIN, TOL_MAX = 1e-14, 1e-6
DEFAULT_TOL = 1e-10
# Accepted steps after which a bounded run stops ("step_budget").  Orbits
# can hover just outside a guard radius, or run away with the step size
# collapsing long before the escape bound, so an unbounded run may stall.
STEP_BUDGET = 50_000
# A run stops ("drift") once |H - H0| > DRIFT_STOP * tol * max(1, |H0|).
# DOP853 is not symplectic, so H drifts slowly with the number of steps;
# checked at every accepted step, no completed criterion-1 draw drifts
# past 8.5e2 * tol at tol 1e-12, 1.1e3 * tol at 1e-13 or 6.2e3 * tol at
# 1e-14, while runaways whose step size collapses pass this bound within
# ~10^4 steps instead of spending the whole step budget.
DRIFT_STOP = 1e6


def eom_rhs(spec: SystemSpec, state) -> np.ndarray:
    """Time derivative (dq/dt, dp/dt) of a state under the spec's H.

    Accepts a PhasePoint, a 6-sequence, or a (6, k) array of states, and
    runs the RHS ``integrate`` uses (:func:`_make_scalar_rhs`): on six
    floats for one state, giving a (6,) array, and on the rows of a
    block.  Raises DomainError inside the guard region of a singular
    system.
    """
    if isinstance(state, PhasePoint):
        state = state.state
    rhs = _make_scalar_rhs(spec)
    arr = np.asarray(state, dtype=float)
    if arr.ndim == 1:
        y = tuple(arr.tolist())
        _check_guard(spec, y)
        return np.array(rhs(0.0, y), dtype=float)
    y = arr.reshape(6, -1)
    _check_guard(spec, y)
    return evaluate_rows(rhs, 0.0, y).reshape(arr.shape)


def _check_guard(spec: SystemSpec, y):
    """Raise DomainError if a state lies inside a guard region.

    ``y`` is one state as a tuple of six floats or a block as six rows.
    """
    hypot, hit = (math.hypot, bool) if isinstance(y, tuple) else (np.hypot, np.any)
    if "r" in spec.singular_in and hit(hypot(y[0], y[1]) < GUARD_RADIUS):
        raise DomainError(f"state within guard radius of the axis (r < {GUARD_RADIUS})")
    if "z" in spec.singular_in and hit(abs(y[2]) < GUARD_RADIUS):
        raise DomainError(f"state within guard radius of z = 0 (|z| < {GUARD_RADIUS})")


def _make_scalar_rhs(spec: SystemSpec):
    """Right-hand side ``integrate`` hands to the solver and ``eom_rhs`` uses.

    The dual-number RHS of :func:`_make_dual_rhs`, the closed form in
    the spec's g and W, is traced once into straight-line code (exact
    derivatives, no per-call objects).  Code without math functions
    (every catalog config) is the compiled function itself; code with
    them (the chart families) runs ``math`` on floats and numpy on rows,
    as the dual RHS does.  Per-step code, so it deletes no values.  A
    field that cannot be traced (one that branches on a value) raises
    TypeError naming the tag ``rhs <system_id>``.
    """
    return cached_program((spec,), _make_dual_rhs(spec), f"rhs {spec.system_id}", free=False)


def _make_dual_rhs(spec: SystemSpec):
    """Right-hand side via dual numbers, on floats or on (6, k) rows.

    It is the closed form of Hamilton's equations for
    H = |p + g (-y, x, 0)|^2 / 2 + W(s, z), with one dual pass per
    argument of g and of W.  The generated RHS of
    :func:`_make_scalar_rhs` is traced from this function, and the tests
    compare the two.
    """
    g_fn = spec.gauge_factor
    W_fn = spec.potential_sw

    def rhs(t, y):
        x, yy, z, px, py, pz = y
        s = x * x + yy * yy
        gs, gw = (g_fn(*a) for a in seeded((s, z)))
        Ws, Ww = (W_fn(*a) for a in seeded((s, z)))
        g, g_s, g_w = value(gs), tangent(gs), tangent(gw)
        W_s, W_w = tangent(Ws), tangent(Ww)
        vx = px - yy * g
        vy = py + x * g
        return (vx, vy, pz,
                vx * (2.0 * x * yy * g_s) - vy * (g + 2.0 * x * x * g_s) - 2.0 * x * W_s,
                vx * (g + 2.0 * yy * yy * g_s) - vy * (2.0 * x * yy * g_s) - 2.0 * yy * W_s,
                g_w * (yy * vx - x * vy) - W_w)

    return rhs


# ------------------------------------------------------------------ DOP853
#
# Scipy's DOP853 (Hairer, Norsett & Wanner, "Solving ODEs I", II.5-II.6)
# run on a state of six Python floats: the same tableau, initial step,
# error norm and step-size controller as ``scipy.integrate.solve_ivp``,
# without its per-stage array and wrapper overhead.
#
# The tableau of scipy's ``dop853_coefficients``, non-zero entries only
# (the A, B, E3, E5 and D rows map stage -> coefficient): C holds the
# nodes of all 16 stages, A rows 1-15 (row 12 equals B), B the weights
# of the 12 stages of a step, E3 and E5 the two error estimators over
# those stages and stage 12 (f at the new state), and D the four rows of
# the interpolant over all 16 stages.

_DOP853_C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778)
_DOP853_A = {
    1: {0: 0.05260015195876773},
    2: {0: 0.0197250569845379, 1: 0.0591751709536137},
    3: {0: 0.02958758547680685, 2: 0.08876275643042054},
    4: {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    5: {0: 0.037037037037037035, 3: 0.17082860872947386,
        4: 0.12546768756682242},
    6: {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596,
        5: -0.017578125},
    7: {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
        5: -0.015319437748624402, 6: 0.008273789163814023},
    8: {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
        5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
    9: {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
        5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
        8: -0.020331201708508627},
    10: {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
         5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
         8: 2.4936055526796523, 9: -3.0467644718982196},
    11: {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
         5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
         8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636},
    12: {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
         7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
         10: 0.20136540080403034, 11: 0.04471061572777259},
    13: {0: 0.056167502283047954, 6: 0.25350021021662483,
         7: -0.2462390374708025, 8: -0.12419142326381637,
         9: 0.15329179827876568, 10: 0.00820105229563469,
         11: 0.007567897660545699, 12: -0.008298},
    14: {0: 0.03183464816350214, 5: 0.028300909672366776,
         6: 0.053541988307438566, 7: -0.05492374857139099,
         10: -0.00010834732869724932, 11: 0.0003825710908356584,
         12: -0.00034046500868740456, 13: 0.1413124436746325},
    15: {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599,
         7: 4.06898981839711, 8: 0.3567271874552811,
         12: -0.0013990241651590145, 13: 2.9475147891527724,
         14: -9.15095847217987},
}
_DOP853_B = {0: 0.054293734116568765, 5: 4.450312892752409,
    6: 1.8915178993145003, 7: -5.801203960010585, 8: 0.3111643669578199,
    9: -0.1521609496625161, 10: 0.20136540080403034, 11: 0.04471061572777259}
_DOP853_E3 = {0: -0.18980075407240762, 5: 4.450312892752409,
    6: 1.8915178993145003, 7: -5.801203960010585, 8: -0.4226823213237919,
    9: -0.1521609496625161, 10: 0.20136540080403034, 11: 0.02265179219836082}
_DOP853_E5 = {0: 0.01312004499419488, 5: -1.2251564463762044,
    6: -0.4957589496572502, 7: 1.6643771824549864, 8: -0.35032884874997366,
    9: 0.3341791187130175, 10: 0.08192320648511571, 11: -0.022355307863886294}
_DOP853_D = (
    {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917,
     7: 2.38466765651207, 8: 2.117034582445028, 9: -0.871391583777973,
     10: 2.2404374302607883, 11: 0.6315787787694688, 12: -0.08899033645133331,
     13: 18.148505520854727, 14: -9.194632392478356, 15: -4.436036387594894},
    {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028,
     7: -374.5467547226902, 8: -22.113666853125306, 9: 7.733432668472264,
     10: -30.674084731089398, 11: -9.332130526430229, 12: 15.697238121770845,
     13: -31.139403219565178, 14: -9.35292435884448, 15: 35.81684148639408},
    {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758,
     7: 527.8081592054236, 8: -11.57390253995963, 9: 6.8812326946963,
     10: -1.0006050966910838, 11: 0.7777137798053443, 12: -2.778205752353508,
     13: -60.19669523126412, 14: 84.32040550667716, 15: 11.99229113618279},
    {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455,
     7: 357.6391179106141, 8: 93.40532418362432, 9: -37.45832313645163,
     10: 104.0996495089623, 11: 29.8402934266605, 12: -43.53345659001114,
     13: 96.32455395918828, 14: -39.17726167561544, 15: -149.72683625798564},
)

SAFETY = 0.9              # step-size controller, as in scipy's RungeKutta
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1.0 / 8.0     # the error estimator has order 7
_EPS = float(np.finfo(float).eps)
_ROW = 50                 # interpolant row: t_old, h, y_old (6), F (7 x 6)
_STEP = 92                # pending step: t_old, h, y_old, k0-k11, y_new, f_new
# Steps whose interpolant rows are computed together as one (6, k)
# block: the block RHS costs less per state than the scalar one from
# k ~ 50-100 on, while a larger block only holds more memory.
_CHUNK = 512


def _dop853_source() -> str:
    """Source of ``step`` and ``dense`` for the DOP853 tableau.

    ``step`` makes one attempt of size ``h`` on six floats, every stage
    written out per component with the zero coefficients dropped: it
    returns the new state, f there, the error norm of scipy's
    ``DOP853._estimate_error_norm`` and the stages.  ``dense`` takes a
    (92, k) block of accepted steps, each column
    ``(t_old, h, *y_old, *k0, ..., *k11, *y_new, *f_new)``, adds the
    three extra stages on (6, k) arrays and returns the (50, k)
    interpolant rows ``(t_old, h, *y_old, *F)`` with F as in scipy's
    ``Dop853DenseOutput``.  Both do the same float operations in the
    same order per component, so a column of ``dense`` equals what the
    per-step arithmetic gives, bit for bit, when the RHS does too.
    """
    n = 12                           # stage n is f(t + h, y_new)
    comps = range(6)

    def lin(coefs, i):
        return " + ".join(f"{c!r} * k{j}_{i}" for j, c in coefs.items())

    def names(prefix):
        return ", ".join(f"{prefix}{i}" for i in comps)

    stages = ", ".join(f"k{j}" for j in range(n))
    step = ["def step(rhs, t, y, f, h, rtol, atol):",
            f"    {names('y')} = y",
            "    k0 = f",
            f"    {names('k0_')} = f"]
    for s in range(1, n):
        args = ", ".join(f"y{i} + ({lin(_DOP853_A[s], i)}) * h" for i in comps)
        step += [f"    k{s} = rhs(t + {_DOP853_C[s]!r} * h, ({args}))",
                 f"    {names(f'k{s}_')} = k{s}"]
    step += [f"    n{i} = y{i} + h * ({lin(_DOP853_B, i)})" for i in comps]
    step += [f"    yn = ({names('n')})",
             f"    k{n} = rhs(t + h, yn)",
             f"    {names(f'k{n}_')} = k{n}"]
    for i in comps:
        step += [f"    s{i} = atol + max(abs(y{i}), abs(n{i})) * rtol",
                 f"    p{i} = ({lin(_DOP853_E5, i)}) / s{i}",
                 f"    q{i} = ({lin(_DOP853_E3, i)}) / s{i}"]
    step += [f"    p = {' + '.join(f'p{i} * p{i}' for i in comps)}",
             f"    q = {' + '.join(f'q{i} * q{i}' for i in comps)}",
             "    if p == 0.0 and q == 0.0:",
             f"        return yn, k{n}, 0.0, ({stages})",
             f"    return yn, k{n}, abs(h) * p / sqrt((p + 0.01 * q) * 6.0), ({stages})"]

    def block_lin(coefs):
        return " + ".join(f"{c!r} * k{j}" for j, c in coefs.items())

    dense = ["def dense(rhs, b):",
             "    t, h, y = b[0], b[1], b[2:8]"]
    dense += [f"    k{j} = b[{8 + 6 * j}:{14 + 6 * j}]" for j in range(n)]
    dense += [f"    yn, k{n} = b[{8 + 6 * n}:{14 + 6 * n}], b[{14 + 6 * n}:{20 + 6 * n}]"]
    for s in range(n + 1, len(_DOP853_C)):
        dense.append(f"    k{s} = rhs_rows(rhs, t + {_DOP853_C[s]!r} * h, "
                     f"y + ({block_lin(_DOP853_A[s])}) * h)")
    dense.append("    d = yn - y")
    F = (["d", "h * k0 - d", f"2 * d - h * (k{n} + k0)"]
         + [f"h * ({block_lin(row)})" for row in _DOP853_D])
    dense.append(f"    return concatenate((b[:8], {', '.join(F)}))")
    return "\n".join(step + [""] + dense) + "\n"


@functools.cache
def _dop853():
    """``(step, dense)``, generated and compiled on first use."""
    namespace = {"sqrt": math.sqrt, "rhs_rows": evaluate_rows,
                 "concatenate": np.concatenate}
    exec(compile(_dop853_source(), "<dop853>", "exec"), namespace)
    return namespace["step"], namespace["dense"]


class DenseOutput:
    """Piecewise DOP853 interpolant held as one array of step rows.

    ``t_ends[k]`` is the end of the step in ``rows[k]``; a time is
    evaluated on the first step ending at or after it (scipy's
    ``OdeSolution`` choice at breakpoints), clipped to the first and last
    step.  A scalar time gives a (6,) state, an (N,) array a (6, N) block.
    """

    def __init__(self, t_ends: np.ndarray, rows: np.ndarray):
        self.t_ends = t_ends
        self.rows = rows

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        seg = np.minimum(np.searchsorted(self.t_ends, t, side="left"),
                         self.t_ends.size - 1)
        rows = self.rows[seg]
        x = ((t - rows[..., 0]) / rows[..., 1])[..., None]
        y = np.zeros(rows.shape[:-1] + (6,))
        for m in range(6, -1, -1):
            y += rows[..., 8 + 6 * m:14 + 6 * m]
            y *= x if m % 2 == 0 else 1.0 - x
        y += rows[..., 2:8]
        return y.T


@dataclass(frozen=True)
class OdeResult:
    """Output of :func:`solve_ivp`; the fields scipy's result shares first."""

    t: np.ndarray                 # (N,) output times
    y: np.ndarray                 # (6, N) states there
    sol: Optional[DenseOutput]    # with dense_output, over [t0, t_final]
    status: int                   # 0 reached t_end, 1 stopped early, -1 failed
    nfev: int
    message: str
    reason: str                   # "completed", an event's name or "step_budget"
    steps: int                    # accepted steps
    rejected_steps: int
    t_final: float                # where the run stopped
    last_step: float              # size of the last accepted step


def _rms(v) -> float:
    return math.sqrt(sum(x * x for x in v)) / math.sqrt(len(v))


def _initial_step(fun, t0, y0, f0, t_bound, rtol, atol) -> float:
    """Scipy's ``select_initial_step`` for an order-7 error estimator."""
    interval = t_bound - t0
    scale = [atol + abs(v) * rtol for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0, tuple(v + h0 * d for v, d in zip(y0, f0)))
    # h0 is 0 where the RHS overflows; numpy's division gives inf.
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, f0, scale)]) / h0 if h0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100 * h0, h1, interval)


def _brentq(f, a, b, xtol, rtol, maxiter=100):
    """Root of ``f`` in [a, b] by Brent's method (Brent 1973, ch. 4).

    A port of scipy's ``brentq`` (its C ``brentq.c``, statement by
    statement), so it makes the same calls and returns the same root.
    Raises ValueError when ``f`` returns NaN or f(a) and f(b) have the
    same sign, and RuntimeError when ``maxiter`` iterations do not
    converge.
    """
    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    # math.copysign(1.0, v) compares like C's signbit, -0.0 included.
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                # bisect
                spre = scur = sbis
        else:
            # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur:f}")


def _flush(dense, fun, pending, rows) -> np.ndarray:
    """Interpolant rows of the ``pending`` steps, moved onto ``rows``.

    The steps are computed as one block by ``dense``; returns their
    (k, 50) rows.
    """
    block = np.frombuffer(pending).reshape(-1, _STEP).T.copy()
    del pending[:]
    new = dense(fun, block).T
    rows.frombytes(new.tobytes())
    return new


def solve_ivp(fun, t_span, y0, rtol, atol, dense_output=False, t_eval=None,
              events=(), max_steps=None) -> OdeResult:
    """DOP853 on a state of six floats, forward in time.

    Runs the algorithm of ``scipy.integrate.solve_ivp(method="DOP853")``
    with the same RHS call count.  ``fun(t, y)`` gets a 6-tuple and
    returns six floats; it must also accept a tuple of six (k,) rows
    (with ``t`` a (k,) array) and return six rows or constants.  The
    steps run on floats, and the interpolant rows of the steps that
    need one are computed after the steps, ``_CHUNK`` steps at a time,
    on (6, k) blocks with the same ``fun``.  For a ``fun`` that does
    only ``+ - * /`` (the catalog configs' generated RHS) the rows equal
    those of the per-step arithmetic bit for bit; one that calls a math
    function on floats and its numpy ufunc on rows (the chart families'
    RHS, e.g. ``math.cosh`` against ``np.cosh``) may give rows that
    differ in the last bits.  Each event ``ev(t, y)`` stops the run when its
    value falls from >= 0 to <= 0 between two accepted steps (scipy's
    terminal event with ``direction = -1``): the run ends at its root on
    the step's interpolant (:func:`_brentq`, scipy's ``brentq``), with
    the event's name as the reason.  With ``max_steps`` a run that has
    not finished after that many accepted steps stops with reason
    ``"step_budget"``.  Output is the step points (``dense_output``) or
    the ``t_eval`` nodes reached; a run that stops early also outputs
    its stop.  Every output state but the step points comes from the
    interpolant.
    """
    step, dense = _dop853()
    t, t_bound = float(t_span[0]), float(t_span[1])
    if not t_bound > t:
        raise ValueError("t_span must run forward")
    if t_eval is None and not dense_output:
        raise ValueError("pass t_eval or dense_output=True")
    t0 = t
    y = tuple(map(float, y0))
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_bound, rtol, atol)
    nfev = 2
    nodes = [] if t_eval is None else np.asarray(t_eval, dtype=float).tolist()
    nodes.append(math.inf)
    i_node = 0
    g = [ev(t, y) for ev in events]
    pending, rows, t_ends = array("d"), array("d"), array("d")
    steps = rejected = 0
    status, reason, t_stop = None, "completed", t

    while status is None:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        step_rejected = False
        while True:
            if not h_abs >= min_step:    # NaN too: a NaN RHS gives a NaN step
                status, reason = -1, "step_size"
                break
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            y_new, f_new, err, ks = step(fun, t, y, f, h, rtol, atol)
            nfev += 12
            if err < 1.0:
                factor = MAX_FACTOR if err == 0.0 else min(
                    MAX_FACTOR, SAFETY * err ** _ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if step_rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * err ** _ERROR_EXPONENT)
            step_rejected = True
            rejected += 1
        if status is not None:
            break
        steps += 1
        t_old, y_old, t, y, f = t, y, t_new, y_new, f_new
        t_stop = t
        hits = ()
        if events:
            g_new = [ev(t, y) for ev in events]
            if min(g_new) <= 0.0:
                hits = [i for i, (a, b) in enumerate(zip(g, g_new)) if a >= 0 >= b]
            g = g_new
        budget = t < t_bound and steps == max_steps
        if dense_output or hits or budget or nodes[i_node] <= t:
            # This step's interpolant is needed: as dense output, for a
            # sampled node, or for the stop of a run that ends early.
            k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11 = ks
            pending.fromlist([t_old, h, *y_old, *k0, *k1, *k2, *k3, *k4, *k5, *k6,
                              *k7, *k8, *k9, *k10, *k11, *y, *f])
            t_ends.append(t)
            nfev += 3
        if hits:
            local = DenseOutput(np.array([t]), _flush(dense, fun, pending, rows)[-1:])
            t_stop, first = min(
                (_brentq(lambda s, ev=events[i]: ev(s, local(s)), t_old, t,
                         4 * _EPS, 4 * _EPS), i) for i in hits)
            status, reason = 1, events[first].__name__
        elif t >= t_bound:
            status = 0
        elif budget:
            status, reason = 1, "step_budget"
        while nodes[i_node] <= t_stop:
            i_node += 1
        if len(pending) >= _CHUNK * _STEP:
            _flush(dense, fun, pending, rows)

    if pending:
        _flush(dense, fun, pending, rows)
    sol = DenseOutput(np.frombuffer(t_ends), np.frombuffer(rows).reshape(-1, _ROW)) if rows else None
    if status == -1:
        out_t, out_y = np.array([t]), np.array(y).reshape(6, 1)
    elif t_eval is None:
        out_t = np.r_[t0, sol.t_ends[:-1], t_stop]
        end = np.array(y) if status == 0 else sol(t_stop)
        out_y = np.c_[sol.rows[:, 2:8].T, end]
    else:
        out_t = np.array(nodes[:i_node])
        if status == 1 and (out_t.size == 0 or out_t[-1] < t_stop):
            out_t = np.append(out_t, t_stop)
        out_y = sol(out_t)
    message = {0: "reached the end of the interval",
               1: f"stopped at t = {t_stop!r}: {reason}",
               -1: "required step size is less than spacing between numbers"}[status]
    return OdeResult(t=out_t, y=out_y, sol=sol if dense_output else None,
                     status=status, nfev=nfev, message=message, reason=reason,
                     steps=steps, rejected_steps=rejected, t_final=t_stop,
                     last_step=t - t_old if steps else 0.0)


@dataclass(frozen=True)
class Trajectory:
    """Sampled integration output with conserved-quantity traces."""

    times: np.ndarray                 # (N,)
    states: np.ndarray                # (N, 6)
    traces: dict                      # label -> (N,) values
    meta: dict = field(default_factory=dict)
    dense: Optional[DenseOutput] = None   # interpolant over [t0, t_final]
    aborted: bool = False

    def drift(self, label: str) -> float:
        """Max relative drift of one trace from its initial value."""
        tr = self.traces[label]
        scale = max(1.0, abs(float(tr[0])))
        return float(np.max(np.abs(tr - tr[0])) / scale)


@dataclass(frozen=True)
class PeriodReport:
    """Outcome of a phase-space return search."""

    closed: bool
    period: Optional[float]
    return_distance: float
    refinement_iterations: int = 0
    # The searched run's stop reason, RHS calls and accepted steps from
    # its ``meta``; None when there was no run.
    reason: Optional[str] = None
    nfev: Optional[int] = None
    steps: Optional[int] = None

    def as_dict(self) -> dict:
        return {
            "closed": self.closed,
            "period": self.period,
            "return_distance": self.return_distance,
            "refinement_iterations": self.refinement_iterations,
            "reason": self.reason,
            "nfev": self.nfev,
            "steps": self.steps,
        }


def _guard_events(spec: SystemSpec):
    """Stop events of a run, each named for the stop reason it gives.

    Each reads a state as a 6-sequence and falls through zero on
    entering its region.
    """
    events = []
    if "r" in spec.singular_in:
        def axis_guard(t, y):
            return math.hypot(y[0], y[1]) - GUARD_RADIUS
        events.append(axis_guard)
    if "z" in spec.singular_in:
        def plane_guard(t, y):
            return abs(y[2]) - GUARD_RADIUS
        events.append(plane_guard)

    # Several catalog potentials are unbounded below at large radius, so
    # some initial conditions escape with a finite-time blow-up that
    # would stall the adaptive stepper; stop such runs at a generous
    # amplitude bound instead.
    def escape(t, y):
        return ESCAPE_BOUND - max(map(abs, y))
    events.append(escape)
    return events


def _drift_event(spec: SystemSpec, y0, tol: float):
    """Stop event, named for its reason, of a run started at ``y0``.

    Falls through zero once |H - H0| > ``DRIFT_STOP * tol * max(1, |H0|)``.
    H runs its program of :func:`~axisym.trace.traced_value`, equal to
    ``spec.hamiltonian.fn`` bit for bit.
    """
    H = traced_value(spec.hamiltonian.fn)
    h0 = float(H(0.0, y0))
    limit = DRIFT_STOP * tol * max(1.0, abs(h0))

    def drift(t, y):
        return limit - abs(H(t, y) - h0)
    return drift


def _trace_all(spec: SystemSpec, states: np.ndarray) -> dict:
    """Evaluate H and every integral on an (N, 6) state block.

    Conserved combinations can involve large mutually-cancelling terms
    (growing like r^4 on unbounded orbits), so the observables are
    evaluated in extended precision to keep the evaluation roundoff
    below the drift being measured.  Each runs its program of
    :func:`~axisym.trace.traced_value` on the long-double columns, which
    gives the field's values bit for bit.
    """
    wide = np.asarray(states, dtype=np.longdouble)
    cols = [wide[:, i] for i in range(6)]
    out = {}
    for obs in spec.observables():
        program = traced_value(obs.fn)
        vals = np.asarray(value(program(0.0, cols)), dtype=float)
        out[obs.label or "H"] = np.broadcast_to(vals, (states.shape[0],)).copy()
    return out


def _output_nodes(t_end: float, dt_hint: Optional[float]) -> np.ndarray:
    dt = min(0.01, t_end / 200.0) if dt_hint is None else dt_hint
    n = max(2, int(np.ceil(t_end / dt)) + 1)
    return np.linspace(0.0, t_end, n)


def _sample_dense(dense: DenseOutput, t_end: float, t_final: float,
                  dt_out: Optional[float] = None):
    """Nodes and states of a dense run over [0, t_end].

    The output nodes of ``t_end`` are cut at the run's stop ``t_final``,
    which becomes the last node when the run stopped before ``t_end``.
    """
    t_stop = min(t_end, t_final)
    nodes = _output_nodes(t_end, dt_out)
    nodes = nodes[nodes <= t_stop]
    if nodes.size == 0 or nodes[-1] < t_stop:
        nodes = np.append(nodes, t_stop)
    return nodes, dense(nodes).T


def prefix(spec: SystemSpec, traj: Trajectory, t_end: float,
           traced: bool = True) -> Trajectory:
    """The part of a dense run ``traj`` of ``spec`` over [0, t_end].

    ``t_end`` may not pass the run's own ``meta["t_end"]``; at that
    horizon the part is the run's own nodes and states.  Otherwise the
    states at the default output nodes of ``t_end`` are read from the
    run's interpolant, so the result matches a separate
    :func:`integrate` to ``t_end`` at the run's tolerance on every node
    before that run's last step: the two runs take the same steps until
    the shorter one is clipped to its end.  A run that stopped before
    ``t_end`` gives an aborted prefix ending at its stop.  ``meta`` is
    the run's with ``t_end`` and ``t_final`` set for the prefix, and
    ``reason`` set to ``"completed"`` when the prefix ends before the
    run's stop; the work counters are the whole run's.  Unless
    ``traced`` is False the part carries the traces of H and the
    integrals at its nodes, evaluated here when the run has none for
    them (an untraced run, or a shorter horizon); a traced run is
    returned as it is at its own horizon.
    """
    run_end = traj.meta["t_end"]
    if t_end == run_end:
        part = traj
    elif not 0 < t_end < run_end:
        raise ValueError(f"t_end must lie in (0, {run_end!r}]")
    elif traj.dense is None:
        raise ValueError("a prefix needs a run with dense output")
    else:
        t_final = traj.meta["t_final"]
        nodes, states = _sample_dense(traj.dense, t_end, t_final)
        aborted = traj.aborted and t_final < t_end
        meta = {**traj.meta, "t_end": t_end, "t_final": min(t_end, t_final)}
        if not aborted:
            meta["reason"] = "completed"
        part = Trajectory(times=nodes, states=states, traces={}, meta=meta,
                          dense=traj.dense, aborted=aborted)
    if traced and not part.traces:
        part = replace(part, traces=_trace_all(spec, part.states))
    return part


def integrate(spec: SystemSpec, ic, t_end: float, tol: float = DEFAULT_TOL,
              dt_out: Optional[float] = None, dense: bool = True,
              max_steps: Optional[int] = None, traced: bool = True) -> Trajectory:
    """Integrate Hamilton's equations from one initial condition.

    Raises DomainError for a start in a guard region or with a component
    at or beyond ``ESCAPE_BOUND`` (or NaN).  Aborts cleanly
    (``aborted=True``, output truncated at the stop) if the state
    reaches the guard region of a singular term, passes the escape
    bound, lets H drift from its initial value by more than
    ``DRIFT_STOP * tol * max(1, |H0|)``, or takes ``max_steps`` (None
    or an integer >= 1) accepted steps; ``meta`` names the reason and
    records RHS calls, accepted and rejected steps, the size of the last
    accepted step and the wall time of the call (``wall_s``).  A field
    that cannot be traced raises TypeError naming its program's tag.
    Traces of H and all integrals are evaluated at the output nodes
    unless ``traced`` is False (an empty ``traces``): a dense run that
    only serves a period search and :func:`prefix` parts, which trace
    their own nodes, needs none.
    """
    start = time.perf_counter()
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise ValueError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}]")
    if not 0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    if dt_out is not None and not dt_out > 0:
        raise ValueError(f"dt_out must be positive, not {dt_out!r}")
    if max_steps is not None and not (isinstance(max_steps, numbers.Integral)
                                      and max_steps >= 1):
        raise ValueError(f"max_steps must be None or an integer >= 1, not {max_steps!r}")
    y0 = ic.state if isinstance(ic, PhasePoint) else np.asarray(ic, dtype=float)
    y0 = tuple(y0.tolist())
    _check_guard(spec, y0)
    if not all(abs(v) < ESCAPE_BOUND for v in y0):
        # The escape event stops a run only where it crosses the bound.
        raise DomainError(f"initial state at or beyond the escape bound ({ESCAPE_BOUND:g})")

    rhs = _make_scalar_rhs(spec)

    events = [*_guard_events(spec), _drift_event(spec, y0, tol)]
    # Dense output costs three extra stages per step; skip it when the
    # caller only needs the sampled nodes (e.g. drift monitoring).
    sol = solve_ivp(rhs, (0.0, t_end), y0, rtol=tol, atol=tol,
                    dense_output=dense,
                    t_eval=None if dense else _output_nodes(t_end, dt_out),
                    events=events, max_steps=max_steps)
    if sol.status == -1:
        raise RuntimeError(f"integration failed: {sol.message}")
    t_final = sol.t_final
    if dense:
        nodes, states = _sample_dense(sol.sol, t_end, t_final, dt_out)
    else:
        nodes, states = sol.t, sol.y.T
    traces = _trace_all(spec, states) if traced else {}
    meta = {
        "system_id": spec.system_id,
        "params": spec.params.as_dict(),
        "tol": tol,
        "t_end": t_end,
        "t_final": t_final,
        "reason": sol.reason,
        "nfev": sol.nfev,
        "steps": sol.steps,
        "rejected_steps": sol.rejected_steps,
        "last_step": sol.last_step,
    }
    meta["wall_s"] = time.perf_counter() - start
    return Trajectory(times=nodes, states=states, traces=traces, meta=meta,
                      dense=sol.sol, aborted=sol.status == 1)


def conservation_suite(spec: SystemSpec, n_ic: int = 20, t_end: float = 50.0,
                       tol: float = DEFAULT_TOL, seed: Optional[int] = None,
                       rng: Optional[np.random.Generator] = None) -> dict:
    """Worst relative drift of each conserved trace over random runs.

    Draws random states from the safe box until ``n_ic`` trajectories
    (an integer >= 1, else ValueError) complete; aborted runs are
    discarded and redrawn.  Runs that approach a singular set are
    aborted, since conservation is only claimed on the regular domain,
    and so are runaways, which stop on the step budget or on the H drift
    bound (``"drift"``).  A drift stop counts as a runaway only if, at
    its last step size, the run could not have reached ``t_end`` within
    the step budget; H drifting on a run that could have completed is a
    failure of conservation and raises RuntimeError.
    With neither ``rng`` nor ``seed`` the draws come from ``make_rng()``
    (``DEFAULT_SEED``), as in ``verify_system``.  Returns label -> max
    drift, plus an ``"attempts"`` entry counting total draws.
    """
    from .phase import make_rng, sample_safe_states

    if not (isinstance(n_ic, numbers.Integral) and n_ic >= 1):
        raise ValueError(f"n_ic must be an integer >= 1, not {n_ic!r}")
    if rng is None:
        rng = make_rng() if seed is None else make_rng(seed)
    drifts: dict = {}
    completed = 0
    attempts = 0
    max_attempts = 20 * n_ic
    while completed < n_ic:
        attempts += 1
        if attempts > max_attempts:
            raise RuntimeError(
                f"could not find {n_ic} non-singular trajectories in "
                f"{max_attempts} draws")
        state = sample_safe_states(rng, 1)[:, 0]
        try:
            traj = integrate(spec, state, t_end, tol=tol, dense=False,
                             dt_out=t_end / 200.0, max_steps=STEP_BUDGET)
        except DomainError:
            continue
        if traj.aborted:
            meta = traj.meta
            if meta["reason"] == "drift":
                # Steps the run would have taken to t_end at its last pace.
                pace = meta["steps"] + (t_end - meta["t_final"]) / meta["last_step"]
                if pace <= STEP_BUDGET:
                    raise RuntimeError(
                        f"H drifted past the drift stop at t = {meta['t_final']:.6g} "
                        f"on a run that was not running away (last step "
                        f"{meta['last_step']:.3g}, {pace:.0f} steps to t_end)")
            continue
        completed += 1
        for lbl in traj.traces:
            drift = traj.drift(lbl)
            if not math.isfinite(drift):
                # max() would keep the earlier value over a NaN.
                raise RuntimeError(
                    f"the {lbl} trace of a completed run is not finite "
                    f"(drift {drift})")
            drifts[lbl] = max(drifts.get(lbl, 0.0), drift)
    drifts["attempts"] = attempts
    return drifts


def reverse_momenta(spec: SystemSpec, point) -> PhasePoint:
    """Time-reversal partner of a state: kinetic momentum is negated.

    With a vector potential the canonical map is p -> -p - 2 A(q), so
    that p + A flips sign while the position is unchanged.
    """
    pt = point if isinstance(point, PhasePoint) else PhasePoint.from_state(point)
    a = np.asarray([float(value(c)) for c in spec.A(pt.q)])
    return PhasePoint(pt.q, -pt.p - 2.0 * a)


def _radial_period_estimate(times: np.ndarray, states: np.ndarray) -> Optional[float]:
    """Dominant period of r(t)^2 from its mean-crossing intervals."""
    r2 = states[:, 0] ** 2 + states[:, 1] ** 2
    sig = r2 - np.mean(r2)
    signs = np.sign(sig)
    idx = np.nonzero(np.diff(signs) != 0)[0]
    if idx.size < 3:
        return None
    # Linearly interpolate each crossing between its bracketing samples.
    frac = sig[idx] / (sig[idx] - sig[idx + 1])
    crossings = times[idx] + frac * (times[idx + 1] - times[idx])
    # Two crossings per period.
    return 2.0 * float(np.mean(np.diff(crossings)))


def radial_frequency(spec: SystemSpec, ic, horizon: float = 40.0,
                     tol: float = 1e-12) -> Optional[float]:
    """Empirical angular frequency of r^2 oscillation, 2*pi / period.

    Public API, although only the tests call it: acceptance criterion 7
    measures the closed forms' radial frequency nu with it, so moving it
    into the tests would shorten nothing.
    """
    traj = integrate(spec, ic, horizon, tol=tol)
    period = _radial_period_estimate(traj.times, traj.states)
    return None if period is None else 2.0 * np.pi / period


def _fminbound(func, a, b, xatol):
    """Minimum of ``func`` on [a, b] by Brent's bounded search (Brent 1973, ch. 5).

    Golden-section steps with parabolic interpolation: a port of scipy's
    ``minimize_scalar(method="bounded")``
    (``scipy.optimize._optimize._minimize_scalar_bounded``, at most 500
    evaluations), statement by statement, so it makes the same calls and
    returns the same result.  Returns ``(x, func(x), evaluations)``.
    """
    maxfun = 500
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = float(a), float(b)
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        # Check for parabolic fit
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat

            # Check for acceptability of parabola
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (-1.0 if xm - xf < 0 else 1.0)
            else:      # do a golden-section step
                golden = True

        if golden:  # do a golden-section step
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e

        # scipy's np.sign(rat) + (rat == 0): the sign, with +1 at zero
        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxfun:
            break
    return xf, fx, num


def detect_period(spec: SystemSpec, ic, horizon: float,
                  tol_return: float = 1e-4, tol: float = 1e-12) -> PeriodReport:
    """Integrate an orbit to ``horizon`` and search it for a full return.

    One dense run at ``tol``, as :func:`integrate` makes it but without
    the traces of H and the integrals, which the search never reads,
    followed by :func:`search_period`; a start in a singular region or a
    failed integration gives an open report with an infinite return
    distance and no run fields.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    try:
        traj = integrate(spec, ic, horizon, tol, traced=False)
    except (DomainError, RuntimeError):
        return PeriodReport(closed=False, period=None,
                            return_distance=float("inf"))
    return search_period(traj, tol_return)


def search_period(traj: Trajectory, tol_return: float = 1e-4) -> PeriodReport:
    """Search a dense trajectory for a full 6D phase-space return.

    Near-returns are detected on the dense output (distance relative to
    the trajectory diameter), after skipping a transient window of 10%
    of the radial period, or of 5% of the horizon ``traj.meta["t_end"]``
    when the orbit shows no radial period; the first candidate below
    ``tol_return`` is polished to a local minimum of the return
    distance.  An aborted or non-finite run is open, with an infinite
    return distance.  The report records the run's ``reason``, ``nfev``
    and ``steps`` from ``traj.meta``.
    """
    run = {k: traj.meta.get(k) for k in ("reason", "nfev", "steps")}
    if traj.aborted or not np.all(np.isfinite(traj.states)):
        return PeriodReport(closed=False, period=None,
                            return_distance=float("inf"), **run)
    y0 = traj.states[0]
    diameter = float(np.linalg.norm(
        np.max(traj.states, axis=0) - np.min(traj.states, axis=0)))
    scale = max(diameter, 1e-12)

    period_est = _radial_period_estimate(traj.times, traj.states)
    t_min = 0.1 * period_est if period_est else 0.05 * traj.meta["t_end"]

    dense = traj.dense
    ts = traj.times
    dist = np.linalg.norm(traj.states - y0, axis=1) / scale
    mask = ts > t_min
    if not np.any(mask):
        return PeriodReport(closed=False, period=None,
                            return_distance=float(np.min(dist[1:])) if dist.size > 1 else float("inf"),
                            **run)

    def d_of(t):
        return float(np.linalg.norm(dense(t) - y0)) / scale

    # Local minima of the sampled distance, in time order.
    mid = dist[1:-1]
    cand = (1 + np.flatnonzero(mask[1:-1] & (mid <= dist[:-2]) & (mid <= dist[2:]))).tolist()
    best_d = float(np.min(dist[mask]))
    # Sampling can overshoot a narrow distance dip by orders of
    # magnitude, so polish every plausibly-deep local minimum.
    refine_cut = max(100.0 * tol_return, 0.05)
    for i in cand:
        if dist[i] > refine_cut:
            continue
        x, d_ref, evals = _fminbound(d_of, ts[max(i - 1, 0)],
                                     ts[min(i + 1, ts.size - 1)], xatol=1e-12)
        best_d = min(best_d, d_ref)
        if d_ref < tol_return:
            return PeriodReport(closed=True, period=x, return_distance=d_ref,
                                refinement_iterations=evals, **run)
    return PeriodReport(closed=False, period=None, return_distance=best_d, **run)
