"""Forward-mode automatic differentiation with dual numbers.

Every scalar field in this package is written against the generic math
functions below, so the same code path evaluates on plain floats, numpy
arrays (vectorized over sample points) and ``Dual`` values.  Nesting
``Dual`` inside ``Dual`` yields exact second derivatives.  Finite
differences are used only as a test oracle, never in production code.

The differentiation rules are written here only: :func:`_unary` builds
each one-argument function from its ufunc, ``math`` function and
tangent rule, :data:`FUNCTIONS` is the ufunc -> ``math`` table that
:mod:`axisym.trace` binds traced code to, and :func:`seeded` seeds one
argument at a time for partial derivatives.
"""

from __future__ import annotations

import math

import numpy as np


class Dual:
    """Number of the form ``re + im*eps`` with ``eps**2 == 0``.

    ``re`` and ``im`` may be floats, numpy arrays, or further ``Dual``
    instances (for higher derivatives).
    """

    __slots__ = ("re", "im")
    # Keep numpy from broadcasting over us elementwise; binary ops then
    # fall back to our reflected methods.
    __array_ufunc__ = None

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def __repr__(self):
        return f"Dual({self.re!r}, {self.im!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re + other.re, self.im + other.im)
        return Dual(self.re + other, self.im)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re - other.re, self.im - other.im)
        return Dual(self.re - other, self.im)

    def __rsub__(self, other):
        return Dual(other - self.re, -self.im)

    def __neg__(self):
        return Dual(-self.re, -self.im)

    def __pos__(self):
        return self

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re * other.re,
                        self.re * other.im + self.im * other.re)
        return Dual(self.re * other, self.im * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.re
            return Dual(self.re * inv,
                        (self.im - self.re * inv * other.im) * inv)
        return Dual(self.re / other, self.im / other)

    def __rtruediv__(self, other):
        inv = 1.0 / self.re
        return Dual(other * inv, -other * inv * inv * self.im)

    def __pow__(self, n):
        if isinstance(n, Dual):
            return exp(n * log(self))
        if n == 0:
            return Dual(self.re ** 0, 0.0 * self.im)
        if n == 2:
            # ``re ** 1`` is re, but numpy has no long-double fast path
            # for it: per 4096 columns on a 2-CPU Xeon VM, ``2 * re ** 1
            # * im`` took 140 us and ``2 * re * im`` 34 us.
            return Dual(self.re ** 2, n * self.re * self.im)
        return Dual(self.re ** n, n * self.re ** (n - 1) * self.im)

    def __abs__(self):
        # Sign selection; not differentiable at 0.
        v = value(self)
        if isinstance(v, np.ndarray):
            return self * np.where(v < 0, -1.0, 1.0)
        return -self if v < 0 else self

    # Comparisons act on the primal value so that branch selection in
    # generic code follows the undifferentiated control flow.
    def __lt__(self, other):
        return value(self) < value(other)

    def __le__(self, other):
        return value(self) <= value(other)

    def __gt__(self, other):
        return value(self) > value(other)

    def __ge__(self, other):
        return value(self) >= value(other)

    def __float__(self):
        return float(value(self))


def value(v):
    """Strip all dual layers, returning the underlying leaf value."""
    while isinstance(v, Dual):
        v = v.re
    return v


def tangent(v):
    """Dual part of ``v``; zero for non-dual leaves."""
    return v.im if isinstance(v, Dual) else 0.0


def _parts(v):
    if isinstance(v, Dual):
        return v.re, v.im
    return v, 0.0


# The leaves on which the functions below call ``math``; on any other
# leaf (arrays, numpy scalars, traced values) they call the numpy ufunc.
_MATH_LEAVES = (float, int)
# Ufunc -> the math function called in its place on those leaves, for
# every function below (:func:`_unary` adds the one-argument ones).
FUNCTIONS: dict = {np.arctan2: math.atan2, np.floor: math.floor}


def _unary(ufunc, on_floats, rule):
    """``ufunc`` on every leaf and on duals, whose tangent is ``rule(x, f(x), dx)``."""
    def f(v):
        if isinstance(v, Dual):
            fx = f(v.re)
            return Dual(fx, rule(v.re, fx, v.im))
        if isinstance(v, _MATH_LEAVES):
            return on_floats(v)
        return ufunc(v)

    f.__name__ = f.__qualname__ = on_floats.__name__
    FUNCTIONS[ufunc] = on_floats
    return f


sqrt = _unary(np.sqrt, math.sqrt, lambda x, fx, dx: dx / (2.0 * fx))
exp = _unary(np.exp, math.exp, lambda x, fx, dx: fx * dx)
log = _unary(np.log, math.log, lambda x, fx, dx: dx / x)
sin = _unary(np.sin, math.sin, lambda x, fx, dx: cos(x) * dx)
cos = _unary(np.cos, math.cos, lambda x, fx, dx: -sin(x) * dx)


def _tan_rule(x, fx, dx):
    c = cos(x)
    return dx / (c * c)


tan = _unary(np.tan, math.tan, _tan_rule)
sinh = _unary(np.sinh, math.sinh, lambda x, fx, dx: cosh(x) * dx)
cosh = _unary(np.cosh, math.cosh, lambda x, fx, dx: sinh(x) * dx)
atan = _unary(np.arctan, math.atan, lambda x, fx, dx: dx / (1.0 + x * x))
asin = _unary(np.arcsin, math.asin, lambda x, fx, dx: dx / sqrt(1.0 - x * x))
acos = _unary(np.arccos, math.acos, lambda x, fx, dx: -dx / sqrt(1.0 - x * x))
asinh = _unary(np.arcsinh, math.asinh, lambda x, fx, dx: dx / sqrt(x * x + 1.0))


def atan2(y, x):
    if isinstance(y, Dual) or isinstance(x, Dual):
        yre, yim = _parts(y)
        xre, xim = _parts(x)
        denom = xre * xre + yre * yre
        return Dual(atan2(yre, xre), (xre * yim - yre * xim) / denom)
    if isinstance(y, _MATH_LEAVES) and isinstance(x, _MATH_LEAVES):
        return math.atan2(y, x)
    return np.arctan2(y, x)


def floor(v):
    """Floor of the primal value, treated as a locally constant."""
    v = value(v)
    if isinstance(v, _MATH_LEAVES):
        return math.floor(v)
    return np.floor(v)


def derivative(f, x):
    """d f / d x at a scalar (or array) point via one dual evaluation."""
    return tangent(f(Dual(x, 1.0)))


def seeded(args):
    """Yield, for each i, a new list of ``args`` with a unit dual on
    argument i; ``args`` itself is not changed."""
    for i, v in enumerate(args):
        out = list(args)
        out[i] = Dual(v, 1.0)
        yield out


def partial(f, args, i):
    """Partial derivative of ``f(*args)`` with respect to argument ``i``."""
    return tangent(f(*list(seeded(args))[i]))
