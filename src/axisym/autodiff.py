"""Forward-mode automatic differentiation with dual numbers.

Every scalar field in this package is written against the generic math
functions below, so the same code path evaluates on plain floats, numpy
arrays (vectorized over sample points), complex numbers, and ``Dual``
values.  Nesting ``Dual`` inside ``Dual`` yields exact second derivatives.
Finite differences are used only as a test oracle, never in production
code.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


class Dual:
    """Number of the form ``re + im*eps`` with ``eps**2 == 0``.

    ``re`` and ``im`` may be floats, complex numbers, numpy arrays, or
    further ``Dual`` instances (for higher derivatives).
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
        return Dual(self.re ** n, n * self.re ** (n - 1) * self.im)

    def __abs__(self):
        # Real-valued use only (sign selection); not differentiable at 0.
        v = value(self)
        if isinstance(v, np.ndarray):
            return self * np.where(np.real(v) < 0, -1.0, 1.0)
        return -self if v.real < 0 else self

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


def sqrt(v):
    if isinstance(v, Dual):
        r = sqrt(v.re)
        return Dual(r, v.im / (2.0 * r))
    if isinstance(v, complex):
        return cmath.sqrt(v)
    if isinstance(v, (float, int)):
        return math.sqrt(v)
    return np.sqrt(v)


def exp(v):
    if isinstance(v, Dual):
        e = exp(v.re)
        return Dual(e, e * v.im)
    if isinstance(v, complex):
        return cmath.exp(v)
    if isinstance(v, (float, int)):
        return math.exp(v)
    return np.exp(v)


def log(v):
    if isinstance(v, Dual):
        return Dual(log(v.re), v.im / v.re)
    if isinstance(v, complex):
        return cmath.log(v)
    if isinstance(v, (float, int)):
        return math.log(v)
    return np.log(v)


def sin(v):
    if isinstance(v, Dual):
        return Dual(sin(v.re), cos(v.re) * v.im)
    if isinstance(v, (float, int)):
        return math.sin(v)
    return np.sin(v)


def cos(v):
    if isinstance(v, Dual):
        return Dual(cos(v.re), -sin(v.re) * v.im)
    if isinstance(v, (float, int)):
        return math.cos(v)
    return np.cos(v)


def tan(v):
    if isinstance(v, Dual):
        c = cos(v.re)
        return Dual(tan(v.re), v.im / (c * c))
    if isinstance(v, (float, int)):
        return math.tan(v)
    return np.tan(v)


def sinh(v):
    if isinstance(v, Dual):
        return Dual(sinh(v.re), cosh(v.re) * v.im)
    if isinstance(v, (float, int)):
        return math.sinh(v)
    return np.sinh(v)


def cosh(v):
    if isinstance(v, Dual):
        return Dual(cosh(v.re), sinh(v.re) * v.im)
    if isinstance(v, (float, int)):
        return math.cosh(v)
    return np.cosh(v)


def atan(v):
    if isinstance(v, Dual):
        return Dual(atan(v.re), v.im / (1.0 + v.re * v.re))
    if isinstance(v, (float, int)):
        return math.atan(v)
    return np.arctan(v)


def asin(v):
    if isinstance(v, Dual):
        return Dual(asin(v.re), v.im / sqrt(1.0 - v.re * v.re))
    if isinstance(v, (float, int)):
        return math.asin(v)
    return np.arcsin(v)


def acos(v):
    if isinstance(v, Dual):
        return Dual(acos(v.re), -v.im / sqrt(1.0 - v.re * v.re))
    if isinstance(v, (float, int)):
        return math.acos(v)
    return np.arccos(v)


def asinh(v):
    if isinstance(v, Dual):
        return Dual(asinh(v.re), v.im / sqrt(v.re * v.re + 1.0))
    if isinstance(v, (float, int)):
        return math.asinh(v)
    return np.arcsinh(v)


def atan2(y, x):
    if isinstance(y, Dual) or isinstance(x, Dual):
        yre, yim = _parts(y)
        xre, xim = _parts(x)
        denom = xre * xre + yre * yre
        return Dual(atan2(yre, xre), (xre * yim - yre * xim) / denom)
    if isinstance(y, (float, int)) and isinstance(x, (float, int)):
        return math.atan2(y, x)
    return np.arctan2(y, x)


def floor(v):
    """Floor of the primal value, treated as a locally constant."""
    v = value(v)
    if isinstance(v, (float, int)):
        return math.floor(v)
    return np.floor(v)


def real(v):
    """Real part, recursing through dual layers (complex-step safe)."""
    if isinstance(v, Dual):
        return Dual(real(v.re), real(v.im))
    if isinstance(v, complex):
        return v.real
    if isinstance(v, np.ndarray):
        return v.real
    return v


def imag(v):
    if isinstance(v, Dual):
        return Dual(imag(v.re), imag(v.im))
    if isinstance(v, complex):
        return v.imag
    if isinstance(v, np.ndarray):
        return v.imag
    return 0.0 * v


def derivative(f, x):
    """d f / d x at a scalar (or array) point via one dual evaluation."""
    return tangent(f(Dual(x, 1.0)))


def partial(f, args, i):
    """Partial derivative of ``f(*args)`` with respect to argument ``i``."""
    seeded = list(args)
    seeded[i] = Dual(seeded[i], 1.0)
    return tangent(f(*seeded))
