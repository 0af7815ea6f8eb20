"""Dual-number forward-mode derivatives against finite-difference oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axisym import autodiff as ad
from axisym.autodiff import Dual


def central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


FUNCS = [
    (ad.sqrt, 0.3, 4.0),
    (ad.exp, -2.0, 2.0),
    (ad.log, 0.2, 5.0),
    (ad.sin, -3.0, 3.0),
    (ad.cos, -3.0, 3.0),
    (ad.tan, -1.2, 1.2),
    (ad.sinh, -2.0, 2.0),
    (ad.cosh, -2.0, 2.0),
    (ad.atan, -4.0, 4.0),
    (ad.asin, -0.9, 0.9),
    (ad.acos, -0.9, 0.9),
    (ad.asinh, -3.0, 3.0),
]


@pytest.mark.parametrize("fn,lo,hi", FUNCS, ids=lambda v: getattr(v, "__name__", ""))
def test_elementary_derivatives_match_finite_differences(fn, lo, hi):
    for x in np.linspace(lo, hi, 11):
        d = ad.tangent(fn(Dual(float(x), 1.0)))
        fd = central_diff(fn, float(x))
        assert d == pytest.approx(fd, rel=1e-7, abs=1e-7)


@given(st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=50, deadline=None)
def test_arithmetic_product_and_chain_rule(a, b):
    x = Dual(a, 1.0)
    f = (x * x + 2.0 * x - 1.0) * ad.cos(x) + b / (x * x + 1.0)
    expected = ((2.0 * a + 2.0) * math.cos(a)
                - (a * a + 2.0 * a - 1.0) * math.sin(a)
                - 2.0 * a * b / (a * a + 1.0) ** 2)
    assert ad.tangent(f) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_division_and_rdiv():
    x = Dual(2.0, 1.0)
    assert ad.tangent(1.0 / x) == pytest.approx(-0.25)
    assert ad.tangent(x / 4.0) == pytest.approx(0.25)
    y = Dual(3.0, 1.0)
    # Same seed on numerator and denominator: d(x/y) = (y - x) / y^2.
    assert ad.tangent(x / y) == pytest.approx(1.0 / 9.0, rel=1e-12)


class _Powers(float):
    """A float leaf that records each exponent it is raised to."""

    def __new__(cls, v, seen):
        self = super().__new__(cls, v)
        self.seen = seen
        return self

    def __pow__(self, n):
        self.seen.append(n)
        return _Powers(float(self) ** n, self.seen)

    def __mul__(self, other):
        return _Powers(float(self) * other, self.seen)

    __rmul__ = __mul__


def test_power_integer_and_dual_exponent():
    x = Dual(1.7, 1.0)
    assert ad.tangent(x ** 3) == pytest.approx(3 * 1.7 ** 2, rel=1e-12)
    assert ad.tangent(x ** -2) == pytest.approx(-2 * 1.7 ** -3, rel=1e-12)
    e = Dual(2.0, 1.0)
    # d/dt (t^t) = t^t (ln t + 1)
    assert ad.tangent(e ** e) == pytest.approx(4.0 * (math.log(2.0) + 1.0), rel=1e-12)
    # The tangent of v ** 2 is (2 * re) * im: the leaf is squared once and
    # raised to no other power, on floats and on long-double rows alike.
    seen = []
    sq = Dual(_Powers(1.7, seen), 0.5) ** 2
    assert seen == [2]
    assert (ad.value(sq), ad.tangent(sq)) == (1.7 ** 2, 2 * 1.7 * 0.5)
    rows = np.linspace(0.5, 2.0, 9, dtype=np.longdouble)
    sq = Dual(rows, rows[::-1]) ** 2
    assert np.array_equal(ad.tangent(sq), (2 * rows) * rows[::-1])
    assert np.array_equal(ad.value(sq), rows ** 2)


def test_nested_duals_give_second_derivatives():
    # f(x) = sin(x) * x^2; f'' = 2 sin x + 4x cos x - x^2 sin x
    x0 = 0.8
    x = Dual(Dual(x0, 1.0), Dual(1.0, 0.0))
    f = ad.sin(x) * x * x
    f2 = ad.tangent(ad.tangent(f))
    expected = (2.0 * math.sin(x0) + 4.0 * x0 * math.cos(x0)
                - x0 * x0 * math.sin(x0))
    assert f2 == pytest.approx(expected, rel=1e-12)


def test_array_leaves_vectorize():
    xs = np.linspace(0.5, 2.0, 7)
    d = ad.tangent(ad.log(Dual(xs, np.ones_like(xs))))
    assert np.allclose(d, 1.0 / xs, rtol=1e-14)


def test_atan2_matches_atan_derivative():
    y, x = 1.3, 0.7
    dy = ad.tangent(ad.atan2(Dual(y, 1.0), x))
    dx = ad.tangent(ad.atan2(y, Dual(x, 1.0)))
    r2 = x * x + y * y
    assert dy == pytest.approx(x / r2, rel=1e-12)
    assert dx == pytest.approx(-y / r2, rel=1e-12)


def test_floor_is_locally_constant():
    assert ad.floor(Dual(2.7, 1.0)) == 2
    assert ad.tangent(ad.atan(Dual(0.5, 1.0)) + ad.floor(Dual(2.7, 1.0))) == \
        pytest.approx(1.0 / 1.25)


def test_comparisons_use_primal_value():
    assert Dual(1.0, 99.0) < Dual(2.0, -99.0)
    assert Dual(3.0, 0.0) > 2.5
    assert abs(Dual(-2.0, 1.0)).re == 2.0


def test_abs_of_a_dual_row_is_abs_of_each_entry():
    re = np.array([-2.0, 3.0, -0.0, 0.0, -1e-300, 5.5])
    im = np.array([1.0, -4.0, 2.0, -3.0, 7.0, 0.5])
    row = abs(Dual(re, im))
    for i in range(re.size):
        want = abs(Dual(re[i], im[i]))
        assert np.signbit(row.re[i]) == np.signbit(want.re)
        assert row.re[i] == want.re and row.im[i] == want.im


def test_derivative_and_partial_helpers():
    f = lambda x: x * x * x
    assert ad.derivative(f, 2.0) == pytest.approx(12.0)
    g = lambda x, y: x * y + y * y
    assert ad.partial(g, (3.0, 4.0), 0) == pytest.approx(4.0)
    assert ad.partial(g, (3.0, 4.0), 1) == pytest.approx(11.0)


def test_seeded_yields_one_unit_seed_per_argument():
    args = (3.0, np.array([1.0, 2.0]), Dual(4.0, 5.0))
    lists = list(ad.seeded(args))
    assert len(lists) == len(args)
    for i, s in enumerate(lists):
        assert isinstance(s, list) and len(s) == len(args)
        for j, v in enumerate(s):
            if i == j:
                assert isinstance(v, Dual) and v.re is args[j] and v.im == 1.0
            else:
                assert v is args[j]
    assert args[0] == 3.0 and args[2].re == 4.0 and args[2].im == 5.0
    state = [0.5, 1.5]
    for s in ad.seeded(state):
        s[0] = None
    assert state == [0.5, 1.5]
