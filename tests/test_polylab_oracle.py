"""polylab's Bernoulli numbers and Newton interpolant checked against sympy."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqftdims.polylab import bernoulli, newton_coeffs

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")


def _fraction(q):
    q = sympy.Rational(q)
    return Fraction(int(q.p), int(q.q))


def test_bernoulli_matches_sympy():
    for k in range(61):
        expected = _fraction(sympy.bernoulli(k))
        if k == 1:
            # sympy's B_1 is +1/2 (the t e^t/(e^t - 1) convention); polylab
            # uses t/(e^t - 1), whose B_1 is -1/2.  All other B_k agree.
            expected = -expected
        assert bernoulli(k) == expected, k


@given(
    xs=st.lists(st.integers(-30, 30), min_size=1, max_size=7, unique=True),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_newton_matches_sympy_interpolate(xs, data):
    ys = data.draw(st.lists(st.integers(-50, 50), min_size=len(xs), max_size=len(xs)))
    poly = sympy.Poly(sympy.interpolate(list(zip(xs, ys)), X), X, domain=sympy.QQ)
    expected = [_fraction(q) for q in reversed(poly.all_coeffs())]
    expected += [Fraction(0)] * (len(xs) - len(expected))
    assert newton_coeffs(xs, ys) == expected
