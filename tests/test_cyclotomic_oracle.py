"""The integer CycNum core checked against sympy's polynomial arithmetic
modulo the p-th cyclotomic polynomial, on elements with Fraction coordinates."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqftdims.cyclotomic import CycNum, inv

sympy = pytest.importorskip("sympy")

PRIMES = (5, 7, 11, 13)
T = sympy.Symbol("t")


def _coords(p):
    frac = st.fractions(min_value=-6, max_value=6, max_denominator=6)
    return st.lists(frac, min_size=0, max_size=p)


@st.composite
def _pairs(draw):
    """An order p and two coordinate lists of length <= p for it."""
    p = draw(st.sampled_from(PRIMES))
    return p, draw(_coords(p)), draw(_coords(p))


def _phi(p):
    return sympy.Poly(sympy.cyclotomic_poly(p, T), T, domain=sympy.QQ)


def _poly(coords):
    terms = [sympy.Rational(c.numerator, c.denominator) * T**i for i, c in enumerate(coords)]
    return sympy.Poly(sum(terms, sympy.Integer(0)), T, domain=sympy.QQ)


def _reduced_coords(poly, p):
    """Coordinates over 1, t, ..., t^(p-2) of a polynomial of degree < p-1."""
    out = [Fraction(0)] * (p - 1)
    for (k,), c in poly.terms():
        out[k] = Fraction(int(c.p), int(c.q))
    return tuple(out)


def _assert_normalised(x):
    assert x.den > 0
    assert math.gcd(x.den, *x.num) == 1
    if not x:
        assert x.den == 1
    assert x.coeffs == tuple(Fraction(a, x.den) for a in x.num)


@given(data=_pairs())
@settings(max_examples=60, deadline=None)
def test_product_matches_sympy_reduction(data):
    p, xs, ys = data
    x, y = CycNum(p, xs), CycNum(p, ys)
    want = (_poly(xs) * _poly(ys)).rem(_phi(p))
    assert (x * y).coeffs == _reduced_coords(want, p)
    assert x.coeffs == _reduced_coords(_poly(xs).rem(_phi(p)), p)


@given(data=_pairs())
@settings(max_examples=60, deadline=None)
def test_inverse_matches_sympy_invert(data):
    p, xs, _ = data
    x = CycNum(p, xs)
    if not x:
        with pytest.raises(ZeroDivisionError):
            inv(x)
        return
    ix = inv(x)
    assert x * ix == 1
    want = sympy.invert(_poly(xs), _phi(p))
    assert ix.coeffs == _reduced_coords(want, p)


@given(data=_pairs())
@settings(max_examples=60, deadline=None)
def test_coordinates_stay_normalised(data):
    p, xs, ys = data
    x, y = CycNum(p, xs), CycNum(p, ys)
    for z in (x, y, x + y, x - y, x * y, -x, x - x, CycNum.scalar(p, Fraction(4, 6))):
        _assert_normalised(z)
    if x:
        _assert_normalised(inv(x))
