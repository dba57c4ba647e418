"""polylab's Bernoulli numbers, Lagrange interpolation basis and residue
polynomial checked against sympy."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqftdims.polylab import _lagrange_rows, bernoulli, residue_total_poly

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
    # the interpolant's x^k coefficient is sum_m y_m L[k][m] / W
    rows, w = _lagrange_rows(xs)
    assert [Fraction(sum(y * l for y, l in zip(ys, row)), w) for row in rows] == expected


T, U, P, C = sympy.symbols("t u P C")


def _maclaurin(expr, var, n):
    """expr's Maclaurin polynomial in var, through var^(n-1)."""
    return sympy.series(expr, var, 0, n).removeO()


@pytest.mark.parametrize("g", [2, 3, 4])
def test_residue_total_poly_matches_sympy_series(g):
    # R is the t^(2g-2) coefficient of the product of 2Pt/(e^(2Pt)-1),
    # sinh(u)/u at u = (2C+1)t and (t/sinh t)^(2g-1).  sympy expands each
    # factor in one variable, so no Bernoulli number or power recurrence of
    # polylab enters.
    n = 2 * g - 1
    bern = _maclaurin(U / (sympy.exp(U) - 1), U, n).subs(U, 2 * P * T)
    odd = _maclaurin(sympy.sinh(U) / U, U, n).subs(U, (2 * C + 1) * T)
    h = _maclaurin((T / sympy.sinh(T)) ** (2 * g - 1), T, n)
    res = sympy.expand(bern * odd * h).coeff(T, 2 * g - 2)
    want = sympy.Rational((-1) ** g, 2) * (
        (2 * C + 1) * P ** (g - 1) * res / 4 ** (g - 1)
        - P**g * sympy.expand_func(sympy.binomial(C + g - 1, 2 * g - 2))
    )
    expected = {ij: _fraction(q) for ij, q in sympy.Poly(sympy.expand(want), P, C).terms()}
    assert residue_total_poly(g).monomials() == expected
