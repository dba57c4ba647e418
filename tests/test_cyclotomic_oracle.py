"""The integer CycNum core checked against sympy's polynomial arithmetic
modulo the p-th cyclotomic polynomial."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tqftdims import cyclotomic
from tqftdims.cyclotomic import CycNum, _int_mul, galois

sympy = pytest.importorskip("sympy")

PRIMES = (5, 7, 11, 13)
T = sympy.Symbol("t")


def _coords(p):
    return st.lists(st.integers(-6, 6), min_size=0, max_size=p)


@st.composite
def _pairs(draw):
    """An order p and two coordinate lists of length <= p for it."""
    p = draw(st.sampled_from(PRIMES))
    return p, draw(_coords(p)), draw(_coords(p))


def _phi(p):
    return sympy.Poly(sympy.cyclotomic_poly(p, T), T, domain=sympy.QQ)


def _poly(coords):
    terms = [sympy.Integer(c) * T**i for i, c in enumerate(coords)]
    return sympy.Poly(sum(terms, sympy.Integer(0)), T, domain=sympy.QQ)


def _reduced_coords(poly, p):
    """Coordinates over 1, t, ..., t^(p-2) of a polynomial of degree < p-1."""
    out = [Fraction(0)] * (p - 1)
    for (k,), c in poly.terms():
        out[k] = Fraction(int(c.p), int(c.q))
    return tuple(out)


def _assert_normalised(x):
    """p - 1 int coordinates, equal to those the constructor folds them to."""
    assert len(x.num) == x.p - 1
    assert all(type(a) is int for a in x.num)
    assert CycNum(x.p, x.num).num == x.num


@given(data=_pairs())
@settings(max_examples=60, deadline=None)
def test_product_matches_sympy_reduction(data):
    p, xs, ys = data
    x, y = CycNum(p, xs), CycNum(p, ys)
    want = (_poly(xs) * _poly(ys)).rem(_phi(p))
    assert (x * y).num == _reduced_coords(want, p)
    assert x.num == _reduced_coords(_poly(xs).rem(_phi(p)), p)


def _sparse_coords(p):
    """p integer coordinates, all zero or with one nonzero monomial."""
    monomial = st.tuples(st.integers(0, p - 1), st.integers(-6, 6).filter(bool))
    return st.one_of(
        st.just([0] * p),
        monomial.map(lambda kc: [kc[1] if i == kc[0] else 0 for i in range(p)]),
    )


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_sparse_kernel_matches_sympy_product(data):
    p = data.draw(st.sampled_from(PRIMES))
    a = data.draw(_sparse_coords(p))
    b = data.draw(st.one_of(_sparse_coords(p), st.lists(st.integers(-6, 6), min_size=p, max_size=p)))
    if data.draw(st.booleans()):
        a, b = b, a
    want = (_poly(a) * _poly(b)).rem(_phi(p))
    assert tuple(map(Fraction, _int_mul(p, a, b))) == _reduced_coords(want, p)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_dense_product_matches_sympy_reduction(data):
    # large products at large p: p >= 17 and coordinates up to 2^300
    p = data.draw(st.sampled_from((17, 19, 23, 31, 59)))
    coords = st.sampled_from((p - 1, p)).flatmap(
        lambda n: st.lists(st.integers(-(2**300), 2**300), min_size=n, max_size=n)
    )
    a, b = data.draw(coords), data.draw(coords)
    want = _reduced_coords((_poly(a) * _poly(b)).rem(_phi(p)), p)
    assert tuple(map(Fraction, _int_mul(p, a, b))) == want


@given(data=_pairs())
@settings(max_examples=60, deadline=None)
def test_coordinates_stay_normalised(data):
    p, xs, ys = data
    x, y = CycNum(p, xs), CycNum(p, ys)
    for z in (x, y, x + y, x - y, x * y, -x, x - x, x**2, -y + 3, CycNum(p, [-4])):
        _assert_normalised(z)


@pytest.mark.parametrize("p", [p for p in range(5, 32) if cyclotomic.is_prime(p)])
def test_galois_matches_sympy_substitution(p):
    # sigma_j(x) is x(t^j) reduced mod Phi_p, for every unit j, on random
    # dense x and on x = zeta^(p-2), whose image lands on zeta^(p-1) for
    # j = 2.  x(t^j) = sum x_i t^(ij) is reduced term by term, through
    # sympy's t^e mod Phi_p for every e up to (p-2)(p-1).
    rng = random.Random(p)
    phi, t = _phi(p), _poly([0, 1])
    powers = [_poly([1])]
    for _ in range((p - 2) * (p - 1)):
        powers.append((powers[-1] * t).rem(phi))
    for coords in ([rng.randint(-50, 50) for _ in range(p - 1)], [0] * (p - 2) + [1]):
        x = CycNum(p, coords)
        for j in range(1, p):
            want = sum((c * powers[i * j] for i, c in enumerate(coords)), _poly([]))
            assert tuple(map(Fraction, galois(x, j).num)) == _reduced_coords(want, p), j


# -- packed powers against the pairwise ladder ------------------------------------

POWER_PRIMES = tuple(p for p in range(5, 62) if cyclotomic.is_prime(p))


def _ladder(p, x, n):
    """x ** n as n pairwise products by x from 1: the oracle for the packed
    power, which shares neither its digit width nor its codec."""
    acc = [1] + [0] * (p - 2)
    for _ in range(n):
        acc = _int_mul(p, acc, x)
    return tuple(acc)


def _edge_bases(p, k):
    """The bases the width bound is tightest or most wasteful on: scalars
    +-(2^k - 1) and +-2^k, whose powers sit exactly on the bound ||x||_1^n;
    the units +-zeta^j, with ||x||_1 = 1 except at zeta^(p-1), which folds
    to -(1 + ... + zeta^(p-2)); the folded root 1 + zeta + ... + zeta^(p-2),
    whose powers are units though ||x||_1 = p - 1; and zero."""
    scalars = [[c] for c in (2**k - 1, 1 - 2**k, 2**k, -(2**k))]
    units = [[0] * j + [sign] for j in range(p) for sign in (1, -1)]
    return scalars + units + [[1] * (p - 1), []]


@st.composite
def _power_cases(draw):
    """An order p in 5..61, a base and an exponent n in 0..40: signed
    coordinates up to 2^64, or one of the _edge_bases."""
    p = draw(st.sampled_from(POWER_PRIMES))
    dense = st.lists(st.integers(-(2**64), 2**64), max_size=p - 1)
    edge = st.sampled_from(_edge_bases(p, draw(st.integers(0, 64))))
    return p, draw(st.one_of(dense, edge)), draw(st.integers(0, 40))


@given(case=_power_cases())
@example(case=(61, [1] * 60, 40))
@example(case=(61, [2**64], 40))
@example(case=(5, [-(2**64 - 1)], 39))
@example(case=(59, [], 0))
@example(case=(59, [], 7))
@example(case=(7, [3, -1], 0))
@example(case=(7, [3, -1], 1))
@settings(max_examples=60, deadline=None)
def test_packed_power_matches_pairwise_ladder(case):
    p, coords, n = case
    x = CycNum(p, coords)
    assert (x**n).num == _ladder(p, x.num, n)


@pytest.mark.parametrize("p", (5, 13, 61))
def test_packed_power_edge_bases(p):
    for k in (0, 1, 7, 8, 63, 64):
        for coords in _edge_bases(p, k):
            x = CycNum(p, coords)
            for n in (0, 1, 2, 3, 8, 40):
                assert (x**n).num == _ladder(p, x.num, n), (coords, n)
