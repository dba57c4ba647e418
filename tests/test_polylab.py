"""Polynomial reconstruction, Bernoulli machinery, leading-term certificates."""

import hashlib
import math
from fractions import Fraction
from operator import add, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqftdims import polylab
from tqftdims.cli import main
from tqftdims.cyclotomic import is_prime
from tqftdims.polylab import (
    BiPoly,
    bern_identity_check,
    bernoulli,
    conjecture_scan,
    delta_leading_form,
    half_total_top_form,
    interpolate_delta,
    interpolate_total,
    leading_term_report,
    normalized_bernoulli,
    residue_total_poly,
    _base_quotient,
)
from tqftdims.recursion import DimTable, dim_table

F = Fraction

# Fit nodes up to about the size of the interpolation grid's primes.
PRIMES_TO_300 = [p for p in range(5, 300) if is_prime(p)]

# sha256 of the canonical strings of interpolate_delta(g), interpolate_total(g)
# and (g >= 2) residue_total_poly(g) for g = 1..8, joined by newlines: a change
# of arithmetic must leave every byte of them as it is.
POLYLAB_SHA256 = "47e9c4acf1cb28f09471c2cabc5791622543fe84227064f9071a81b4d7f4467e"


def _fraction_newton(xs, ys):
    """Newton divided differences in Fractions, then the Newton form expanded
    to ascending monomial coefficients: the reference for _lagrange_fit."""
    n = len(xs)
    dd = [F(y) for y in ys]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])
    poly = [F(0)] * n
    for i in range(n - 1, -1, -1):
        shifted = [F(0)] + poly[:-1]
        poly = [s - xs[i] * c for s, c in zip(shifted, poly + [F(0)])][:n]
        poly[0] += dd[i]
    return poly


def _lagrange_fit(xs, ys):
    """Ascending monomial coefficients of the interpolant through (xs, ys),
    read off polylab's integer Lagrange basis: sum_m y_m L[k][m] / W."""
    rows, w = polylab._lagrange_rows(xs)
    return [F(sum(map(mul, ys, row)), w) for row in rows]


def _fraction_eval(poly, p, c):
    """The value of poly at (p, c), one Fraction term per monomial: the
    reference for BiPoly.eval."""
    pv, cv = F(p), F(c)
    return sum((q * pv**i * cv**j for (i, j), q in poly.monomials().items()), F(0))


def _fraction_bernoulli(k, _memo=[]):
    """B_k by the Fraction recursion sum_{j<=k} C(k+1, j) B_j = 0, one
    Fraction sum per index: the oracle for bernoulli's integer recurrence."""
    while len(_memo) <= k:
        n = len(_memo)
        acc = sum((math.comb(n + 1, j) * _memo[j] for j in range(n)), F(0))
        _memo.append(F(1) if n == 0 else -acc / (n + 1))
    return _memo[k]


class _FractionPoly:
    """A polynomial in P and C as a dict of nonzero Fraction coefficients,
    one Fraction sum or product per monomial: the oracle for BiPoly's
    integer numerators over one denominator."""

    def __init__(self, monomials=None):
        self.m = {}
        for (i, j), q in (monomials or {}).items():
            if F(q):
                self.m[int(i), int(j)] = F(q)

    @staticmethod
    def _coerce(other):
        if isinstance(other, _FractionPoly):
            return other
        if isinstance(other, (int, F)):
            return _FractionPoly({(0, 0): other})
        return None

    def _add(self, other, sign):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.m)
        for ij, q in o.m.items():
            out[ij] = out.get(ij, F(0)) + sign * q
        return _FractionPoly(out)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = {}
        for (i1, j1), q1 in self.m.items():
            for (i2, j2), q2 in o.m.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, F(0)) + q1 * q2
        return _FractionPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = _FractionPoly({(0, 0): 1})
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self.m == o.m

    def homogeneous_part(self, n):
        return _FractionPoly({ij: q for ij, q in self.m.items() if sum(ij) == n})

    def p_coefficient(self, i):
        return _FractionPoly({(0, j): q for (ii, j), q in self.m.items() if ii == i})

    def subs_c(self, value):
        out = {}
        for (i, j), q in self.m.items():
            out[i, 0] = out.get((i, 0), F(0)) + q * F(value) ** j
        return _FractionPoly(out)

    def eval(self, p, c):
        return sum((q * F(p) ** i * F(c) ** j for (i, j), q in self.m.items()), F(0))

    def canonical_str(self):
        if not self.m:
            return "(0)"
        parts = []
        for i, j in sorted(self.m, key=lambda ij: (-(ij[0] + ij[1]), -ij[0])):
            c = "" if j == 0 else "C" if j == 1 else f"C^{j}"
            p = "" if i == 0 else "P" if i == 1 else f"P^{i}"
            parts.append(f"({self.m[i, j]}){c}{p}")
        return " + ".join(parts)

    def to_json_obj(self):
        keys = sorted(self.m, key=lambda ij: (-(ij[0] + ij[1]), -ij[0]))
        return {
            "monomials": [
                {"p": i, "c": j, "num": self.m[i, j].numerator, "den": self.m[i, j].denominator}
                for i, j in keys
            ]
        }


def test_polylab_outputs_frozen():
    parts = []
    for g in range(1, 9):
        parts.append(interpolate_delta(g).canonical_str())
        parts.append(interpolate_total(g).canonical_str())
        if g >= 2:
            parts.append(residue_total_poly(g).canonical_str())
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    assert digest == POLYLAB_SHA256


def test_bernoulli_frozen_values():
    assert [bernoulli(k) for k in range(9)] == [
        F(1),
        F(-1, 2),
        F(1, 6),
        F(0),
        F(-1, 30),
        F(0),
        F(1, 42),
        F(0),
        F(-1, 30),
    ]
    assert bernoulli(10) == F(5, 66)
    assert bernoulli(12) == F(-691, 2730)
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_normalized_bernoulli_values():
    assert normalized_bernoulli(1) == F(1, 24)
    assert normalized_bernoulli(2) == F(1, 1440)
    assert normalized_bernoulli(3) == F(1, 60480)
    assert normalized_bernoulli(4) == F(1, 2419200)
    assert all(normalized_bernoulli(n) > 0 for n in range(1, 12))
    with pytest.raises(ValueError):
        normalized_bernoulli(0)


def test_bernoulli_alternating_identity():
    for g in range(11):
        assert bern_identity_check(g)


def test_bipoly_basics():
    p = BiPoly({(1, 0): 1})
    c = BiPoly.var_c()
    f = (p + c) * (p - c)
    assert f == p * p - c * c
    assert f.total_degree() == 2
    assert f.degree_in_p() == 2
    assert f.monomials() == {(2, 0): 1, (0, 2): -1}
    assert f.eval(7, 3) == 40
    assert f.subs_c(3) == p * p - 9
    assert (p**3).monomials() == {(3, 0): F(1)}
    assert BiPoly().total_degree() == -1


@pytest.mark.parametrize(
    "key", [(1.5, 0), ("2", 0), (-1, 0), (0, -2), (True, 0), (1,), (1, 2, 3), 2], ids=repr
)
def test_bipoly_refuses_a_key_that_is_not_two_exponents(key):
    # an exponent is coerced from nothing: no float, string or bool, and
    # none negative, whose polynomial would report the zero polynomial's degree
    with pytest.raises(ValueError, match="two ints >= 0"):
        BiPoly({key: 1})


@pytest.mark.parametrize("bad", [0.5, 0.1, "1/3", 1.0], ids=repr)
def test_bipoly_refuses_a_float_or_string_input(bad):
    # nothing is coerced: a coefficient is an int or a Fraction (ValueError,
    # as CycNum refuses a non-int coordinate), and a point, a substituted C
    # or an operand is refused with TypeError
    f = BiPoly({(1, 1): F(1, 3), (0, 0): 2})
    with pytest.raises(ValueError, match="a coefficient is an int or a Fraction"):
        BiPoly({(0, 0): bad})
    with pytest.raises(TypeError, match="BiPoly.eval takes int points"):
        f.eval(bad, 1)
    with pytest.raises(TypeError, match="BiPoly.eval takes int points"):
        f.eval(7, bad)
    with pytest.raises(TypeError, match="BiPoly.subs_c takes an int"):
        f.subs_c(bad)
    for op in (add, sub, mul):
        with pytest.raises(TypeError):
            op(f, bad)
        with pytest.raises(TypeError):
            op(bad, f)
    # == refuses nothing: an operand the arithmetic refuses is unequal on
    # both sides, even a float of the same value as a constant BiPoly
    same = BiPoly({(0, 0): F(bad)}) if isinstance(bad, float) else f
    for poly in (f, same):
        assert (poly == bad) is False and (bad == poly) is False


def test_bipoly_parts():
    p = BiPoly({(1, 0): 1})
    c = BiPoly.var_c()
    f = p * p * c + p * c + 2 * c + 1
    assert f.homogeneous_part(3) == p * p * c
    assert f.p_coefficient(1) == c
    assert f.p_coefficient(0) == 2 * c + 1
    assert f.homogeneous_part(5) == BiPoly()


def test_bipoly_canonical_string():
    p = BiPoly({(1, 0): 1})
    c = BiPoly.var_c()
    f = p**3 * F(1, 24) - c * c * p * F(1, 4)
    assert f.canonical_str() == "(1/24)P^3 + (-1/4)C^2P"
    assert BiPoly().canonical_str() == "(0)"
    assert BiPoly({(0, 0): 3}).canonical_str() == "(3)"
    assert (c + 1).canonical_str() == "(1)C + (1)"


def test_bipoly_json_round_structure():
    f = BiPoly({(1, 0): 1}) * 2 - BiPoly.var_c() * F(1, 3)
    obj = f.to_json_obj()
    assert obj == {
        "monomials": [
            {"p": 1, "c": 0, "num": 2, "den": 1},
            {"p": 0, "c": 1, "num": -1, "den": 3},
        ]
    }


def test_newton_recovers_polynomials():
    assert _lagrange_fit([0, 1, 2], [1, 2, 5]) == [F(1), F(0), F(1)]
    assert _lagrange_fit([5], [42]) == [F(42)]


@given(
    coeffs=st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    shift=st.integers(-3, 3),
)
@settings(max_examples=80, deadline=None)
def test_newton_roundtrip_property(coeffs, shift):
    xs = [shift + i for i in range(len(coeffs))]
    ys = [sum(q * x**i for i, q in enumerate(coeffs)) for x in xs]
    got = _lagrange_fit(xs, ys)
    assert got == [F(q) for q in coeffs]


@given(
    xs=st.one_of(
        st.lists(st.integers(-40, 40), min_size=1, max_size=8, unique=True),
        st.lists(st.sampled_from(PRIMES_TO_300), min_size=1, max_size=24, unique=True),
    ),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_newton_matches_fraction_oracle(xs, data):
    value = st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**6)
    ys = data.draw(st.lists(value, min_size=len(xs), max_size=len(xs)))
    assert _lagrange_fit(xs, ys) == _fraction_newton(xs, ys)


@pytest.mark.parametrize("xs", [[3, 3], [1, 2, 1], [7, 0, 5, 0]])
def test_newton_rejects_repeated_nodes(xs):
    with pytest.raises(ZeroDivisionError):
        _lagrange_fit(xs, [F(k, 3) for k in range(len(xs))])
    with pytest.raises(ZeroDivisionError):
        _fraction_newton(xs, [F(k, 3) for k in range(len(xs))])


@given(
    mono=st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
        st.fractions(min_value=-99, max_value=99, max_denominator=720),
        max_size=10,
    ),
    p=st.integers(-300, 300),
    c=st.integers(-300, 300),
)
@settings(max_examples=50, deadline=None)
def test_bipoly_int_eval_matches_fraction_eval(mono, p, c):
    # eval takes int points only: a whole Fraction point is refused too
    poly = BiPoly(mono)
    got = poly.eval(p, c)
    assert type(got) is Fraction
    assert got == _fraction_eval(poly, p, c)
    for x, y in ((F(p), c), (p, F(c))):
        with pytest.raises(TypeError, match="BiPoly.eval takes int points"):
            poly.eval(x, y)
    with pytest.raises(TypeError, match="BiPoly.subs_c takes an int"):
        poly.subs_c(F(c))


@given(
    mono=st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
        st.fractions(min_value=-99, max_value=99, max_denominator=720),
        max_size=10,
    ),
    p=st.integers(-10**6, 10**6),
    c=st.integers(-10**6, 10**6),
)
@settings(max_examples=80, deadline=None)
def test_bipoly_eval_matches_fraction_oracle(mono, p, c):
    # eval's one integer sum over the denominator, at points far from the grid
    poly = BiPoly(mono)
    got = poly.eval(p, c)
    assert type(got) is Fraction
    assert got == _fraction_eval(poly, p, c)


def _same(got, want):
    """got is a BiPoly in lowest terms with want's coefficients and text."""
    assert isinstance(got, BiPoly)
    assert got._d > 0 and all(got._m.values())
    assert math.gcd(got._d, *got._m.values()) == 1
    assert got.monomials() == want.m
    assert all(type(q) is Fraction for q in got.monomials().values())
    assert got.canonical_str() == want.canonical_str()
    assert got.to_json_obj() == want.to_json_obj()


_coefficients = st.one_of(
    st.integers(-40, 40),
    st.fractions(min_value=-40, max_value=40, max_denominator=36),
)
# small polynomials, the zero polynomial (empty, or all coefficients 0) among them
_polys = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), _coefficients, max_size=6)
_constants = st.one_of(
    st.integers(-12, 12),
    st.fractions(min_value=-12, max_value=12, max_denominator=12),
)


@given(
    a=_polys,
    b=_polys,
    k=_constants,
    v=st.integers(-12, 12),
    p=st.integers(-12, 12),
    c=st.integers(-12, 12),
    n=st.integers(0, 3),
    i=st.integers(0, 9),
)
@settings(max_examples=150, deadline=None)
def test_bipoly_matches_fraction_oracle(a, b, k, v, p, c, n, i):
    f, g = BiPoly(a), BiPoly(b)
    fo, go = _FractionPoly(a), _FractionPoly(b)
    _same(f, fo)
    for got, want in [
        (f + g, fo + go),
        (f - g, fo - go),
        (f * g, fo * go),
        (f**n, fo**n),
        (f + k, fo + k),
        (k + f, k + fo),
        (f - k, fo - k),
        (f * k, fo * k),
        (k * f, k * fo),
        (f.homogeneous_part(i), fo.homogeneous_part(i)),
        (f.p_coefficient(i), fo.p_coefficient(i)),
        (f.subs_c(v), fo.subs_c(v)),
        (BiPoly({(0, 0): k}), _FractionPoly({(0, 0): k})),
    ]:
        _same(got, want)
    assert (f == g) is (fo == go)
    assert (f == k) is (fo == k) and (k == f) is (k == fo)
    assert f + g - g == f and f - f == 0
    got = f.eval(p, c)
    assert type(got) is Fraction and got == fo.eval(p, c)
    with pytest.raises(TypeError):
        k - f


def test_bipoly_is_in_lowest_terms():
    x = BiPoly({(1, 0): 1})
    assert BiPoly({(1, 0): F(2, 4)}) == BiPoly({(1, 0): F(1, 2)})
    assert BiPoly({(1, 0): F(2, 4), (0, 1): 0}) == x * F(1, 2)
    assert x - x == BiPoly() == 0
    assert (x - x).canonical_str() == "(0)"
    assert ((x * 6 + 4) * F(1, 2)).to_json_obj() == (x * 3 + 2).to_json_obj()


def test_bernoulli_matches_fraction_recursion():
    for k in range(61):
        assert bernoulli(k) == _fraction_bernoulli(k), k
    # the integer table every reader takes: N_j = B_j (j + 1)!, all integers
    nums = polylab._bern_nums(60)
    assert all(type(n) is int for n in nums)
    assert nums == [_fraction_bernoulli(j) * math.factorial(j + 1) for j in range(61)]
    assert polylab._bern_nums(0) == [1] and polylab._bern_nums(1) == [1, -1]


def test_interpolated_delta_genus_one():
    f = interpolate_delta(1)
    want = BiPoly({(1, 0): F(1, 2), (0, 1): F(-1), (0, 0): F(-1, 2)})
    assert f == want


def test_interpolated_delta_genus_two_frozen():
    f = interpolate_delta(2)
    want = (
        BiPoly({(3, 0): 1})
        - BiPoly({(1, 2): 6, (1, 1): 6, (1, 0): 1})
        + BiPoly({(0, 3): 4, (0, 2): 6, (0, 1): 2})
    ) * F(1, 24)
    assert f == want


def _newton_fit(g, deg, kind):
    """The fit as two stages of Newton divided differences in Fractions, one
    per fit prime over the colors and one per C-power over the primes: the
    oracle for _interpolate, sharing no code with its Lagrange basis."""
    fit = [polylab._next_prime(max(4 * g + 3, 2 * deg + 3) - 1)]
    while len(fit) < deg + 1:
        fit.append(polylab._next_prime(fit[-1]))

    cs = list(range(deg + 1))
    per_prime = {}
    for p in fit:
        ys = [getattr(dim_table(p, g), kind)(g, c) for c in cs]
        per_prime[p] = _fraction_newton(cs, ys)
    mono: dict = {}
    for j in range(deg + 1):
        pc = _fraction_newton(fit, [per_prime[p][j] for p in fit])
        for i, q in enumerate(pc):
            if q:
                mono[(i, j)] = q
    return BiPoly(mono)


@pytest.mark.parametrize("g", range(1, 7))
def test_interpolation_matches_newton_oracle(g):
    for deg, kind in ((2 * g - 1, "delta"), (3 * g - 2, "total")):
        assert polylab._interpolate(g, deg, kind) == _newton_fit(g, deg, kind)


# Polynomials in (d, c), held as BiPoly with its P slot standing for d.
_D = BiPoly({(1, 0): 1})
_C = BiPoly.var_c()


def _faulhaber(k):
    """sum_{a<n} a^k = (1/(k + 1)) sum_j C(k + 1, j) B_j n^(k+1-j), as
    ascending coefficients in n, with B_1 = -1/2."""
    coeffs = [F(0)] * (k + 2)
    for j in range(k + 1):
        coeffs[k + 1 - j] += math.comb(k + 1, j) * bernoulli(j) / (k + 1)
    return coeffs


def _range_sums(poly):
    """(sum_{a<=c}, sum_{c<a<d}) of poly(d, a), as polynomials in (d, c)."""
    low = high = BiPoly()
    for (i, k), q in poly.monomials().items():
        s = _faulhaber(k)
        to_c = sum((q_m * (_C + 1) ** m for m, q_m in enumerate(s)), BiPoly())
        to_d = BiPoly({(m, 0): q_m for m, q_m in enumerate(s)})
        d_i = BiPoly({(i, 0): q})
        low = low + d_i * to_c
        high = high + d_i * (to_d - to_c)
    return low, high


def _total_step(poly):
    low, _ = _range_sums((2 * _C + 1) * poly)
    _, high = _range_sums((_D - _C) * poly)
    return (_D - _C) * low + (2 * _C + 1) * high


def _delta_step(poly):
    low, _ = _range_sums(poly)
    _, high = _range_sums((_D - _C) * poly)
    return (_D - _C) * low + high


def _in_p(poly):
    """poly(d, c) at d = (P - 1)/2."""
    d_of_p = BiPoly({(1, 0): F(1, 2), (0, 0): F(-1, 2)})
    return sum(
        (q * d_of_p**i * _C**j for (i, j), q in poly.monomials().items()), BiPoly()
    )


def test_genus_step_on_polynomials_is_the_fit():
    # polylab's degree argument, run: the transfer step on polynomials in
    # (d, c), with Faulhaber range sums, gives each fit at every genus
    total = delta = _D - _C
    for g in range(1, 7):
        if g > 1:
            total, delta = _total_step(total), _delta_step(delta)
        assert (total.total_degree(), delta.total_degree()) == (3 * g - 2, 2 * g - 1)
        assert _in_p(total) == interpolate_total(g)
        assert _in_p(delta) == interpolate_delta(g)


@pytest.mark.parametrize(
    "fit,primes",
    [(interpolate_delta, [11, 13, 17, 19, 23]), (interpolate_total, [11, 13, 17, 19, 23, 29])],
)
def test_interpolation_reads_one_table_per_prime(cold, monkeypatch, fit, primes):
    # At g = 2, one read per fit prime and one for the held-out prime (the
    # last); the held-out colors at the largest fit prime reuse its table.
    reads = []
    real = polylab.dim_table

    def counting(p, gmax):
        reads.append((p, gmax))
        return real(p, gmax)

    monkeypatch.setattr(polylab, "dim_table", counting)
    fit(2)
    assert reads == [(p, 2) for p in primes]


def test_interpolation_rejects_bad_grids():
    with pytest.raises(ValueError):
        interpolate_delta(0)
    with pytest.raises(ValueError):
        interpolate_total(-1)


def test_held_out_check_catches_a_wrong_count(cold, monkeypatch):
    # For g = 2 the delta fit uses p = 11, 13, 17, 19; p = 23 is held out.
    real = polylab.dim_table

    def corrupted(p, gmax):
        t = real(p, gmax)
        if p != 23:
            return t
        # one more even coloring at (g, c) = (2, 0): total and delta both + 1
        totals, deltas = ((r[0], (r[1][0] + 1,) + r[1][1:]) + r[2:] for r in (t.totals, t.deltas))
        return DimTable(t.p, t.gmax, totals, deltas)

    monkeypatch.setattr(polylab, "dim_table", corrupted)
    with pytest.raises(ArithmeticError, match="held-out"):
        interpolate_delta(2)


@pytest.mark.parametrize(
    "argv", [["poly", "--g", "2", "--emit", "D"], ["verify", "--suite", "poly", "--gmax", "2"]]
)
def test_held_out_miss_is_a_verification_failure(cold, monkeypatch, capsys, argv):
    # For g = 2 the total fit uses p = 11..23; p = 29 is held out.  A miss
    # there is a failed check, exit 1 with nothing on stdout, not bad input.
    real = polylab.dim_table

    def corrupted(p, gmax):
        t = real(p, gmax)
        if p != 29:
            return t
        # one more even coloring at (g, c) = (2, 0): total and delta both + 1
        totals, deltas = ((r[0], (r[1][0] + 1,) + r[1][1:]) + r[2:] for r in (t.totals, t.deltas))
        return DimTable(t.p, t.gmax, totals, deltas)

    monkeypatch.setattr(polylab, "dim_table", corrupted)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    total = dim_table(29, 2).total(2, 0)
    want = f"held-out validation failed for total at (p=29, c=0): {total} != {total + 1}"
    assert err == f"error: {want}\n"


def test_interpolants_evaluate_on_fresh_primes():
    dpoly = interpolate_delta(2)
    tpoly = interpolate_total(2)
    for p in (37, 41):
        t = dim_table(p, 2)
        for c in range(t.d):
            assert dpoly.eval(p, c) == t.delta(2, c)
            assert tpoly.eval(p, c) == t.total(2, c)


def test_residue_route_matches_interpolation():
    for g in range(2, 8):
        assert residue_total_poly(g) == interpolate_total(g)
    with pytest.raises(ValueError):
        residue_total_poly(1)


def _count_builds(monkeypatch) -> list:
    """Record every BiPoly built, by the public or the private constructor,
    and refuse BiPoly arithmetic."""
    built = []
    init, of = BiPoly.__init__, BiPoly._of.__func__

    def counting_init(self, monomials=None):
        built.append(monomials)
        init(self, monomials)

    def counting_of(cls, nums, den):
        built.append(nums)
        return of(cls, nums, den)

    def refuse(self, other):
        raise AssertionError("BiPoly arithmetic")

    monkeypatch.setattr(BiPoly, "__init__", counting_init)
    monkeypatch.setattr(BiPoly, "_of", classmethod(counting_of))
    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__pow__"):
        monkeypatch.setattr(BiPoly, name, refuse)
    return built


def test_residue_route_builds_one_bipoly_by_no_arithmetic(monkeypatch):
    # The route sums integer numerators and builds its BiPoly once, at the end.
    built = _count_builds(monkeypatch)
    residue_total_poly(8)
    assert len(built) == 1


@pytest.mark.parametrize("g,deg,kind", [(3, 5, "delta"), (3, 7, "total")])
def test_interpolation_builds_one_bipoly_by_no_arithmetic(cold, monkeypatch, g, deg, kind):
    # The fit hands its integer numerators over W_c W_p to one BiPoly.
    built = _count_builds(monkeypatch)
    polylab._interpolate(g, deg, kind)
    assert len(built) == 1


def test_total_at_base_color_is_classic_product():
    want = BiPoly({(3, 0): F(1, 24), (1, 0): F(-1, 24)})
    assert interpolate_total(2).subs_c(0) == want
    assert residue_total_poly(2).subs_c(0) == want


def test_delta_leading_form_genus_two():
    top = interpolate_delta(2).homogeneous_part(3)
    assert top == delta_leading_form(2)
    assert top == BiPoly({(3, 0): F(1, 24), (1, 2): F(-1, 4), (0, 3): F(1, 6)})


def test_leading_term_report_all_genera():
    for g in (2, 3, 4):
        report = leading_term_report(g)
        assert report and all(report.values())
    with pytest.raises(ValueError):
        leading_term_report(1)


def test_half_total_top_form_bounds():
    form = half_total_top_form(3)
    assert form.total_degree() == 3 * 3 - 2
    with pytest.raises(ValueError):
        half_total_top_form(2)


def test_conjecture_scan_reports():
    P = BiPoly({(1, 0): 1})
    base = P * (P * P - 1) * F(1, 24)
    for g in (2, 3, 4, 5, 6):
        scan = conjecture_scan(g)
        assert scan.g == g
        assert isinstance(scan.no_positive_even_p_powers, bool)
        assert scan.base_quotient is not None
        assert scan.base_quotient * base == interpolate_delta(g).subs_c(0)
    with pytest.raises(ValueError):
        conjecture_scan(1)
    assert _base_quotient(P**4 + P) is None


@given(c=st.integers(min_value=0, max_value=4))
@settings(max_examples=10, deadline=None)
def test_delta_polynomial_matches_recursion_property(c):
    dpoly = interpolate_delta(2)
    for p in (11, 13, 31):
        if c <= (p - 3) // 2:
            assert dpoly.eval(p, c) == dim_table(p, 2).delta(2, c)
