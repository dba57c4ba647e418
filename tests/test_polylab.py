"""Polynomial reconstruction, Bernoulli machinery, leading-term certificates."""

import dataclasses
import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqftdims import polylab
from tqftdims.cyclotomic import is_prime
from tqftdims.polylab import (
    BiPoly,
    InterpolationError,
    bern_identity_check,
    bernoulli,
    conjecture_scan,
    delta_leading_form,
    half_total_top_form,
    interpolate_delta,
    interpolate_total,
    leading_term_report,
    newton_coeffs,
    normalized_bernoulli,
    residue_total_poly,
    _base_quotient,
)
from tqftdims.recursion import dim_table

F = Fraction

# Fit nodes up to about the size of the interpolation grid's primes.
PRIMES_TO_300 = [p for p in range(5, 300) if is_prime(p)]

# sha256 of the canonical strings of interpolate_delta(g), interpolate_total(g)
# and (g >= 2) residue_total_poly(g) for g = 1..8, joined by newlines: a change
# of arithmetic must leave every byte of them as it is.
POLYLAB_SHA256 = "47e9c4acf1cb28f09471c2cabc5791622543fe84227064f9071a81b4d7f4467e"


def _fraction_newton(xs, ys):
    """Newton divided differences in Fractions, then the Newton form expanded
    to ascending monomial coefficients: the reference for newton_coeffs."""
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
    assert max(j for _, j in f.monomials()) == 2
    assert f.coefficient(2, 0) == 1
    assert f.coefficient(0, 2) == -1
    assert f.coefficient(1, 1) == 0
    assert f.eval(7, 3) == 40
    assert f.subs_c(3) == p * p - 9
    assert (p**3).monomials() == {(3, 0): F(1)}
    assert not BiPoly()
    assert BiPoly().total_degree() == -1


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
    assert BiPoly.const(3).canonical_str() == "(3)"
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
    assert newton_coeffs([0, 1, 2], [1, 2, 5]) == [F(1), F(0), F(1)]
    assert newton_coeffs([5], [42]) == [F(42)]
    with pytest.raises(ValueError):
        newton_coeffs([], [])
    with pytest.raises(ValueError):
        newton_coeffs([1, 2], [1])


@given(
    coeffs=st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    shift=st.integers(-3, 3),
)
@settings(max_examples=80, deadline=None)
def test_newton_roundtrip_property(coeffs, shift):
    xs = [shift + i for i in range(len(coeffs))]
    ys = [sum(q * x**i for i, q in enumerate(coeffs)) for x in xs]
    got = newton_coeffs(xs, ys)
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
    assert newton_coeffs(xs, ys) == _fraction_newton(xs, ys)


@pytest.mark.parametrize("xs", [[3, 3], [1, 2, 1], [7, 0, 5, 0]])
def test_newton_rejects_repeated_nodes(xs):
    with pytest.raises(ZeroDivisionError):
        newton_coeffs(xs, [F(k, 3) for k in range(len(xs))])
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
    poly = BiPoly(mono)
    got = poly.eval(p, c)
    assert type(got) is Fraction
    assert got == poly.eval(F(p), F(c))


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
    """The fit as two stages of newton_coeffs, one call per fit prime over the
    colors and one per C-power over the primes: the oracle for _interpolate."""
    fit = [polylab._next_prime(max(4 * g + 3, 2 * deg + 3) - 1)]
    while len(fit) < deg + 1:
        fit.append(polylab._next_prime(fit[-1]))

    cs = list(range(deg + 1))
    per_prime = {}
    for p in fit:
        ys = [getattr(dim_table(p, g), kind)(g, c) for c in cs]
        per_prime[p] = newton_coeffs(cs, ys)
    mono: dict = {}
    for j in range(deg + 1):
        pc = newton_coeffs(fit, [per_prime[p][j] for p in fit])
        for i, q in enumerate(pc):
            if q:
                mono[(i, j)] = q
    return BiPoly(mono)


@pytest.mark.parametrize("g", range(1, 7))
def test_interpolation_matches_newton_oracle(g):
    for deg, kind in ((2 * g - 1, "delta"), (3 * g - 2, "total")):
        assert polylab._interpolate(g, deg, kind) == _newton_fit(g, deg, kind)


@pytest.mark.parametrize(
    "fit,primes",
    [(interpolate_delta, [11, 13, 17, 19, 23]), (interpolate_total, [11, 13, 17, 19, 23, 29])],
)
def test_interpolation_reads_one_table_per_prime(monkeypatch, fit, primes):
    # At g = 2, one read per fit prime and one for the held-out prime (the
    # last); the held-out colors at the largest fit prime reuse its table.
    reads = []
    real = polylab.dim_table

    def counting(p, gmax):
        reads.append((p, gmax))
        return real(p, gmax)

    monkeypatch.setattr(polylab, "dim_table", counting)
    polylab._interpolate.cache_clear()
    try:
        fit(2)
    finally:
        polylab._interpolate.cache_clear()
    assert reads == [(p, 2) for p in primes]


def test_interpolation_rejects_bad_grids():
    with pytest.raises(ValueError):
        interpolate_delta(0)
    with pytest.raises(ValueError):
        interpolate_total(-1)


def test_held_out_check_catches_a_wrong_count(monkeypatch):
    # For g = 2 the delta fit uses p = 11, 13, 17, 19; p = 23 is held out.
    real = polylab.dim_table

    def corrupted(p, gmax):
        t = real(p, gmax)
        if p != 23:
            return t
        even = (t.even[0], (t.even[1][0] + 1,) + t.even[1][1:]) + t.even[2:]
        return dataclasses.replace(t, even=even)

    monkeypatch.setattr(polylab, "dim_table", corrupted)
    polylab._interpolate.cache_clear()
    try:
        with pytest.raises(InterpolationError, match="held-out"):
            interpolate_delta(2)
    finally:
        polylab._interpolate.cache_clear()


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


def test_residue_route_builds_one_bipoly_by_no_arithmetic(monkeypatch):
    # The route sums integer numerators and builds its BiPoly once, at the end.
    built = []
    init = BiPoly.__init__

    def counting(self, monomials=None):
        built.append(monomials)
        init(self, monomials)

    def refuse(self, other):
        raise AssertionError("the residue route did BiPoly arithmetic")

    monkeypatch.setattr(BiPoly, "__init__", counting)
    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__pow__"):
        monkeypatch.setattr(BiPoly, name, refuse)
    residue_total_poly(8)
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
        assert scan.base_specialization_divisible is True
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
