"""Exact cyclotomic arithmetic: ring axioms, Galois action, norms."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqftdims import cyclotomic
from tqftdims.cyclotomic import (
    CycNum,
    galois,
    is_prime,
    norm,
    quantum_int,
)

PRIMES = (5, 7, 11, 13)


def test_is_prime_small_values():
    hits = [n for n in range(30) if is_prime(n)]
    assert hits == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(121)
    assert is_prime(991)


def test_order_must_be_prime_at_least_five():
    for bad in (4, 6, 9, 2, 3, 1, 0, -5):
        with pytest.raises(ValueError):
            CycNum(bad, [1])


def test_top_coefficient_folds():
    # zeta^4 = -1 - zeta - zeta^2 - zeta^3 at p = 5
    z4 = CycNum(5, [0, 0, 0, 0, 1])
    assert z4.num == (-1, -1, -1, -1)
    assert z4 == cyclotomic.run(5, 4, 1, 1)
    assert cyclotomic.run(5, 9, 1, 1) == cyclotomic.run(5, 4, 1, 1)
    assert cyclotomic.run(5, -1, 1, 1) == cyclotomic.run(5, 4, 1, 1)


@pytest.mark.parametrize("p", PRIMES)
def test_root_powers_sum_to_zero(p):
    z = cyclotomic.run(p, 1, 1, 1)
    acc = CycNum(p, [0])
    for k in range(p):
        acc = acc + z**k
    assert not acc
    assert z**p == 1


def test_golden_product():
    # (z + z^4)(z^2 + z^3) = -1 at p = 5
    x = cyclotomic.run(5, 1, 1, 1) + cyclotomic.run(5, 4, 1, 1)
    y = cyclotomic.run(5, 2, 1, 1) + cyclotomic.run(5, 3, 1, 1)
    assert x * y == CycNum(5, [-1])


def test_scalar_coercion_and_rationals():
    x = CycNum(7, [3])
    assert not any(x.num[1:])
    assert x == 3
    assert x + 1 == CycNum(7, [4])
    assert 2 * x == CycNum(7, [6])
    assert -x + 1 == CycNum(7, [-2])
    y = cyclotomic.run(7, 1, 1, 1)
    assert any(y.num[1:])


def test_coordinates_must_be_integers():
    # Z[zeta_p] has no denominators: a Fraction coordinate is refused, even a
    # whole one
    with pytest.raises(ValueError, match="integers"):
        CycNum(7, [Fraction(1, 2)])
    with pytest.raises(ValueError, match="integers"):
        CycNum(7, [Fraction(4, 2)])
    with pytest.raises(TypeError):
        cyclotomic.run(7, 1, 1, 1) + Fraction(1, 2)


def test_repr_lists_rational_coordinates():
    x = CycNum(7, [3, -1, 0, 5])
    assert repr(x) == "CycNum(7: 3 + -1*z + 5*z^3)"
    assert repr(CycNum(5, [0])) == "CycNum(5: 0)"
    assert repr(cyclotomic.run(5, 1, 1, 1) + cyclotomic.run(5, 2, 1, 1)) == "CycNum(5: z + z^2)"


def test_mixed_orders_rejected():
    with pytest.raises(ValueError):
        cyclotomic.run(5, 1, 1, 1) + cyclotomic.run(7, 1, 1, 1)


def test_division_and_pow():
    # a ring, not a field: no division and no negative powers
    z = cyclotomic.run(7, 1, 1, 1)
    x = 1 + z + z**3
    assert x**0 == 1
    assert x**3 == x * x * x
    assert (z**5) * (z**2) == 1
    for refused in (lambda: x / x, lambda: x / 2, lambda: 1 / x, lambda: x**-1, lambda: z ** (-2)):
        with pytest.raises(TypeError):
            refused()
    assert not hasattr(cyclotomic, "inv")


def test_pow_makes_no_product_by_one(monkeypatch):
    # left to right from the base: bit_length(n) - 1 squarings and
    # popcount(n) - 1 products by the base, each a packed product reduced
    # once, and none at all for x**0 and x**1; the base is packed once and
    # the power unpacked once, and no product goes through _int_mul
    calls = {"_pack": 0, "_cyclic": 0, "_unpack": 0}

    def counted(name):
        true = getattr(cyclotomic, name)

        def wrapper(*args):
            calls[name] += 1
            return true(*args)

        return wrapper

    def refuse(*args):
        raise AssertionError("a power multiplied through _int_mul")

    x = 1 + cyclotomic.run(7, 1, 1, 1) - 2 * cyclotomic.run(7, 3, 1, 1)
    powers = [CycNum(7, [1])]
    for _ in range(40):
        powers.append(powers[-1] * x)
    for name in calls:
        monkeypatch.setattr(cyclotomic, name, counted(name))
    monkeypatch.setattr(cyclotomic, "_int_mul", refuse)
    for n, want in enumerate(powers):
        calls.update(dict.fromkeys(calls, 0))
        assert x**n == want
        chain = n.bit_length() + bin(n).count("1") - 2 if n else 0
        packs = 1 if n >= 2 else 0
        assert calls == {"_pack": packs, "_cyclic": chain, "_unpack": packs}


def test_galois_basics():
    z = cyclotomic.run(11, 1, 1, 1)
    x = 3 + 2 * z + z**4
    assert galois(x, 1) == x
    assert galois(x, 12) == x
    for i in range(1, 11):
        for j in range(1, 11):
            assert galois(galois(x, i), j) == galois(x, (i * j) % 11)
    with pytest.raises(ValueError):
        galois(x, 0)
    with pytest.raises(ValueError):
        galois(x, 22)


@pytest.mark.parametrize("p", PRIMES)
def test_norm_of_h_is_p(p):
    h = -cyclotomic.run(p, 1, 1, 1) + 1
    assert norm(h) == p


def test_norm_of_scalar():
    assert norm(CycNum(5, [3])) == 3**4
    assert type(norm(CycNum(7, [-2]))) is int


def test_quantum_int_values():
    p = 7
    q = cyclotomic.run(p, 1, 1, 1)
    assert quantum_int(p, 0) == 0
    assert quantum_int(p, 1) == 1
    assert quantum_int(p, 2) == q + cyclotomic.run(p, -1, 1, 1)
    # defining property: [n] (q - q^-1) = q^n - q^-n
    for n in range(9):
        lhs = quantum_int(p, n) * (q - cyclotomic.run(p, -1, 1, 1))
        assert lhs == q**n - cyclotomic.run(p, -n, 1, 1)
    # [p] = 0 since the powers cycle through all residues
    assert not quantum_int(p, p)
    with pytest.raises(ValueError):
        quantum_int(p, -1)


def test_run_reads_its_prime_and_length_through_the_door():
    # a run of order 9 would be no element of Z[zeta_p], and a negative
    # length is no run: both refused, and so is zeta^k, the one-term run, at 9
    with pytest.raises(ValueError, match=r"^p must be a prime >= 5, got 9$"):
        cyclotomic.run(9, 0, 2, 1)
    with pytest.raises(ValueError, match=r"^p must be a prime >= 5, got 9$"):
        cyclotomic.run(9, 1, 1, 1)
    with pytest.raises(ValueError, match=r"^run length must be >= 0, got -1$"):
        cyclotomic.run(7, 0, -1, 1)
    assert cyclotomic.run(7, 0, 0, 1) == 0
    assert cyclotomic.run(7, 3, 2, 1) == cyclotomic.run(7, 3, 1, 1) + cyclotomic.run(7, 4, 1, 1)


def _telescoped_quantum_int(p, n):
    """[n] as the telescoped sum q^(n-1) + q^(n-3) + ... + q^(1-n)."""
    vec = [0] * p
    for k in range(n):
        vec[(n - 1 - 2 * k) % p] += 1
    return CycNum(p, vec)


@pytest.mark.parametrize("p", (5, 7, 13, 31))
def test_quantum_int_matches_telescoped_sum(p):
    # past n = p too, where the powers wrap around more than once
    for n in range(2 * p + 2):
        assert quantum_int(p, n) == _telescoped_quantum_int(p, n)


@pytest.mark.parametrize("p", PRIMES)
def test_quantum_ints_are_units(p):
    for n in range(1, p):
        assert norm(quantum_int(p, n)) in (1, -1)


def _elements(p, size=4):
    coeff = st.integers(min_value=-5, max_value=5)
    return st.lists(coeff, min_size=1, max_size=size).map(lambda v: CycNum(p, v))


@given(x=_elements(7), y=_elements(7), z=_elements(7))
@settings(max_examples=60, deadline=None)
def test_ring_axioms_hold(x, y, z):
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x - x == CycNum(7, [0])


@given(x=_elements(11), y=_elements(11), j=st.integers(min_value=1, max_value=10))
@settings(max_examples=40, deadline=None)
def test_galois_is_a_ring_map(x, y, j):
    assert galois(x * y, j) == galois(x, j) * galois(y, j)
    assert galois(x + y, j) == galois(x, j) + galois(y, j)


@given(x=_elements(7), y=_elements(7))
@settings(max_examples=40, deadline=None)
def test_norm_is_multiplicative(x, y):
    assert norm(x * y) == norm(x) * norm(y)


# -- unfolded elements, against CycNum ------------------------------------------

UNFOLDED_PRIMES = (5, 7, 13, 31)


def _unfolded_vectors(p):
    return st.lists(st.integers(-50, 50), min_size=p, max_size=p)


@st.composite
def _name_pairs(draw):
    """(p, x, y, n) with x = y + n + c (1, ..., 1) plus a perturbation that
    is zero about half the time, so that x names y + n in about half."""
    p = draw(st.sampled_from(UNFOLDED_PRIMES))
    y = draw(_unfolded_vectors(p))
    n, c = draw(st.integers(-50, 50)), draw(st.integers(-50, 50))
    bump = draw(st.one_of(st.just([0] * p), _unfolded_vectors(p)))
    x = [yi + c + b for yi, b in zip(y, bump)]
    x[0] += n
    return p, x, y, n


@given(data=_name_pairs())
@settings(max_examples=200, deadline=None)
def test_names_decides_equality_of_the_folded_elements(data):
    p, x, y, n = data
    assert cyclotomic._names(x, y, n) == (CycNum(p, x) == CycNum(p, y) + n)
    assert cyclotomic._names(x, y, n) == cyclotomic._names(x, [yi + 7 for yi in y], n)


@given(data=st.sampled_from(UNFOLDED_PRIMES).flatmap(
    lambda p: st.tuples(st.just(p), _unfolded_vectors(p), st.integers(-3 * p, 3 * p))
))
@settings(max_examples=100, deadline=None)
def test_rotate_multiplies_by_a_monomial(data):
    p, x, k = data
    rotated = cyclotomic._rotate(x, k)
    assert len(rotated) == p
    assert CycNum(p, rotated) == CycNum(p, x) * cyclotomic.run(p, k, 1, 1)


@given(data=st.sampled_from(UNFOLDED_PRIMES).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.lists(st.tuples(st.integers(-3 * p, 3 * p), st.integers(-50, 50)), max_size=2 * p),
    )
))
@settings(max_examples=100, deadline=None)
def test_unfolded_sums_monomials(data):
    p, terms = data
    vec = cyclotomic._unfolded(p, terms)
    assert len(vec) == p
    want = CycNum(p, [0])
    for e, c in terms:
        want = want + c * cyclotomic.run(p, e, 1, 1)
    assert CycNum(p, vec) == want
    # and _unfold is a right inverse of the fold
    assert CycNum(p, cyclotomic._unfold(want)) == want
    assert len(cyclotomic._unfold(want)) == p


# -- the product: one pairwise path --------------------------------------------


@pytest.mark.parametrize("p", (17, 19, 23, 29, 31, 59))
def test_dense_product_edge_cases(p):
    rng = random.Random(p)
    dense = [rng.randint(-(2**64), 2**64) for _ in range(p - 1)]
    # a zero factor, on either side, of either length
    for zero in ([0] * (p - 1), [0] * p):
        assert cyclotomic._int_mul(p, zero, dense) == [0] * (p - 1)
        assert cyclotomic._int_mul(p, dense, zero) == [0] * (p - 1)


def _pairwise(p, a, b):
    """The product by the pairwise loop over every pair of coordinates."""
    acc = [0] * p
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            acc[(i + j) % p] += ai * bj
    return cyclotomic._fold(acc)


def test_products_never_pack(monkeypatch):
    def refuse(*args):
        raise AssertionError("a product was packed")

    monkeypatch.setattr(cyclotomic, "_pack", refuse)
    rng = random.Random(61)
    for p in (31, 61):
        dense = CycNum(p, range(1, p))
        two_sparse = -cyclotomic.run(p, 1, 1, 1) + 1
        assert two_sparse * dense == dense - cyclotomic.run(p, 1, 1, 1) * dense
        assert dense * two_sparse == two_sparse * dense
        # dense times dense, with coordinates of 64 bits
        other = CycNum(p, [rng.randint(-(2**64), 2**64) for _ in range(p - 1)])
        assert (dense * other).num == tuple(_pairwise(p, dense.num, other.num))
        assert (other * other).num == tuple(_pairwise(p, other.num, other.num))


def test_default_verify_runs_no_dense_product(monkeypatch, capsys):
    # the default verify makes no ring product at all; what it packs is its
    # Galois powers (CycNum.__pow__) and its unit checks of runs
    # (_is_unit_run)
    from tqftdims import cli

    def refuse(*args):
        raise AssertionError("verify made a ring product")

    packers = []
    true_pack = cyclotomic._pack

    def counted(x, k):
        packers.append(sys._getframe(1).f_code.co_name)
        return true_pack(x, k)

    monkeypatch.setattr(cyclotomic, "_int_mul", refuse)
    monkeypatch.setattr(cyclotomic, "_pack", counted)
    assert cli.main(["verify"]) == 0
    assert capsys.readouterr().out.endswith(" 0 failures\n")
    assert set(packers) == {"__pow__", "_is_unit_run"}
