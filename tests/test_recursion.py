"""Transfer recursion against the census, dense oracles, and its own
collapsed forms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqftdims import recursion
from tqftdims.census import beta_eta_closed, count_parities
from tqftdims.cyclotomic import is_prime
from tqftdims.recursion import DimTable, delta_direct, delta_split, dim_table

PRIMES_TO_61 = [p for p in range(5, 62) if is_prime(p)]
PRIMES_TO_97 = [p for p in range(5, 98) if is_prime(p)]


def _dense_table(p, gmax):
    """The transfer recursion as a dense double loop over every kernel entry:
    d^2 calls to beta_eta_closed per genus."""
    d = (p - 1) // 2
    evens = [tuple(d - c for c in range(d))]
    odds = [(0,) * d]
    for _g in range(1, gmax):
        prev_e, prev_o = evens[-1], odds[-1]
        row_e = []
        row_o = []
        for c in range(d):
            se = so = 0
            for a in range(d):
                beta, eta = beta_eta_closed(p, a, c)
                se += prev_e[a] * beta + prev_o[a] * eta
                so += prev_o[a] * beta + prev_e[a] * eta
            row_e.append(se)
            row_o.append(so)
        evens.append(tuple(row_e))
        odds.append(tuple(row_o))
    return DimTable(p, gmax, tuple(evens), tuple(odds))


@pytest.mark.parametrize(
    "p,gmax", [(5, 1), (5, 40), (7, 2), (13, 8), (101, 20), (149, 10), (211, 10)]
)
def test_table_matches_dense_oracle(p, gmax):
    assert dim_table(p, gmax) == _dense_table(p, gmax)


@given(p=st.sampled_from(PRIMES_TO_97), gmax=st.integers(min_value=1, max_value=15))
@settings(max_examples=40, deadline=None)
def test_table_matches_dense_oracle_property(p, gmax):
    assert dim_table(p, gmax) == _dense_table(p, gmax)


@pytest.mark.parametrize("p", [5, 13, 101])
def test_table_reads_each_kernel_factor_once(monkeypatch, p):
    # The ladder reads its factors once per prime, 2d kernel calls, and a
    # longer table grows the same ladder; the dense loop would make d^2 per
    # genus.
    calls = []

    def counting(*args):
        calls.append(args)
        return beta_eta_closed(*args)

    monkeypatch.setattr(recursion, "beta_eta_closed", counting)
    d = (p - 1) // 2
    recursion.dim_table.cache_clear()
    recursion._ladder.cache_clear()
    try:
        per_table = []
        for gmax in (2, 30):
            calls.clear()
            recursion.dim_table(p, gmax)
            per_table.append(len(calls))
    finally:
        recursion.dim_table.cache_clear()
        recursion._ladder.cache_clear()
    assert per_table == [2 * d, 0]


@given(
    p=st.sampled_from(PRIMES_TO_97),
    gmaxes=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=4),
)
@settings(max_examples=30, deadline=None)
def test_ladder_views_match_dense_oracle_property(p, gmaxes):
    # Each request either grows p's ladder or cuts a view from it; a view
    # cut from a longer ladder still refuses the genus past its gmax.
    recursion.dim_table.cache_clear()
    recursion._ladder.cache_clear()
    for gmax in gmaxes:
        t = dim_table(p, gmax)
        assert t == _dense_table(p, gmax)
        with pytest.raises(ValueError):
            t.n_even(gmax + 1, 0)
        with pytest.raises(ValueError):
            t.delta(gmax + 1, 0)


def test_base_row_is_all_even():
    for p in (5, 7, 11, 13):
        t = dim_table(p, 1)
        d = (p - 1) // 2
        assert t.even[0] == tuple(d - c for c in range(d))
        assert t.odd[0] == tuple(0 for _ in range(d))


@pytest.mark.parametrize("p,gmax", [(5, 3), (7, 3), (11, 2)])
def test_recursion_matches_census(p, gmax):
    t = dim_table(p, gmax)
    for g in range(1, gmax + 1):
        for c in range(t.d):
            assert (t.n_even(g, c), t.n_odd(g, c)) == count_parities(p, g, c)


def test_frozen_p5_table():
    t = dim_table(5, 4)
    assert [(t.n_even(g, 0), t.n_odd(g, 0)) for g in range(1, 5)] == [
        (2, 0),
        (5, 0),
        (14, 1),
        (42, 8),
    ]
    assert [(t.n_even(g, 1), t.n_odd(g, 1)) for g in range(1, 5)] == [
        (1, 0),
        (4, 1),
        (14, 6),
        (48, 27),
    ]


def test_total_at_genus_two_matches_closed_form():
    for p in (5, 7, 11, 13, 17, 19):
        assert dim_table(p, 2).total(2, 0) == p * (p * p - 1) // 24


def _dense_delta_direct(p, g):
    """The collapsed recursion as a dense double loop over d - max(a, c)."""
    d = (p - 1) // 2
    cur = tuple(d - c for c in range(d))
    for _ in range(g - 1):
        cur = tuple(
            sum((d - max(a, c)) * cur[a] for a in range(d)) for c in range(d)
        )
    return cur


def _dense_delta_split(p, g):
    """The split kernel (d - a) plus the a < c correction, as dense loops."""
    d = (p - 1) // 2
    cur = tuple(d - c for c in range(d))
    for _ in range(g - 1):
        base = sum((d - a) * cur[a] for a in range(d))
        cur = tuple(
            base + sum((a - c) * cur[a] for a in range(c)) for c in range(d)
        )
    return cur


@pytest.mark.parametrize("p,g", [(5, 1), (7, 2), (101, 20), (127, 15), (151, 20)])
def test_signed_recursions_match_dense_oracles(p, g):
    assert delta_direct(p, g) == _dense_delta_direct(p, g)
    assert delta_split(p, g) == _dense_delta_split(p, g)


@given(p=st.sampled_from(PRIMES_TO_97), g=st.integers(min_value=1, max_value=15))
@settings(max_examples=40, deadline=None)
def test_signed_recursions_match_dense_oracles_property(p, g):
    assert delta_direct(p, g) == _dense_delta_direct(p, g)
    assert delta_split(p, g) == _dense_delta_split(p, g)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_signed_recursions_agree(p):
    t = dim_table(p, 8)
    for g in range(1, 9):
        direct = delta_direct(p, g)
        split = delta_split(p, g)
        assert direct == split
        for c in range(t.d):
            assert t.delta(g, c, verify=True) == direct[c]


def test_delta_verification_raises_on_mismatch():
    good = dim_table(5, 2)
    bad = DimTable(5, 2, good.even, ((0, 0), (1, 1)))
    with pytest.raises(ArithmeticError):
        bad.delta(2, 0, verify=True)


def test_rows_iteration():
    t = dim_table(5, 2)
    rows = list(t.rows())
    assert rows == [
        (1, 0, 2, 0, 2, 2),
        (1, 1, 1, 0, 1, 1),
        (2, 0, 5, 0, 5, 5),
        (2, 1, 4, 1, 5, 3),
    ]


def test_bounds_checked():
    t = dim_table(5, 2)
    with pytest.raises(ValueError):
        t.n_even(3, 0)
    with pytest.raises(ValueError):
        t.n_odd(0, 0)
    with pytest.raises(ValueError):
        t.total(1, 2)
    with pytest.raises(ValueError):
        dim_table(8, 2)
    with pytest.raises(ValueError):
        dim_table(5, 0)
    with pytest.raises(ValueError):
        delta_direct(5, 0)


@given(
    p=st.sampled_from(PRIMES_TO_61),
    g=st.integers(min_value=1, max_value=11),
)
@settings(max_examples=30, deadline=None)
def test_totals_grow_with_genus(p, g):
    t = dim_table(p, g + 1)
    for c in range(t.d):
        assert t.total(g + 1, c) >= t.total(g, c)
        assert t.delta(g, c) >= 0


@given(p=st.sampled_from(PRIMES_TO_61), g=st.integers(min_value=1, max_value=11))
@settings(max_examples=30, deadline=None)
def test_table_prefix_stability(p, g):
    # extending gmax never changes earlier rows
    small = dim_table(p, g)
    big = dim_table(p, g + 1)
    assert big.even[: g] == small.even
    assert big.odd[: g] == small.odd
