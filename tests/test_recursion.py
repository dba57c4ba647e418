"""Transfer recursion against the census, dense oracles, and its own
collapsed forms; the integer door's float probes; and the total kernel
modulo p."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_package import (
    DOOR_CALLS,
    INTEGER_PARAMS,
    cache_counts,
    caches_moved,
    door_call,
    door_function,
    door_message,
)

from tqftdims import recursion
from tqftdims.census import beta_eta_closed, count_parities
from tqftdims.cyclotomic import is_prime
from tqftdims.recursion import delta_direct, delta_split, dim_table

PRIMES_TO_61 = [p for p in range(5, 62) if is_prime(p)]
PRIMES_TO_97 = [p for p in range(5, 98) if is_prime(p)]


def _dense_table(p, gmax):
    """The transfer recursion on (even, odd) as a dense double loop over every
    kernel entry: d^2 calls to beta_eta_closed per genus.  Returns the even
    rows and the odd rows, genus one first."""
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
    return evens, odds


def _assert_matches_dense(t, p, gmax):
    # through the readers, cell by cell: the table steps (total, delta), the
    # oracle (even, odd)
    evens, odds = _dense_table(p, gmax)
    assert (t.p, t.gmax) == (p, gmax)
    got = [
        (t.n_even(g, c), t.n_odd(g, c), t.total(g, c), t.delta(g, c))
        for g in range(1, gmax + 1)
        for c in range(t.d)
    ]
    want = [
        (e, o, e + o, e - o)
        for row_e, row_o in zip(evens, odds)
        for e, o in zip(row_e, row_o)
    ]
    assert got == want


@pytest.mark.parametrize(
    "p,gmax", [(5, 1), (5, 40), (7, 2), (13, 8), (101, 20), (149, 10), (211, 10)]
)
def test_table_matches_dense_oracle(p, gmax):
    _assert_matches_dense(dim_table(p, gmax), p, gmax)


@given(p=st.sampled_from(PRIMES_TO_97), gmax=st.integers(min_value=1, max_value=15))
@settings(max_examples=40, deadline=None)
def test_table_matches_dense_oracle_property(p, gmax):
    _assert_matches_dense(dim_table(p, gmax), p, gmax)


@given(p=st.sampled_from(PRIMES_TO_97), gmax=st.integers(min_value=1, max_value=25))
@settings(max_examples=40, deadline=None)
def test_halves_split_into_whole_counts_property(p, gmax):
    # total and delta share their parity, so even and odd are whole and
    # nonnegative and add up to the total, in every cell
    t = dim_table(p, gmax)
    for g in range(1, gmax + 1):
        for c in range(t.d):
            total, delta = t.total(g, c), t.delta(g, c)
            assert (total - delta) % 2 == 0
            even, odd = t.n_even(g, c), t.n_odd(g, c)
            assert even >= 0 and odd >= 0
            assert even + odd == total


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
        _assert_matches_dense(t, p, gmax)
        with pytest.raises(ValueError):
            t.n_even(gmax + 1, 0)
        with pytest.raises(ValueError):
            t.delta(gmax + 1, 0)


def test_base_row_is_all_even():
    for p in (5, 7, 11, 13):
        t = dim_table(p, 1)
        d = (p - 1) // 2
        assert t.totals[0] == tuple(d - c for c in range(d))
        assert t.deltas[0] == t.totals[0]  # no odd coloring


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
            assert t.delta(g, c) == direct[c]


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


@pytest.mark.parametrize("args,error", [((13.0, 2), ValueError), ((13, 2.0), ValueError)])
def test_bad_table_request_raises_the_same_cold_and_warm(args, error):
    # the cache is typed: a cached (13, 2) must not answer (13.0, 2) or (13, 2.0)
    recursion.dim_table.cache_clear()
    try:
        with pytest.raises(error):
            dim_table(*args)
        dim_table(13, 2)
        with pytest.raises(error):
            dim_table(*args)
    finally:
        recursion.dim_table.cache_clear()


@pytest.mark.parametrize("value", [3.0, 2.5])
@pytest.mark.parametrize("qual", sorted(DOOR_CALLS), ids=lambda qual: qual.rpartition(".")[2])
def test_a_float_genus_is_refused_before_any_work(qual, value):
    # one integer door: every genus, genus bound, half-color and index of
    # test_package.DOOR_CALLS refuses a whole float as it refuses 2.5, with
    # ValueError, and no cache reads or stores an entry first
    fn = door_function(qual)
    args = DOOR_CALLS[qual]
    door_call(fn, args)
    for param in sorted(INTEGER_PARAMS & args.keys()):
        before = cache_counts()
        with pytest.raises(ValueError, match=door_message(param, value)):
            door_call(fn, {**args, param: value})
        assert caches_moved(before, cache_counts(), qual) == set(), param


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
    assert big.totals[: g] == small.totals
    assert big.deltas[: g] == small.deltas


def _total_kernel(p):
    """B + H as rows, from d^2 reads of beta_eta_closed, the kernel's definition."""
    d = (p - 1) // 2
    return [[sum(beta_eta_closed(p, a, c)) for c in range(d)] for a in range(d)]


@pytest.mark.parametrize("p", PRIMES_TO_61)
def test_total_kernel_squares_to_zero_mod_p(p):
    """(B + H)^2 = 0 (mod p), while B + H itself is not 0 (mod p).

    (B + H)(a, c) = (2 min(a, c) + 1)(d - max(a, c)), and 2d = p - 1, so
    d = -1/2 (mod p) and d - m = -(2m + 1)/2.  With x_a = 2a + 1 every entry
    is -(1/2) x_a x_c: B + H = -(1/2) x x^T (mod p), of rank one, and not 0,
    as its entry (0, 0) is d.  Its square is (1/4) x (x^T x) x^T, and
    x^T x = sum_(a<d) (2a + 1)^2 = d (2d - 1)(2d + 1)/3 = d (p - 2) p / 3 = 0
    (mod p), since 3 is prime to p.
    """
    k = _total_kernel(p)
    d = len(k)
    assert any(entry % p for row in k for entry in row)
    square = [[sum(k[a][b] * k[b][c] for b in range(d)) % p for c in range(d)] for a in range(d)]
    assert square == [[0] * d for _ in range(d)]


@pytest.mark.parametrize("p", [p for p in PRIMES_TO_61 if p <= 31])
def test_every_total_past_genus_one_is_divisible_by_p(p):
    """T(g, c) = 0 (mod p) for 2 <= g <= 3p.

    T_(g+1) = (B + H) T_g, and T_1 = d - c = -(1/2) x_c (mod p) with x as in
    test_total_kernel_squares_to_zero_mod_p, so
    T_2 = (1/4) x (x^T x) = 0 (mod p), and every later T_g is B + H times a
    vector that is 0 (mod p).
    """
    t = dim_table(p, 3 * p)
    assert all(total % p == 0 for row in t.totals[1:] for total in row)
    assert any(total % p for total in t.totals[0])


def _signed_kernel_mod_p(p, vec):
    """(B - H) vec (mod p) in O(d), from the kernel d - max(a, c) (delta_direct's):
    (d - c) times the sum of vec_a over a <= c, plus the sum of (d - a) vec_a
    over a > c."""
    d = len(vec)
    out, prefix = [], 0
    suffix = sum((d - a) * x for a, x in enumerate(vec))
    for c, x in enumerate(vec):
        prefix += x
        suffix -= (d - c) * x
        out.append(((d - c) * prefix + suffix) % p)
    return out


def test_signed_kernel_is_one_nilpotent_block_mod_p():
    """N = 4(B - H) - I is nilpotent mod p with one Jordan block of size d:
    N^(d-1) e_0 != 0 and N^d e_0 = 0 (mod p), for every prime 5 <= p < 200.

    In the even basis B - H = D M_alt D, with D = diag((-1)^c) and M_alt the
    matrix of the alternating element A = sum_n (-1)^n (d - n) e_(2n)
    (tests/test_fusion.py checks this entry for entry).  D e_0 = e_0 and
    D D = I, so N^k e_0 = D (4 M_alt - I)^k e_0: the coordinates of
    (4A - 1)^k in the quotient, which mod p is F_p[z]/((z + 2)^d)
    (test_z_plus_two_is_one_nilpotent_block_mod_p).  With e_m(z) = U_m(z/2),
    e_m(-2) = (-1)^m (m + 1) and e_m'(-2) = (-1)^(m+1) m (m + 1)(m + 2)/6.
    As 2d = p - 1, d = -1/2 and d - n = -(2n + 1)/2 (mod p), so
      A(-2) = -(1/2) sum_(n<d) (-1)^n (2n + 1)^2 = 1/4,
      A'(-2) = (1/3) sum_(n<d) (-1)^n n (n + 1)(2n + 1)^2 = 1/4,
    from the closed forms -2d^2 (d even) and 2d^2 - 1 (d odd) of the first
    sum, and -d^2 (4d^2 - 7)/2 and (d^2 - 1)(4d^2 - 3)/2 of the second, at
    d^2 = 1/4 (3 is prime to p).  So 4A - 1 is z + 2 times a unit: its k-th
    power is 0 for k = d and not 0 for k = d - 1.  Each power steps in O(d).
    """
    for p in (p for p in range(5, 200) if is_prime(p)):
        d = (p - 1) // 2
        vec = [1] + [0] * (d - 1)
        for _ in range(d - 1):
            vec = [(4 * k - x) % p for k, x in zip(_signed_kernel_mod_p(p, vec), vec)]
        assert any(vec), p
        vec = [(4 * k - x) % p for k, x in zip(_signed_kernel_mod_p(p, vec), vec)]
        assert not any(vec), p


@pytest.mark.parametrize("p", [p for p in PRIMES_TO_61 if p <= 31])
def test_signed_counts_have_period_p_mod_p(p):
    """4 delta(g + p, c) = delta(g, c) (mod p) for g <= 2p, and no shift
    s < p makes 4^s delta(g + s, c) = delta(g, c) hold at every g <= p and c.

    delta_(g+1) = (B - H) delta_g, so 4^s delta_(g+s) = (I + N)^s delta_g
    with N = 4(B - H) - I, which is nilpotent with one Jordan block of size
    d < p (test_signed_kernel_is_one_nilpotent_block_mod_p).  Modulo p,
    (I + N)^p = I + N^p = I, and 4^p = 4, which is the first claim.  For
    0 < s < p, delta_1 = d - c = (B - H) e_0 = (1/4)(I + N) e_0, so
    (I + N)^s delta_1 - delta_1 = (1/4)(s N e_0 + sum_(k>=2) c_k N^k e_0),
    and e_0, N e_0, ..., N^(d-1) e_0 are a basis, with d >= 2 and s != 0
    (mod p): the difference is not 0 already at g = 1.
    """
    d = (p - 1) // 2
    deltas = dim_table(p, 3 * p).deltas  # deltas[g - 1]: genus g
    for g in range(1, 2 * p + 1):
        assert [(4 * x - y) % p for x, y in zip(deltas[g + p - 1], deltas[g - 1])] == [0] * d
    for s in range(1, p):
        assert any(
            (4**s * x - y) % p
            for g in range(1, p + 1)
            for x, y in zip(deltas[g + s - 1], deltas[g - 1])
        ), s
