"""Census oracle tests.

The key fixture here is a raw whole-graph enumerator that knows nothing about
the census module's parametrization: it colors every edge of the caterpillar
with an arbitrary color in 0..p-2 and keeps only colorings that satisfy the
three vertex conditions plus loop smallness.  Evenness of stick and chain
colors must then emerge on its own.
"""

import contextlib
import itertools
import sys
import tracemalloc
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqftdims import claims
from tqftdims.census import (
    STATE_GUARD,
    _check_shape,
    _moves,
    _records,
    beta_eta_bruteforce,
    beta_eta_closed,
    count_parities,
    state_estimate,
)
from tqftdims.cli import EXIT_OK, main
from tqftdims.cyclotomic import _check_prime


def _ok3(p, i, j, k):
    return (i + j + k) % 2 == 0 and abs(i - j) <= k <= i + j and i + j + k <= 2 * p - 4


def _raw_records(p, g, c, trunk_at_start=True):
    """Census records over all raw edge colorings of the genus-g caterpillar.

    Edges: one trunk fixed at color 2c, sticks s_1..s_g, loops l_1..l_g, and
    chains t_1..t_(g-1); free stick and chain colors range over 0..p-2, and
    loop colors over the small ones, 0..d-1.  A degree-two path end forces
    its two colors equal.  Each kept coloring becomes a
    record "g;c;a_1,b_1,...,a_g,b_g;e_1,...,e_(g-1);parity" with a = s/2,
    b = l - a, e = t/2, and parity read from c + sum(a).  Yields
    (key, record) in enumeration order, key being the integer tuple
    (a_1, b_1, e_1, ..., a_g, b_g).  Exponential; test sizes only.
    """
    d = (p - 1) // 2
    rng = range(p - 1)
    for sticks in itertools.product(rng, repeat=g):
        for chains in itertools.product(rng, repeat=max(g - 1, 0)):
            if g == 1:
                if sticks[0] != 2 * c:
                    continue
            elif trunk_at_start:
                if sticks[g - 1] != chains[g - 2]:
                    continue
                if not _ok3(p, 2 * c, sticks[0], chains[0]):
                    continue
                if not all(
                    _ok3(p, chains[i - 1], sticks[i], chains[i]) for i in range(1, g - 1)
                ):
                    continue
            else:
                if sticks[0] != chains[0]:
                    continue
                if not _ok3(p, chains[g - 2], sticks[g - 1], 2 * c):
                    continue
                if not all(
                    _ok3(p, chains[i - 1], sticks[i], chains[i]) for i in range(1, g - 1)
                ):
                    continue
            for loops in itertools.product(range(d), repeat=g):  # small loops
                if not all(_ok3(p, l, l, s) for l, s in zip(loops, sticks)):
                    continue
                # all sticks and chains are even by now; records read their
                # half-colors
                assert all(s % 2 == 0 for s in sticks + chains)
                a = [s // 2 for s in sticks]
                b = [l - x for l, x in zip(loops, a)]
                e = [t // 2 for t in chains]
                key = tuple(v for i in range(g) for v in (a[i], b[i], *e[i : i + 1]))
                ab = ",".join(f"{x},{y}" for x, y in zip(a, b))
                es = ",".join(map(str, e))
                par = "even" if (c + sum(a)) % 2 == 0 else "odd"
                yield key, f"{g};{c};{ab};{es};{par}"


def _stream(p, g, c):
    """The records of `census --list`, flattened out of their chunks."""
    return list(itertools.chain.from_iterable(_records(p, g, c)))


def _parity_tally(records):
    """(even, odd) over a list of records, read from their trailing parity."""
    odd = sum(rec.endswith(";odd") for rec in records)
    return len(records) - odd, odd


def _raw_counts(p, g, c, trunk_at_start=True):
    """(even, odd) over all raw edge colorings: the tally of _raw_records."""
    return _parity_tally([rec for _key, rec in _raw_records(p, g, c, trunk_at_start)])


@pytest.mark.parametrize(
    "p,g",
    [(5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (11, 1), (13, 1)],
)
def test_census_matches_raw_graph_enumeration(p, g):
    d = (p - 1) // 2
    for c in range(d):
        assert count_parities(p, g, c) == _raw_counts(p, g, c)


@pytest.mark.parametrize("p,g", [(5, 2), (5, 3), (7, 2)])
def test_counts_do_not_depend_on_trunk_end(p, g):
    # Reversing the caterpillar gives the same abstract tree, so attaching
    # the trunk at either end must produce the same counts.
    d = (p - 1) // 2
    for c in range(d):
        assert _raw_counts(p, g, c, trunk_at_start=True) == _raw_counts(
            p, g, c, trunk_at_start=False
        )


def test_frozen_small_counts():
    assert count_parities(5, 1, 0) == (2, 0)
    assert count_parities(5, 1, 1) == (1, 0)
    assert count_parities(5, 2, 0) == (5, 0)
    assert count_parities(5, 2, 1) == (4, 1)
    assert count_parities(5, 3, 0) == (14, 1)
    assert count_parities(7, 2, 0) == (14, 0)
    # benchmark sizes, frozen from a walk that visited one coloring at a time
    assert count_parities(13, 5, 0) == (5441072, 4983693)
    assert count_parities(11, 5, 2) == (2571866, 2493920)
    assert count_parities(17, 4, 3) == (5311680, 5172662)
    assert count_parities(7, 6, 1) == (81640, 74425)
    assert count_parities(5, 8, 0) == (4861, 3264)


def _skeleton_walk(p, g, c):
    """(even, odd) by the skeleton-by-skeleton walk down to the last vertex:
    every (a, e) skeleton with a_g pinned to the last chain color, weighted by
    prod(d - a_i).  The oracle for count_parities' summed last chain range."""
    d = (p - 1) // 2
    moves = _moves(p, d)
    counts = [0, 0]

    def walk(i, x, par, weight):
        if i == g - 1:
            counts[(par + x) & 1] += weight * (d - x)
            return
        # the row's own parity and loop fields are checked against the raw
        # predicate in test_move_rows_match_admissibility; here only a and
        # the chain range are read
        for a, _odd_a, _k, lo, end in moves[x]:
            nxt = (par + a) & 1
            w = weight * (d - a)
            for e in range(lo, end):
                walk(i + 1, e, nxt, w)

    walk(0, c, c & 1, 1)
    return counts[0], counts[1]


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_move_rows_match_admissibility(p):
    # each row lists, in increasing a, every stick half-color a that admits
    # some chain half-color e; its admissible e form one unbroken range
    # lo..end-1, and the row carries a's parity and its d - a loop colors
    d = (p - 1) // 2
    table = _moves(p, d)
    assert len(table) == d
    for x, row in enumerate(table):
        expected = []
        for a in range(d):
            es = [e for e in range(d) if _ok3(p, 2 * x, 2 * a, 2 * e)]
            if es:
                assert es == list(range(es[0], es[-1] + 1))
                expected.append((a, a % 2, d - a, es[0], es[-1] + 1))
        assert list(row) == expected


@pytest.mark.parametrize(
    "p,g", [*itertools.product((5, 7, 11, 13), (1, 2, 3, 4)), (17, 3), (19, 3)]
)
def test_count_matches_skeleton_walk(p, g):
    for c in range((p - 1) // 2):
        assert count_parities(p, g, c) == _skeleton_walk(p, g, c)


@given(
    p=st.sampled_from([5, 7, 11, 13, 17, 19]),
    g=st.integers(min_value=1, max_value=4),
    c=st.integers(min_value=0, max_value=8),
)
@settings(max_examples=30, deadline=None)
def test_count_matches_skeleton_walk_property(p, g, c):
    if c < (p - 1) // 2:
        assert count_parities(p, g, c) == _skeleton_walk(p, g, c)


def _skeleton_prefixes(p, g, c):
    """Skeleton prefixes (a_1, e_1, ..., a_i, e_i) from chain color c, for
    i = 0..g-2, each step an admissible (2x, 2a, 2e) with a, e <= d - 1."""
    d = (p - 1) // 2
    ends = [c]  # the last chain color of each prefix of the current length
    total = 1
    for _ in range(g - 2):
        ends = [e for x in ends for a in range(d) for e in range(d) if _ok3(p, 2 * x, 2 * a, 2 * e)]
        total += len(ends)
    return total


def _walk_calls(p, g, c):
    """Calls of count_parities' inner walk and visit during
    count_parities(p, g, c)."""
    codes = [k for k in count_parities.__code__.co_consts
             if isinstance(k, types.CodeType) and k.co_name in ("walk", "visit")]
    assert len(codes) == 2
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code in codes:
            calls += 1

    sys.setprofile(profile)
    try:
        count_parities(p, g, c)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("p,g", itertools.product((7, 11, 13), (2, 3, 4)))
def test_count_walks_every_skeleton_prefix(p, g):
    # one walk or visit call per skeleton prefix down to u_(g-2): a walk that
    # reused a subtree's count for a repeated chain color would make fewer
    # calls
    for c in range((p - 1) // 2):
        assert _walk_calls(p, g, c) == _skeleton_prefixes(p, g, c)


def test_count_builds_one_move_table(cold):
    # the range sums read two length-(d + 1) prefix arrays; a second
    # d^2-sized table beside the move table would double this peak.  Each
    # run starts with the table's cache empty: a warm count builds nothing.
    p, d = 401, 200
    peaks = []
    for run in (lambda: _moves(p, d), lambda: count_parities(p, 2, 0)):
        cold()
        _check_prime(p)  # fill the primality cache outside the trace
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    moves_peak, count_peak = peaks
    assert count_peak <= 1.1 * moves_peak


def test_enumeration_agrees_with_counting():
    for p, g in [(5, 1), (5, 2), (5, 3), (7, 2), (11, 2)]:
        for c in range((p - 1) // 2):
            assert _parity_tally(_stream(p, g, c)) == count_parities(p, g, c)


def test_parity_convention_special_case():
    # at (g, c) = (2, 0) the two stick half-colors coincide, so the one
    # parity rule, c + sum(a_i), labels every record even
    records = _stream(5, 2, 0)
    assert records
    for rec in records:
        assert rec.endswith(";even")
        a1, _b1, a2, _b2 = rec.split(";")[2].split(",")
        assert a1 == a2


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_two_point_closed_form(p):
    d = (p - 1) // 2
    for c1 in range(d):
        for c2 in range(d):
            assert beta_eta_bruteforce(p, c1, c2) == beta_eta_closed(p, c1, c2)


def test_two_point_difference_is_kernel():
    # beta - eta = d - max(c1, c2), the kernel of the signed recursion
    for p in (5, 7, 11):
        d = (p - 1) // 2
        for c1 in range(d):
            for c2 in range(d):
                beta, eta = beta_eta_closed(p, c1, c2)
                assert beta - eta == d - max(c1, c2)


def test_tree_validation():
    # both walks test p first, then the shape, through _check_shape
    for p, g, c, message in (
        (6, 1, 0, "prime"),
        (5, 0, 0, "genus"),
        (5, 1, 2, "half-color"),
        (5, 1, -1, "half-color"),
    ):
        with pytest.raises(ValueError, match=message):
            count_parities(p, g, c)
        with pytest.raises(ValueError, match=message):
            next(_records(p, g, c))
    assert _check_shape(11, 3, 4) == 5


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        count_parities(9, 1, 0)
    with pytest.raises(ValueError):
        beta_eta_closed(5, 0, 2)
    with pytest.raises(ValueError):
        _stream(5, 2, 5)


# g = 4 puts recursive levels above the two that each chunk builds at once
STREAM_GRID = [(5, 1), (5, 2), (5, 3), (5, 4), (7, 2), (7, 3), (7, 4), (11, 2)]


@pytest.mark.parametrize("p,g", STREAM_GRID)
def test_record_stream_matches_reference(p, g):
    # the raw oracle shares no code with census._moves, so this pins the
    # stream's bytes, its order and the validity of every record
    for c in range((p - 1) // 2):
        expected = [rec for _key, rec in sorted(_raw_records(p, g, c))]
        assert _stream(p, g, c) == expected


@pytest.mark.parametrize("p,g", STREAM_GRID)
def test_record_chunks_are_bounded(p, g):
    # one chunk per (a_(g-1), b_(g-1)) holds at most d^2 records, so the
    # stream never holds a whole genus level
    d = (p - 1) // 2
    for c in range(d):
        assert all(0 < len(chunk) <= d * d for chunk in _records(p, g, c))


def test_genus_one_stream_is_linear_in_d():
    # the size guard admits g = 1 up to p of about 89000, where a d^2-sized
    # table (the move table, or every "x,b" string) would take gigabytes;
    # the g = 1 stream must hold no more than its d - c records
    p, d = 2003, 1001
    _check_prime(p)  # fill the primality cache outside the trace
    tracemalloc.start()
    try:
        chunks = list(_records(p, 1, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(chunk) for chunk in chunks] == [d]
    assert peak < 200 * d


def test_genus_one_count_builds_no_move_table():
    # at g = 1 the count walk stops at its first vertex: the d^2-sized move
    # table it never reads would peak at about 144 MB here
    p, d = 2003, 1001
    _check_prime(p)  # fill the primality cache outside the trace
    tracemalloc.start()
    try:
        counts = count_parities(p, 1, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts == (d, 0)
    assert peak < 200 * d


class _WriteRecorder:
    """Stands in for stdout and keeps the argument of every write call."""

    def __init__(self):
        self.calls = []

    def write(self, s):
        self.calls.append(s)
        return len(s)

    def flush(self):
        pass


@pytest.mark.parametrize("p,g,c", [(7, 3, 1), (5, 1, 0)])
def test_census_list_write_protocol(p, g, c):
    # `census --list` writes each line as two calls, its text then "\n", as
    # print does: line counters that count write calls, such as perfbench's
    # TallySink, count a line per "\n" and a record per text ending in its
    # parity, and would miscount joined or batched writes
    sink = _WriteRecorder()
    with contextlib.redirect_stdout(sink):
        assert main(["census", "--p", str(p), "--g", str(g), "--c", str(c), "--list"]) == EXIT_OK
    assert len(sink.calls) % 2 == 0
    assert sink.calls[1::2] == ["\n"] * (len(sink.calls) // 2)
    expected = [rec for _key, rec in sorted(_raw_records(p, g, c))]
    assert sink.calls[0::2] == ["g;c;ab;e;parity", *expected]


def test_state_estimate_growth():
    assert state_estimate(5, 1) == 3
    assert state_estimate(5, 2) == 3 * 6
    assert state_estimate(13, 5) > 10**9
    assert state_estimate(13, 4) < 10**9


@pytest.mark.parametrize("p", (5, 7, 13, 19, 101))
def test_state_estimate_decides_as_the_full_product(p):
    # exact up to the guard, and past it exactly when the full product is
    d = (p - 1) // 2
    pairs = d * (d + 1) // 2
    for g in range(1, 40):
        full = pairs * (d * pairs) ** (g - 1)
        est = state_estimate(p, g)
        assert (est > STATE_GUARD) == (full > STATE_GUARD)
        assert est == full or est > STATE_GUARD


def test_census_claim_steps_the_genus_down_under_the_guard():
    # At p = 19 the genus-4 walk is over the guard, so the claim checks g <= 3.
    assert state_estimate(19, 4) > STATE_GUARD >= state_estimate(19, 3)
    text, ok = claims.census_matches_recursion(19, 4)
    assert ok
    assert text.endswith("(p=19, g<=3)")


@given(
    p=st.sampled_from([5, 7, 11, 13, 17, 19, 23, 29, 31]),
    c1=st.integers(min_value=0, max_value=14),
    c2=st.integers(min_value=0, max_value=14),
)
@settings(max_examples=80, deadline=None)
def test_two_point_closed_form_property(p, c1, c2):
    d = (p - 1) // 2
    if c1 <= d - 1 and c2 <= d - 1:
        assert beta_eta_bruteforce(p, c1, c2) == beta_eta_closed(p, c1, c2)


@given(g=st.integers(min_value=1, max_value=3), c=st.integers(min_value=0, max_value=2))
@settings(max_examples=20, deadline=None)
def test_census_totals_are_symmetric_functions_property(g, c):
    # even + odd and even - odd both stay nonnegative with even >= odd
    fe, fo = count_parities(7, g, c)
    assert fe >= fo >= 0


@given(
    p=st.sampled_from([5, 7, 11]),
    g=st.integers(min_value=1, max_value=3),
    c=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_counting_walk_matches_enumeration_property(p, g, c):
    # count_parities weights skeletons by their loop choices; the record
    # stream visits every coloring, so the two walks check each other
    if c <= (p - 3) // 2:
        assert _parity_tally(_stream(p, g, c)) == count_parities(p, g, c)
