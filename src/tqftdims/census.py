"""Brute-force census of small admissible colorings of lollipop trees.

A lollipop tree of genus g with trunk color 2c is a caterpillar: stick
vertices u_1..u_g along a path, a loop hanging off each u_i, and the trunk
edge (colored 2c) attached at u_1.  Half-colors are recorded: a_i for the
stick edge 2a_i, b_i so the i-th loop carries color a_i + b_i, and e_i for
the chain edge 2e_i between u_i and u_(i+1).  Parity conditions force all
non-loop colors even, which is why chains are enumerated as half-colors
from the start.

Admissibility at a trivalent vertex with colors (i, j, k):
even sum, |i - j| <= k <= i + j, and i + j + k <= 2p - 4.  Smallness bounds
every loop color by (p-3)/2.  The far end u_g has degree two and is modeled
with a phantom color-0 edge, which pins a_g to the incoming chain color.

There are two walks, one per job: count_parities counts, and the private
_records streams `census --list`.  Both read their moves from one table
per prime, _moves, built from the vertex inequalities and cached as tuples:
for each incoming chain color x, one row (a, a & 1, d - a, lo, end) per
stick color a that admits a next chain color, holding a, its parity, its
d - a loop colors and the half-open range lo..end-1 of next chain colors.
The table holds no count, only what the inequalities admit: d - a is the
length of the loop range that the smallness bound admits at one vertex,
not a count carried between subtrees.  The reference for the record
stream is the whole-graph enumerator in tests/test_census.py, which colors
raw edges and shares no code with that table, and a test there rebuilds
every row from the raw vertex predicate.

The loop half-color b_i constrains nothing outside its own vertex, and it
ranges over 0..d-1-a_i.  So count_parities walks only the (a, e)
skeletons, and counts each with weight prod(d - a_i).  It walks them down
to the vertex u_(g-1) only: there the last chain color e pins a_g = e and
leaves d - e loop choices at u_g, so each last chain range lo..end-1 is
summed in closed form, sum(d - e) over its even e and over its odd e, from
two prefix arrays of d - e that are built from d alone before the walk.
One visit to u_(g-1) loops over its row of moves, picks the two arrays in
the order the parity of a sets, adds d - a times the two range sums into
two locals, and adds weight times each to the counts once.  The cost stays
exponential in g, in the skeletons down to u_(g-1) rather than in the
colorings.  Nothing is memoized across subtrees: caching on (level, chain
color, parity) would rebuild the transfer recursion, and the census would
stop being an independent check on it.  The range sums are not such a
cache: they are read off one vertex's inequalities, each visit recomputes
its sums and stores none of them, and no count found in one subtree is
read in another.

_records streams lists of records, one per (a_(g-1), b_(g-1)): it recurses
over the vertices u_1..u_(g-2) and builds the last two levels, (e_(g-1),
b_g), in one comprehension.  Its table leaf[x] holds the strings "x,b" of
the last vertex, which is text, not a memo: no count is carried between
subtrees.

Both walks label parity by one rule, the parity of c + sum(a_i), with no
special case.  At (g, c) = (2, 0) admissibility pins a_1 = a_2 (the trunk
color 0 forces a_1 = e_1, and the far end forces a_2 = e_1), so the rule
labels every coloring there even, and claims.census_parity_convention
checks that.

This module is the independent oracle: it never uses the transfer
recursion, fusion matrices, or any closed form beyond reading off ranges
from the defining inequalities and summing d - e over the last of them.
"""

from __future__ import annotations

from functools import lru_cache

from .cyclotomic import _check_color, _check_index, _check_prime

__all__ = [
    "STATE_GUARD",
    "beta_eta_bruteforce",
    "beta_eta_closed",
    "count_parities",
    "state_estimate",
]


def _check_shape(p: int, g: int, c: int) -> int:
    """Return d = (p - 1)/2 if the genus g is an int >= 1 and the trunk
    half-color c lies in 0..d-1, for any int p >= 5, else raise ValueError.
    The walks test p with _check_prime first."""
    _check_index(g)
    return _check_color(p, c)


# Bounded to one table: every caller finishes with one prime before the next.
# The default verify reads it 52 times (4 misses, one per prime), as does
# verify --gmax 8, and the census workload's ops 4 times (2 misses); every hit
# re-reads the latest entry, so a larger cache would only hold dead tables.
@lru_cache(maxsize=1)
def _moves(p: int, d: int) -> tuple[tuple[tuple[int, int, int, int, int], ...], ...]:
    """Admissibility table: moves[x] lists (a, a & 1, d - a, lo, end) for
    every stick half-color a at a vertex entered by chain half-color x,
    where lo..end-1 is the nonempty range of outgoing chain half-colors e
    that make (2x, 2a, 2e) admissible.  The fields are what both walks read:
    the stick, its parity, its d - a loop colors and the half-open chain
    range.  d - a is a range length that the smallness bound admits at this
    vertex, not a count carried between subtrees.  Immutable, as the cache
    hands out one copy."""
    top = p - 2
    table = []
    for x in range(d):
        row = []
        for a in range(d):
            lo = abs(x - a)
            hi = min(x + a, top - x - a, d - 1)
            if lo <= hi:
                row.append((a, a & 1, d - a, lo, hi + 1))
        table.append(tuple(row))
    return tuple(table)


def _records(p: int, g: int, c: int):
    """Yield the records of the small admissible colorings, for
    `census --list`, as lists of consecutive records.

    A record reads "g;c;a_1,b_1,...,a_g,b_g;e_1,...,e_(g-1);parity", where
    parity is "even" when c + sum(a_i) is even and "odd" otherwise.  At
    (g, c) = (2, 0) that rule makes every record "even", as admissibility
    pins a_1 = a_2 there; claims.census_parity_convention checks it.
    Records come in increasing order of the integer tuple
    (a_1, b_1, e_1, ..., a_(g-1), b_(g-1), e_(g-1), a_g, b_g).

    There is one list per (a_(g-1), b_(g-1)), or a single list at g = 1, so
    each holds at most d^2 records, one per (e_(g-1), b_g).  ab holds
    "a_1,b_1,...,a_i,b_i," and es holds "e_1,...,e_i,"; leaf[x] holds the
    strings "x,b" for b in 0..d-1-x, so the last two levels are one
    comprehension.
    """
    d = _check_shape(_check_prime(p), g, c)
    head = f"{g};{c};"
    if g == 1:
        # d - c records; the d^2-sized tables below are never read here.
        yield [f"{head}{c},{b};;even" for b in range(d - c)]
        return
    moves = _moves(p, d)
    leaf = [[f"{x},{b}" for b in range(d - x)] for x in range(d)]
    names = ("even", "odd")

    def walk(i: int, x: int, ab: str, es: str, par: int):
        for a, odd_a, k, lo, end in moves[x]:
            nxt = par ^ odd_a
            if i == g - 2:
                tails = [(leaf[e], f";{es}{e};{names[(nxt + e) & 1]}") for e in range(lo, end)]
                for b in range(k):
                    pre = f"{head}{ab}{a},{b},"
                    yield [f"{pre}{s}{t}" for ls, t in tails for s in ls]
                continue
            for b in range(k):
                ab_b = f"{ab}{a},{b},"
                for e in range(lo, end):
                    yield from walk(i + 1, e, ab_b, f"{es}{e},", nxt)

    yield from walk(0, c, "", "", c & 1)


def count_parities(p: int, g: int, c: int) -> tuple[int, int]:
    """Return (even_count, odd_count) of the small admissible colorings.

    Walks the (a, e) skeletons down to the vertex u_(g-1), each with weight
    prod(d - a_i), the number of its loop choices b there.  Every level
    reads the prime's cached _moves rows (a, a & 1, d - a, lo, end): the
    upper levels, in walk, step the parity by a & 1 and the weight by
    d - a, a range length the smallness bound admits and not a count
    carried between subtrees, over e in lo..end-1.  The last chain color e
    pins a_g = e and leaves d - e loop choices at u_g, with parity that of
    the path plus e, so each last chain range is summed, not walked:
    sum(d - e) over its even e and over its odd e, read off two prefix
    arrays of d - e built from d alone.  A visit to u_(g-1) takes the two
    arrays in the order a & 1 picks, sums its whole row of moves, each
    range times d - a, into `same` and `flip` (the path's parity and the
    other), then adds weight times each to the counts once; each visit
    recomputes its sums and stores none of them.  The cost stays
    exponential in g, in the skeletons down to u_(g-1): one walk or visit
    call per skeleton prefix down to u_(g-2), and g = 2 is one visit.
    """
    d = _check_shape(_check_prime(p), g, c)
    if g == 1:
        # a_1 = c, so every one of the d - c loop choices is even; no table
        # is built
        return d - c, 0
    moves = _moves(p, d)
    # even[k] and odd[k]: sum of d - e over the even and the odd e < k; an
    # even e keeps the parity par + a, so an odd a swaps the two
    even, odd = [0], [0]
    for e in range(d):
        even.append(even[-1] + (d - e) * (1 - (e & 1)))
        odd.append(odd[-1] + (d - e) * (e & 1))
    sums = ((even, odd), (odd, even))
    counts = [0, 0]

    def visit(x: int, par: int, weight: int) -> None:
        # u_(g-1): each move's range sums, times its d - a loop choices
        same = flip = 0
        for _a, odd_a, k, lo, end in moves[x]:
            keep, swap = sums[odd_a]
            same += k * (keep[end] - keep[lo])
            flip += k * (swap[end] - swap[lo])
        counts[par] += weight * same
        counts[par ^ 1] += weight * flip

    def walk(i: int, x: int, par: int, weight: int) -> None:
        # u_(i+1) for i < g - 2; its children are u_(g-1) when i = g - 3
        for _a, odd_a, k, lo, end in moves[x]:
            nxt = par ^ odd_a
            w = weight * k
            if i == g - 3:
                for e in range(lo, end):
                    visit(e, nxt, w)
            else:
                for e in range(lo, end):
                    walk(i + 1, e, nxt, w)

    if g == 2:
        visit(c, c & 1, 1)
    else:
        walk(0, c, c & 1, 1)
    return counts[0], counts[1]


def beta_eta_bruteforce(p: int, c1: int, c2: int) -> tuple[int, int]:
    """Balanced/unbalanced coloring counts of the genus-one two-point tree.

    The stick vertex carries colors (2c1, 2c2, 2a) and the loop contributes
    the usual smallness range for b.  Balanced means a + c1 + c2 even.
    """
    d = _check_color(_check_prime(p), c1, c2)
    beta = eta = 0
    lo = abs(c1 - c2)
    hi = min(c1 + c2, (p - 2) - c1 - c2)
    for a in range(lo, hi + 1):
        n_b = d - a
        if (a + c1 + c2) % 2 == 0:
            beta += n_b
        else:
            eta += n_b
    return beta, eta


def beta_eta_closed(p: int, c1: int, c2: int) -> tuple[int, int]:
    """Closed forms: with m = min(c1, c2), M = max(c1, c2),
    balanced = (m + 1)(d - M) and unbalanced = m(d - M)."""
    d = _check_color(_check_prime(p), c1, c2)
    m, big = min(c1, c2), max(c1, c2)
    return (m + 1) * (d - big), m * (d - big)


#: state_estimate above which `census` refuses and verify lowers its genus.
STATE_GUARD = 10**9


def state_estimate(p: int, g: int) -> int:
    """Crude upper bound on search states, pairs * (d * pairs)^(g-1), used by
    the CLI size guard and verify's census cap.  Only its comparison with
    STATE_GUARD matters, so the product stops at its first factor past the
    guard: the value is exact up to the guard, past it only a lower bound,
    and a large genus costs a dozen products, not a power of g digits.
    ValueError unless g is an int >= 1; p is read, not tested."""
    d = (p - 1) // 2
    pairs = d * (d + 1) // 2
    estimate = pairs
    for _ in range(_check_index(g) - 1):
        if estimate > STATE_GUARD:
            break
        estimate *= d * pairs
    return estimate
