"""Genus-by-genus transfer recursion for even/odd coloring counts.

Appending one lollipop to a tree of genus g multiplies counts through the
balanced/unbalanced two-point numbers beta and eta: a balanced splice
preserves parity, an unbalanced one flips it.  Base case: genus one has
d - c colorings, all even.

The pair recursion (even, odd)' = [[B, H], [H, B]] (even, odd), with B and
H the beta and eta kernels, is diagonal in the total T = even + odd and
the signed count delta = even - odd: T' = (B + H) T and delta' = (B - H)
delta.  So the table steps those two halves, each on its own kernel.  Both
kernels are semiseparable and symmetric: for a <= c, beta(a, c) = u_a v_c
and eta(a, c) = w_a v_c with u_a = a + 1, w_a = a and v_c = d - c, so
B + H has the factors (u + w, v) and B - H the factors (u - w, v).  One
genus step is then one forward running sum over a <= c and one backward
running sum over a > c per half, in O(d) exact integer operations instead
of d^2 kernel entries.  The factors are read from census.beta_eta_closed,
the kernel's one definition: (u_a, w_a) is its value at (a, d - 1) and v_c
the balanced count at (0, c), 2d calls per prime.  tests/test_recursion.py
keeps the dense double loop over beta_eta_closed on (even, odd) as the
oracle for the step.

even and odd are (T + delta) / 2 and (T - delta) / 2, and the division is
exact: T = delta = d - c at genus one, and u + w = u - w + 2w, so the two
kernels agree modulo 2 entry by entry and each step keeps T - delta even.
The argument uses only how the kernels are built from u, w and v, so it
holds whatever values beta_eta_closed returns.

Each prime has one growing ladder (the private _ladder): its factors and
the rows built so far.  dim_table(p, gmax) extends the ladder only when it
is shorter than gmax and returns a DimTable of exactly gmax rows, so a table
cut from a longer ladder still refuses g > gmax.  A larger gmax for a prime
already seen costs only the missing genus steps.  dim_table keeps its own
(p, gmax) cache although the ladder would serve every request: the
benchmark reads that cache's hit ratio.

The signed half's kernel B - H is d - max(a, c); an equivalent reordered
form splits it as (d - a) plus a correction over a < c.  delta_direct and
delta_split write those kernels out from d alone and take each genus in
O(d) prefix sums of their own: delta_direct as
(d - c) sum_{a<=c} cur_a + sum_{a>c} (d - a) cur_a, delta_split as
base + S1(c) - c S0(c) with S0, S1 the sums of cur_a and a cur_a over a < c.
Neither reads beta_eta_closed or shares code with dim_table's step, so a
wrong kernel value in beta_eta_closed moves dim_table's signed row and not
theirs, and both stay cross-checks of it; tests/test_recursion.py keeps
their dense double loops as oracles.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, repeat
from operator import add, mul, sub

from .census import beta_eta_closed
from .cyclotomic import Record, _check_color, _check_index, _check_prime, _rank

__all__ = ["DimTable", "delta_direct", "delta_split", "dim_table"]


class DimTable(Record):
    """Coloring counts for one prime, all genera up to gmax, stored as the
    two halves the recursion steps: totals[g-1][c] = even + odd and
    deltas[g-1][c] = even - odd at genus g and trunk half-color c,
    0 <= c <= d-1.  Tables compare by identity, as every record does:
    compare their rows.

    The even and odd counts are (total + delta) / 2 and (total - delta) / 2,
    exact because total and delta have the same parity in every cell: they
    are equal at genus one, and the two kernels, with factors u + w and
    u - w, agree modulo 2 entry by entry, so each step keeps
    total - delta even.  That argument reads only how the kernels are
    built, not the values of u and w, so a wrong kernel value still gives
    whole counts.
    """

    __slots__ = ("p", "gmax", "totals", "deltas")

    @property
    def d(self) -> int:
        return (self.p - 1) // 2

    def _cell(self, g: int, c: int) -> tuple[int, int]:
        # dim_table tested p, so a cell read tests only the genus and color
        _check_index(g, top=self.gmax)
        _check_color(self.p, c)
        return self.totals[g - 1][c], self.deltas[g - 1][c]

    def n_even(self, g: int, c: int) -> int:
        t, s = self._cell(g, c)
        return (t + s) // 2

    def n_odd(self, g: int, c: int) -> int:
        t, s = self._cell(g, c)
        return (t - s) // 2

    def total(self, g: int, c: int) -> int:
        return self._cell(g, c)[0]

    def delta(self, g: int, c: int) -> int:
        """even - odd."""
        return self._cell(g, c)[1]

    def rows(self):
        """Yield (g, c, even, odd, total, delta) over the whole table."""
        for g, (row_t, row_s) in enumerate(zip(self.totals, self.deltas), 1):
            for c, (t, s) in enumerate(zip(row_t, row_s)):
                yield g, c, (t + s) // 2, (t - s) // 2, t, s


def _step(f: tuple, v: tuple, vr: tuple, x: tuple) -> tuple:
    """K x for the symmetric kernel K(a, c) = f_min(a,c) v_max(a,c): v_c
    times the forward sum of f_a x_a over a <= c, plus f_c times the
    backward sum of v_a x_a over a > c.  vr is v[:0:-1], cut once per
    prime."""
    lo = accumulate(map(mul, f, x))
    hi = list(accumulate(map(mul, vr, x[:0:-1]), initial=0))
    return tuple(map(add, map(mul, v, lo), map(mul, f, reversed(hi))))


# Bounded: verify's hits are at most 8 primes back.  The tables benchmark's
# fits re-read the prime of a large table it drew first 17-19 primes back; a
# bound that kept those hits would also keep the largest ladders alive to the
# end (0.09-0.15 MB more tracemalloc peak at 20) to save a few genus steps.
@lru_cache(maxsize=16)
def _ladder(p: int) -> tuple[tuple, list]:
    """((u + w, u - w, v, v[:0:-1]), rows) for prime p: the two kernels'
    factors, from one read of the kernel factors, and the list of
    (total, delta) rows built so far, genus one first."""
    d = (p - 1) // 2
    u, w = zip(*(beta_eta_closed(p, a, d - 1) for a in range(d)))
    v = tuple(beta_eta_closed(p, 0, c)[0] for c in range(d))
    factors = tuple(map(add, u, w)), tuple(map(sub, u, w)), v, v[:0:-1]
    return factors, [(v, v)]  # genus one: d - c colorings, all even


# Bounded: a hit is at most 8 tables back, in verify's poly suite.  The ladder
# alone would serve every request, but perfbench/layers.py reads this cache's
# cache_info() for the dim_table hit ratio, so the (p, gmax) cache stays.
# Typed, so that 13.0 or gmax 2.0 is refused whether or not (13, 2) is cached.
@lru_cache(maxsize=16, typed=True)
def dim_table(p: int, gmax: int) -> DimTable:
    """The count table for prime p up to genus gmax: exactly gmax rows of p's
    ladder, which grows first if it is too short."""
    _check_prime(p)
    _check_index(gmax, name="gmax")
    (plus, minus, v, vr), rows = _ladder(p)
    while len(rows) < gmax:
        t, s = rows[-1]
        rows.append((_step(plus, v, vr, t), _step(minus, v, vr, s)))
    totals, deltas = zip(*rows[:gmax])
    return DimTable(p, gmax, totals, deltas)


def delta_direct(p: int, g: int) -> tuple[int, ...]:
    """delta for all c via the collapsed kernel d - max(a, c)."""
    d = _rank(p)
    _check_index(g)
    cur = tuple(d - c for c in range(d))
    for _ in range(g - 1):
        # below[c] = sum_{a<=c} cur_a; above[c] = sum_{a>c} (d - a) cur_a
        below = accumulate(cur)
        above = list(accumulate(map(mul, range(1, d), cur[:0:-1]), initial=0))
        cur = tuple(map(add, map(mul, range(d, 0, -1), below), reversed(above)))
    return cur


def delta_split(p: int, g: int) -> tuple[int, ...]:
    """Same recursion with the kernel split as (d - a) plus an a < c correction."""
    d = _rank(p)
    _check_index(g)
    cur = tuple(d - c for c in range(d))
    for _ in range(g - 1):
        base = sum(map(mul, range(d, 0, -1), cur))
        # s0[c] = sum_{a<c} cur_a and s1[c] = sum_{a<c} a cur_a
        s0 = accumulate(cur, initial=0)
        s1 = accumulate(map(mul, range(d), cur), initial=0)
        # cur[c] = base + s1[c] - c s0[c]; the map over range(d) stops at c = d - 1
        cur = tuple(map(sub, map(add, repeat(base), s1), map(mul, range(d), s0)))
    return cur
