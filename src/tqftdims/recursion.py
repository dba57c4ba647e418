"""Genus-by-genus transfer recursion for even/odd coloring counts.

Appending one lollipop to a tree of genus g multiplies counts through the
balanced/unbalanced two-point numbers beta and eta: a balanced splice
preserves parity, an unbalanced one flips it.  Base case: genus one has
d - c colorings, all even.

The kernels are semiseparable: for a <= c, beta(a, c) = u_a v_c and
eta(a, c) = w_a v_c with u_a = a + 1, w_a = a and v_c = d - c, and both
are symmetric.  So one genus step is four running sums, two forward over
a <= c and two backward over a > c, in O(d) exact integer operations
instead of d^2 kernel entries.  The factors are read from
census.beta_eta_closed, the kernel's one definition: (u_a, w_a) is its
value at (a, d - 1) and v_c the balanced count at (0, c), 2d calls per
prime.  tests/test_recursion.py keeps the dense double loop over
beta_eta_closed as the oracle for the step.

Each prime has one growing ladder (the private _ladder): its factors and
the rows built so far.  dim_table(p, gmax) extends the ladder only when it
is shorter than gmax and returns a DimTable of exactly gmax rows, so a table
cut from a longer ladder still refuses g > gmax.  A larger gmax for a prime
already seen costs only the missing genus steps.  dim_table keeps its own
(p, gmax) cache although the ladder would serve every request: the
benchmark reads that cache's hit ratio.

The signed difference delta = even - odd collapses the pair of recursions
to a single one with kernel d - max(a, c); an equivalent reordered form
splits that kernel as (d - a) plus a correction over a < c.  Each takes a
genus in O(d) prefix sums of its own: delta_direct as
(d - c) sum_{a<=c} cur_a + sum_{a>c} (d - a) cur_a, delta_split as
base + S1(c) - c S0(c) with S0, S1 the sums of cur_a and a cur_a over a < c.
Neither reads beta_eta_closed or shares code with dim_table's step, so both
stay cross-checks of it; tests/test_recursion.py keeps their dense double
loops as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import add, mul

from .census import beta_eta_closed
from .cyclotomic import _check_color, _check_prime

__all__ = ["DimTable", "delta_direct", "delta_split", "dim_table"]


@dataclass(frozen=True)
class DimTable:
    """Even/odd coloring counts for one prime, all genera up to gmax.

    even[g-1][c] and odd[g-1][c] hold the counts for genus g and trunk
    half-color c, 0 <= c <= d-1.
    """

    p: int
    gmax: int
    even: tuple[tuple[int, ...], ...]
    odd: tuple[tuple[int, ...], ...]

    @property
    def d(self) -> int:
        return (self.p - 1) // 2

    def _check(self, g: int, c: int) -> None:
        if not 1 <= g <= self.gmax:
            raise ValueError(f"genus must lie in 1..{self.gmax}, got {g}")
        _check_color(self.p, c)

    def n_even(self, g: int, c: int) -> int:
        self._check(g, c)
        return self.even[g - 1][c]

    def n_odd(self, g: int, c: int) -> int:
        self._check(g, c)
        return self.odd[g - 1][c]

    def total(self, g: int, c: int) -> int:
        return self.n_even(g, c) + self.n_odd(g, c)

    def delta(self, g: int, c: int, verify: bool = False) -> int:
        """even - odd; with verify=True recompute it by the collapsed
        signed recursion and insist the two answers agree."""
        val = self.n_even(g, c) - self.n_odd(g, c)
        if verify:
            direct = delta_direct(self.p, g)[c]
            if direct != val:
                raise ArithmeticError(
                    f"signed recursion disagrees at p={self.p}, g={g}, c={c}: "
                    f"{direct} vs {val}"
                )
        return val

    def rows(self):
        """Yield (g, c, even, odd, total, delta) over the whole table."""
        for g in range(1, self.gmax + 1):
            for c in range(self.d):
                fe = self.even[g - 1][c]
                fo = self.odd[g - 1][c]
                yield g, c, fe, fo, fe + fo, fe - fo


# Bounded: verify's hits are at most 8 primes back.  The tables benchmark's
# fits re-read the prime of a large table it drew first 17-19 primes back; a
# bound that kept those hits would also keep the largest ladders alive to the
# end (0.09-0.15 MB more tracemalloc peak at 20) to save a few genus steps.
@lru_cache(maxsize=16)
def _ladder(p: int) -> tuple[tuple, list]:
    """((u, w, v), rows) for prime p: the kernel factors, read once, and the
    list of (even, odd) rows built so far, genus one first."""
    d = (p - 1) // 2
    u, w = zip(*(beta_eta_closed(p, a, d - 1) for a in range(d)))
    v = tuple(beta_eta_closed(p, 0, c)[0] for c in range(d))
    return (u, w, v), [(v, (0,) * d)]  # genus one: d - c colorings, all even


# Bounded: a hit is at most 8 tables back, in verify's poly suite.  The ladder
# alone would serve every request, but perfbench/layers.py reads this cache's
# cache_info() for the dim_table hit ratio, so the (p, gmax) cache stays.
@lru_cache(maxsize=16)
def dim_table(p: int, gmax: int) -> DimTable:
    """The count table for prime p up to genus gmax: exactly gmax rows of p's
    ladder, which grows first if it is too short."""
    _check_prime(p)
    if gmax < 1:
        raise ValueError(f"gmax must be >= 1, got {gmax}")
    (u, w, v), rows = _ladder(p)
    while len(rows) < gmax:
        e, o = rows[-1]
        # Forward sums over a <= c, then backward sums over a > c.
        lo_e = accumulate(map(add, map(mul, u, e), map(mul, w, o)))
        lo_o = accumulate(map(add, map(mul, u, o), map(mul, w, e)))
        hi_e = list(accumulate(map(mul, v[:0:-1], e[:0:-1]), initial=0))[::-1]
        hi_o = list(accumulate(map(mul, v[:0:-1], o[:0:-1]), initial=0))[::-1]
        even = tuple(
            vc * le + uc * he + wc * ho
            for vc, uc, wc, le, he, ho in zip(v, u, w, lo_e, hi_e, hi_o)
        )
        odd = tuple(
            vc * lo + uc * ho + wc * he
            for vc, uc, wc, lo, he, ho in zip(v, u, w, lo_o, hi_e, hi_o)
        )
        rows.append((even, odd))
    evens, odds = zip(*rows[:gmax])
    return DimTable(p, gmax, evens, odds)


def delta_direct(p: int, g: int) -> tuple[int, ...]:
    """delta for all c via the collapsed kernel d - max(a, c)."""
    _check_prime(p)
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    d = (p - 1) // 2
    cur = tuple(d - c for c in range(d))
    for _ in range(g - 1):
        # below[c] = sum_{a<=c} cur_a; above[c] = sum_{a>c} (d - a) cur_a
        below = accumulate(cur)
        above = list(accumulate((a * x for a, x in zip(range(1, d), cur[:0:-1])), initial=0))
        cur = tuple((d - c) * lo + hi for c, lo, hi in zip(range(d), below, reversed(above)))
    return cur


def delta_split(p: int, g: int) -> tuple[int, ...]:
    """Same recursion with the kernel split as (d - a) plus an a < c correction."""
    _check_prime(p)
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    d = (p - 1) // 2
    cur = tuple(d - c for c in range(d))
    for _ in range(g - 1):
        base = sum((d - a) * cur[a] for a in range(d))
        # s0[c] = sum_{a<c} cur_a and s1[c] = sum_{a<c} a cur_a
        s0 = accumulate(cur, initial=0)
        s1 = accumulate(map(mul, range(d), cur), initial=0)
        cur = tuple(base + t1 - c * t0 for c, t0, t1 in zip(range(d), s0, s1))
    return cur
