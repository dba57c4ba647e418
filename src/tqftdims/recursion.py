"""Genus-by-genus transfer recursion for even/odd coloring counts.

Appending one lollipop to a tree of genus g multiplies counts through the
balanced/unbalanced two-point numbers beta and eta: a balanced splice
preserves parity, an unbalanced one flips it.  Base case: genus one has
d - c colorings, all even.

The signed difference delta = even - odd collapses the pair of recursions
to a single one with kernel d - max(a, c); an equivalent reordered form
splits that kernel as (d - a) plus a correction over a < c.  Both are kept
as cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


# Bounded: a hit is at most 8 tables back, in verify's poly suite.
@lru_cache(maxsize=16)
def dim_table(p: int, gmax: int) -> DimTable:
    """Build the count table for prime p up to genus gmax."""
    _check_prime(p)
    if gmax < 1:
        raise ValueError(f"gmax must be >= 1, got {gmax}")
    d = (p - 1) // 2
    evens = [tuple(d - c for c in range(d))]
    odds = [tuple(0 for _ in range(d))]
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


def delta_direct(p: int, g: int) -> tuple[int, ...]:
    """delta for all c via the collapsed kernel d - max(a, c)."""
    _check_prime(p)
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    d = (p - 1) // 2
    cur = tuple(d - c for c in range(d))
    for _ in range(g - 1):
        cur = tuple(
            sum((d - max(a, c)) * cur[a] for a in range(d)) for c in range(d)
        )
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
        cur = tuple(
            base + sum((a - c) * cur[a] for a in range(c)) for c in range(d)
        )
    return cur
