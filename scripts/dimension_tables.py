#!/usr/bin/env python3
"""Print even/odd count tables for several primes side by side.

Example:
    python scripts/dimension_tables.py --primes 5,7,11 --gmax 5 --c 0
"""

import argparse

from tqftdims.recursion import delta_direct, dim_table


def _checked_delta(t, g: int, c: int) -> int:
    """even - odd from the table, cross-checked against the collapsed signed
    recursion; ArithmeticError if the two disagree."""
    val = t.delta(g, c)
    direct = delta_direct(t.p, g)[c]
    if direct != val:
        raise ArithmeticError(
            f"signed recursion disagrees at p={t.p}, g={g}, c={c}: {direct} vs {val}"
        )
    return val


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--primes", default="5,7,11,13", help="comma-separated primes >= 5")
    ap.add_argument("--gmax", type=int, default=6)
    ap.add_argument("--c", type=int, default=0, help="trunk half-color")
    ap.add_argument(
        "--quantity",
        choices=("even", "odd", "total", "delta"),
        default="delta",
    )
    ns = ap.parse_args()
    primes = [int(x) for x in ns.primes.split(",") if x]

    tables = {p: dim_table(p, ns.gmax) for p in primes}
    pick = {
        "even": lambda t, g: t.n_even(g, ns.c),
        "odd": lambda t, g: t.n_odd(g, ns.c),
        "total": lambda t, g: t.total(g, ns.c),
        "delta": lambda t, g: _checked_delta(t, g, ns.c),
    }[ns.quantity]

    header = ["g"] + [f"p={p}" for p in primes]
    widths = [max(len(h), 12) for h in header]
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for g in range(1, ns.gmax + 1):
        cells = [str(g)]
        for p in primes:
            if ns.c <= (p - 3) // 2:
                cells.append(str(pick(tables[p], g)))
            else:
                cells.append("-")
        print("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
