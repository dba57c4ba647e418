#!/usr/bin/env python3
"""Scan the two observed patterns in the signed-count polynomials.

For each genus: (i) does every monomial P^m C^n with m > 0 have m odd, and
(ii) is the C = 0 specialization divisible by P(P^2 - 1)/24?  When (ii)
holds, print the exact quotient.

Example:
    python scripts/conjecture_scan.py --gmax 8
"""

import argparse

from tqftdims.polylab import conjecture_scan


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gmin", type=int, default=2)
    ap.add_argument("--gmax", type=int, default=8)
    ns = ap.parse_args()

    for g in range(ns.gmin, ns.gmax + 1):
        scan = conjecture_scan(g)
        print(
            f"g={g}: odd_P_powers_only={scan.no_positive_even_p_powers} "
            f"base_divisible={scan.base_quotient is not None}"
        )
        if scan.base_quotient is not None:
            print(f"      quotient at C=0: {scan.base_quotient.canonical_str()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
