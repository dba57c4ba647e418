#!/usr/bin/env python3
"""Print the interpolated count polynomials and their verified leading terms.

Each leading-term claim prints as "verified: <claim>" when it holds and
"FAILED: <claim>" when it does not; the script exits 1 if any claim failed,
so it can serve as a check.

Example:
    python scripts/leading_terms.py --gmax 4
"""

import argparse
from fractions import Fraction

from tqftdims.polylab import (
    interpolate_delta,
    interpolate_total,
    leading_term_report,
    normalized_bernoulli,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gmin", type=int, default=2)
    ap.add_argument("--gmax", type=int, default=4)
    ap.add_argument("--full", action="store_true", help="print whole polynomials")
    ns = ap.parse_args()

    failed = False
    for g in range(ns.gmin, ns.gmax + 1):
        dpoly = interpolate_delta(g)
        tpoly = interpolate_total(g)
        print(f"== genus {g} ==")
        if ns.full:
            print(f"signed: {dpoly.canonical_str()}")
            print(f"total:  {tpoly.canonical_str()}")
        lead = 4 * (2 ** (2 * g) - 1) * normalized_bernoulli(g)
        print(
            f"degrees: signed {dpoly.total_degree()}, total {tpoly.total_degree()}; "
            f"signed P-leading coefficient {lead}"
        )
        if g >= 3:
            b = normalized_bernoulli(g - 1)
            print(f"even/odd P^{3 * g - 3} coefficient: ({b})C + {Fraction(b, 2)}")
        for claim, ok in leading_term_report(g).items():
            print(f"  {'verified' if ok else 'FAILED'}: {claim}")
            failed = failed or not ok
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
