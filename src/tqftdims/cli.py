"""Command-line interface.

Subcommands:
  dims        exact count table for one prime
  census      brute-force coloring counts, optionally streaming colorings
  poly        canonical polynomial output (interpolation or residue route)
  verify      run the claims of tqftdims.claims and report PASS/FAIL per claim
  hopf        twist Vandermonde determinant valuation and unit certificate
  quadruple   the four p=5 counts (even/odd at trunk colors 0 and 2) per genus

verify runs the same claim functions as tests/test_acceptance.py.

Exit codes: 0 success, 1 verification failure (including an internal
ArithmeticError, reported as one line) or stdout closed by its reader
(a broken pipe, reported by nothing), 2 invalid input, 3 refused by a
size guard (census, dims, hopf, poly, quadruple or verify) or by a genus
too deep for the census walk to recurse.
All output is exact and deterministic.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from collections.abc import Iterable

from . import census, claims, fusion, polylab, recursion
from .cyclotomic import _check_color, _check_index, _check_order, _check_prime

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_GUARD = 3

DIM_COLUMNS = ["p", "g", "c", "fe", "fo", "D", "delta"]


# -- size guards ---------------------------------------------------------------


class _Refusal(Exception):
    """A size guard stops a command before its first output line; main
    reports `refusing <command>: <reason>` on stderr and exits 3."""


def _guard(ns, reason: str | None) -> None:
    """Refuse for `reason`, a guard that --force lifts, unless it is None or
    --force was passed.  Only these refusals offer --force."""
    if reason and not ns.force:
        raise _Refusal(f"{reason}; pass --force to override")


#: Fitted growth of a `dims` run's peak resident size over start-up, in bytes
#: per cell of the table plus one row of per-prime factors, and per digit of
#: the digit bound.  Rows stream, so every format peaks alike; at the sizes
#: the fit used, each estimate is at least 1.12 times the measured growth.
DIMS_BYTES = (115, 1.0)
#: Estimated growth, in MiB, above which `dims` refuses.
DIMS_GUARD_MIB = 256
#: Largest prime `hopf` certifies without --force, and the largest `verify`
#: takes in its --p-list.  Fitted to `hopf` when U and U^-1 were built whole
#: (3 s at 167); checking each of the under 3p/2 run shapes against its
#: inverse run instead takes about 0.004 s there (README.md).  It was not
#: fitted to `verify`: `verify --p-list 167` is accepted and takes
#: 0.32-0.34 s as one command, since the S-matrix claims read S's formula
#: (README.md; min and median of 5 subprocess runs, shared 2-core Xeon
#: x86-64, Python 3.11.7).
HOPF_GUARD_P = 167
#: Largest genus `poly` computes without --force, per method: about 1 s in
#: process each (best of 3, shared 2-core x86-64, Python 3.11).
#: `interpolate_total` took 0.76 s at g = 25 and 1.53 s at 30 (the delta fit,
#: 0.26 s at 25, is cheaper), and `residue_total_poly` 0.89 s at g = 125 and
#: 1.34 s at 140.  Nothing bounds either run but the genus.
POLY_GUARD_G = {"interpolate": 25, "residue": 125}


def _dims_digits(p: int, gmax: int) -> tuple[float, float]:
    """Upper bounds on the decimal digits of a count at genus gmax, and on
    those digits summed over the table's gmax * d cells.  By the sine form
    every count at genus g is at most d (p/4)^(g-1) / sin(pi/p)^(2g-1), whose
    digits grow linearly in g.  A p or gmax too large for a float makes
    both bounds inf, which every limit refuses."""
    d = (p - 1) // 2
    try:
        s = -math.log10(math.sin(math.pi / p))
        top_1 = 1 + math.log10(d) + s  # digit bound at genus 1
        slope = math.log10(p / 4) + 2 * s
        return top_1 + slope * (gmax - 1), d * gmax * (top_1 + slope * (gmax - 1) / 2)
    except OverflowError:
        return math.inf, math.inf


def _dims_refusal(ns) -> str | None:
    """Why `dims` is too big to run, or None if the guard lets it through.
    It tests no primality, so a huge p is refused before its trial division."""
    d = (_check_order(ns.p) - 1) // 2
    _check_index(ns.gmax, name="gmax")
    cells = d * ns.gmax
    top, digits = _dims_digits(ns.p, ns.gmax)
    per_cell, per_digit = DIMS_BYTES
    try:
        mib = (per_cell * (cells + d) + per_digit * digits) / 2**20
    except OverflowError:  # a cell count too large for a float
        mib = math.inf
    if mib > DIMS_GUARD_MIB:
        return f"estimated peak of {mib:.3g} MiB exceeds {DIMS_GUARD_MIB} MiB"
    return _text_refusal(top)


def _text_refusal(top: float) -> str | None:
    """Why counts of about `top` digits cannot be printed, or None if they can.
    A limit of 0 is no limit."""
    limit = sys.get_int_max_str_digits()
    if limit and top > limit:
        return f"counts reach about {top:.0f} digits, over the {limit} Python converts to text"
    return None


# -- row emission --------------------------------------------------------------


def _dims_row(p: int, g: int, c: int, fe: int, fo: int) -> dict:
    """One row of DIM_COLUMNS: the even and odd counts at (p, g, c), their
    total D and their difference delta."""
    return {"p": p, "g": g, "c": c, "fe": fe, "fo": fo, "D": fe + fo, "delta": fe - fo}


def _emit_rows(rows: Iterable[dict], cols: list[str], fmt: str) -> None:
    """Format and write rows one at a time, building no list of rows and no
    whole json string."""
    if fmt == "json":
        # Imported here, as in _cmd_poly: only a json format loads json.
        import json

        # The bytes of json.dumps(list(rows)) under its default separators.
        write = sys.stdout.write
        sep = ""
        write("[")
        for row in rows:
            write(sep + json.dumps(row))
            sep = ", "
        write("]\n")
        return
    sep = "," if fmt == "csv" else " "
    print(sep.join(cols))
    for row in rows:
        print(sep.join(str(row[c]) for c in cols))


# -- subcommands ----------------------------------------------------------------


def _cmd_dims(ns) -> int:
    _guard(ns, _dims_refusal(ns))
    p = ns.p
    table = recursion.dim_table(p, ns.gmax)
    # --force lifts the estimate but cannot lift the int-to-text limit.  D
    # grows with g and bounds fe, fo and |delta|, so the largest D at gmax is
    # the largest count, tested exactly before the first row.  0 is no limit.
    limit = sys.get_int_max_str_digits()
    if limit and max(table.total(ns.gmax, c) for c in range(table.d)) >= 10**limit:
        raise _Refusal(f"counts pass the {limit}-digit int-to-text limit")
    rows = (_dims_row(p, g, c, fe, fo) for g, c, fe, fo, _total, _delta in table.rows())
    _emit_rows(rows, DIM_COLUMNS, ns.format)
    return EXIT_OK


def _cmd_census(ns) -> int:
    if ns.list and ns.format != "text":
        raise ValueError(f"--list streams text records; --format {ns.format} formats counts only")
    # The guard runs before the primality test, so a huge p is refused at
    # once; a bad genus (state_estimate's door) or color is still invalid
    # input, checked first.
    if census.state_estimate(_check_order(ns.p), ns.g) > census.STATE_GUARD:
        _check_color(ns.p, ns.c)
        _guard(ns, f"estimated search states exceed {census.STATE_GUARD}")
    if ns.list:
        records = census._records(ns.p, ns.g, ns.c)
        # The first chunk validates the input; every tree has a coloring and
        # every record lies at the walk's full depth, so a walk too deep to
        # recurse fails here too, before any output.
        first = next(records)
        # Two writes per line, text then "\n", as print makes them: a sink
        # that counts lines by write call sees the same calls.
        write = sys.stdout.write
        write("g;c;ab;e;parity")
        write("\n")
        for chunk in itertools.chain((first,), records):
            for text in chunk:
                write(text)
                write("\n")
        return EXIT_OK
    fe, fo = census.count_parities(ns.p, ns.g, ns.c)
    if ns.format == "text":
        print(f"fe={fe} fo={fo}")
    else:
        _emit_rows([_dims_row(ns.p, ns.g, ns.c, fe, fo)], DIM_COLUMNS, ns.format)
    return EXIT_OK


def _cmd_poly(ns) -> int:
    if ns.method == "residue" and ns.emit != "D":
        raise ValueError("the residue route only produces the total-count polynomial")
    # The guard runs before any fit or series; a genus below 1 is still
    # invalid input, which the routes reject.
    if ns.g > POLY_GUARD_G[ns.method]:
        _guard(ns, f"g={ns.g} exceeds {POLY_GUARD_G[ns.method]} for --method {ns.method}")
    if ns.method == "residue":
        poly = polylab.residue_total_poly(ns.g)
    elif ns.emit == "delta":
        poly = polylab.interpolate_delta(ns.g)
    else:
        poly = polylab.interpolate_total(ns.g)
    if ns.format == "json":
        import json

        print(json.dumps(poly.to_json_obj()))
    else:
        print(poly.canonical_str())
    return EXIT_OK


def _cmd_hopf(ns) -> int:
    # The guard runs before hopf_certificate tests p for primality.
    if _check_order(ns.p) > HOPF_GUARD_P:
        _guard(ns, f"p={ns.p} exceeds {HOPF_GUARD_P}")
    # hopf_certificate returns only a certified determinant, valuation
    # d(d-1)/2 and unit norm 1; it raises ArithmeticError, exit 1, otherwise.
    cert = fusion.hopf_certificate(ns.p)
    d = (ns.p - 1) // 2
    print(
        f"p={ns.p} valuation={cert.valuation} expected={d * (d - 1) // 2} "
        f"unit_norm={cert.unit_norm} certified=yes"
    )
    return EXIT_OK


def _cmd_quadruple(ns) -> int:
    _check_index(ns.gmin, top=_check_index(ns.gmax, name="gmax"), name="gmin")
    refusal = _text_refusal(_dims_digits(5, ns.gmax)[0])
    if refusal:
        raise _Refusal(refusal)
    table = recursion.dim_table(5, ns.gmax)
    rows = (
        {
            "g": g,
            "fe0": table.n_even(g, 0),
            "fe2": table.n_even(g, 1),
            "fo2": table.n_odd(g, 1),
            "fo0": table.n_odd(g, 0),
        }
        for g in range(ns.gmin, ns.gmax + 1)
    )
    _emit_rows(rows, ["g", "fe0", "fe2", "fo2", "fo0"], ns.format)
    return EXIT_OK


def _cmd_verify(ns) -> int:
    # The bound runs before the primality test, so a huge p is refused at
    # once; verify takes no prime that hopf would refuse without --force.
    orders = [_check_order(int(x)) for x in ns.p_list.split(",") if x]
    for p in orders:
        if p > HOPF_GUARD_P:
            raise _Refusal(f"p={p} exceeds {HOPF_GUARD_P}")
    primes = [_check_prime(p) for p in orders]
    if not primes and ns.suite != "poly":
        raise ValueError("--p-list names no prime")
    _check_index(ns.gmax, name="gmax")
    # Every claim runs before the first line is printed, so an exception
    # leaves stdout empty.
    checks = []
    for name, suite in claims.SUITES.items():
        if ns.suite in ("all", name):
            checks += suite(primes, ns.gmax)
    for text, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {text}")
    failures = sum(not ok for _text, ok in checks)
    print(f"checked {len(checks)} claims, {failures} failures")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


# -- entry point ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tqftdims",
        description="Exact even/odd dimension counts by census, recursion, "
        "matrix powers, and Galois sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dims = sub.add_parser("dims", help="exact count table for one prime")
    p_dims.add_argument("--p", type=int, required=True)
    p_dims.add_argument("--gmax", type=int, default=3)
    p_dims.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_dims.add_argument("--force", action="store_true", help="override the size guard")
    p_dims.set_defaults(func=_cmd_dims)

    p_census = sub.add_parser("census", help="brute-force coloring census")
    p_census.add_argument("--p", type=int, required=True)
    p_census.add_argument("--g", type=int, required=True)
    p_census.add_argument("--c", type=int, required=True)
    p_census.add_argument("--list", action="store_true", help="stream coloring records")
    p_census.add_argument("--force", action="store_true", help="override the size guard")
    p_census.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_census.set_defaults(func=_cmd_census)

    p_poly = sub.add_parser("poly", help="canonical count polynomial in P and C")
    p_poly.add_argument("--g", type=int, required=True)
    p_poly.add_argument("--emit", choices=("delta", "D"), required=True)
    p_poly.add_argument("--method", choices=("interpolate", "residue"), default="interpolate")
    p_poly.add_argument("--format", choices=("text", "json"), default="text")
    p_poly.add_argument("--force", action="store_true", help="override the size guard")
    p_poly.set_defaults(func=_cmd_poly)

    p_verify = sub.add_parser("verify", help="run cross-checks, report PASS/FAIL")
    p_verify.add_argument("--suite", choices=("all", *claims.SUITES), default="all")
    p_verify.add_argument("--p-list", default="5,7,11,13")
    p_verify.add_argument("--gmax", type=int, default=4)
    p_verify.set_defaults(func=_cmd_verify)

    p_hopf = sub.add_parser("hopf", help="twist Vandermonde valuation certificate")
    p_hopf.add_argument("--p", type=int, required=True)
    p_hopf.add_argument("--force", action="store_true", help="override the size guard")
    p_hopf.set_defaults(func=_cmd_hopf)

    p_quad = sub.add_parser(
        "quadruple", help="even/odd counts at p=5 for trunk colors 0 and 2"
    )
    p_quad.add_argument("--gmin", type=int, default=4)
    p_quad.add_argument("--gmax", type=int, default=8)
    p_quad.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_quad.set_defaults(func=_cmd_quadruple)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        code = ns.func(ns)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader stopped early (`census --list | head`).  Point stdout at
        # devnull so the interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_VERIFY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _Refusal as exc:
        print(f"refusing {ns.command}: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except RecursionError:
        # Only the census walks recurse, once per genus: too big to run.
        print("refusing census: the genus is deeper than the walk can recurse", file=sys.stderr)
        return EXIT_GUARD
    except ArithmeticError as exc:
        # An exact invariant failed inside the program (a census parity
        # invariant, a Hopf cofactor that is not a unit, a route
        # disagreement): a verification failure, not a crash.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    raise SystemExit(main())
