"""Command-line interface.

Subcommands:
  dims        exact count table for one prime
  census      brute-force coloring counts, optionally streaming colorings
  poly        canonical polynomial output (interpolation or residue route)
  verify      run named cross-checks and report PASS/FAIL per claim
  hopf        twist Vandermonde determinant valuation and unit certificate
  quadruple   the four p=5 counts (even/odd at trunk colors 0 and 2) per genus

Exit codes: 0 success, 1 verification failure (including an internal
ArithmeticError, reported as one line), 2 invalid input, 3 refused by the
census size guard.  All exact output is deterministic; the optional
float columns are display-only and never influence exit codes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import census, fusion, polylab, recursion
from .cyclotomic import CycNum, galois, is_prime, norm, quantum_int

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_GUARD = 3

STATE_GUARD = 10**9

DIM_COLUMNS = ["p", "g", "c", "fe", "fo", "D", "delta"]


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class Config:
    """Validated run parameters shared by the subcommands."""

    primes: tuple[int, ...] = ()
    gmax: int = 1
    c_filter: int | None = None
    fmt: str = "text"
    suite: str = "all"
    float_display: bool = False

    def __post_init__(self) -> None:
        for p in self.primes:
            if not is_prime(p) or p < 5:
                raise UsageError(f"p must be a prime >= 5, got {p}")
        if self.gmax < 1:
            raise UsageError(f"gmax must be >= 1, got {self.gmax}")
        if self.c_filter is not None and self.c_filter < 0:
            raise UsageError(f"half-color filter must be >= 0, got {self.c_filter}")
        if self.fmt not in ("text", "csv", "json"):
            raise UsageError(f"unknown format {self.fmt!r}")
        if self.suite not in ("all", "census", "fusion", "poly", "hopf"):
            raise UsageError(f"unknown suite {self.suite!r}")


# -- float display helpers (never on an exit-code path) -----------------------


def _sine_eigenvalues(p: int, g: int):
    d = (p - 1) // 2
    lams = []
    for j in range(1, d + 1):
        lam = math.ceil((p - 1) / 4)
        for k in range(1, d):
            lam += 2 * (-1) ** k * math.ceil((p - 2 * k - 1) / 4) * math.cos(
                2 * math.pi * k * j / p
            )
        lams.append(lam**g)
    return lams


def delta_float(p: int, g: int, c: int) -> float:
    """Signed count from the sine form; display-only sanity value."""
    d = (p - 1) // 2
    lams = _sine_eigenvalues(p, g)
    acc = 0.0
    for j in range(1, d + 1):
        acc += math.sin(math.pi * j * (2 * c + 1) / p) * math.sin(math.pi * j / p) * lams[j - 1]
    return (-1) ** c * 4.0 * acc / p


def total_float(p: int, g: int, c: int) -> float:
    """Total count from the sine form; display-only sanity value."""
    d = (p - 1) // 2
    acc = 0.0
    for j in range(1, d + 1):
        acc += math.sin(math.pi * j * (2 * c + 1) / p) * math.sin(math.pi * j / p) ** (
            1 - 2 * g
        )
    return (p / 4.0) ** (g - 1) * acc


# -- row emission --------------------------------------------------------------


def _emit_rows(rows: list[dict], cols: list[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(rows))
        return
    sep = "," if fmt == "csv" else " "
    print(sep.join(cols))
    for row in rows:
        print(sep.join(str(row[c]) for c in cols))


# -- subcommands ----------------------------------------------------------------


def _cmd_dims(ns) -> int:
    cfg = Config(primes=(ns.p,), gmax=ns.gmax, fmt=ns.format, float_display=ns.float_display)
    p = cfg.primes[0]
    table = recursion.dim_table(p, cfg.gmax)
    cols = list(DIM_COLUMNS)
    if cfg.float_display:
        cols += ["delta_sine", "D_sine"]
    rows = []
    for g, c, fe, fo, total, delta in table.rows():
        row = {"p": p, "g": g, "c": c, "fe": fe, "fo": fo, "D": total, "delta": delta}
        if cfg.float_display:
            row["delta_sine"] = f"{delta_float(p, g, c):.6f}"
            row["D_sine"] = f"{total_float(p, g, c):.6f}"
        rows.append(row)
    _emit_rows(rows, cols, cfg.fmt)
    return EXIT_OK


def _cmd_census(ns) -> int:
    cfg = Config(primes=(ns.p,), gmax=max(ns.g, 1), c_filter=ns.c, fmt=ns.format)
    try:
        tree = census.LollipopTree(ns.p, ns.g, ns.c)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    estimate = census.state_estimate(ns.p, ns.g)
    if estimate > STATE_GUARD and not ns.force:
        print(
            f"refusing census: estimated {estimate} search states exceeds "
            f"{STATE_GUARD}; pass --force to override",
            file=sys.stderr,
        )
        return EXIT_GUARD
    if ns.list:
        print("g;c;ab;e;parity")
        for record in census._records(tree.p, tree.g, tree.c):
            print(record)
        return EXIT_OK
    fe, fo = census.count_parities(tree.p, tree.g, tree.c)
    if cfg.fmt == "text":
        print(f"fe={fe} fo={fo}")
    else:
        row = {
            "p": tree.p,
            "g": tree.g,
            "c": tree.c,
            "fe": fe,
            "fo": fo,
            "D": fe + fo,
            "delta": fe - fo,
        }
        _emit_rows([row], DIM_COLUMNS, cfg.fmt)
    return EXIT_OK


def _cmd_poly(ns) -> int:
    if ns.g < 1:
        raise UsageError(f"genus must be >= 1, got {ns.g}")
    if ns.method == "residue":
        if ns.emit != "D":
            raise UsageError("the residue route only produces the total-count polynomial")
        if ns.g < 2:
            raise UsageError("the residue route requires g >= 2")
        poly = polylab.residue_total_poly(ns.g)
    elif ns.emit == "delta":
        poly = polylab.interpolate_delta(ns.g)
    else:
        poly = polylab.interpolate_total(ns.g)
    if ns.format == "json":
        print(json.dumps(poly.to_json_obj()))
    else:
        print(poly.canonical_str())
    return EXIT_OK


def _cmd_hopf(ns) -> int:
    Config(primes=(ns.p,))
    cert = fusion.hopf_certificate(ns.p)
    d = (ns.p - 1) // 2
    expected = d * (d - 1) // 2
    ok = cert.valuation == expected
    print(
        f"p={ns.p} valuation={cert.valuation} expected={expected} "
        f"unit_norm={cert.unit_norm} certified={'yes' if ok else 'no'}"
    )
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_quadruple(ns) -> int:
    if ns.gmin < 1 or ns.gmax < ns.gmin:
        raise UsageError("need 1 <= gmin <= gmax")
    cfg = Config(primes=(5,), gmax=ns.gmax, fmt=ns.format)
    table = recursion.dim_table(5, ns.gmax)
    rows = []
    for g in range(ns.gmin, ns.gmax + 1):
        rows.append(
            {
                "g": g,
                "fe0": table.n_even(g, 0),
                "fe2": table.n_even(g, 1),
                "fo2": table.n_odd(g, 1),
                "fo0": table.n_odd(g, 0),
            }
        )
    _emit_rows(rows, ["g", "fe0", "fe2", "fo2", "fo0"], cfg.fmt)
    return EXIT_OK


# -- verification suites ----------------------------------------------------------


def _check_census(p: int, gmax: int) -> list[tuple[str, bool]]:
    out = []
    d = (p - 1) // 2
    gcap = min(gmax, 4)
    while census.state_estimate(p, gcap) > STATE_GUARD and gcap > 1:
        gcap -= 1
    table = recursion.dim_table(p, gcap)
    ok = all(
        census.count_parities(p, g, c) == (table.n_even(g, c), table.n_odd(g, c))
        for g in range(1, gcap + 1)
        for c in range(d)
    )
    out.append((f"coloring census matches the transfer recursion (p={p}, g<={gcap})", ok))
    ok = all(census.count_parities(p, 1, c)[1] == 0 for c in range(d))
    ok = ok and census.count_parities(p, 2, 0)[1] == 0
    out.append((f"no odd colorings at genus one or at (g, c) = (2, 0) (p={p})", ok))
    ok = all(
        census.beta_eta_bruteforce(p, c1, c2) == census.beta_eta_closed(p, c1, c2)
        for c1 in range(d)
        for c2 in range(d)
    )
    out.append((f"two-point balanced/unbalanced closed forms match enumeration (p={p})", ok))
    return out


def _check_fusion(p: int, gmax: int) -> list[tuple[str, bool]]:
    out = []
    d = (p - 1) // 2
    gcap = min(gmax, 8)
    table = recursion.dim_table(p, gcap)
    ok = all(
        fusion.delta_via_matrix(p, g, c) == table.delta(g, c)
        and fusion.total_via_matrix(p, g, c) == table.total(g, c)
        for g in range(1, gcap + 1)
        for c in range(d)
    )
    out.append((f"matrix powers reproduce signed and total counts (p={p}, g<={gcap})", ok))
    ok = all(
        fusion.galois_sum_delta(p, g, c) == table.delta(g, c)
        and fusion.galois_sum_total(p, g, c) == table.total(g, c)
        for g in range(1, gcap + 1)
        for c in range(d)
    )
    out.append((f"galois sums reproduce signed and total counts (p={p}, g<={gcap})", ok))
    s = fusion.smatrix(p)
    minus_p = fusion.FusionMatrix.identity(p) * (-p)
    out.append((f"S-matrix squares to -p times the identity (p={p})", s * s == minus_p))
    z = fusion.cheb_vector(p, 1)
    rhs = (s * fusion.qmatrix(p) * s) * Fraction(-1, p)
    out.append(
        (
            f"multiplication by z diagonalizes as -(1/p) S Q S (p={p})",
            fusion.mul_matrix_even(z) == rhs,
        )
    )
    ok = all(
        fusion.cheb_vector(p, d + i).coords == fusion.cheb_vector(p, d - 1 - i).coords
        for i in range(d)
    )
    out.append((f"ladder fold symmetry across the quotient relation (p={p})", ok))
    lam = fusion.alternating_eigenvalue(p)
    mat = fusion.mul_matrix_even(fusion.alternating_element(p))
    ident = fusion.FusionMatrix.identity(p)
    ok = True
    for j in range(d):
        lam_j = galois(lam, 2 * j + 1)
        shifted = fusion.FusionMatrix(
            p,
            tuple(
                tuple(
                    CycNum.scalar(p, mat.entries[r][s_]) - (lam_j if r == s_ else 0)
                    for s_ in range(d)
                )
                for r in range(d)
            ),
        )
        if shifted.det():
            ok = False
            break
    out.append((f"alternating eigenvalue family annihilates its matrix (p={p})", ok))
    ok = True
    for i in range(d):
        for j in range(d):
            coords = (fusion.cheb_vector(p, 2 * i) * fusion.cheb_vector(p, 2 * j)).even_coords()
            for k in range(d):
                admissible = (
                    abs(2 * i - 2 * j) <= 2 * k <= 2 * i + 2 * j
                    and 2 * i + 2 * j + 2 * k <= 2 * p - 4
                )
                if coords[k] != (1 if admissible else 0):
                    ok = False
    out.append((f"even structure constants are 0/1 and encode admissibility (p={p})", ok))
    return out


def _check_poly(gmax: int) -> list[tuple[str, bool]]:
    out = []
    for g in range(2, min(gmax, 4) + 1):
        try:
            polylab.leading_term_report(g)
            ok = True
        except polylab.LeadingTermError:
            ok = False
        out.append((f"interpolated polynomials satisfy the leading-term claims (g={g})", ok))
        out.append(
            (
                f"residue construction equals interpolation for totals (g={g})",
                polylab.residue_total_poly(g) == polylab.interpolate_total(g),
            )
        )
    out.append(
        (
            "alternating binomial Bernoulli identity holds for g<=10",
            all(polylab.bern_identity_check(g) for g in range(11)),
        )
    )
    return out


def _check_hopf(p: int) -> list[tuple[str, bool]]:
    out = []
    d = (p - 1) // 2
    cert = fusion.hopf_certificate(p)
    out.append(
        (
            f"twist Vandermonde determinant has valuation d(d-1)/2 with unit cofactor (p={p})",
            cert.valuation == d * (d - 1) // 2 and cert.unit_norm in (1, -1),
        )
    )
    ok = all(norm(quantum_int(p, n)) in (1, -1) for n in range(1, p))
    out.append((f"quantum integers are units (p={p})", ok))
    return out


def _cmd_verify(ns) -> int:
    primes = tuple(int(x) for x in ns.p_list.split(",") if x)
    cfg = Config(primes=primes, gmax=ns.gmax, suite=ns.suite)
    checks: list[tuple[str, bool]] = []
    if cfg.suite in ("all", "census"):
        for p in cfg.primes:
            checks.extend(_check_census(p, cfg.gmax))
    if cfg.suite in ("all", "fusion"):
        for p in cfg.primes:
            checks.extend(_check_fusion(p, cfg.gmax))
    if cfg.suite in ("all", "poly"):
        checks.extend(_check_poly(cfg.gmax))
    if cfg.suite in ("all", "hopf"):
        for p in cfg.primes:
            checks.extend(_check_hopf(p))
    failures = 0
    for claim, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {claim}")
        failures += 0 if ok else 1
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
    p_dims.add_argument("--float-display", action="store_true")
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
    p_poly.set_defaults(func=_cmd_poly)

    p_verify = sub.add_parser("verify", help="run cross-checks, report PASS/FAIL")
    p_verify.add_argument(
        "--suite", choices=("all", "census", "fusion", "poly", "hopf"), default="all"
    )
    p_verify.add_argument("--p-list", default="5,7,11,13")
    p_verify.add_argument("--gmax", type=int, default=4)
    p_verify.set_defaults(func=_cmd_verify)

    p_hopf = sub.add_parser("hopf", help="twist Vandermonde valuation certificate")
    p_hopf.add_argument("--p", type=int, required=True)
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
        return ns.func(ns)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        # An exact invariant failed inside the program (a census parity
        # invariant, a non-integral Bareiss quotient, a route disagreement):
        # a verification failure, not a crash.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    raise SystemExit(main())
