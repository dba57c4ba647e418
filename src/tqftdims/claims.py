"""Named cross-checks between the four routes, each written once.

A claim returns ``(text, ok)``: the sentence ``tqftdims verify`` prints
after PASS or FAIL, and whether it held.  Per-prime claims take ``p``,
and those that cap the genus at gmax ``(p, gmax)``; polynomial claims
take ``g``, and the Bernoulli claim nothing.  ``SUITES`` runs them
in verify's order; ``tests/test_acceptance.py`` calls them directly.
"""

from __future__ import annotations

from . import census, fusion, polylab, recursion
from .cyclotomic import CycNum, inverse_run, quantum_int, run

Claim = tuple[str, bool]


def census_matches_recursion(p: int, gmax: int) -> Claim:
    d = (p - 1) // 2
    gcap = min(gmax, 4)
    while census.state_estimate(p, gcap) > census.STATE_GUARD and gcap > 1:
        gcap -= 1
    table = recursion.dim_table(p, gcap)
    ok = all(
        census.count_parities(p, g, c) == (table.n_even(g, c), table.n_odd(g, c))
        for g in range(1, gcap + 1)
        for c in range(d)
    )
    return f"coloring census matches the transfer recursion (p={p}, g<={gcap})", ok


def census_parity_convention(p: int) -> Claim:
    d = (p - 1) // 2
    ok = all(census.count_parities(p, 1, c)[1] == 0 for c in range(d))
    ok = ok and census.count_parities(p, 2, 0)[1] == 0
    return f"no odd colorings at genus one or at (g, c) = (2, 0) (p={p})", ok


def two_point_closed_forms(p: int) -> Claim:
    d = (p - 1) // 2
    ok = all(
        census.beta_eta_bruteforce(p, c1, c2) == census.beta_eta_closed(p, c1, c2)
        for c1 in range(d)
        for c2 in range(d)
    )
    return f"two-point balanced/unbalanced closed forms match enumeration (p={p})", ok


def _reproduces_table(p: int, gcap: int, delta, total) -> bool:
    table = recursion.dim_table(p, gcap)
    return all(
        delta(p, g, c) == table.delta(g, c) and total(p, g, c) == table.total(g, c)
        for g in range(1, gcap + 1)
        for c in range((p - 1) // 2)
    )


def matrix_powers(p: int, gmax: int) -> Claim:
    gcap = min(gmax, 8)
    ok = _reproduces_table(p, gcap, fusion.delta_via_matrix, fusion.total_via_matrix)
    return f"matrix powers reproduce signed and total counts (p={p}, g<={gcap})", ok


def galois_sums(p: int, gmax: int) -> Claim:
    gcap = min(gmax, 8)
    ok = _reproduces_table(p, gcap, fusion.galois_sum_delta, fusion.galois_sum_total)
    return f"galois sums reproduce signed and total counts (p={p}, g<={gcap})", ok


def s_matrix_square(p: int) -> Claim:
    s = fusion.smatrix(p)
    ok = s * s == fusion.FusionMatrix.identity(p) * (-p)
    return f"S-matrix squares to -p times the identity (p={p})", ok


def z_diagonalization(p: int) -> Claim:
    # -p M_z == S Q S: the same statement with every entry in Z[zeta_p]
    s = fusion.smatrix(p)
    ok = fusion.mul_matrix_even(fusion.cheb_vector(p, 1)) * (-p) == s * fusion.qmatrix(p) * s
    return f"multiplication by z diagonalizes as -(1/p) S Q S (p={p})", ok


def ladder_fold(p: int) -> Claim:
    d = (p - 1) // 2
    ok = all(
        fusion.cheb_vector(p, d + i).coords == fusion.cheb_vector(p, d - 1 - i).coords
        for i in range(d)
    )
    return f"ladder fold symmetry across the quotient relation (p={p})", ok


def alternating_eigenvalues(p: int) -> Claim:
    lam = fusion.alternating_eigenvalue(p)
    # det(M - x I) = (-1)^d chi(x), and chi is read from the integer M alone.
    # chi has integer coefficients, so chi(sigma(lam)) = sigma(chi(lam)) for
    # every Galois map sigma: chi(lam) = 0 decides all d conjugates
    # sigma_(2j+1)(lam) at once.
    chi = fusion.mul_matrix_even(fusion.alternating_element(p)).charpoly()
    acc = CycNum.scalar(p, 0)
    for c in chi:
        acc = acc * lam + c
    ok = not acc
    return f"alternating eigenvalue family annihilates its matrix (p={p})", ok


def structure_constants(p: int) -> Claim:
    d = (p - 1) // 2
    ok = True
    for i in range(d):
        # column j holds the even coordinates of e_(2i) e_(2j)
        rows = fusion.mul_matrix_even(fusion.cheb_vector(p, 2 * i)).entries
        for j in range(d):
            for k in range(d):
                admissible = (
                    abs(2 * i - 2 * j) <= 2 * k <= 2 * i + 2 * j
                    and 2 * i + 2 * j + 2 * k <= 2 * p - 4
                )
                if rows[k][j] != (1 if admissible else 0):
                    ok = False
    return f"even structure constants are 0/1 and encode admissibility (p={p})", ok


def leading_terms(g: int) -> Claim:
    try:
        report = polylab.leading_term_report(g)
        ok = bool(report) and all(report.values())
    except polylab.LeadingTermError:
        ok = False
    return f"interpolated polynomials satisfy the leading-term claims (g={g})", ok


def residue_route(g: int) -> Claim:
    ok = polylab.residue_total_poly(g) == polylab.interpolate_total(g)
    return f"residue construction equals interpolation for totals (g={g})", ok


def bernoulli_identity() -> Claim:
    ok = all(polylab.bern_identity_check(g) for g in range(11))
    return "alternating binomial Bernoulli identity holds for g<=10", ok


def hopf_valuation(p: int) -> Claim:
    d = (p - 1) // 2
    cert = fusion.hopf_certificate(p)
    ok = cert.valuation == d * (d - 1) // 2 and cert.unit_norm in (1, -1)
    return f"twist Vandermonde determinant has valuation d(d-1)/2 with unit cofactor (p={p})", ok


def quantum_integer_units(p: int) -> Claim:
    # [n] is the run (1 - n, n, 2); an integral inverse proves it a unit.
    ok = all(quantum_int(p, n) * run(p, *inverse_run(p, 1 - n, n, 2)) == 1 for n in range(1, p))
    return f"quantum integers are units (p={p})", ok


def _each_prime(capped=(), plain=()):
    """Per prime: the genus-capped claims get (p, gmax), then the rest get p."""
    return lambda primes, gmax: [
        result
        for p in primes
        for result in [claim(p, gmax) for claim in capped] + [claim(p) for claim in plain]
    ]


def _poly_suite(primes, gmax: int) -> list[Claim]:
    genera = range(2, min(gmax, 4) + 1)
    out = [claim(g) for g in genera for claim in (leading_terms, residue_route)]
    return out + [bernoulli_identity()]


#: Suite name -> function of (primes, gmax) returning its claims in order.
SUITES = {
    "census": _each_prime(
        capped=(census_matches_recursion,),
        plain=(census_parity_convention, two_point_closed_forms),
    ),
    "fusion": _each_prime(
        capped=(matrix_powers, galois_sums),
        plain=(s_matrix_square, z_diagonalization, ladder_fold,
               alternating_eigenvalues, structure_constants),
    ),
    "poly": _poly_suite,
    "hopf": _each_prime(plain=(hopf_valuation, quantum_integer_units)),
}
