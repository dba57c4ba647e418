"""Named cross-checks between the four routes, each written once.

A claim returns ``(text, ok)``: the sentence ``tqftdims verify`` prints
after PASS or FAIL, and whether it held.  Per-prime claims take ``p``,
and those that cap the genus at gmax ``(p, gmax)``; polynomial claims
take ``g``, and the Bernoulli claim nothing.  ``SUITES`` runs them
in verify's order; ``tests/test_acceptance.py`` calls them directly.
"""

from __future__ import annotations

from itertools import islice
from operator import sub

from . import census, cyclotomic, fusion, polylab, recursion
from .cyclotomic import _check_index, _check_prime, _rank, inverse_run

Claim = tuple[str, bool]


def census_matches_recursion(p: int, gmax: int) -> Claim:
    d = _rank(p)
    gcap = min(_check_index(gmax, name="gmax"), 4)
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
    d = _rank(p)
    ok = all(census.count_parities(p, 1, c)[1] == 0 for c in range(d))
    ok = ok and census.count_parities(p, 2, 0)[1] == 0
    return f"no odd colorings at genus one or at (g, c) = (2, 0) (p={p})", ok


def two_point_closed_forms(p: int) -> Claim:
    d = _rank(p)
    ok = all(
        census.beta_eta_bruteforce(p, c1, c2) == census.beta_eta_closed(p, c1, c2)
        for c1 in range(d)
        for c2 in range(d)
    )
    return f"two-point balanced/unbalanced closed forms match enumeration (p={p})", ok


def matrix_powers(p: int, gmax: int) -> Claim:
    """M^g e_0 equals the table's signed and total counts for g = 1..gcap.

    Both routes step the same matrices, so they agree at every genus.  The
    table steps its totals T_g and signed counts delta_g by the transfer
    kernels, T_(g+1) = (B + H) T_g and delta_(g+1) = (B - H) delta_g, with B
    and H the balanced and unbalanced two-point counts.  In the even basis
    these kernels are the fusion matrices, entry for entry: B + H = M_count,
    the multiplication matrix of the counting element, and B - H = D M_alt D,
    with M_alt that of the alternating element and D = diag((-1)^c); they
    read (2 min(a, c) + 1)(d - max(a, c)) and d - max(a, c)
    (tests/test_fusion.py checks this at every prime below 200).  Genus one
    is column 0 of M_count, T_1 = d - c = M_count e_0, so by induction
    T_g = M_count^g e_0 at every g >= 1.  As D e_0 = e_0 and D D = I,
    delta_1 = D M_alt D e_0 and delta_g = D M_alt^g e_0: the alternating
    side's signs (-1)^c.  The comparison below, capped at g <= 8, checks the
    two programs against each other; the induction needs no window.
    """
    gcap = min(_check_index(gmax, name="gmax"), 8)
    rows = recursion.dim_table(p, gcap).rows()
    # M^g e_0 holds (-1)^c delta for the alternating element and the total
    # for the counting one: rows 1..gcap of both tables, in one equality
    want = [((-1) ** c * delta, total) for _g, c, _fe, _fo, total, delta in rows]
    alt, cnt = (fusion._power_table(p, gcap, counting)[1:] for counting in (False, True))
    ok = [cell for a, t in zip(alt, cnt) for cell in zip(a, t)] == want
    return f"matrix powers reproduce signed and total counts (p={p}, g<={gcap})", ok


def galois_sums(p: int, gmax: int) -> Claim:
    gcap = min(_check_index(gmax, name="gmax"), 8)
    rows = recursion.dim_table(p, gcap).rows()
    ok = all(
        fusion.galois_sum_delta(p, g, c) == delta and fusion.galois_sum_total(p, g, c) == total
        for g, c, _fe, _fo, total, delta in rows
    )
    return f"galois sums reproduce signed and total counts (p={p}, g<={gcap})", ok


# -- S's identities, read from its formula --------------------------------------
#
# S_ij = zeta^(a_i a_j) - zeta^(-a_i a_j) with a_i = 2i + 1, i, j = 0..d-1.  No
# entry of S is built: each claim expands its products by this formula, over
# elements of Z[zeta_p] held unfolded (cyclotomic's unfolded elements).


def _exponents(p: int) -> list[int]:
    """a_i = 2i + 1 for i = 0..d-1, after the prime check every claim makes."""
    return list(range(1, 2 * _rank(p), 2))


def _g_sums(p: int, a) -> list[list[int]]:
    """G(m) = sum_k (zeta^(a_k m) + zeta^(-a_k m)), unfolded, for m = 0..p-1."""
    return [
        cyclotomic._unfolded(p, [(e, 1) for ak in a for e in (ak * m, -ak * m)]) for m in range(p)
    ]


def s_matrix_square(p: int) -> Claim:
    """S S = -p I.  With A = a_i + a_j and B = a_i - a_j,
    S_ik S_kj = zeta^(a_k A) + zeta^(-a_k A) - zeta^(a_k B) - zeta^(-a_k B),
    so (S S)_ij = G(A) - G(B), which must name -p if i = j and 0 otherwise."""
    a = _exponents(p)
    g = _g_sums(p, a)
    ok = all(
        cyclotomic._names(g[(ai + aj) % p], g[(ai - aj) % p], -p if i == j else 0)
        for i, ai in enumerate(a)
        for j, aj in enumerate(a)
    )
    return f"S-matrix squares to -p times the identity (p={p})", ok


def z_diagonalization(p: int) -> Claim:
    """-p M_z = S Q S, for M_z the integer matrix of z = e_1 and Q the diagonal
    of z-eigenvalues Q_k = -(zeta^(a_k) + zeta^(-a_k)).  Multiplying S_ik S_kj
    (s_matrix_square) by zeta^(a_k) + zeta^(-a_k) moves each exponent a_k m to
    a_k (m + 1) and a_k (m - 1), so
    (S Q S)_ij = -(G(A + 1) + G(A - 1) - G(B + 1) - G(B - 1)), and
    p (M_z)_ij must name G(A + 1) + G(A - 1) - G(B + 1) - G(B - 1)."""
    a = _exponents(p)
    g = _g_sums(p, a)
    # h[m] = G(m + 1) + G(m - 1)
    h = [[x + y for x, y in zip(g[(m + 1) % p], g[m - 1])] for m in range(p)]
    mz = fusion.mul_matrix_even(fusion.cheb_vector(p, 1)).entries
    ok = all(
        cyclotomic._names(h[(ai + aj) % p], h[(ai - aj) % p], p * mz[i][j])
        for i, ai in enumerate(a)
        for j, aj in enumerate(a)
    )
    return f"multiplication by z diagonalizes as -(1/p) S Q S (p={p})", ok


def ladder_fold(p: int) -> Claim:
    d = _rank(p)
    # e_0..e_(2d-1) from one ladder walk: e_(d+i) must fold to e_(d-1-i)
    steps = list(islice(fusion._ladder(p, [1] + [0] * (d - 1)), 2 * d))
    ok = steps[d:] == steps[d - 1 :: -1]
    return f"ladder fold symmetry across the quotient relation (p={p})", ok


def alternating_eigenvalues(p: int) -> Claim:
    """M s = lambda s: lambda = alternating_eigenvalue(p) is an eigenvalue of M,
    the integer matrix of the alternating element, with eigenvector s, column 0
    of S: s_k = zeta^(a_k) - zeta^(-a_k), and s_0 = zeta - zeta^-1 != 0.

    So lambda is a root of chi(x) = det(x I - M), as the claim's text
    says.  M is integral, so applying sigma_j gives
    M sigma_j(s) = sigma_j(lambda) sigma_j(s) with sigma_j(s) != 0: every
    conjugate sigma_(2j+1)(lambda) is an eigenvalue too, and the family
    annihilates chi."""
    a = _exponents(p)
    mat = fusion.mul_matrix_even(fusion.alternating_element(p)).entries
    lam = cyclotomic._unfold(fusion.alternating_eigenvalue(p))

    def s_sum(coeffs) -> list[int]:
        """sum_k c_k s_k, unfolded."""
        terms = [t for ak, c in zip(a, coeffs) for t in ((ak, c), (-ak, -c))]
        return cyclotomic._unfolded(p, terms)

    # s_0 != 0, and row r of M s names lambda s_r = (zeta^(a_r) - zeta^(-a_r)) lambda
    lam_s = [list(map(sub, cyclotomic._rotate(lam, ar), cyclotomic._rotate(lam, -ar))) for ar in a]
    ok = not cyclotomic._names(s_sum([1]), s_sum([])) and all(
        cyclotomic._names(s_sum(row), lam_sr) for row, lam_sr in zip(mat, lam_s)
    )
    return f"alternating eigenvalue family annihilates its matrix (p={p})", ok


def _admissible_column(d: int, i: int, j: int) -> tuple[int, ...]:
    """k -> 1 if (2i, 2j, 2k) is admissible, else 0, for k = 0..d-1: a run of
    ones over |i - j| <= k <= min(i + j, p - 2 - i - j), p = 2d + 1."""
    lo, hi = abs(i - j), min(i + j, 2 * d - 1 - i - j)
    return (0,) * lo + (1,) * (hi + 1 - lo) + (0,) * (d - 1 - hi)


def structure_constants(p: int) -> Claim:
    e0 = fusion.cheb_vector(p, 0).coords
    d = len(e0)
    # e_0, e_2, ..., e_(2d-2) from one ladder walk; column j of the matrix of
    # e_(2i) holds the even coordinates of e_(2i) e_(2j)
    ok = all(
        list(zip(*fusion.mul_matrix_even(fusion.FusionElement(p, tuple(e2i))).entries))
        == [_admissible_column(d, i, j) for j in range(d)]
        for i, e2i in enumerate(fusion._even_steps(p, e0))
    )
    return f"even structure constants are 0/1 and encode admissibility (p={p})", ok


def leading_terms(g: int) -> Claim:
    ok = all(polylab.leading_term_report(g).values())
    return f"interpolated polynomials satisfy the leading-term claims (g={g})", ok


def residue_route(g: int) -> Claim:
    ok = polylab.residue_total_poly(g) == polylab.interpolate_total(g)
    return f"residue construction equals interpolation for totals (g={g})", ok


def bernoulli_identity() -> Claim:
    ok = all(polylab.bern_identity_check(g) for g in range(11))
    return "alternating binomial Bernoulli identity holds for g<=10", ok


def hopf_valuation(p: int) -> Claim:
    d = _rank(p)
    cert = fusion.hopf_certificate(p)
    ok = cert.valuation == d * (d - 1) // 2 and cert.unit_norm == 1
    return f"twist Vandermonde determinant has valuation d(d-1)/2 with unit cofactor (p={p})", ok


def quantum_integer_units(p: int) -> Claim:
    # [n] is the run (1 - n, n, 2); an integral inverse run proves it a unit,
    # checked packed, as hopf_certificate checks its cofactor's runs.
    ok = all(
        cyclotomic._runs_multiply_to_one(p, (1 - n, n, 2), inverse_run(p, 1 - n, n, 2))
        for n in range(1, _check_prime(p))
    )
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
