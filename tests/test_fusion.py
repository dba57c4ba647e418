"""Fusion quotient linear algebra: folds, matrices, eigenvalues, Galois sums."""

import itertools
import math
import random
import sys
import types

import pytest
from conftest import clear_caches
from hypothesis import given, settings
from hypothesis import strategies as st

from tqftdims import census, claims, cyclotomic, fusion, polylab, recursion
from tqftdims.cli import main
from tqftdims.cyclotomic import CycNum, galois, is_prime, norm, quantum_int
from tqftdims.fusion import (
    FusionElement,
    FusionMatrix,
    alternating_eigenvalue,
    alternating_element,
    cheb_vector,
    counting_eigenvalue,
    counting_element,
    delta_via_matrix,
    even_basis_permutation,
    galois_sum_delta,
    galois_sum_total,
    hopf_certificate,
    mul_matrix_even,
    total_via_matrix,
)
from tqftdims.recursion import dim_table

PRIMES = (5, 7, 11, 13)
# The primes 5..61 and two beyond, up to the hopf bound 167.
VERLINDE_PRIMES = tuple(p for p in range(5, 62) if is_prime(p)) + (101, 167)


# -- oracles: z-step, mat-vec and weighted sum as loops, ladder product, S and
# -- Q matrices with their termwise product, Bareiss determinant, twist
# -- Vandermonde matrix -----------------------------------------------------------


def _sparse_mul_by_z(vec):
    """z * x by scattering each nonzero coordinate of x to its neighbours,
    folding e_d back to e_(d-1), d = len(vec); the oracle for
    fusion._mul_by_z's shifted sum."""
    d = len(vec)
    out = [0] * d
    for k, c in enumerate(vec):
        if not c:
            continue
        if k == 0:
            out[1] += c
        elif k < d - 1:
            out[k - 1] += c
            out[k + 1] += c
        else:
            out[d - 2] += c
            out[d - 1] += c
    return out


def _index_sum_apply(m, vec):
    """M x by an index loop per row; the oracle for FusionMatrix.apply."""
    return tuple(sum(row[i] * vec[i] for i in range(m.size)) for row in m.entries)


def _ladder_weighted_sum(p, sign):
    """sum over n of sign^n (d - n) e_{2n}, every e_{2n} walked from e_0 with
    _sparse_mul_by_z and summed in whole; the oracle for the weighted sums
    that fusion places through even_basis_permutation."""
    d = (p - 1) // 2
    acc = [0] * d
    prev, cur = None, [1] + [0] * (d - 1)
    for i in range(2 * d - 1):
        if i % 2 == 0:
            w = sign ** (i // 2) * (d - i // 2)
            acc = [a + w * x for a, x in zip(acc, cur)]
        nxt = _sparse_mul_by_z(cur)
        if prev is not None:
            nxt = [a - b for a, b in zip(nxt, prev)]
        prev, cur = cur, nxt
    return tuple(acc)


def _product(x, y):
    """x * y in the quotient, by expanding x along the ladder of y:
    sum_i x_i e_i y.  The program's one product is mul_matrix_even; this is
    the oracle it is checked against."""
    d = len(x.coords)
    out = [0] * d
    for xi, cur in zip(x.coords, fusion._ladder(y.coords)):
        for k in range(d):
            out[k] += xi * cur[k]
    return FusionElement(x.p, tuple(out))


def _even_coords(x):
    """x's coordinates over the reordered basis e_0, e_2, ..., e_(2d-2)."""
    return tuple(x.coords[k] for k in even_basis_permutation(x.p))


def _smatrix(p):
    """S_ij = q^((2i+1)(2j+1)) - q^(-(2i+1)(2j+1)) with q = zeta_p, built
    entry by entry; the claims read this formula without building S."""
    d = (p - 1) // 2
    return [
        [cyclotomic.run(p, (2 * i + 1) * (2 * j + 1), 1, 1)
         - cyclotomic.run(p, -(2 * i + 1) * (2 * j + 1), 1, 1)
         for j in range(d)]
        for i in range(d)
    ]


def _qmatrix(p):
    """Diagonal matrix of the z-eigenvalues -q^(2j+1) - q^(-(2j+1))."""
    d = (p - 1) // 2
    zero = CycNum(p, [0])
    return [
        [-(cyclotomic.run(p, 2 * j + 1, 1, 1) + cyclotomic.run(p, -(2 * j + 1), 1, 1))
         if i == j else zero
         for i in range(d)]
        for j in range(d)
    ]


def _matmul(a, b):
    """The termwise product of two square matrices of CycNum entries."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _scaled(p, rows, n):
    """n times a matrix of integer entries, as CycNum entries."""
    return [[CycNum(p, [n * e]) for e in row] for row in rows]


def _identity(p):
    d = (p - 1) // 2
    return FusionMatrix(p, tuple(tuple(int(i == j) for i in range(d)) for j in range(d)))


def _exact_quotient(num, adj, n):
    """num / y in Z[zeta_p], given adj(y) and N(y): num * adj(y) divided
    coordinate by coordinate by N(y).  A remainder raises ArithmeticError."""
    coords = []
    for a in cyclotomic._int_mul(num.p, num.num, adj):
        q, rem = divmod(a, n)
        if rem:
            raise ArithmeticError("Bareiss quotient left the ring of integers")
        coords.append(q)
    return CycNum(num.p, coords)


def _bareiss_det(m):
    """Fraction-free (Bareiss) determinant over Z[zeta_p]; int entries are
    read as scalars.

    Each step divides exactly by the previous pivot, through its adjugate
    and norm, built once per step.  The quotients are minors of the input,
    so each must stay in Z[zeta_p]; one that does not raises ArithmeticError.
    """
    p, n = m.p, m.size
    mat = [[e if isinstance(e, CycNum) else CycNum(p, [e]) for e in row] for row in m.entries]
    sign = 1
    prev = None
    for k in range(n - 1):
        if not mat[k][k]:
            swap = next((i for i in range(k + 1, n) if mat[i][k]), None)
            if swap is None:
                return CycNum(p, [0])
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        pivot = mat[k][k]
        adj_norm = None if prev is None else cyclotomic._adjugate_norm(p, prev.num)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = pivot * mat[i][j] - mat[i][k] * mat[k][j]
                mat[i][j] = num if adj_norm is None else _exact_quotient(num, *adj_norm)
        prev = pivot
    return mat[n - 1][n - 1] * sign


def _hopf_cofactor(p):
    """U = det(H) / h^(d(d-1)/2) as the product of its runs; the certificate
    itself never forms it."""
    return math.prod(cyclotomic.run(p, *run) for run in fusion._cofactor_runs(p))


def _hopf_vandermonde(p):
    """H_{ij} = (-1)^j [j+1] mu_j^i with twist eigenvalues
    mu_j = zeta^((d+1) j (j+2)), for i, j = 0..d-1."""
    d = (p - 1) // 2
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            entry = quantum_int(p, j + 1) * cyclotomic.run(p, (d + 1) * j * (j + 2) * i, 1, 1)
            row.append(-entry if j % 2 else entry)
        rows.append(tuple(row))
    return FusionMatrix(p, tuple(rows))


@pytest.mark.parametrize("p", PRIMES)
def test_ladder_folds_back(p):
    d = (p - 1) // 2
    for i in range(d):
        assert cheb_vector(p, d + i).coords == cheb_vector(p, d - 1 - i).coords
    # past the folded block the ladder hits zero, then restarts negated
    assert cheb_vector(p, 2 * d).coords == tuple(0 for _ in range(d))
    assert cheb_vector(p, 2 * d + 1).coords == tuple(-x for x in cheb_vector(p, 0).coords)


@pytest.mark.parametrize("p", VERLINDE_PRIMES)
def test_ladder_fold_claim_walks_once(monkeypatch, p):
    # one walk of 2d steps, 2d - 1 z-steps; a walk from e_0 per step took
    # d(2d - 1).  Dropping the top fold e_d -> e_(d-1) fails the claim.
    steps = []
    true_step = fusion._mul_by_z

    def counted(vec):
        steps.append(vec)
        return true_step(vec)

    monkeypatch.setattr(fusion, "_mul_by_z", counted)
    text = f"ladder fold symmetry across the quotient relation (p={p})"
    assert claims.ladder_fold(p) == (text, True)
    assert len(steps) == p - 2

    def misfolded(vec):
        out = true_step(vec)
        out[-1] -= vec[-1]
        return out

    monkeypatch.setattr(fusion, "_mul_by_z", misfolded)
    assert claims.ladder_fold(p) == (text, False)


def test_even_basis_permutation_frozen():
    assert even_basis_permutation(5) == (0, 1)
    assert even_basis_permutation(7) == (0, 2, 1)
    assert even_basis_permutation(11) == (0, 2, 4, 3, 1)
    assert even_basis_permutation(13) == (0, 2, 4, 5, 3, 1)


def test_even_basis_targets_are_a_permutation():
    """The targets 2j (when 2j <= d - 1) and 2d - 1 - 2j (otherwise), over
    j = 0..d-1, are a permutation of 0..d-1.

    2j over 2j <= d - 1 is every even number in 0..d-1, once.  2d - 1 - 2j over
    d <= 2j <= 2d - 2 is odd, lies in 1..d-1 and falls as j rises, and there
    are floor(d/2) such j and floor(d/2) odd numbers in 0..d-1: every one, once.
    """
    for d in range(1, 200):
        targets = [2 * j if 2 * j <= d - 1 else 2 * d - 1 - 2 * j for j in range(d)]
        assert sorted(targets) == list(range(d)), d


@pytest.mark.parametrize("p", (5, 7, 11))
def test_structure_constants_encode_admissibility(p):
    d = (p - 1) // 2
    for i in range(d):
        for j in range(d):
            coords = _even_coords(_product(cheb_vector(p, 2 * i), cheb_vector(p, 2 * j)))
            for k in range(d):
                fits = (
                    abs(2 * i - 2 * j) <= 2 * k <= 2 * i + 2 * j
                    and 2 * (i + j + k) <= 2 * p - 4
                )
                assert coords[k] == (1 if fits else 0)


def _column_matrix(x):
    """mul_matrix_even built column by column: column i is x * e_{2i}, each
    e_{2i} walked from e_0 on its own."""
    p = x.p
    d = (p - 1) // 2
    cols = [_even_coords(_product(x, cheb_vector(p, 2 * i))) for i in range(d)]
    return FusionMatrix(p, tuple(tuple(cols[i][j] for i in range(d)) for j in range(d)))


@pytest.mark.parametrize("p", [p for p in range(5, 62) if cyclotomic.is_prime(p)])
def test_one_walk_matrix_matches_column_build(p):
    for x in (alternating_element(p), counting_element(p), cheb_vector(p, 1)):
        assert mul_matrix_even(x).entries == _column_matrix(x).entries


@pytest.mark.parametrize("p", [13, 61, 101])
def test_matrix_build_walks_each_ladder_once(cold, monkeypatch, p):
    # A cold build walks two ladders of 2d - 2 z-steps each: the permutation's,
    # which the element's weighted sum reads, and the matrix's own.  Walking
    # every e_{2i} from e_0 on its own, _column_matrix alone makes 2d(d - 1).
    steps = []
    mul_by_z = fusion._mul_by_z

    def counting(vec):
        steps.append(vec)
        return mul_by_z(vec)

    monkeypatch.setattr(fusion, "_mul_by_z", counting)
    d = (p - 1) // 2
    mul_matrix_even(alternating_element(p))
    assert len(steps) == 2 * (2 * d - 2)


ORACLE_PRIMES = tuple(p for p in range(5, 62) if is_prime(p))


def _random_vectors(rng, d, n):
    """n integer vectors of length d, about a third of their entries zero,
    with negatives and multi-digit entries."""
    return [
        [rng.choice((0, rng.randint(-9, 9), rng.randint(-(10**30), 10**30))) for _ in range(d)]
        for _ in range(n)
    ]


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_mul_by_z_matches_sparse_oracle(p):
    # p = 5 (d = 2) is the rank where the top fold lands next to e_0
    d = (p - 1) // 2
    rng = random.Random(p)
    units = [[1 if k == j else 0 for k in range(d)] for j in range(d)]
    for vec in units + _random_vectors(rng, d, 20) + [[0] * d]:
        assert fusion._mul_by_z(vec) == _sparse_mul_by_z(vec)
        assert fusion._mul_by_z(tuple(vec)) == _sparse_mul_by_z(vec)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_apply_matches_index_sum_oracle(p):
    d = (p - 1) // 2
    rng = random.Random(-p)
    mats = [mul_matrix_even(alternating_element(p)), mul_matrix_even(counting_element(p))]
    mats.append(FusionMatrix(p, tuple(map(tuple, _random_vectors(rng, d, d)))))
    for mat in mats:
        for vec in _random_vectors(rng, d, 5) + [[0] * d]:
            assert mat.apply(tuple(vec)) == _index_sum_apply(mat, vec)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_weighted_sums_match_ladder_walk_oracle(p):
    assert alternating_element(p).coords == _ladder_weighted_sum(p, -1)
    assert counting_element(p).coords == _ladder_weighted_sum(p, 1)


@pytest.mark.parametrize("p", (5, 7, 13, 61))
@pytest.mark.parametrize("element", (alternating_element, counting_element))
def test_weighted_sums_refuse_a_misfolded_z_step(cold, monkeypatch, p, element):
    # The z-step drops the fold e_d -> e_(d-1) of the top coordinate.  The
    # weighted sums read no ladder of their own, so they refuse it through
    # the permutation's basis-vector check.
    true_step = fusion._mul_by_z

    def misfolded(vec):
        out = true_step(vec)
        out[-1] -= vec[-1]
        return out

    monkeypatch.setattr(fusion, "_mul_by_z", misfolded)
    with pytest.raises(ArithmeticError, match="not a basis vector"):
        element(p)


def test_product_ring_axioms():
    # the oracle product is commutative and associative, with unit e_0
    p = 7
    x = cheb_vector(p, 2)
    y = cheb_vector(p, 4)
    z = cheb_vector(p, 1)
    assert _product(x, y).coords == _product(y, x).coords
    assert _product(_product(x, y), z).coords == _product(x, _product(y, z)).coords
    one = cheb_vector(p, 0)
    assert _product(x, one).coords == x.coords


def test_element_validation():
    with pytest.raises(ValueError, match="need 2 coordinates for p=5"):
        FusionElement(5, (1,))
    with pytest.raises(ValueError):
        cheb_vector(5, -1)


def test_element_has_no_product_of_its_own():
    # the quotient's one product is the multiplication matrix
    assert not hasattr(FusionElement, "__mul__")
    with pytest.raises(TypeError):
        cheb_vector(5, 1) * cheb_vector(5, 1)


def test_frozen_p5_matrices():
    assert mul_matrix_even(alternating_element(5)).entries == ((2, -1), (-1, 1))
    assert mul_matrix_even(counting_element(5)).entries == ((2, 1), (1, 3))
    m = mul_matrix_even(alternating_element(5))
    assert [m.apply(col) for col in ((2, -1), (-1, 1))] == [(5, -3), (-3, 2)]  # M^2 by columns


def test_counting_element_is_sum_of_squares():
    for p in PRIMES:
        d = (p - 1) // 2
        acc = [0] * d
        for n in range(d):
            e = cheb_vector(p, 2 * n)
            acc = [a + b for a, b in zip(acc, _product(e, e).coords)]
        assert tuple(acc) == counting_element(p).coords


@pytest.mark.parametrize("p", (5, 7, 11))
def test_matrix_routes_match_recursion(p):
    t = dim_table(p, 6)
    for g in range(1, 7):
        for c in range(t.d):
            assert delta_via_matrix(p, g, c) == t.delta(g, c)
            assert total_via_matrix(p, g, c) == t.total(g, c)
            assert galois_sum_delta(p, g, c) == t.delta(g, c)
            assert galois_sum_total(p, g, c) == t.total(g, c)


def test_route_input_validation():
    with pytest.raises(ValueError):
        delta_via_matrix(5, -1, 0)
    with pytest.raises(ValueError):
        total_via_matrix(5, 2, 2)
    with pytest.raises(ValueError):
        galois_sum_delta(5, -1, 0)
    with pytest.raises(ValueError):
        galois_sum_total(5, 1, 7)


@pytest.mark.parametrize("p", PRIMES)
def test_smatrix_squares_to_minus_p(p):
    s = _smatrix(p)
    assert _matmul(s, s) == _scaled(p, _identity(p).entries, -p)


@pytest.mark.parametrize("p", PRIMES)
def test_multiplication_by_z_diagonalizes(p):
    # M_z = -(1/p) S Q S, with every entry kept in Z[zeta_p]
    lhs = _scaled(p, mul_matrix_even(cheb_vector(p, 1)).entries, -p)
    s = _smatrix(p)
    assert lhs == _matmul(_matmul(s, _qmatrix(p)), s)


@pytest.mark.parametrize("p", PRIMES)
def test_alternating_eigenvalue_from_quantum_integers(p):
    # independent identity: the eigenvalue equals
    # sum (-1)^n (d - n) [2n + 1] over n = 0..d-1
    from tqftdims.cyclotomic import quantum_int

    d = (p - 1) // 2
    acc = CycNum(p, [0])
    for n in range(d):
        term = quantum_int(p, 2 * n + 1) * (d - n)
        acc = acc - term if n % 2 else acc + term
    assert acc == alternating_eigenvalue(p)


def test_alternating_eigenvalue_frozen_p5():
    assert alternating_eigenvalue(5) == (
        -(cyclotomic.run(5, 2, 1, 1) + cyclotomic.run(5, 3, 1, 1)) + 1
    )


@pytest.mark.parametrize("p", VERLINDE_PRIMES)
def test_alternating_eigenvalue_is_an_inverse_square(p):
    # The Verlinde form: lambda_alt = [2]^-2.  [2] = q + q^-1 is the run
    # (-1, 2, 2), and its inverse is the run (1, (p + 1)/2, 4).
    assert cyclotomic.inverse_run(p, -1, 2, 2) == (1, (p + 1) // 2, 4)
    inverse_two = cyclotomic.run(p, 1, (p + 1) // 2, 4)
    assert quantum_int(p, 2) * inverse_two == 1
    assert alternating_eigenvalue(p) == inverse_two**2


@pytest.mark.parametrize("p", VERLINDE_PRIMES)
def test_counting_eigenvalue_identity(p):
    q = cyclotomic.run(p, 1, 1, 1)
    h2 = (q - cyclotomic.run(p, -1, 1, 1)) ** 2
    assert counting_eigenvalue(p) * h2 == CycNum(p, [-p])


@pytest.mark.parametrize("p", (5, 7))
def test_smatrix_columns_are_eigenvectors(p):
    d = (p - 1) // 2
    s = _smatrix(p)
    mat = mul_matrix_even(alternating_element(p))
    lam = alternating_eigenvalue(p)
    for j in range(d):
        col = tuple(s[i][j] for i in range(d))
        image = mat.apply(col)
        lam_j = galois(lam, 2 * j + 1)
        for i in range(d):
            assert image[i] == lam_j * col[i]


@pytest.mark.parametrize("p", (5, 7, 11))
def test_eigenvalue_annihilates_characteristic(p):
    d = (p - 1) // 2
    mat = mul_matrix_even(alternating_element(p))
    lam = alternating_eigenvalue(p)
    for j in range(d):
        lam_j = galois(lam, 2 * j + 1)
        shifted = FusionMatrix(
            p,
            tuple(
                tuple(
                    CycNum(p, [mat.entries[r][s]]) - (lam_j if r == s else 0)
                    for s in range(d)
                )
                for r in range(d)
            ),
        )
        assert not _bareiss_det(shifted)


def test_eigenvalue_claim_fails_on_a_shifted_eigenvalue(monkeypatch):
    true_eigenvalue = alternating_eigenvalue
    monkeypatch.setattr(fusion, "alternating_eigenvalue", lambda p: true_eigenvalue(p) + 1)
    for p in (*PRIMES, 61):
        assert claims.alternating_eigenvalues(p)[1] is False


def test_bareiss_determinant_int_cases():
    m = FusionMatrix(5, ((1, 2), (3, 4)))
    assert _bareiss_det(m) == -2
    singular = FusionMatrix(5, ((1, 2), (2, 4)))
    assert _bareiss_det(singular) == 0
    needs_swap = FusionMatrix(7, ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    assert _bareiss_det(needs_swap) == -1
    ident = _identity(11)
    assert _bareiss_det(ident) == 1
    assert _bareiss_det(FusionMatrix(7, ((2, 1, 0), (1, 2, 1), (0, 1, 2)))) == 4


def test_bareiss_determinant_cyclotomic_case():
    z = cyclotomic.run(5, 1, 1, 1)
    zero = CycNum(5, [0])
    one = CycNum(5, [1])
    m = FusionMatrix(5, ((z, one), (one, z)))
    assert _bareiss_det(m) == z * z - 1
    sing = FusionMatrix(5, ((z, z), (z, z)))
    assert not _bareiss_det(sing)
    assert isinstance(_bareiss_det(sing), CycNum)


def test_matrix_shape_errors():
    with pytest.raises(ValueError):
        _identity(5).apply((1, 2, 3))


def test_hopf_vandermonde_first_row():
    for p in (5, 7):
        h = _hopf_vandermonde(p)
        d = (p - 1) // 2
        for j in range(d):
            want = quantum_int(p, j + 1)
            if j % 2:
                want = -want
            assert h.entries[0][j] == want


@pytest.mark.parametrize(
    "p,val", [(5, 1), (7, 3), (11, 10), (13, 15), (17, 28), (19, 36), (23, 55)]
)
def test_hopf_certificate_valuation(p, val):
    cert = hopf_certificate(p)
    d = (p - 1) // 2
    assert cert.valuation == val == d * (d - 1) // 2
    assert cert.unit_norm in (1, -1)


def test_bareiss_rejects_non_integral_quotient(monkeypatch):
    # A wrong norm of the previous pivot (three times too large) makes some
    # quotient of the integral Hopf matrix non-integral, which Bareiss must
    # refuse.
    true_adjugate_norm = cyclotomic._adjugate_norm

    def wrong(p, a):
        adj, n = true_adjugate_norm(p, a)
        return adj, 3 * n

    monkeypatch.setattr(cyclotomic, "_adjugate_norm", wrong)
    with pytest.raises(ArithmeticError, match="Bareiss"):
        _bareiss_det(_hopf_vandermonde(11))


def test_hopf_determinant_valuation_directly():
    # recompute the p=5 determinant by hand-sized cofactor expansion
    h = _hopf_vandermonde(5)
    det = h.entries[0][0] * h.entries[1][1] - h.entries[0][1] * h.entries[1][0]
    assert det == _bareiss_det(h)
    assert det == CycNum(5, [1, -1]) * _hopf_cofactor(5)
    # N(h) = p, so det = h * unit has norm +-p
    assert norm(det) in (5, -5)


@given(
    coords_x=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    coords_y=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
)
@settings(max_examples=50, deadline=None)
def test_product_distributes_property(coords_x, coords_y):
    p = 7
    x = FusionElement(p, tuple(coords_x))
    y = FusionElement(p, tuple(coords_y))
    z = cheb_vector(p, 2)
    lhs = _product(FusionElement(p, tuple(a + b for a, b in zip(x.coords, y.coords))), z)
    rhs = tuple(a + b for a, b in zip(_product(x, z).coords, _product(y, z).coords))
    assert lhs.coords == rhs


def _check_readers(p, g, t):
    d = (p - 1) // 2
    for c in range(d):
        want = (int(c == 0),) * 2 if g == 0 else (t.delta(g, c), t.total(g, c))
        assert (delta_via_matrix(p, g, c), total_via_matrix(p, g, c)) == want
        assert (galois_sum_delta(p, g, c), galois_sum_total(p, g, c)) == want


# Work bound: p * gmax <= 61 * 60, so gmax reaches p - 1 at every p <= 61.
_TABLE_WORK = 61 * 60


@st.composite
def _table_inputs(draw):
    p = draw(st.sampled_from([p for p in range(5, 102) if is_prime(p)]))
    return p, draw(st.integers(1, min(p - 1, _TABLE_WORK // p)))


def _read_cold(p, gmax, t):
    # the cell readers from cold caches, deepest genus first and then in order
    clear_caches()
    for g in [*range(gmax, -1, -1), *range(gmax + 1)]:
        _check_readers(p, g, t)


@given(_table_inputs())
@settings(max_examples=12, deadline=None)
def test_fusion_tables_match_recursion_property(inputs):
    # both power tables equal dim_table at every (g, c), e_0 at g = 0; the
    # cell readers agree read deepest genus first and then in order
    p, gmax = inputs
    t = dim_table(p, gmax)
    signs = [(-1) ** c for c in range(t.d)]
    unit = (1,) + (0,) * (t.d - 1)
    clear_caches()
    alt = fusion._power_table(p, gmax, False)
    cnt = fusion._power_table(p, gmax, True)
    assert alt[0] == cnt[0] == unit
    for g in range(1, gmax + 1):
        assert alt[g] == tuple(s * t.delta(g, c) for c, s in enumerate(signs))
        assert cnt[g] == tuple(t.total(g, c) for c in range(t.d))
    _read_cold(p, gmax, t)


@pytest.mark.parametrize("p,gmax", [(11, 7), (5, 67)])
def test_power_ladder_cold_order(cold, p, gmax):
    # cold reads in either genus order agree with dim_table, and the last
    # read leaves just the two gmax tables of gmax + 1 rows cached
    t = dim_table(p, gmax)
    _read_cold(p, gmax, t)
    assert fusion._power_table.cache_info().currsize == 2
    for counting in (False, True):
        assert len(fusion._power_table(p, gmax, counting)) == gmax + 1
    assert fusion._power_table.cache_info().misses == 4 * gmax + 2


def test_trunk_color_sweep_builds_once(cold, monkeypatch):
    # every trunk color at one (p, g) costs one matrix and g mat-vecs per
    # route, and one eigenvalue power per Galois route
    p, g = 13, 5
    d = (p - 1) // 2
    calls = {"apply": 0, "build": 0}
    apply, build = FusionMatrix.apply, fusion.mul_matrix_even

    def counted_apply(self, vec):
        calls["apply"] += 1
        return apply(self, vec)

    def counted_build(x):
        calls["build"] += 1
        return build(x)

    monkeypatch.setattr(FusionMatrix, "apply", counted_apply)
    monkeypatch.setattr(fusion, "mul_matrix_even", counted_build)
    for n, route in enumerate((delta_via_matrix, total_via_matrix), start=1):
        for c in range(d):
            route(p, g, c)
        assert calls == {"apply": n * g, "build": n}
    for route in (galois_sum_delta, galois_sum_total):
        for c in range(d):
            route(p, g, c)
    info = fusion._eigenvalue_power.cache_info()
    assert (info.misses, info.hits) == (2, 2 * (d - 1))


@st.composite
def _route_inputs(draw):
    p = draw(st.sampled_from([5, 7, 11, 13, 17, 19, 23, 29, 31]))
    return p, draw(st.integers(0, 8)), draw(st.integers(0, (p - 3) // 2))


@given(_route_inputs())
@settings(max_examples=25, deadline=None)
def test_matrix_and_galois_routes_agree_property(inputs):
    p, g, c = inputs
    assert delta_via_matrix(p, g, c) == galois_sum_delta(p, g, c)
    assert total_via_matrix(p, g, c) == galois_sum_total(p, g, c)


# -- closed forms against the generic Q(zeta_p) algebra they replace ----------


@pytest.mark.parametrize("p", (5, 7, 11, 13, 17, 19, 23, 29))
def test_hopf_cofactor_matches_bareiss(p):
    d = (p - 1) // 2
    h = CycNum(p, [1, -1])
    assert _bareiss_det(_hopf_vandermonde(p)) == h ** (d * (d - 1) // 2) * _hopf_cofactor(p)


def test_hopf_cofactor_times_inverse_runs_is_one():
    for p in filter(is_prime, range(5, 62)):
        runs = fusion._cofactor_runs(p)
        inverse = math.prod(cyclotomic.run(p, *cyclotomic.inverse_run(p, *run)) for run in runs)
        assert _hopf_cofactor(p) * inverse == 1


@pytest.mark.parametrize("p", (5, 7, 11, 13, 17, 19, 23))
def test_hopf_cofactor_norm_is_one(p):
    # the value the certificate prints as unit_norm=1, computed as a norm
    assert norm(_hopf_cofactor(p)) == 1


def _conjugate_half_sum(p, w):
    """-(1/p) * sum_{j=1}^{d} G_j(w), applying all d Galois maps; must be an
    integer."""
    d = (p - 1) // 2
    acc = galois(w, 1)
    for j in range(2, d + 1):
        acc = acc + galois(w, j)
    assert not any(acc.num[1:])
    val, rem = divmod(-acc.num[0], p)
    assert rem == 0
    return val


def _conjugate_entry(p, g, c, counting):
    k = 2 * c + 1
    bracket = (cyclotomic.run(p, k, 1, 1) - cyclotomic.run(p, -k, 1, 1)) * (
        cyclotomic.run(p, 1, 1, 1) - cyclotomic.run(p, -1, 1, 1)
    )
    lam = counting_eigenvalue(p) if counting else alternating_eigenvalue(p)
    return _conjugate_half_sum(p, bracket * lam**g)


@given(
    p=st.sampled_from([5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]),
    g=st.integers(0, 8),
)
@settings(max_examples=15, deadline=None)
def test_trace_read_matches_conjugate_half_sum_property(p, g):
    for c in range((p - 1) // 2):
        sign = -1 if c % 2 else 1
        assert galois_sum_delta(p, g, c) == sign * _conjugate_entry(p, g, c, False)
        assert galois_sum_total(p, g, c) == _conjugate_entry(p, g, c, True)


@pytest.mark.parametrize("p", PRIMES)
def test_galois_route_equals_matrix_route_at_every_genus(p):
    # _galois_entry's argument: the S-matrix claims give M^g = -(1/p) S Lam^g S
    # at every g, so the Galois read is the matrix cell with no window of
    # genera; checked here to g = 4d, twice the recursion's window of 2d
    d = (p - 1) // 2
    for counting in (False, True):
        table = fusion._power_table(p, 4 * d, counting)
        for g in range(4 * d + 1):
            cells = [fusion._galois_entry(p, g, c, counting) for c in range(d)]
            assert cells == list(table[g]), (counting, g)


@pytest.mark.parametrize("p", PRIMES)
def test_matrix_route_equals_recursion_past_the_window(p):
    # matrix_powers' argument: the table and the matrix route step the same
    # matrices (test_transfer_kernels_are_the_fusion_matrices), so they agree
    # at every g; checked here to g = 4d
    d = (p - 1) // 2
    t = dim_table(p, 4 * d)
    for counting in (False, True):
        table = fusion._power_table(p, 4 * d, counting)
        for g in range(1, 4 * d + 1):
            want = [t.total(g, c) if counting else (-1) ** c * t.delta(g, c) for c in range(d)]
            assert list(table[g]) == want, (counting, g)


def _semiseparable(f, v):
    """The rows of K(a, c) = f_min(a, c) v_max(a, c), the form of both transfer
    kernels: f = u + w for B + H and f = u - w for B - H."""
    d = len(v)
    return tuple(tuple(f[min(a, c)] * v[max(a, c)] for c in range(d)) for a in range(d))


def test_transfer_kernels_are_the_fusion_matrices():
    # entry for entry, in the even basis: B + H is the counting element's
    # matrix and B - H is D M_alt D with D = diag((-1)^c), built from the
    # factors dim_table steps on; claims.matrix_powers' induction rests on it
    for p in (p for p in range(5, 200) if is_prime(p)):
        (plus, minus, v, _vr), _rows = recursion._ladder(p)
        count = mul_matrix_even(counting_element(p)).entries
        alt = mul_matrix_even(alternating_element(p)).entries
        signed = tuple(
            tuple((-1) ** (a + c) * entry for c, entry in enumerate(row))
            for a, row in enumerate(alt)
        )
        assert _semiseparable(plus, v) == count, p
        assert _semiseparable(minus, v) == signed, p


def test_z_plus_two_is_one_nilpotent_block_mod_p():
    """(z + 2)^(d-1) e_0 != 0 and (z + 2)^d e_0 = 0 (mod p), along the ladder.

    Write z = q + 1/q, so e_n = (q^(n+1) - q^-(n+1)) / (q - 1/q), and the
    quotient relation is e_d - e_(d-1) = (q^p + 1) / (q^d (q + 1)), as
    2d + 1 = p.  Modulo p, q^p + 1 = (q + 1)^p, so
    e_d - e_(d-1) = (q + 1)^(p-1) / q^d = ((q + 1)^2 / q)^d = (z + 2)^d.
    The quotient mod p is then F_p[z]/((z + 2)^d), on which z + 2 acts as
    one nilpotent Jordan block of size d with cyclic vector e_0 = 1:
    (z + 2)^(d-1) has degree d - 1 < d, so it is not 0 there, and
    (z + 2)^d is.  Each step is one z-step, O(d), folded as the ladder folds.
    """
    for p in (p for p in range(5, 200) if is_prime(p)):
        d = (p - 1) // 2
        vec = [1] + [0] * (d - 1)
        for _ in range(d - 1):
            vec = [(z + 2 * x) % p for z, x in zip(fusion._mul_by_z(vec), vec)]
        assert any(vec), p
        vec = [(z + 2 * x) % p for z, x in zip(fusion._mul_by_z(vec), vec)]
        assert not any(vec), p


def test_trace_read_sweep_matches_recursion_at_p211():
    p, g = 211, 8
    t = dim_table(p, g)
    for c in range(t.d):
        assert galois_sum_delta(p, g, c) == t.delta(g, c)
        assert galois_sum_total(p, g, c) == t.total(g, c)


# -- planted faults ------------------------------------------------------------


@pytest.mark.parametrize(
    "planted,message",
    [
        (lambda p: cyclotomic.run(p, 1, 1, 1), "zeta"),  # its power is not fixed by zeta -> zeta^-1
        (lambda p: cyclotomic.run(p, 2, 1, 1), "integer"),  # odd read, reality check bypassed
    ],
)
def test_galois_entry_refuses_planted_power(cold, monkeypatch, capsys, planted, message):
    monkeypatch.setattr(fusion, "alternating_eigenvalue", planted)
    monkeypatch.setattr(fusion, "counting_eigenvalue", planted)
    if message == "integer":
        # A real element of Z[zeta_p] always reads even (the read is p times
        # a full trace, twice a real one), so only a power that skips the
        # reality check reaches the integrality check.
        monkeypatch.setattr(fusion, "galois", lambda x, j: x)
    for route in (galois_sum_delta, galois_sum_total):
        with pytest.raises(ArithmeticError, match=message):
            route(7, 1, 0)
    assert main(["verify", "--suite", "fusion", "--p-list", "5", "--gmax", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1


def _flip_entry(monkeypatch, x, k, j):
    """Plant a fault: the matrix of x that mul_matrix_even returns has its
    entry (k, j) flipped between 0 and 1; every other matrix is built true."""
    true_build = fusion.mul_matrix_even

    def build(y):
        m = true_build(y)
        if y.coords != x.coords:
            return m
        rows = [list(row) for row in m.entries]
        rows[k][j] = 1 - rows[k][j]
        return FusionMatrix(m.p, tuple(map(tuple, rows)))

    monkeypatch.setattr(fusion, "mul_matrix_even", build)


S_CLAIMS = (claims.s_matrix_square, claims.z_diagonalization, claims.alternating_eigenvalues)


@pytest.mark.parametrize("p", VERLINDE_PRIMES)
def test_s_matrix_claims_hold_up_to_the_hopf_bound(p):
    for claim in S_CLAIMS:
        assert claim(p)[1] is True, claim.__name__


@pytest.mark.parametrize("p", VERLINDE_PRIMES)
def test_counting_matrix_has_the_same_eigenvector(monkeypatch, p):
    # column 0 of S is an eigenvector of the counting matrix too, with
    # eigenvalue lambda_count: the eigenvalue claim's check on that pair
    monkeypatch.setattr(fusion, "alternating_element", counting_element)
    monkeypatch.setattr(fusion, "alternating_eigenvalue", counting_eigenvalue)
    assert claims.alternating_eigenvalues(p)[1] is True


def _plant_counting_eigenvalue(monkeypatch, p):
    monkeypatch.setattr(fusion, "alternating_eigenvalue", counting_eigenvalue)


def _plant_flipped_z_entry(monkeypatch, p):
    _flip_entry(monkeypatch, cheb_vector(p, 1), 1, 2)


def _plant_shifted_exponent(monkeypatch, p):
    """A fault in S's formula: a_1 = 3 becomes 5."""
    true_exponents = claims._exponents

    def shifted(p):
        a = true_exponents(p)
        a[1] += 2
        return a

    monkeypatch.setattr(claims, "_exponents", shifted)


@pytest.mark.parametrize("p", (7, 13, 61))
@pytest.mark.parametrize(
    "claim,plant",
    [
        (claims.alternating_eigenvalues, _plant_counting_eigenvalue),
        (claims.z_diagonalization, _plant_flipped_z_entry),
        (claims.s_matrix_square, _plant_shifted_exponent),
    ],
    ids=["counting-eigenvalue", "flipped-z-entry", "shifted-exponent"],
)
def test_s_matrix_claims_fail_on_planted_faults(monkeypatch, claim, plant, p):
    assert claim(p)[1] is True
    plant(monkeypatch, p)
    assert claim(p)[1] is False


@pytest.mark.parametrize("claim", S_CLAIMS)
@pytest.mark.parametrize("p", (4, 9, 7.0))
def test_s_matrix_claims_refuse_a_non_prime(claim, p):
    with pytest.raises(ValueError, match="p must be a prime >= 5"):
        claim(p)


def test_s_matrix_claims_build_no_s_and_multiply_no_cycnum(monkeypatch):
    # S's formula is read as exponents: no matrix over Z[zeta_p], and no
    # ring product, is formed
    def refuse(*args):
        raise AssertionError("a claim multiplied in Z[zeta_p]")

    for name in ("smatrix", "qmatrix"):
        assert not hasattr(fusion, name)
    for name in ("__mul__", "charpoly", "identity"):
        assert not hasattr(FusionMatrix, name)
    for name in ("__mul__", "__pow__", "__add__", "__sub__"):
        monkeypatch.setattr(CycNum, name, refuse)
    for p in (5, 13, 61):
        for claim in S_CLAIMS:
            assert claim(p)[1] is True


@pytest.mark.parametrize("p", (5, 7))
def test_structure_constant_claim_fails_on_any_flipped_entry(monkeypatch, p):
    # the claim reads every entry of the matrix of every e_(2i)
    d = (p - 1) // 2
    for i, k, j in itertools.product(range(d), repeat=3):
        with monkeypatch.context() as planted:
            _flip_entry(planted, cheb_vector(p, 2 * i), k, j)
            assert claims.structure_constants(p)[1] is False, (i, k, j)
    assert claims.structure_constants(p)[1] is True


def test_verify_fails_one_claim_on_a_flipped_structure_constant(monkeypatch, capsys):
    # no other fusion claim multiplies by the unit e_0, so one line fails
    _flip_entry(monkeypatch, cheb_vector(5, 0), 0, 1)
    assert main(["verify", "--suite", "fusion", "--p-list", "5", "--gmax", "1"]) == 1
    out, _err = capsys.readouterr()
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails == ["FAIL even structure constants are 0/1 and encode admissibility (p=5)"]


@pytest.mark.parametrize(
    "name,planted,message",
    [
        ("_twist_exponents", lambda p: [0, 1, 1, 2, 3][: (p - 1) // 2], "vanished"),
        ("inverse_run", lambda p, s, n, t: (-s, n, t), "not a unit"),
    ],
)
def test_hopf_certificate_refuses_planted_fault(monkeypatch, capsys, name, planted, message):
    # each fault is planted where its function is defined
    owner = {"_twist_exponents": fusion, "inverse_run": cyclotomic}[name]
    monkeypatch.setattr(owner, name, planted)
    with pytest.raises(ArithmeticError, match=message):
        hopf_certificate(11)
    assert main(["hopf", "--p", "11"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and message in err


@pytest.mark.parametrize("p", (101, 167))
def test_hopf_certificate_refuses_wrong_inverse_run_at_large_p(monkeypatch, capsys, p):
    # the packed check does all the work here: the runs have up to p - 1
    # terms, and their digits two bytes at p = 167
    monkeypatch.setattr(cyclotomic, "inverse_run", lambda p, s, n, t: (-s, n, t))
    with pytest.raises(ArithmeticError, match="not a unit"):
        hopf_certificate(p)
    assert main(["hopf", "--p", str(p)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "not a unit" in err


def test_one_planted_inverse_run_breaks_both_unit_claims(monkeypatch):
    # the cofactor's runs and the quantum integers go through one packed
    # check, which reads the inverse run from cyclotomic: one plant there
    # reaches both claims of the hopf suite that prove a unit, and each
    # reports FAIL
    monkeypatch.setattr(cyclotomic, "inverse_run", lambda p, s, n, t: (-s, n, t))
    text = "twist Vandermonde determinant has valuation d(d-1)/2 with unit cofactor (p=7)"
    assert claims.hopf_valuation(7) == (text, False)
    assert claims.quantum_integer_units(7) == ("quantum integers are units (p=7)", False)


# -- one planted fault per verify claim -------------------------------------------


def _bump_closed_form(monkeypatch, p):
    """A fault in the two-point closed forms, where the census and the
    recursion both read them: balanced (1, 2) is one too many."""
    true_closed = census.beta_eta_closed

    def bumped(p, c1, c2):
        beta, eta = true_closed(p, c1, c2)
        return (beta + 1, eta) if (c1, c2) == (1, 2) else (beta, eta)

    for module in (census, recursion):
        monkeypatch.setattr(module, "beta_eta_closed", bumped)


def _widen_chain_ranges(monkeypatch, p):
    """A fault in the census walk: each chain range lo..end-1 admits end too,
    up to d - 1."""
    true_moves = census._moves

    def widened(p, d):
        return [
            [(a, odd_a, k, lo, min(end + 1, d)) for a, odd_a, k, lo, end in row]
            for row in true_moves(p, d)
        ]

    monkeypatch.setattr(census, "_moves", widened)


def _flip_alternating_entry(monkeypatch, p):
    _flip_entry(monkeypatch, alternating_element(p), 0, 0)


def _flip_unit_entry(monkeypatch, p):
    _flip_entry(monkeypatch, cheb_vector(p, 0), 0, 1)


def _misfold_z_step(monkeypatch, p):
    """The z-step drops the fold e_d -> e_(d-1) of the top coordinate."""
    true_step = fusion._mul_by_z

    def misfolded(vec):
        out = true_step(vec)
        out[-1] -= vec[-1]
        return out

    monkeypatch.setattr(fusion, "_mul_by_z", misfolded)


def _bump_bernoulli(monkeypatch, p):
    """N_2 = B_2 3! gains 3! in the integer table, so B_2 = 1/6 reads 7/6
    wherever a reader takes it from there."""
    true_nums = polylab._bern_nums
    monkeypatch.setattr(
        polylab, "_bern_nums", lambda k: [n + 6 * (j == 2) for j, n in enumerate(true_nums(k))]
    )


def _repeat_a_twist(monkeypatch, p):
    monkeypatch.setattr(fusion, "_twist_exponents", lambda p: [0, 1, 1, 2, 3][: (p - 1) // 2])


def _wrong_inverse_run(monkeypatch, p):
    monkeypatch.setattr(cyclotomic, "inverse_run", lambda p, s, n, t: (-s, n, t))


#: Every claim of claims.SUITES -> (its arguments, and a fault to plant at
#: p = 7 under which the claim prints FAIL).
PLANTED_FAULTS = {
    claims.census_matches_recursion: ((7, 3), _bump_closed_form),
    claims.census_parity_convention: ((7,), _widen_chain_ranges),
    claims.two_point_closed_forms: ((7,), _bump_closed_form),
    claims.matrix_powers: ((7, 3), _flip_alternating_entry),
    claims.galois_sums: ((7, 3), _plant_counting_eigenvalue),
    claims.s_matrix_square: ((7,), _plant_shifted_exponent),
    claims.z_diagonalization: ((7,), _plant_flipped_z_entry),
    claims.ladder_fold: ((7,), _misfold_z_step),
    claims.alternating_eigenvalues: ((7,), _plant_counting_eigenvalue),
    claims.structure_constants: ((7,), _flip_unit_entry),
    claims.leading_terms: ((2,), _bump_bernoulli),
    claims.residue_route: ((2,), _bump_bernoulli),
    claims.bernoulli_identity: ((), _bump_bernoulli),
    claims.hopf_valuation: ((7,), _repeat_a_twist),
    claims.quantum_integer_units: ((7,), _wrong_inverse_run),
}


def _claims_run_by(suite):
    """The public functions of claims that SUITES[suite] calls at p = 7, gmax = 2."""
    codes = {
        f.__code__: f for name, f in vars(claims).items()
        if isinstance(f, types.FunctionType) and f.__module__ == claims.__name__
        and not name.startswith("_")
    }
    seen = {}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen.setdefault(codes[frame.f_code])

    sys.setprofile(profile)
    try:
        claims.SUITES[suite]((7,), 2)
    finally:
        sys.setprofile(None)
    return list(seen)


@pytest.mark.parametrize("suite", claims.SUITES)
def test_every_claim_fails_on_its_planted_fault(cold, monkeypatch, suite):
    # No claim can only pass: under its fault each prints FAIL, and one that
    # raises instead fails this test
    run = _claims_run_by(suite)
    assert run
    for claim in run:
        assert claim in PLANTED_FAULTS, f"{claim.__name__} has no planted fault"
        args, plant = PLANTED_FAULTS[claim]
        assert claim(*args)[1] is True, claim.__name__
        cold()
        with monkeypatch.context() as planted:
            plant(planted, 7)
            assert claim(*args)[1] is False, claim.__name__
        cold()  # a planted fault may have reached a cache


def test_hopf_suite_prints_fail_for_a_repeated_twist(monkeypatch, capsys):
    # hopf_certificate raises "vanished"; the claim reports it as a FAIL
    # line and the suite goes on to its next claim
    _repeat_a_twist(monkeypatch, 7)
    assert main(["verify", "--suite", "hopf", "--p-list", "7"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "FAIL twist Vandermonde determinant has valuation d(d-1)/2 with unit cofactor (p=7)",
        "PASS quantum integers are units (p=7)",
        "checked 2 claims, 1 failures",
    ]
    assert err == ""


#: The per-prime claims, with their arguments past p.  Every claim that
#: claims.SUITES runs has a planted fault above, so this list misses none.
PER_PRIME_CLAIMS = [
    pytest.param(claim, args[1:], id=claim.__name__)
    for claim, (args, _plant) in PLANTED_FAULTS.items()
    if args[:1] == (7,)
]


@pytest.mark.parametrize("bad", (7.0, 9))
@pytest.mark.parametrize("claim,rest", PER_PRIME_CLAIMS)
def test_every_per_prime_claim_refuses_a_bad_p_first(claim, rest, bad):
    # one door for p: the prime check, before anything reads (p - 1) // 2
    with pytest.raises(ValueError) as exc:
        claim(bad, *rest)
    assert str(exc.value) == f"p must be a prime >= 5, got {bad}"


def test_leading_term_report_gives_false_verdicts_under_a_fault(cold, monkeypatch):
    # a false claim is a False verdict, not an exception, and every claim
    # still has its verdict
    clean = polylab.leading_term_report(2)
    cold()
    with monkeypatch.context() as planted:
        _bump_bernoulli(planted, 7)
        report = polylab.leading_term_report(2)
    assert report.keys() == clean.keys() and all(clean.values())
    assert False in report.values()


def _check_every_shape(monkeypatch, p, ns, ts):
    """_is_unit_run(p, n, t) against the CycNum product of the run (0, n, t)
    and its inverse run, on every shape given: once with the true inverse,
    and once with a planted inverse that returns the run itself, so that
    both outcomes of the packed check are compared."""
    seen = set()
    for inverse in (cyclotomic.inverse_run, lambda p, s, n, t: (s, n, t)):
        monkeypatch.setattr(cyclotomic, "inverse_run", inverse)
        for n in ns:
            for t in ts:
                want = cyclotomic.run(p, 0, n, t) * cyclotomic.run(p, *inverse(p, 0, n, t)) == 1
                assert cyclotomic._is_unit_run(p, n, t) == want, (n, t, inverse)
                seen.add(want)
    assert seen == {True, False}


@pytest.mark.parametrize("p", VERLINDE_PRIMES[:-2])
def test_packed_run_check_matches_ring_product(monkeypatch, p):
    # every shape (n, t), against its inverse run and, through a planted
    # inverse, against itself: the check agrees with the CycNum product,
    # both where it is 1 and where it is not
    _check_every_shape(monkeypatch, p, range(1, p), range(1, p))


def test_packed_run_check_with_two_byte_digits(monkeypatch):
    # runs of 128 terms and more: the product's digits reach 128, past one
    # signed byte, as in the longest shapes hopf_certificate checks at p = 167
    _check_every_shape(monkeypatch, 167, range(128, 167), (1, 2, 83))


@pytest.mark.parametrize("p", (17, 167))
def test_unit_checks_pack_no_coordinate_list(monkeypatch, p):
    # both unit claims pack each run straight from its term counts: neither
    # unfolds a run nor packs signed digits
    def refuse(*args):
        raise AssertionError("a unit check built a coordinate list")

    monkeypatch.setattr(cyclotomic, "_unfolded", refuse)
    monkeypatch.setattr(cyclotomic, "_pack", refuse)
    assert fusion.hopf_certificate(p).valuation == (p - 1) * (p - 3) // 8
    assert claims.quantum_integer_units(p)[1] is True


# -- work counts -----------------------------------------------------------------


def test_cold_galois_cell_applies_one_conjugation(cold, monkeypatch):
    calls = []
    true_galois = cyclotomic.galois

    def counted(x, j):
        calls.append(j)
        return true_galois(x, j)

    monkeypatch.setattr(cyclotomic, "galois", counted)
    monkeypatch.setattr(fusion, "galois", counted)
    for route in (galois_sum_delta, galois_sum_total):
        cold()
        calls.clear()
        route(61, 8, 7)
        assert len(calls) <= 1


def test_hopf_certificate_runs_no_bareiss():
    # the Bareiss determinant lives in these tests only, as the oracle
    assert not hasattr(FusionMatrix, "det")
    assert not hasattr(fusion, "hopf_vandermonde")
    for p in (5, 13, 37):
        d = (p - 1) // 2
        assert hopf_certificate(p).valuation == d * (d - 1) // 2


def test_hopf_certificate_makes_one_product_per_run_shape(monkeypatch):
    # each distinct run shape (n, t) times its inverse run, one packed check
    # each: no dense U, no U^-1, no CycNum and no ring product is ever formed
    calls = []
    true_check = cyclotomic._is_unit_run

    def counted(p, n, t):
        calls.append((n, t))
        return true_check(p, n, t)

    def refuse(*args):
        raise AssertionError("hopf_certificate built a run or a ring product")

    monkeypatch.setattr(fusion, "_is_unit_run", counted)
    for target, name in ((CycNum, "__mul__"), (cyclotomic, "run"), (cyclotomic, "_int_mul")):
        monkeypatch.setattr(target, name, refuse)
    for p in (5, 13, 37, 101):
        shapes = {(n, t) for _s, n, t in fusion._cofactor_runs(p)}
        calls.clear()
        hopf_certificate(p)
        assert sorted(calls) == sorted(shapes)


def test_hopf_certificate_computes_no_norm(monkeypatch):
    # U * U^-1 = 1 certifies the unit: no norm, and no division by h
    def refuse(*args):
        raise AssertionError("built an adjugate norm")

    assert not hasattr(cyclotomic, "h_valuation")
    monkeypatch.setattr(cyclotomic, "_adjugate_norm", refuse)
    for p in (5, 13, 37):
        cert = hopf_certificate(p)
        assert (cert.p, cert.valuation, cert.unit_norm) == (p, (p - 1) * (p - 3) // 8, 1)


def test_quantum_integer_units_claim_computes_no_norm(monkeypatch):
    # [n] * [n]^-1 = 1 certifies each quantum integer: no norm
    def refuse(*args):
        raise AssertionError("built an adjugate norm")

    monkeypatch.setattr(cyclotomic, "_adjugate_norm", refuse)
    for p in (5, 13, 37, 101):
        assert claims.quantum_integer_units(p) == (f"quantum integers are units (p={p})", True)
    # a wrong inverse run fails the claim
    monkeypatch.setattr(cyclotomic, "inverse_run", lambda p, s, n, t: (-s, n, t))
    assert not claims.quantum_integer_units(5)[1]


def test_eigenvalue_claim_and_counting_eigenvalue_run_no_bareiss_or_inverse(cold, monkeypatch):
    def refuse(*args):
        raise AssertionError("built an adjugate norm")

    assert not hasattr(FusionMatrix, "det")
    monkeypatch.setattr(cyclotomic, "_adjugate_norm", refuse)
    for p in (5, 13, 31):
        assert claims.alternating_eigenvalues(p)[1]
        counting_eigenvalue(p)


def test_eigenvalue_claim_applies_no_galois_map(cold, monkeypatch):
    # M is integral, so one eigenvector at lambda decides every conjugate:
    # the claim applies no Galois map at all
    def refuse(*args):
        raise AssertionError("the eigenvalue claim applied a Galois map")

    for module in (cyclotomic, fusion):
        monkeypatch.setattr(module, "galois", refuse)
    monkeypatch.setattr(claims, "galois", refuse, raising=False)
    for p in (5, 13, 31, 61):
        assert claims.alternating_eigenvalues(p)[1]


def test_alternating_eigenvalue_multiplies_nothing(cold, monkeypatch):
    products = []
    true_mul = CycNum.__mul__

    def counted(self, other):
        products.append(other)
        return true_mul(self, other)

    monkeypatch.setattr(CycNum, "__mul__", counted)
    for p in (5, 13, 61):
        alternating_eigenvalue(p)
    assert products == []
