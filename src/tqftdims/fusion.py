"""The rank-d fusion quotient K[z]/(e_d - e_(d-1)) and its exact linear algebra.

e_n denotes the Chebyshev-like basis polynomials e_0 = 1, e_1 = z,
e_(n+1) = z e_n - e_(n-1); in the quotient they fold as e_(d+i) = e_(d-1-i),
so e_0..e_(d-1) is a basis and the even-index family e_0, e_2, ..., e_(2d-2)
is the same basis reordered by an explicit permutation.

Everything here is exact: integer matrices, and eigenvalues in Z[zeta_p].
Two distinguished elements drive the dimension counts: the alternating
element sum (-1)^n (d - n) e_{2n}, whose matrix powers produce the signed
counts, and the plain counting element sum (d - n) e_{2n} for the totals.

The matrix route is a table: one matrix build and one mat-vec per genus
give M^g e_0 for every g up to the genus asked, cached whole and never
changed.  The matrices diagonalize through the S-matrix
S_ij = zeta^(a_i a_j) - zeta^(-a_i a_j), a_i = 2i + 1, which squares to -p
times the identity and turns matrix entries into trace reads: the Galois
sums read four coordinates of one eigenvalue power per genus.  S itself is
never built; claims.py checks its identities from that formula.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, islice
from operator import add, mul, sub

from .cyclotomic import (
    CycNum,
    Record,
    _check_color,
    _check_index,
    _check_prime,
    _is_unit_run,
    _rank,
    _unfold,
    _unfolded,
    galois,
)

__all__ = [
    "FusionElement",
    "FusionMatrix",
    "HopfCertificate",
    "alternating_eigenvalue",
    "alternating_element",
    "cheb_vector",
    "counting_eigenvalue",
    "counting_element",
    "delta_via_matrix",
    "even_basis_permutation",
    "galois_sum_delta",
    "galois_sum_total",
    "hopf_certificate",
    "mul_matrix_even",
    "total_via_matrix",
]


def _mul_by_z(vec):
    """Coordinates of z * x given coordinates of x, folding e_d back to e_(d-1):
    (z x)_k = x_(k-1) + x_(k+1), with x_(-1) = 0 and x_d = x_(d-1)."""
    return list(map(add, [0, *vec[:-1]], [*vec[1:], vec[-1]]))


class FusionElement(Record):
    """An element of the quotient, as coordinates over e_0..e_(d-1).

    It has no arithmetic of its own: the quotient's one product is its
    multiplication matrix, mul_matrix_even (column j of the matrix of x holds
    the even-basis coordinates of x e_(2j)).  Elements compare by identity:
    compare their coords."""

    __slots__ = ("p", "coords")

    def __init__(self, p: int, coords: tuple) -> None:
        d = _rank(p)
        if len(coords) != d:
            raise ValueError(f"need {d} coordinates for p={p}")
        super().__init__(p, coords)


def _ladder(yv):
    """Yield the coordinates of e_0 y, e_1 y, e_2 y, ... along the Chebyshev
    ladder e_0 y = y, e_1 y = z y, e_(i+1) y = z (e_i y) - e_(i-1) y.

    Each step is computed only when the next value is asked for.
    """
    prev = None
    cur = list(yv)
    while True:
        yield cur
        nxt = _mul_by_z(cur)
        if prev is not None:
            nxt = list(map(sub, nxt, prev))
        prev, cur = cur, nxt


def cheb_vector(p: int, n: int) -> FusionElement:
    """e_n reduced into the quotient, computed honestly along the ladder."""
    d = _rank(p)
    _check_index(n, low=0, name="ladder index")
    (cur,) = islice(_ladder([1] + [0] * (d - 1)), n, n + 1)
    return FusionElement(p, tuple(cur))


def _even_steps(yv):
    """e_0 y, e_2 y, ..., e_(2d-2) y: the even-indexed steps of one ladder
    walk, with d = len(yv)."""
    return islice(_ladder(yv), 0, 2 * len(yv) - 1, 2)


# Bounded: verify's fusion suite finishes one prime's claims before the next.
@lru_cache(maxsize=2)
def even_basis_permutation(p: int) -> tuple[int, ...]:
    """Position of e_{2j} in the standard basis: 2j if 2j <= d-1, else 2d-1-2j.

    Every e_{2j} is read from one ladder walk from e_0 and checked to be that
    basis vector: a 1 at the target and d - 1 zeros.  The targets are a
    permutation of 0..d-1 (tests/test_fusion.py checks the argument), so d
    distinct basis vectors are the whole basis.
    """
    d = _rank(p)
    perm = []
    for j, vec in enumerate(_even_steps([1] + [0] * (d - 1))):
        target = 2 * j if 2 * j <= d - 1 else 2 * d - 1 - 2 * j
        if vec[target] != 1 or vec.count(0) != d - 1:
            raise ArithmeticError(f"fold of e_{2 * j} is not a basis vector at p={p}")
        perm.append(target)
    return tuple(perm)


class FusionMatrix(Record):
    """A d x d matrix; entries[j][i] is row j, column i.  Matrices compare by
    identity: compare their entries."""

    __slots__ = ("p", "entries")

    @property
    def size(self) -> int:
        return len(self.entries)

    def apply(self, vec):
        """Matrix-vector product."""
        if len(vec) != self.size:
            raise ValueError("vector length mismatch")
        return tuple(sum(map(mul, row, vec)) for row in self.entries)


def mul_matrix_even(x: FusionElement) -> FusionMatrix:
    """Matrix of multiplication by x in the even-index basis ordering.

    Column i holds the even-basis coordinates of x * e_{2i}, the step 2i of
    one ladder walk from x.
    """
    perm = even_basis_permutation(x.p)
    rows = list(zip(*_even_steps(x.coords)))
    return FusionMatrix(x.p, tuple(rows[k] for k in perm))


def _weighted_even_sum(p: int, sign: int) -> FusionElement:
    """sum over n of sign^n (d - n) e_{2n}: even_basis_permutation has checked
    each e_{2n} to be one basis vector, so the weight goes to its position."""
    d = _rank(p)
    acc = [0] * d
    for n, k in enumerate(even_basis_permutation(p)):
        acc[k] = sign**n * (d - n)
    return FusionElement(p, tuple(acc))


def alternating_element(p: int) -> FusionElement:
    """sum over n of (-1)^n (d - n) e_{2n}."""
    return _weighted_even_sum(p, -1)


def counting_element(p: int) -> FusionElement:
    """sum over n of (d - n) e_{2n}; also equals sum of e_{2n} squared."""
    return _weighted_even_sum(p, 1)


# Bounded: a sweep over every trunk color at one (p, g) reads one table, and
# a claim reads the two elements' tables at one (p, gmax).
@lru_cache(maxsize=2)
def _power_table(p: int, gmax: int, counting: bool) -> tuple[tuple[int, ...], ...]:
    """M^g e_0 for g = 0..gmax, M the multiplication matrix of the counting
    (or alternating) element: one build and gmax mat-vecs."""
    mat = mul_matrix_even(counting_element(p) if counting else alternating_element(p))
    vecs = [(1,) + (0,) * (mat.size - 1)]
    for _ in range(gmax):
        vecs.append(mat.apply(vecs[-1]))
    return tuple(vecs)


def _matrix_entry(p: int, g: int, c: int, counting: bool) -> int:
    return _power_table(p, g, counting)[g][c]


def _read(entry, p: int, g: int, c: int, counting: bool) -> int:
    """entry(p, g, c, counting) once the prime, color and genus are checked,
    times (-1)^c for the alternating element: the four readers' one body."""
    _check_color(_check_prime(p), c)
    _check_index(g, low=0)
    val = entry(p, g, c, counting)
    return -val if c % 2 and not counting else val


def delta_via_matrix(p: int, g: int, c: int) -> int:
    """Signed count even - odd from the g-th power of the alternating matrix.

    Reads the table built to genus g; two tables are cached, so every color
    at one (p, g) costs one build and g mat-vecs, but reading g = 1..G in
    turn builds G tables, about G^2/2 mat-vecs.
    """
    return _read(_matrix_entry, p, g, c, counting=False)


def total_via_matrix(p: int, g: int, c: int) -> int:
    """Total count from the g-th power of the counting matrix; reads cost as
    for delta_via_matrix (G tables, about G^2/2 mat-vecs for g = 1..G)."""
    return _read(_matrix_entry, p, g, c, counting=True)


# -- eigenvalues and Galois sums over Z[zeta_p] -------------------------------


def _real_sum(p: int, weights) -> CycNum:
    """w_0 + sum_{k=1}^{d-1} w_k (q^2k + q^-2k) for the weights w_0..w_(d-1)."""
    terms = chain(zip(range(0, p, 2), weights), zip(range(-2, -p, -2), weights[1:]))
    return CycNum(p, _unfolded(p, terms))


def alternating_eigenvalue(p: int) -> CycNum:
    """Eigenvalue of the alternating element at the fundamental embedding:
    ceil(d/2) + sum_{k=1}^{d-1} (-1)^k ceil((d-k)/2) (q^2k + q^-2k).

    Its Galois images under zeta -> zeta^(2j+1) give the full spectrum.
    """
    d = _rank(p)
    return _real_sum(p, [(-1) ** k * ((d - k + 1) // 2) for k in range(d)])


def counting_eigenvalue(p: int) -> CycNum:
    """Eigenvalue of the counting element at the fundamental embedding,
    sum_{n<d} (d - n) [2n + 1] = T(d) + sum_{k=1}^{d-1} T(d - k) (q^2k + q^-2k)
    with T(m) = m(m + 1)/2; it equals -p / (q - q^-1)^2.
    """
    d = _rank(p)
    return _real_sum(p, [(d - k) * (d - k + 1) // 2 for k in range(d)])


# Bounded: a sweep over every trunk color at one (p, g) reads one power, or
# alternates the two kinds.
@lru_cache(maxsize=2)
def _eigenvalue_power(p: int, g: int, counting: bool) -> CycNum:
    """lam^g, checked to be fixed by zeta -> zeta^-1: the Galois read halves
    a field trace, which needs a real element."""
    lam = (counting_eigenvalue(p) if counting else alternating_eigenvalue(p)) ** g
    if galois(lam, -1) != lam:
        raise ArithmeticError("eigenvalue power is not fixed by zeta -> zeta^-1")
    return lam


def _galois_entry(p: int, g: int, c: int, counting: bool) -> int:
    """-(1/p) * sum_{j=1}^{d} G_j(w) for w = (q^k - q^-k)(q - q^-1) * lam^g,
    k = 2c + 1, read from four coordinates of lam^g.

    w is fixed by zeta -> zeta^-1 (_eigenvalue_power checks lam^g), so the
    half-sum over j = 1..d is half the field trace.  Tr(zeta^m x) =
    p a_(-m) - sum(a) for x = sum a_i zeta^i (a_(p-1) = 0), and the four
    monomials of the bracket cancel the sum(a) terms: the entry is
    -(a_(-k-1) - a_(1-k) - a_(k-1) + a_(k+1)) / 2, checked to be an integer.

    This is entry (c, 0) of M^g, the matrix route's cell, at every genus g.
    Column j of S is sigma_(a_j)(s) for s its column 0, and M is integral,
    so M s = lam s (claims.alternating_eigenvalues) gives M S = S Lam with
    Lam = diag(sigma_(a_j)(lam)); with S S = -p I (claims.s_matrix_square),
    M^g = -(1/p) S Lam^g S.  Its entry (c, 0) is
    -(1/p) sum_j S_cj sigma_(a_j)(lam)^g S_j0, and S_cj = sigma_(a_j)(q^k - q^-k),
    S_j0 = sigma_(a_j)(q - q^-1), so each term is sigma_(a_j)(w): the sum
    above, as a_j = 2j + 1 and -a_j run over every unit mod p once.  The
    counting matrix has the same eigenvector s, at lam_count.
    """
    a = _unfold(_eigenvalue_power(p, g, counting))
    k = 2 * c + 1
    s = a[(-k - 1) % p] - a[(1 - k) % p] - a[(k - 1) % p] + a[(k + 1) % p]
    val, rem = divmod(s, 2)
    if rem:
        raise ArithmeticError("galois half-trace did not reduce to an integer")
    return -val


def galois_sum_delta(p: int, g: int, c: int) -> int:
    """Signed count even - odd as a closed Galois sum over Q(zeta_p)."""
    return _read(_galois_entry, p, g, c, counting=False)


def galois_sum_total(p: int, g: int, c: int) -> int:
    """Total count as the same Galois sum with the counting eigenvalue."""
    return _read(_galois_entry, p, g, c, counting=True)


# -- twist Vandermonde (Hopf pairing) matrix ---------------------------------


class HopfCertificate(Record):
    """det(H) = h^valuation * U with U a unit: valuation is d(d-1)/2 and
    unit_norm, the field norm of U, is 1.  hopf_certificate proves both by
    checking that every run of U times its inverse run is 1, and computes
    neither U, nor a norm, nor a division by h.  Certificates compare by
    identity: compare their fields.
    """

    __slots__ = ("p", "valuation", "unit_norm")


def _twist_exponents(p: int) -> list[int]:
    """e_j = (d+1) j (j+2) mod p, so that mu_j = zeta^(e_j), for j = 0..d-1."""
    d = _rank(p)
    return [(d + 1) * j * (j + 2) % p for j in range(d)]


def _cofactor_runs(p: int) -> list[tuple[int, int, int]]:
    """The runs (s, n, t), each zeta^s (1 + zeta^t + ... + zeta^(t(n-1))),
    whose product is U = det(H) / h^(d(d-1)/2); raises ArithmeticError if two
    twist eigenvalues coincide."""
    d = _rank(p)
    e = _twist_exponents(p)
    runs = []
    for j in range(d):
        # [j+1] = q^-j + q^(2-j) + ... + q^j
        runs.append((-j, j + 1, 2))
        for i in range(j):
            k = (e[j] - e[i]) % p
            if not k:
                raise ArithmeticError(f"twist Vandermonde determinant vanished at p={p}")
            # mu_j - mu_i = -h * (zeta^e_i + ... + zeta^(e_i + k - 1)); the
            # d(d-1)/2 signs cancel the column signs (-1)^j of H.
            runs.append((e[i], k, 1))
    return runs


def hopf_certificate(p: int) -> HopfCertificate:
    """h-adic valuation of det(H), certifying that det(H)/h^v is a unit.

    The twist Vandermonde matrix H_{ij} = (-1)^j [j+1] mu_j^i, i, j = 0..d-1,
    with twist eigenvalues mu_j = zeta^(e_j), is a Vandermonde matrix with
    scaled columns, so

        det H = prod_j (-1)^j [j+1] * prod_{i<j} (mu_j - mu_i),

    and with k = e_j - e_i mod p each factor is
    mu_j - mu_i = -zeta^(e_i) h (1 + zeta + ... + zeta^(k-1)).  The cofactor
    U = det H / h^(d(d-1)/2) is therefore a product of runs of powers of
    zeta: the quantum integers [n], n < p, and the cyclotomic units
    (1 - zeta^k)/(1 - zeta) (Washington, Introduction to Cyclotomic Fields,
    8.1), as long as the e_j are pairwise distinct.  Each run has an
    integral inverse that is again a run (cyclotomic.inverse_run), and each
    distinct run shape (n, t) is checked once, run times inverse run == 1,
    exactly; ArithmeticError if one fails.  Each check is one product of two
    packed ints, read off the packed residue (cyclotomic._is_unit_run): no
    run is built as a CycNum, and neither U nor H is ever built.

    That check proves U a unit, so the valuation is exactly d(d-1)/2: a
    unit is prime to h.  And the norm of U is 1 without being computed:
    every unit of the totally complex field Q(zeta_p) has norm +1, its norm
    being a product of the positive numbers |sigma(U)|^2 over one embedding
    sigma from each complex-conjugate pair.
    """
    d = _rank(p)
    # zeta^s is a unit, so a run is a unit exactly when its shape (n, t) is,
    # and U, their product, is a unit exactly when every run is.
    for n, t in sorted({(n, t) for _s, n, t in _cofactor_runs(p)}):
        if not _is_unit_run(p, n, t):
            raise ArithmeticError(
                f"determinant cofactor is not a unit: run ({n}, {t}) times its inverse != 1"
            )
    return HopfCertificate(p=p, valuation=d * (d - 1) // 2, unit_norm=1)
