"""Exact polynomial identities in the prime P and the trunk half-color C.

The dimension counts, viewed as functions of (p, c), are polynomials with
rational coefficients: the signed count delta has total degree 2g - 1 and
the total count has 3g - 2.  This module recovers those polynomials two
independent ways - exact interpolation through recursion-table samples, and
a Bernoulli-series residue construction - and checks their degree and
leading-term structure against closed Bernoulli forms.

Why a fit is the count at every prime.  With d = (p - 1)/2, one genus step
of the transfer recursion is, for 0 <= c <= d - 1,
  D'(c) = sum_{a<=c} (2a + 1)(d - c) D(a) + sum_{c<a<d} (2c + 1)(d - a) D(a),
  delta'(c) = sum_{a<=c} (d - c) delta(a) + sum_{c<a<d} (d - a) delta(a),
from D = delta = d - c at genus one.  By Faulhaber, sum_{a<n} a^k is a
polynomial of degree k + 1 in n whose coefficients are Bernoulli numbers,
so either range sum of a polynomial of total degree n in (d, a) is one of
total degree at most n + 1 in (d, c).  The kernels add 2 more for D and 1
for delta, so D has total degree at most 3g - 2 and delta at most 2g - 1,
in (d, c) and so in (P, C), at every prime and color.  A polynomial of
total degree at most n is fixed by its values on an (n + 1) x (n + 1)
tensor grid, so each fit is the count off its grid too: the held-out
checks test the code, not the argument.  tests/test_polylab.py runs this
step on polynomials for g <= 6 and finds both degrees exact.

The interpolation builds one integer Lagrange basis per node set (the
colors, then the fit primes), reads each prime's table once, and stays in
integer numerators until the last step.  Everything here computes on
integers: a BiPoly holds integer numerators over one denominator, every
reader of the Bernoulli numbers takes one list of the integers
B_j (j + 1)! from one pass of their recurrence, with no cache, and the
fits, the residue polynomial and the leading-term forms hand their integer
numerators to one BiPoly each.  A BiPoly is evaluated at int points only
(BiPoly.eval and subs_c), since P is a prime and C a half-color.  Fraction
appears only at the interface: where a coefficient leaves the module
(BiPoly.monomials, eval's value, canonical_str, to_json_obj, bernoulli and
normalized_bernoulli) and where a caller passes a coefficient in (an int or
Fraction coefficient of BiPoly({...}), or an int or Fraction operand).
Nothing here touches floats: a float coefficient is a ValueError, a float
point or operand a TypeError, and a float is unequal to every BiPoly, on
either side of ==, even one of the same value.

The module has one failure: a fit that misses a held-out count raises
ArithmeticError, which the CLI reports as a failed verification (exit 1).
A bad genus or index raises ValueError, as invalid input, and
leading_term_report returns each leading-term claim's verdict, True or
False, rather than raising on a false one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul

from .cyclotomic import Record, _check_index, is_prime
from .recursion import dim_table

__all__ = [
    "BiPoly",
    "ConjectureScan",
    "bern_identity_check",
    "bernoulli",
    "conjecture_scan",
    "delta_leading_form",
    "half_total_top_form",
    "interpolate_delta",
    "interpolate_total",
    "leading_term_report",
    "normalized_bernoulli",
    "residue_total_poly",
]


# -- Bernoulli numbers --------------------------------------------------------


def _bern_nums(k: int) -> list[int]:
    """N_0..N_k, where N_j = B_j (j + 1)! is an integer: by von Staudt-Clausen
    the denominator of B_j is the product of the primes p with p - 1 | j, all
    at most j + 1.

    sum_{j<=n} C(n + 1, j) B_j = 0 times n! gives the integer recurrence
    N_n = -sum_{j<n} C(n + 1, j) N_j n!/(j + 1)!, run once from N_0 = 1,
    with N_n = 0 for odd n >= 3.  k is an int >= 0, checked by the caller.
    """
    fact = list(accumulate(range(1, k + 1), mul, initial=1))  # fact[n] = n!
    nums = [1]
    for n in range(1, k + 1):
        if n > 1 and n % 2:
            nums.append(0)
            continue
        nums.append(-sum(
            math.comb(n + 1, j) * nj * (fact[n] // fact[j + 1]) for j, nj in enumerate(nums)
        ))
    return nums


def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k in the convention t/(e^t - 1) = sum B_k t^k / k!,
    so B_1 = -1/2 and B_k = 0 for odd k >= 3: N_k / (k + 1)! from _bern_nums."""
    _check_index(k, low=0, name="Bernoulli index")
    return Fraction(_bern_nums(k)[k], math.factorial(k + 1))


def normalized_bernoulli(n: int) -> Fraction:
    """The positive rational (1/2) (-1)^(n+1) B_{2n} / (2n)! for n >= 1;
    equals zeta(2n) / (2 pi)^(2n).  Examples: 1/24, 1/1440, 1/60480, ..."""
    _check_index(n, name="index")
    return bernoulli(2 * n) * Fraction((-1) ** (n + 1), 2 * math.factorial(2 * n))


def bern_identity_check(g: int) -> bool:
    """sum_{k=0}^{2g+2} 2^k (2^k - 1) C(2g+2, k) B_k == 0, summed on the
    numerators N_k over (2g + 3)!, a multiple of every (k + 1)!."""
    n = 2 * _check_index(g, low=0) + 2
    top = math.factorial(n + 1)
    terms = (2**k * (2**k - 1) * math.comb(n, k) * nk * (top // math.factorial(k + 1))
             for k, nk in enumerate(_bern_nums(n)))
    return sum(terms) == 0


# -- exact bivariate polynomials ----------------------------------------------


def _sort_key(ij):
    return (-(ij[0] + ij[1]), -ij[0])


def _power(name: str, e: int) -> str:
    return "" if e == 0 else name if e == 1 else f"{name}^{e}"


def _lowest(nums: dict, den: int) -> tuple[dict, int]:
    """nums / den in lowest terms: zero numerators dropped, then one gcd of
    den with every numerator divided out.  den must be positive."""
    nums = {ij: n for ij, n in nums.items() if n}
    g = math.gcd(den, *nums.values())
    if g > 1:
        nums = {ij: n // g for ij, n in nums.items()}
    return nums, den // g


class BiPoly:
    """Polynomial in P (prime) and C (half-color) over exact rationals.

    Monomial keys are (p_exponent, c_exponent), two ints >= 0, and each
    coefficient is an int or a Fraction; the constructor raises ValueError
    on anything else.  Supports +, -, * and == with other BiPoly and with
    int or Fraction constants (on the right of -), and ** to exponents
    n >= 0.  eval and subs_c take int points only, and raise TypeError on
    anything else.  == with an operand the arithmetic refuses, a float or a
    string, is False on both sides, which is Python's answer for unrelated
    types: BiPoly({(0, 0): Fraction(1, 2)}) == 0.5 is False, not a refusal.
    Instances are immutable but not hashable, and every instance is truthy:
    test the zero polynomial with `== 0`.

    The coefficients are integer numerators over one positive denominator,
    in lowest terms: no numerator is zero, and the gcd of the denominator
    with all numerators is 1.  That form is unique, so == compares it.
    """

    __slots__ = ("_m", "_d")

    def __init__(self, monomials=None) -> None:
        qs = monomials or {}
        for ij, q in qs.items():
            if type(ij) is not tuple or [type(e) for e in ij] != [int, int] or min(ij) < 0:
                raise ValueError(f"a monomial key is two ints >= 0, got {ij!r}")
            if not isinstance(q, (int, Fraction)):
                raise ValueError(f"a coefficient is an int or a Fraction, got {q!r}")
        den = math.lcm(*(q.denominator for q in qs.values()))
        nums = {ij: q.numerator * (den // q.denominator) for ij, q in qs.items()}
        self._m, self._d = _lowest(nums, den)

    @classmethod
    def _of(cls, nums: dict, den: int) -> "BiPoly":
        """sum nums[i, j] P^i C^j / den, for integer nums and den > 0."""
        self = object.__new__(cls)
        self._m, self._d = _lowest(nums, den)
        return self

    # -- constructors --------------------------------------------------------

    @classmethod
    def var_c(cls) -> "BiPoly":
        return cls._of({(0, 1): 1}, 1)

    # -- inspection ----------------------------------------------------------

    def monomials(self) -> dict:
        return {ij: Fraction(n, self._d) for ij, n in self._m.items()}

    def total_degree(self) -> int:
        return max((i + j for i, j in self._m), default=-1)

    def degree_in_p(self) -> int:
        return max((i for i, _ in self._m), default=-1)

    def homogeneous_part(self, n: int) -> "BiPoly":
        """The monomials of total degree n, an int >= 0."""
        _check_index(n, low=0, name="degree")
        return BiPoly._of({ij: q for ij, q in self._m.items() if ij[0] + ij[1] == n}, self._d)

    def p_coefficient(self, i: int) -> "BiPoly":
        """Coefficient of P^i, i an int >= 0, as a polynomial in C alone."""
        _check_index(i, low=0, name="degree")
        return BiPoly._of({(0, j): q for (ii, j), q in self._m.items() if ii == i}, self._d)

    def subs_c(self, value: int) -> "BiPoly":
        """Substitute the int value for C: one integer sum per power of P,
        over the same denominator."""
        if not isinstance(value, int):
            raise TypeError(f"BiPoly.subs_c takes an int, got {value!r}")
        out: dict = {}
        for (i, j), n in self._m.items():
            out[i, 0] = out.get((i, 0), 0) + n * value**j
        return BiPoly._of(out, self._d)

    def eval(self, p_value: int, c_value: int) -> Fraction:
        """The value at the int point (p_value, c_value): one integer sum of
        n_ij p^i c^j over the denominator."""
        if not isinstance(p_value, int) or not isinstance(c_value, int):
            raise TypeError(f"BiPoly.eval takes int points, got ({p_value!r}, {c_value!r})")
        num = sum(n * p_value**i * c_value**j for (i, j), n in self._m.items())
        return Fraction(num, self._d)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, BiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return BiPoly._of({(0, 0): other.numerator}, other.denominator)
        return None

    def _add(self, o: "BiPoly", sign: int) -> "BiPoly":
        den = math.lcm(self._d, o._d)
        scale, other_scale = den // self._d, sign * (den // o._d)
        out = {ij: n * scale for ij, n in self._m.items()}
        for ij, n in o._m.items():
            out[ij] = out.get(ij, 0) + n * other_scale
        return BiPoly._of(out, den)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._add(o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._add(o, -1)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict = {}
        for (i1, j1), n1 in self._m.items():
            for (i2, j2), n2 in o._m.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + n1 * n2
        return BiPoly._of(out, self._d * o._d)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = BiPoly._of({(0, 0): 1}, 1)
        for _ in range(n):
            result = result * self
        return result

    # -- comparisons and text -----------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._d == o._d and self._m == o._m

    def __repr__(self):
        return f"BiPoly({self.canonical_str()})"

    def canonical_str(self) -> str:
        """Deterministic text form, monomials sorted by total degree then
        P-degree, both descending: e.g. ``(1/24)P^3 + (-1/4)C^2P + ...``."""
        if not self._m:
            return "(0)"
        parts = []
        for i, j in sorted(self._m, key=_sort_key):
            parts.append(f"({Fraction(self._m[i, j], self._d)})" + _power("C", j) + _power("P", i))
        return " + ".join(parts)

    def to_json_obj(self) -> dict:
        """JSON form: {"monomials": [{"p": i, "c": j, "num": n, "den": d}, ...]}."""
        out = []
        for i, j in sorted(self._m, key=_sort_key):
            q = Fraction(self._m[i, j], self._d)
            out.append({"p": i, "c": j, "num": q.numerator, "den": q.denominator})
        return {"monomials": out}


# -- residue construction of the total-count polynomial -----------------------


def _times_linear(poly: list, a: int, b: int) -> list:
    """The ascending coefficients of poly (a + b x), for poly ascending in x;
    [0] for poly = []."""
    return [a * lo + b * hi for lo, hi in zip(poly + [0], [0] + poly)]


def residue_total_poly(g: int) -> BiPoly:
    """Total-count polynomial from the residue of
    (2Pt/(e^(2Pt)-1)) * sinh((2C+1)t)/( (2C+1)t ) * (t/sinh t)^(2g-1) dt / t^(2g-1),
    combined with a falling-factorial binomial correction.  Needs g >= 2.

    The result is ((-1)^g / 2) ((2C+1) P^(g-1) R / 4^(g-1) - P^g binom(C+g-1, 2g-2)),
    R the t^(2g-2) coefficient of the series above, and it is built in one
    integer pass.  h = (t/sinh t)^(2g-1) is s^e for s = sinh t / t =
    sum u^k / (2k+1)! in u = t^2 and e = 1 - 2g.  Its u-coefficients come from
    J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7) in O(g^2)
    steps: n h_n = sum_{k=1}^n ((e+1)k - n) s_k h_(n-k).  R reads only
    h_0..h_(g-1): the sum over i + j + 2k = 2g - 2 (j even, hence i even) of
    a_i b_j h_k, with a_i = B_i (2P)^i / i! and b_j = (2C+1)^j / (j+1)!.

    The recurrence runs on the integers H_n = h_n (3n)!.  The series
    sum a_k u^k / (3k)! with integer a_k form a ring, since
    (3i)! (3j)! | (3i + 3j)!, and s lies in it with constant term 1, since
    (2k + 1)! | (3k)!; so s^e does too, every H_n is an integer, and
    n H_n = sum_k ((e+1)k - n) (3n)! / ((2k+1)! (3n-3k)!) H_(n-k), whose
    factorial ratio is the integer C(3n, 3k) (3k)!/(2k+1)!, divides by n
    exactly.  With B_i = N_i / (i+1)!, each R term has the denominator
    (i+1)! i! (3k)! (j+1)!, which divides (3g - 1)! (2g - 2)!, because
    (i+1)! (j+1)! (3k)! | (i + j + 3k + 2)! and i + j + 3k + 2 <= 3g - 1.
    Both terms then sit on integer numerators over one denominator, and the
    BiPoly takes them as they are.
    """
    e = 1 - 2 * _check_index(g, low=2)
    top = 2 * g - 2
    fact = list(accumulate(range(1, 3 * g), mul, initial=1))  # fact[n] = n!
    h = [1]  # H_n = h_n (3n)!
    for n in range(1, g):
        acc = sum(
            ((e + 1) * k - n) * (fact[3 * n] // (fact[2 * k + 1] * fact[3 * n - 3 * k])) * h[n - k]
            for k in range(1, n + 1)
        )
        h.append(acc // n)
    wide = fact[3 * g - 1]
    # (2g-2)! binom(C + g - 1, 2g - 2) = prod (C + r), r = g - 1 .. 2 - g, ascending in C
    binom = [1]
    for r in range(g - 1, 1 - g, -1):
        binom = _times_linear(binom, r, 1)
    scale, sign = 4 ** (g - 1), (-1) ** g
    bern = _bern_nums(top)
    num = {(g, l): -sign * b * scale * wide for l, b in enumerate(binom)}
    for i in range(0, top + 1, 2):
        a = sign * bern[i] * 2**i * (fact[top] // fact[i])
        # sum_j w_ij (2C+1)^(j+1) P^(g-1+i) by Horner's rule in 2C+1, where w_ij is
        # R's term over (3g - 1)! (2g - 2)!: N_i 2^i H_k (3g-1)! (2g-2)! / ((i+1)! i! (3k)! (j+1)!)
        poly = []
        for j in range(top - i, -1, -2):
            k = (top - i - j) // 2
            poly = _times_linear(_times_linear(poly, 1, 2), 1, 2)
            poly[0] += a * h[k] * (wide // (fact[i + 1] * fact[j + 1] * fact[3 * k]))
        num.update(((g - 1 + i, l), q) for l, q in enumerate(_times_linear(poly, 1, 2)))
    return BiPoly._of(num, 2 * scale * wide * fact[top])


# -- exact interpolation from recursion tables --------------------------------


def _lagrange_rows(xs) -> tuple[list[list[int]], int]:
    """The Lagrange basis of the distinct integer nodes xs, in integers.

    With the weights w_m = prod_{l != m} (x_m - x_l), W = lcm(w_m) and the node
    polynomial N(x) = prod_l (x - x_l), L[k][m] is the x^k coefficient of
    (W / w_m) N(x) / (x - x_m), one synthetic division per node.  So the
    interpolant through (xs[m], y_m) has x^k coefficient
    sum_m y_m L[k][m] / W.  A repeated node has weight 0, and W // 0 raises
    ZeroDivisionError.
    """
    n = len(xs)
    weights = [
        math.prod(xm - xl for l, xl in enumerate(xs) if l != m) for m, xm in enumerate(xs)
    ]
    w_lcm = math.lcm(*weights)
    node = [1]  # prod_l (x - x_l), ascending
    for x in xs:
        node = _times_linear(node, -x, 1)
    rows = [[0] * n for _ in range(n)]
    for m, (xm, w) in enumerate(zip(xs, weights)):
        scale = w_lcm // w
        quo = 1  # coefficients of N(x) / (x - xm), from the top
        for k in range(n - 1, -1, -1):
            rows[k][m] = scale * quo
            quo = node[k] + xm * quo
    return rows, w_lcm


def _next_prime(n: int) -> int:
    n += 1
    while not is_prime(n):
        n += 1
    return n


def interpolate_delta(g: int) -> BiPoly:
    """Exact bivariate polynomial of total degree 2g - 1 through signed counts.

    The grid is fixed: c = 0..2g-1 at each of the 2g smallest primes
    >= 4g + 3.  The fit must then reproduce five held-out counts, else
    ArithmeticError: c = 0, 1, 2 at the next prime and c = 2g, 2g + 1 at the
    largest fit prime.
    """
    _check_index(g)
    return _interpolate(g, 2 * g - 1, "delta")


def interpolate_total(g: int) -> BiPoly:
    """Exact bivariate polynomial of total degree 3g - 2 through total counts.

    The grid is c = 0..3g-2 at each of the 3g - 1 smallest primes
    >= max(4g + 3, 6g - 1), held out as in interpolate_delta (with
    c = 3g - 1, 3g at the largest fit prime).
    """
    _check_index(g)
    return _interpolate(g, 3 * g - 2, "total")


# Bounded: leading_terms.py re-reads both the delta and the total fit of a genus.
@lru_cache(maxsize=2)
def _interpolate(g: int, deg: int, kind: str) -> BiPoly:
    """Fit DimTable.<kind>(g, c) of degree deg, then check held-out points.

    The fit is two Lagrange stages over one basis per node set, the colors
    c = 0..deg and the fit primes, each built once by _lagrange_rows.  Stage
    one turns each prime's counts into C-coefficient numerators over W_c,
    stage two turns each column of those into P-coefficient numerators over
    W_c W_p; both stay in integers, and the BiPoly takes the numerators over
    W_c W_p as they are.  Each prime's table is read once, as its genus-g
    total or signed row.
    """
    # every fit prime must admit c = 0..deg, i.e. (p-3)/2 >= deg
    fit = [_next_prime(max(4 * g + 3, 2 * deg + 3) - 1)]
    while len(fit) < deg + 1:
        fit.append(_next_prime(fit[-1]))
    probe = _next_prime(fit[-1])
    rows = "totals" if kind == "total" else "deltas"
    # p -> the genus-g counts of `kind` at every color, from one row read
    counts = {p: getattr(dim_table(p, g), rows)[g - 1] for p in (*fit, probe)}

    c_rows, w_c = _lagrange_rows(range(deg + 1))
    p_rows, w_p = _lagrange_rows(fit)
    # by_prime[m][j]: W_c times the C^j coefficient of the fit at prime fit[m]
    by_prime = [[sum(map(mul, counts[p], row)) for row in c_rows] for p in fit]
    mono = {
        (i, j): sum(map(mul, column, row))
        for j, column in enumerate(zip(*by_prime))
        for i, row in enumerate(p_rows)
    }
    poly = BiPoly._of(mono, w_c * w_p)

    # fit holds deg + 1 distinct odd primes >= 2 deg + 3 (7 and 11 when deg = 1),
    # so fit[-1] >= 2 deg + 7 admits the colors deg + 1 and deg + 2
    held = [(probe, 0), (probe, 1), (probe, 2), (fit[-1], deg + 1), (fit[-1], deg + 2)]
    for p, c in held:
        got = poly.eval(p, c)
        want = counts[p][c]
        if got != want:
            raise ArithmeticError(
                f"held-out validation failed for {kind} at (p={p}, c={c}): "
                f"{got} != {want}"
            )
    return poly


# -- leading-term structure ----------------------------------------------------


def delta_leading_form(g: int) -> BiPoly:
    """Top homogeneous part (degree 2g - 1) of the signed-count polynomial:
    (-1)^(g-1) sum_{k=1}^{2g} 2 (2^k - 1) (B_k / k!) (C^(2g-k) / (2g-k)!) P^(k-1).

    With B_k = N_k / (k+1)!, the k-th term has the denominator
    (k+1)! k! (2g-k)!, which divides (2g + 1)! (2g)!: one integer numerator
    per monomial over that."""
    n = 2 * _check_index(g)
    sign = (-1) ** (g - 1)
    wide = math.factorial(n + 1)
    mono = {
        (k - 1, n - k): sign * 2 * (2**k - 1) * nk * math.comb(n, k)
        * (wide // math.factorial(k + 1))
        for k, nk in enumerate(_bern_nums(n)) if k
    }
    return BiPoly._of(mono, math.factorial(n) * wide)


def half_total_top_form(g: int) -> BiPoly:
    """The two top homogeneous layers (degrees 3g - 2 and 3g - 3) shared by the
    even and odd counts for g >= 3:
    ((-1)^g / 4) sum_{k=0}^{2g-2} (B_k/k!) (C^(2g-2-k)/(2g-2-k)!) (1 + 2C/(2g-1-k)) P^(g-1+k).

    With m = 2g - 2 and B_k = N_k / (k+1)!, the two terms of each k have the
    denominators 4 (k+1)! k! (m-k)! and 2 (k+1)! k! (m+1-k)!, which divide
    4 ((m+1)!)^2: one integer numerator per monomial over that."""
    m = 2 * _check_index(g, low=3) - 2
    sign = (-1) ** g
    wide = math.factorial(m + 1)
    mono = {}
    for k, nk in enumerate(_bern_nums(m)):
        w = sign * nk * (wide // math.factorial(k + 1))
        mono[g - 1 + k, m - k] = w * (m + 1) * math.comb(m, k)
        mono[g - 1 + k, m + 1 - k] = 2 * w * math.comb(m + 1, k)
    return BiPoly._of(mono, 4 * wide * wide)


def leading_term_report(g: int) -> dict[str, bool]:
    """Every degree/leading-term claim for one genus, mapped to its verdict,
    True or False.  Raises ValueError for g < 2; a claim that fails is a
    False verdict, never an exception.
    """
    dpoly = interpolate_delta(_check_index(g, low=2))
    tpoly = interpolate_total(g)
    half = Fraction(1, 2)
    epoly = (tpoly + dpoly) * half
    opoly = (tpoly - dpoly) * half
    lead = 4 * (2 ** (2 * g) - 1) * normalized_bernoulli(g)
    report = {
        "signed count has total degree 2g-1": dpoly.total_degree() == 2 * g - 1,
        "total count has total degree 3g-2": tpoly.total_degree() == 3 * g - 2,
        "even and odd counts have total degree 3g-2":
            epoly.total_degree() == 3 * g - 2 and opoly.total_degree() == 3 * g - 2,
        "signed top layer matches the Bernoulli form":
            dpoly.homogeneous_part(2 * g - 1) == delta_leading_form(g),
        "signed P-leading coefficient is 4(2^(2g)-1) times the normalized Bernoulli number":
            dpoly.p_coefficient(2 * g - 1) == lead,
    }
    if g == 2:
        cpoly = BiPoly.var_c()
        report["even count leads with (C+1)/24 at P^3"] = (
            epoly.p_coefficient(3) == (cpoly + 1) * Fraction(1, 24)
        )
        report["odd count leads with C/24 at P^3"] = (
            opoly.p_coefficient(3) == cpoly * Fraction(1, 24)
        )
    else:
        top = half_total_top_form(g)
        layers = {n: top.homogeneous_part(n) for n in (3 * g - 2, 3 * g - 3)}
        for n, layer in layers.items():
            report[f"even/odd counts share the half-total layer of degree {n}"] = (
                epoly.homogeneous_part(n) == layer and opoly.homogeneous_part(n) == layer
            )
        half_total = tpoly * half
        report["half of the total matches the shared top layers"] = all(
            half_total.homogeneous_part(n) == layer for n, layer in layers.items()
        )
        want = (BiPoly.var_c() + half) * normalized_bernoulli(g - 1)
        report[
            "even and odd counts have P-degree 3g-3 with leading coefficient (C+1/2) "
            "times the normalized Bernoulli number"
        ] = (
            epoly.degree_in_p() == 3 * g - 3
            and opoly.degree_in_p() == 3 * g - 3
            and epoly.p_coefficient(3 * g - 3) == want
            and opoly.p_coefficient(3 * g - 3) == want
        )
    return report


# -- exploratory pattern scan ---------------------------------------------------


class ConjectureScan(Record):
    """Observed patterns in the signed-count polynomial for one genus;
    base_quotient is its C = 0 specialization over P(P^2 - 1)/24, or None
    when that specialization is not divisible."""

    __slots__ = ("g", "no_positive_even_p_powers", "base_quotient")


def _base_quotient(poly: BiPoly) -> BiPoly | None:
    """poly / (P(P^2 - 1)/24) for poly in P alone; None if not divisible.
    P^3 - P is monic, so its quotient of the integer numerators is integral."""
    num = [poly._m.get((i, 0), 0) for i in range(poly.degree_in_p() + 1)]
    quo = [0] * max(len(num) - 3, 0)
    for k in reversed(range(len(quo))):
        quo[k] = f = num[k + 3]
        num[k + 3] = 0
        num[k + 1] += f
    if any(num):
        return None
    return BiPoly._of({(i, 0): 24 * q for i, q in enumerate(quo)}, poly._d)


def conjecture_scan(g: int) -> ConjectureScan:
    """Scan two observed-but-unproven patterns; reported, never load-bearing.

    (i) every monomial P^m C^n with m > 0 has m odd; (ii) the C = 0
    specialization is divisible by P(P^2 - 1)/24 as a polynomial.
    """
    dpoly = interpolate_delta(_check_index(g, low=2))
    pat1 = all(i == 0 or i % 2 == 1 for (i, _j) in dpoly.monomials())
    return ConjectureScan(g, pat1, _base_quotient(dpoly.subs_c(0)))
