"""Exact polynomial identities in the prime P and the trunk half-color C.

The dimension counts, viewed as functions of (p, c), are polynomials with
rational coefficients: the signed count delta has total degree 2g - 1 and
the total count has 3g - 2.  This module recovers those polynomials two
independent ways - exact interpolation through recursion-table samples, and
a Bernoulli-series residue construction - and checks their degree and
leading-term structure against closed Bernoulli forms.

The interpolation builds one integer Lagrange basis per node set (the
colors, then the fit primes), reads each prime's table once, and stays in
integer numerators until the last step.  The arithmetic is exact and in
integers throughout: interpolation, evaluation at integer points and the
residue polynomial work on integer numerators over one common denominator,
and Fraction appears only at the interface, one per coefficient returned.
Nothing here touches floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .cyclotomic import is_prime
from .recursion import dim_table

__all__ = [
    "BiPoly",
    "ConjectureScan",
    "InterpolationError",
    "LeadingTermError",
    "bern_identity_check",
    "bernoulli",
    "conjecture_scan",
    "delta_leading_form",
    "half_total_top_form",
    "interpolate_delta",
    "interpolate_total",
    "leading_term_report",
    "newton_coeffs",
    "normalized_bernoulli",
    "residue_total_poly",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class InterpolationError(ValueError):
    """Raised when an interpolant misses a held-out count."""


class LeadingTermError(AssertionError):
    """Raised when an interpolated polynomial violates a leading-term claim."""


# -- Bernoulli numbers --------------------------------------------------------


# Unbounded: the keys are exactly 0..k for the largest k asked for, and the
# recursion re-reads all of them, so any smaller bound makes it exponential.
@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k in the convention t/(e^t - 1) = sum B_k t^k / k!,
    so B_1 = -1/2 and B_k = 0 for odd k >= 3."""
    if k < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if k == 0:
        return _ONE
    if k % 2 and k > 1:
        return _ZERO
    acc = _ZERO
    for j in range(k):
        acc += math.comb(k + 1, j) * bernoulli(j)
    return -acc / (k + 1)


def normalized_bernoulli(n: int) -> Fraction:
    """The positive rational (1/2) (-1)^(n+1) B_{2n} / (2n)! for n >= 1;
    equals zeta(2n) / (2 pi)^(2n).  Examples: 1/24, 1/1440, 1/60480, ..."""
    if n < 1:
        raise ValueError("index must be >= 1")
    return Fraction((-1) ** (n + 1), 2) * bernoulli(2 * n) / math.factorial(2 * n)


def bern_identity_check(g: int) -> bool:
    """sum_{k=0}^{2g+2} 2^k (2^k - 1) C(2g+2, k) B_k == 0."""
    if g < 0:
        raise ValueError("g must be >= 0")
    n = 2 * g + 2
    acc = _ZERO
    for k in range(n + 1):
        acc += (2**k) * (2**k - 1) * math.comb(n, k) * bernoulli(k)
    return acc == 0


# -- exact bivariate polynomials ----------------------------------------------


def _sort_key(ij):
    return (-(ij[0] + ij[1]), -ij[0])


class BiPoly:
    """Polynomial in P (prime) and C (half-color) over exact rationals.

    Monomial keys are (p_exponent, c_exponent).  Instances are immutable.
    """

    __slots__ = ("_m",)

    def __init__(self, monomials=None) -> None:
        m = {}
        if monomials:
            for (i, j), q in monomials.items():
                q = Fraction(q)
                if q:
                    m[(int(i), int(j))] = q
        self._m = m

    # -- constructors --------------------------------------------------------

    @classmethod
    def const(cls, q) -> "BiPoly":
        return cls({(0, 0): Fraction(q)})

    @classmethod
    def var_c(cls) -> "BiPoly":
        return cls({(0, 1): _ONE})

    # -- inspection ----------------------------------------------------------

    def monomials(self) -> dict:
        return dict(self._m)

    def coefficient(self, i: int, j: int) -> Fraction:
        return self._m.get((i, j), _ZERO)

    def total_degree(self) -> int:
        return max((i + j for i, j in self._m), default=-1)

    def degree_in_p(self) -> int:
        return max((i for i, _ in self._m), default=-1)

    def homogeneous_part(self, n: int) -> "BiPoly":
        return BiPoly({ij: q for ij, q in self._m.items() if ij[0] + ij[1] == n})

    def p_coefficient(self, i: int) -> "BiPoly":
        """Coefficient of P^i, as a polynomial in C alone."""
        return BiPoly({(0, j): q for (ii, j), q in self._m.items() if ii == i})

    def subs_c(self, value) -> "BiPoly":
        """Substitute a rational for C."""
        value = Fraction(value)
        out: dict = {}
        for (i, j), q in self._m.items():
            out[(i, 0)] = out.get((i, 0), _ZERO) + q * value**j
        return BiPoly(out)

    def eval(self, p_value, c_value) -> Fraction:
        if isinstance(p_value, int) and isinstance(c_value, int):
            den = math.lcm(*(q.denominator for q in self._m.values()))
            num = sum(
                q.numerator * (den // q.denominator) * p_value**i * c_value**j
                for (i, j), q in self._m.items()
            )
            return Fraction(num, den)
        pv, cv = Fraction(p_value), Fraction(c_value)
        return sum((q * pv**i * cv**j for (i, j), q in self._m.items()), _ZERO)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, BiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return BiPoly.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._m)
        for ij, q in o._m.items():
            out[ij] = out.get(ij, _ZERO) + q
        return BiPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._m)
        for ij, q in o._m.items():
            out[ij] = out.get(ij, _ZERO) - q
        return BiPoly(out)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict = {}
        for (i1, j1), q1 in self._m.items():
            for (i2, j2), q2 in o._m.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, _ZERO) + q1 * q2
        return BiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = BiPoly.const(1)
        for _ in range(n):
            result = result * self
        return result

    # -- comparisons and text -----------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._m == o._m

    def __hash__(self):
        return hash(frozenset(self._m.items()))

    def __bool__(self):
        return bool(self._m)

    def __repr__(self):
        return f"BiPoly({self.canonical_str()})"

    def canonical_str(self) -> str:
        """Deterministic text form, monomials sorted by total degree then
        P-degree, both descending: e.g. ``(1/24)P^3 + (-1/4)C^2P + ...``."""
        if not self._m:
            return "(0)"
        parts = []
        for i, j in sorted(self._m, key=_sort_key):
            q = self._m[(i, j)]
            coeff = f"({q.numerator})" if q.denominator == 1 else f"({q})"
            body = ""
            if j == 1:
                body += "C"
            elif j > 1:
                body += f"C^{j}"
            if i == 1:
                body += "P"
            elif i > 1:
                body += f"P^{i}"
            parts.append(coeff + body)
        return " + ".join(parts)

    def to_json_obj(self) -> dict:
        """JSON form: {"monomials": [{"p": i, "c": j, "num": n, "den": d}, ...]}."""
        return {
            "monomials": [
                {
                    "p": i,
                    "c": j,
                    "num": self._m[(i, j)].numerator,
                    "den": self._m[(i, j)].denominator,
                }
                for i, j in sorted(self._m, key=_sort_key)
            ]
        }


# -- residue construction of the total-count polynomial -----------------------


def residue_total_poly(g: int) -> BiPoly:
    """Total-count polynomial from the residue of
    (2Pt/(e^(2Pt)-1)) * sinh((2C+1)t)/( (2C+1)t ) * (t/sinh t)^(2g-1) dt / t^(2g-1),
    combined with a falling-factorial binomial correction.  Needs g >= 2.

    The result is ((-1)^g / 2) ((2C+1) P^(g-1) R / 4^(g-1) - P^g binom(C+g-1, 2g-2)),
    R the t^(2g-2) coefficient of the series above, and it is built in one
    integer pass.  h = (t/sinh t)^(2g-1) is s^e for s = sinh t / t =
    sum u^k / (2k+1)! in u = t^2 and e = 1 - 2g.  Its u-coefficients come from
    J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7) in O(g^2)
    steps: n h_n = sum_{k=1}^n ((e+1)k - n) s_k h_(n-k).  Each h_n is exact,
    and R reads only h_0..h_(g-1): the sum over i + j + 2k = 2g - 2 (j even,
    hence i even) of a_i b_j h_k, with a_i = B_i (2P)^i / i! and
    b_j = (2C+1)^j / (j+1)!.  Both terms then sit on integer numerators over
    one denominator, and Fraction appears once per monomial.
    """
    if g < 2:
        raise ValueError("residue construction requires g >= 2")
    e = 1 - 2 * g
    h = [_ONE]
    for n in range(1, g):
        acc = sum(
            Fraction((e + 1) * k - n, math.factorial(2 * k + 1)) * h[n - k]
            for k in range(1, n + 1)
        )
        h.append(acc / n)
    top = 2 * g - 2
    terms = {}
    for i in range(0, top + 1, 2):
        a = bernoulli(i) * 2**i / math.factorial(i)
        for j in range(0, top - i + 1, 2):
            terms[i, j] = a * h[(top - i - j) // 2] / math.factorial(j + 1)
    # (2g-2)! binom(C + g - 1, 2g - 2) = prod (C + r), r = g - 1 .. 2 - g, ascending in C
    binom = [1]
    for r in range(g - 1, 1 - g, -1):
        binom = [r * lo + hi for lo, hi in zip(binom + [0], [0] + binom)]
    fact = math.factorial(top)
    scale = 4 ** (g - 1)
    den = math.lcm(fact, scale * math.lcm(*(w.denominator for w in terms.values())))
    num = {(g, l): -b * (den // fact) for l, b in enumerate(binom)}
    for (i, j), w in terms.items():
        # w (2C+1)^(j+1) P^(g-1+i), expanded over den
        w = w.numerator * (den // (scale * w.denominator))
        for l in range(j + 2):
            num[g - 1 + i, l] = num.get((g - 1 + i, l), 0) + (w * math.comb(j + 1, l) << l)
    sign = (-1) ** g
    return BiPoly({il: Fraction(sign * q, 2 * den) for il, q in num.items()})


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
        node = [lo - x * hi for lo, hi in zip([0] + node, node + [0])]
    rows = [[0] * n for _ in range(n)]
    for m, (xm, w) in enumerate(zip(xs, weights)):
        scale = w_lcm // w
        quo = 1  # coefficients of N(x) / (x - xm), from the top
        for k in range(n - 1, -1, -1):
            rows[k][m] = scale * quo
            quo = node[k] + xm * quo
    return rows, w_lcm


def newton_coeffs(xs, ys) -> list[Fraction]:
    """Monomial coefficients (ascending) of the interpolant through the points
    (xs[i], ys[i]); the nodes xs must be pairwise distinct integers and the
    values ys rationals.

    The sum runs in integers: the values go over one denominator D, and each
    coefficient is one dot product with a row of _lagrange_rows(xs), divided
    by D W at the end.
    """
    n = len(xs)
    if n != len(ys) or n == 0:
        raise ValueError("need equally many sample points and values, at least one")
    rows, w_lcm = _lagrange_rows(xs)
    den = math.lcm(*(y.denominator for y in ys))
    nums = [y.numerator * (den // y.denominator) for y in ys]
    return [Fraction(sum(map(mul, nums, row)), den * w_lcm) for row in rows]


def _next_prime(n: int) -> int:
    n += 1
    while not is_prime(n):
        n += 1
    return n


def interpolate_delta(g: int) -> BiPoly:
    """Exact bivariate polynomial of total degree 2g - 1 through signed counts.

    The grid is fixed: c = 0..2g-1 at each of the 2g smallest primes
    >= 4g + 3.  The fit must then reproduce five held-out counts, else
    InterpolationError: c = 0, 1, 2 at the next prime and c = 2g, 2g + 1 at the
    largest fit prime.
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    return _interpolate(g, 2 * g - 1, "delta")


def interpolate_total(g: int) -> BiPoly:
    """Exact bivariate polynomial of total degree 3g - 2 through total counts.

    The grid is c = 0..3g-2 at each of the 3g - 1 smallest primes
    >= max(4g + 3, 6g - 1), held out as in interpolate_delta (with
    c = 3g - 1, 3g at the largest fit prime).
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    return _interpolate(g, 3 * g - 2, "total")


# Bounded: leading_terms.py re-reads both the delta and the total fit of a genus.
@lru_cache(maxsize=2)
def _interpolate(g: int, deg: int, kind: str) -> BiPoly:
    """Fit DimTable.<kind>(g, c) of degree deg, then check held-out points.

    The fit is two Lagrange stages over one basis per node set, the colors
    c = 0..deg and the fit primes, each built once by _lagrange_rows.  Stage
    one turns each prime's counts into C-coefficient numerators over W_c,
    stage two turns each column of those into P-coefficient numerators over
    W_c W_p; both stay in integers, and Fraction appears once per monomial.
    Each prime's table is read once.
    """
    # every fit prime must admit c = 0..deg, i.e. (p-3)/2 >= deg
    fit = [_next_prime(max(4 * g + 3, 2 * deg + 3) - 1)]
    while len(fit) < deg + 1:
        fit.append(_next_prime(fit[-1]))
    probe = _next_prime(fit[-1])
    tables = {p: dim_table(p, g) for p in (*fit, probe)}

    c_rows, w_c = _lagrange_rows(range(deg + 1))
    p_rows, w_p = _lagrange_rows(fit)
    # by_prime[m][j]: W_c times the C^j coefficient of the fit at prime fit[m]
    by_prime = []
    for p in fit:
        read = getattr(tables[p], kind)
        ys = [read(g, c) for c in range(deg + 1)]
        by_prime.append([sum(map(mul, ys, row)) for row in c_rows])
    den = w_c * w_p
    mono: dict = {}
    for j, column in enumerate(zip(*by_prime)):
        for i, row in enumerate(p_rows):
            num = sum(map(mul, column, row))
            if num:
                mono[(i, j)] = Fraction(num, den)
    poly = BiPoly(mono)

    # fit holds deg + 1 distinct odd primes >= 2 deg + 3 (7 and 11 when deg = 1),
    # so fit[-1] >= 2 deg + 7 admits the colors deg + 1 and deg + 2
    held = [(probe, 0), (probe, 1), (probe, 2), (fit[-1], deg + 1), (fit[-1], deg + 2)]
    for p, c in held:
        got = poly.eval(p, c)
        want = getattr(tables[p], kind)(g, c)
        if got != want:
            raise InterpolationError(
                f"held-out validation failed for {kind} at (p={p}, c={c}): "
                f"{got} != {want}"
            )
    return poly


# -- leading-term structure ----------------------------------------------------


def delta_leading_form(g: int) -> BiPoly:
    """Top homogeneous part (degree 2g - 1) of the signed-count polynomial:
    (-1)^(g-1) sum_{k=1}^{2g} 2 (2^k - 1) (B_k / k!) (C^(2g-k) / (2g-k)!) P^(k-1)."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    sign = Fraction((-1) ** (g - 1))
    acc = BiPoly()
    for k in range(1, 2 * g + 1):
        q = (
            sign
            * 2
            * (2**k - 1)
            * bernoulli(k)
            / math.factorial(k)
            / math.factorial(2 * g - k)
        )
        acc = acc + BiPoly({(k - 1, 2 * g - k): q})
    return acc


def half_total_top_form(g: int) -> BiPoly:
    """The two top homogeneous layers (degrees 3g - 2 and 3g - 3) shared by the
    even and odd counts for g >= 3:
    ((-1)^g / 4) sum_{k=0}^{2g-2} (B_k/k!) (C^(2g-2-k)/(2g-2-k)!) (1 + 2C/(2g-1-k)) P^(g-1+k)."""
    if g < 3:
        raise ValueError("shared top form needs g >= 3")
    acc = BiPoly()
    sign = Fraction((-1) ** g, 4)
    for k in range(2 * g - 1):
        base = sign * bernoulli(k) / math.factorial(k) / math.factorial(2 * g - 2 - k)
        if not base:
            continue
        me = BiPoly({(g - 1 + k, 2 * g - 2 - k): base})
        tail = BiPoly({(g - 1 + k, 2 * g - 1 - k): base * Fraction(2, 2 * g - 1 - k)})
        acc = acc + me + tail
    return acc


def leading_term_report(g: int) -> dict[str, bool]:
    """Check every degree/leading-term claim for one genus.

    Raises LeadingTermError naming the claim on the first mismatch; returns
    a dict mapping each verified claim to True.
    """
    if g < 2:
        raise ValueError("leading-term report needs g >= 2")
    report: dict[str, bool] = {}

    def claim(name: str, ok: bool) -> None:
        if not ok:
            raise LeadingTermError(f"leading-term claim failed at g={g}: {name}")
        report[name] = True

    dpoly = interpolate_delta(g)
    tpoly = interpolate_total(g)
    epoly = (tpoly + dpoly) * Fraction(1, 2)
    opoly = (tpoly - dpoly) * Fraction(1, 2)

    claim("signed count has total degree 2g-1", dpoly.total_degree() == 2 * g - 1)
    claim("total count has total degree 3g-2", tpoly.total_degree() == 3 * g - 2)
    claim(
        "even and odd counts have total degree 3g-2",
        epoly.total_degree() == 3 * g - 2 and opoly.total_degree() == 3 * g - 2,
    )
    claim(
        "signed top layer matches the Bernoulli form",
        dpoly.homogeneous_part(2 * g - 1) == delta_leading_form(g),
    )
    lead = BiPoly.const(4 * (2 ** (2 * g) - 1) * normalized_bernoulli(g))
    claim(
        "signed P-leading coefficient is 4(2^(2g)-1) times the normalized Bernoulli number",
        dpoly.p_coefficient(2 * g - 1) == lead,
    )
    if g == 2:
        cpoly = BiPoly.var_c()
        claim(
            "even count leads with (C+1)/24 at P^3",
            epoly.p_coefficient(3) == (cpoly + 1) * Fraction(1, 24),
        )
        claim(
            "odd count leads with C/24 at P^3",
            opoly.p_coefficient(3) == cpoly * Fraction(1, 24),
        )
    else:
        top = half_total_top_form(g)
        for n in (3 * g - 2, 3 * g - 3):
            claim(
                f"even/odd counts share the half-total layer of degree {n}",
                epoly.homogeneous_part(n) == top.homogeneous_part(n)
                and opoly.homogeneous_part(n) == top.homogeneous_part(n),
            )
        claim(
            "half of the total matches the shared top layers",
            (tpoly * Fraction(1, 2)).homogeneous_part(3 * g - 2)
            == top.homogeneous_part(3 * g - 2)
            and (tpoly * Fraction(1, 2)).homogeneous_part(3 * g - 3)
            == top.homogeneous_part(3 * g - 3),
        )
        want = (BiPoly.var_c() + Fraction(1, 2)) * normalized_bernoulli(g - 1)
        claim(
            "even and odd counts have P-degree 3g-3 with leading coefficient (C+1/2) "
            "times the normalized Bernoulli number",
            epoly.degree_in_p() == 3 * g - 3
            and opoly.degree_in_p() == 3 * g - 3
            and epoly.p_coefficient(3 * g - 3) == want
            and opoly.p_coefficient(3 * g - 3) == want,
        )
    return report


# -- exploratory pattern scan ---------------------------------------------------


@dataclass(frozen=True)
class ConjectureScan:
    """Observed patterns in the signed-count polynomial for one genus;
    base_quotient is its C = 0 specialization over P(P^2 - 1)/24, or None."""

    g: int
    no_positive_even_p_powers: bool
    base_specialization_divisible: bool
    base_quotient: BiPoly | None


#: P(P^2 - 1)/24 as ascending coefficients in P.
_BASE = (_ZERO, Fraction(-1, 24), _ZERO, Fraction(1, 24))


def _base_quotient(poly: BiPoly) -> BiPoly | None:
    """poly / (P(P^2 - 1)/24) for poly in P alone; None if not divisible."""
    num = [poly.coefficient(i, 0) for i in range(poly.degree_in_p() + 1)]
    quo = [_ZERO] * max(len(num) - len(_BASE) + 1, 0)
    for k in reversed(range(len(quo))):
        f = num[k + len(_BASE) - 1] / _BASE[-1]
        quo[k] = f
        for i, dv in enumerate(_BASE):
            num[k + i] -= f * dv
    if any(num):
        return None
    return BiPoly({(i, 0): q for i, q in enumerate(quo) if q})


def conjecture_scan(g: int) -> ConjectureScan:
    """Scan two observed-but-unproven patterns; reported, never load-bearing.

    (i) every monomial P^m C^n with m > 0 has m odd; (ii) the C = 0
    specialization is divisible by P(P^2 - 1)/24 as a polynomial.
    """
    if g < 2:
        raise ValueError("scan needs g >= 2")
    dpoly = interpolate_delta(g)
    pat1 = all(i == 0 or i % 2 == 1 for (i, _j) in dpoly.monomials())
    quo = _base_quotient(dpoly.subs_c(0))
    return ConjectureScan(g, pat1, quo is not None, quo)
