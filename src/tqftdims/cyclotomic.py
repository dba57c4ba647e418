"""Exact arithmetic in the cyclotomic field Q(zeta_p), p an odd prime >= 5.

Every element is stored as p-1 integer coordinates over one shared positive
denominator: x = (a_0 + a_1 zeta + ... + a_(p-2) zeta^(p-2)) / den.  The
relation 1 + zeta + ... + zeta^(p-1) = 0 eliminates zeta^(p-1), and every
element is kept reduced so that gcd(a_0, ..., a_(p-2), den) = 1 (zero has
den = 1).  Equal field elements therefore have identical coordinates, `==`
is decidable, and the integral elements Z[zeta_p] are exactly those with
den = 1.  Ring operations and the Galois action run on plain ints.

Inverses need no polynomial gcd: for integral y the product adj(y) of the
conjugates sigma_j(y), j = 2..p-1, satisfies y * adj(y) = N(y), the rational
norm, so 1/y = adj(y) / N(y).

No floating point appears anywhere in this module.  The distinguished
element h = 1 - zeta generates the unique prime above p; h-adic valuations
are computed by exact division.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "CycNum",
    "INFINITE",
    "galois",
    "h_valuation",
    "inv",
    "is_prime",
    "monomial",
    "norm",
    "quantum_int",
]

#: Marker returned by :func:`h_valuation` for the zero element.
INFINITE = math.inf


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for the small primes used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# Bounded: verify re-reads each of its 18 primes; no run cycles through more.
@lru_cache(maxsize=32, typed=True)
def _check_prime(p: int) -> int:
    """Return p if it is an int prime >= 5, else raise ValueError.  Cached, as
    every CycNum and every table cell read validates p; typed, so 5.0 is refused;
    private, like its sibling _check_color, so a tracer that wraps public
    names counts it in the caller."""
    if not isinstance(p, int) or p < 5 or not is_prime(p):
        raise ValueError(f"p must be a prime >= 5, got {p}")
    return p


def _check_color(p: int, *colors: int) -> int:
    """Return d = (p - 1)/2 if p passes _check_prime and every half-color
    lies in 0..d-1, else raise ValueError."""
    d = (_check_prime(p) - 1) // 2
    for c in colors:
        if not 0 <= c < d:
            raise ValueError(f"half-color must lie in 0..{d - 1} for p={p}, got {c}")
    return d


def _fold(acc: list) -> list:
    """Reduce p coefficients over 1, t, ..., t^(p-1) to the p-1 basis
    coordinates, using zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))."""
    top = acc.pop()
    return [a - top for a in acc] if top else acc


def _nonzero(a) -> list:
    """The (index, coordinate) pairs of a's nonzero coordinates."""
    return [(i, ai) for i, ai in enumerate(a) if ai]


def _mul_into(acc: list, a: list, b: list) -> list:
    """Add the product of a and b, given as _nonzero pairs, to the p
    coefficients acc modulo t^p - 1, and return acc.  Only nonzero pairs
    are visited, so a product with a 2-sparse factor costs O(p)."""
    p = len(acc)
    for i, ai in a:
        for j, bj in b:
            k = i + j
            if k >= p:
                k -= p
            acc[k] += ai * bj
    return acc


def _int_mul(p: int, a, b) -> list:
    """Product of two integral elements given by coordinates: an integer
    convolution modulo t^p - 1 over the nonzero coordinates of both, then
    one fold of the top coefficient."""
    return _fold(_mul_into([0] * p, _nonzero(a), _nonzero(b)))


def _int_galois(p: int, a, j: int) -> list:
    """Coordinates of sigma_j(a) for sigma_j: zeta -> zeta^j, j a unit mod p."""
    acc = [0] * p
    for i, ai in enumerate(a):
        if ai:
            acc[(i * j) % p] += ai
    return _fold(acc)


class CycNum:
    """A number in Q(zeta_p): integer power-basis coordinates `num` over a
    positive denominator `den`, reduced so that their gcd is 1.

    Supports +, -, *, /, ** with other CycNum of the same order and with
    plain integers or Fractions.  Instances are treated as immutable.
    """

    __slots__ = ("p", "num", "den")

    def __init__(self, p: int, coeffs=()) -> None:
        _check_prime(p)
        vec = [x if isinstance(x, int) else Fraction(x) for x in coeffs]
        if len(vec) > p:
            raise ValueError(f"at most {p} coefficients allowed for order {p}")
        den = math.lcm(*(x.denominator for x in vec))
        acc = [x.numerator * (den // x.denominator) for x in vec]
        acc.extend([0] * (p - len(acc)))
        self._set(p, _fold(acc), den)

    def _set(self, p: int, num: list, den: int) -> None:
        if den != 1:
            g = math.gcd(den, *num)
            if g != 1:
                num = [a // g for a in num]
                den //= g
        self.p = p
        self.num = tuple(num)
        self.den = den

    @classmethod
    def _reduced(cls, p: int, num: list, den: int) -> "CycNum":
        """Build from p-1 integer coordinates over den > 0, cancelling the gcd."""
        x = object.__new__(cls)
        x._set(p, num, den)
        return x

    # -- constructors ------------------------------------------------------

    @classmethod
    def scalar(cls, p: int, value) -> "CycNum":
        return cls(p, [value])

    # -- predicates --------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The power-basis coordinates as Fractions."""
        return tuple(Fraction(a, self.den) for a in self.num)

    def is_integral(self) -> bool:
        """True when every power-basis coordinate is a rational integer."""
        return self.den == 1

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        """Return the element as a Fraction, or raise if it is irrational."""
        if not self.is_rational():
            raise ArithmeticError(f"element is not rational: {self!r}")
        return Fraction(self.num[0], self.den)

    # -- ring / field operations -------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycNum):
            if other.p != self.p:
                raise ValueError(
                    f"mixed cyclotomic orders: {self.p} and {other.p}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycNum.scalar(self.p, other)
        return None

    def _add(self, o: "CycNum", sign: int) -> "CycNum":
        da, db = self.den, o.den
        num = [a * db + sign * b * da for a, b in zip(self.num, o.num)]
        return CycNum._reduced(self.p, num, da * db)

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

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return CycNum._reduced(self.p, [-a for a in self.num], self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.p
        return CycNum._reduced(p, _int_mul(p, self.num, o.num), self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * inv(o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * inv(self)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return inv(self) ** (-n)
        result = CycNum.scalar(self.p, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.den == o.den and self.num == o.num

    def __hash__(self):
        # Equal to a rational value means hashing like that value.
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
        return hash((self.p, self.num, self.den))

    def __bool__(self):
        return any(self.num)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*z" if c != 1 else "z")
            else:
                terms.append(f"{c}*z^{i}" if c != 1 else f"z^{i}")
        body = " + ".join(terms) if terms else "0"
        return f"CycNum({self.p}: {body})"


def monomial(p: int, k: int) -> CycNum:
    """zeta_p^k for any integer k, reduced to canonical form."""
    _check_prime(p)
    vec = [0] * p
    vec[k % p] = 1
    return CycNum(p, vec)


def _primitive_root(p: int) -> int:
    """The least generator g of the units mod p, so sigma_g generates Gal."""
    factors = [q for q in range(2, p) if (p - 1) % q == 0 and is_prime(q)]
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


def _adjugate_norm(p: int, a) -> tuple[list, int]:
    """For integral y with coordinates a, return (adj(y), N(y)) where adj(y)
    is the product of the conjugates sigma_j(y), j = 2..p-1, and N(y) the
    rational integer y * adj(y).  Multiplying back certifies the pair.

    With P_m = prod_{i<m} sigma_g^i(y), adj(y) = sigma_g(P_(p-2)), and P is
    built by doubling, P_2m = P_m * sigma_g^m(P_m) and P_(m+1) = y * sigma_g(P_m),
    in O(log p) products instead of p - 3.
    """
    g = _primitive_root(p)
    acc, m = list(a), 1
    for bit in bin(p - 2)[3:]:
        acc = _int_mul(p, acc, _int_galois(p, acc, pow(g, m, p)))
        m *= 2
        if bit == "1":
            acc = _int_mul(p, a, _int_galois(p, acc, g))
            m += 1
    adj = _int_galois(p, acc, g)
    prod = _int_mul(p, a, adj)
    if any(prod[1:]):
        raise ArithmeticError("product of all conjugates is not rational")
    return adj, prod[0]


def inv(x: CycNum) -> CycNum:
    """Multiplicative inverse: (num/den)^-1 = den * adj(num) / N(num)."""
    if not x:
        raise ZeroDivisionError("inverse of zero in a cyclotomic field")
    p = x.p
    # N(num) > 0: the conjugates pair off as complex conjugates.
    adj, n = _adjugate_norm(p, x.num)
    return CycNum._reduced(p, [x.den * a for a in adj], n)


def galois(x: CycNum, j: int) -> CycNum:
    """Apply the automorphism zeta -> zeta^j.  Requires gcd(j, p) = 1."""
    p = x.p
    jj = j % p
    if jj == 0:
        raise ValueError(f"galois index must be invertible mod {p}, got {j}")
    return CycNum._reduced(p, _int_galois(p, x.num, jj), x.den)


def norm(x: CycNum) -> Fraction:
    """Field norm: the product of all p-1 Galois conjugates.  Always rational."""
    p = x.p
    return Fraction(_adjugate_norm(p, x.num)[1], x.den ** (p - 1))


def quantum_int(p: int, n: int) -> CycNum:
    """The quantum integer [n] = (q^n - q^-n)/(q - q^-1) at q = zeta_p.

    Computed from the telescoped sum q^(n-1) + q^(n-3) + ... + q^(1-n), so the
    result is visibly integral.  [n] is a unit of Z[zeta_p] for 1 <= n <= p-1.
    """
    _check_prime(p)
    if n < 0:
        raise ValueError("quantum integer index must be >= 0")
    vec = [0] * p
    for k in range(n):
        vec[(n - 1 - 2 * k) % p] += 1
    return CycNum(p, vec)


def h_valuation(x: CycNum):
    """h-adic valuation of an integral element, where h = 1 - zeta.

    Returns INFINITE for zero.  An integral x is divisible by h exactly when
    its coordinate sum vanishes mod p (reduce via zeta -> 1), and then the
    quotient x/h is again integral; repeat until the test fails.
    """
    if not x.is_integral():
        raise ValueError("h-adic valuation is defined for integral elements only")
    if not x:
        return INFINITE
    p = x.p
    if sum(x.num) % p:
        return 0  # prime to h, as every unit is: no inverse to build
    ih = inv(CycNum(p, [1, -1]))
    v = 0
    cur = x
    while sum(cur.num) % p == 0:
        cur = cur * ih
        if not cur.is_integral():
            raise ArithmeticError("exact division by 1 - zeta produced a non-integral result")
        v += 1
    return v
