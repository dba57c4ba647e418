"""Exact arithmetic in the ring of integers Z[zeta_p], p an odd prime >= 5.

Every element is stored as its p-1 integer coordinates over the power basis:
x = a_0 + a_1 zeta + ... + a_(p-2) zeta^(p-2).  The relation
1 + zeta + ... + zeta^(p-1) = 0 eliminates zeta^(p-1), so equal elements
have identical coordinates and `==` is decidable.  Ring operations and the
Galois action run on plain ints.

A product has one path: a loop over the pairs of nonzero coordinates of
its factors modulo t^p - 1, then one fold.  It costs O(p) with a 2-sparse
factor and O(p^2) with two dense ones.

The packed codec below serves the two users that stay packed between
products, CycNum.__pow__ and _is_unit_run.  A power x ** n packs x once, at
the width of ||x||_1^n, runs its whole square-and-multiply chain on reduced
ints and unpacks once.  A unit check "run times its inverse run == 1"
(_is_unit_run, which fusion.hopf_certificate and
claims.quantum_integer_units call with a run shape (n, t)) packs both runs,
makes one product and reads the answer off the packed residue, never
unpacking it.

The rational norm needs no polynomial gcd: the product adj(y) of the
conjugates sigma_j(y), j = 2..p-1, satisfies y * adj(y) = N(y).

No floating point appears anywhere in this module.

The validators here are the package's one door for integer inputs:
_check_order and _check_prime for p, _check_color for half-colors, and
_check_index for every genus, genus bound, index and run length.  Each
refuses a float with ValueError, even a whole one, before any work.  The
exponents mod p (a run's s and t, inverse_run's fields and galois's j) may
be any int and pass no validator, and neither does the exponent of an
operator: x ** 2.0 is Python's TypeError.

Record, the base of the package's read-only records, lives here because
every other module already builds on this one.
"""

from __future__ import annotations

from functools import lru_cache
from operator import sub

__all__ = [
    "CycNum",
    "Record",
    "galois",
    "inverse_run",
    "is_prime",
    "norm",
    "quantum_int",
    "run",
]

def is_prime(n: int) -> bool:
    """Trial-division primality test of an int n >= 0, adequate for the small
    primes used here."""
    if _check_index(n, low=0, name="n") < 2:
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


def _check_order(p: int) -> int:
    """Return p if it is an int >= 5, else raise _check_prime's ValueError.
    These are the checks that cost nothing: the CLI runs them before a size
    guard, and the trial division of _check_prime only after it, so that a
    huge p is refused at once."""
    if not isinstance(p, int) or p < 5:
        raise ValueError(f"p must be a prime >= 5, got {p}")
    return p


# Bounded: verify re-reads each of its 18 primes; no run cycles through more.
@lru_cache(maxsize=32, typed=True)
def _check_prime(p: int) -> int:
    """Return p if it is an int prime >= 5, else raise ValueError.  Cached, as
    every CycNum and every table cell read validates p; typed, so 5.0 is refused;
    private, like its sibling _check_color, so a tracer that wraps public
    names counts it in the caller."""
    if not is_prime(_check_order(p)):
        raise ValueError(f"p must be a prime >= 5, got {p}")
    return p


def _rank(p: int) -> int:
    """d = (p - 1)/2 of a checked prime p: _check_prime's ValueError otherwise."""
    return (_check_prime(p) - 1) // 2


def _check_color(p: int, *colors: int) -> int:
    """Return d = (p - 1)/2 if every half-color is an int in 0..d-1, else
    raise ValueError; a float is refused as _check_order refuses 5.0.  p is
    not tested: a caller that needs a prime passes _check_prime(p)."""
    d = (p - 1) // 2
    for c in colors:
        if not isinstance(c, int) or not 0 <= c < d:
            raise ValueError(f"half-color must lie in 0..{d - 1} for p={p}, got {c}")
    return d


def _check_index(n: int, *, low: int = 1, top: int | None = None, name: str = "genus") -> int:
    """Return n if it is an int in low..top (any n >= low when top is None),
    else raise ValueError naming it `name`.  Every genus, genus bound and
    index of the package passes here.  A float is refused even when it is
    whole, as _check_prime refuses 5.0, so that none reaches a range, a
    slice, an exponent or a recursion depth as anything but an int."""
    if not isinstance(n, int):
        raise ValueError(f"{name} must be an int, got {n!r}")
    if top is not None and not low <= n <= top:
        raise ValueError(f"{name} must lie in {low}..{top}, got {n}")
    if n < low:
        raise ValueError(f"{name} must be >= {low}, got {n}")
    return n


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
    """Product of two integral elements given by coordinates, reduced to
    the p - 1 basis coordinates: an integer convolution modulo t^p - 1 over
    the nonzero coordinates of both (_mul_into), then one fold."""
    return _fold(_mul_into([0] * p, _nonzero(a), _nonzero(b)))


# -- the packed codec ----------------------------------------------------------
#
# A polynomial modulo t^p - 1 is packed into one int as its value at t = 2^w,
# w = 8k bits: k whole bytes per digit.  When every coefficient lies within
# +-bound and w - 1 >= bound.bit_length(), each digit stays strictly inside
# +-2^(w-1), and the packed int strictly inside +-m/2 for m = 2^(wp) - 1.
# As t^p = 1 is 2^(wp) = 1 modulo m, a product of packed ints reduced to its
# residue nearest zero is the packed cyclic product, digit for digit.  Digits
# are written with a bias of 2^(w-1) through to_bytes and read through
# from_bytes, so packing and unpacking stay linear in the size of the ints.


def _digit_bytes(bound: int) -> int:
    """The k whose digits of 8k bits hold every integer within +-bound."""
    return bound.bit_length() // 8 + 1


def _pack(x, k: int) -> int:
    """The int whose digits of k bytes are the coordinates x, each strictly
    inside +-2^(8k-1)."""
    half = 1 << (8 * k - 1)
    if k == 1:  # one C loop, no to_bytes call per digit
        digits = bytes(map(half.__add__, x))
    else:
        digits = b"".join([(xi + half).to_bytes(k, "little") for xi in x])
    bias = half.to_bytes(k, "little") * len(x)
    return int.from_bytes(digits, "little") - int.from_bytes(bias, "little")


def _cyclic(prod: int, p: int, k: int) -> int:
    """The residue of prod modulo m = 2^(8kp) - 1 nearest zero."""
    wp = 8 * k * p
    m = (1 << wp) - 1
    r = ((prod & m) + (prod >> wp)) % m
    return r - m if r > m >> 1 else r


def _unpack(r: int, p: int, k: int) -> list:
    """The p signed digits of k bytes of r, folded to basis coordinates."""
    half = 1 << (8 * k - 1)
    bias = int.from_bytes(half.to_bytes(k, "little") * p, "little")
    out = (r + bias).to_bytes(p * k, "little")
    return _fold([int.from_bytes(out[i:i + k], "little") - half for i in range(0, p * k, k)])


def _int_galois(p: int, a, j: int) -> list:
    """Coordinates of sigma_j(a) for sigma_j: zeta -> zeta^j, j a unit mod p."""
    acc = [0] * p
    for i, ai in enumerate(a):
        if ai:
            acc[(i * j) % p] += ai
    return _fold(acc)


class Record:
    """Base of the package's read-only records (FusionElement, DimTable, ...).

    A subclass names its fields in __slots__; the one constructor takes them
    in that order, positionally or by name, and raises TypeError on a
    missing, extra or unknown field.  After that a field can be neither
    assigned nor deleted (AttributeError), so a record that a cache hands to
    every caller stays as it was built.  repr shows every field.  Every
    record compares and hashes by identity: no caller compares two whole
    records, so a caller that needs a value compares its fields.
    """

    __slots__ = ()

    def __init__(self, *values, **named) -> None:
        names = self.__slots__
        fields = dict(zip(names, values), **named)
        # every field given exactly once: no more values than names, no name
        # twice, none unknown and none missing
        if len(values) + len(named) != len(names) or fields.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}, each once")
        for name in names:
            object.__setattr__(self, name, fields[name])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class CycNum:
    """An element of Z[zeta_p]: its p-1 integer power-basis coordinates `num`.

    Supports +, -, * and ** (to exponents n >= 0) with other CycNum of the
    same order, and + and * with plain integers on either side; an integer
    is subtracted only on the right, so write n - x as -x + n.  Instances
    are treated as immutable, and are not hashable.
    """

    __slots__ = ("p", "num")

    def __init__(self, p: int, coeffs=()) -> None:
        _check_prime(p)
        acc = list(coeffs)
        if len(acc) > p:
            raise ValueError(f"at most {p} coefficients allowed for order {p}")
        if not all(isinstance(x, int) for x in acc):
            raise ValueError(f"coordinates must be integers, got {coeffs!r}")
        acc.extend([0] * (p - len(acc)))
        self.p = p
        self.num = tuple(_fold(acc))

    @classmethod
    def _of(cls, p: int, num) -> "CycNum":
        """Build from p-1 integer coordinates, unchecked."""
        x = object.__new__(cls)
        x.p = p
        x.num = tuple(num)
        return x

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycNum):
            if other.p != self.p:
                raise ValueError(
                    f"mixed cyclotomic orders: {self.p} and {other.p}"
                )
            return other
        if isinstance(other, int):
            return CycNum(self.p, [other])
        return None

    def _add(self, o: "CycNum", sign: int) -> "CycNum":
        return CycNum._of(self.p, [a + sign * b for a, b in zip(self.num, o.num)])

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

    def __neg__(self):
        return CycNum._of(self.p, [-a for a in self.num])

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.p
        return CycNum._of(p, _int_mul(p, self.num, o.num))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """x ** n for n >= 0, packed once: left to right from the base,
        bit_length(n) - 1 squarings and popcount(n) - 1 products by the
        base, each a product of packed ints reduced to its cyclic residue,
        and one unpack at the end.

        One digit width serves the whole chain.  In Z[t]/(t^p - 1),
        ||xy||_inf <= ||x||_inf ||y||_1 and ||xy||_1 <= ||x||_1 ||y||_1, so
        every power x^j, j <= n, has coefficients within +-||x||_1^n.
        """
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        if n < 2:
            return self if n else CycNum(self.p, [1])
        p = self.p
        k = _digit_bytes(sum(map(abs, self.num)) ** n)
        base = result = _pack(self.num, k)
        for bit in bin(n)[3:]:
            result = _cyclic(result * result, p, k)
            if bit == "1":
                result = _cyclic(result * base, p, k)
        return CycNum._of(p, _unpack(result, p, k))

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num

    def __bool__(self):
        return any(self.num)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.num):
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


def galois(x: CycNum, j: int) -> CycNum:
    """Apply the automorphism zeta -> zeta^j.  Requires gcd(j, p) = 1."""
    p = x.p
    jj = j % p
    if jj == 0:
        raise ValueError(f"galois index must be invertible mod {p}, got {j}")
    return CycNum._of(p, _int_galois(p, x.num, jj))


def norm(x: CycNum) -> int:
    """Field norm: the product of all p-1 Galois conjugates, a rational integer.

    It makes O(log p) products of dense elements, each pairwise at O(p^2):
    per quantum integer [n], about 0.1 ms at p = 17..23, the primes the
    benchmark reaches, but 1.3 ms at p = 61 and 4.4 ms at p = 101, which
    only the tests reach (shared 2-core x86-64, Python 3.11)."""
    return _adjugate_norm(x.p, x.num)[1]


# -- unfolded elements -----------------------------------------------------------
#
# An element of Z[zeta_p] can also be held unfolded: p integers over
# zeta^0..zeta^(p-1), an element of Z[t]/(t^p - 1), which sums, rotates and
# multiplies with no fold.  The kernel of Z[t]/(t^p - 1) -> Z[zeta_p] is
# Z (1 + t + ... + t^(p-1)), so two unfolded vectors name the same element
# exactly when their difference is constant (_names), and _fold reads the
# coordinates off either.


def _unfolded(p: int, terms) -> list:
    """sum c zeta^e over the (e, c) pairs of terms, any integer e, unfolded."""
    vec = [0] * p
    for e, c in terms:
        vec[e % p] += c
    return vec


def _names(x, y, n: int = 0) -> bool:
    """Whether the unfolded x names the element y + n, for y unfolded and n
    an integer: whether x - y - n is constant."""
    return len({x[0] - y[0] - n, *map(sub, x[1:], y[1:])}) == 1


def _rotate(x, k: int) -> list:
    """zeta^k x, for x unfolded: a rotation of its p integers."""
    r = -k % len(x)
    return [*x[r:], *x[:r]]


def _unfold(x: CycNum) -> list:
    """x unfolded: its p - 1 coordinates, then 0 at zeta^(p-1)."""
    return [*x.num, 0]


def _run_coeffs(p: int, s: int, n: int, t: int) -> list:
    """The run (s, n, t) unfolded."""
    vec = [0] * p
    for k in range(n):
        vec[(s + k * t) % p] += 1
    return vec


def run(p: int, s: int, n: int, t: int) -> CycNum:
    """The run zeta^s (1 + zeta^t + ... + zeta^(t(n-1))), for a run length
    n >= 0 and any ints s and t; zeta^k is the one-term run (k, 1, 1)."""
    _check_prime(p)
    _check_index(n, low=0, name="run length")
    return CycNum._of(p, _fold(_run_coeffs(p, s, n, t)))


def inverse_run(p: int, s: int, n: int, t: int) -> tuple[int, int, int]:
    """The run of the inverse of run (s, n, t), for n and t units mod p.
    The run is zeta^s (1 - zeta^(nt)) / (1 - zeta^t); with m = n^-1 mod p,
    zeta^t is (zeta^(nt))^m, so the inverse is
    zeta^-s (1 + zeta^(nt) + ... + zeta^(nt(m-1))), the run (-s, m, nt)."""
    return -s, pow(n, -1, p), n * t % p


def _is_unit_run(p: int, n: int, t: int) -> bool:
    """Whether the run (0, n, t), 0 < n < p and t a unit mod p, times the run
    inverse_run(p, 0, n, t) is 1, decided packed: no CycNum, no unpack.

    Both runs have 0/1 coefficients, so every coefficient of their cyclic
    product lies in [0, min(n, m)], m = n^-1 mod p, and its packed residue r
    holds them as its digits c_0..c_(p-1).  The product is 1 exactly when it
    names 1 (_names), c_0 - 1 = c_1 = ... = c_(p-1), that is when
    r = 1 + (c_0 - 1) (1 + 2^w + ... + 2^(w(p-1))), c_0 being r mod 2^w.
    """
    y = inverse_run(p, 0, n, t)
    k = _digit_bytes(min(n, y[1]))
    r = _cyclic(_pack(_run_coeffs(p, 0, n, t), k) * _pack(_run_coeffs(p, *y), k), p, k)
    digit = (1 << 8 * k) - 1
    return r == 1 + ((r & digit) - 1) * (((1 << 8 * k * p) - 1) // digit)


def quantum_int(p: int, n: int) -> CycNum:
    """The quantum integer [n] = (q^n - q^-n)/(q - q^-1) at q = zeta_p.

    Computed as the run q^(1-n) + q^(3-n) + ... + q^(n-1), so the result is
    visibly integral, and n >= 0 is its run length, checked by run.  [n] is
    a unit of Z[zeta_p] for 1 <= n <= p-1: its inverse is the run
    inverse_run(p, 1 - n, n, 2), whose offset n - 1 cancels [n]'s, so
    _is_unit_run(p, n, 2) checks it.
    """
    return run(p, 1 - n, n, 2)
