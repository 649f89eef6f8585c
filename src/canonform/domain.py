"""Exact scalar arithmetic in the three Euclidean domains Z, Q and Q[x].

A scalar is an Elem: a ring tag plus a raw value.  The raw value is an
int on Z.  On Q and Q[x] it is a pair (nums, den): a tuple of ints, index
i holding the numerator of the coefficient of x^i, with no trailing zero,
over one common denominator den > 0 with gcd(den, *nums) = 1; zero is
((), 1).  A Q scalar is such a pair of degree <= 0, so Q and Q[x] share
the _q* kernels.  The form is canonical, so == and hash on it agree with
equality of values.  Constants take a direct path in _qadd, _qmul and
_qdivmod (one integer sum or product and one gcd, no general
normalization), and it returns the same canonical pair.  `Elem.value` is
the public form (int, Fraction, or a tuple of Fraction coefficients on
Q[x]), built from the raw value on each read.
All values are immutable; every operation is a pure function.

RAW_OPS maps each ring to the (add, mul, zero) of its raw values,
RAW_EUCLID to their (divmod, neg, canonical associate) and RAW_SIZE to
the Euclidean size by which hermite picks a pivot, and raw_egcd is the
one extended Euclid loop, on either table; raw_layers splits raw Q[x]
rows into raw Q coefficient rows (raw_layer takes one of them),
raw_clear_rows clears each raw Q row's denominator so that a Q kernel
can run on ints, raw_clear_polys does the same on Q[x] rows, raw_pack
turns integer polynomials into ints at x = 2^k (Kronecker substitution)
and raw_unpack reads one back, raw_ratio and raw_poly normalize an
integer result back to a Q or a Q[x] value, and largest_raw sizes raw
rows for an error message by the same measure.
The matrix kernels in hermite, smith (its 2x2 chain step included),
matrix, determinant and similarity work on raw entries through these,
and Elem's + - *, division, egcd, gcd and canonical_associate wrap them,
so only this module dispatches on the raw form.  parse_raw is the one
reader and format_raw the one printer, both on raw values; parse_scalar
and format_scalar wrap them for an Elem.
"""
from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Union

from .errors import (
    BadExponent,
    CertificateFailed,
    DivisionByZero,
    ExactDivisionError,
    FactorizationIncomplete,
    NotAUnit,
    OutputTooLarge,
    ParseError,
    RingMismatch,
    ZeroArgument,
    ZeroModulus,
)


class Ring(Enum):
    Z = "Z"
    Q = "Q"
    QX = "Q[x]"

    __hash__ = object.__hash__  # members are singletons; Enum.__hash__ is slow

    def __str__(self) -> str:
        return self.value


# Enum member lookups on the class are slow on the hot paths below.
_Z, _Q, _QX = Ring.Z, Ring.Q, Ring.QX

# ---------------------------------------------------------------------------
# raw kernels on ints (Z) and (nums, den) pairs (Q, Q[x]), see the module docstring

_QZERO, _QONE = ((), 1), ((1,), 1)


def _qnorm(nums, den: int) -> tuple:
    """The canonical pair of sum(nums[i] x^i) / den, for any den != 0."""
    n = len(nums)
    while n and not nums[n - 1]:
        n -= 1
    if not n:
        return _QZERO
    if den < 0:
        den, nums = -den, [-c for c in nums[:n]]
    if den != 1:
        g = math.gcd(den, *nums[:n])
        if g != 1:
            return tuple([c // g for c in nums[:n]]), den // g
    return tuple(nums[:n]), den


def _qfrom(cs: Iterable) -> tuple:
    """The pair of a coefficient sequence of ints and Fractions; any other
    coefficient raises RingMismatch."""
    cs = list(cs)
    for c in cs:  # the exact-type tests first: isinstance is slower
        if not (c.__class__ is int or c.__class__ is Fraction
                or isinstance(c, (int, Fraction))):
            raise RingMismatch(f"cannot coerce coefficient {brief(c)} into Q[x]")
    den = math.lcm(*[c.denominator for c in cs])
    return _qnorm([c.numerator * (den // c.denominator) for c in cs], den)


def _qadd(a: tuple, b: tuple) -> tuple:
    (an, ad), (bn, bd) = a, b
    if not an:
        return b
    if not bn:
        return a
    if len(an) == 1 == len(bn):  # two constants: one sum, one gcd
        n, d = (an[0] + bn[0], ad) if ad == bd else (an[0] * bd + bn[0] * ad, ad * bd)
        if not n:
            return _QZERO
        g = math.gcd(n, d)
        return (n // g,), d // g
    if ad != bd:
        g = math.gcd(ad, bd)
        sa, sb = bd // g, ad // g
        an, bn, ad = [c * sa for c in an], [c * sb for c in bn], ad * sa
    if len(an) < len(bn):
        an, bn = bn, an
    out = [x + y for x, y in zip(an, bn)]
    out.extend(an[len(bn):])
    return _qnorm(out, ad)


def _qmul(a: tuple, b: tuple) -> tuple:
    (an, ad), (bn, bd) = a, b
    if not an or not bn:
        return _QZERO
    if len(bn) == 1:
        an, bn = bn, an
    if len(an) == 1:
        x, d = an[0], ad * bd
        if len(bn) == 1:  # two constants: one product, one gcd
            n = x * bn[0]
            g = math.gcd(n, d)
            return (n // g,), d // g
        if d == 1:  # x != 0 keeps the top coefficient nonzero
            return tuple([x * y for y in bn]), 1
        return _qnorm([x * y for y in bn], d)
    out = [0] * (len(an) + len(bn) - 1)
    for i, x in enumerate(an):
        if x:
            for j, y in enumerate(bn, i):
                out[j] += x * y
    return _qnorm(out, ad * bd)


def _qdivmod(a: tuple, b: tuple) -> tuple[tuple, tuple]:
    """Quotient and remainder by pseudo-division on the numerators: one
    scale factor s (a product of lead(b)'s) with s*A = Q*B + R."""
    (an, ad), (bn, bd) = a, b
    if not bn:
        raise DivisionByZero("division by zero")
    db = len(bn) - 1
    if not db:  # a constant divisor: a * b^-1, remainder zero
        return _qnorm([x * bd for x in an], ad * bn[0]), _QZERO
    if len(an) <= db:
        return _QZERO, a
    lb, s = bn[-1], 1
    r, q = list(an), [0] * (len(an) - db)
    for k in range(len(q) - 1, -1, -1):
        c = r.pop()
        if c:
            if c % lb:
                r, q, s, c = [x * lb for x in r], [x * lb for x in q], s * lb, c * lb
            c //= lb
            q[k] = c
            for i in range(db):
                r[k + i] -= c * bn[i]
    return _qnorm([x * bd for x in q], s * ad), _qnorm(r, s * ad)


def _qderiv(a: tuple) -> tuple:
    nums, den = a
    return _qnorm([i * c for i, c in enumerate(nums)][1:], den)


def _qneg(a: tuple) -> tuple:
    return tuple([-c for c in a[0]]), a[1]


def _qassoc(a: tuple) -> tuple[tuple, tuple]:
    """(u, c) with c = u*a canonical: zero or with leading coefficient 1."""
    nums, den = a
    if not nums or nums[-1] == den:
        return _QONE, a
    u = _qnorm((den,), nums[-1])
    return u, (_QONE if len(nums) == 1 else _qmul(u, a))


def _zdivmod(a: int, b: int) -> tuple[int, int]:
    """Division with the residue convention 0 <= r < |b|."""
    if not b:
        raise DivisionByZero("division by zero")
    q, r = divmod(a, b)
    if r < 0:  # python gives r the divisor's sign; shift into [0, |b|)
        return q + 1, r - b
    return q, r


def _zassoc(a: int) -> tuple[int, int]:
    return (-1, -a) if a < 0 else (1, a)


RAW_OPS = {_Z: (operator.add, operator.mul, 0),
           _Q: (_qadd, _qmul, _QZERO), _QX: (_qadd, _qmul, _QZERO)}
RAW_EUCLID = {_Z: (_zdivmod, operator.neg, _zassoc),
              _Q: (_qdivmod, _qneg, _qassoc), _QX: (_qdivmod, _qneg, _qassoc)}
# Raw maps into a larger ring; a Q pair already is a degree-0 Q[x] pair.
RAW_LIFT = {(_Z, _Q): lambda v: _qnorm((v,), 1), (_Z, _QX): lambda v: _qnorm((v,), 1),
            (_Q, _QX): lambda v: v}


def raw_egcd(ring: Ring, a, b) -> tuple:
    """Extended Euclid on raw values by RAW_EUCLID's divmod: (d, s, t) with
    s*a + t*b = d, d the canonical gcd; (0, 1, 0) for a = b = 0."""
    (add, mul, zero), (divmod_, neg, associate) = RAW_OPS[ring], RAW_EUCLID[ring]
    s0, s1, t0, t1 = _ONE[ring].raw, zero, zero, _ONE[ring].raw
    while b != zero:
        q, r = divmod_(a, b)
        q = neg(q)
        a, b = b, r
        s0, s1 = s1, add(s0, mul(q, s1))
        t0, t1 = t1, add(t0, mul(q, t1))
    u, d = associate(a)
    return d, mul(u, s0), mul(u, t0)


def _qsize(a: tuple) -> tuple[int, int]:
    """(degree, bits of the largest numerator or the denominator) of a pair."""
    nums, den = a
    return len(nums) - 1, max(abs(c).bit_length() for c in nums + (den,))


# The Euclidean size by which hermite picks a pivot: |v| on Z; on Q every
# nonzero value is a unit, so all tie; degree, then coefficient bits, on Q[x].
RAW_SIZE = {_Z: abs, _Q: lambda v: 0, _QX: _qsize}


def largest_raw(ring: Ring, rows) -> str:
    """The size of the largest entry of raw rows, for an error message: its
    bit length on Z, _qsize on Q and Q[x]."""
    if ring is _Z:
        return f"{max(abs(v) for row in rows for v in row).bit_length()} bits"
    deg, bits = max(_qsize(v) for row in rows for v in row)
    return f"degree {deg} with {bits}-bit coefficients"


def raw_layer(rows, k: int) -> list:
    """The raw Q rows P_k of raw Q[x] rows P = sum P_k x^k, canonical pairs."""
    return [[_qnorm((v[0][k],), v[1]) if k < len(v[0]) else _QZERO for v in row]
            for row in rows]


def raw_layers(rows) -> list:
    """Raw Q[x] rows P = sum P_k x^k as the raw Q rows P_0..P_m (P_0 alone for P = 0)."""
    top = max(len(v[0]) for row in rows for v in row)
    return [raw_layer(rows, k) for k in range(max(1, top))]


def raw_clear_rows(rows) -> tuple[list, list]:
    """Raw Q rows as integer rows over one denominator each: (ints, dens)
    with row i equal to ints[i] / dens[i], dens[i] the lcm of the row's
    denominators (1 for an empty row).  raw_ratio turns an integer result
    back into a raw Q value."""
    ints, dens = [], []
    for row in rows:
        den = math.lcm(*[d for _, d in row])
        ints.append([nums[0] * (den // d) if nums else 0 for nums, d in row])
        dens.append(den)
    return ints, dens


def raw_ratio(num: int, den: int) -> tuple:
    """The raw Q value num / den of ints with den > 0, by one gcd."""
    if not num:
        return _QZERO
    g = math.gcd(num, den)
    return (num // g,), den // g


def raw_poly(nums, den: int) -> tuple:
    """The raw Q[x] value sum(nums[i] x^i) / den of ints with den != 0,
    normalized once."""
    return _qnorm(nums, den)


def raw_clear_polys(rows) -> tuple[list, list]:
    """Raw Q[x] rows as rows of integer coefficient lists over one
    denominator each, as raw_clear_rows does on Q: entry j of row i is
    sum(ints[i][j][t] x^t) / dens[i]."""
    ints, dens = [], []
    for row in rows:
        den = math.lcm(*[d for _, d in row])
        ints.append([nums if d == den else [c * (den // d) for c in nums] for nums, d in row])
        dens.append(den)
    return ints, dens


def raw_pack_width(bound: int) -> int:
    """The least multiple k of 8 with 2^(k-1) > bound."""
    return bound.bit_length() // 8 * 8 + 8


def _halves(k: int, n: int) -> int:
    """2^(k-1) in each of n k-bit fields, for k a multiple of 8."""
    return int.from_bytes((bytes(k // 8 - 1) + b"\x80") * n, "little")


def raw_pack(rows, k: int) -> list:
    """Rows of integer coefficient lists c as rows of the ints c(2^k)
    (Kronecker substitution), for k a multiple of 8 and every |c[t]| <
    2^(k-1): c[t] + 2^(k-1) fills field t of one byte string, and the
    2^(k-1) in each field are subtracted once."""
    kb, half = k // 8, 1 << (k - 1)

    def pack(c):
        return int.from_bytes(b"".join([(t + half).to_bytes(kb, "little") for t in c]),
                              "little") - _halves(k, len(c))

    return [[pack(c) if len(c) > 1 else c[0] if c else 0 for c in row] for row in rows]


def raw_unpack(v: int, k: int) -> list:
    """The integer coefficients c, with no trailing zero, of the
    polynomial with c(2^k) == v and every |c[t]| < 2^(k-1), for k a
    multiple of 8: field t of v plus 2^(k-1) in each field holds
    c[t] + 2^(k-1), with no carry between fields."""
    if not v:
        return []
    kb, half = k // 8, 1 << (k - 1)
    n = abs(v).bit_length() // k + 1  # the top field holds c[n-1] != 0
    data = (v + _halves(k, n)).to_bytes(n * kb, "little")
    return [int.from_bytes(data[i:i + kb], "little") - half for i in range(0, n * kb, kb)]


Value = Union[int, Fraction, tuple]


def _raw_of(ring: Ring, value: Value):
    """The raw value of a public value, as Elem(ring, value) takes it."""
    if ring is _Z and isinstance(value, int):
        return int(value)  # a bool is stored as 0 or 1
    if ring is _QX and isinstance(value, (list, tuple)):
        return _qfrom(value)
    if ring is not _Z and isinstance(value, (int, Fraction)):
        return _qfrom((value,))
    raise RingMismatch(f"cannot coerce {brief(value)} into {ring}")


@dataclass(frozen=True, init=False, repr=False)
class Elem:
    """A scalar tagged by its ring; arithmetic requires matching tags.

    `raw` is the working form described in the module docstring (an int
    on Z, a (nums, den) pair on Q and Q[x]) and `value` the public one.
    `Elem(ring, value)` takes an int on Z; an int or Fraction on Q; an
    int, Fraction, or list or tuple of int and Fraction coefficients on
    Q[x]; anything else raises RingMismatch.  Arithmetic passes every
    non-Elem operand through it.  An Elem is a frozen dataclass of its
    two slots, so ==, hash and FrozenInstanceError are the generated ones;
    pickling goes through _mk, since a frozen instance cannot be restored
    by setattr.
    """

    __slots__ = ("ring", "raw")
    ring: Ring
    raw: object

    def __init__(self, ring: Ring, value: Value):
        raw = _raw_of(ring, value)
        _set_ring(self, ring)
        _set_raw(self, raw)

    def __reduce__(self):
        return _mk, (self.ring, self.raw)

    @property
    def value(self) -> Value:
        """int on Z, Fraction on Q, tuple of Fractions (coefficient of x^i
        at index i, no trailing zero) on Q[x]."""
        if self.ring is _Z:
            return self.raw
        nums, den = self.raw
        if self.ring is _QX:
            return tuple(Fraction(c, den) for c in nums)
        return Fraction(nums[0] if nums else 0, den)

    def __repr__(self) -> str:
        return f"Elem(ring={self.ring!r}, value={self.value!r})"

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(ring: Ring) -> "Elem":
        return _ZERO[ring]

    @staticmethod
    def one(ring: Ring) -> "Elem":
        return _ONE[ring]

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not (self.raw if self.ring is _Z else self.raw[0])

    def is_one(self) -> bool:
        return self == _ONE[self.ring]

    def is_unit(self) -> bool:
        if self.ring is _Z:
            return self.raw in (1, -1)
        return len(self.raw[0]) == 1

    def unit_inverse(self) -> "Elem":
        if not self.is_unit():
            raise NotAUnit(f"{brief(self)} is not a unit of {self.ring}")
        return _mk(self.ring, RAW_EUCLID[self.ring][2](self.raw)[0])

    def degree(self) -> int:
        if self.ring is not _QX:
            raise RingMismatch("degree is defined for Q[x] scalars only")
        if not self.raw[0]:
            raise ZeroArgument("zero polynomial has no degree")
        return len(self.raw[0]) - 1

    # -- arithmetic ----------------------------------------------------------

    def _coerced(self, other) -> "Elem":
        if isinstance(other, Elem):
            if other.ring is not self.ring:
                raise RingMismatch(f"{self.ring} vs {other.ring}")
            return other
        return Elem(self.ring, other)

    def __add__(self, other) -> "Elem":
        other = self._coerced(other)
        return _mk(self.ring, RAW_OPS[self.ring][0](self.raw, other.raw))

    __radd__ = __add__

    def __neg__(self) -> "Elem":
        return _mk(self.ring, RAW_EUCLID[self.ring][1](self.raw))

    def __sub__(self, other) -> "Elem":
        return self + (-self._coerced(other))

    def __mul__(self, other) -> "Elem":
        other = self._coerced(other)
        return _mk(self.ring, RAW_OPS[self.ring][1](self.raw, other.raw))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Elem":
        return power(self, e, _ONE[self.ring], Elem.__mul__)

    def __divmod__(self, other):
        """Division with remainder: a = b*q + r, r = 0 or val(r) < val(b).

        Z uses the residue convention 0 <= r < |b|; Q always has r = 0;
        Q[x] has deg(r) < deg(b).
        """
        other = self._coerced(other)
        q, r = RAW_EUCLID[self.ring][0](self.raw, other.raw)
        return _mk(self.ring, q), _mk(self.ring, r)

    def exact_div(self, other) -> "Elem":
        other = self._coerced(other)
        q, r = RAW_EUCLID[self.ring][0](self.raw, other.raw)
        if r != RAW_OPS[self.ring][2]:
            raise ExactDivisionError(f"{brief(self)} is not divisible by {brief(other)}")
        return _mk(self.ring, q)

    def __str__(self) -> str:
        return format_scalar(self)


_set_ring, _set_raw = Elem.ring.__set__, Elem.raw.__set__


def _mk(ring: Ring, raw) -> Elem:
    """An Elem from a raw value already in its ring's form."""
    e = object.__new__(Elem)
    _set_ring(e, ring)
    _set_raw(e, raw)
    return e


_ZERO = {_Z: _mk(_Z, 0), _Q: _mk(_Q, _QZERO), _QX: _mk(_QX, _QZERO)}
_ONE = {_Z: _mk(_Z, 1), _Q: _mk(_Q, _QONE), _QX: _mk(_QX, _QONE)}


def power(base, e: int, one, mul):
    """base ** e for e >= 0 under the product mul, by square and multiply."""
    if e < 0:
        raise BadExponent("negative exponent")
    out = one
    while e:
        if e & 1:
            out = mul(out, base)
        if e > 1:
            base = mul(base, base)
        e >>= 1
    return out


def coerce(ring: Ring, v) -> Elem:
    """Build an Elem of the given ring from an Elem of that ring, a string
    in the scalar grammar, or any value Elem(ring, v) accepts."""
    if isinstance(v, Elem):
        if v.ring is not ring:
            raise RingMismatch(f"expected {ring}, got {v.ring}")
        return v
    return _mk(ring, raw_coerce(ring, v))


def raw_coerce(ring: Ring, v):
    """coerce(ring, v).raw, building no Elem for a plain value or a string."""
    if isinstance(v, Elem):
        return coerce(ring, v).raw
    return parse_raw(v, ring) if isinstance(v, str) else _raw_of(ring, v)


def integer(n: int) -> Elem:
    return Elem(_Z, n)


def rational(num, den=1) -> Elem:
    """num/den on Q.  Both go through Elem(Ring.Q, ...), so a value other
    than an int or Fraction raises RingMismatch; a zero den raises
    DivisionByZero."""
    return divmod(Elem(_Q, num), Elem(_Q, den))[0]


def polynomial(coeffs: Iterable) -> Elem:
    return _mk(_QX, _qfrom(coeffs))


def monomial(k: int, c=1) -> Elem:
    return polynomial([0] * k + [c])


X = monomial(1)


# ---------------------------------------------------------------------------
# Euclidean machinery

def valuation(a: Elem) -> int:
    """|a| on Z, deg(a) on Q[x], 1 on Q; undefined on zero."""
    if a.is_zero():
        raise ZeroArgument("valuation of zero is undefined")
    if a.ring is _Z:
        return abs(a.raw)
    if a.ring is _Q:
        return 1
    return len(a.raw[0]) - 1


def canonical_associate(a: Elem) -> tuple[Elem, Elem]:
    """Return (u, c) with c = u*a, u a unit and c the SDR representative:
    nonnegative on Z, 0 or 1 on Q, zero-or-monic on Q[x]."""
    u, c = RAW_EUCLID[a.ring][2](a.raw)
    return _mk(a.ring, u), _mk(a.ring, c)


def canonical(a: Elem) -> Elem:
    return canonical_associate(a)[1]


def canonical_residue(a: Elem, m: Elem) -> Elem:
    """Representative of a mod m in the residue SDR: {0..|m|-1} on Z,
    degree < deg(m) on Q[x], {0} on Q."""
    if not isinstance(m, Elem) or m.ring is not a.ring:
        raise RingMismatch("modulus ring must match")
    if m.is_zero():
        raise ZeroModulus("zero modulus")
    return divmod(a, m)[1]


def gcd(a: Elem, b: Elem) -> Elem:
    """Canonical greatest common divisor; gcd(a, 0) = canonical(a),
    gcd(0, 0) = 0."""
    if b.ring is not a.ring:
        raise RingMismatch(f"{a.ring} vs {b.ring}")
    ring, x, y = a.ring, a.raw, b.raw
    (divmod_, _, associate), zero = RAW_EUCLID[ring], RAW_OPS[ring][2]
    while y != zero:  # raw_egcd's remainder sequence, without its cofactors
        x, y = y, divmod_(x, y)[1]
    return _mk(ring, associate(x)[1])


def lcm(a: Elem, b: Elem) -> Elem:
    """Canonical least common multiple, via gcd(a,b)*lcm(a,b) = a*b."""
    d = gcd(a, b)
    if d.is_zero():
        return Elem.zero(a.ring)
    return canonical(a * b).exact_div(d)


def egcd(a: Elem, b: Elem) -> tuple[Elem, Elem, Elem]:
    """Extended Euclid: (d, s, t) with s*a + t*b = d = gcd(a, b) canonical."""
    if b.ring is not a.ring:
        raise RingMismatch(f"{a.ring} vs {b.ring}")
    if a.is_zero() and b.is_zero():
        raise ZeroArgument("egcd(0, 0) is undefined")
    d, s, t = raw_egcd(a.ring, a.raw, b.raw)
    return _mk(a.ring, d), _mk(a.ring, s), _mk(a.ring, t)


def _eval_mod(ints: list, x: int, m: int) -> int:
    """sum ints[k] x^k mod m, by Horner's rule."""
    acc = 0
    for c in reversed(ints):
        acc = (acc * x + c) % m
    return acc


def _coprime_mod(f: list, g: list, p: int) -> bool:
    """Whether gcd(f, g) = 1 in GF(p)[x] for integer coefficient lists,
    lowest degree first, by Euclid's remainder loop."""
    def reduced(h):
        h = [c % p for c in h]
        while h and not h[-1]:
            h.pop()
        return h
    f, g = reduced(f), reduced(g)
    while g:
        inv = pow(g[-1], -1, p)
        while len(f) >= len(g):
            c, shift = f[-1] * inv, len(f) - len(g)
            f = reduced(f[:shift] + [u - c * v for u, v in zip(f[shift:], g)])
        f, g = g, f
    return len(f) == 1


def _rational_roots(ints: list) -> list[Fraction]:
    """The rational roots of a squarefree primitive integer polynomial
    f = sum ints[k] x^k by one p-adic lift, Zassenhaus's method (1969) in
    degree 1 (Knuth, TAOCP vol. 2, 4.6.2).  p is the least prime not
    dividing lead = ints[-1] with gcd(f, f') = 1 in GF(p)[x], so every
    root mod p is simple; as f is squarefree, only finitely many primes
    fail.  Newton's iteration lifts each root mod p to r mod m > 2|lead c0|.
    A root a/b in lowest terms has b | lead and a | c0, so lead a/b is the
    residue y of lead r in (-m/2, m/2]; y/lead is tested exactly:
    sum ints[k] y^k lead^(n-k) = 0.
    """
    lead, c0 = ints[-1], ints[0]
    if not c0:
        return [Fraction(0)] + _rational_roots(ints[1:])
    deriv, p = [k * c for k, c in enumerate(ints)][1:], 1
    while True:
        p += 1
        if (lead % p and all(p % d for d in range(2, math.isqrt(p) + 1))
                and _coprime_mod(ints, deriv, p)):
            break
    cs = [c % p for c in ints]
    roots = [r for r in range(p) if not _eval_mod(cs, r, p)]
    found = []
    for r in roots:
        m = p
        while m <= 2 * abs(lead * c0):
            m *= m
            r = (r - _eval_mod(ints, r, m) * pow(_eval_mod(deriv, r, m), -1, m)) % m
        y = lead * r % m
        y = y - m if 2 * y > m else y
        acc, bk = lead, 1
        for c in reversed(ints[:-1]):
            bk *= lead
            acc = acc * y + c * bk
        if not acc:
            found.append(Fraction(y, lead))
    return found


def _split_squarefree(p: Elem) -> list[Elem]:
    """Split a monic squarefree polynomial into monic irreducibles: the
    linear factors of its rational roots, and the rest, which has no
    linear factor, so is irreducible if of degree 2 or 3 and beyond this
    factorizer from degree 4.  _rational_roots ends only on squarefree
    input, so gcd(p, p') = 1 is checked, else CertificateFailed."""
    if valuation(p) <= 1:  # 1 has no prime factor; a linear p is prime
        return [p] if valuation(p) else []
    if not gcd(p, _mk(_QX, _qderiv(p.raw))).is_one():
        raise CertificateFailed(f"{brief(p)} is not squarefree")
    g = math.gcd(*p.raw[0])
    linear = [polynomial([-r, 1]) for r in _rational_roots([c // g for c in p.raw[0]])]
    rest = p.exact_div(math.prod(linear, start=_ONE[_QX]))
    deg = valuation(rest)
    if deg <= 3:
        return linear + ([rest] if deg else [])
    raise FactorizationIncomplete(
        f"cannot factor degree-{deg} polynomial {brief(rest)} over Q"
    )


# Trial division on Z tries 2 and the odd d below this bound.
_TRIAL_BOUND = 1000
# Miller-Rabin with the prime bases 2..41 decides primality below this
# (Sorenson and Webster, Strong pseudoprimes to twelve prime bases, 2017).
_MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Pollard-Brent work one factor() call may spend, over every split and
# every constant c.  A step (one x -> x^2 + c) on a cofactor of w 64-bit
# words costs w, so a larger cofactor gets fewer steps; past the budget a
# composite cofactor stays unsplit and factor() gives up.
_RHO_BUDGET = 2**20
# Steps whose differences _brent multiplies together between two gcds.
_RHO_BATCH = 128


def _is_prime_mr(n: int) -> bool:
    """Miller-Rabin for odd n > 41 to the bases 2..41: False proves n
    composite; True proves n prime below _MILLER_RABIN_BOUND."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent(n: int, c: int, limit: int, walk: list | None = None) -> tuple[int, int]:
    """Brent's variant of Pollard rho (Brent 1980) on x -> x^2 + c mod n
    from x = 2, for an odd composite n: a divisor g of n and the
    word-steps spent (a step mod a w-word number costs w), at most limit.
    g is 1 when the limit ran out, and n when the cycle closed without a
    split.  A batch whose gcd h with n is not 1 is walked again one step
    at a time mod h, and g is the first gcd there that is not 1.  walk, if
    given, is [] for a new walk or its state [y, x, r, k, ys, h]: the
    point, the point held for the round of r checked steps, the steps
    checked, and the batch walked again mod h (h = 1 for none).  The call
    goes on from it and leaves it reduced mod n // g for a call on n // g.
    """
    y, x, r, k, ys, h = walk or (2, 2, 0, 0, 0, 1)
    w, q, steps = (n.bit_length() + 63) // 64, 1, 0
    while h == 1:
        if k == r:  # the next round: hold x, walk r steps unchecked, check r
            r, k = 2 * r or 1, 0
            if steps + r * w > limit:
                return 1, steps
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            steps += r * w
        b = min(_RHO_BATCH, r - k)
        if steps + b * w > limit:
            return 1, steps
        ys = y
        for _ in range(b):
            y = (y * y + c) % n
            q = q * (x - y) % n
        h = math.gcd(q, n)
        steps, k = steps + b * w, k + b
    g, wh = 1, (h.bit_length() + 63) // 64
    while g == 1:
        if steps + wh > limit:
            return 1, steps
        ys = (ys * ys + c) % h
        g = math.gcd(x - ys, h)
        steps += wh
    if walk is not None and g < n:
        rest, h = n // g, h // g
        walk[:] = y % rest, x % rest, r, k, ys % h, h
    return g, steps


def _digit_count(n: int) -> int:
    """Decimal digits of n > 0; str(n) is refused beyond 4300 digits."""
    k = int((n.bit_length() - 1) * math.log10(2)) + 1
    return k + (n >= 10**k)


def _factor_int(n: int) -> dict[int, int]:
    """The prime powers {p: e} of n >= 1.  Trial division by 2 and the odd
    d below _TRIAL_BOUND; then each cofactor is proved prime, or split by
    one _brent walk that goes on mod the cofactor m // g after each split
    g, all within one _RHO_BUDGET; each g is taken in turn.  Every split is
    replayed as g * (m // g) == m."""
    powers: dict[int, int] = {}
    d = 2
    while d < _TRIAL_BOUND and d * d <= n:
        while n % d == 0:
            powers[d] = powers.get(d, 0) + 1
            n //= d
        d += 1 + (d > 2)
    # no cofactor has a prime factor below d, so one below d^2 is prime
    todo, budget = [n] if n > 1 else [], _RHO_BUDGET
    while todo:
        m, c, walk = todo.pop(), 1, []
        while not (m < d * d or (m < _MILLER_RABIN_BOUND and _is_prime_mr(m))):
            g, steps = _brent(m, c, budget, walk)
            budget -= steps
            if g == 1:
                raise FactorizationIncomplete(
                    f"{_digit_count(m)}-digit cofactor was neither proved prime nor "
                    f"split by Pollard-Brent within {_RHO_BUDGET} word-steps")
            if g == m:  # the cycle closed: a new walk with the next constant
                c, walk = c + 1, []
                continue
            if g * (m // g) != m:
                raise CertificateFailed(
                    f"rho split {brief(g)} does not divide the cofactor {brief(m)}")
            todo.append(g)
            m //= g
        powers[m] = powers.get(m, 0) + 1
    return powers


def factor(a: Elem) -> tuple[Elem, tuple[tuple[Elem, int], ...]]:
    """Factor a nonzero scalar as unit * product of canonical prime powers.

    Returns (unit, ((prime, exponent), ...)) with distinct primes sorted
    by prime_sort_key.  On Z: trial division below _TRIAL_BOUND, then
    deterministic Miller-Rabin proves each cofactor below
    _MILLER_RABIN_BOUND prime, and Pollard-Brent splits the composite ones
    within _RHO_BUDGET; a cofactor neither proved prime nor split raises
    FactorizationIncomplete.  On Q[x]: Yun's squarefree decomposition, then
    _split_squarefree on each part.  Each split and unit * prod p^e = a
    are replayed, raising CertificateFailed.
    """
    if a.is_zero():
        raise ZeroArgument("cannot factor zero")
    if a.ring is Ring.Q:
        return a, ()
    if a.ring is Ring.Z:
        n = abs(a.raw)
        powers = _factor_int(n)
        if math.prod(p ** e for p, e in powers.items()) != n:
            raise CertificateFailed(
                f"the prime powers of {brief(a)} do not multiply back to it")
        unit = _mk(_Z, -1 if a.raw < 0 else 1)
        return unit, tuple((_mk(_Z, p), e) for p, e in sorted(powers.items()))
    # Q[x]: Yun's squarefree decomposition, then split each level
    unit = _mk(_QX, _qnorm(a.raw[0][-1:], a.raw[1]))
    f = canonical(a)
    powers: dict[Elem, int] = {}
    if valuation(f) > 0:
        g = gcd(f, _mk(_QX, _qderiv(f.raw)))
        w = f.exact_div(g)
        i = 1
        while not w.is_one():
            y = gcd(w, g)
            level = w.exact_div(y)
            for prime in _split_squarefree(level):
                powers[prime] = powers.get(prime, 0) + i
            w = y
            g = g.exact_div(y)
            i += 1
    pairs = tuple(
        sorted(powers.items(), key=lambda pe: prime_sort_key(pe[0]))
    )
    if math.prod((p ** e for p, e in pairs), start=unit) != a:
        raise CertificateFailed(
            f"the prime powers of {brief(a)} do not multiply back to it")
    return unit, pairs


def prime_sort_key(p: Elem):
    """Deterministic display order: numeric for Z, graded-lex on
    coefficients for monic polynomials."""
    if p.ring is not _QX:
        return (0, p.value)
    return (len(p.raw[0]), p.value)


# ---------------------------------------------------------------------------
# scalar text grammar

# Parsed polynomials are dense coefficient lists, so the degree is capped.
_MAX_PARSE_DEGREE = 10_000

# Each is matched by fullmatch: `$` would also match before a trailing newline.
_INT_RE = re.compile(r"-?[0-9]+")
_RAT_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_TERM_RE = re.compile(
    r"(?:(?P<coeff>[0-9]+(?:/[0-9]+)?)\*)?x(?:\^(?P<pow>[0-9]+))?"
    r"|(?P<const>[0-9]+(?:/[0-9]+)?)"
)
_SIGNED_TERM_RE = re.compile(r"[+-]?[^+-]*")


def _parse_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise ParseError(
            f"a {len(digits.lstrip('-'))}-digit number is too long") from None


def parse_raw(text: str, ring: Ring):
    """Parse one whitespace-free scalar in the domain grammar to its raw
    value: the one reader, which format_raw inverts exactly."""
    if ring is _Z:
        if not _INT_RE.fullmatch(text):
            raise ParseError(f"bad integer scalar {brief(text)}")
        return _parse_int(text)
    if ring is _Q:
        m = _RAT_RE.fullmatch(text)
        if not m:
            raise ParseError(f"bad rational scalar {brief(text)}")
        num, den = _parse_int(m.group(1)), _parse_int(m.group(2) or "1")
        if den == 0:
            raise ParseError(f"zero denominator in {brief(text)}")
        return _qnorm((num,), den)
    if not text or " " in text:
        raise ParseError(f"bad polynomial scalar {brief(text)}")
    terms = []  # (degree, signed numerator, denominator); findall ends on an empty match
    for term in _SIGNED_TERM_RE.findall(text)[:-1]:
        body = term.lstrip("+-")
        m = _TERM_RE.fullmatch(body)
        if not m:
            raise ParseError(f"bad polynomial term {brief(body)} in {brief(text)}")
        const, coeff, exp = m.group("const", "coeff", "pow")
        try:
            k = 0 if const else int(exp or 1)
            num, _, den = (const or coeff or "1").partition("/")
            num, den = int(num), int(den or 1)
        except ValueError:  # more digits than int() converts
            raise ParseError(f"a number in a {len(body)}-character term is too long") from None
        if den == 0:
            raise ParseError(f"zero denominator in {brief(text)}")
        if k > _MAX_PARSE_DEGREE:
            raise ParseError(f"degree {k} exceeds the parser limit {_MAX_PARSE_DEGREE}")
        terms.append((k, -num if term[0] == "-" else num, den))
    degrees, _, dens = zip(*terms)
    den, nums = math.lcm(*dens), [0] * (max(degrees) + 1)
    for k, num, d in terms:
        nums[k] += num * (den // d)
    return _qnorm(nums, den)


def parse_scalar(text: str, ring: Ring) -> Elem:
    """Parse one whitespace-free scalar in the domain grammar."""
    return _mk(ring, parse_raw(text, ring))


def format_scalar(a: Elem) -> str:
    """Print a scalar in the grammar; parse_scalar inverts this exactly."""
    return format_raw(a.ring, a.raw)


def format_raw(ring: Ring, raw) -> str:
    """Print a raw value of ring as format_scalar prints its Elem: each
    coefficient of a (nums, den) pair reduced against den.  A number of
    more digits than str() converts (4300, as the parser) raises
    OutputTooLarge naming the longest one."""
    try:
        if ring is _Z:
            return str(raw)
        nums, den = raw
        parts = []
        for k in range(len(nums) - 1, -1, -1):
            c = nums[k]
            if not c:
                continue
            g = math.gcd(c, den)
            num, d = abs(c) // g, den // g
            body = str(num) if d == 1 else f"{num}/{d}"
            if k:
                xs = "x" if k == 1 else f"x^{k}"
                body = xs if num == d == 1 else f"{body}*{xs}"
            parts.append(("-" if c < 0 else "+" if parts else "") + body)
        return "".join(parts) or "0"
    except ValueError:  # str() refused an int: name the longest one
        nums, den = ((raw,), 1) if ring is _Z else raw
        gs = [(c, math.gcd(c, den)) for c in nums if c]
        digits = max(_digit_count(n) for c, g in gs for n in (abs(c) // g, den // g))
        raise OutputTooLarge(f"a {digits}-digit number is too long to print") from None


# Longest operand text an error message shows; a longer one is named by size.
_BRIEF_LIMIT = 80


def brief(v) -> str:
    """An operand as an error message shows it: format_scalar of an Elem,
    repr of anything else, when that is at most _BRIEF_LIMIT characters;
    otherwise its size, such as "a 5001-digit integer"."""
    try:
        text = format_scalar(v) if isinstance(v, Elem) else repr(v)
        if len(text) <= _BRIEF_LIMIT:
            return text
    except ValueError:  # OutputTooLarge, or repr of an int over 4300 digits
        pass
    if isinstance(v, Elem):
        if v.ring is _QX:
            return f"a degree-{len(v.raw[0]) - 1} polynomial"
        v = v.value
    if isinstance(v, (int, Fraction)):
        digits = _digit_count(max(abs(v.numerator), v.denominator))
        return f"a {digits}-digit {'integer' if isinstance(v, int) else 'rational'}"
    if isinstance(v, (str, list, tuple)):
        return f"a {type(v).__name__} of length {len(v)}"
    return f"a {type(v).__name__}"
