"""Exact scalar arithmetic in the three Euclidean domains Z, Q and Q[x].

A scalar is an Elem: a ring tag plus a value (int for Z, Fraction for Q,
tuple of Fractions for Q[x], index i holding the coefficient of x^i).
All values are immutable; every operation is a pure function.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Union

from .errors import (
    DivisionByZero,
    ExactDivisionError,
    FactorizationIncomplete,
    NotAUnit,
    ParseError,
    RingMismatch,
    ZeroArgument,
    ZeroModulus,
)


class Ring(Enum):
    Z = "Z"
    Q = "Q"
    QX = "Q[x]"

    def __str__(self) -> str:
        return self.value


# ---------------------------------------------------------------------------
# raw polynomial helpers (tuples of Fractions, coefficient of x^i at index i,
# () is the zero polynomial, last coefficient nonzero otherwise)

def _ptrim(cs) -> tuple:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _padd(a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(x + y)
    return _ptrim(out)


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _ptrim(out)


def _pdivmod(a, b):
    if not b:
        raise DivisionByZero("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(r) >= len(b):
        c = r[-1] / lb
        k = len(r) - 1 - db
        q[k] = c
        for i in range(len(b)):
            r[k + i] -= c * b[i]
        while r and r[-1] == 0:
            r.pop()
    return _ptrim(q), _ptrim(r)


def _pderiv(a):
    return _ptrim(Fraction(i) * a[i] for i in range(1, len(a)))


Value = Union[int, Fraction, tuple]


@dataclass(frozen=True)
class Elem:
    """A scalar tagged by its ring; arithmetic requires matching tags."""

    ring: Ring
    value: Value

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(ring: Ring) -> "Elem":
        if ring is Ring.Z:
            return Elem(Ring.Z, 0)
        if ring is Ring.Q:
            return Elem(Ring.Q, Fraction(0))
        return Elem(Ring.QX, ())

    @staticmethod
    def one(ring: Ring) -> "Elem":
        if ring is Ring.Z:
            return Elem(Ring.Z, 1)
        if ring is Ring.Q:
            return Elem(Ring.Q, Fraction(1))
        return Elem(Ring.QX, (Fraction(1),))

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        if self.ring is Ring.QX:
            return not self.value
        return self.value == 0

    def is_one(self) -> bool:
        return self == Elem.one(self.ring)

    def is_unit(self) -> bool:
        if self.ring is Ring.Z:
            return self.value in (1, -1)
        if self.ring is Ring.Q:
            return self.value != 0
        return len(self.value) == 1

    def unit_inverse(self) -> "Elem":
        if not self.is_unit():
            raise NotAUnit(f"{self} is not a unit of {self.ring}")
        if self.ring is Ring.Z:
            return self
        if self.ring is Ring.Q:
            return Elem(Ring.Q, 1 / self.value)
        return Elem(Ring.QX, (1 / self.value[0],))

    def degree(self) -> int:
        if self.ring is not Ring.QX:
            raise RingMismatch("degree is defined for Q[x] scalars only")
        if not self.value:
            raise ZeroArgument("zero polynomial has no degree")
        return len(self.value) - 1

    # -- arithmetic ----------------------------------------------------------

    def _coerced(self, other) -> "Elem":
        if isinstance(other, Elem):
            if other.ring is not self.ring:
                raise RingMismatch(f"{self.ring} vs {other.ring}")
            return other
        if isinstance(other, int):
            return coerce(self.ring, other)
        return NotImplemented  # pragma: no cover

    def __add__(self, other) -> "Elem":
        other = self._coerced(other)
        if self.ring is Ring.QX:
            return Elem(Ring.QX, _padd(self.value, other.value))
        return Elem(self.ring, self.value + other.value)

    __radd__ = __add__

    def __neg__(self) -> "Elem":
        if self.ring is Ring.QX:
            return Elem(Ring.QX, _pneg(self.value))
        return Elem(self.ring, -self.value)

    def __sub__(self, other) -> "Elem":
        return self + (-self._coerced(other))

    def __mul__(self, other) -> "Elem":
        other = self._coerced(other)
        if self.ring is Ring.QX:
            return Elem(Ring.QX, _pmul(self.value, other.value))
        return Elem(self.ring, self.value * other.value)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Elem":
        if e < 0:
            raise ValueError("negative exponent")
        out = Elem.one(self.ring)
        for _ in range(e):
            out = out * self
        return out

    def __divmod__(self, other):
        """Division with remainder: a = b*q + r, r = 0 or val(r) < val(b).

        Z uses the residue convention 0 <= r < |b|; Q always has r = 0;
        Q[x] has deg(r) < deg(b).
        """
        other = self._coerced(other)
        if other.is_zero():
            raise DivisionByZero("division by zero")
        if self.ring is Ring.Z:
            q, r = divmod(self.value, other.value)
            if r < 0:  # python gives r the divisor's sign; shift into [0, |b|)
                r -= other.value
                q += 1
            return Elem(Ring.Z, q), Elem(Ring.Z, r)
        if self.ring is Ring.Q:
            return Elem(Ring.Q, self.value / other.value), Elem.zero(Ring.Q)
        q, r = _pdivmod(self.value, other.value)
        return Elem(Ring.QX, q), Elem(Ring.QX, r)

    def exact_div(self, other) -> "Elem":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ExactDivisionError(f"{self} is not divisible by {other}")
        return q

    def __str__(self) -> str:
        return format_scalar(self)


def coerce(ring: Ring, v) -> Elem:
    """Build an Elem of the given ring from an Elem, int, Fraction, string,
    or (for Q[x]) a coefficient sequence."""
    if isinstance(v, Elem):
        if v.ring is not ring:
            raise RingMismatch(f"expected {ring}, got {v.ring}")
        return v
    if isinstance(v, str):
        return parse_scalar(v, ring)
    if ring is Ring.Z:
        if isinstance(v, int):
            return Elem(Ring.Z, v)
        raise RingMismatch(f"cannot coerce {v!r} into Z")
    if ring is Ring.Q:
        if isinstance(v, (int, Fraction)):
            return Elem(Ring.Q, Fraction(v))
        raise RingMismatch(f"cannot coerce {v!r} into Q")
    if isinstance(v, (int, Fraction)):
        return Elem(Ring.QX, _ptrim((Fraction(v),)))
    if isinstance(v, (list, tuple)):
        return Elem(Ring.QX, _ptrim(Fraction(c) for c in v))
    raise RingMismatch(f"cannot coerce {v!r} into Q[x]")


def integer(n: int) -> Elem:
    return Elem(Ring.Z, n)


def rational(num, den=1) -> Elem:
    return Elem(Ring.Q, Fraction(num, den))


def polynomial(coeffs: Iterable) -> Elem:
    return Elem(Ring.QX, _ptrim(Fraction(c) for c in coeffs))


def monomial(k: int, c=1) -> Elem:
    return polynomial([0] * k + [c])


X = monomial(1)


# ---------------------------------------------------------------------------
# Euclidean machinery

def valuation(a: Elem) -> int:
    """|a| on Z, deg(a) on Q[x], 1 on Q; undefined on zero."""
    if a.is_zero():
        raise ZeroArgument("valuation of zero is undefined")
    if a.ring is Ring.Z:
        return abs(a.value)
    if a.ring is Ring.Q:
        return 1
    return len(a.value) - 1


def canonical_associate(a: Elem) -> tuple[Elem, Elem]:
    """Return (u, c) with c = u*a, u a unit and c the SDR representative:
    nonnegative on Z, 0 or 1 on Q, zero-or-monic on Q[x]."""
    one = Elem.one(a.ring)
    if a.is_zero():
        return one, a
    if a.ring is Ring.Z:
        if a.value < 0:
            return Elem(Ring.Z, -1), Elem(Ring.Z, -a.value)
        return one, a
    if a.ring is Ring.Q:
        return a.unit_inverse(), one
    lead = a.value[-1]
    if lead == 1:
        return one, a
    u = Elem(Ring.QX, (1 / lead,))
    return u, u * a


def canonical(a: Elem) -> Elem:
    return canonical_associate(a)[1]


def canonical_residue(a: Elem, m: Elem) -> Elem:
    """Representative of a mod m in the residue SDR: {0..|m|-1} on Z,
    degree < deg(m) on Q[x], {0} on Q."""
    if not isinstance(m, Elem) or m.ring is not a.ring:
        raise RingMismatch("modulus ring must match")
    if m.is_zero():
        raise ZeroModulus("zero modulus")
    if a.ring is Ring.Q:
        return Elem.zero(Ring.Q)
    if a.ring is Ring.Z:
        return Elem(Ring.Z, a.value % abs(m.value))
    return divmod(a, m)[1]


def gcd(a: Elem, b: Elem) -> Elem:
    """Canonical greatest common divisor; gcd(a, 0) = canonical(a),
    gcd(0, 0) = 0."""
    if b.ring is not a.ring:
        raise RingMismatch(f"{a.ring} vs {b.ring}")
    while not b.is_zero():
        a, b = b, divmod(a, b)[1]
    return canonical(a)


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
    one, zero = Elem.one(a.ring), Elem.zero(a.ring)
    r0, r1 = a, b
    s0, s1 = one, zero
    t0, t1 = zero, one
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    u, d = canonical_associate(r0)
    return d, u * s0, u * t0


def _is_rational_square(r: Fraction):
    if r < 0:
        return None
    pn, pd = math.isqrt(r.numerator), math.isqrt(r.denominator)
    if pn * pn == r.numerator and pd * pd == r.denominator:
        return Fraction(pn, pd)
    return None


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def _rational_root_split(p: Elem) -> tuple[list[Elem], Elem]:
    """Strip rational roots off a monic polynomial, returning the linear
    factors found (monic) and the rootless survivor."""
    linear = []
    while valuation(p) >= 1:
        # roots of x | p first, then candidates a/b from the integer model
        if p.value[0] == 0:
            root = Fraction(0)
        else:
            den = math.lcm(*(c.denominator for c in p.value))
            ints = [int(c * den) for c in p.value]
            g = math.gcd(*ints)
            ints = [c // g for c in ints]
            root = None
            for bn in _divisors(ints[-1]):
                for an in _divisors(ints[0]):
                    for cand in (Fraction(an, bn), Fraction(-an, bn)):
                        acc = Fraction(0)
                        for c in reversed(p.value):
                            acc = acc * cand + c
                        if acc == 0:
                            root = cand
                            break
                    if root is not None:
                        break
                if root is not None:
                    break
            if root is None:
                break
        factor_ = polynomial([-root, 1])
        linear.append(factor_)
        p = p.exact_div(factor_)
    return linear, p


def _split_squarefree(p: Elem) -> list[Elem]:
    """Split a monic squarefree polynomial into monic irreducibles.

    Linear factors come from rational-root search; a quadratic survivor is
    split iff its discriminant is a rational square; any survivor of degree
    >= 3 is beyond this factorizer.
    """
    if valuation(p) == 0:
        return []
    linear, rest = _rational_root_split(p)
    if rest.is_one():
        return linear
    deg = valuation(rest)
    if deg == 2:
        c, b, _a = rest.value[0], rest.value[1], rest.value[2]
        disc = b * b - 4 * c
        root = _is_rational_square(disc)
        if root is None:
            return linear + [rest]
        r1, r2 = (-b + root) / 2, (-b - root) / 2
        return linear + [polynomial([-r1, 1]), polynomial([-r2, 1])]
    raise FactorizationIncomplete(
        f"cannot factor degree-{deg} polynomial {rest} over Q"
    )


def factor(a: Elem) -> tuple[Elem, tuple[tuple[Elem, int], ...]]:
    """Factor a nonzero scalar as unit * product of canonical prime powers.

    Returns (unit, ((prime, exponent), ...)) with distinct primes sorted
    by prime_sort_key.
    """
    if a.is_zero():
        raise ZeroArgument("cannot factor zero")
    if a.ring is Ring.Q:
        return a, ()
    if a.ring is Ring.Z:
        n = abs(a.value)
        unit = Elem(Ring.Z, -1 if a.value < 0 else 1)
        powers = {}
        d = 2
        while d * d <= n:
            while n % d == 0:
                powers[d] = powers.get(d, 0) + 1
                n //= d
            d += 1
        if n > 1:
            powers[n] = powers.get(n, 0) + 1
        pairs = tuple(
            (Elem(Ring.Z, p), e) for p, e in sorted(powers.items())
        )
        return unit, pairs
    # Q[x]: Yun's squarefree decomposition, then split each level
    unit = Elem(Ring.QX, (a.value[-1],))
    f = canonical(a)
    powers: dict[Elem, int] = {}
    if valuation(f) > 0:
        g = gcd(f, Elem(Ring.QX, _pderiv(f.value)))
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
    return unit, pairs


def prime_sort_key(p: Elem):
    """Deterministic display order: numeric for Z, graded-lex on
    coefficients for monic polynomials."""
    if p.ring is Ring.Z:
        return (0, p.value)
    if p.ring is Ring.Q:
        return (0, p.value)
    return (len(p.value), tuple(p.value))


# ---------------------------------------------------------------------------
# scalar text grammar

# Parsed polynomials are dense coefficient lists, so the degree is capped.
_MAX_PARSE_DEGREE = 10_000

_INT_RE = re.compile(r"^-?[0-9]+$")
_RAT_RE = re.compile(r"^(-?[0-9]+)(?:/([0-9]+))?$")
_TERM_RE = re.compile(
    r"^(?:(?P<coeff>[0-9]+(?:/[0-9]+)?)\*)?x(?:\^(?P<pow>[0-9]+))?$"
    r"|^(?P<const>[0-9]+(?:/[0-9]+)?)$"
)


def parse_scalar(text: str, ring: Ring) -> Elem:
    """Parse one whitespace-free scalar in the domain grammar."""
    if ring is Ring.Z:
        if not _INT_RE.match(text):
            raise ParseError(f"bad integer scalar {text!r}")
        return Elem(Ring.Z, int(text))
    if ring is Ring.Q:
        m = _RAT_RE.match(text)
        if not m:
            raise ParseError(f"bad rational scalar {text!r}")
        num, den = int(m.group(1)), int(m.group(2) or 1)
        if den == 0:
            raise ParseError(f"zero denominator in {text!r}")
        return Elem(Ring.Q, Fraction(num, den))
    if not text or " " in text:
        raise ParseError(f"bad polynomial scalar {text!r}")
    coeffs: dict[int, Fraction] = {}
    pos = 0
    first = True
    while pos < len(text):
        sign = 1
        if text[pos] in "+-":
            sign = -1 if text[pos] == "-" else 1
            pos += 1
        elif not first:
            raise ParseError(f"missing sign in {text!r}")
        first = False
        end = pos
        while end < len(text) and text[end] not in "+-":
            end += 1
        m = _TERM_RE.match(text[pos:end])
        if not m or pos == end:
            raise ParseError(f"bad polynomial term {text[pos:end]!r} in {text!r}")
        try:
            if m.group("const") is not None:
                k, c = 0, Fraction(m.group("const"))
            else:
                k = int(m.group("pow") or 1)
                c = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in {text!r}") from None
        except ValueError:  # more digits than int() converts
            raise ParseError(
                f"a number in a {end - pos}-character term is too long"
            ) from None
        if k > _MAX_PARSE_DEGREE:
            raise ParseError(
                f"degree {k} exceeds the parser limit {_MAX_PARSE_DEGREE}"
            )
        coeffs[k] = coeffs.get(k, Fraction(0)) + sign * c
        pos = end
    size = max(coeffs, default=0) + 1
    return polynomial([coeffs.get(i, Fraction(0)) for i in range(size)])


def _format_fraction(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def format_scalar(a: Elem) -> str:
    """Print a scalar in the grammar; parse_scalar inverts this exactly."""
    if a.ring is Ring.Z:
        return str(a.value)
    if a.ring is Ring.Q:
        return _format_fraction(a.value)
    if not a.value:
        return "0"
    parts = []
    for k in range(len(a.value) - 1, -1, -1):
        c = a.value[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if k == 0:
            body = _format_fraction(mag)
        else:
            xs = "x" if k == 1 else f"x^{k}"
            body = xs if mag == 1 else f"{_format_fraction(mag)}*{xs}"
        parts.append(sign + body)
    return "".join(parts)
