"""Exact arithmetic in plain Python for the benchmark's generators and checker.

Nothing here imports canonform.  Scalars are ints (Z), Fractions (Q) and
tuples of Fractions, lowest degree first and without trailing zeros
(Q[x]).  Matrices are lists of rows.
"""
from __future__ import annotations

from fractions import Fraction


def ptrim(cs) -> tuple:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(Fraction(c) for c in cs)


def padd(a, b):
    n = max(len(a), len(b))
    return ptrim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                 for i in range(n))


def pneg(a):
    return tuple(-c for c in a)


def pmul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return ptrim(out)


def pdivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while len(r) >= len(b):
        c = r[-1] / b[-1]
        k = len(r) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            r[k + i] -= c * y
        while r and r[-1] == 0:
            r.pop()
    return ptrim(q), ptrim(r)


def ppow(a, e):
    out = (Fraction(1),)
    for _ in range(e):
        out = pmul(out, a)
    return out


class PlainRing:
    """One Euclidean domain, with the canonical choices canonform promises:
    associates nonnegative on Z, 0 or 1 on Q, monic on Q[x]; residues in
    [0, |m|) on Z, 0 on Q, of lower degree on Q[x]."""

    def __init__(self, name):
        self.name = name
        self.poly = name == "Q[x]"
        self.zero = () if self.poly else (0 if name == "Z" else Fraction(0))
        self.one = (Fraction(1),) if self.poly else (1 if name == "Z" else Fraction(1))

    def coerce(self, v):
        if self.poly:
            return ptrim(v) if isinstance(v, (tuple, list)) else ptrim((v,))
        return int(v) if self.name == "Z" else Fraction(v)

    def add(self, a, b):
        return padd(a, b) if self.poly else a + b

    def sub(self, a, b):
        return padd(a, pneg(b)) if self.poly else a - b

    def mul(self, a, b):
        return pmul(a, b) if self.poly else a * b

    def is_zero(self, a):
        return not a if self.poly else a == 0

    def exact_div(self, a, b):
        if self.poly:
            q, r = pdivmod(a, b)
        elif self.name == "Z":
            q, r = divmod(a, b)
        else:
            q, r = a / b, 0
        if not self.is_zero(r):
            raise ArithmeticError("inexact division")
        return q

    def divides(self, a, b):
        """a | b."""
        if self.is_zero(a):
            return self.is_zero(b)
        if self.poly:
            return not pdivmod(b, a)[1]
        return self.name == "Q" or b % a == 0

    def is_unit(self, a):
        if self.poly:
            return len(a) == 1
        return a in (1, -1) if self.name == "Z" else a != 0

    def is_canonical(self, a):
        if self.poly:
            return not a or a[-1] == 1
        return a >= 0 if self.name == "Z" else a in (0, 1)

    def is_residue(self, v, m):
        """v is the canonical residue of itself modulo the canonical m."""
        if self.poly:
            return len(v) < len(m)
        return 0 <= v < m if self.name == "Z" else v == 0


Z, Q, QX = PlainRing("Z"), PlainRing("Q"), PlainRing("Q[x]")
RINGS = {r.name: r for r in (Z, Q, QX)}


def identity(ring, n):
    return [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]


def matmul(ring, a, b):
    out = []
    for row in a:
        acc = [ring.zero] * len(b[0])
        for k, x in enumerate(row):
            if ring.is_zero(x):
                continue
            for j, y in enumerate(b[k]):
                if not ring.is_zero(y):
                    acc[j] = ring.add(acc[j], ring.mul(x, y))
        out.append(acc)
    return out


def det(ring, a):
    """Fraction-free (Bareiss) determinant; the divisions are exact."""
    w = [list(row) for row in a]
    n = len(w)
    sign, prev = 1, ring.one
    for k in range(n - 1):
        if ring.is_zero(w[k][k]):
            swap = next((t for t in range(k + 1, n) if not ring.is_zero(w[t][k])), None)
            if swap is None:
                return ring.zero
            w[k], w[swap] = w[swap], w[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = ring.sub(ring.mul(w[k][k], w[i][j]), ring.mul(w[i][k], w[k][j]))
                w[i][j] = ring.exact_div(num, prev)
        prev = w[k][k]
    d = w[n - 1][n - 1]
    return d if sign > 0 else ring.sub(ring.zero, d)


def direct_sum(ring, blocks):
    n = sum(len(b) for b in blocks)
    out = [[ring.zero] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


def jordan_block(lam, k):
    return [[Fraction(lam) if i == j else Fraction(1 if j == i + 1 else 0)
             for j in range(k)] for i in range(k)]


def companion(p):
    """Companion of a monic polynomial in canonform's convention: ones on
    the superdiagonal, bottom row a_j with p = x^k - sum a_j x^j."""
    k = len(p) - 1
    rows = [[Fraction(1 if j == i + 1 else 0) for j in range(k)] for i in range(k - 1)]
    rows.append([-c for c in p[:-1]])
    return rows
