"""Characteristic matrices over Q[x], evaluation maps, similarity
decision with an explicit conjugator, minimal polynomial, and the
rational (Frobenius) and Jordan canonical forms.

Constant matrices live over Q (Z inputs are lifted); polynomial matrices
over Q[x].  `rcf` and `jordan` compute the Smith form of xI - A once and
reuse it both for the elementary divisors and for the conjugator.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import determinant
from .domain import Elem, Ring, factor, prime_sort_key, valuation
from .errors import (
    CertificateFailed,
    Error,
    NonLinearElementaryDivisor,
    NotMonic,
    NotSquare,
    RingMismatch,
    ShapeMismatch,
)
from .matrix import Matrix, direct_sum, lift, x_identity
from .smith import SmithResult, smith


def _as_rational_square(a: Matrix) -> Matrix:
    if not a.is_square():
        raise NotSquare(f"{a.m}x{a.n} matrix is not square")
    if a.ring is Ring.QX:
        raise RingMismatch("expected a constant matrix over Z or Q")
    return lift(a, Ring.Q)


def char_matrix(a: Matrix) -> Matrix:
    """xI - A over Q[x]."""
    a = _as_rational_square(a)
    return x_identity(a.m) - lift(a, Ring.QX)


def char_poly(a: Matrix) -> Elem:
    """det(xI - A): monic of degree n."""
    return determinant.det(char_matrix(a))


@dataclass(frozen=True)
class CanonicalPresentation:
    """P = sum P_k x^k with constant coefficient matrices P_0..P_m."""

    coeffs: tuple[Matrix, ...]

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def reconstruct(self) -> Matrix:
        n = self.coeffs[0].m
        out = Matrix.zeros(Ring.QX, n, self.coeffs[0].n)
        for k, pk in enumerate(self.coeffs):
            xk = x_identity(n).power(k) if k else Matrix.identity(Ring.QX, n)
            out = out + (lift(pk, Ring.QX) @ xk)
        return out


def canonical_presentation(p: Matrix) -> CanonicalPresentation:
    """Split a polynomial matrix into its coefficient matrices."""
    if p.ring is not Ring.QX:
        raise RingMismatch("canonical presentation needs a Q[x] matrix")
    deg = 0
    for e in p.entries:
        if not e.is_zero():
            deg = max(deg, e.degree())
    layers = []
    for k in range(deg + 1):
        rows = []
        for i in range(1, p.m + 1):
            rows.append([
                p.entry(i, j).value[k] if len(p.entry(i, j).value) > k else Fraction(0)
                for j in range(1, p.n + 1)
            ])
        layers.append(Matrix.from_rows(Ring.Q, rows))
    return CanonicalPresentation(tuple(layers))


def right_eval(p: Matrix, a: Matrix) -> Matrix:
    """rho_A(P) = sum P_k A^k, coefficients kept on the left."""
    a = _as_rational_square(a)
    if p.m != a.m or p.n != a.n:
        raise ShapeMismatch("evaluation needs conformable square matrices")
    pres = canonical_presentation(p)
    out = pres.coeffs[-1]
    for k in range(len(pres.coeffs) - 2, -1, -1):
        out = out @ a + pres.coeffs[k]
    return out


def left_eval(p: Matrix, a: Matrix) -> Matrix:
    """lambda_A(P) = sum A^k P_k."""
    a = _as_rational_square(a)
    if p.m != a.m or p.n != a.n:
        raise ShapeMismatch("evaluation needs conformable square matrices")
    pres = canonical_presentation(p)
    out = pres.coeffs[-1]
    for k in range(len(pres.coeffs) - 2, -1, -1):
        out = a @ out + pres.coeffs[k]
    return out


def scalar_poly_eval(q: Elem, a: Matrix) -> Matrix:
    """q(A) for a scalar polynomial q: the right evaluation of q*I."""
    a = _as_rational_square(a)
    if q.ring is not Ring.QX:
        raise RingMismatch("expected a Q[x] scalar")
    out = Matrix.zeros(Ring.Q, a.m, a.m)
    if q.is_zero():
        return out
    for c in reversed(q.value):
        out = out @ a + Matrix.identity(Ring.Q, a.m).scale(Elem(Ring.Q, c))
    return out


def _char_smith(a: Matrix) -> SmithResult:
    """The Smith form of xI - A for a constant square A over Q."""
    res = smith(char_matrix(a))
    if res.rank != a.m:  # det(xI - A) is monic of degree n, never zero
        raise CertificateFailed(f"xI - A has rank {res.rank}, not {a.m}")
    return res


def similarity_invariants(a: Matrix) -> tuple[Elem, ...]:
    """Invariant factors of xI - A: n monic polynomials (units as 1) whose
    product is the characteristic polynomial."""
    return _char_smith(_as_rational_square(a)).diag


def minimal_poly(a: Matrix) -> Elem:
    """The invariant factor of highest degree of xI - A."""
    return similarity_invariants(a)[-1]


def companion(q: Elem) -> Matrix:
    """Companion matrix of a monic polynomial: superdiagonal ones, bottom
    row a_j with q(x) = x^k - sum a_j x^j (so a_j = -coeff_j(q))."""
    if q.ring is not Ring.QX or q.is_zero() or q.value[-1] != 1:
        raise NotMonic(f"{q} is not monic")
    k = q.degree()
    if k < 1:
        raise NotMonic("companion needs degree >= 1")
    bottom = [-c for c in q.value[:-1]]
    rows = []
    for i in range(k - 1):
        rows.append([Fraction(1) if j == i + 1 else Fraction(0) for j in range(k)])
    rows.append(bottom)
    return Matrix.from_rows(Ring.Q, rows)


def hypercompanion(alpha, k: int) -> Matrix:
    """Jordan block: alpha on the diagonal, ones on the superdiagonal."""
    if k < 1:
        raise ShapeMismatch("hypercompanion needs k >= 1")
    alpha = Fraction(alpha.value if isinstance(alpha, Elem) else alpha)
    rows = []
    for i in range(k):
        row = [Fraction(0)] * k
        row[i] = alpha
        if i + 1 < k:
            row[i + 1] = Fraction(1)
        rows.append(row)
    return Matrix.from_rows(Ring.Q, rows)


@dataclass(frozen=True)
class SimilarityCertificate:
    """An invertible S with S^-1 A S = target for the source A."""

    s: Matrix
    target: Matrix

    def verify(self, a: Matrix) -> bool:
        try:
            a = _as_rational_square(a)
            return determinant.inverse(self.s) @ a @ self.s == self.target
        except Error:
            return False


def _elementary_divisor_polys(a: Matrix) -> list[tuple[Elem, int]]:
    """Elementary divisors of xI - A as (monic prime, exponent), sorted by
    (prime key, exponent)."""
    return _divisors_of(similarity_invariants(a))


def _divisors_of(invariants: tuple[Elem, ...]) -> list[tuple[Elem, int]]:
    out = []
    for q in invariants:
        if q.is_one():
            continue
        _, powers = factor(q)
        out.extend(powers)
    out.sort(key=lambda pe: (prime_sort_key(pe[0]), pe[1]))
    return out


def similar(a: Matrix, b: Matrix) -> Optional[SimilarityCertificate]:
    """Decide similarity; on success return S with S^-1 A S = B exactly.

    S is the right evaluation at B of the composed unimodular column
    witness of the two Smith decompositions of xI-A and xI-B.
    """
    a = _as_rational_square(a)
    b = _as_rational_square(b)
    if a.m != b.m:
        raise ShapeMismatch("similar needs matrices of equal size")
    return _conjugator(a, smith(char_matrix(a)), b, smith(char_matrix(b)))


def _conjugator(a: Matrix, res_a: SmithResult, b: Matrix,
                res_b: SmithResult) -> Optional[SimilarityCertificate]:
    """S with S^-1 A S = B from the Smith forms of xI - A and xI - B, or
    None when their invariant factors differ."""
    if res_a.diag != res_b.diag:
        return None
    qa_inv = determinant.inverse(res_a.q)
    qb_inv = determinant.inverse(res_b.q)
    s = right_eval(res_a.q @ qb_inv, b)
    s_inv = right_eval(res_b.q @ qa_inv, a)
    n = a.m
    ident = Matrix.identity(Ring.Q, n)
    if s_inv @ s != ident or s @ s_inv != ident:
        raise CertificateFailed("similarity certificate: S S^-1 != I")
    if s_inv @ a @ s != b:
        raise CertificateFailed("similarity certificate replay S^-1 A S = B failed")
    return SimilarityCertificate(s, b)


def _assemble(a: Matrix, res_a: SmithResult,
              blocks: list[Matrix]) -> tuple[SimilarityCertificate, Matrix]:
    form = blocks[0]
    for blk in blocks[1:]:
        form = direct_sum(form, blk)
    cert = _conjugator(a, res_a, form, smith(char_matrix(form)))
    if cert is None:  # same elementary divisors by construction
        raise CertificateFailed("canonical form is not similar to its source")
    return cert, form


def rcf(a: Matrix) -> tuple[SimilarityCertificate, Matrix]:
    """Frobenius (rational) canonical form: companion blocks of the
    elementary divisors in display order, with verified conjugator."""
    a = _as_rational_square(a)
    res_a = _char_smith(a)
    blocks = [companion(p ** e) for p, e in _divisors_of(res_a.diag)]
    return _assemble(a, res_a, blocks)


def jordan(a: Matrix) -> tuple[SimilarityCertificate, Matrix]:
    """Jordan canonical form: hypercompanion blocks of the elementary
    divisors, which must all be powers of linear factors."""
    a = _as_rational_square(a)
    res_a = _char_smith(a)
    eds = _divisors_of(res_a.diag)
    for p, _ in eds:
        if valuation(p) != 1:
            raise NonLinearElementaryDivisor(
                f"elementary divisor prime {p} is not linear over Q"
            )
    blocks = [hypercompanion(-p.value[0], e) for p, e in eds]
    return _assemble(a, res_a, blocks)
