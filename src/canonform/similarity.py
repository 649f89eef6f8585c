"""Characteristic matrices over Q[x], evaluation maps, similarity
decision with an explicit conjugator, minimal polynomial, and the
rational (Frobenius) and Jordan canonical forms.

Constant matrices live over Q (Z inputs are lifted); polynomial matrices
over Q[x].  `rcf` and `jordan` compute the Smith form of xI - A once and
reuse it both for the elementary divisors and for the conjugator
S = rho_B(Q_A D_B^-1 P_B (xI - B)), read off the two replayed Smith
identities: no matrix is inverted.  From xI - A to S the path runs on
raw rows (see domain) by `matrix.raw_multiply`; the Matrices handed from
step to step hold raw values, so no Elem of them is built unless a
caller reads an entry.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import determinant
from .domain import (RAW_EUCLID, RAW_OPS, Elem, Ring, X, brief, polynomial, raw_layers,
                     valuation)
from .errors import (
    CertificateFailed,
    Error,
    NonLinearElementaryDivisor,
    NotMonic,
    NotSquare,
    RingMismatch,
    ShapeMismatch,
)
from .invariants import elementary_divisors
from .matrix import Matrix, direct_sum, lift, raw_multiply
from .smith import SmithResult, smith


def _as_rational_square(a: Matrix) -> Matrix:
    if not a.is_square():
        raise NotSquare(f"{a.m}x{a.n} matrix is not square")
    if a.ring is Ring.QX:
        raise RingMismatch("expected a constant matrix over Z or Q")
    return lift(a, Ring.Q)


def char_matrix(a: Matrix) -> Matrix:
    """xI - A over Q[x], built on raw rows: a Q pair is a degree-0 Q[x] pair."""
    add, neg = RAW_OPS[Ring.QX][0], RAW_EUCLID[Ring.QX][1]
    return Matrix.from_raw(Ring.QX, [
        [add(X.raw, neg(v)) if i == j else neg(v) for j, v in enumerate(row)]
        for i, row in enumerate(_as_rational_square(a).raw_rows())])


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
        p0 = self.coeffs[0]
        return Matrix(Ring.QX, p0.m, p0.n, tuple(
            polynomial([pk.entries[i].value for pk in self.coeffs])
            for i in range(len(p0.entries))))


def canonical_presentation(p: Matrix) -> CanonicalPresentation:
    """Split a polynomial matrix into its coefficient matrices."""
    if p.ring is not Ring.QX:
        raise RingMismatch("canonical presentation needs a Q[x] matrix")
    return CanonicalPresentation(tuple(
        Matrix.from_raw(Ring.Q, layer) for layer in raw_layers(p.raw_rows())))


def _horner(p: Matrix, a: Matrix, left: bool) -> Matrix:
    """sum P_k A^k (sum A^k P_k when left) over the layers of P."""
    a = _as_rational_square(a)
    if p.m != a.m or p.n != a.n:
        raise ShapeMismatch("evaluation needs conformable square matrices")
    if p.ring is not Ring.QX:
        raise RingMismatch("evaluation needs a Q[x] matrix")
    add, arows = RAW_OPS[Ring.Q][0], a.raw_rows()
    *layers, out = raw_layers(p.raw_rows())
    for pk in reversed(layers):
        out = raw_multiply(Ring.Q, *((arows, out) if left else (out, arows)))
        out = [[add(u, v) for u, v in zip(urow, vrow)] for urow, vrow in zip(out, pk)]
    return Matrix.from_raw(Ring.Q, out)


def right_eval(p: Matrix, a: Matrix) -> Matrix:
    """rho_A(P) = sum P_k A^k, coefficients kept on the left."""
    return _horner(p, a, left=False)


def left_eval(p: Matrix, a: Matrix) -> Matrix:
    """lambda_A(P) = sum A^k P_k."""
    return _horner(p, a, left=True)


def scalar_poly_eval(q: Elem, a: Matrix) -> Matrix:
    """q(A) for a scalar polynomial q: the right evaluation of q*I."""
    if q.ring is not Ring.QX:
        raise RingMismatch("expected a Q[x] scalar")
    return right_eval(Matrix.identity(Ring.QX, a.m).scale(q), a)


def _char_smith(a: Matrix) -> SmithResult:
    """The Smith form of xI - A for a constant square A over Z or Q."""
    res = smith(char_matrix(a))
    if res.rank != a.m:  # det(xI - A) is monic of degree n, never zero
        raise CertificateFailed(f"xI - A has rank {res.rank}, not {a.m}")
    return res


def similarity_invariants(a: Matrix) -> tuple[Elem, ...]:
    """Invariant factors of xI - A: n monic polynomials (units as 1) whose
    product is the characteristic polynomial."""
    return _char_smith(a).diag


def minimal_poly(a: Matrix) -> Elem:
    """The invariant factor of highest degree of xI - A."""
    return similarity_invariants(a)[-1]


def companion(q: Elem) -> Matrix:
    """Companion matrix of a monic polynomial: superdiagonal ones, bottom
    row a_j with q(x) = x^k - sum a_j x^j (so a_j = -coeff_j(q))."""
    if q.ring is not Ring.QX or q.is_zero() or q.value[-1] != 1:
        raise NotMonic(f"{brief(q)} is not monic")
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
    """Jordan block: alpha on the diagonal, ones on the superdiagonal.
    alpha goes through Elem(Ring.Q, ...), an Elem of Z or Q by its value,
    so a float, a string or a polynomial raises RingMismatch."""
    if k < 1:
        raise ShapeMismatch("hypercompanion needs k >= 1")
    alpha = Elem(Ring.Q, alpha.value if isinstance(alpha, Elem) else alpha).value
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
        """Replay the certificate against the source A (Z is lifted to Q):
        det(S) != 0 and A S = S target over Q, so S is invertible and
        S^-1 A S = target, without inverting S.  False when a check fails
        or raises a canonform.errors.Error (another ring, unequal shapes)."""
        try:
            a, s, t = _as_rational_square(a), self.s, self.target
            srows = s.raw_rows()
            return (s.ring is t.ring is Ring.Q and not determinant.det(s).is_zero()
                    and raw_multiply(Ring.Q, a.raw_rows(), srows)
                    == raw_multiply(Ring.Q, srows, t.raw_rows()))
        except Error:
            return False


def similar(a: Matrix, b: Matrix) -> Optional[SimilarityCertificate]:
    """Decide similarity; on success return S with S^-1 A S = B exactly.

    S is the right evaluation at B of the composed unimodular column
    witness of the two Smith decompositions of xI-A and xI-B.
    """
    a = _as_rational_square(a)
    b = _as_rational_square(b)
    if a.m != b.m:
        raise ShapeMismatch("similar needs matrices of equal size")
    return _conjugator(a, _char_smith(a), b, _char_smith(b))


def _conjugator(a: Matrix, res_a: SmithResult, b: Matrix,
                res_b: SmithResult) -> Optional[SimilarityCertificate]:
    """S = rho_B(Q_A Q_B^-1) with S^-1 A S = B from the Smith forms of
    xI - A and xI - B, or None when their invariant factors differ.
    Q_B^-1 = D_B^-1 P_B (xI - B) is read off smith's replayed identity
    P_B (xI - B) Q_B = D_B: one product and exact row divisions, no
    inverse.  The certificate is replayed by its own verify."""
    if res_a.diag != res_b.diag:
        return None
    divmod_, zero = RAW_EUCLID[Ring.QX][0], RAW_OPS[Ring.QX][2]
    # D_B Q_B^-1 = P_B (xI - B), then exact division of row i by D_B's d_i
    rows = raw_multiply(Ring.QX, res_b.p.raw_rows(), char_matrix(b).raw_rows())
    for i, d in enumerate(res_b.diag):
        rows[i], rems = zip(*(divmod_(v, d.raw) for v in rows[i]))
        if any(r != zero for r in rems):
            raise CertificateFailed(f"Q_B^-1 row {i + 1} is not polynomial")
    q_ab = Matrix.from_raw(Ring.QX, raw_multiply(Ring.QX, res_a.q.raw_rows(), rows))
    cert = SimilarityCertificate(right_eval(q_ab, b), b)
    if not cert.verify(a):
        raise CertificateFailed("similarity certificate replay S^-1 A S = B failed")
    return cert


def _assemble(a: Matrix, res_a: SmithResult,
              blocks: list[Matrix]) -> tuple[SimilarityCertificate, Matrix]:
    form = blocks[0]
    for blk in blocks[1:]:
        form = direct_sum(form, blk)
    cert = _conjugator(a, res_a, form, _char_smith(form))
    if cert is None:  # same elementary divisors by construction
        raise CertificateFailed("canonical form is not similar to its source")
    return cert, form


def rcf(a: Matrix) -> tuple[SimilarityCertificate, Matrix]:
    """Frobenius (rational) canonical form: companion blocks of the
    elementary divisors in display order, with verified conjugator."""
    a = _as_rational_square(a)
    res_a = _char_smith(a)
    blocks = [companion(p ** e) for p, e in elementary_divisors(res_a.diag)]
    return _assemble(a, res_a, blocks)


def jordan(a: Matrix) -> tuple[SimilarityCertificate, Matrix]:
    """Jordan canonical form: hypercompanion blocks of the elementary
    divisors, which must all be powers of linear factors."""
    a = _as_rational_square(a)
    res_a = _char_smith(a)
    eds = elementary_divisors(res_a.diag)
    for p, _ in eds:
        if valuation(p) != 1:
            raise NonLinearElementaryDivisor(
                f"elementary divisor prime {brief(p)} is not linear over Q"
            )
    blocks = [hypercompanion(-p.value[0], e) for p, e in eds]
    return _assemble(a, res_a, blocks)
