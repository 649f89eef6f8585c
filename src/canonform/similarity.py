"""Characteristic matrices over Q[x], evaluation maps, similarity
decision with an explicit conjugator, minimal polynomial, and the
rational (Frobenius) and Jordan canonical forms.

Constant matrices live over Q (Z inputs are lifted); polynomial matrices
over Q[x].  The Smith form P (xI - A) Q = D splits Q^n, with x acting as
A, into cyclic summands Q[x]/(d_i), generated by the left evaluations at
A of the columns of P^-1 = (xI - A) Q D^-1.  `_char_smith` reads the
Hermite form H of xI - A off Krylov relations over Q (`_krylov_hermite`),
so no elimination over Q[x] touches the n x n matrix, splits off its unit
pivots, runs the reduction of `smith` on the k x k block Y of the others
with Q_Y^T and no other transform, and certifies Q and the d_i by the
product M = (xI - A) Q, of which it multiplies out only the trailing
columns, those of the nonunit d_i, by coefficient layers on A's integer
rows (`_char_product`): each of them divides by its d_i, the degrees of
the d_i sum to n, they form a divisibility chain, and Q(0) is
nonsingular.  `_basis` builds from the quotients, the trailing columns of
P^-1, the S with A S = S T for a direct sum T of companion or Jordan
blocks, reading each chain of columns off its own block of T, so `rcf`
and `jordan` run one Smith form, of Y, and one Q[x] product (Q's
columns), and `similar` those per matrix and S = S_A S_B^-1, one inverse
of a constant matrix.  From A to S the path runs on raw rows (see
domain); over Q the Krylov vectors, M, `matrix.raw_multiply`,
`determinant.det` and `_basis`'s chain steps run on integer rows; the
Matrices handed from step to step hold raw values, so no Elem of them is
built unless a caller reads an entry.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import zip_longest
from math import gcd, lcm
from typing import Optional

from . import determinant
from .domain import (RAW_EUCLID, RAW_OPS, Elem, Ring, X, brief, raw_clear_rows, raw_layer,
                     raw_layers, raw_poly, raw_ratio, valuation)
from .errors import (
    CertificateFailed,
    EmptyResult,
    Error,
    NonLinearElementaryDivisor,
    NotAUnit,
    NotMonic,
    NotSquare,
    RingMismatch,
    ShapeMismatch,
)
from .invariants import _prime_powers
from .matrix import Matrix, direct_sum, lift, raw_multiply
from .smith import _check_chain, _smith_rows


def _as_rational_square(a: Matrix) -> Matrix:
    if not a.is_square():
        raise NotSquare(f"{a.m}x{a.n} matrix is not square")
    if a.ring is Ring.QX:
        raise RingMismatch("expected a constant matrix over Z or Q")
    return lift(a, Ring.Q)


def char_matrix(a: Matrix) -> Matrix:
    """xI - A over Q[x], built on raw rows: a Q pair is a degree-0 Q[x] pair.
    `char_poly` reads it; the similarity path builds no xI - A."""
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

    def __post_init__(self):
        if not self.coeffs:
            raise EmptyResult("a presentation needs at least one coefficient matrix")
        if any(not isinstance(pk, Matrix) or pk.ring not in (Ring.Z, Ring.Q)
               for pk in self.coeffs):
            raise RingMismatch("presentation coefficients must be matrices over Z or Q")
        if len({(pk.m, pk.n) for pk in self.coeffs}) > 1:
            raise ShapeMismatch("presentation coefficients differ in shape")

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def reconstruct(self) -> Matrix:
        """P by Horner's rule, (P_m x + P_(m-1)) x + ..., on the lifted P_k."""
        *rest, out = [lift(pk, Ring.QX) for pk in self.coeffs]
        for pk in reversed(rest):
            out = out.scale(X) + pk
        return out


def canonical_presentation(p: Matrix) -> CanonicalPresentation:
    """Split a polynomial matrix into its coefficient matrices."""
    if p.ring is not Ring.QX:
        raise RingMismatch("canonical presentation needs a Q[x] matrix")
    return CanonicalPresentation(tuple(
        Matrix.from_raw(Ring.Q, layer) for layer in raw_layers(p.raw_rows())))


def _horner(p: Matrix, a: Matrix, left: bool) -> Matrix:
    """sum P_k A^k (sum A^k P_k when left) over the layers of P."""
    a = _as_rational_square(a)
    if (p.m if left else p.n) != a.m:
        raise ShapeMismatch(f"{p.m}x{p.n} matrix cannot be evaluated at a {a.m}x{a.m} one")
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


@dataclass(frozen=True)
class CharSmith:
    """The Smith form P (xI - A) Q = D without P or Q: the invariant
    factors d_i of D, and as pinv the trailing columns of
    P^-1 = (xI - A) Q D^-1 that belong to the nonunit d_i."""

    pinv: Matrix
    diag: tuple[Elem, ...]


def _char_smith(a: Matrix) -> CharSmith:
    """The Smith form of xI - A for a constant square A over Z or Q.

    `_krylov_hermite` gives H = U (xI - A), upper triangular with monic
    pivots and reduced entries above them, so the column of a unit pivot t
    is e_t, and the unipotent V with V_tj = -H_tj, t a unit pivot and j one
    of the k others, makes H V = I + Y, Y the k x k block of H on the
    nonunit pivots.  The reduction of `smith` runs on Y alone, carrying
    Q_Y^T and no P: the d_i are n - k ones and Y's, and Q = V (I + Q_Y).
    Its certificate is M = (xI - A) Q, of which only the trailing columns,
    those of the nonunit d_i, are multiplied out, by `_char_product`: the
    degrees of the d_i sum to n, d_i | d_(i+1), column i of M divides
    exactly by each nonunit d_i, and det Q(0) = det Q_Y(0) != 0.  Q_Y is
    unimodular by construction (elementary operations only) and V whatever
    its entries, so det Q is a nonzero constant c; det Q(0) != 0 keeps a Q
    that went wrong from passing, since a zero column divides by anything.
    Then N = M D^-1, whose trailing columns it returns, is a polynomial
    matrix (a unit column of N is M's own column, computed or not) with
    det N * prod d_i = det M = chi * c for chi = det(xI - A), monic of
    degree n, so prod d_i, monic of degree n, is chi, det N = c, and
    N = P^-1 is unimodular: P (xI - A) Q = D, with d_i | d_(i+1) its
    Smith form.  No step trusts U or H, nor how H was found (from Krylov
    relations over Q): the argument uses only that Q_Y is a product of
    elementary operations and V unipotent, so a wrong H, in an entry of V
    or in Y, fails the checks or still gives the Smith form.  The replay
    P A Q = D of `smith` trusts the same premise for P and Q; this one for
    Q_Y alone.
    """
    a = _as_rational_square(a)
    n, one = a.m, Elem.one(Ring.QX)
    (_, _, zero), (divmod_, neg, _) = RAW_OPS[Ring.QX], RAW_EUCLID[Ring.QX]
    aints, adens = raw_clear_rows(a.raw_rows())
    h = _krylov_hermite(aints, adens)
    ks = [t for t in range(n) if h[t][t] != one.raw]
    k = len(ks)
    qyt = Matrix.identity(Ring.QX, k).raw_rows()  # the rows of Q_Y^T
    diag = (one,) * (n - k) + tuple(
        _smith_rows(Ring.QX, [[h[s][t] for t in ks] for s in ks], [[]] * k, qyt))
    if len(diag) != n:  # det(xI - A) is monic of degree n, never zero
        raise CertificateFailed(f"xI - A has rank {len(diag)}, not {n}")
    total = sum(d.degree() for d in diag)
    if total != n:
        raise CertificateFailed(
            f"xI - A: degrees of the invariant factors sum to {total}, not {n}")
    _check_chain(diag)
    units = next(i for i, d in enumerate(diag) if not d.is_one())
    # the rows of V's columns on Y: -H_tK on a unit row t, e_t on a nonunit one
    vk = [[neg(h[t][s]) for s in ks] if h[t][t] == one.raw else
          [one.raw if s == t else zero for s in ks] for t in range(n)]
    qcols = raw_multiply(Ring.QX, vk, [list(col) for col in zip(*qyt[units - n + k:])])
    xq = _char_product(aints, adens, qcols)
    pinv = []
    for i, d in enumerate(diag[units:], units):
        quots, rems = zip(*(divmod_(row[i - units], d.raw) for row in xq))
        if any(r != zero for r in rems):
            raise CertificateFailed(
                f"column {i + 1} of (xI - A) Q is not divisible by {brief(d)}")
        pinv.append(quots)
    if determinant.det(Matrix.from_raw(Ring.Q, raw_layer(qyt, 0))).is_zero():
        raise CertificateFailed(f"xI - A: Q(0) is singular, so the {n}x{n} Q is not unimodular")
    return CharSmith(Matrix.from_raw(Ring.QX, list(zip(*pinv))), diag)


def _krylov_hermite(aints, adens) -> list:
    """The Hermite form H = U (xI - A) that `_canonicalize` gives, as raw
    Q[x] rows, read off linear relations over Q for A = aints / adens, its
    rows cleared by raw_clear_rows (Keller-Gehrig 1985; Storjohann 2000).

    Q[x]^n / Q[x]^n (xI - A) is Q^n with x acting as v -> v A, so a row
    (p_1, ..., p_n) lies in the row module of xI - A exactly when
    sum_j e_j p_j(A) = 0.  For t = n down to 1 the Krylov vectors e_t A^i,
    i = 0, 1, ..., are taken until one lies in the span of those before it
    and of the basis e_j A^l, j > t, l < d_j, kept so far.  The first i
    that does is d_t, and its relation is row t of H: h_tt monic of degree
    d_t, and h_tj of degree < d_j for j > t.  A row of that shape is
    reduced, and the reduced Hermite form is unique, so H is the same.
    The vectors run on integers, D^i e_t A^i for D the lcm of the row
    denominators; each is reduced fraction-free against the echelon rows,
    carrying its integer coefficients on the Krylov vectors it combines,
    and is kept divided by its content.  The coefficient of x^l in h_tj is
    then that of e_j A^l times D^l over that of e_t A^(d_t) times D^(d_t).
    """
    n, zero, zmul = len(aints), RAW_OPS[Ring.QX][2], RAW_OPS[Ring.Z][1]
    den = lcm(*adens)
    acols = list(zip(*[[v * (den // d) for v in row] for row, d in zip(aints, adens)]))
    powers, h = [1], [[zero] * n for _ in range(n)]
    # the echelon rows (pivot, vector, coefficients on the Krylov vectors
    # so far), and where e_j's Krylov vectors start among those, and d_j
    echelon, start, degs = [], [0] * n, [0] * n
    for t in range(n - 1, -1, -1):
        start[t], w = len(echelon), [0] * n
        w[t] = 1
        while True:
            vec, coef = w, [0] * len(echelon) + [1]
            for p, rvec, rcoef in echelon:
                c = vec[p]
                if c:
                    r = rvec[p]
                    g = gcd(r, c)
                    r, c = r // g, c // g
                    vec = [r * u - c * v for u, v in zip(vec, rvec)]
                    coef = [r * u - c * v for u, v in zip_longest(coef, rcoef, fillvalue=0)]
            if not any(vec):  # coef is the relation that gives row t of H
                break
            g = gcd(*vec, *coef)
            echelon.append((next(j for j, v in enumerate(vec) if v),
                            [v // g for v in vec], [u // g for u in coef]))
            w = [sum(map(zmul, w, col)) for col in acols]
        degs[t] = d = len(echelon) - start[t]
        while len(powers) <= d:
            powers.append(powers[-1] * den)
        lead = coef[-1] * powers[d]
        for j in range(t, n):
            if degs[j] or j == t:
                h[t][j] = raw_poly([coef[start[j] + l] * powers[l]
                                    for l in range(degs[j] + (j == t))], lead)
    return h


def _char_product(aints, adens, cols) -> list:
    """(xI - A) C as raw Q[x] rows for A = aints / adens, its rows cleared
    by raw_clear_rows, and C raw Q[x] rows.  With column c of C cleared to
    integer polynomials q_mc over one denominator e_c, entry (i, c) is
    (adens_i x q_ic - sum_m aints_im q_mc) / (adens_i e_c): one integer
    dot product of a row of A per coefficient layer, normalized once."""
    zmul, out = RAW_OPS[Ring.Z][1], [[] for _ in aints]
    for col in zip(*cols):
        e = lcm(*[d for _, d in col])
        ints = [[c * (e // d) for c in nums] for nums, d in col]
        layers = list(zip_longest(*ints, fillvalue=0))
        for row, arow, da, q in zip(out, aints, adens, ints):
            nums = [-sum(map(zmul, arow, layer)) for layer in layers] + [0]
            for l, c in enumerate(q, 1):
                nums[l] += da * c
            row.append(raw_poly(nums, da * e))
    return out


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
    if q.ring is not Ring.QX or q.is_zero() or q.raw[0][-1] != q.raw[1]:
        raise NotMonic(f"{brief(q)} is not monic")
    k = q.degree()
    if k < 1:
        raise NotMonic("companion needs degree >= 1")
    neg = RAW_EUCLID[Ring.Q][1]
    *coeffs, _ = raw_layers([[q.raw]])
    return Matrix.from_raw(Ring.Q, _shift_rows(k)[:-1] + [[neg(c[0][0]) for c in coeffs]])


def _shift_rows(k: int) -> list:
    """The raw Q rows of companion(x^k): ones on the superdiagonal."""
    zero, one = RAW_OPS[Ring.Q][2], Elem.one(Ring.Q).raw
    return [[one if j == i + 1 else zero for j in range(k)] for i in range(k)]


def hypercompanion(alpha, k: int) -> Matrix:
    """Jordan block alpha I + companion(x^k): alpha on the diagonal, ones
    on the superdiagonal.  alpha goes through Elem(Ring.Q, ...), an Elem of
    Z or Q by its value, so a float, a string or a polynomial raises
    RingMismatch."""
    if k < 1:
        raise ShapeMismatch("hypercompanion needs k >= 1")
    alpha = Elem(Ring.Q, alpha.value if isinstance(alpha, Elem) else alpha).raw
    rows = _shift_rows(k)
    for i, row in enumerate(rows):
        row[i] = alpha
    return Matrix.from_raw(Ring.Q, rows)


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

    A and B are similar exactly when xI - A and xI - B have the same
    invariant factors d_i.  Then A S_A = S_A F and B S_B = S_B F for F the
    direct sum of the companion matrices of the nonunit d_i, with S_A and
    S_B from `_basis`, so S = S_A S_B^-1: one inverse of a constant matrix.
    """
    a = _as_rational_square(a)
    b = _as_rational_square(b)
    if a.m != b.m:
        raise ShapeMismatch("similar needs matrices of equal size")
    res_a, res_b = _char_smith(a), _char_smith(b)
    if res_a.diag != res_b.diag:
        return None
    blocks = [(i, d, companion(d)) for i, d in enumerate(res_a.diag) if not d.is_one()]
    s_a, s_b = _basis(a, res_a, blocks), _basis(b, res_b, blocks)
    try:
        s_b_inv = determinant.inverse(s_b)
    except NotAUnit:
        raise CertificateFailed("the Frobenius basis of B is singular") from None
    return _certified(a, s_a @ s_b_inv, b)


def _basis(a: Matrix, res: CharSmith, blocks) -> Matrix:
    """S with A S = S (T_1 + ... + T_m) for blocks (i, q, T): q of degree
    k divides the invariant factor d_i of res, the Smith form of xI - A,
    and T is a k x k block of characteristic polynomial q with ones on
    the superdiagonal and zeros off it, the diagonal and the bottom row:
    companion(q), or hypercompanion(alpha, k) for q = (x - alpha)^k.
    Column i of (xI - A) Q over q, that is d_i / q (q | d_i is checked)
    times column i - (n - w) of res.pinv, of width w, evaluates on the
    left at A to a g with annihilator q (Giesbrecht 1995; Storjohann 2000).
    Column j of A S = S T gives the chain c_0..c_(k-1) from T alone:
    c_(k-1) = g and c_(j-1) = A c_j - T_jj c_j - T_(k-1)j g, the last term
    for j < k - 1; A c_j is the integer dot product of each row of A, its
    denominator cleared once, with c_j over one denominator.
    """
    (_, qx_mul, qx_zero), divmod_ = RAW_OPS[Ring.QX], RAW_EUCLID[Ring.QX][0]
    pinv, units, quotients = res.pinv.raw_rows(), len(res.diag) - res.pinv.n, []
    for i, q, _ in blocks:
        c, r = divmod_(res.diag[i].raw, q.raw)
        if r != qx_zero:
            raise CertificateFailed(f"{brief(q)} does not divide the invariant factor "
                                    f"{brief(res.diag[i])}")
        quotients.append([qx_mul(row[i - units], c) for row in pinv])
    gens = zip(*left_eval(Matrix.from_raw(Ring.QX, list(zip(*quotients))), a).raw_rows())
    (add, mul, zero), neg, zmul = RAW_OPS[Ring.Q], RAW_EUCLID[Ring.Q][1], RAW_OPS[Ring.Z][1]
    (aints, adens), out = raw_clear_rows(a.raw_rows()), []
    for (_, _, t), g in zip(blocks, gens):
        trows, chain = t.raw_rows(), [g]
        for j in range(t.m - 1, 0, -1):
            c, diag = chain[-1], neg(trows[j][j])
            bottom = neg(trows[-1][j]) if j < t.m - 1 else zero
            (cints,), (cden,) = raw_clear_rows([c])
            chain.append([add(add(raw_ratio(sum(map(zmul, arow, cints)), da * cden),
                                  mul(diag, ci)), mul(bottom, gi))
                          for arow, da, ci, gi in zip(aints, adens, c, g)])
        out.extend(reversed(chain))
    return Matrix.from_raw(Ring.Q, [list(row) for row in zip(*out)])


def _certified(a: Matrix, s: Matrix, target: Matrix) -> SimilarityCertificate:
    """The certificate (S, target), replayed against A by its own verify."""
    cert = SimilarityCertificate(s, target)
    if not cert.verify(a):
        raise CertificateFailed("similarity certificate replay S^-1 A S = B failed")
    return cert


def rcf(a: Matrix) -> tuple[SimilarityCertificate, Matrix]:
    """Frobenius (rational) canonical form: companion blocks of the
    elementary divisors in display order, with verified conjugator."""
    a = _as_rational_square(a)
    res = _char_smith(a)
    powers = [(i, p ** e) for i, p, e in _prime_powers(res.diag)]
    blocks = [(i, q, companion(q)) for i, q in powers]
    form = reduce(direct_sum, [t for _, _, t in blocks])
    return _certified(a, _basis(a, res, blocks), form), form


def jordan(a: Matrix) -> tuple[SimilarityCertificate, Matrix]:
    """Jordan canonical form: hypercompanion blocks of the elementary
    divisors, which must all be powers of linear factors."""
    a = _as_rational_square(a)
    res = _char_smith(a)
    eds = _prime_powers(res.diag)
    for _, p, _ in eds:
        if valuation(p) != 1:
            raise NonLinearElementaryDivisor(
                f"elementary divisor prime {brief(p)} is not linear over Q"
            )
    blocks = [(i, p ** e, hypercompanion(-p.value[0], e)) for i, p, e in eds]
    form = reduce(direct_sum, [t for _, _, t in blocks])
    return _certified(a, _basis(a, res, blocks), form), form
