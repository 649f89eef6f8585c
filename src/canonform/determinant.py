"""Exact determinants and the surrounding calculus: Laplace expansions,
restricted sums, adjugate, Cramer solving, Cauchy-Binet checks, rank by
minors, and inversion over the ring.

`det` runs one Bareiss kernel on integer rows in every ring, each
division an exact integer divmod whose nonzero remainder raises
ExactDivisionError: Z rows as they are, the rows of domain.raw_clear_rows
over Q, and over Q[x] the rows of domain.raw_clear_polys with each entry
packed at x = 2^k (domain.raw_pack), the determinant unpacked once.
A unit matrix is inverted through its Hermite canonical form, which is the
identity, so the row transform is the inverse; no adjugate is formed.
`similarity.similar` calls `inverse` once, on a constant matrix over Q.
"""
from __future__ import annotations

from itertools import chain, combinations, permutations
from math import comb, prod
from typing import Iterable

from .domain import (Elem, Ring, _mk, brief, gcd, raw_clear_polys, raw_clear_rows, raw_pack,
                     raw_pack_width, raw_poly, raw_ratio, raw_unpack)
from .errors import (
    BadIndexSet,
    CertificateFailed,
    ExactDivisionError,
    NotAUnit,
    NotSquare,
    ShapeMismatch,
    SingularMatrix,
    SizeMismatch,
    TooLargeForOracle,
)
from .matrix import Matrix, lift, submatrix, submatrix_sets

_EXPANSION_LIMIT = 8
# Determinants or pairs of them that one minor oracle may enumerate (laplace,
# minor_of_product, rank_by_minors, gcd_of_minors, invariants.det_divisors_by_minors).
_MINOR_BUDGET = 5000


def _within_minor_budget(count: int) -> None:
    if count > _MINOR_BUDGET:
        raise TooLargeForOracle(f"{count} minors exceed the oracle budget")


def _require_square(a: Matrix):
    if not a.is_square():
        raise NotSquare(f"{a.m}x{a.n} matrix is not square")


def det_expansion(a: Matrix) -> Elem:
    """Reference oracle: the literal signed sum over all permutations."""
    _require_square(a)
    n = a.m
    if n > _EXPANSION_LIMIT:
        raise TooLargeForOracle(f"expansion oracle capped at n={_EXPANSION_LIMIT}")
    rows = [a.row(i) for i in range(1, n + 1)]
    total = Elem.zero(a.ring)
    for images in permutations(range(n)):
        inv = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if images[i] > images[j]
        )
        term = rows[0][images[0]]
        for i in range(1, n):
            term = term * rows[i][images[i]]
        total = total + (-term if inv % 2 else term)
    return total


def det(a: Matrix) -> Elem:
    """Determinant by fraction-free (Bareiss) elimination on integers;
    exact in every ring, agrees with det_expansion.  Over Q and Q[x] row i
    of A is integers over d_i (domain.raw_clear_rows, raw_clear_polys), so
    det A is an integer determinant over prod d_i, normalized once.  Over
    Q[x] each entry is packed at x = 2^k (domain.raw_pack), 2^(k-1) above
    B = prod_i sum_j |a_ij|_1, which bounds every coefficient of the
    determinant, so its value at 2^k unpacks to it."""
    _require_square(a)
    rows = a.raw_rows()
    if a.ring is Ring.Z:
        return _mk(Ring.Z, _bareiss(rows))
    if a.ring is Ring.Q:
        ints, dens = raw_clear_rows(rows)
        return _mk(Ring.Q, raw_ratio(_bareiss(ints), prod(dens)))
    ints, dens = raw_clear_polys(rows)
    bound = prod(sum(map(abs, chain.from_iterable(row))) for row in ints)
    # a zero row makes the bound 0 and k = 8, and raw_pack would overflow on
    # any other row's coefficient outside -128..127
    if not bound:
        return Elem.zero(Ring.QX)
    k = raw_pack_width(bound)
    return _mk(Ring.QX, raw_poly(raw_unpack(_bareiss(raw_pack(ints, k)), k), prod(dens)))


def _bareiss(w: list) -> int:
    """The determinant of the square integer rows w, which it overwrites."""
    n, sign, prev = len(w), 1, 1
    for k in range(n - 1):
        if not w[k][k]:
            for t in range(k + 1, n):
                if w[t][k]:
                    w[k], w[t], sign = w[t], w[k], -sign
                    break
            else:
                return 0
        pivot, wk = w[k][k], w[k]
        for i in range(k + 1, n):
            wi, c = w[i], -w[i][k]
            for j in range(k + 1, n):
                wi[j], r = divmod(pivot * wi[j] + c * wk[j], prev)
                if r:
                    raise ExactDivisionError(
                        f"Bareiss step {k + 1}: division by {brief(prev)} leaves {brief(r)}")
        prev = pivot
    return sign * w[n - 1][n - 1]


def _validate_subset(x: Iterable[int], n: int) -> tuple[int, ...]:
    xs = tuple(sorted(set(x)))
    if not xs or any(not 1 <= i <= n for i in xs):
        raise BadIndexSet(f"index set {xs} outside 1..{n}")
    return xs


def laplace(a: Matrix, xset: Iterable[int], axis: str = "rows") -> Elem:
    """General Laplace expansion over a fixed row (or column) set; equals
    det(a)."""
    _require_square(a)
    n = a.m
    xs = _validate_subset(xset, n)
    if len(xs) >= n:
        raise BadIndexSet("the fixed set must be a proper subset")
    if axis not in ("rows", "cols"):
        raise BadIndexSet(f"bad axis {axis!r}")
    _within_minor_budget(comb(n, len(xs)))
    total = Elem.zero(a.ring)
    for ys in combinations(range(1, n + 1), len(xs)):
        total = total + _restricted_term(a, xs, ys, axis)
    return total


def _restricted_term(a, xs, ys, axis="rows") -> Elem:
    rs, cs = (xs, ys) if axis == "rows" else (ys, xs)
    term = det(submatrix_sets(a, rs, cs, "keep-keep")) * det(
        submatrix_sets(a, rs, cs, "drop-drop"))
    return -term if (sum(xs) + sum(ys)) % 2 else term


def restricted_det_sum(a: Matrix, xset: Iterable[int], yset: Iterable[int]) -> Elem:
    """Delta(X,Y,A) = (-1)^sum(X) (-1)^sum(Y) det A[X|Y] det A(X|Y)."""
    _require_square(a)
    xs = _validate_subset(xset, a.m)
    ys = _validate_subset(yset, a.m)
    if len(xs) != len(ys):
        raise SizeMismatch("X and Y must have equal size")
    if len(xs) >= a.m:
        raise BadIndexSet("the sets must be proper subsets")
    return _restricted_term(a, xs, ys, "rows")


def adjugate(a: Matrix) -> Matrix:
    """Transpose of the signed cofactor matrix; A*adj(A) = det(A)*I."""
    _require_square(a)
    n = a.m
    if n == 1:
        return Matrix.identity(a.ring, 1)
    grid = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            minor = det(submatrix_sets(a, [j], [i], "drop-drop"))
            row.append(-minor if (i + j) % 2 else minor)
        grid.append(row)
    return Matrix.from_rows(a.ring, grid)


def inverse(a: Matrix) -> Matrix:
    """Inverse over the ring itself: requires det(a) to be a unit.

    The Hermite canonical form Q A = H of a unit matrix is I (unit pivots
    have canonical associate 1, residues modulo 1 are 0), so Q is the
    inverse; over Q this is Gauss-Jordan elimination.
    """
    from .hermite import hermite_canonical  # hermite imports this module

    _require_square(a)
    res = hermite_canonical(a)
    if res.h != Matrix.identity(a.ring, a.m):
        raise NotAUnit(f"determinant {brief(det(a))} is not a unit of {a.ring}")
    return res.q


def cramer_solve(a: Matrix, y: Matrix) -> Matrix:
    """Solve A x = y by determinant quotients.  Z systems are solved over
    Q; Q[x] systems must have polynomial solutions."""
    _require_square(a)
    if y.m != a.m or y.n != 1:
        raise ShapeMismatch(f"right side must be {a.m}x1")
    a._check_ring(y)
    if a.ring is Ring.Z:
        a, y = lift(a, Ring.Q), lift(y, Ring.Q)
    d = det(a)
    if d.is_zero():
        raise SingularMatrix("coefficient matrix is singular")
    sol, arows, ys = [], a.raw_rows(), [row[0] for row in y.raw_rows()]
    for i in range(a.n):
        grid = [row[:i] + [v] + row[i + 1:] for row, v in zip(arows, ys)]
        di = det(Matrix.from_raw(a.ring, grid))
        try:
            sol.append([di.exact_div(d)])
        except ExactDivisionError:
            raise ExactDivisionError(
                "solution is not polynomial; solve over Q(x) is unsupported") from None
    return Matrix.from_rows(a.ring, sol)


def minor_of_product(
    a: Matrix, b: Matrix, rowset: Iterable[int], colset: Iterable[int]
) -> Elem:
    """det((AB)[G|H]) with the Cauchy-Binet identity checked against the
    minor sum over all F; both an operation and a built-in self-check."""
    a._check_ring(b)
    if a.n != b.m:
        raise ShapeMismatch(f"{a.m}x{a.n} times {b.m}x{b.n}")
    gs = _validate_subset(rowset, a.m)
    hs = _validate_subset(colset, b.n)
    if len(gs) != len(hs):
        raise SizeMismatch("row and column sets must have equal size")
    k = len(gs)
    _within_minor_budget(comb(a.n, k))
    lhs = det(submatrix(a @ b, gs, hs))
    rhs = Elem.zero(a.ring)
    for fs in combinations(range(1, a.n + 1), k):
        rhs = rhs + det(submatrix(a, gs, fs)) * det(submatrix(b, fs, hs))
    if lhs != rhs:
        raise CertificateFailed(
            f"Cauchy-Binet self-check failed: {brief(lhs)} != {brief(rhs)}")
    return lhs


def rank_by_minors(a: Matrix) -> int:
    """Oracle rank: the largest k with a nonzero k x k minor."""
    # all k x k minors, k >= 1: sum of C(m, k) C(n, k) = C(m + n, m) - 1
    _within_minor_budget(comb(a.m + a.n, a.m) - 1)
    for k in range(min(a.m, a.n), 0, -1):
        for rows in combinations(range(1, a.m + 1), k):
            for cols in combinations(range(1, a.n + 1), k):
                if not det(submatrix(a, rows, cols)).is_zero():
                    return k
    return 0


def gcd_of_minors(a: Matrix, k: int) -> Elem:
    """Canonical gcd of all k x k minors (zero when all vanish); one for
    k = 0, the f_0 of `invariants.det_divisors_by_minors`."""
    if k < 0:
        raise BadIndexSet(f"minor order k = {k} is negative")
    if k == 0:
        return Elem.one(a.ring)
    _within_minor_budget(comb(a.m, k) * comb(a.n, k))
    acc = Elem.zero(a.ring)
    for rows in combinations(range(1, a.m + 1), k):
        for cols in combinations(range(1, a.n + 1), k):
            acc = gcd(acc, det(submatrix(a, rows, cols)))
            if acc.is_one():
                return acc
    return acc


def is_unimodular(a: Matrix) -> bool:
    return a.is_square() and det(a).is_unit()
