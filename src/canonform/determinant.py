"""Exact determinants and the surrounding calculus: Laplace expansions,
restricted sums, adjugate, Cramer solving, Cauchy-Binet checks, rank by
minors, and inversion over the ring.

A unit matrix is inverted through its Hermite canonical form, which is the
identity, so the row transform is the inverse; no adjugate is formed.
"""
from __future__ import annotations

from itertools import combinations, permutations
from typing import Iterable

from .domain import Elem, Ring, gcd
from .errors import (
    BadIndexSet,
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
_RANK_ORACLE_ENTRIES = 36


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
    """Determinant by fraction-free (Bareiss) elimination; exact in every
    ring, agrees with det_expansion."""
    _require_square(a)
    n = a.m
    if n == 1:
        return a.entry(1, 1)
    w = [list(a.row(i)) for i in range(1, n + 1)]
    zero, one = Elem.zero(a.ring), Elem.one(a.ring)
    sign_flip = False
    prev = one
    for k in range(n - 1):
        if w[k][k].is_zero():
            for t in range(k + 1, n):
                if not w[t][k].is_zero():
                    w[k], w[t] = w[t], w[k]
                    sign_flip = not sign_flip
                    break
            else:
                return zero
        pivot = w[k][k]
        for i in range(k + 1, n):
            wik = w[i][k]
            for j in range(k + 1, n):
                num = pivot * w[i][j] - wik * w[k][j]
                w[i][j] = num.exact_div(prev)
            w[i][k] = zero
        prev = pivot
    result = w[n - 1][n - 1]
    return -result if sign_flip else result


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
    total = Elem.zero(a.ring)
    for ys in combinations(range(1, n + 1), len(xs)):
        total = total + _restricted_term(a, xs, ys, axis)
    return total


def _restricted_term(a, xs, ys, axis="rows") -> Elem:
    if axis == "rows":
        inner = submatrix_sets(a, xs, ys, "keep-keep")
        outer = submatrix_sets(a, xs, ys, "drop-drop")
    else:
        inner = submatrix_sets(a, ys, xs, "keep-keep")
        outer = submatrix_sets(a, ys, xs, "drop-drop")
    term = det(inner) * det(outer)
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
        raise NotAUnit(f"determinant {det(a)} is not a unit of {a.ring}")
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
    sol = []
    for i in range(1, a.n + 1):
        grid = [
            [y.entry(r, 1) if c == i else a.entry(r, c) for c in range(1, a.n + 1)]
            for r in range(1, a.m + 1)
        ]
        di = det(Matrix.from_rows(a.ring, grid))
        if a.ring is Ring.QX:
            try:
                sol.append([di.exact_div(d)])
            except ExactDivisionError:
                raise ExactDivisionError(
                    "solution is not polynomial; solve over Q(x) is unsupported"
                ) from None
        else:
            sol.append([di * d.unit_inverse()])
    return Matrix.from_rows(a.ring, sol)


def minor_of_product(
    a: Matrix, b: Matrix, rowset: Iterable[int], colset: Iterable[int]
) -> Elem:
    """det((AB)[G|H]) with the Cauchy-Binet identity asserted against the
    minor sum over all F; both an operation and a built-in self-check."""
    a._check_ring(b)
    if a.n != b.m:
        raise ShapeMismatch(f"{a.m}x{a.n} times {b.m}x{b.n}")
    gs = _validate_subset(rowset, a.m)
    hs = _validate_subset(colset, b.n)
    if len(gs) != len(hs):
        raise SizeMismatch("row and column sets must have equal size")
    k = len(gs)
    lhs = det(submatrix(a @ b, gs, hs))
    rhs = Elem.zero(a.ring)
    for fs in combinations(range(1, a.n + 1), k):
        rhs = rhs + det(submatrix(a, gs, fs)) * det(submatrix(b, fs, hs))
    if lhs != rhs:
        raise AssertionError(
            f"Cauchy-Binet self-check failed: {lhs} != {rhs}"
        )  # pragma: no cover
    return lhs


def rank_by_minors(a: Matrix) -> int:
    """Oracle rank: the largest k with a nonzero k x k minor."""
    if a.m * a.n > _RANK_ORACLE_ENTRIES:
        raise TooLargeForOracle(
            f"rank oracle capped at {_RANK_ORACLE_ENTRIES} entries"
        )
    for k in range(min(a.m, a.n), 0, -1):
        for rows in combinations(range(1, a.m + 1), k):
            for cols in combinations(range(1, a.n + 1), k):
                if not det(submatrix(a, rows, cols)).is_zero():
                    return k
    return 0


def gcd_of_minors(a: Matrix, k: int) -> Elem:
    """Canonical gcd of all k x k minors (zero when all vanish)."""
    acc = Elem.zero(a.ring)
    for rows in combinations(range(1, a.m + 1), k):
        for cols in combinations(range(1, a.n + 1), k):
            acc = gcd(acc, det(submatrix(a, rows, cols)))
            if acc.is_one():
                return acc
    return acc


def is_unimodular(a: Matrix) -> bool:
    return a.is_square() and det(a).is_unit()
