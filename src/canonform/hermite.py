"""Elementary row/column operations with accumulated unimodular
transforms; Hermite (row echelon) forms, canonical normalization,
exact linear solving, and unit-matrix decomposition.

All row operations run through two in-place kernels: `_apply_rows` (one
`ElemOp`) and `_apply_2x2_rows` (one det-1 block on two rows).  A column
operation is a row operation on the transposed working list; the passes
`_echelon` and `_canonicalize` act in place on lists of rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import determinant
from .domain import (
    Elem,
    Ring,
    brief,
    canonical_associate,
    canonical_residue,
    egcd,
    valuation,
)
from .errors import (
    AllZeroColumn,
    BadOperation,
    IndexOutOfRange,
    NotAUnit,
    RingMismatch,
    ShapeMismatch,
    UnsupportedRing,
)
from .matrix import Matrix, lift


@dataclass(frozen=True)
class ElemOp:
    """One elementary operation: swap(i,j), addmul(i += c*j), or
    scale(i *= unit)."""

    kind: str  # "swap" | "addmul" | "scale"
    axis: str  # "row" | "col"
    i: int
    j: int = 0
    coeff: Optional[Elem] = None

    def __post_init__(self):
        if self.kind not in ("swap", "addmul", "scale"):
            raise BadOperation(f"bad op kind {self.kind!r}")
        if self.axis not in ("row", "col"):
            raise BadOperation(f"bad axis {self.axis!r}")
        if self.kind in ("swap", "addmul") and self.i == self.j:
            raise BadOperation("swap/addmul need two distinct indices")

    def inverted(self) -> "ElemOp":
        if self.kind == "swap":
            return self
        if self.kind == "addmul":
            return ElemOp("addmul", self.axis, self.i, self.j, -self.coeff)
        return ElemOp("scale", self.axis, self.i, coeff=self.coeff.unit_inverse())


def row_swap(i: int, j: int) -> ElemOp:
    return ElemOp("swap", "row", i, j)


def row_addmul(target: int, coeff: Elem, source: int) -> ElemOp:
    return ElemOp("addmul", "row", target, source, coeff)


def row_scale(i: int, unit: Elem) -> ElemOp:
    return ElemOp("scale", "row", i, coeff=unit)


def _apply_rows(op: ElemOp, *mats: list[list[Elem]]):
    """Apply one row op in place to each list-of-rows working matrix."""
    i, j, c = op.i - 1, op.j - 1, op.coeff
    for rows in mats:
        if op.kind == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif op.kind == "addmul":
            rows[i] = [t + c * s for t, s in zip(rows[i], rows[j])]
        else:
            rows[i] = [c * v for v in rows[i]]


def _apply_2x2_rows(s, t, m11, m12, m21, m22, *mats: list[list[Elem]]):
    """rows[s], rows[t] <- (m11*rows[s] + m12*rows[t],
                            m21*rows[s] + m22*rows[t]) in each working
    matrix; a det-1 block, so a product of type I/II operations."""
    for rows in mats:
        rs, rt = rows[s - 1], rows[t - 1]
        rows[s - 1] = [m11 * a + m12 * b for a, b in zip(rs, rt)]
        rows[t - 1] = [m21 * a + m22 * b for a, b in zip(rs, rt)]


def apply_op(a: Matrix, op: ElemOp) -> Matrix:
    bound = a.m if op.axis == "row" else a.n
    if not 1 <= op.i <= bound or (op.kind != "scale" and not 1 <= op.j <= bound):
        raise IndexOutOfRange(f"op touches index beyond {bound}")
    if op.coeff is not None and op.coeff.ring is not a.ring:
        raise RingMismatch("op coefficient ring mismatch")
    if op.kind == "scale" and not op.coeff.is_unit():
        raise NotAUnit(f"scale coefficient {brief(op.coeff)} is not a unit")
    if op.axis == "row":
        rows = a.rows()
        _apply_rows(op, rows)
        return Matrix.from_rows(a.ring, rows)
    cols = [list(a.col(j)) for j in range(1, a.n + 1)]
    _apply_rows(op, cols)
    return Matrix.from_rows(a.ring, list(zip(*cols)))


def op_matrix(op: ElemOp, size: int, ring: Ring) -> Matrix:
    """R = op applied to the identity; apply_op(A, op) equals R @ A for row
    ops and A @ R for column ops."""
    return apply_op(Matrix.identity(ring, size), op)


def _gcd_combine(work, q, j: int, s: int, others: Sequence[int]):
    """Fold column j of each row in `others` into row s by det-1 gcd
    blocks (a swap when the pivot is zero), applied to work and q alike."""
    for t in others:
        pivot = work[s - 1][j - 1]
        other = work[t - 1][j - 1]
        if other.is_zero():
            continue
        if pivot.is_zero():
            _apply_rows(row_swap(s, t), work, q)
            continue
        d, x, y = egcd(pivot, other)
        _apply_2x2_rows(s, t, x, y, -other.exact_div(d), pivot.exact_div(d), work, q)


def clear_column(
    a: Matrix, j: int, rows_in: Sequence[int], s: int
) -> tuple[Matrix, Matrix]:
    """Drive column j to (0,...,gcd,...,0) on the listed rows, the gcd at
    row s, touching no other rows.  Returns (Q, A') with A' = Q A and Q a
    unimodular product of type I/II operations."""
    if not 1 <= j <= a.n:
        raise IndexOutOfRange(f"column {j} outside 1..{a.n}")
    listed = list(rows_in)
    if s not in listed:
        raise IndexOutOfRange(f"chosen row {s} not among listed rows")
    if any(not 1 <= i <= a.m for i in listed):
        raise IndexOutOfRange("listed row outside matrix")
    if all(a.entry(i, j).is_zero() for i in listed):
        raise AllZeroColumn(f"no nonzero entry among rows {listed} of column {j}")
    work = a.rows()
    q = Matrix.identity(a.ring, a.m).rows()
    _gcd_combine(work, q, j, s, [t for t in listed if t != s])
    return Matrix.from_rows(a.ring, q), Matrix.from_rows(a.ring, work)


@dataclass(frozen=True)
class HermiteResult:
    q: Matrix
    h: Matrix
    primary_cols: tuple[int, ...]
    rank: int


def _echelon(work, q) -> list[int]:
    """Echelon phase on work and q in place, type I/II ops only; returns
    the primary columns."""
    m, n = len(work), len(work[0]) if work else 0
    primary = []
    pivot_row = 1
    for j in range(1, n + 1):
        if pivot_row > m:
            break
        hot = [i for i in range(pivot_row, m + 1)
               if not work[i - 1][j - 1].is_zero()]
        if not hot:
            continue
        s = hot[0]
        _gcd_combine(work, q, j, s, hot[1:])
        if s != pivot_row:
            _apply_rows(row_swap(s, pivot_row), work, q)
        primary.append(j)
        pivot_row += 1
    return primary


def _canonicalize(work, q) -> list[int]:
    """Echelon, then one pass over the pivots left to right: scale the
    pivot row to its canonical associate and reduce the entries above the
    pivot to residues by the quotient of one divmod.  Acts on work and q
    in place; returns the primary columns."""
    primary = _echelon(work, q)
    for t, j in enumerate(primary, start=1):
        u, pivot = canonical_associate(work[t - 1][j - 1])
        if not u.is_one():
            _apply_rows(row_scale(t, u), work, q)
        for i in range(1, t):
            c, _ = divmod(work[i - 1][j - 1], pivot)
            if not c.is_zero():
                _apply_rows(row_addmul(i, -c, t), work, q)
    return primary


def _result(ring: Ring, work, q, primary: list[int]) -> HermiteResult:
    return HermiteResult(Matrix.from_rows(ring, q), Matrix.from_rows(ring, work),
                         tuple(primary), len(primary))


def hermite_form(a: Matrix) -> HermiteResult:
    """A row echelon (Hermite) form QA = H without the canonical
    normalization phases."""
    work, q = a.rows(), Matrix.identity(a.ring, a.m).rows()
    return _result(a.ring, work, q, _echelon(work, q))


def hermite_canonical(a: Matrix) -> HermiteResult:
    """The Hermite canonical form: primary entries in the associates SDR,
    entries above each primary entry reduced to the residues SDR."""
    work, q = a.rows(), Matrix.identity(a.ring, a.m).rows()
    return _result(a.ring, work, q, _canonicalize(work, q))


def column_hermite_canonical(a: Matrix) -> tuple[Matrix, Matrix]:
    """Column dual via transposition: returns (Q, H) with A Q = H in
    column canonical shape."""
    res = hermite_canonical(a.transpose())
    return res.q.transpose(), res.h.transpose()


def is_hermite_canonical(h: Matrix) -> Optional[tuple[int, tuple[int, ...]]]:
    """Total shape-and-SDR predicate; (rank, primary_cols) on acceptance,
    None on rejection."""
    primaries = []
    seen_zero_row = False
    for i in range(1, h.m + 1):
        row = h.row(i)
        j = next((k + 1 for k, v in enumerate(row) if not v.is_zero()), None)
        if j is None:
            seen_zero_row = True
            continue
        if seen_zero_row:
            return None  # nonzero row after a zero row
        if primaries and j <= primaries[-1]:
            return None
        primaries.append(j)
    for t, j in enumerate(primaries, start=1):
        pivot = h.entry(t, j)
        if canonical_associate(pivot)[1] != pivot:
            return None
        for i in range(1, t):
            v = h.entry(i, j)
            if canonical_residue(v, pivot) != v:
                return None
    return len(primaries), tuple(primaries)


def solve(
    a: Matrix, y: Matrix
) -> Optional[tuple[Matrix, list[Matrix]]]:
    """Solve A x = y exactly: (particular, null-space basis), or None when
    inconsistent.  Z systems are solved over Q."""
    if y.m != a.m or y.n != 1:
        raise ShapeMismatch(f"right side must be {a.m}x1")
    a._check_ring(y)
    if a.ring is Ring.Z:
        a, y = lift(a, Ring.Q), lift(y, Ring.Q)
    if a.ring is not Ring.Q:
        raise UnsupportedRing("solve works over Q (Z is lifted); Q(x) is not modeled")
    res = hermite_canonical(a)
    hy = res.q @ y
    for i in range(res.rank + 1, a.m + 1):
        if not hy.entry(i, 1).is_zero():
            return None
    zero, one = Elem.zero(a.ring), Elem.one(a.ring)
    xs = [zero] * a.n
    for t, j in enumerate(res.primary_cols, start=1):
        xs[j - 1] = hy.entry(t, 1)  # canonical field pivots are 1
    particular = Matrix.from_rows(a.ring, [[v] for v in xs])
    basis = []
    for j_free in range(1, a.n + 1):
        if j_free in res.primary_cols:
            continue
        vec = [zero] * a.n
        vec[j_free - 1] = one
        for t, j in enumerate(res.primary_cols, start=1):
            vec[j - 1] = -res.h.entry(t, j_free)
        basis.append(Matrix.from_rows(a.ring, [[v] for v in vec]))
    return particular, basis


def decompose_unit(u: Matrix) -> list[ElemOp]:
    """Write a unit matrix as a sequence of elementary row operations:
    applying them to the identity in order reproduces U exactly.

    Reduces U to I with recorded ops, then inverts and reverses the word.
    """
    if not u.is_square():
        raise NotAUnit("only square matrices can be units")
    if not determinant.det(u).is_unit():
        raise NotAUnit("determinant is not a unit")
    n = u.m
    work = u.rows()
    word: list[ElemOp] = []

    def apply(op: ElemOp):
        _apply_rows(op, work)
        word.append(op)

    for j in range(1, n + 1):
        while True:
            hot = [i for i in range(j, n + 1) if not work[i - 1][j - 1].is_zero()]
            if len(hot) <= 1:
                break
            hot.sort(key=lambda i: valuation(work[i - 1][j - 1]))
            t = hot[0]
            for i in hot[1:]:
                q, _ = divmod(work[i - 1][j - 1], work[t - 1][j - 1])
                if not q.is_zero():
                    apply(row_addmul(i, -q, t))
        t = next(i for i in range(j, n + 1) if not work[i - 1][j - 1].is_zero())
        if t != j:
            apply(row_swap(j, t))
    for j in range(1, n + 1):
        d = work[j - 1][j - 1]
        if not d.is_one():
            apply(row_scale(j, d.unit_inverse()))
    for j in range(2, n + 1):
        for i in range(1, j):
            c = work[i - 1][j - 1]
            if not c.is_zero():
                apply(row_addmul(i, -c, j))
    return [op.inverted() for op in reversed(word)]


def stabilizer_shape(p: Matrix, r: int) -> bool:
    """True iff P = [[I_r, arbitrary], [0, unit block]]."""
    if not p.is_square() or not 0 <= r <= p.m:
        return False
    n = p.m
    ident = Matrix.identity(p.ring, n)
    for i in range(1, n + 1):
        for j in range(1, r + 1):
            if i <= r:
                if p.entry(i, j) != ident.entry(i, j):
                    return False
            elif not p.entry(i, j).is_zero():
                return False
    if r == n:
        return True
    trailing = Matrix.from_rows(
        p.ring,
        [[p.entry(i, j) for j in range(r + 1, n + 1)] for i in range(r + 1, n + 1)],
    )
    return determinant.det(trailing).is_unit()
