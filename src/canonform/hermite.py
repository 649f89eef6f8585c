"""Elementary row/column operations with accumulated unimodular
transforms; Hermite (row echelon) forms, canonical normalization,
exact linear solving, and unit-matrix decomposition.

All row operations run through two in-place kernels: `_row_op` (one
scaling or addmul) and `_apply_2x2_rows` (one det-1 block on two rows);
elimination swaps rows by a plain list swap.  A column operation is a
row operation on the transposed working list; the passes `_echelon` and
`_canonicalize` act in place on lists of rows of raw values (see
domain).  The elimination builds no Elem and no ElemOp: the kernels
compute through domain.RAW_OPS and every pivot decision is raw
(RAW_EUCLID's divmod and associate, and RAW_SIZE), the ring's functions
bound per pass.  `ElemOp` serves the public op API (`apply_op`,
`op_matrix`) and the word of `decompose_unit`.

`_gcd_combine` clears a column by Euclidean remainders on every ring:
the entry least by RAW_SIZE reduces each other row by the quotient of
one divmod (type II operations only, so no extended-gcd cofactors enter
the rows).  One call per column leaves a gcd up to a unit in the pivot
row; `_normalize`, the second pass of `_canonicalize`, makes it
canonical.  Both return the operations they applied, which
`decompose_unit` turns into its word.  `_apply_2x2_rows` serves the
Smith chain step.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import determinant
from .domain import (
    RAW_EUCLID,
    RAW_OPS,
    RAW_SIZE,
    Elem,
    Ring,
    _mk,
    brief,
    canonical_associate,
    canonical_residue,
)
from .errors import (
    AllZeroColumn,
    BadOperation,
    CertificateFailed,
    IndexOutOfRange,
    NotAUnit,
    RingMismatch,
    ShapeMismatch,
    UnsupportedRing,
)
from .matrix import Matrix, lift, submatrix


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


def _row_op(ops, i: int, c, j: int, *mats: list[list]):
    """rows[i] <- rows[i] + c*rows[j], or c*rows[i] when j is 0, in each
    working list of raw rows, for a raw c and the ring's RAW_OPS."""
    add, mul, _ = ops
    i -= 1
    for rows in mats:
        if j:
            rows[i] = [add(t, mul(c, s)) for t, s in zip(rows[i], rows[j - 1])]
        else:
            rows[i] = [mul(c, v) for v in rows[i]]


def _apply_2x2_rows(ops, s, t, m11, m12, m21, m22, *mats: list[list]):
    """rows[s], rows[t] <- (m11*rows[s] + m12*rows[t],
                            m21*rows[s] + m22*rows[t]) in each working
    list of raw rows, for raw m11..m22 of a det-1 block, so a product of
    type I/II operations, and the ring's RAW_OPS."""
    add, mul, _ = ops
    for rows in mats:
        rs, rt = rows[s - 1], rows[t - 1]
        rows[s - 1] = [add(mul(m11, a), mul(m12, b)) for a, b in zip(rs, rt)]
        rows[t - 1] = [add(mul(m21, a), mul(m22, b)) for a, b in zip(rs, rt)]


def apply_op(a: Matrix, op: ElemOp) -> Matrix:
    bound = a.m if op.axis == "row" else a.n
    if not 1 <= op.i <= bound or (op.kind != "scale" and not 1 <= op.j <= bound):
        raise IndexOutOfRange(f"op touches index beyond {bound}")
    if op.coeff is not None and op.coeff.ring is not a.ring:
        raise RingMismatch("op coefficient ring mismatch")
    if op.kind == "scale" and not op.coeff.is_unit():
        raise NotAUnit(f"scale coefficient {brief(op.coeff)} is not a unit")
    rows = (a if op.axis == "row" else a.transpose()).raw_rows()
    if op.kind == "swap":
        rows[op.i - 1], rows[op.j - 1] = rows[op.j - 1], rows[op.i - 1]
    else:
        _row_op(RAW_OPS[a.ring], op.i, op.coeff.raw, op.j if op.kind == "addmul" else 0, rows)
    out = Matrix.from_raw(a.ring, rows)
    return out if op.axis == "row" else out.transpose()


def op_matrix(op: ElemOp, size: int, ring: Ring) -> Matrix:
    """R = op applied to the identity; apply_op(A, op) equals R @ A for row
    ops and A @ R for column ops."""
    return apply_op(Matrix.identity(ring, size), op)


def _gcd_combine(ring: Ring, work, q, j: int, s: int, others: Sequence[int]) -> list[tuple]:
    """Leave a gcd (up to a unit) of column j over row s and `others` at
    row s and zeros at `others`, by type I/II operations on work and q
    alike; a column zero on all of them is left as it is.

    The live row whose entry is least by RAW_SIZE (the first among equals)
    reduces every other live row by the quotient of one divmod, a row
    staying live while its remainder is nonzero; the last live row is
    swapped into row s.  Each updated entry must equal the divmod's
    remainder, else CertificateFailed.  Returns the operations applied in
    order: (t, c, p) for row t += c*row p, c raw; (s, None, t) for the swap."""
    ops, (divmod_, neg, _), size = RAW_OPS[ring], RAW_EUCLID[ring], RAW_SIZE[ring]
    col, zero = j - 1, ops[2]
    applied = []
    live = [t for t in (s, *others) if work[t - 1][col] != zero]
    while len(live) > 1:
        p = min(live, key=lambda t: size(work[t - 1][col]))
        pivot = work[p - 1][col]
        for t in live:
            if t == p:
                continue
            c, r = divmod_(work[t - 1][col], pivot)
            c = neg(c)
            _row_op(ops, t, c, p, work, q)
            applied.append((t, c, p))
            if work[t - 1][col] != r:
                raise CertificateFailed(
                    f"row {t} holds {brief(_mk(ring, work[t - 1][col]))} in column "
                    f"{j}, not the remainder {brief(_mk(ring, r))} of its divmod")
        live = [t for t in live if work[t - 1][col] != zero]
    if live and live[0] != s:
        for rows in (work, q):
            rows[s - 1], rows[live[0] - 1] = rows[live[0] - 1], rows[s - 1]
        applied.append((s, None, live[0]))
    return applied


def clear_column(
    a: Matrix, j: int, rows_in: Sequence[int], s: int
) -> tuple[Matrix, Matrix]:
    """Drive column j to (0,...,gcd,...,0) on the listed rows, the gcd
    (up to a unit; not normalized) at row s, touching no other rows.
    Returns (Q, A') with A' = Q A and Q a unimodular product of type I/II
    operations."""
    if not 1 <= j <= a.n:
        raise IndexOutOfRange(f"column {j} outside 1..{a.n}")
    listed = list(rows_in)
    if s not in listed:
        raise IndexOutOfRange(f"chosen row {s} not among listed rows")
    if any(not 1 <= i <= a.m for i in listed):
        raise IndexOutOfRange("listed row outside matrix")
    work, q = a.raw_rows(), Matrix.identity(a.ring, a.m).raw_rows()
    if all(work[i - 1][j - 1] == RAW_OPS[a.ring][2] for i in listed):
        raise AllZeroColumn(f"no nonzero entry among rows {listed} of column {j}")
    _gcd_combine(a.ring, work, q, j, s, [t for t in listed if t != s])
    return Matrix.from_raw(a.ring, q), Matrix.from_raw(a.ring, work)


@dataclass(frozen=True)
class HermiteResult:
    q: Matrix
    h: Matrix
    primary_cols: tuple[int, ...]
    rank: int


def _echelon(ring: Ring, work, q) -> list[int]:
    """Echelon phase on work and q in place, type I/II ops only: one
    `_gcd_combine` per column lands its gcd in the pivot row t.  Returns
    the primary columns, those that leave row t nonzero."""
    zero = RAW_OPS[ring][2]
    m, n = len(work), len(work[0]) if work else 0
    primary = []
    for j in range(1, n + 1):
        t = len(primary) + 1
        if t > m:
            break
        _gcd_combine(ring, work, q, j, t, range(t + 1, m + 1))
        if work[t - 1][j - 1] != zero:
            primary.append(j)
    return primary


def _normalize(ring: Ring, work, q, primary) -> list[tuple]:
    """One pass over the pivots of an echelon form left to right: scale
    the pivot row to its canonical associate and reduce the entries above
    the pivot to residues by the quotient of one divmod.  Acts on work and
    q in place; returns the operations as `_gcd_combine` does, (t, u, 0)
    for row t *= u."""
    ops, (divmod_, neg, associate) = RAW_OPS[ring], RAW_EUCLID[ring]
    zero, one = ops[2], Elem.one(ring).raw
    applied = []
    for t, j in enumerate(primary, start=1):
        u, pivot = associate(work[t - 1][j - 1])
        if u != one:
            _row_op(ops, t, u, 0, work, q)
            applied.append((t, u, 0))
        for i in range(1, t):
            c = neg(divmod_(work[i - 1][j - 1], pivot)[0])
            if c != zero:
                _row_op(ops, i, c, t, work, q)
                applied.append((i, c, t))
    return applied


def _canonicalize(ring: Ring, work, q) -> list[int]:
    """`_echelon`, then `_normalize`, in place; returns the primary columns."""
    primary = _echelon(ring, work, q)
    _normalize(ring, work, q, primary)
    return primary


def _result(ring: Ring, work, q, primary: list[int]) -> HermiteResult:
    return HermiteResult(Matrix.from_raw(ring, q), Matrix.from_raw(ring, work),
                         tuple(primary), len(primary))


def hermite_form(a: Matrix) -> HermiteResult:
    """A row echelon (Hermite) form QA = H without the canonical
    normalization phases: each pivot is a gcd of its column up to a unit,
    not its canonical associate, and the entries above it are not
    reduced."""
    work, q = a.raw_rows(), Matrix.identity(a.ring, a.m).raw_rows()
    return _result(a.ring, work, q, _echelon(a.ring, work, q))


def hermite_canonical(a: Matrix) -> HermiteResult:
    """The Hermite canonical form: primary entries in the associates SDR,
    entries above each primary entry reduced to the residues SDR."""
    work, q = a.raw_rows(), Matrix.identity(a.ring, a.m).raw_rows()
    return _result(a.ring, work, q, _canonicalize(a.ring, work, q))


def column_hermite_canonical(a: Matrix) -> tuple[Matrix, Matrix]:
    """Column dual via transposition: returns (Q, H) with A Q = H in
    column canonical shape."""
    res = hermite_canonical(a.transpose())
    return res.q.transpose(), res.h.transpose()


def is_hermite_canonical(h: Matrix) -> Optional[tuple[int, tuple[int, ...]]]:
    """Total shape-and-SDR predicate; (rank, primary_cols) on acceptance,
    None on rejection."""
    # each row's leading column, n + 1 for a zero row: they must rise
    # strictly until the zero rows, which come last
    leads = [next((k for k, v in enumerate(h.row(i), 1) if not v.is_zero()), h.n + 1)
             for i in range(1, h.m + 1)]
    if any(x >= y and y <= h.n for x, y in zip(leads, leads[1:])):
        return None
    primaries = [j for j in leads if j <= h.n]
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
    inconsistent.  Z systems are solved over Q, where the canonical form
    of [A | y], reached with no transform, is its reduced echelon form."""
    if y.m != a.m or y.n != 1:
        raise ShapeMismatch(f"right side must be {a.m}x1")
    a._check_ring(y)
    if a.ring is Ring.Z:
        a, y = lift(a, Ring.Q), lift(y, Ring.Q)
    if a.ring is not Ring.Q:
        raise UnsupportedRing("solve works over Q (Z is lifted); Q(x) is not modeled")
    n, zero, one, neg = a.n, RAW_OPS[a.ring][2], Elem.one(a.ring).raw, RAW_EUCLID[a.ring][1]
    work = [row + yrow for row, yrow in zip(a.raw_rows(), y.raw_rows())]
    primary = _canonicalize(a.ring, work, [[]] * a.m)
    if n + 1 in primary:
        return None
    xs = [zero] * n
    for row, j in zip(work, primary):
        xs[j - 1] = row[n]
    basis = []
    for j_free in range(1, n + 1):
        if j_free in primary:
            continue
        vec = [zero] * n
        vec[j_free - 1] = one
        for row, j in zip(work, primary):
            vec[j - 1] = neg(row[j_free - 1])
        basis.append(Matrix.from_raw(a.ring, [[v] for v in vec]))
    return Matrix.from_raw(a.ring, [[v] for v in xs]), basis


def decompose_unit(u: Matrix) -> list[ElemOp]:
    """Write a unit matrix as a sequence of elementary row operations:
    applying them to the identity in order reproduces U exactly.

    Reduces U to I by one `_gcd_combine` per column and `_normalize`,
    and inverts and reverses the operations they return.
    """
    if not u.is_square():
        raise NotAUnit("only square matrices can be units")
    if not determinant.det(u).is_unit():
        raise NotAUnit("determinant is not a unit")
    n, ring = u.m, u.ring
    # U is a unit, so column j is nonzero below row j - 1; no transform is kept
    work, q, applied = u.raw_rows(), [[]] * n, []
    for j in range(1, n + 1):
        applied += _gcd_combine(ring, work, q, j, j, range(j + 1, n + 1))
    applied += _normalize(ring, work, q, range(1, n + 1))
    word = [row_swap(t, p) if c is None else
            row_addmul(t, _mk(ring, c), p) if p else row_scale(t, _mk(ring, c))
            for t, c, p in applied]
    return [op.inverted() for op in reversed(word)]


def stabilizer_shape(p: Matrix, r: int) -> bool:
    """True iff P = [[I_r, arbitrary], [0, unit block]]."""
    if not p.is_square() or not 0 <= r <= p.m:
        return False
    ident, rest = Matrix.identity(p.ring, p.m), range(r + 1, p.m + 1)
    if any(p.col(j) != ident.col(j) for j in range(1, r + 1)):
        return False
    return r == p.m or determinant.det(submatrix(p, rest, rest)).is_unit()
