"""Dense matrices over one scalar ring, with the submatrix-selection
calculus, direct sums, and the text file format.

Indices in the public API are 1-based throughout.  A Matrix is a frozen
dataclass of its ring, shape and one flat row-major tuple of raw values
(see domain), so ==, hash, pickling and copying are the generated ones
(a pickle or copy leaves out the cached Elems of `entries`);
arithmetic, transpose, submatrices, direct sums, `lift` and the text
format work on the raw tuple, and the Elems of `entries` are built on
the first read.  `from_raw` stores rows of raw values as they are and
`raw_rows` returns fresh lists of them, which the elimination kernels
work on, as does `raw_multiply`, the one product loop, which `multiply`
(the `@` of Matrix) wraps.  Over Q it clears each row's denominator of
the left factor and each column's of the right one (domain.raw_clear_rows),
multiplies the ints and normalizes each entry once.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

from . import domain
from .domain import (RAW_EUCLID, RAW_OPS, Elem, Ring, _mk, brief, coerce, format_raw,
                     parse_raw, raw_clear_rows, raw_coerce, raw_ratio)
from .errors import (
    BadIndexSet,
    EmptyResult,
    IndexOutOfRange,
    ParseError,
    RingMismatch,
    ShapeMismatch,
)


@dataclass(frozen=True, init=False, repr=False)
class Matrix:
    """An m x n matrix over one ring, immutable: setting or deleting an
    attribute raises FrozenInstanceError.

    `Matrix(ring, m, n, entries)` takes the row-major Elems of that ring
    (another value raises RingMismatch) and keeps them.  The state is the
    flat row-major tuple of their raw values; `entries`, `entry`, `row`
    and `col` build the Elems of a matrix made from raw values on the
    first read and keep them.
    """

    ring: Ring
    m: int
    n: int
    _raw: tuple

    def __init__(self, ring: Ring, m: int, n: int, entries: Sequence[Elem]):
        entries = tuple(entries)
        raw = tuple([e.raw for e in entries if e.__class__ is Elem and e.ring is ring])
        if len(raw) != len(entries):
            bad = next(e for e in entries if e.__class__ is not Elem or e.ring is not ring)
            raise RingMismatch(f"entry {brief(bad)} is not an Elem of {ring}")
        _init(self, ring, m, n, raw)
        self.__dict__["entries"] = entries

    def __repr__(self) -> str:
        return (f"Matrix(ring={self.ring!r}, m={self.m!r}, n={self.n!r}, "
                f"entries={self.entries!r})")

    def __getstate__(self) -> dict:
        """The fields alone: a pickle or copy leaves out the cached Elems."""
        return {k: v for k, v in self.__dict__.items() if k != "entries"}

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_rows(ring: Ring, rows: Sequence[Sequence]) -> "Matrix":
        m = len(rows)
        if m == 0 or len(rows[0]) == 0:
            raise ShapeMismatch("matrix needs at least one row and column")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ShapeMismatch("ragged rows")
        return _matrix(ring, m, n, tuple([raw_coerce(ring, v) for row in rows for v in row]))

    @staticmethod
    def from_raw(ring: Ring, rows: Sequence[Sequence]) -> "Matrix":
        """The matrix of rows of raw values already in ring's form."""
        return _matrix(ring, len(rows), len(rows[0]) if rows else 0,
                       tuple(chain.from_iterable(rows)))

    @staticmethod
    def identity(ring: Ring, size: int) -> "Matrix":
        raw, one = [RAW_OPS[ring][2]] * (size * size), Elem.one(ring).raw
        for k in range(size):
            raw[k * (size + 1)] = one
        return _matrix(ring, size, size, tuple(raw))

    @staticmethod
    def zeros(ring: Ring, m: int, n: int) -> "Matrix":
        return _matrix(ring, m, n, (RAW_OPS[ring][2],) * (m * n))

    # -- access ---------------------------------------------------------------

    @cached_property
    def entries(self) -> tuple[Elem, ...]:
        ring = self.ring
        return tuple([_mk(ring, v) for v in self._raw])

    def entry(self, i: int, j: int) -> Elem:
        if not (1 <= i <= self.m and 1 <= j <= self.n):
            raise IndexOutOfRange(f"({i},{j}) outside {self.m}x{self.n}")
        return self.entries[(i - 1) * self.n + (j - 1)]

    def row(self, i: int) -> tuple[Elem, ...]:
        return self.entries[(i - 1) * self.n: i * self.n]

    def col(self, j: int) -> tuple[Elem, ...]:
        return self.entries[j - 1:: self.n]

    def rows(self) -> list[list[Elem]]:
        return [list(self.row(i)) for i in range(1, self.m + 1)]

    def raw_rows(self) -> list[list]:
        """Fresh lists of the rows' raw values, free to update in place."""
        raw, n = self._raw, self.n
        return [list(raw[k:k + n]) for k in range(0, len(raw), n)]

    def is_square(self) -> bool:
        return self.m == self.n

    def is_zero(self) -> bool:
        zero = RAW_OPS[self.ring][2]
        return all(v == zero for v in self._raw)

    # -- arithmetic -----------------------------------------------------------

    def _check_ring(self, other: "Matrix"):
        if self.ring is not other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_ring(other)
        if (self.m, self.n) != (other.m, other.n):
            raise ShapeMismatch("addition needs equal shapes")
        add = RAW_OPS[self.ring][0]
        return _matrix(self.ring, self.m, self.n, tuple(map(add, self._raw, other._raw)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        neg = RAW_EUCLID[self.ring][1]
        return _matrix(self.ring, self.m, self.n, tuple(map(neg, self._raw)))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return multiply(self, other)

    def scale(self, c: Elem) -> "Matrix":
        c, mul = coerce(self.ring, c).raw, RAW_OPS[self.ring][1]
        return _matrix(self.ring, self.m, self.n, tuple([mul(c, v) for v in self._raw]))

    def transpose(self) -> "Matrix":
        raw, n = self._raw, self.n
        return _matrix(self.ring, n, self.m,
                       tuple(chain.from_iterable(raw[j::n] for j in range(n))))

    def power(self, e: int) -> "Matrix":
        if not self.is_square():
            raise ShapeMismatch("powers need a square matrix")
        return domain.power(self, e, Matrix.identity(self.ring, self.m), multiply)

    def __str__(self) -> str:
        return format_matrix(self)


def _init(a: Matrix, ring: Ring, m: int, n: int, raw: tuple):
    if m < 1 or n < 1:
        raise ShapeMismatch(f"empty {m}x{n} matrix rejected")
    if len(raw) != m * n:
        raise ShapeMismatch("entry count does not match shape")
    a.__dict__.update(ring=ring, m=m, n=n, _raw=raw)


def _matrix(ring: Ring, m: int, n: int, raw: tuple) -> Matrix:
    """The m x n Matrix of a flat row-major tuple of raw values already in
    ring's form; its Elems are built when first read."""
    a = object.__new__(Matrix)
    _init(a, ring, m, n, raw)
    return a


def multiply(a: Matrix, b: Matrix) -> Matrix:
    """Exact product: D(i,j) = sum_k A(i,k) B(k,j)."""
    a._check_ring(b)
    return Matrix.from_raw(a.ring, raw_multiply(a.ring, a.raw_rows(), b.raw_rows()))


def raw_multiply(ring: Ring, arows: Sequence, brows: Sequence) -> list:
    """The product of two lists of raw rows over ring, as raw rows.  Over Q
    row i of A is ints over da_i and column j of B ints over db_j, so entry
    (i, j) is their integer dot product over da_i db_j, normalized once."""
    if len(arows[0]) != len(brows):
        raise ShapeMismatch(f"{len(arows)}x{len(arows[0])} times "
                            f"{len(brows)}x{len(brows[0])}")
    if ring is Ring.Q:
        zmul = RAW_OPS[Ring.Z][1]
        (aints, adens), (bcols, bdens) = raw_clear_rows(arows), raw_clear_rows(zip(*brows))
        return [[raw_ratio(sum(map(zmul, arow, bcol)), da * db)
                 for bcol, db in zip(bcols, bdens)] for arow, da in zip(aints, adens)]
    add, mul, zero = RAW_OPS[ring]
    out = []
    for arow in arows:
        acc = [zero] * len(brows[0])
        for aik, brow in zip(arow, brows):
            if aik == zero:
                continue
            for j, bkj in enumerate(brow):
                if bkj != zero:
                    acc[j] = add(acc[j], mul(aik, bkj))
        out.append(acc)
    return out


def submatrix(x: Matrix, f: Sequence[int], g: Sequence[int]) -> Matrix:
    """Y(p,q) = X(f(p), g(q)); the selectors need not be injective or
    increasing."""
    if not f or not g:
        raise BadIndexSet("selectors must be nonempty")
    if any(not 1 <= i <= x.m for i in f) or any(not 1 <= j <= x.n for j in g):
        raise IndexOutOfRange("selector outside matrix bounds")
    raw, n = x._raw, x.n
    return _matrix(x.ring, len(f), len(g),
                   tuple([raw[(i - 1) * n + j - 1] for i in f for j in g]))


def submatrix_sets(
    x: Matrix, alpha: Iterable[int], beta: Iterable[int], mode: str = "keep-keep"
) -> Matrix:
    """Set-style selection X[α|β], X(α|β), X[α|β), X(α|β]: each axis either
    keeps the set or drops it (keeping the complement), in increasing order."""
    alpha, beta = sorted(set(alpha)), sorted(set(beta))
    if any(not 1 <= i <= x.m for i in alpha) or any(not 1 <= j <= x.n for j in beta):
        raise IndexOutOfRange("index set outside matrix bounds")
    rmode, _, cmode = mode.partition("-")
    if rmode not in ("keep", "drop") or cmode not in ("keep", "drop"):
        raise BadIndexSet(f"bad mode {mode!r}")
    rows = alpha if rmode == "keep" else [i for i in range(1, x.m + 1) if i not in alpha]
    cols = beta if cmode == "keep" else [j for j in range(1, x.n + 1) if j not in beta]
    if not rows or not cols:
        raise EmptyResult("selection leaves no rows or columns")
    return submatrix(x, rows, cols)


def direct_sum(b: Matrix, c: Matrix) -> Matrix:
    """Block diagonal sum of two square matrices."""
    return general_direct_sum(b, c, range(1, b.m + 1), range(1, b.m + 1))


def general_direct_sum(
    b: Matrix, c: Matrix, xset: Iterable[int], yset: Iterable[int]
) -> Matrix:
    """A with A[X|Y] = B, A(X|Y) = C and zero blocks elsewhere."""
    b._check_ring(c)
    if not b.is_square() or not c.is_square():
        raise ShapeMismatch("direct sum needs square summands")
    r, s = b.m, c.m
    size = r + s
    xs, ys = sorted(set(xset)), sorted(set(yset))
    if len(xs) != r or len(ys) != r:
        raise BadIndexSet(f"index sets must have size {r}")
    if any(not 1 <= i <= size for i in xs) or any(not 1 <= j <= size for j in ys):
        raise BadIndexSet(f"index sets must lie in 1..{size}")
    xcomp = [i for i in range(1, size + 1) if i not in xs]
    ycomp = [j for j in range(1, size + 1) if j not in ys]
    grid = Matrix.zeros(b.ring, size, size).raw_rows()
    for block, rows, cols in ((b, xs, ys), (c, xcomp, ycomp)):
        for i, brow in zip(rows, block.raw_rows()):
            for j, v in zip(cols, brow):
                grid[i - 1][j - 1] = v
    return Matrix.from_raw(b.ring, grid)


def lift(a: Matrix, ring: Ring) -> Matrix:
    """Embed a matrix into a larger ring (Z -> Q, Z/Q -> Q[x])."""
    if a.ring is ring:
        return a
    to_raw = domain.RAW_LIFT.get((a.ring, ring))
    if to_raw is None:
        raise RingMismatch(f"cannot lift {a.ring} into {ring}")
    return _matrix(ring, a.m, a.n, tuple(map(to_raw, a._raw)))


# ---------------------------------------------------------------------------
# text file format

_RING_TOKENS = {r.value: r for r in Ring}
# Coefficient slots (degree + 1 each) all Q[x] entries of one file may
# hold, since parsed polynomials are dense: 2**22 slots take about 32 MB.
_MAX_PARSE_SLOTS = 2**22


def format_matrix(a: Matrix) -> str:
    lines = [f"ring {a.ring.value}", f"rows {a.m}", f"cols {a.n}"]
    ring = a.ring
    for row in a.raw_rows():
        lines.append(" ".join([format_raw(ring, v) for v in row]))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> Matrix:
    """Parse the matrix file format; inverse of format_matrix bit-exactly."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 3:
        raise ParseError("matrix file needs ring/rows/cols header")

    def header(idx: int, key: str) -> str:
        parts = lines[idx].split()
        if len(parts) != 2 or parts[0] != key:
            raise ParseError(f"line {idx + 1}: expected '{key} <value>'")
        return parts[1]

    ring_tok = header(0, "ring")
    if ring_tok not in _RING_TOKENS:
        raise ParseError(f"line 1: unknown ring {ring_tok!r}")
    ring = _RING_TOKENS[ring_tok]
    try:
        m, n = int(header(1, "rows")), int(header(2, "cols"))
    except ValueError:
        raise ParseError("rows/cols must be integers") from None
    if m < 1 or n < 1:
        raise ParseError(f"matrix must be at least 1x1, got {m}x{n}")
    if len(lines) != 3 + m:
        raise ParseError(f"expected {m} data lines, found {len(lines) - 3}")
    rows, slots = [], 0

    def read_qx(tok: str, ring: Ring) -> tuple:
        nonlocal slots
        v = parse_raw(tok, ring)
        slots += len(v[0])
        if slots > _MAX_PARSE_SLOTS:
            raise ParseError(f"Q[x] entries exceed the parser limit of {_MAX_PARSE_SLOTS} "
                             "coefficient slots")
        return v

    read = read_qx if ring is Ring.QX else parse_raw
    for r in range(m):
        toks = lines[3 + r].split()
        if len(toks) != n:
            raise ParseError(f"line {4 + r}: expected {n} scalars, found {len(toks)}")
        try:
            rows.append([read(t, ring) for t in toks])
        except ParseError as exc:
            raise ParseError(f"line {4 + r}: {exc}") from None
    return Matrix.from_raw(ring, rows)


def parse_matrix_file(path: str) -> Matrix:
    """parse_matrix of a UTF-8 file, with or without a byte order mark; an
    unreadable or undecodable file raises ParseError."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return parse_matrix(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def mat_z(rows: Sequence[Sequence]) -> Matrix:
    return Matrix.from_rows(Ring.Z, rows)


def mat_q(rows: Sequence[Sequence]) -> Matrix:
    return Matrix.from_rows(Ring.Q, rows)


def mat_qx(rows: Sequence[Sequence]) -> Matrix:
    return Matrix.from_rows(Ring.QX, rows)


def vector(ring: Ring, values: Sequence) -> Matrix:
    return Matrix.from_rows(ring, [[v] for v in values])
