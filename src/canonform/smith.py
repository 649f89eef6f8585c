"""Two-sided reduction to diagonal and Smith canonical form, with
unimodular witnesses verified by replay on every call.

P and Q come only from row operations on the rows of P and of Q^T in
place: the alternation `_alternate` runs `hermite._canonicalize` on them,
each 2x2 chain step of `_chain` `hermite._apply_2x2_rows`.  No transform
is multiplied out.  Both act on raw rows the caller supplies, so
`_smith_rows`, the reduction without a replay, serves `smith` with the
rows of P and Q^T from the identity and `similarity._char_smith` with
one of them as empty rows; `diagonalize`, public, wraps `_alternate`
alone.  The working rows hold raw values (see domain); only the chain's
O(n) diagonal entries are Elems, tested for divisibility on their raw
values.  `smith_2x2` computes on the raw values of its two entries
through `domain.raw_egcd` and the raw tables, checks that both quotients
by the gcd are exact and replays its four entries from P2's and Q2's.
`smith` replays P A Q = D on raw rows by `matrix.raw_multiply` over Z
and Q; over Q[x] `_replay_qx` clears P's rows, A and Q's columns to
integer polynomials, packs each entry once at x = 2^k (domain.raw_pack)
and compares integer products, never unpacking.  It returns P, Q and D
as Matrices of raw values, whose Elems are built when a caller reads
them.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .domain import (RAW_EUCLID, RAW_OPS, RAW_SIZE, Elem, Ring, _mk, brief, largest_raw,
                     raw_clear_polys, raw_egcd, raw_pack, raw_pack_width)
from .errors import CertificateFailed, RingMismatch, ZeroArgument
from .matrix import Matrix, raw_multiply
from .hermite import _apply_2x2_rows, _canonicalize

_ALTERNATION_CAP = 200


@dataclass(frozen=True)
class SmithResult:
    p: Matrix
    q: Matrix
    d: Matrix
    diag: tuple[Elem, ...]
    rank: int


def _is_diagonal(rows, zero) -> bool:
    return all(v == zero for i, row in enumerate(rows)
               for j, v in enumerate(row) if i != j)


def _alternate(ring, d, p, qt):
    """The alternation of `diagonalize` on raw rows: returns D's rows, once
    diagonal, for the rows d of A (read, not changed), updating the rows p
    of P and qt of Q^T in place.  A caller that needs no P passes it as m
    empty rows."""
    zero = RAW_OPS[ring][2]
    for _ in range(_ALTERNATION_CAP):
        dt = [list(col) for col in zip(*d)]
        _canonicalize(ring, dt, qt)
        d = [list(row) for row in zip(*dt)]
        if _is_diagonal(d, zero):
            return d
        _canonicalize(ring, d, p)
        if _is_diagonal(d, zero):
            return d
    raise CertificateFailed(
        f"diagonalize found no diagonal form within {_ALTERNATION_CAP} passes; "
        f"the largest working entry has {largest_raw(ring, d)}")


def diagonalize(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Alternate column and row Hermite canonicalization until the matrix
    is diagonal: P A Q = D with no divisibility requirement.

    One column pass followed by one row pass is usually enough, but not
    always (a row pass can reintroduce above-diagonal entries), so the
    pair is iterated to a fixed point.  A canonical pass that ends
    diagonal has, by its echelon shape, the nonzero entries packed into
    the leading slots and the pivots canonical.

    D, P and Q^T are lists of raw rows updated in place: a column pass
    canonicalizes D^T along with Q^T, a row pass D along with P.
    """
    ring = a.ring
    p, qt = Matrix.identity(ring, a.m).raw_rows(), Matrix.identity(ring, a.n).raw_rows()
    d = _alternate(ring, a.raw_rows(), p, qt)
    return (Matrix.from_raw(ring, p), Matrix.from_raw(ring, qt).transpose(),
            Matrix.from_raw(ring, d))


def smith_2x2(d1: Elem, d2: Elem) -> tuple[Matrix, Matrix, Elem, Elem]:
    """Smith form of diag(d1, d2): returns (P2, Q2, delta, lam) with
    P2 diag(d1,d2) Q2 = diag(gcd, lcm), both canonical."""
    if d1.is_zero() or d2.is_zero():
        raise ZeroArgument("smith_2x2 needs nonzero diagonal entries")
    if d2.ring is not d1.ring:
        raise RingMismatch(f"{d1.ring} vs {d2.ring}")
    ring, x1, x2 = d1.ring, d1.raw, d2.raw
    (add, mul, zero), (divmod_, neg, associate) = RAW_OPS[ring], RAW_EUCLID[ring]
    one = Elem.one(ring).raw
    delta, s, t = raw_egcd(ring, x1, x2)
    (e1, r1), (e2, r2) = divmod_(x1, delta), divmod_(x2, delta)
    # R_[2]+c[1], c = -t e2, folded into [[1,1],[0,1]] clears the td2 left
    # behind below; the second row is then scaled by the unit u making lcm canonical
    c = neg(mul(t, e2))
    u, lam = associate(mul(x1, e2))
    p = (one, one, mul(c, u), mul(add(one, c), u))
    q = (s, neg(e2), t, e1)
    # entry (i, j) of P2 diag(d1, d2) Q2; e1 and e2 must be exact quotients
    if r1 != zero or r2 != zero or [
            add(mul(mul(p[i], x1), q[j]), mul(mul(p[i + 1], x2), q[j + 2]))
            for i in (0, 2) for j in (0, 1)] != [delta, zero, zero, lam]:
        raise CertificateFailed(
            f"smith_2x2 certificate failed on ({brief(d1)}, {brief(d2)})")
    return (Matrix.from_raw(ring, (p[:2], p[2:])), Matrix.from_raw(ring, (q[:2], q[2:])),
            _mk(ring, delta), _mk(ring, lam))


def _chain_pass(pwork, qtwork, diag, start):
    """Make diag[start] divide every later entry: each 2x2 step acts on
    rows (start, other) of P and of Q transposed.  A unit lead divides
    them all, so the pass ends there."""
    ring = diag[start].ring
    ops, divmod_, size = RAW_OPS[ring], RAW_EUCLID[ring][0], RAW_SIZE[ring]
    for other in range(start + 1, len(diag)):
        lead, cur = diag[start], diag[other]
        if lead.is_unit():
            return
        if divmod_(cur.raw, lead.raw)[1] == ops[2]:
            continue
        p2, q2, delta, lam = smith_2x2(lead, cur)
        # loop variant: the leading slot, by RAW_SIZE, strictly decreases
        if not size(delta.raw) < size(lead.raw):
            raise CertificateFailed(
                f"chain pass variant broken: {brief(delta)} does not shrink "
                f"{brief(lead)}")
        (p11, p12), (p21, p22) = p2.raw_rows()
        (q11, q12), (q21, q22) = q2.raw_rows()
        _apply_2x2_rows(ops, start + 1, other + 1, p11, p12, p21, p22, pwork)
        _apply_2x2_rows(ops, start + 1, other + 1, q11, q21, q12, q22, qtwork)
        diag[start], diag[other] = delta, lam


def _chain(ring, d, p, qt) -> list[Elem]:
    """The invariant factors of the diagonal rows d, by chain passes that
    update the rows p of P and qt of Q^T in place: P has one row per row
    of d (empty when the caller needs no P), Q^T one per column."""
    zero = RAW_OPS[ring][2]
    diag = [_mk(ring, d[i][i]) for i in range(min(len(p), len(qt))) if d[i][i] != zero]
    # diag starts canonical (the pivots of the alternation's last pass) and
    # stays so: each chain step writes smith_2x2's canonical delta and lam
    for start in range(len(diag) - 1):
        _chain_pass(p, qt, diag, start)
    return diag


def _smith_rows(ring, rows, p, qt) -> list[Elem]:
    """The reduction of `smith` without its replay, on raw rows: the
    alternation, then the chain.  Returns the invariant factors and
    updates p and qt as `_chain` does."""
    return _chain(ring, _alternate(ring, rows, p, qt), p, qt)


def _check_chain(diag) -> None:
    """Raise CertificateFailed unless each Elem of diag divides the next."""
    for d, e in zip(diag, diag[1:]):
        if RAW_EUCLID[d.ring][0](e.raw, d.raw)[1] != RAW_OPS[d.ring][2]:
            raise CertificateFailed(
                f"divisibility chain broken: {brief(d)} does not divide {brief(e)}")


def _norm(row) -> int:
    """The sum of |c| over every coefficient c of a row of integer coefficient lists."""
    return sum(map(abs, chain.from_iterable(row)))


def _replay_qx(p, a, qt, d) -> bool:
    """P A Q == D for the raw Q[x] rows p of P, a of A, qt of Q^T and d of
    D, on integers.  P' = diag(p_i) P, A' = alpha A and Q' = Q diag(q_j)
    clear every denominator, and P' A' Q' == D' = alpha diag(p_i) D
    diag(q_j) is compared at x = 2^k, with 2^(k-1) above every
    coefficient packed and of both sides, where integer polynomials are
    equal exactly when their values are.  A non-integral D' is unequal."""
    (pc, pd), (qc, qd) = raw_clear_polys(p), raw_clear_polys(qt)
    (ac,), (alpha,) = raw_clear_polys([[v for row in a for v in row]])
    dc = []
    for row, pi in zip(d, pd):
        dc.append([])
        for (nums, den), qj in zip(row, qd):
            if nums:
                s, r = divmod(alpha * pi * qj, den)
                if r:
                    return False
                nums = [c * s for c in nums]
            dc[-1].append(nums)
    pn, an, qn = max(map(_norm, pc)), max(_norm((c,)) for c in ac), max(map(_norm, qc))
    bound = max(pn * an * qn, pn, an, qn, max(map(_norm, dc)))
    k, n = raw_pack_width(bound), len(a[0])
    (ap,) = raw_pack([ac], k)
    pa = raw_multiply(Ring.Z, raw_pack(pc, k), [ap[i:i + n] for i in range(0, len(ap), n)])
    return raw_multiply(Ring.Z, pa, list(zip(*raw_pack(qc, k)))) == raw_pack(dc, k)


def smith(a: Matrix) -> SmithResult:
    """Smith canonical form P A Q = D: a full divisibility chain of
    canonical associates; the witness product is replayed exactly."""
    ring, zero = a.ring, RAW_OPS[a.ring][2]
    arows = a.raw_rows()
    pwork, qtwork = Matrix.identity(ring, a.m).raw_rows(), Matrix.identity(ring, a.n).raw_rows()
    diag = _smith_rows(ring, arows, pwork, qtwork)
    r = len(diag)
    qwork = [list(col) for col in zip(*qtwork)]
    dwork = [[diag[i].raw if i == j and i < r else zero for j in range(a.n)]
             for i in range(a.m)]
    if not (_replay_qx(pwork, arows, qtwork, dwork) if ring is Ring.QX else
            raw_multiply(ring, raw_multiply(ring, pwork, arows), qwork) == dwork):
        raise CertificateFailed("Smith certificate P A Q = D failed")
    _check_chain(diag)
    return SmithResult(Matrix.from_raw(ring, pwork), Matrix.from_raw(ring, qwork),
                       Matrix.from_raw(ring, dwork), tuple(diag), r)
