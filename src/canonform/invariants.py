"""Determinantal divisors, invariant factors, elementary divisors (read by
`_prime_powers`, for similarity's `rcf` and `jordan` too), reconstruction,
and the matrix-equivalence decision.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import comb
from typing import Iterable, Sequence

from .determinant import _within_minor_budget, gcd_of_minors
from .domain import RAW_EUCLID, RAW_OPS, Elem, Ring, brief, factor, prime_sort_key
from .errors import (
    BadExponent,
    CertificateFailed,
    RankTooSmall,
    RingMismatch,
    ShapeMismatch,
)
from .matrix import Matrix
from .smith import smith


@dataclass(frozen=True)
class InvariantReport:
    rank: int
    det_divisors: tuple[Elem, ...]        # f_0 .. f_r
    invariant_factors: tuple[Elem, ...]   # q_1 .. q_r
    elementary_divisors: tuple[tuple[Elem, int], ...]  # (prime, exponent) multiset


def det_divisors_by_minors(a: Matrix) -> tuple[Elem, ...]:
    """Oracle f-sequence: f_k = canonical gcd of all k x k minors, up to
    the rank.  Guarded, since it enumerates every minor."""
    kmax = min(a.m, a.n)
    _within_minor_budget(comb(a.m + a.n, a.m) - 1)  # every minor, by Vandermonde
    out = [Elem.one(a.ring)]
    for k in range(1, kmax + 1):
        g = gcd_of_minors(a, k)
        if g.is_zero():
            break
        out.append(g)
    return tuple(out)


def invariant_report(a: Matrix) -> InvariantReport:
    """Rank, f-sequence, q-sequence and elementary divisors via the Smith
    form; factorization failures propagate."""
    res = smith(a)
    fs = [Elem.one(a.ring)]
    for d in res.diag:
        fs.append(fs[-1] * d)
    return InvariantReport(res.rank, tuple(fs), res.diag,
                           tuple(elementary_divisors(res.diag)))


def elementary_divisors(invariants: Sequence[Elem]) -> list[tuple[Elem, int]]:
    """The (prime, exponent) multiset of a divisibility chain, sorted by (prime
    key, exponent): units add nothing; a non-chain may raise CertificateFailed."""
    return [(p, e) for _, p, e in _prime_powers(invariants)]


def _prime_powers(chain: Sequence[Elem]) -> list[tuple[int, Elem, int]]:
    """(i, p, e) for each prime power p^e exactly dividing the nonunit q_i
    of a divisibility chain q_1 | ... | q_r, sorted by (prime key, e).  Only
    q_r is factored; `_multiplicity` reads the exponents of its primes in
    each q_i, and their powers must multiply back to q_i's canonical
    associate, so a q_i with a prime that q_r lacks raises CertificateFailed."""
    if not chain:
        return []
    ring = chain[-1].ring
    mul, associate, one = RAW_OPS[ring][1], RAW_EUCLID[ring][2], Elem.one(ring).raw
    primes, out = [p for p, _ in factor(chain[-1])[1]], []
    for i, q in enumerate(chain):
        if q.is_unit():
            continue
        powers = [(p, e) for p in primes if (e := _multiplicity(p, q))]
        if reduce(mul, [p.raw for p, e in powers for _ in range(e)], one) != associate(q.raw)[1]:
            raise CertificateFailed(
                f"the prime powers of the invariant factor {brief(q)} do not multiply back to it")
        out.extend((i, p, e) for p, e in powers)
    out.sort(key=lambda ipe: (prime_sort_key(ipe[1]), ipe[2]))
    return out


def _multiplicity(p: Elem, d: Elem) -> int:
    """The largest e with p^e | d, for p not a unit; 0 for d zero."""
    divmod_, zero, e = RAW_EUCLID[d.ring][0], RAW_OPS[d.ring][2], 0
    quot, rem = divmod_(d.raw, p.raw)
    while rem == zero and quot != zero:
        e, (quot, rem) = e + 1, divmod_(quot, p.raw)
    return e


def invariant_factors_from_elementary(
    eds: Iterable[tuple[Elem, int]], r: int, ring: Ring
) -> tuple[Elem, ...]:
    """Rebuild q_1 | ... | q_r from the elementary-divisor multiset: each
    prime's exponent column is zero-padded to length r and sorted weakly
    increasing, then multiplied across primes."""
    per_prime: dict[Elem, list[int]] = {}
    for p, e in eds:
        if p.ring is not ring:
            raise RingMismatch("elementary divisor ring mismatch")
        if e < 1:
            raise BadExponent("exponents must be positive")
        per_prime.setdefault(p, []).append(e)
    qs = [Elem.one(ring) for _ in range(r)]
    for p, exps in per_prime.items():
        if len(exps) > r:
            raise RankTooSmall(
                f"prime {brief(p)} occurs {len(exps)} times but rank is {r}"
            )
        exps = [0] * (r - len(exps)) + sorted(exps)
        for t, e in enumerate(exps):
            if e:
                qs[t] = qs[t] * p ** e
    return tuple(qs)


def elementary_divisor_values(eds: Sequence[tuple[Elem, int]]) -> list[Elem]:
    """The prime powers themselves, in display order."""
    return [p ** e for p, e in eds]


def equivalent(a: Matrix, b: Matrix) -> bool:
    """Two-sided equivalence: canonical Smith diagonals agree."""
    if (a.m, a.n) != (b.m, b.n):
        raise ShapeMismatch("equivalent needs equal shapes")
    a._check_ring(b)
    return smith(a).diag == smith(b).diag
