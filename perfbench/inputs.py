"""Seeded input generators with planted answers, in plain Python.

Every input is built around a known answer: A = U D V from a planted Smith
diagonal, or A = U^-1 J U from a planted Jordan or companion structure,
with U and V products of elementary operations whose inverses are kept by
construction.  No canonform call happens here.

A workload is a fixed round template of (operation, shape) pairs; the seed
and the round number only choose the random contents, so every round of
every run does the same kinds of work on fresh inputs.

    python3 perfbench/inputs.py --workload z_invariants --seed 1 --rounds 20
        prints a digest of rounds 0..19, to confirm that two runs or two
        machines time the same inputs
    python3 perfbench/inputs.py --workload similarity --seed 1 --show 3
        prints round 3's inputs and planted answers as JSON
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
from fractions import Fraction

try:
    from . import plain
except ImportError:  # run as a script
    import plain

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
# Planted into every invariant_report input of z_invariants: trial division
# in domain.factor walks up to sqrt(p), so these set the workload's p90.
BIG_PRIME_RANGE = (4 * 10**9, 9 * 10**9)
QX_PRIMES = ((-1, 1), (1, 1), (-2, 1), (2, 1), (1, 0, 1), (-2, 0, 1), (1, 1, 1))
IRREDUCIBLE_QUADRATICS = ((1, 0, 1), (-2, 0, 1), (1, 1, 1), (3, 0, 1))
EIGENVALUES = (-2, -1, 0, 1, 2, 3)

# Round templates: (operation, rows, cols, rank deficiency).  The shapes put
# about as many cheap calls below the median as costly ones above it, so the
# median falls among calls of similar cost rather than in a gap.  Similarity
# slots are (operation, Jordan pattern, planted irreducible quadratics): the
# pattern lists (eigenvalue label, block size), and the seed picks distinct
# integer eigenvalues for the labels.  Fixing the shapes per slot keeps the
# cost of a round, and so the run-to-run spread, small.
TEMPLATES = {
    "z_invariants": [
        ("smith", 6, 6, 0), ("smith", 8, 10, 0), ("smith", 10, 10, 1), ("smith", 12, 12, 0),
        ("hermite", 6, 8, 0), ("hermite", 12, 10, 2), ("hermite", 12, 12, 1), ("hermite", 12, 12, 0),
        ("invariants", 7, 7, 0), ("invariants", 9, 11, 0), ("invariants", 11, 11, 1),
        ("det", 6, 6, 0), ("det", 10, 10, 1), ("det", 12, 12, 0),
    ],
    "qx_smith": [
        ("smith", 3, 3, 0), ("smith", 4, 4, 0), ("smith", 4, 5, 1), ("smith", 5, 5, 0),
        ("smith", 6, 6, 0),
        ("hermite", 3, 4, 0), ("hermite", 4, 4, 0), ("hermite", 5, 5, 1), ("hermite", 6, 6, 0),
        ("det", 4, 4, 0), ("det", 5, 5, 0), ("det", 6, 6, 0),
    ],
    "similarity": [
        ("jordan", ((0, 1), (1, 2)), 0),
        ("jordan", ((0, 2), (0, 1), (1, 1)), 0),
        ("jordan", ((0, 2), (0, 1), (1, 2)), 0),
        ("rcf", ((0, 2), (0, 1)), 0),
        ("rcf", ((0, 1), (0, 1)), 1),
        ("rcf", ((0, 3), (1, 1), (1, 1)), 0),
        ("similar", ((0, 2), (1, 1)), 0),
        ("similar", ((0, 2), (0, 2)), 0),
        ("not_similar", ((0, 2), (0, 1), (1, 1)), 0),
        ("minimal_poly", ((0, 2), (0, 1), (1, 1)), 0),
        ("minimal_poly", ((0, 3), (0, 1), (1, 2)), 0),
        ("char_poly", ((0, 1), (1, 1), (1, 2)), 0),
        ("char_poly", ((0, 2), (0, 2), (1, 1), (2, 1)), 0),
    ],
    "cli_verify": [
        ("cli_smith", 4, 4, 0), ("cli_smith", 5, 6, 1), ("cli_smith_q", 4, 4, 1),
        ("cli_hermite", 4, 5, 0), ("cli_hermite", 6, 6, 1), ("cli_hermite_q", 5, 5, 1),
        ("cli_invariants", 4, 4, 0), ("cli_invariants", 6, 6, 1),
    ],
}
RINGS = {"z_invariants": "Z", "qx_smith": "Q[x]", "similarity": "Q", "cli_verify": "Z"}


# ---------------------------------------------------------------------------
# unimodular transforms from elementary operations

def _unit(rng, ring):
    if ring.name == "Z":
        return -1
    return ring.coerce(Fraction(rng.choice((-2, -1, 2)), rng.choice((1, 2))))


def unimodular(rng, ring, n, steps):
    """(U, U^-1, det U) for a random product of elementary row operations:
    each operation on U's rows is mirrored by its inverse on the columns
    of U^-1."""
    u, uinv = plain.identity(ring, n), plain.identity(ring, n)
    d = ring.one
    for _ in range(steps):
        roll = rng.random()
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if n > 1 and roll < 0.7:  # row i += c row j; column j -= c column i
            c = ring.coerce(rng.choice((-2, -1, 1, 2)))
            u[i] = [ring.add(x, ring.mul(c, y)) for x, y in zip(u[i], u[j])]
            for row in uinv:
                row[j] = ring.sub(row[j], ring.mul(c, row[i]))
        elif n > 1 and roll < 0.85:
            u[i], u[j] = u[j], u[i]
            for row in uinv:
                row[i], row[j] = row[j], row[i]
            d = ring.sub(ring.zero, d)
        else:
            c = _unit(rng, ring)
            cinv = c if ring.name == "Z" else ((1 / c[0],) if ring.poly else 1 / c)
            u[i] = [ring.mul(c, x) for x in u[i]]
            for row in uinv:
                row[i] = ring.mul(row[i], cinv)
            d = ring.mul(d, c)
    return u, uinv, d


# ---------------------------------------------------------------------------
# planted divisibility chains

def _chain(rng, ring, r, primes, max_primes, big_prime=None):
    """Invariant factors d_1 | ... | d_r from planted prime powers; returns
    (factors, elementary divisors as sorted (prime, exponent) pairs)."""
    exps = {}
    budget = 2  # Q[x]: the last invariant factor has degree <= 2
    for p in rng.sample(primes, min(max_primes, len(primes))):
        count = rng.randint(1, min(3, r))
        if ring.poly:
            if len(p) - 1 > budget:
                continue
            budget -= len(p) - 1
            exps[p] = [1] * count
            continue
        exps[p] = sorted(rng.randint(1, 2) for _ in range(count))
    if big_prime is not None:
        exps[big_prime] = [1]
    factors = [ring.one] * r
    eds = []
    for p, es in exps.items():
        pv = ring.coerce(p)
        for t, e in enumerate(es):
            slot = r - len(es) + t
            pe = plain.ppow(pv, e) if ring.poly else pv ** e
            factors[slot] = ring.mul(factors[slot], pe)
            eds.append((pv, e))
    eds.sort(key=lambda pe: (prime_key(ring, pe[0]), pe[1]))
    return factors, eds


def prime_key(ring, p):
    """canonform's display order of primes: numeric on Z, graded-lex on
    the coefficients of monic polynomials."""
    return (len(p), tuple(p)) if ring.poly else (0, p)


def _is_prime(n):
    if n < 2:
        return False
    for p in SMALL_PRIMES + (17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _big_prime(rng):
    n = rng.randint(*BIG_PRIME_RANGE)
    while not _is_prime(n):
        n += 1
    return n


def _equivalence_input(rng, ring, m, n, deficiency, big_prime=None):
    """A = U D V with D carrying a planted Smith diagonal."""
    r = min(m, n) - deficiency
    if ring.name == "Q":  # over a field every invariant factor is 1
        factors, eds = [ring.one] * r, []
    else:
        primes = QX_PRIMES if ring.poly else SMALL_PRIMES
        factors, eds = _chain(rng, ring, r, primes, 2 if ring.poly else 3, big_prime)
    d = [[factors[i] if i == j and i < r else ring.zero for j in range(n)]
         for i in range(m)]
    steps = (m + n) if ring.poly else 2 * max(m, n)
    u, _, det_u = unimodular(rng, ring, m, steps)
    v, _, det_v = unimodular(rng, ring, n, steps)
    a = plain.matmul(ring, plain.matmul(ring, u, d), v)
    det = None
    if m == n:
        det = ring.zero
        if r == n:
            det = ring.mul(det_u, det_v)
            for f in factors:
                det = ring.mul(det, f)
    return a, {"rank": r, "invariant_factors": factors,
               "elementary_divisors": eds, "det": det}


# ---------------------------------------------------------------------------
# planted similarity structures over Q

def _jordan_structure(rng, pattern):
    """Blocks (eigenvalue, size): the pattern's labels replaced by distinct
    eigenvalues."""
    lams = rng.sample(EIGENVALUES, 1 + max(label for label, _ in pattern))
    return [(lams[label], k) for label, k in pattern]


def _conjugate(rng, blocks_as_matrices, n):
    """U^-1 F U for F the direct sum of the given blocks."""
    f = plain.direct_sum(plain.Q, blocks_as_matrices)
    u, uinv, _ = unimodular(rng, plain.Q, n, n + 2)
    return plain.matmul(plain.Q, plain.matmul(plain.Q, uinv, f), u)


def _linear(lam):
    return plain.ptrim((Fraction(-lam), Fraction(1)))


def _similarity_input(rng, kind, pattern, quadratics):
    """A = U^-1 F U for F a direct sum of Jordan blocks and, when asked,
    companion blocks of irreducible quadratics."""
    blocks = _jordan_structure(rng, pattern)
    n = sum(k for _, k in blocks) + 2 * quadratics
    mats = [plain.jordan_block(l, k) for l, k in blocks]
    eds = [(_linear(l), k) for l, k in blocks]
    for quad in rng.sample(IRREDUCIBLE_QUADRATICS, quadratics):
        quad = plain.ptrim(Fraction(c) for c in quad)
        mats.append(plain.companion(quad))
        eds.append((quad, 1))
    rng.shuffle(mats)
    a = _conjugate(rng, mats, n)
    eds.sort(key=lambda pe: (prime_key(plain.QX, pe[0]), pe[1]))
    minimal, charp = (Fraction(1),), (Fraction(1),)
    for p in {p for p, _ in eds}:
        minimal = plain.pmul(minimal, plain.ppow(p, max(e for q, e in eds if q == p)))
    for p, e in eds:
        charp = plain.pmul(charp, plain.ppow(p, e))
    planted = {
        "jordan_blocks": sorted(blocks),
        "companion_polys": sorted((plain.ppow(p, e) for p, e in eds),
                                  key=lambda q: (len(q), q)),
        "minimal_poly": minimal, "char_poly": charp,
    }
    args = [a]
    if kind in ("similar", "not_similar"):
        other = list(blocks)
        if kind == "not_similar":
            other = _regroup(rng, blocks)
        rng.shuffle(other)
        args.append(_conjugate(rng, [plain.jordan_block(l, k) for l, k in other], n))
        planted["similar"] = kind == "similar"
    return args, planted


def _regroup(rng, blocks):
    """A different Jordan structure with the same characteristic polynomial:
    one block of size >= 2 split in two."""
    big = [i for i, (_, k) in enumerate(blocks) if k >= 2]
    i = rng.choice(big)
    lam, k = blocks[i]
    cut = rng.randint(1, k - 1)
    return blocks[:i] + [(lam, cut), (lam, k - cut)] + blocks[i + 1:]


# ---------------------------------------------------------------------------
# rounds

def round_ops(workload, seed, k):
    """The operations of round k: dicts with the operation, the ring, the
    plain-Python arguments and the planted answer."""
    out = []
    for idx, (kind, *shape) in enumerate(TEMPLATES[workload]):
        rng = random.Random(f"{workload}/{seed}/{k}/{idx}")
        ring = plain.RINGS[RINGS[workload]]
        if kind.endswith("_q"):
            ring = plain.Q
        if workload == "similarity":
            args, planted = _similarity_input(rng, kind, *shape)
        else:
            m, n, deficiency = shape
            big = _big_prime(rng) if kind == "invariants" and workload == "z_invariants" else None
            a, planted = _equivalence_input(rng, ring, m, n, deficiency, big)
            args = [a]
        out.append({"kind": kind, "ring": ring.name, "args": args, "planted": planted})
    return out


def _jsonable(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {key: _jsonable(x) for key, x in v.items()}
    return v


def digest(workload, seed, rounds):
    h = hashlib.sha256()
    for k in range(rounds):
        h.update(json.dumps(_jsonable(round_ops(workload, seed, k))).encode())
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(TEMPLATES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=20, help="rounds to digest")
    ap.add_argument("--show", type=int, metavar="K", help="print round K as JSON")
    args = ap.parse_args(argv)
    if args.show is not None:
        print(json.dumps(_jsonable(round_ops(args.workload, args.seed, args.show)), indent=1))
    else:
        print(f"{args.workload} seed {args.seed} rounds 0..{args.rounds - 1} "
              f"sha256 {digest(args.workload, args.seed, args.rounds)}")


if __name__ == "__main__":
    main()
