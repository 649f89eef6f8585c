"""Bit-identity of the canonical outputs on a seeded Z and Q corpus.

The digest pins, on every input, the Smith D, diagonal and rank and the
Hermite canonical H and primary columns, which are unique; and on the
square nonsingular inputs also Smith's P and Q and the Hermite transform,
which are unique there too (each canonical pass then has one transform).
The order in which a column is cleared may move only the transforms of
singular or non-square inputs.  To print the digest of the current code:

    PYTHONPATH=src:tests python3 tests/test_corpus_hash.py
"""
import hashlib
import random

from canonform.determinant import det
from canonform.domain import Ring
from canonform.hermite import hermite_canonical
from canonform.matrix import Matrix, format_matrix
from canonform.smith import smith

from conftest import random_matrix

DIGEST = "69f9854f2fff5466192aa59ed0a2bb416b45613d4bb05a16005f58e10108caad"


def corpus():
    """(ring, kind, A) for n = 2..12: square nonsingular, square of rank
    n - 1 (last row = first + second) and n x (n + 1) or (n + 1) x n."""
    rng = random.Random("corpus-hash")
    for ring in (Ring.Z, Ring.Q):
        for n in range(2, 13):
            while det(a := random_matrix(rng, ring, n, n, bound=5)).is_zero():
                pass
            yield ring, "nonsingular", a
            rows = random_matrix(rng, ring, n, n, bound=5).rows()
            rows[-1] = [x + y for x, y in zip(rows[0], rows[1])]
            yield ring, "deficient", Matrix.from_rows(ring, rows)
            m, k = (n, n + 1) if n % 2 else (n + 1, n)
            yield ring, "wide" if k > m else "tall", random_matrix(rng, ring, m, k, bound=5)


def digest() -> str:
    h = hashlib.sha256()
    for ring, kind, a in corpus():
        s, hc = smith(a), hermite_canonical(a)
        parts = [ring.name, kind, format_matrix(a), format_matrix(s.d),
                 " ".join(map(str, s.diag)), str(s.rank),
                 format_matrix(hc.h), repr(hc.primary_cols), str(hc.rank)]
        if kind == "nonsingular":
            parts += [format_matrix(s.p), format_matrix(s.q), format_matrix(hc.q)]
        h.update("\n".join(parts).encode() + b"\n\n")
    return h.hexdigest()


def test_canonical_outputs_are_bit_identical():
    assert digest() == DIGEST


if __name__ == "__main__":
    print(digest())
