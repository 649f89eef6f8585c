"""Bit-identity of the canonical outputs on a seeded Q[x] corpus, the
companion of test_corpus_hash's Z and Q corpus.

The digest pins, on every input, the Smith D, diagonal and rank and the
Hermite canonical H and primary columns, which are unique; and on the
square nonsingular inputs also Smith's P and Q and the Hermite transform,
which are unique there too (each canonical pass then has one transform).
How a column is cleared may move only the transforms of singular or
non-square inputs.  To print the digest of the current code:

    PYTHONPATH=src:tests python3 tests/test_corpus_hash_qx.py
"""
import hashlib
import random

from canonform.determinant import det
from canonform.domain import Ring
from canonform.hermite import hermite_canonical
from canonform.matrix import Matrix, format_matrix
from canonform.smith import smith

from conftest import random_matrix

DIGEST = "ab90b7afd86a21ff1ea70c2cca7c5c765dd5c1e1fc717d7a77def61dfc3f9e4a"


def corpus():
    """(kind, A) for n = 2..7, entries of degree <= 1: square nonsingular,
    square of rank n - 1 (last row = first + second) and n x (n + 1) or
    (n + 1) x n."""
    rng = random.Random("corpus-hash-qx")
    for n in range(2, 8):
        while det(a := random_matrix(rng, Ring.QX, n, n, max_deg=1)).is_zero():
            pass
        yield "nonsingular", a
        rows = random_matrix(rng, Ring.QX, n, n, max_deg=1).rows()
        rows[-1] = [x + y for x, y in zip(rows[0], rows[1])]
        yield "deficient", Matrix.from_rows(Ring.QX, rows)
        m, k = (n, n + 1) if n % 2 else (n + 1, n)
        yield "wide" if k > m else "tall", random_matrix(rng, Ring.QX, m, k, max_deg=1)


def digest() -> str:
    h = hashlib.sha256()
    for kind, a in corpus():
        s, hc = smith(a), hermite_canonical(a)
        parts = [kind, format_matrix(a), format_matrix(s.d),
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
