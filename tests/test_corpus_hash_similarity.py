"""Bit-identity of the similarity outputs on a seeded Q corpus, the
companion of test_corpus_hash's Smith and Hermite digest.

The corpus holds seeded random Q matrices at n = 1..8, and two conjugates
U^-1 F U of each of 40 direct sums F of Jordan blocks (integer and
non-integer eigenvalues, repeated blocks) and companion blocks of x^2 + c.
The digest pins, on every input A, the invariant factors, the minimal
polynomial, the S and form of `rcf` and `jordan`, and the S of
`similar(A, A)` and of `similar(A, B)` for the corpus's next input B, or
the class of the Error a call raises.  The conjugators are not unique, so
the digest pins how the code picks them, not only the forms.  To print the
digest of the current code:

    PYTHONPATH=src:tests python3 tests/test_corpus_hash_similarity.py
"""
import hashlib
import random

from canonform.determinant import inverse
from canonform.domain import Ring, polynomial, rational
from canonform.errors import Error
from canonform.matrix import direct_sum, format_matrix, lift
from canonform.similarity import (companion, hypercompanion, jordan, minimal_poly, rcf,
                                  similar, similarity_invariants)

from conftest import random_matrix, random_unimodular

DIGEST = "d635aa811c94aaf2fdd59681f1de8576eff96dc3192805061d57ec10beef51e3"


def corpus():
    """The random inputs, then two conjugates of each direct sum of blocks."""
    rng = random.Random("corpus-hash-similarity")
    for n in range(1, 9):
        for _ in range(4):
            yield random_matrix(rng, Ring.Q, n, n, bound=5)
    for _ in range(40):
        blocks, size = [], rng.randint(1, 7)
        while sum(b.m for b in blocks) < size:
            if rng.random() < 0.2:
                blocks.append(companion(polynomial([rng.choice([1, 2, 3, 5]), 0, 1])))
                continue
            alpha = rational(rng.randint(-5, 5), rng.choice([1, 1, 2, 3]))
            for _ in range(rng.choice([1, 1, 2])):  # a repeated block now and then
                blocks.append(hypercompanion(alpha, rng.randint(1, 3)))
        form = blocks[0]
        for b in blocks[1:]:
            form = direct_sum(form, b)
        for _ in range(2):  # two conjugates, so that similar(A, B) meets similar pairs
            u = lift(random_unimodular(rng, Ring.Z, form.m), Ring.Q)
            yield inverse(u) @ form @ u


def _outcome(call) -> str:
    """The printed result of a call, or the class of the Error it raises."""
    try:
        out = call()
    except Error as exc:
        return type(exc).__name__
    if out is None:
        return "None"
    if isinstance(out, tuple) and len(out) == 2:  # rcf, jordan: (certificate, form)
        return format_matrix(out[0].s) + "\n" + format_matrix(out[1])
    if hasattr(out, "s"):
        return format_matrix(out.s)
    return str(out)


def digest() -> str:
    h = hashlib.sha256()
    inputs = list(corpus())
    for a, b in zip(inputs, inputs[1:] + inputs[:1]):
        parts = [format_matrix(a)] + [_outcome(call) for call in (
            lambda: " ".join(map(str, similarity_invariants(a))),
            lambda: minimal_poly(a), lambda: rcf(a), lambda: jordan(a),
            lambda: similar(a, a), lambda: similar(a, b))]
        h.update("\n".join(parts).encode() + b"\n\n")
    return h.hexdigest()


def test_similarity_outputs_are_bit_identical():
    assert digest() == DIGEST


if __name__ == "__main__":
    print(digest())
