"""Differential tests against sympy on seeded inputs: invariant factors of
xI - A over Q[x], characteristic polynomials over Q, and Smith diagonals
over Z.  sympy computes each answer independently of canonform."""
import random
from fractions import Fraction

import pytest
from sympy import QQ, ZZ, Matrix as SMatrix, symbols
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import invariant_factors, smith_normal_form

from canonform.domain import Ring
from canonform.matrix import Matrix, mat_q
from canonform.similarity import char_poly, similarity_invariants
from canonform.smith import smith

from conftest import random_matrix

X = symbols("x")
QX = QQ[X]


def to_fraction(c) -> Fraction:
    return Fraction(int(c.numerator), int(c.denominator))


def monic(coeffs_high_first) -> tuple:
    """Coefficients lowest degree first, scaled to a monic polynomial."""
    cs = [to_fraction(c) for c in coeffs_high_first]
    return tuple(c / cs[0] for c in reversed(cs))


def rows_of(a: Matrix) -> list[list[Fraction]]:
    return [[e.value for e in a.row(i)] for i in range(1, a.m + 1)]


def random_q_square(rng, n) -> Matrix:
    a = random_matrix(rng, Ring.Q, n, n, bound=5)
    if n > 1 and rng.random() < 0.25:  # singular: last row = first + second
        rows = a.rows()
        rows[-1] = [x + y for x, y in zip(rows[0], rows[1 % (n - 1)])]
        a = Matrix.from_rows(Ring.Q, rows)
    return a


def derogatory(rng, n) -> Matrix:
    """U B U^-1 with B block diagonal over at most two eigenvalues, so that
    xI - A has several nontrivial invariant factors."""
    lams, half = rng.sample(range(-3, 4), 2), (n + 1) // 2
    b = SMatrix.zeros(n, n)
    for i in range(n):
        b[i, i] = lams[0] if i < half else lams[1]
        if i + 1 < n and i + 1 != half and rng.random() < 0.4:  # Jordan link
            b[i, i + 1] = 1
    u = SMatrix.eye(n)
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        u[i, :] = u[i, :] + rng.choice([-1, 1, 2]) * u[j, :]
    a = u * b * u.inv()
    return mat_q([[to_fraction(a[i, j]) for j in range(n)] for i in range(n)])


def sympy_invariants(a: Matrix) -> list[tuple]:
    n = a.m
    entries = rows_of(a)
    char = [[QX.convert(X) * (i == j) - QX.convert(QQ(entries[i][j].numerator,
                                                         entries[i][j].denominator))
             for j in range(n)] for i in range(n)]
    return [monic(f.to_dense()) for f in invariant_factors(DomainMatrix(char, (n, n), QX))]


@pytest.mark.parametrize("make", [random_q_square, derogatory])
def test_invariant_factors_of_char_matrix(make):
    rng = random.Random(f"oracle-invariants/{make.__name__}")
    for k in range(25):
        a = make(rng, rng.randint(1, 6))
        got = [f.value for f in similarity_invariants(a)]
        assert got == sympy_invariants(a), (make.__name__, k, rows_of(a))


def test_char_poly():
    rng = random.Random("oracle-charpoly")
    for k in range(40):
        a = random_q_square(rng, rng.randint(1, 6))
        want = monic(SMatrix(rows_of(a)).charpoly(X).all_coeffs())
        assert char_poly(a).value == want, (k, rows_of(a))


def test_smith_diagonal_z():
    rng = random.Random("oracle-smith")
    for k in range(100):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, Ring.Z, m, n)
        if m > 1 and k % 4 == 3:  # rank-deficient: last row = first + second
            rows = a.rows()
            rows[-1] = [x + y for x, y in zip(rows[0], rows[1 % (m - 1)])]
            a = Matrix.from_rows(Ring.Z, rows)
        dm = DomainMatrix([[ZZ(v) for v in row] for row in rows_of(a)], (m, n), ZZ)
        snf = smith_normal_form(dm).to_Matrix()
        want = [abs(int(snf[i, i])) for i in range(min(m, n)) if snf[i, i] != 0]
        assert [d.value for d in smith(a).diag] == want, (k, rows_of(a))
