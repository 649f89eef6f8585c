"""The raw-value kernels against plain Elem arithmetic.

`hermite._apply_rows`, `hermite._apply_2x2_rows`, `matrix.multiply` and
`determinant.det` keep their working entries raw (an int on Z, a
(nums, den) pair on Q and Q[x]) and compute through `domain.RAW_OPS`.
Each property here redoes the computation on Elems, on Z, Q and Q[x],
with zero rows and with Q[x] coefficients whose denominator is not 1.
The guard at the end checks that every entry the public calls return is
in canonical raw form, as a kernel that skipped `_qnorm` would not be.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from canonform.determinant import det, det_expansion
from canonform.domain import Elem, Ring
from canonform.hermite import ElemOp, _apply_2x2_rows, _apply_rows, hermite_canonical
from canonform.matrix import Matrix, multiply
from canonform.smith import smith
from conftest import random_matrix

RINGS = [Ring.Z, Ring.Q, Ring.QX]
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


def elems(ring):
    if ring is Ring.Z:
        return st.integers(-30, 30).map(lambda v: Elem(ring, v))
    if ring is Ring.Q:
        return fractions.map(lambda v: Elem(ring, v))
    return st.lists(fractions, max_size=3).map(lambda cs: Elem(ring, cs))


@st.composite
def matrices(draw, ring, m, n):
    """An m x n matrix over ring whose rows are zero with probability 1/4."""
    zero = Elem.zero(ring)
    rows = [[zero] * n if draw(st.integers(0, 3)) == 0
            else draw(st.lists(elems(ring), min_size=n, max_size=n))
            for _ in range(m)]
    return Matrix.from_rows(ring, rows)


def raw(rows):
    return [[e.raw for e in row] for row in rows]


@pytest.mark.parametrize("ring", RINGS, ids=str)
@SETTINGS
@given(data=st.data())
def test_apply_rows_matches_elem_arithmetic(ring, data):
    m, n = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 4))
    a, b = data.draw(matrices(ring, m, n)), data.draw(matrices(ring, m, 2))
    i, j = data.draw(st.permutations(range(1, m + 1)))[:2]
    c = data.draw(elems(ring))
    kind = data.draw(st.sampled_from(["swap", "addmul", "scale"]))
    op = {"swap": ElemOp("swap", "row", i, j),
          "addmul": ElemOp("addmul", "row", i, j, c),
          "scale": ElemOp("scale", "row", i, coeff=c)}[kind]
    work_a, work_b = a.raw_rows(), b.raw_rows()
    _apply_rows(op, work_a, work_b)
    for before, after in ((a, work_a), (b, work_b)):
        rows = before.rows()
        if kind == "swap":
            rows[i - 1], rows[j - 1] = rows[j - 1], rows[i - 1]
        elif kind == "addmul":
            rows[i - 1] = [t + c * s for t, s in zip(rows[i - 1], rows[j - 1])]
        else:
            rows[i - 1] = [c * v for v in rows[i - 1]]
        assert after == raw(rows)


@pytest.mark.parametrize("ring", RINGS, ids=str)
@SETTINGS
@given(data=st.data())
def test_apply_2x2_rows_matches_elem_arithmetic(ring, data):
    m, n = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 4))
    a = data.draw(matrices(ring, m, n))
    s, t = data.draw(st.permutations(range(1, m + 1)))[:2]
    m11, m12, m21, m22 = (data.draw(elems(ring)) for _ in range(4))
    work = a.raw_rows()
    _apply_2x2_rows(s, t, m11, m12, m21, m22, work)
    rows = a.rows()
    rs, rt = rows[s - 1], rows[t - 1]
    rows[s - 1] = [m11 * x + m12 * y for x, y in zip(rs, rt)]
    rows[t - 1] = [m21 * x + m22 * y for x, y in zip(rs, rt)]
    assert work == raw(rows)


@pytest.mark.parametrize("ring", RINGS, ids=str)
@SETTINGS
@given(data=st.data())
def test_multiply_matches_elem_arithmetic(ring, data):
    m, k, n = (data.draw(st.integers(1, 4)) for _ in range(3))
    a, b = data.draw(matrices(ring, m, k)), data.draw(matrices(ring, k, n))
    expected = [[sum((a.entry(i, h) * b.entry(h, j) for h in range(1, k + 1)),
                     Elem.zero(ring)) for j in range(1, n + 1)] for i in range(1, m + 1)]
    assert multiply(a, b).raw_rows() == raw(expected)


@pytest.mark.parametrize("ring", RINGS, ids=str)
@SETTINGS
@given(data=st.data())
def test_det_matches_the_expansion(ring, data):
    n = data.draw(st.integers(1, 4))
    a = data.draw(matrices(ring, n, n))
    d = det(a)
    assert d == det_expansion(a)
    assert d == Elem(ring, d.value)


def _canonical(e: Elem) -> bool:
    return e == Elem(e.ring, e.value)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_results_hold_canonical_raw_values(ring):
    rng = random.Random(20261019)
    for _ in range(25):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, ring, m, n)
        res, herm = smith(a), hermite_canonical(a)
        mats = [res.p, res.q, res.d, herm.q, herm.h]
        for mat in mats:
            assert all(_canonical(e) for e in mat.entries)
            assert Matrix.from_raw(ring, mat.raw_rows()) == mat
        assert all(_canonical(e) for e in res.diag)
        sq = random_matrix(rng, ring, n, n)
        assert _canonical(det(sq))
