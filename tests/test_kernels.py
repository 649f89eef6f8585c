"""The raw-value kernels against plain Elem arithmetic and references.

`hermite._row_op` (which `apply_op` runs), `hermite._apply_2x2_rows`,
`matrix.raw_multiply` (which `matrix.multiply` wraps) and
`determinant.det` keep their working entries raw (an int on Z, a
(nums, den) pair on Q and Q[x]) and compute through `domain.RAW_OPS`.
Each property here redoes the computation on Elems, on Z, Q and Q[x],
with zero rows and with Q[x] coefficients whose denominator is not 1.
`hermite._gcd_combine` must return the operations it applied: replayed
on the identity through `apply_op`, they rebuild its transform rows.
The guard after them checks that every entry the public calls return is
in canonical raw form, as a kernel that skipped `_qnorm` would not be.
The last properties check the raw pivot decisions, `domain.raw_egcd`
and the divmod, negation and associate of `domain.RAW_EUCLID`, against
a reference Euclid on Fractions (`test_domain.ref_egcd`) and on ints,
and the cofactor-free `gcd` against `raw_egcd`.  The similarity path is
checked the same way: the raw xI - A of `similarity.char_matrix`, and
the Horner of `right_eval` and `left_eval` on `domain.raw_layers`,
against the same computations on Elem matrices.
"""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from canonform.determinant import det, det_expansion
from canonform.domain import RAW_EUCLID, RAW_OPS, X, Elem, Ring, _mk, gcd, raw_egcd
from canonform.errors import DivisionByZero, ShapeMismatch
from canonform.hermite import (ElemOp, _apply_2x2_rows, _gcd_combine, _row_op, apply_op,
                               hermite_canonical, row_addmul, row_swap)
from canonform.matrix import Matrix, lift, multiply, raw_multiply
from canonform.similarity import canonical_presentation, char_matrix, left_eval, right_eval
from canonform.smith import smith
from conftest import random_matrix
from test_domain import ref_egcd

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
    expected = []
    for before in (a, b):
        rows = before.rows()
        if kind == "swap":
            rows[i - 1], rows[j - 1] = rows[j - 1], rows[i - 1]
        elif kind == "addmul":
            rows[i - 1] = [t + c * s for t, s in zip(rows[i - 1], rows[j - 1])]
        else:
            rows[i - 1] = [c * v for v in rows[i - 1]]
        expected.append(raw(rows))
        if kind != "scale" or c.is_unit():  # apply_op scales by units only
            assert apply_op(before, op).raw_rows() == expected[-1]
    if kind != "swap":  # the kernel itself, on two working lists at once
        work_a, work_b = a.raw_rows(), b.raw_rows()
        _row_op(RAW_OPS[ring], i, c.raw, j if kind == "addmul" else 0, work_a, work_b)
        assert [work_a, work_b] == expected


@pytest.mark.parametrize("ring", RINGS, ids=str)
@SETTINGS
@given(data=st.data())
def test_apply_2x2_rows_matches_elem_arithmetic(ring, data):
    m, n = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 4))
    a = data.draw(matrices(ring, m, n))
    s, t = data.draw(st.permutations(range(1, m + 1)))[:2]
    m11, m12, m21, m22 = (data.draw(elems(ring)) for _ in range(4))
    work = a.raw_rows()
    _apply_2x2_rows(RAW_OPS[ring], s, t, m11.raw, m12.raw, m21.raw, m22.raw, work)
    rows = a.rows()
    rs, rt = rows[s - 1], rows[t - 1]
    rows[s - 1] = [m11 * x + m12 * y for x, y in zip(rs, rt)]
    rows[t - 1] = [m21 * x + m22 * y for x, y in zip(rs, rt)]
    assert work == raw(rows)


@pytest.mark.parametrize("ring", RINGS, ids=str)
@SETTINGS
@given(data=st.data())
def test_gcd_combine_returns_the_operations_it_applied(ring, data):
    # a column over rows s and `others`, zero at row s in some draws so
    # that the closing swap appears
    m = data.draw(st.integers(1, 5))
    a = data.draw(matrices(ring, m, 1))
    s, *others = data.draw(st.permutations(range(1, m + 1)))
    if data.draw(st.booleans()):
        a = Matrix.from_rows(ring, [[Elem.zero(ring)] if i == s else row
                                    for i, row in enumerate(a.rows(), 1)])
    work, q = a.raw_rows(), Matrix.identity(ring, m).raw_rows()
    applied = _gcd_combine(ring, work, q, 1, s, others)
    replay = Matrix.identity(ring, m)
    for t, c, p in applied:
        replay = apply_op(replay, row_swap(t, p) if c is None
                          else row_addmul(t, _mk(ring, c), p))
    assert replay.raw_rows() == q
    assert all(c is not None for _, c, _ in applied[:-1])


@pytest.mark.parametrize("ring", RINGS, ids=str)
@SETTINGS
@given(data=st.data())
def test_multiply_matches_elem_arithmetic(ring, data):
    m, k, n = (data.draw(st.integers(1, 4)) for _ in range(3))
    a, b = data.draw(matrices(ring, m, k)), data.draw(matrices(ring, k, n))
    expected = [[sum((a.entry(i, h) * b.entry(h, j) for h in range(1, k + 1)),
                     Elem.zero(ring)) for j in range(1, n + 1)] for i in range(1, m + 1)]
    got = raw_multiply(ring, a.raw_rows(), b.raw_rows())
    assert got == multiply(a, b).raw_rows() == raw(expected)


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


def ref_zegcd(a, b):
    """Extended Euclid on ints with remainders in [0, |b|), then d >= 0;
    (0, 1, 0) for a = b = 0."""
    r0, r1, s0, s1, t0, t1 = a, b, 1, 0, 0, 1
    while r1:
        r = r0 % abs(r1)
        q = (r0 - r) // r1
        r0, r1, s0, s1, t0, t1 = r1, r, s1, s0 - q * s1, t1, t0 - q * t1
    sign = -1 if r0 < 0 else 1
    return sign * r0, sign * s0, sign * t0


def fractions_of(v):
    """A raw pair as ref_egcd's tuple of Fraction coefficients."""
    nums, den = v
    return tuple(Fraction(c, den) for c in nums)


maybe_zero = {ring: st.one_of(st.just(Elem.zero(ring)), elems(ring)) for ring in RINGS}


@SETTINGS
@example(a=-60, b=-45)
@example(a=0, b=-4)
@example(a=-4, b=0)
@example(a=0, b=0)
@given(a=st.integers(-100, 100), b=st.integers(-100, 100))
def test_raw_egcd_matches_the_reference_on_z(a, b):
    assert raw_egcd(Ring.Z, a, b) == ref_zegcd(a, b)
    assert raw_egcd(Ring.Z, a, b)[0] == math.gcd(a, b)


@pytest.mark.parametrize("ring", [Ring.Q, Ring.QX], ids=str)
@SETTINGS
@given(data=st.data())
def test_raw_egcd_matches_the_reference(ring, data):
    a, b = data.draw(maybe_zero[ring]), data.draw(maybe_zero[ring])
    got = tuple(fractions_of(v) for v in raw_egcd(ring, a.raw, b.raw))
    if a.is_zero() and b.is_zero():
        assert got == ((), (Fraction(1),), ())
    else:
        assert got == ref_egcd(fractions_of(a.raw), fractions_of(b.raw))


@pytest.mark.parametrize("ring", RINGS, ids=str)
@SETTINGS
@given(data=st.data())
def test_raw_divmod_neg_and_associate_match_elem_arithmetic(ring, data):
    divmod_, neg, associate = RAW_EUCLID[ring]
    a = data.draw(maybe_zero[ring])
    b = data.draw(elems(ring).filter(lambda e: not e.is_zero()))
    q, r = (_mk(ring, v) for v in divmod_(a.raw, b.raw))
    assert b * q + r == a and _canonical(q) and _canonical(r)
    if ring is Ring.Z:
        assert 0 <= r.raw < abs(b.raw)
    elif ring is Ring.Q:
        assert r.is_zero()
    else:
        assert r.is_zero() or r.degree() < b.degree()
    assert a + _mk(ring, neg(a.raw)) == Elem.zero(ring)
    u, c = (_mk(ring, v) for v in associate(a.raw))
    assert u.is_unit() and u * a == c and _canonical(c)
    if not c.is_zero():
        assert c.raw > 0 if ring is Ring.Z else c.raw[0][-1] == c.raw[1]


@SETTINGS
@given(a=st.integers(-10**30, 10**30), b=st.integers(-10**6, 10**6).filter(bool))
def test_raw_z_divmod_keeps_the_residue_convention(a, b):
    q, r = RAW_EUCLID[Ring.Z][0](a, b)
    assert a == q * b + r and 0 <= r < abs(b)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_raw_division_by_zero_is_a_named_error(ring):
    divmod_, zero = RAW_EUCLID[ring][0], Elem.zero(ring).raw
    for a in (zero, Elem.one(ring).raw, RAW_EUCLID[ring][1](Elem.one(ring).raw)):
        with pytest.raises(DivisionByZero, match="^division by zero$"):
            divmod_(a, zero)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_raw_multiply_rejects_unconformable_rows(ring):
    zero = Elem.zero(ring).raw
    with pytest.raises(ShapeMismatch, match="^2x3 times 2x1$"):
        raw_multiply(ring, [[zero] * 3] * 2, [[zero]] * 2)


@SETTINGS
@given(data=st.data())
def test_raw_char_matrix_matches_elem_arithmetic(data):
    n = data.draw(st.integers(1, 6))
    a = data.draw(matrices(Ring.Q, n, n))
    assert char_matrix(a) == Matrix.identity(Ring.QX, n).scale(X) - lift(a, Ring.QX)


def _elem_horner(p, a, left):
    """sum P_k A^k (sum A^k P_k when left) on Matrix arithmetic over the
    layers of canonical_presentation."""
    layers = canonical_presentation(p).coeffs
    out = layers[-1]
    for pk in reversed(layers[:-1]):
        out = (a @ out if left else out @ a) + pk
    return out


@SETTINGS
@given(data=st.data())
def test_raw_horner_matches_the_canonical_presentation(data):
    n = data.draw(st.integers(1, 6))
    p, a = data.draw(matrices(Ring.QX, n, n)), data.draw(matrices(Ring.Q, n, n))
    assert right_eval(p, a) == _elem_horner(p, a, left=False)
    assert left_eval(p, a) == _elem_horner(p, a, left=True)


@pytest.mark.parametrize("ring", RINGS, ids=str)
@SETTINGS
@given(data=st.data())
def test_gcd_is_the_canonical_gcd_of_raw_egcd(ring, data):
    a, b = data.draw(maybe_zero[ring]), data.draw(maybe_zero[ring])
    assert gcd(a, b).raw == raw_egcd(ring, a.raw, b.raw)[0]
