import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from canonform.determinant import det, inverse, rank_by_minors
from canonform.domain import Elem, Ring, integer, polynomial, rational
from canonform.errors import (
    AllZeroColumn,
    IndexOutOfRange,
    NotAUnit,
    RingMismatch,
    ShapeMismatch,
    UnsupportedRing,
)
from canonform.hermite import (
    ElemOp,
    apply_op,
    clear_column,
    column_hermite_canonical,
    decompose_unit,
    hermite_canonical,
    hermite_form,
    is_hermite_canonical,
    op_matrix,
    row_addmul,
    row_scale,
    row_swap,
    solve,
    stabilizer_shape,
)
from canonform.matrix import Matrix, lift, mat_q, mat_qx, mat_z, vector
from canonform.similarity import similar
from canonform.smith import smith

from conftest import random_matrix, random_unimodular

RINGS = [Ring.Z, Ring.Q, Ring.QX]

# the worked 3x6 rational system and its canonical form
A_SYSTEM = mat_q([
    [2, 5, 4, -2, 2, 1],
    [0, 1, 1, 0, -1, 0],
    [2, 6, 5, 0, -1, 0],
])
H_SYSTEM = mat_q([
    [1, 0, Fraction(-1, 2), 0, Fraction(5, 2), 0],
    [0, 1, 1, 0, -1, 0],
    [0, 0, 0, 1, -1, Fraction(-1, 2)],
])


class TestElementaryOps:
    def test_add_row_matrix(self):
        op = row_addmul(2, integer(1), 3)
        assert op_matrix(op, 3, Ring.Z) == mat_z(
            [[1, 0, 0], [0, 1, 1], [0, 0, 1]])

    def test_swap_is_involution_with_det_minus_one(self):
        op = row_swap(1, 2)
        r = op_matrix(op, 3, Ring.Z)
        assert r @ r == Matrix.identity(Ring.Z, 3)
        assert det(r) == integer(-1)

    def test_scale_by_one_is_identity(self):
        op = row_scale(1, integer(1))
        a = mat_z([[5, 6], [7, 8]])
        assert apply_op(a, op) == a

    def test_op_matrix_reproduces_row_action(self):
        rng = random.Random(131)
        for ring in RINGS:
            a = random_matrix(rng, ring, 3, 4)
            for op in (row_swap(1, 3), row_addmul(2, integer(2) if ring is Ring.Z
                                                  else a.entry(1, 1), 3)):
                if op.coeff is not None and op.coeff.ring is not ring:
                    continue
                assert apply_op(a, op) == op_matrix(op, 3, ring) @ a

    def test_col_ops_act_on_right(self):
        a = mat_z([[1, 2], [3, 4]])
        op = ElemOp("addmul", "col", 1, 2, integer(5))
        assert apply_op(a, op) == a @ op_matrix(op, 2, Ring.Z)

    def test_scale_requires_unit(self):
        with pytest.raises(NotAUnit):
            apply_op(mat_z([[1]]), row_scale(1, integer(2)))

    def test_inverse_identities(self):
        # type II inverse negates the coefficient, type III inverts the unit
        op = row_addmul(1, integer(4), 2)
        a = mat_z([[1, 2], [3, 4]])
        assert apply_op(apply_op(a, op), op.inverted()) == a
        op3 = row_scale(2, rational(-3))
        aq = mat_q([[1, 2], [3, 4]])
        assert apply_op(apply_op(aq, op3), op3.inverted()) == aq


class TestClearColumn:
    def test_worked_four_by_six(self):
        a = mat_z([
            [1, -1, 0, 0, 3, 4],
            [2, 0, 18, -1, 2, 6],
            [0, 1, 2, 2, 5, 3],
            [-5, -4, 12, 5, 2, 8],
        ])
        q, out = clear_column(a, 3, rows_in=[2, 4], s=2)
        assert out == mat_z([
            [1, -1, 0, 0, 3, 4],
            [7, 4, 6, -6, 0, -2],
            [0, 1, 2, 2, 5, 3],
            [-19, -12, 0, 17, 2, 12],
        ])
        assert q @ a == out
        assert det(q) == integer(1)
        # untouched rows survive verbatim
        assert out.row(1) == a.row(1) and out.row(3) == a.row(3)

    def test_single_row_is_identity(self):
        a = mat_z([[4, 1], [6, 2]])
        q, out = clear_column(a, 1, rows_in=[1], s=1)
        assert q == Matrix.identity(Ring.Z, 2) and out == a

    def test_gcd_lands_on_chosen_row(self):
        a = mat_z([[4, 0], [6, 0], [2, 0]])
        q, out = clear_column(a, 1, rows_in=[1, 2, 3], s=1)
        assert [e.value for e in out.col(1)] == [2, 0, 0]
        assert q @ a == out and det(q).is_unit()

    def test_zero_at_chosen_row_and_in_a_listed_row(self):
        # the zero row 2 is skipped; the zero pivot at row 1 is swapped with row 3
        a = mat_z([[0, 1], [0, 2], [3, 0], [2, 5]])
        q, out = clear_column(a, 1, rows_in=[1, 2, 3, 4], s=1)
        assert [e.value for e in out.col(1)] == [1, 0, 0, 0]
        assert q @ a == out and det(q).is_unit()
        assert out.row(2) == a.row(2)

    def test_all_zero_column_rejected(self):
        with pytest.raises(AllZeroColumn):
            clear_column(mat_z([[0, 1], [0, 2]]), 1, rows_in=[1, 2], s=1)


class TestHermiteCanonical:
    def test_worked_rational_system(self):
        res = hermite_canonical(A_SYSTEM)
        assert res.h == H_SYSTEM
        assert res.primary_cols == (1, 2, 4)
        assert res.rank == 3
        assert res.q @ A_SYSTEM == res.h
        assert det(res.q).is_unit()

    def test_identity_fixed_point(self):
        ident = Matrix.identity(Ring.Z, 4)
        res = hermite_canonical(ident)
        assert res.h == ident and res.q == ident

    def test_integer_two_by_two(self):
        res = hermite_canonical(mat_z([[4, 6], [2, 2]]))
        assert res.h == mat_z([[2, 0], [0, 2]])
        assert res.q @ mat_z([[4, 6], [2, 2]]) == res.h

    def test_rational_entries_built_from_ints(self):
        a = Matrix.from_rows(Ring.Q, [[Elem(Ring.Q, 3), Elem(Ring.Q, 1)]])
        assert str(hermite_canonical(a).h) == "ring Q\nrows 1\ncols 2\n1 1/3\n"

    def test_zero_matrix(self):
        z = Matrix.zeros(Ring.Z, 2, 3)
        res = hermite_canonical(z)
        assert res.h == z and res.rank == 0 and res.primary_cols == ()

    @pytest.mark.parametrize("ring", RINGS)
    def test_random_certificates(self, ring):
        rng = random.Random(137)
        for _ in range(300):
            a = random_matrix(rng, ring, rng.randint(1, 6), rng.randint(1, 6),
                              bound=9, max_deg=2)
            res = hermite_canonical(a)
            assert res.q @ a == res.h
            assert det(res.q).is_unit()
            assert is_hermite_canonical(res.h) == (res.rank, res.primary_cols)

    @pytest.mark.parametrize("ring", RINGS)
    def test_uniqueness_under_left_units(self, ring):
        rng = random.Random(139)
        for _ in range(40):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            a = random_matrix(rng, ring, m, n, bound=6, max_deg=1)
            p = random_unimodular(rng, ring, m)
            left = hermite_canonical(p @ a)
            right = hermite_canonical(a)
            assert left.h == right.h
            assert left.primary_cols == right.primary_cols

    def test_column_relations_preserved(self):
        rng = random.Random(149)
        for _ in range(25):
            a = random_matrix(rng, Ring.Z, 3, 4)
            res = hermite_canonical(a)
            c = random_matrix(rng, Ring.Z, 4, 1, bound=3)
            assert (a @ c).is_zero() == ((res.h @ c).is_zero())

    def test_rank_matches_minor_oracle(self):
        rng = random.Random(151)
        for ring in RINGS:
            for _ in range(20):
                a = random_matrix(rng, ring, rng.randint(1, 4), rng.randint(1, 4),
                                  bound=5, max_deg=1)
                assert hermite_canonical(a).rank == rank_by_minors(a)

    def test_determinantal_divisors_preserved(self):
        # left-unit equivalence keeps the gcd-of-minors sequence
        from canonform.invariants import det_divisors_by_minors
        a = mat_z([[4, 6], [2, 2]])
        res = hermite_canonical(a)
        assert det_divisors_by_minors(a) == det_divisors_by_minors(res.h)


class TestHermiteForm:
    def test_echelon_without_normalization(self):
        res = hermite_form(mat_z([[0, 3], [-2, 1]]))
        assert res.rank == 2
        assert res.q @ mat_z([[0, 3], [-2, 1]]) == res.h
        # echelon shape but pivots not necessarily canonical
        assert res.h.entry(2, 1).is_zero()


class TestColumnHermite:
    def test_transpose_duality(self):
        rng = random.Random(157)
        for _ in range(20):
            a = random_matrix(rng, Ring.Z, 3, 4)
            q, h = column_hermite_canonical(a)
            assert a @ q == h
            res = hermite_canonical(a.transpose())
            assert h == res.h.transpose() and q == res.q.transpose()

    def test_identity(self):
        ident = Matrix.identity(Ring.Z, 3)
        q, h = column_hermite_canonical(ident)
        assert h == ident and q == ident

    def test_two_by_two(self):
        q, h = column_hermite_canonical(mat_z([[2, 4], [0, 0]]))
        assert h == mat_z([[2, 0], [0, 0]])
        assert mat_z([[2, 4], [0, 0]]) @ q == h


class TestIsHermiteCanonical:
    def test_accepts_golden(self):
        assert is_hermite_canonical(H_SYSTEM) == (3, (1, 2, 4))

    def test_accepts_zero(self):
        assert is_hermite_canonical(Matrix.zeros(Ring.Q, 2, 2)) == (0, ())

    def test_rejects_bad_residue(self):
        assert is_hermite_canonical(mat_z([[2, 3], [0, 2]])) is None

    def test_rejects_negative_pivot(self):
        assert is_hermite_canonical(mat_z([[-2, 0], [0, 1]])) is None

    def test_rejects_shuffled_rows(self):
        assert is_hermite_canonical(mat_z([[0, 1], [1, 0]])) is None


class TestSolve:
    def test_worked_system(self):
        y = vector(Ring.Q, [5, -2, -3])
        out = solve(A_SYSTEM, y)
        assert out is not None
        particular, basis = out
        assert particular == vector(
            Ring.Q, [Fraction(9, 2), -2, 0, -3, 0, 0])
        assert A_SYSTEM @ particular == y
        assert len(basis) == 3
        for v in basis:
            assert (A_SYSTEM @ v).is_zero()
        assert 3 + len(basis) == 6  # rank + nullity

    def test_homogeneous(self):
        y = vector(Ring.Q, [0, 0, 0])
        particular, basis = solve(A_SYSTEM, y)
        assert particular.is_zero()
        assert len(basis) == 3

    def test_inconsistent(self):
        assert solve(mat_z([[1], [1]]), vector(Ring.Z, [1, 2])) is None

    def test_integer_systems_lift(self):
        particular, basis = solve(mat_z([[2, 0], [0, 4]]), vector(Ring.Z, [1, 2]))
        assert particular == vector(Ring.Q, [Fraction(1, 2), Fraction(1, 2)])
        assert basis == []

    def test_polynomial_ring_unsupported(self):
        a = Matrix.identity(Ring.QX, 2)
        with pytest.raises(UnsupportedRing):
            solve(a, Matrix.zeros(Ring.QX, 2, 1))

    def test_random_solutions_verify(self):
        rng = random.Random(163)
        for _ in range(40):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            a = random_matrix(rng, Ring.Q, m, n)
            y = random_matrix(rng, Ring.Q, m, 1)
            out = solve(a, y)
            if out is None:
                # certified inconsistent: rank grows when y is appended
                aug = Matrix(Ring.Q, m, n + 1, tuple(
                    e for i in range(1, m + 1) for e in (*a.row(i), y.entry(i, 1))))
                assert hermite_canonical(aug).rank == hermite_canonical(a).rank + 1
                continue
            particular, basis = out
            assert a @ particular == y
            for v in basis:
                assert (a @ v).is_zero()
            assert hermite_canonical(a).rank + len(basis) == n


def _solve_by_transform(a, y):
    """solve by the transform of hermite_canonical: Q y, zero below the
    rank, read at the pivot rows, and the null basis off H."""
    if a.ring is Ring.Z:
        a, y = lift(a, Ring.Q), lift(y, Ring.Q)
    res = hermite_canonical(a)
    hy = res.q @ y
    if any(not hy.entry(i, 1).is_zero() for i in range(res.rank + 1, a.m + 1)):
        return None
    zero, one = Elem.zero(Ring.Q), Elem.one(Ring.Q)
    xs = [zero] * a.n
    for t, j in enumerate(res.primary_cols, start=1):
        xs[j - 1] = hy.entry(t, 1)
    basis = []
    for j_free in range(1, a.n + 1):
        if j_free not in res.primary_cols:
            vec = [zero] * a.n
            vec[j_free - 1] = one
            for t, j in enumerate(res.primary_cols, start=1):
                vec[j - 1] = -res.h.entry(t, j_free)
            basis.append(Matrix.from_rows(Ring.Q, [[v] for v in vec]))
    return Matrix.from_rows(Ring.Q, [[v] for v in xs]), basis


def _system(kind, ring, rng):
    """(A, y) of the kind: tall, wide or square of rank below n, zero, or
    inconsistent (the last row of A the sum of the others, that of y one
    more than the sum), rows shuffled; y = A x or random otherwise."""
    m, n = rng.randint(1, 5), rng.randint(1, 5)
    if kind == "tall":
        m = rng.randint(n + 1, 6)
    elif kind == "wide":
        n = rng.randint(m + 1, 6)
    elif kind == "inconsistent":
        m = max(m, 2)
    if kind == "rank-deficient":
        m, r = n, rng.randint(0, n - 1)
    else:
        r = 0 if kind == "zero" else rng.randint(1, min(m, n))
    a = (random_matrix(rng, ring, m, r) @ random_matrix(rng, ring, r, n) if r
         else Matrix.zeros(ring, m, n))
    y = (a @ random_matrix(rng, ring, n, 1) if rng.random() < 0.5
         else random_matrix(rng, ring, m, 1))
    if kind == "inconsistent":
        arows, yrows = a.rows()[:-1], y.rows()[:-1]
        arows.append([sum(col, Elem.zero(ring)) for col in zip(*arows)])
        yrows.append([sum((v for v, in yrows), Elem.one(ring))])
        order = rng.sample(range(m), m)
        a = Matrix.from_rows(ring, [arows[i] for i in order])
        y = Matrix.from_rows(ring, [yrows[i] for i in order])
    return a, y


@pytest.mark.parametrize("kind", ["tall", "wide", "rank-deficient", "zero", "inconsistent"])
@pytest.mark.parametrize("ring", [Ring.Z, Ring.Q], ids=str)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_solve_matches_the_transform_formula(ring, kind, seed):
    """solve reads x and the null basis off the reduced echelon form of
    [A | y]; they equal those of the formula on the transform."""
    a, y = _system(kind, ring, random.Random(seed))
    out = solve(a, y)
    assert out == _solve_by_transform(a, y)
    if kind == "inconsistent":
        assert out is None
    elif out is not None:
        particular, basis = out
        assert lift(a, Ring.Q) @ particular == lift(y, Ring.Q)
        assert all((lift(a, Ring.Q) @ v).is_zero() for v in basis)


class TestDecomposeUnit:
    def test_single_type_two_op(self):
        u = mat_z([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
        ops = decompose_unit(u)
        assert ops == [row_addmul(2, integer(1), 3)]

    def test_two_by_two_unit_replays(self):
        u = mat_z([[1, -1], [-2, 3]])
        ops = decompose_unit(u)
        replay = Matrix.identity(Ring.Z, 2)
        for op in ops:
            replay = apply_op(replay, op)
        assert replay == u

    def test_negative_diagonal_needs_scale(self):
        u = mat_z([[1, 0], [0, -1]])
        ops = decompose_unit(u)
        assert any(op.kind == "scale" for op in ops)
        replay = Matrix.identity(Ring.Z, 2)
        for op in ops:
            replay = apply_op(replay, op)
        assert replay == u

    def test_non_unit_rejected(self):
        with pytest.raises(NotAUnit):
            decompose_unit(mat_z([[2, 0], [0, 1]]))

    def test_qx_degree_tie_is_broken_by_bits(self):
        # 3x + 1 and x tie in degree; RAW_SIZE takes x, the fewer bits, as
        # the pivot, so no 1/3 enters the word
        u = mat_qx([["3*x+1", "3"], ["x", "1"]])
        assert decompose_unit(u) == [row_addmul(2, polynomial([0, 1]), 1),
                                     row_addmul(1, polynomial([3]), 2)]

    @pytest.mark.parametrize("ring", RINGS)
    def test_random_units_replay(self, ring):
        rng = random.Random(167)
        for _ in range(25):
            n = rng.randint(1, 6)
            u = random_unimodular(rng, ring, n)
            replay = Matrix.identity(ring, n)
            for op in decompose_unit(u):
                replay = apply_op(replay, op)
            assert replay == u


class TestStabilizer:
    def test_identity_any_rank(self):
        for r in range(4):
            assert stabilizer_shape(Matrix.identity(Ring.Z, 3), r)

    def test_three_by_three_rank_one(self):
        p = mat_z([[1, 5, 2], [0, 1, 1], [0, 1, 2]])
        assert stabilizer_shape(p, 1)

    def test_corner_must_be_identity(self):
        assert not stabilizer_shape(mat_z([[2, 0], [0, 1]]), 1)

    def test_trailing_block_must_be_unit(self):
        assert not stabilizer_shape(mat_z([[1, 3], [0, 2]]), 1)

    def test_stabilizing_shapes_fix_canonical_forms(self):
        rng = random.Random(173)
        for _ in range(25):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            a = random_matrix(rng, Ring.Z, m, n, bound=5)
            res = hermite_canonical(a)
            r = res.rank
            # build P = [[I_r, B], [0, C]] with C a random unit block
            p_rows = [[integer(0)] * m for _ in range(m)]
            for i in range(r):
                p_rows[i][i] = integer(1)
                for j in range(r, m):
                    p_rows[i][j] = integer(rng.randint(-3, 3))
            if r < m:
                c_block = random_unimodular(rng, Ring.Z, m - r)
                for i in range(r, m):
                    for j in range(r, m):
                        p_rows[i][j] = c_block.entry(i - r + 1, j - r + 1)
            p = Matrix.from_rows(Ring.Z, p_rows)
            assert p @ res.h == res.h
            assert stabilizer_shape(p, r)


@pytest.mark.parametrize("call,error", [
    (lambda: ElemOp("rotate", "row", 1, 2), ValueError),
    (lambda: ElemOp("swap", "diagonal", 1, 2), ValueError),
    (lambda: ElemOp("addmul", "row", 1, 1, integer(2)), ValueError),
    (lambda: apply_op(mat_z([[1], [2]]), row_swap(1, 3)), IndexOutOfRange),
    (lambda: apply_op(mat_z([[1], [2]]), row_addmul(1, rational(1), 2)), RingMismatch),
    (lambda: clear_column(mat_z([[1], [2]]), 2, [1, 2], 1), IndexOutOfRange),
    (lambda: clear_column(mat_z([[1], [2]]), 1, [1, 2], 3), IndexOutOfRange),
    (lambda: clear_column(mat_z([[1], [2]]), 1, [1, 3], 1), IndexOutOfRange),
    (lambda: solve(mat_q([[1, 0], [0, 1]]), vector(Ring.Q, [1])), ShapeMismatch),
    (lambda: decompose_unit(mat_z([[1, 0]])), NotAUnit),
], ids=["op-kind", "op-axis", "op-same-index", "apply-range", "apply-ring",
        "clear-column-range", "clear-column-chosen-row", "clear-column-listed-row",
        "solve-right-side", "decompose-not-square"])
def test_validation_errors(call, error):
    with pytest.raises(error):
        call()


def test_nonzero_row_after_zero_row_is_not_canonical():
    assert is_hermite_canonical(mat_z([[0, 0], [0, 1]])) is None


@pytest.mark.parametrize("p,r", [
    (mat_z([[1, 0, 0]]), 0),
    (mat_z([[1, 0], [0, 1]]), 3),
    (mat_z([[2, 0], [0, 1]]), 1),
    (mat_z([[1, 0], [1, 1]]), 1),
], ids=["not-square", "r-range", "top-not-identity", "nonzero-below"])
def test_stabilizer_shape_rejects(p, r):
    assert stabilizer_shape(p, r) is False


# column 1 is zero in the pivot row and its gcd survivor lies further down,
# so the elimination must move that row up
ZERO_TOP = {
    Ring.Z: mat_z([[0, 3, 1], [0, 2, 5], [4, 6, 2]]),
    Ring.QX: Matrix.from_rows(Ring.QX, [["0", "x", "1"], ["x+1", "1", "0"],
                                        ["x^2-1", "x", "2"]]),
}
# unit matrices of the same shape, so `inverse` applies on Z and Q[x]
ZERO_TOP_UNIT = {
    Ring.Z: mat_z([[0, 1, 2], [0, 1, 3], [1, 5, 7]]),
    Ring.QX: Matrix.from_rows(Ring.QX, [["0", "1", "0"], ["1", "x", "0"], ["x", "0", "1"]]),
}


@pytest.mark.parametrize("ring", [Ring.Z, Ring.QX])
def test_elimination_builds_no_elem_op(ring, monkeypatch):
    def forbidden(op):
        raise AssertionError(f"the elimination built an ElemOp {op.kind}")

    monkeypatch.setattr(ElemOp, "__post_init__", forbidden)
    a, u = ZERO_TOP[ring], ZERO_TOP_UNIT[ring]
    for run in (hermite_canonical, hermite_form):
        res = run(a)
        assert res.q @ a == res.h and det(res.q).is_unit()
    res = smith(a)
    assert res.p @ a @ res.q == res.d and det(res.p).is_unit() and det(res.q).is_unit()
    assert u @ inverse(u) == Matrix.identity(ring, 3)
    if ring is Ring.Z:
        cert = similar(a, a)
        assert cert is not None and cert.verify(a)
