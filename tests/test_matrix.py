import pickle
import random
import time
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from canonform import cli, matrix
from canonform.domain import Elem, Ring, integer, parse_scalar, polynomial, rational
from canonform.errors import (
    BadIndexSet,
    EmptyResult,
    IndexOutOfRange,
    ParseError,
    RingMismatch,
    ShapeMismatch,
)
from canonform.matrix import (
    Matrix,
    direct_sum,
    format_matrix,
    general_direct_sum,
    lift,
    mat_q,
    mat_z,
    multiply,
    parse_matrix,
    parse_matrix_file,
    submatrix,
    submatrix_sets,
    vector,
)

from canonform.invariants import invariant_report
from canonform.similarity import minimal_poly
from conftest import random_matrix, random_unimodular
from test_kernels import SETTINGS, elems

RINGS = [Ring.Z, Ring.Q, Ring.QX]

# the worked 4x4 direct sums
B2 = mat_z([[1, 2], [2, 3]])
C2 = mat_z([[3, 4], [4, 1]])
DIRSUM = mat_z([
    [1, 2, 0, 0],
    [2, 3, 0, 0],
    [0, 0, 3, 4],
    [0, 0, 4, 1],
])
DIRSUM_GENERAL = mat_z([
    [1, 0, 2, 0],
    [0, 3, 0, 4],
    [2, 0, 3, 0],
    [0, 4, 0, 1],
])


class TestMultiply:
    def test_gcd_transform_column(self):
        q2 = mat_z([[1, -1], [-2, 3]])
        assert q2 @ vector(Ring.Z, [18, 12]) == vector(Ring.Z, [6, 0])

    def test_identity_law(self):
        a = mat_q([
            [2, 5, 4, -2, 2, 1],
            [0, 1, 1, 0, -1, 0],
            [2, 6, 5, 0, -1, 0],
        ])
        assert Matrix.identity(Ring.Q, 3) @ a == a
        assert a @ Matrix.identity(Ring.Q, 6) == a

    def test_hand_product(self):
        assert mat_z([[1, 2], [2, 3]]) @ mat_z([[3, -2], [-2, 1]]) == mat_z(
            [[-1, 0], [0, -1]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            multiply(mat_z([[1, 2]]), mat_z([[1, 2]]))

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatch):
            multiply(mat_z([[1]]), mat_q([[1]]))

    @pytest.mark.parametrize("ring", RINGS)
    def test_associativity(self, ring):
        rng = random.Random(43)
        for _ in range(25):
            n0, n1, n2, n3 = (rng.randint(1, 4) for _ in range(4))
            a = random_matrix(rng, ring, n0, n1)
            b = random_matrix(rng, ring, n1, n2)
            c = random_matrix(rng, ring, n2, n3)
            assert (a @ b) @ c == a @ (b @ c)

    @pytest.mark.parametrize("ring", RINGS)
    def test_transpose_of_product(self, ring):
        rng = random.Random(47)
        for _ in range(25):
            a = random_matrix(rng, ring, rng.randint(1, 4), rng.randint(1, 4))
            b = random_matrix(rng, ring, a.n, rng.randint(1, 4))
            assert (a @ b).transpose() == b.transpose() @ a.transpose()

    def test_product_selectors_commute(self):
        # (AB)[g|h] = A_g B^h for arbitrary row/col selectors
        rng = random.Random(53)
        for _ in range(25):
            a = random_matrix(rng, Ring.Z, 3, 4)
            b = random_matrix(rng, Ring.Z, 4, 3)
            g = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
            h = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
            lhs = submatrix(a @ b, g, h)
            rhs = submatrix(a, g, range(1, 5)) @ submatrix(b, range(1, 5), h)
            assert lhs == rhs

    def test_power(self):
        a = mat_z([[1, 1], [0, 1]])
        assert a.power(0) == Matrix.identity(Ring.Z, 2)
        assert a.power(5) == mat_z([[1, 5], [0, 1]])

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="negative exponent"):
            mat_z([[1]]).power(-1)

    def test_rows_of_product_are_combinations(self):
        rng = random.Random(59)
        a = random_matrix(rng, Ring.Z, 3, 4)
        b = random_matrix(rng, Ring.Z, 4, 5)
        d = a @ b
        for i in range(1, 4):
            recomputed = Matrix.zeros(Ring.Z, 1, 5)
            for t in range(1, 5):
                row_t = Matrix(Ring.Z, 1, 5, b.row(t))
                recomputed = recomputed + row_t.scale(a.entry(i, t))
            assert recomputed.row(1) == d.row(i)


class TestTranspose:
    def test_two_by_two_pattern(self):
        assert mat_z([[1, 2], [3, 4]]).transpose() == mat_z([[1, 3], [2, 4]])

    def test_involution(self):
        a = mat_z([[0, 4, 6, 2], [8, 2, 10, 8], [2, 0, 4, 4]])
        assert a.transpose().transpose() == a

    def test_worked_two_by_three(self):
        x = mat_z([[1, 2, 3], [4, 5, 6]])
        assert x.transpose() == mat_z([[1, 4], [2, 5], [3, 6]])


class TestSubmatrix:
    X23 = mat_z([[1, 2, 3], [4, 5, 6]])

    def test_worked_selector_example(self):
        y = submatrix(self.X23, (1, 2, 1), (2, 3, 2, 1))
        assert y == mat_z([[2, 3, 2, 1], [5, 6, 5, 4], [2, 3, 2, 1]])

    def test_identity_selectors(self):
        assert submatrix(self.X23, (1, 2), (1, 2, 3)) == self.X23

    def test_transpose_selector_swap(self):
        f, g = (1, 2, 1), (2, 3, 2, 1)
        lhs = submatrix(self.X23, f, g).transpose()
        rhs = submatrix(self.X23.transpose(), g, f)
        assert lhs == rhs

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            submatrix(self.X23, (3,), (1,))


class TestSubmatrixSets:
    A44 = mat_z([[11, 12, 13, 14],
                 [21, 22, 23, 24],
                 [31, 32, 33, 34],
                 [41, 42, 43, 44]])

    def test_drop_drop_pattern(self):
        # A(2|3): rows 1,3,4 and cols 1,2,4 survive
        out = submatrix_sets(self.A44, [2], [3], "drop-drop")
        assert out == mat_z([[11, 12, 14], [31, 32, 34], [41, 42, 44]])

    def test_keep_all_is_identity(self):
        out = submatrix_sets(self.A44, range(1, 5), range(1, 5), "keep-keep")
        assert out == self.A44

    def test_keep_keep(self):
        a = mat_z([[1, 2, 3], [4, 5, 6], [7, 8, 9], [10, 11, 12]])
        assert submatrix_sets(a, [1, 3], [1, 2]) == mat_z([[1, 2], [7, 8]])

    def test_mixed_modes(self):
        assert submatrix_sets(self.A44, [1], [1], "keep-drop") == mat_z(
            [[12, 13, 14]])
        assert submatrix_sets(self.A44, [1], [1], "drop-keep") == mat_z(
            [[21], [31], [41]])

    def test_empty_complement(self):
        with pytest.raises(EmptyResult):
            submatrix_sets(self.A44, range(1, 5), [1], "drop-keep")

    def test_bad_mode(self):
        with pytest.raises(BadIndexSet):
            submatrix_sets(self.A44, [1], [1], "keep")


class TestDirectSums:
    def test_simple(self):
        assert direct_sum(B2, C2) == DIRSUM

    def test_general_at_odd_slots(self):
        assert general_direct_sum(B2, C2, [1, 3], [1, 3]) == DIRSUM_GENERAL

    def test_zero_block_padding(self):
        out = direct_sum(B2, Matrix.zeros(Ring.Z, 1, 1))
        assert out.row(3) == (integer(0),) * 3
        assert out.col(3) == (integer(0),) * 3

    def test_general_with_leading_block_matches_simple(self):
        rng = random.Random(61)
        for _ in range(20):
            r, s = rng.randint(1, 3), rng.randint(1, 3)
            b = random_matrix(rng, Ring.Z, r, r)
            c = random_matrix(rng, Ring.Z, s, s)
            assert general_direct_sum(b, c, range(1, r + 1), range(1, r + 1)) \
                == direct_sum(b, c)

    def test_block_recovery(self):
        a = general_direct_sum(B2, C2, [1, 3], [1, 3])
        assert submatrix_sets(a, [1, 3], [1, 3]) == B2
        assert submatrix_sets(a, [1, 3], [1, 3], "drop-drop") == C2
        assert submatrix_sets(a, [1, 3], [1, 3], "keep-drop").is_zero()
        assert submatrix_sets(a, [1, 3], [1, 3], "drop-keep").is_zero()

    def test_bad_sets(self):
        with pytest.raises(BadIndexSet):
            general_direct_sum(B2, C2, [1], [1, 3])
        with pytest.raises(ShapeMismatch):
            direct_sum(mat_z([[1, 2]]), C2)


class TestFileFormat:
    def test_golden_file(self):
        text = "ring Z\nrows 2\ncols 3\n1 -2 3\n0 4 5\n"
        assert format_matrix(parse_matrix(text)) == text

    def test_polynomial_entries(self):
        text = "ring Q[x]\nrows 1\ncols 2\nx^2-1 -1/2*x\n"
        m = parse_matrix(text)
        assert m.ring is Ring.QX
        assert format_matrix(m) == text

    @pytest.mark.parametrize("ring", RINGS)
    def test_round_trip_random(self, ring):
        rng = random.Random(67)
        for _ in range(200):
            a = random_matrix(rng, ring, rng.randint(1, 5), rng.randint(1, 5))
            assert parse_matrix(format_matrix(a)) == a

    @pytest.mark.parametrize("text", [
        "ring Z\nrows 0\ncols 1\n",
        "ring F\nrows 1\ncols 1\n1\n",
        "ring Z\nrows 1\ncols 2\n1\n",
        "ring Z\nrows 2\ncols 1\n1\n",
        "ring Q\nrows 1\ncols 1\nx\n",
        "rows 1\ncols 1\n1\n",
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            parse_matrix(text)


def test_empty_matrices_rejected():
    with pytest.raises(ShapeMismatch):
        mat_z([])
    with pytest.raises(ShapeMismatch):
        Matrix(Ring.Z, 0, 1, ())


def test_mixed_entry_rings_rejected():
    with pytest.raises(RingMismatch):
        mat_z([[integer(1), mat_q([[1]]).entry(1, 1)]])


@pytest.mark.parametrize("ring,entry", [
    (Ring.Q, integer(3)),
    (Ring.Z, rational(3)),
    (Ring.QX, rational(1, 2)),
    (Ring.Z, 3),
    (Ring.Q, Fraction(1, 2)),
    (Ring.QX, (Fraction(1),)),
], ids=["Z-in-Q", "Q-in-Z", "Q-in-Q[x]", "int", "Fraction", "tuple"])
def test_constructor_rejects_entries_of_another_ring(ring, entry):
    """The constructor stores raw values, so an entry that is not an Elem
    of the matrix's ring would be misread later; it is refused at once."""
    good = Elem.one(ring)
    with pytest.raises(RingMismatch):
        Matrix(ring, 1, 2, (good, entry))


@pytest.mark.parametrize("ring", RINGS, ids=str)
@SETTINGS
@given(data=st.data())
def test_raw_backed_matrix_keeps_the_matrix_contract(ring, data):
    shape = data.draw(st.sampled_from(["1xn", "mx1", "mxn"]))
    m = 1 if shape == "1xn" else data.draw(st.integers(1, 4))
    n = 1 if shape == "mx1" else data.draw(st.integers(1, 4))
    rows = [data.draw(st.lists(elems(ring), min_size=n, max_size=n)) for _ in range(m)]
    flat = tuple(e for row in rows for e in row)
    a = Matrix.from_rows(ring, rows)
    b = Matrix.from_raw(ring, a.raw_rows())  # no entry of b read yet
    assert b == a and hash(b) == hash(a)
    unread = pickle.dumps(b)
    back = pickle.loads(unread)
    assert back == b and hash(back) == hash(b) and back.ring is ring
    assert back.entries == flat
    assert repr(b) == f"Matrix(ring={ring!r}, m={m!r}, n={n!r}, entries={flat!r})"
    assert pickle.loads(pickle.dumps(b)) == a  # once read as well
    # the cached Elems stay out of a pickle, also when the constructor kept them
    assert len(pickle.dumps(b)) == len(unread)
    c = Matrix(ring, m, n, b.entries)
    assert len(pickle.dumps(c)) == len(pickle.dumps(Matrix.from_raw(ring, c.raw_rows())))
    for name in ("ring", "m", "n", "entries", "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(b, name, None)
    with pytest.raises(FrozenInstanceError):
        del b.m
    t = Matrix.from_raw(ring, a.raw_rows()).transpose()
    assert (t.m, t.n) == (n, m) and t.transpose() == a
    assert all(t.entry(j, i) == a.entry(i, j)
               for i in range(1, m + 1) for j in range(1, n + 1))
    raw = b.raw_rows()
    raw[0][0] = Elem.one(ring).raw if a.entry(1, 1).is_zero() else Elem.zero(ring).raw
    raw[-1].append(raw[0][0])
    raw.append(list(raw[0]))
    assert b == a and b.raw_rows() == a.raw_rows() and b.entries == flat


@pytest.fixture
def matrix_wraps(monkeypatch):
    """The number of Elems matrix.py builds, counted from now on."""
    made = []
    build = matrix._mk

    def counted(ring, raw):
        made.append(raw)
        return build(ring, raw)

    monkeypatch.setattr(matrix, "_mk", counted)
    return made


def test_invariant_report_wraps_no_matrix(matrix_wraps):
    """smith's P, Q and D pass between layers as raw values: none of the
    n^2 entries of a 12x12 input is wrapped when only the diagonal is read."""
    rng, n = random.Random(18), 12
    d = [1] * (n - 3) + [2, 6, 12]
    diag = Matrix.from_rows(Ring.Z, [[d[i] if i == j else 0 for j in range(n)]
                                     for i in range(n)])
    a = random_unimodular(rng, Ring.Z, n) @ diag @ random_unimodular(rng, Ring.Z, n)
    matrix_wraps.clear()
    rep = invariant_report(a)
    assert [q.value for q in rep.invariant_factors] == d
    assert len(matrix_wraps) < n * n


def test_minimal_poly_wraps_no_matrix(matrix_wraps):
    """xI - A, its Smith transforms and D stay raw on the way to the
    minimal polynomial of a 6x6 Q matrix."""
    n = 6
    a = random_matrix(random.Random(18), Ring.Q, n, n, bound=3)
    matrix_wraps.clear()
    assert minimal_poly(a).degree() <= n
    assert len(matrix_wraps) < n * n


@pytest.mark.parametrize("argv", [["smith", "--verify", "--json"],
                                  ["hermite", "--canonical", "--verify", "--json"]],
                         ids=["smith", "hermite"])
def test_cli_prints_without_wrapping(argv, matrix_wraps, tmp_path, capsys):
    """The CLI prints every entry of P, Q and D (or Q and H) of a 12x12
    input from raw values; cli.py builds no Elem of its own."""
    rng, n = random.Random(19), 12
    a = random_unimodular(rng, Ring.Z, n) @ random_matrix(rng, Ring.Z, n, n, bound=3)
    path = tmp_path / "a.mtx"
    path.write_text(format_matrix(a))
    matrix_wraps.clear()
    assert cli.main([argv[0], str(path), *argv[1:]]) == 0
    assert '"verified": true' in capsys.readouterr().out
    assert len(matrix_wraps) < n * n


def test_format_matrix_wraps_no_entry(matrix_wraps):
    n = 6
    a = random_matrix(random.Random(19), Ring.QX, n, n, bound=3)
    b = Matrix.from_raw(Ring.QX, a.raw_rows())  # no entry of b read yet
    matrix_wraps.clear()
    assert parse_matrix(format_matrix(b)) == a
    assert len(matrix_wraps) < n * n


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_power_equals_repeated_product(ring):
    a = random_matrix(random.Random(f"power/{ring}"), ring, 3, 3, bound=3, max_deg=1)
    acc = Matrix.identity(ring, 3)
    for e in range(10):
        assert a.power(e) == acc
        acc = acc @ a
    with pytest.raises(ValueError, match="negative exponent"):
        a.power(-1)


def test_power_of_a_jordan_block():
    assert mat_z([[2, 1], [0, 2]]).power(10) == mat_z([[1024, 5120], [0, 1024]])


def test_non_utf8_file_is_a_parse_error(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_bytes(b"ring Z\nrows 1\ncols 1\n\xff\n")
    with pytest.raises(ParseError, match="cannot read"):
        parse_matrix_file(str(path))


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_parse_matrix_equals_from_rows_of_parsed_elems(ring):
    rng = random.Random(f"parse/{ring}")
    for _ in range(50):
        text = format_matrix(random_matrix(rng, ring, rng.randint(1, 4), rng.randint(1, 4)))
        elems = [[parse_scalar(t, ring) for t in line.split()]
                 for line in text.splitlines()[3:]]
        assert parse_matrix(text) == Matrix.from_rows(ring, elems)


def power_file(n: int) -> str:
    """An n x n Q[x] file whose every entry is x^10000, the degree cap."""
    return f"ring Q[x]\nrows {n}\ncols {n}\n" + f"{' '.join(['x^10000'] * n)}\n" * n


def test_degree_cap_entries_parse_quickly():
    start = time.perf_counter()
    a = parse_matrix(power_file(10))
    assert time.perf_counter() - start < 0.25
    assert a.entry(10, 10) == polynomial([0] * 10000 + [1])


def test_coefficient_slot_budget():
    """400 entries of degree 10000 hold 4,000,400 slots, under 2**22;
    441 hold 4,410,441 and stop the parse at the first entry past it."""
    assert parse_matrix(power_file(20)).entry(20, 20).degree() == 10000
    with pytest.raises(ParseError, match=r"^line 23: Q\[x\] entries exceed the parser "
                                         r"limit of 4194304 coefficient slots$"):
        parse_matrix(power_file(21))


def test_byte_order_mark_is_skipped(tmp_path):
    text = "ring Q\nrows 2\ncols 2\n1/2 -3\n0 7/4\n"
    plain, marked = tmp_path / "plain.mtx", tmp_path / "bom.mtx"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
    assert parse_matrix_file(str(marked)) == parse_matrix_file(str(plain)) == parse_matrix(text)


@pytest.mark.parametrize("call,error", [
    (lambda: Matrix(Ring.Z, 2, 2, (Elem.one(Ring.Z),)), ShapeMismatch),
    (lambda: mat_z([[1, 2], [3]]), ShapeMismatch),
    (lambda: mat_z([[1]]).entry(2, 1), IndexOutOfRange),
    (lambda: mat_z([[1]]) + mat_z([[1, 2]]), ShapeMismatch),
    (lambda: mat_z([[1, 2]]).power(2), ShapeMismatch),
    (lambda: submatrix(mat_z([[1]]), [], [1]), BadIndexSet),
    (lambda: submatrix_sets(mat_z([[1]]), [2], [1]), IndexOutOfRange),
    (lambda: submatrix_sets(mat_z([[1, 2], [3, 4]]), [1], [1], "keep"), BadIndexSet),
    (lambda: general_direct_sum(mat_z([[1]]), mat_z([[2]]), [3], [1]), BadIndexSet),
    (lambda: lift(mat_q([[1]]), Ring.Z), RingMismatch),
    (lambda: parse_matrix("ring Z\nrows 1\n"), ParseError),
    (lambda: parse_matrix("ring Z\nrows one\ncols 1\n1\n"), ParseError),
    (lambda: parse_matrix("ring Z\nrows 1\ncols 1.5\n1\n"), ParseError),
], ids=["entry-count", "ragged", "entry-range", "add-shapes", "power-not-square",
        "empty-selector", "sets-range", "sets-mode", "direct-sum-range", "lift-q-to-z",
        "short-header", "rows-not-int", "cols-not-int"])
def test_validation_errors(call, error):
    with pytest.raises(error):
        call()
