import random
from fractions import Fraction
from itertools import permutations as iter_perms

import pytest
from hypothesis import given, settings, strategies as st

from canonform.determinant import (
    adjugate,
    cramer_solve,
    det,
    det_expansion,
    inverse,
    laplace,
    minor_of_product,
    rank_by_minors,
    restricted_det_sum,
)
from canonform.domain import Ring, integer, rational
from canonform.errors import (
    BadIndexSet,
    NotAUnit,
    NotSquare,
    SingularMatrix,
    TooLargeForOracle,
)
from canonform.matrix import (
    Matrix,
    general_direct_sum,
    mat_q,
    mat_qx,
    mat_z,
    submatrix,
    vector,
)
from canonform.perm import Permutation, sign

from conftest import random_matrix, random_unimodular

RINGS = [Ring.Z, Ring.Q, Ring.QX]

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
CIRCULANT = mat_z([
    [1, 2, 3, 4],
    [2, 3, 4, 1],
    [3, 4, 1, 2],
    [4, 1, 2, 3],
])


class TestDetExpansion:
    def test_direct_sum_13(self):
        assert det_expansion(DIRSUM) == integer(13)

    def test_identity(self):
        for n in (1, 3, 5):
            assert det_expansion(Matrix.identity(Ring.Z, n)) == integer(1)

    def test_general_direct_sum_13(self):
        assert det_expansion(DIRSUM_GENERAL) == integer(13)

    def test_guards(self):
        with pytest.raises(NotSquare):
            det_expansion(mat_z([[1, 2]]))
        with pytest.raises(TooLargeForOracle):
            det_expansion(Matrix.identity(Ring.Z, 9))


class TestDet:
    def test_circulant_160(self):
        assert det(CIRCULANT) == integer(160)

    def test_transpose_invariance(self):
        assert det(CIRCULANT.transpose()) == det(CIRCULANT)

    def test_equal_rows_vanish(self):
        a = mat_z([[1, 2, 3], [4, 5, 6], [1, 2, 3]])
        assert det(a) == integer(0)

    @pytest.mark.parametrize("ring", RINGS)
    def test_matches_expansion(self, ring):
        rng = random.Random(71)
        for _ in range(200):
            n = rng.randint(1, 6)
            a = random_matrix(rng, ring, n, n, bound=6, max_deg=1)
            assert det(a) == det_expansion(a)

    def test_column_permutation_symmetry_exhaustive(self):
        rng = random.Random(73)
        for n in (2, 3, 4):
            a = random_matrix(rng, Ring.Z, n, n)
            base = det(a)
            for images in iter_perms(range(1, n + 1)):
                gamma = Permutation(images)
                permuted = submatrix(a, range(1, n + 1), images)
                assert det(permuted) == base.__mul__(integer(sign(gamma)))

    def test_multilinearity_in_a_row(self):
        rng = random.Random(79)
        for _ in range(40):
            n = rng.randint(2, 4)
            a = random_matrix(rng, Ring.Q, n, n)
            brow = random_matrix(rng, Ring.Q, 1, n)
            t = rng.randint(1, n)
            c, d = rational(rng.randint(-3, 3)), rational(rng.randint(-3, 3))
            rows = a.rows()
            hat = a.rows()
            hat[t - 1] = list(brow.row(1))
            tilde = a.rows()
            tilde[t - 1] = [
                c * x + d * y for x, y in zip(rows[t - 1], hat[t - 1])
            ]
            lhs = det(Matrix.from_rows(Ring.Q, tilde))
            rhs = c * det(a) + d * det(Matrix.from_rows(Ring.Q, hat))
            assert lhs == rhs


class TestLaplace:
    def test_fixed_rows_one_three(self):
        assert laplace(CIRCULANT, [1, 3], "rows") == integer(160)

    def test_six_term_sum(self):
        # the six Delta(X,Y) terms for X={1,3}, in lexicographic Y order
        expected = {
            (1, 2): 20, (1, 3): -64, (1, 4): 20,
            (2, 3): 20, (2, 4): 144, (3, 4): 20,
        }
        total = 0
        for ys, val in expected.items():
            term = restricted_det_sum(CIRCULANT, [1, 3], ys)
            assert term == integer(val)
            total += val
        assert total == 160

    def test_singleton_matches_simple_expansion(self):
        # |X| = 1 reduces to the cofactor expansion along that row
        a = mat_z([[2, -1, 3], [0, 4, 1], [5, 2, 2]])
        for i in (1, 2, 3):
            assert laplace(a, [i], "rows") == det_expansion(a)
            assert laplace(a, [i], "cols") == det_expansion(a)

    def test_matches_expansion_on_random(self):
        rng = random.Random(83)
        for _ in range(50):
            a = random_matrix(rng, Ring.Z, 4, 4)
            assert laplace(a, [1, 3], "rows") == det_expansion(a)

    def test_column_form(self):
        assert laplace(CIRCULANT, [2, 4], "cols") == integer(160)

    def test_bad_sets(self):
        with pytest.raises(BadIndexSet):
            laplace(CIRCULANT, [1, 2, 3, 4], "rows")
        with pytest.raises(BadIndexSet):
            laplace(CIRCULANT, [1], "diag")


class TestRestrictedSums:
    def test_general_direct_sum_gives_det(self):
        assert restricted_det_sum(DIRSUM_GENERAL, [1, 3], [1, 3]) == integer(13)

    def test_sum_over_y_recovers_det(self):
        rng = random.Random(89)
        from itertools import combinations
        for _ in range(20):
            a = random_matrix(rng, Ring.Z, 4, 4)
            total = integer(0)
            for ys in combinations(range(1, 5), 2):
                total = total + restricted_det_sum(a, [1, 2], ys)
            assert total == det_expansion(a)

    def test_diagonal_singleton(self):
        a = mat_z([[2, 0, 0], [0, 5, 0], [0, 0, 7]])
        assert restricted_det_sum(a, [1], [1]) == integer(35 * 2)

    def test_direct_sum_sign_law(self):
        rng = random.Random(97)
        for _ in range(20):
            r, s = rng.randint(1, 2), rng.randint(1, 2)
            b = random_matrix(rng, Ring.Z, r, r)
            c = random_matrix(rng, Ring.Z, s, s)
            pool = list(range(1, r + s + 1))
            xs = sorted(rng.sample(pool, r))
            ys = sorted(rng.sample(pool, r))
            a = general_direct_sum(b, c, xs, ys)
            expected = det_expansion(b) * det_expansion(c)
            if (sum(xs) + sum(ys)) % 2:
                expected = -expected
            assert det_expansion(a) == expected


class TestAdjugate:
    def test_upper_ones_pattern(self):
        a = mat_z([[1 if i <= j else 0 for j in range(4)] for i in range(4)])
        expected = mat_z([
            [1, -1, 0, 0],
            [0, 1, -1, 0],
            [0, 0, 1, -1],
            [0, 0, 0, 1],
        ])
        assert adjugate(a) == expected

    def test_identity(self):
        assert adjugate(Matrix.identity(Ring.Z, 4)) == Matrix.identity(Ring.Z, 4)

    def test_exercise_three_by_three(self):
        a = mat_z([[1, 1, 1], [-1, -2, -2], [1, 2, 1]])
        b = adjugate(a)
        d = det(a)
        assert a @ b == Matrix.identity(Ring.Z, 3).scale(d)
        assert b @ a == Matrix.identity(Ring.Z, 3).scale(d)

    @pytest.mark.parametrize("ring", RINGS)
    def test_product_law_random(self, ring):
        rng = random.Random(101)
        for _ in range(25):
            n = rng.randint(1, 5)
            a = random_matrix(rng, ring, n, n, bound=4, max_deg=1)
            b = adjugate(a)
            d = det(a)
            assert a @ b == Matrix.identity(ring, n).scale(d)
            assert b @ a == Matrix.identity(ring, n).scale(d)


class TestCramer:
    def test_worked_two_by_two(self):
        a = mat_z([[1, 1], [1, -1]])
        x = cramer_solve(a, vector(Ring.Z, [3, 1]))
        assert x == vector(Ring.Q, [2, 1])

    def test_identity(self):
        y = vector(Ring.Q, [Fraction(1, 2), 3, -4])
        assert cramer_solve(Matrix.identity(Ring.Q, 3), y) == y

    def test_exercise_three_by_three(self):
        a = mat_z([[1, 0, 1], [-1, 1, 0], [0, -1, 2]])
        y = vector(Ring.Z, [1, 0, 1])
        x = cramer_solve(a, y)
        # independent oracle: dense Gaussian elimination over Fractions
        grid = [[Fraction(v) for v in row] + [Fraction(rhs)]
                for row, rhs in zip([[1, 0, 1], [-1, 1, 0], [0, -1, 2]], [1, 0, 1])]
        n = 3
        for col in range(n):
            piv = next(r for r in range(col, n) if grid[r][col] != 0)
            grid[col], grid[piv] = grid[piv], grid[col]
            grid[col] = [v / grid[col][col] for v in grid[col]]
            for r in range(n):
                if r != col and grid[r][col] != 0:
                    f = grid[r][col]
                    grid[r] = [v - f * w for v, w in zip(grid[r], grid[col])]
            expected = vector(Ring.Q, [grid[r][n] for r in range(n)])
        assert x == expected
        assert x == vector(Ring.Q, [Fraction(1, 3), Fraction(1, 3), Fraction(2, 3)])

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            cramer_solve(mat_z([[1, 1], [1, 1]]), vector(Ring.Z, [1, 2]))


class TestCauchyBinet:
    A26 = mat_z([
        [2, 5, 4, -2, 2, 1],
        [2, 6, 5, 0, -1, 0],
    ])
    B62 = mat_z([
        [2, 5],
        [1, 1],
        [2, 3],
        [2, 1],
        [3, 1],
        [2, 2],
    ])

    def test_worked_single_term(self):
        af = submatrix(self.A26, (1, 2), (1, 3))
        bf = submatrix(self.B62, (1, 3), (1, 2))
        assert det(af) * det(bf) == integer(-8)

    def test_full_identity_on_worked_pair(self):
        lhs = minor_of_product(self.A26, self.B62, [1, 2], [1, 2])
        assert lhs == det(self.A26 @ self.B62)

    def test_wide_times_tall_vanishes(self):
        # det(AB) = 0 whenever the inner dimension is smaller than n
        rng = random.Random(103)
        for _ in range(20):
            n = rng.randint(2, 4)
            p = rng.randint(1, n - 1)
            a = random_matrix(rng, Ring.Z, n, p)
            b = random_matrix(rng, Ring.Z, p, n)
            assert det(a @ b) == integer(0)

    def test_square_product_rule(self):
        rng = random.Random(107)
        for ring in RINGS:
            for _ in range(20):
                n = rng.randint(1, 4)
                a = random_matrix(rng, ring, n, n, bound=5, max_deg=1)
                b = random_matrix(rng, ring, n, n, bound=5, max_deg=1)
                assert det(a @ b) == det(a) * det(b)

    def test_identity_on_random_shapes(self):
        rng = random.Random(109)
        for _ in range(60):
            arows, p, bcols = (rng.randint(1, 5) for _ in range(3))
            k = rng.randint(1, min(arows, bcols))
            a = random_matrix(rng, Ring.Z, arows, p, bound=4)
            b = random_matrix(rng, Ring.Z, p, bcols, bound=4)
            gs = sorted(rng.sample(range(1, arows + 1), k))
            hs = sorted(rng.sample(range(1, bcols + 1), k))
            value = minor_of_product(a, b, gs, hs)
            assert value == det(submatrix(a @ b, gs, hs))


class TestRank:
    def test_worked_three_by_four(self):
        a = mat_z([[0, 4, 6, 2], [8, 2, 10, 8], [2, 0, 4, 4]])
        assert rank_by_minors(a) == 3

    def test_zero_matrix(self):
        assert rank_by_minors(Matrix.zeros(Ring.Z, 3, 2)) == 0

    def test_identity(self):
        for n in (1, 4):
            assert rank_by_minors(Matrix.identity(Ring.Q, n)) == n

    def test_guard(self):
        with pytest.raises(TooLargeForOracle):
            rank_by_minors(Matrix.zeros(Ring.Z, 7, 7))

    def test_rank_of_product_bound(self):
        rng = random.Random(113)
        for _ in range(30):
            a = random_matrix(rng, Ring.Z, rng.randint(1, 4), rng.randint(1, 4))
            b = random_matrix(rng, Ring.Z, a.n, rng.randint(1, 4))
            assert rank_by_minors(a @ b) <= min(rank_by_minors(a), rank_by_minors(b))

    def test_rank_preserved_by_unimodular(self):
        # equality in the product bound when the other factor is nonsingular
        rng = random.Random(127)
        for _ in range(15):
            a = random_matrix(rng, Ring.Z, 3, 4)
            u = random_unimodular(rng, Ring.Z, 3)
            v = random_unimodular(rng, Ring.Z, 4)
            assert rank_by_minors(u @ a) == rank_by_minors(a)
            assert rank_by_minors(a @ v) == rank_by_minors(a)


class TestInverse:
    def test_worked_integer_unit(self):
        assert inverse(mat_z([[1, -1], [-2, 3]])) == mat_z([[3, 1], [2, 1]])

    def test_identity(self):
        assert inverse(Matrix.identity(Ring.Z, 3)) == Matrix.identity(Ring.Z, 3)

    def test_worked_three_by_three_unit(self):
        q = mat_z([[1, 1, 0], [0, 1, 1], [0, 1, 2]])
        assert inverse(q) == mat_z([[1, -2, 1], [0, 2, -1], [0, -1, 1]])

    def test_non_unit_rejected(self):
        with pytest.raises(NotAUnit):
            inverse(mat_z([[2, 0], [0, 1]]))

    def test_rational_inverse(self):
        a = mat_q([[Fraction(1, 2), 1], [0, 3]])
        assert a @ inverse(a) == Matrix.identity(Ring.Q, 2)

    @pytest.mark.parametrize("ring", RINGS)
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
    def test_random_unit_matches_adjugate(self, ring, seed, n):
        a = random_unimodular(random.Random(seed), ring, n)
        inv = inverse(a)
        assert inv == adjugate(a).scale(det(a).unit_inverse())
        assert a @ inv == Matrix.identity(ring, n)

    @pytest.mark.parametrize("a", [
        mat_z([[2, 1], [4, 3]]),
        mat_qx([["x", "0"], ["0", "1"]]),
        mat_qx([["x+1", "1"], ["x^2", "x"]]),
        mat_q([[1, 2], [Fraction(1, 2), 1]]),
        Matrix.zeros(Ring.Q, 3, 3),
    ])
    def test_non_unit_determinant(self, a):
        assert not det(a).is_unit()
        with pytest.raises(NotAUnit):
            inverse(a)

    def test_non_square(self):
        with pytest.raises(NotSquare):
            inverse(mat_z([[1, 0, 0], [0, 1, 0]]))

    def test_unit_qx_inverse(self):
        u = mat_qx([["1", "x"], ["0", "2"]])
        assert inverse(u) == mat_qx([["1", "-1/2*x"], ["0", "1/2"]])
