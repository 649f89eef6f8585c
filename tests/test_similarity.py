import random
from fractions import Fraction

import pytest

from canonform.domain import (
    Ring,
    factor,
    polynomial,
    prime_sort_key,
    rational,
)
from canonform.errors import NonLinearElementaryDivisor, NotMonic
from canonform.matrix import Matrix, direct_sum, lift, mat_q, mat_qx, mat_z
from canonform.smith import smith
from canonform.similarity import (
    canonical_presentation,
    char_matrix,
    char_poly,
    companion,
    hypercompanion,
    jordan,
    left_eval,
    minimal_poly,
    rcf,
    right_eval,
    scalar_poly_eval,
    similar,
    similarity_invariants,
)

from conftest import random_matrix, random_unimodular


def poly(*coeffs):
    return polynomial(coeffs)


def trace(a):
    t = a.entry(1, 1)
    for i in range(2, a.m + 1):
        t = t + a.entry(i, i)
    return t


class TestCharMatrix:
    def test_one_by_one(self):
        assert char_matrix(mat_q([[5]])) == mat_qx([["x-5"]])

    def test_companion_band_pattern(self):
        c = companion(poly(-2, 0, 0, 1))  # x^3 - 2... a=(2,0,0)
        cm = char_matrix(c)
        assert cm == mat_qx([
            ["x", "-1", "0"],
            ["0", "x", "-1"],
            ["-2", "0", "x"],
        ])

    def test_hypercompanion_bidiagonal(self):
        h = hypercompanion(rational(3), 3)
        assert char_matrix(h) == mat_qx([
            ["x-3", "-1", "0"],
            ["0", "x-3", "-1"],
            ["0", "0", "x-3"],
        ])


class TestCharPoly:
    def test_companion_recovers_polynomial(self):
        q = poly(2, -3, 1)
        assert char_poly(companion(q)) == q

    def test_identity(self):
        assert char_poly(Matrix.identity(Ring.Q, 3)) == poly(-1, 1) ** 3

    def test_nilpotent(self):
        assert char_poly(mat_q([[0, 1], [0, 0]])) == poly(0, 0, 1)

    def test_random_monic_round_trip(self):
        rng = random.Random(241)
        for _ in range(50):
            k = rng.randint(1, 5)
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(k)] + [Fraction(1)]
            q = polynomial(coeffs)
            assert char_poly(companion(q)) == q

    def test_monic_of_degree_n(self):
        rng = random.Random(251)
        for _ in range(20):
            n = rng.randint(1, 4)
            a = random_matrix(rng, Ring.Q, n, n)
            p = char_poly(a)
            assert p.degree() == n and p.value[-1] == 1


class TestCanonicalPresentation:
    def test_worked_cubic_matrix(self):
        p = mat_qx([
            ["1/3*x^2", "x^3-1/2*x^2"],
            ["2*x^3+2/5", "2*x-3"],
        ])
        pres = canonical_presentation(p)
        assert pres.degree() == 3
        assert pres.coeffs[3] == mat_q([[0, 1], [2, 0]])
        assert pres.coeffs[2] == mat_q([[Fraction(1, 3), Fraction(-1, 2)], [0, 0]])
        assert pres.coeffs[1] == mat_q([[0, 0], [0, 2]])
        assert pres.coeffs[0] == mat_q([[0, 0], [Fraction(2, 5), -3]])
        assert pres.reconstruct() == p

    def test_constant_matrix(self):
        p = mat_qx([[1, 2], [3, 4]])
        pres = canonical_presentation(p)
        assert pres.degree() == 0
        assert pres.coeffs[0] == mat_q([[1, 2], [3, 4]])

    def test_characteristic_shape(self):
        a = mat_q([[1, 2], [3, 4]])
        pres = canonical_presentation(char_matrix(a))
        assert pres.coeffs[1] == Matrix.identity(Ring.Q, 2)
        assert pres.coeffs[0] == -a

    def test_round_trip_random(self):
        rng = random.Random(257)
        for _ in range(30):
            n = rng.randint(1, 3)
            p = random_matrix(rng, Ring.QX, n, n, max_deg=3)
            assert canonical_presentation(p).reconstruct() == p


class TestEvaluation:
    def test_characteristic_matrix_vanishes(self):
        rng = random.Random(263)
        for _ in range(20):
            n = rng.randint(1, 4)
            a = random_matrix(rng, Ring.Q, n, n)
            assert right_eval(char_matrix(a), a).is_zero()
            assert left_eval(char_matrix(a), a).is_zero()

    def test_constant_is_returned(self):
        c = mat_q([[1, 2], [3, 4]])
        a = mat_q([[0, 1], [1, 0]])
        assert right_eval(lift(c, Ring.QX), a) == c

    def test_linearity(self):
        rng = random.Random(269)
        for _ in range(20):
            n = rng.randint(1, 3)
            a = random_matrix(rng, Ring.Q, n, n)
            p = random_matrix(rng, Ring.QX, n, n, max_deg=2)
            q = random_matrix(rng, Ring.QX, n, n, max_deg=2)
            alpha = random_matrix(rng, Ring.Q, n, n)
            beta = random_matrix(rng, Ring.Q, n, n)
            lhs = right_eval(
                lift(alpha, Ring.QX) @ p + lift(beta, Ring.QX) @ q, a)
            rhs = alpha @ right_eval(p, a) + beta @ right_eval(q, a)
            assert lhs == rhs

    def test_quasi_multiplicative(self):
        # rho_A(PQ) = sum_k P_k rho_A(Q) A^k
        rng = random.Random(271)
        for _ in range(20):
            n = rng.randint(1, 3)
            a = random_matrix(rng, Ring.Q, n, n)
            p = random_matrix(rng, Ring.QX, n, n, max_deg=2)
            q = random_matrix(rng, Ring.QX, n, n, max_deg=2)
            lhs = right_eval(p @ q, a)
            rq = right_eval(q, a)
            rhs = Matrix.zeros(Ring.Q, n, n)
            for k, pk in enumerate(canonical_presentation(p).coeffs):
                rhs = rhs + pk @ rq @ a.power(k)
            assert lhs == rhs


class TestSimilarityInvariants:
    def test_companion(self):
        q = poly(1, 1, -2, 1)
        assert similarity_invariants(companion(q)) == (poly(1), poly(1), q)

    def test_hypercompanion(self):
        inv = similarity_invariants(hypercompanion(rational(5), 3))
        assert inv == (poly(1), poly(1), poly(-5, 1) ** 3)

    def test_identity_two(self):
        assert similarity_invariants(Matrix.identity(Ring.Q, 2)) == (
            poly(-1, 1), poly(-1, 1))

    def test_product_is_char_poly(self):
        rng = random.Random(277)
        for _ in range(15):
            n = rng.randint(1, 4)
            a = random_matrix(rng, Ring.Q, n, n)
            prod = poly(1)
            for q in similarity_invariants(a):
                prod = prod * q
            assert prod == char_poly(a)


class TestMinimalPoly:
    def test_identity(self):
        assert minimal_poly(Matrix.identity(Ring.Q, 4)) == poly(-1, 1)

    def test_jordan_block_two(self):
        a = mat_q([[1, 1], [0, 1]])
        # (A - I) != 0 but (A - I)^2 = 0
        shifted = a - Matrix.identity(Ring.Q, 2)
        assert not shifted.is_zero()
        assert (shifted @ shifted).is_zero()
        assert minimal_poly(a) == poly(-1, 1) ** 2

    def test_distinct_eigenvalues(self):
        assert minimal_poly(mat_q([[1, 0], [0, 2]])) == poly(2, -3, 1)

    def test_divides_char_poly_and_annihilates(self):
        rng = random.Random(281)
        for _ in range(20):
            n = rng.randint(1, 4)
            a = random_matrix(rng, Ring.Q, n, n, bound=4)
            mp = minimal_poly(a)
            assert divmod(char_poly(a), mp)[1].is_zero()
            assert scalar_poly_eval(mp, a).is_zero()

    def test_no_proper_divisor_annihilates(self):
        rng = random.Random(283)
        checked = 0
        while checked < 15:
            n = rng.randint(1, 3)
            a = random_matrix(rng, Ring.Q, n, n, bound=3)
            mp = minimal_poly(a)
            try:
                _, powers = factor(mp)
            except Exception:
                continue
            checked += 1
            # all monic divisors except mp itself
            divisors = [poly(1)]
            for p, e in powers:
                divisors = [d * p ** k for d in divisors for k in range(e + 1)]
            for d in divisors:
                if d == mp:
                    continue
                assert not scalar_poly_eval(d, a).is_zero()


class TestCompanionHypercompanion:
    def test_companion_sign_convention(self):
        assert companion(poly(2, -3, 1)) == mat_q([[0, 1], [-2, 3]])

    def test_degree_one(self):
        alpha = Fraction(7, 2)
        assert companion(poly(-alpha, 1)) == mat_q([[alpha]])

    def test_not_monic_rejected(self):
        with pytest.raises(NotMonic):
            companion(poly(1, 2))
        with pytest.raises(NotMonic):
            companion(poly(5))

    def test_hypercompanion_patterns(self):
        assert hypercompanion(rational(4), 1) == mat_q([[4]])
        assert hypercompanion(0, 2) == mat_q([[0, 1], [0, 0]])

    def test_companion_and_hypercompanion_share_invariants(self):
        p = poly(-2, 1) ** 3
        c, h = companion(p), hypercompanion(2, 3)
        assert similarity_invariants(c) == similarity_invariants(h)


class TestRcf:
    def test_single_elementary_divisor_fixed_point(self):
        a = mat_q([[0, 1], [0, 0]])  # one elementary divisor x^2
        cert, form = rcf(a)
        assert form == a
        assert cert.verify(a)

    def test_distinct_eigenvalues(self):
        a = mat_q([[1, 0], [0, 2]])
        cert, form = rcf(a)
        # blocks C(x-2), C(x-1) in display order
        assert form == mat_q([[2, 0], [0, 1]])
        assert cert.verify(a)

    def test_splits_composite_invariant_factor(self):
        # C((x-1)(x-2)) has elementary divisors {x-1, x-2}, so its RCF is
        # the split block sum, not the companion matrix itself
        a = companion(poly(2, -3, 1))
        cert, form = rcf(a)
        assert form == mat_q([[2, 0], [0, 1]])
        assert cert.verify(a)

    def test_char_poly_preserved(self):
        rng = random.Random(293)
        for _ in range(10):
            n = rng.randint(1, 3)
            a = random_matrix(rng, Ring.Q, n, n, bound=3)
            try:
                cert, form = rcf(a)
            except Exception:
                continue
            assert char_poly(form) == char_poly(a)
            assert trace(form) == trace(a)
            assert cert.verify(a)


class TestJordan:
    def test_jordan_block_fixed_point(self):
        a = mat_q([[1, 1], [0, 1]])
        cert, form = jordan(a)
        assert form == a
        assert cert.verify(a)

    def test_nilpotent(self):
        a = mat_q([[0, 1], [0, 0]])
        cert, form = jordan(a)
        assert form == hypercompanion(0, 2)
        assert cert.verify(a)

    def test_rotation_rejected(self):
        with pytest.raises(NonLinearElementaryDivisor):
            jordan(mat_q([[0, -1], [1, 0]]))

    def test_idempotent_on_jordan_forms(self):
        rng = random.Random(307)
        for _ in range(10):
            blocks = [
                hypercompanion(rational(rng.randint(-2, 2)), rng.randint(1, 2))
                for _ in range(rng.randint(1, 3))
            ]
            j = blocks[0]
            for blk in blocks[1:]:
                j = direct_sum(j, blk)
            cert, form = jordan(j)
            assert sorted(
                (form.entry(i, i) for i in range(1, form.m + 1)),
                key=lambda e: e.value,
            ) == sorted(
                (j.entry(i, i) for i in range(1, j.m + 1)),
                key=lambda e: e.value,
            )
            assert cert.verify(j)
            # a second pass reproduces the library ordering exactly
            assert jordan(form)[1] == form


class TestSimilar:
    def test_companion_vs_hypercompanion(self):
        for k in (1, 2, 3, 4):
            p = poly(-3, 1) ** k
            c, h = companion(p), hypercompanion(3, k)
            cert = similar(c, h)
            assert cert is not None
            assert cert.target == h
            assert cert.verify(c)

    def test_self_similarity(self):
        a = mat_q([[1, 2], [3, 4]])
        cert = similar(a, a)
        assert cert is not None and cert.verify(a)

    def test_distinguishes_jordan_structure(self):
        assert similar(Matrix.identity(Ring.Q, 2), mat_q([[1, 1], [0, 1]])) is None

    def test_conjugated_pairs(self):
        rng = random.Random(311)
        for _ in range(10):
            n = rng.randint(1, 3)
            a = random_matrix(rng, Ring.Q, n, n, bound=3)
            s = lift(random_unimodular(rng, Ring.Z, n), Ring.Q)
            from canonform.determinant import inverse
            b = inverse(s) @ a @ s
            cert = similar(a, b)
            assert cert is not None and cert.verify(a)

    def test_integer_inputs_lift(self):
        cert = similar(mat_z([[1, 1], [0, 1]]), mat_z([[1, 0], [1, 1]]))
        assert cert is not None


class TestDirectSumLaw:
    def test_elementary_divisors_of_direct_sum(self):
        rng = random.Random(313)
        from canonform.similarity import _elementary_divisor_polys
        for _ in range(10):
            b = hypercompanion(rational(rng.randint(-2, 2)), rng.randint(1, 2))
            c = hypercompanion(rational(rng.randint(-2, 2)), rng.randint(1, 2))
            a = direct_sum(b, c)
            combined = sorted(
                _elementary_divisor_polys(b) + _elementary_divisor_polys(c),
                key=lambda pe: (prime_sort_key(pe[0]), pe[1]),
            )
            assert _elementary_divisor_polys(a) == combined


class TestSmithReuse:
    """rcf and jordan reuse the Smith form of xI - A for the conjugator, and
    unit witnesses are inverted by elimination, not by adjugates."""

    A = mat_q([[-4, -1, -5], [3, 3, 2], [3, 1, 4]])  # Jordan type (2, 2), (-1, 1)

    @pytest.fixture
    def smith_calls(self, monkeypatch):
        import canonform.similarity as sim
        calls = []

        def counted(m):
            calls.append(m)
            return smith(m)

        monkeypatch.setattr(sim, "smith", counted)
        return calls

    @pytest.mark.parametrize("fn,expected", [
        (rcf, 2), (jordan, 2), (lambda a: similar(a, a), 2), (minimal_poly, 1),
    ])
    def test_smith_call_count(self, smith_calls, fn, expected):
        fn(self.A)
        assert len(smith_calls) == expected

    def test_similar_never_reaches_adjugate(self, monkeypatch):
        import canonform.determinant as det_mod

        def forbidden(a):
            raise AssertionError("adjugate reached")

        monkeypatch.setattr(det_mod, "adjugate", forbidden)
        b = mat_q([[2, 1, 0], [0, 2, 0], [0, 0, -1]])
        cert = similar(self.A, b)
        assert cert is not None and cert.verify(self.A)
