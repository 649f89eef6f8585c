import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonform.determinant import inverse
from canonform.domain import (
    Elem,
    Ring,
    factor,
    integer,
    polynomial,
    prime_sort_key,
    rational,
)
from canonform.errors import (
    EmptyResult,
    NonLinearElementaryDivisor,
    NotMonic,
    NotSquare,
    RingMismatch,
    ShapeMismatch,
)
from canonform.hermite import hermite_canonical
from canonform.matrix import Matrix, direct_sum, lift, mat_q, mat_qx, mat_z, submatrix
from canonform.smith import smith
from canonform.similarity import (
    CanonicalPresentation,
    SimilarityCertificate,
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
        with pytest.raises(NotMonic, match=r"^companion needs degree >= 1$"):
            companion(poly(1))

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
        from canonform.invariants import elementary_divisors

        def eds(m):
            return elementary_divisors(similarity_invariants(m))

        for _ in range(10):
            b = hypercompanion(rational(rng.randint(-2, 2)), rng.randint(1, 2))
            c = hypercompanion(rational(rng.randint(-2, 2)), rng.randint(1, 2))
            a = direct_sum(b, c)
            combined = sorted(
                eds(b) + eds(c),
                key=lambda pe: (prime_sort_key(pe[0]), pe[1]),
            )
            assert eds(a) == combined


class TestSmithReuse:
    """rcf and jordan read the conjugator off the Smith form of xI - A they
    take the elementary divisors from; similar inverts one constant matrix,
    by elimination, and no polynomial matrix or adjugate."""

    A = mat_q([[-4, -1, -5], [3, 3, 2], [3, 1, 4]])  # Jordan type (2, 2), (-1, 1)

    @pytest.fixture
    def reductions(self, monkeypatch):
        import canonform.similarity as sim
        calls, orig = [], sim._smith_rows

        def counted(ring, rows, p, qt):
            calls.append(rows)
            return orig(ring, rows, p, qt)

        monkeypatch.setattr(sim, "_smith_rows", counted)
        return calls

    @pytest.mark.parametrize("fn,expected", [
        (rcf, 1), (jordan, 1), (lambda a: similar(a, a), 2), (minimal_poly, 1),
    ])
    def test_smith_call_count(self, reductions, fn, expected):
        fn(self.A)
        assert len(reductions) == expected

    @pytest.mark.parametrize("fn", [
        rcf, jordan, lambda a: similar(a, a), minimal_poly,
    ], ids=["rcf", "jordan", "similar", "minimal_poly"])
    def test_similarity_path_never_calls_smith(self, monkeypatch, fn):
        # _char_smith runs the shared reduction without P and certifies it
        # by (xI - A) Q; smith, with its P A Q = D replay, is not reached
        import importlib
        sm, sim = (importlib.import_module(f"canonform.{name}")
                   for name in ("smith", "similarity"))

        def forbidden(a):
            raise AssertionError("smith reached")

        for module in (sm, sim):
            monkeypatch.setattr(module, "smith", forbidden, raising=False)
        fn(self.A)

    @pytest.mark.parametrize("a", [
        A, random_matrix(random.Random(1), Ring.Q, 8, 8), mat_q([[2, 0], [0, 2]]),
        mat_q([[0, 1, 0], [0, 0, 1], [-2, 3, 0]]),
    ], ids=["derogatory", "random-8x8", "scalar", "cyclic"])
    def test_q_x_elimination_acts_on_the_nonunit_block_alone(self, monkeypatch, a):
        # H is read off Krylov relations over Q, so the only Q[x]
        # elimination minimal_poly runs is on Y, k x k for the k nonunit
        # pivots of H, and xI - A is never built
        import importlib
        herm, sim, sm = (importlib.import_module(f"canonform.{name}")
                         for name in ("hermite", "similarity", "smith"))
        h = hermite_canonical(char_matrix(a)).h
        k = sum(not h.entry(t, t).is_one() for t in range(1, a.m + 1))
        sizes = []
        for module in (herm, sm):
            def watched(ring, work, q, orig=module._canonicalize):
                if ring is Ring.QX:
                    sizes.append(len(work))
                return orig(ring, work, q)
            monkeypatch.setattr(module, "_canonicalize", watched)

        def forbidden(a):
            raise AssertionError("char_matrix reached")

        monkeypatch.setattr(sim, "char_matrix", forbidden)
        assert minimal_poly(a) == sim._char_smith(a).diag[-1]
        assert sizes and max(sizes) <= k

    def test_similar_never_reaches_adjugate(self, monkeypatch):
        import canonform.determinant as det_mod

        def forbidden(a):
            raise AssertionError("adjugate reached")

        monkeypatch.setattr(det_mod, "adjugate", forbidden)
        b = mat_q([[2, 1, 0], [0, 2, 0], [0, 0, -1]])
        cert = similar(self.A, b)
        assert cert is not None and cert.verify(self.A)

    def test_similar_inverts_one_polynomial_matrix(self, monkeypatch):
        # S = S_A S_B^-1 inverts the one constant matrix S_B; no Q[x] matrix
        # is inverted and no adjugate is formed
        b = mat_q([[2, 1, 0], [0, 2, 0], [0, 0, -1]])
        inverted = _watch_inverses(monkeypatch)
        cert = similar(self.A, b)
        assert cert is not None and cert.verify(self.A)
        assert inverted == [Ring.Q]


def _watch_inverses(monkeypatch) -> list:
    """The rings of the matrices determinant.inverse is called on; a Q[x]
    inverse, a Q[x] hermite_canonical or an adjugate raises."""
    import canonform.determinant as det_mod
    import canonform.hermite as herm_mod
    inverted = []
    orig_inverse, orig_hermite = det_mod.inverse, herm_mod.hermite_canonical

    def over_q(name, fn, log=None):
        def wrapper(m, *args):
            if m.ring is Ring.QX:
                raise AssertionError(f"{name} of a Q[x] matrix")
            if log is not None:
                log.append(m.ring)
            return fn(m, *args)
        return wrapper

    def forbidden(*args):
        raise AssertionError("adjugate reached")

    monkeypatch.setattr(det_mod, "inverse", over_q("inverse", orig_inverse, inverted))
    monkeypatch.setattr(herm_mod, "hermite_canonical",
                        over_q("hermite_canonical", orig_hermite))
    monkeypatch.setattr(det_mod, "adjugate", forbidden)
    return inverted


def _conjugated(rng, blocks):
    """(U^-1 F U, F) for the direct sum F of the blocks and a random U."""
    form = blocks[0]
    for blk in blocks[1:]:
        form = direct_sum(form, blk)
    u = lift(random_unimodular(rng, Ring.Z, form.m), Ring.Q)
    return inverse(u) @ form @ u, form


def _oracle_corpus():
    """pytest params (call, A, B or None): seeded conjugated Jordan and companion
    inputs, and similar(a, a) on random Q matrices n = 2..7.  rcf gets one
    companion block, since factor declines a product of two rootless
    quadratics; similar takes the direct sum itself and factors nothing."""
    rng = random.Random(20261018)
    cases = []
    for k in range(12):
        jblocks = [hypercompanion(rational(rng.randint(-2, 2), rng.choice([1, 2])),
                                  rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
        cblocks = [companion(poly(rng.randint(-3, 3), rng.randint(-2, 2), 1))
                   for _ in range(rng.randint(1, 2))]
        cases.append(pytest.param(jordan, _conjugated(rng, jblocks)[0], None,
                                  id=f"jordan-{k}"))
        a = _conjugated(rng, jblocks[:1] + cblocks[:1])[0]
        cases.append(pytest.param(rcf, a, None, id=f"rcf-{k}"))
        cases.append(pytest.param(similar, *_conjugated(rng, jblocks + cblocks),
                                  id=f"similar-{k}"))
    for n in range(2, 8):
        a = random_matrix(random.Random(n), Ring.Q, n, n, bound=5)
        cases.append(pytest.param(similar, a, a, id=f"self-{n}"))
    return cases


def _char_q(a):
    """The Q of the Smith form of xI - A that the similarity path builds,
    V (I + Q_Y): H is the Hermite canonical form of xI - A, K the indices
    of its nonunit pivots, Q_Y smith's Q on the block Y of H on K, and V
    the identity but for V_tj = -H_tj, t a unit pivot and j in K; the
    columns of I come first, those of Q_Y (placed on the rows K) after."""
    h = hermite_canonical(char_matrix(a)).h
    n, zero, one = h.m, Elem.zero(Ring.QX), Elem.one(Ring.QX)
    ks = [t for t in range(1, n + 1) if not h.entry(t, t).is_one()]
    qy = smith(submatrix(h, ks, ks)).q
    v = Matrix.from_rows(Ring.QX, [
        [-h.entry(i, j) if j in ks and i not in ks else one if i == j else zero
         for j in range(1, n + 1)] for i in range(1, n + 1)])
    cols = [[one if i == t else zero for i in range(1, n + 1)]
            for t in range(1, n + 1) if t not in ks]
    cols += [[qy.entry(ks.index(i) + 1, c) if i in ks else zero for i in range(1, n + 1)]
             for c in range(1, len(ks) + 1)]
    return v @ Matrix.from_rows(Ring.QX, list(zip(*cols)))


def _old_conjugator(a, b):
    """rho_B(Q_A Q_B^-1), the conjugator similar built before S = S_A S_B^-1."""
    return right_eval(_char_q(a) @ inverse(_char_q(b)), lift(b, Ring.Q))


def _form_of(call, a):
    """The direct sum of the companion (rcf) or Jordan (jordan) blocks of
    the elementary divisors of xI - A, in display order."""
    from canonform.invariants import elementary_divisors
    blocks = [companion(p ** e) if call is rcf else hypercompanion(-p.value[0], e)
              for p, e in elementary_divisors(similarity_invariants(a))]
    form = blocks[0]
    for blk in blocks[1:]:
        form = direct_sum(form, blk)
    return form


@pytest.mark.parametrize("call,a,b", _oracle_corpus())
def test_conjugator_matches_inverted_q_b(call, a, b):
    # similar's S = S_A S_B^-1 equals the former rho_B(Q_A inverse(Q_B));
    # rcf and jordan take S from the Smith form of xI - A alone, so their
    # form and replay are checked
    if b is None:
        cert, form = call(a)
        assert form == _form_of(call, a) and cert.target == form
    else:
        cert = call(a, b)
        assert cert.s == _old_conjugator(a, b)
    assert cert.verify(a)


def _derogatory_corpus():
    """pytest params (A, B), both orders: seeded conjugates of Jordan
    matrices with repeated equal blocks, and of scalar matrices, n = 2..7."""
    rng = random.Random(20261019)
    cases = []
    for n in range(2, 8):
        alpha = rational(rng.randint(-3, 3))
        k = rng.randint(1, n // 2)
        jblocks = [hypercompanion(alpha, k), hypercompanion(alpha, k)]
        if n > 2 * k:
            jblocks.append(hypercompanion(rational(rng.randint(-3, 3)), n - 2 * k))
        scalar = Matrix.identity(Ring.Q, n).scale(alpha)
        for name, blocks in (("jordan", jblocks), ("scalar", [scalar])):
            a, b = _conjugated(rng, blocks)[0], _conjugated(rng, blocks)[0]
            cases.append(pytest.param(a, b, id=f"{name}-{n}"))
            cases.append(pytest.param(b, a, id=f"{name}-{n}-swapped"))
    return cases


@pytest.mark.parametrize("a,b", _derogatory_corpus())
def test_similar_matches_the_old_conjugator_on_derogatory_input(a, b):
    cert = similar(a, b)
    assert cert is not None and cert.verify(a)
    assert cert.s == _old_conjugator(a, b)


def _differential_input(kind, rng, n):
    """A random n x n Q matrix, or a conjugate of a direct sum of Jordan
    or companion blocks of size at most n whose eigenvalues repeat."""
    if kind == "random":
        return random_matrix(rng, Ring.Q, n, n, bound=5)
    blocks, left = [], n
    while left:
        k, alpha = rng.randint(1, left), rng.choice([-1, 0, 2])
        blocks.append(hypercompanion(rational(alpha), k) if kind == "jordan"
                      else companion(poly(-alpha, 1) ** k))
        left -= k
    return _conjugated(rng, blocks)[0]


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("kind", ["random", "jordan", "companion"])
@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_char_smith_matches_smith(kind, n, seed):
    """_char_smith's invariant factors are smith's on xI - A bit for bit;
    each column of Q it returns, one for each nonunit invariant factor
    d_i, is a polynomial c with (xI - A) c divisible by d_i; and the S
    that `_basis` reads off them replays against A."""
    from canonform.similarity import _basis, _char_smith
    a = _differential_input(kind, random.Random(seed), n)
    res = _char_smith(a)
    assert res.diag == smith(char_matrix(a)).diag
    k = sum(not d.is_one() for d in res.diag)
    assert len(res.q) == k and all(len(col) == n for col in res.q)
    for col, d in zip(res.q, res.diag[n - k:]):
        m_col = char_matrix(a) @ Matrix.from_raw(Ring.QX, [[v] for v in col])
        for e in m_col.col(1):
            e.exact_div(d)  # ExactDivisionError unless d divides (xI - A) c
    blocks = [(i, d, rational(0).raw) for i, d in enumerate(res.diag) if not d.is_one()]
    form = companion(blocks[0][1])
    for _, d, _ in blocks[1:]:
        form = direct_sum(form, companion(d))
    assert SimilarityCertificate(_basis(res, blocks), form).verify(a)


def _split_input(kind, rng):
    """(A, k) for an edge case of the split of xI - A: k is the number of
    nonunit pivots its Hermite form has, None where only k >= 2 is known.
    1 x 1: xI - A is x - c.  Scalar cI: xI - A is (x - c) I, so nothing
    splits off.  Cyclic: the transpose of a companion matrix, whose -1s
    below the diagonal make each of the first n - 1 pivots a unit.
    Repeated Jordan blocks: two equal nonunit invariant factors, which
    Y's Smith form needs at least two rows for."""
    n, c = rng.randint(2, 6), rational(rng.randint(-3, 3), rng.choice([1, 2]))
    if kind == "1x1":
        return mat_q([[c.value]]), 1
    if kind == "scalar":
        return Matrix.identity(Ring.Q, n).scale(c), n
    if kind == "cyclic":
        q = poly(1)
        for _ in range(n):
            q = q * poly(-rng.randint(-2, 2), 1)
        return companion(q).transpose(), 1
    k = rng.randint(1, n // 2)
    blocks = [hypercompanion(c, k), hypercompanion(c, k)]
    if n > 2 * k:
        blocks.append(hypercompanion(rational(rng.randint(-3, 3)), n - 2 * k))
    return _conjugated(rng, blocks)[0], None


@pytest.mark.parametrize("kind", ["1x1", "scalar", "cyclic", "repeated"])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_smith_rows_reduces_only_the_nonunit_pivots(kind, seed):
    """The reduction after the Krylov Hermite form gets one row per
    nonunit pivot of the Hermite form of xI - A; the invariant factors
    are smith's, and jordan's S replays."""
    import canonform.similarity as sim
    a, k = _split_input(kind, random.Random(seed))
    h = hermite_canonical(char_matrix(a)).h
    nonunit = sum(not h.entry(t, t).is_one() for t in range(1, a.m + 1))
    assert nonunit == k if k is not None else nonunit >= 2
    sizes, orig = [], sim._smith_rows

    def counted(ring, rows, p, qt):
        sizes.append(len(rows))
        return orig(ring, rows, p, qt)

    sim._smith_rows = counted
    try:
        res = sim._char_smith(a)
    finally:
        sim._smith_rows = orig
    assert sizes == [nonunit]
    assert res.diag == smith(char_matrix(a)).diag
    cert, form = jordan(a)
    assert cert.verify(a) and cert.target == form


class TestVerifyReplay:
    """verify checks det(S) != 0 and A S = S target over Q, never S^-1."""

    A = mat_q([[-4, -1, -5], [3, 3, 2], [3, 1, 4]])
    J = mat_q([[2, 1, 0], [0, 2, 0], [0, 0, -1]])

    def test_singular_commuting_s_is_rejected(self):
        d = mat_q([[1, 0], [0, 2]])
        s = mat_q([[1, 0], [0, 0]])
        assert d @ s == s @ d  # A S = S B holds, but S is singular
        assert SimilarityCertificate(s, d).verify(d) is False

    def test_invertible_s_that_does_not_conjugate(self):
        cert = SimilarityCertificate(mat_q([[1, 1], [0, 1]]), mat_q([[1, 0], [0, 2]]))
        assert cert.verify(mat_q([[2, 0], [0, 1]])) is False

    @pytest.mark.parametrize("ring", [Ring.Z, Ring.QX])
    def test_s_over_another_ring(self, ring):
        b = mat_q([[1, 2], [0, 3]])
        assert SimilarityCertificate(Matrix.identity(Ring.Q, 2), b).verify(b) is True
        assert SimilarityCertificate(Matrix.identity(ring, 2), b).verify(b) is False

    def test_valid_certificates(self):
        cert, form = jordan(self.A)
        assert form == self.J and cert.verify(self.A) is True
        a = mat_z([[2, 1], [0, 3]])
        cert, _ = rcf(a)
        assert cert.verify(a) is True  # a Z source is lifted to Q
        assert SimilarityCertificate(Matrix.identity(Ring.Q, 2),
                                     lift(a, Ring.Q)).verify(a) is True

    def test_replay_inverts_nothing(self, monkeypatch):
        # the two products A S and S target run on raw rows
        import canonform.determinant as det_mod
        import canonform.hermite as herm_mod
        import canonform.similarity as sim
        cert = similar(self.A, self.J)
        calls = {"det": 0, "multiply": 0}
        orig_det, orig_multiply = det_mod.det, sim.raw_multiply

        def forbidden(*args):
            raise AssertionError("a matrix was inverted during the replay")

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(det_mod, "inverse", forbidden)
        monkeypatch.setattr(herm_mod, "hermite_canonical", forbidden)
        monkeypatch.setattr(det_mod, "det", counted("det", orig_det))
        monkeypatch.setattr(sim, "raw_multiply", counted("multiply", orig_multiply))
        assert cert.verify(self.A) is True
        assert calls == {"det": 1, "multiply": 2}

    @pytest.mark.parametrize("fn,expected", [(rcf, []), (jordan, []),
                                             (lambda a: similar(a, a), [Ring.Q])],
                             ids=["rcf", "jordan", "similar"])
    def test_one_inverse_per_conjugator_over_qx(self, fn, expected, monkeypatch):
        # no Q[x] matrix is inverted: similar inverts one Q matrix, S_B, and
        # rcf and jordan none
        inverted = _watch_inverses(monkeypatch)
        cert = fn(self.A)
        cert = cert[0] if isinstance(cert, tuple) else cert
        assert cert.verify(self.A)
        assert inverted == expected


@pytest.mark.parametrize("alpha", [0.1, "1/2", poly(1, 2)], ids=["float", "str", "Q[x]"])
def test_hypercompanion_rejects_non_rational_alpha(alpha):
    with pytest.raises(RingMismatch):
        hypercompanion(alpha, 2)


@pytest.mark.parametrize("alpha", [3, Fraction(1, 2), integer(3), rational(1, 2)])
def test_hypercompanion_takes_exact_alpha(alpha):
    value = Fraction(alpha.value if hasattr(alpha, "value") else alpha)
    assert hypercompanion(alpha, 2) == mat_q([[value, 1], [0, value]])


@pytest.mark.parametrize("call,error", [
    (lambda: char_matrix(mat_q([[1, 2]])), NotSquare),
    (lambda: char_poly(mat_qx([["x"]])), RingMismatch),
    (lambda: canonical_presentation(mat_q([[1]])), RingMismatch),
    (lambda: right_eval(mat_qx([["x", "1"]]), mat_q([[1]])), ShapeMismatch),
    (lambda: scalar_poly_eval(rational(2), mat_q([[1]])), RingMismatch),
    (lambda: companion(poly(3)), NotMonic),
    (lambda: hypercompanion(1, 0), ShapeMismatch),
    (lambda: similar(mat_q([[1]]), mat_q([[1, 0], [0, 1]])), ShapeMismatch),
    (lambda: left_eval(mat_q([[1, 2], [3, 4]]), mat_q([[0, 1], [1, 0]])), RingMismatch),
    (lambda: right_eval(mat_q([[1, 2], [3, 4]]), mat_q([[0, 1], [1, 0]])), RingMismatch),
    (lambda: CanonicalPresentation(()), EmptyResult),
    (lambda: CanonicalPresentation((mat_q([[1]]), mat_q([[1, 2]]))), ShapeMismatch),
    (lambda: CanonicalPresentation((mat_q([[1]]), mat_qx([["x"]]))), RingMismatch),
    (lambda: CanonicalPresentation(([[1]],)), RingMismatch),
], ids=["not-square", "qx-input", "presentation-of-q", "eval-shape",
        "scalar-eval-not-qx", "companion-of-constant", "hypercompanion-k0",
        "similar-sizes", "left-eval-of-q", "right-eval-of-q", "empty-presentation",
        "presentation-shapes", "presentation-of-qx", "presentation-of-list"])
def test_validation_errors(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("call", [jordan, rcf])
def test_diagonal_with_semiprime_entry(call):
    # both roots are found without factoring 2 * 1000000007 * 998244353
    a = mat_q([[2, 0], [0, 998244359987710471]])
    cert, form = call(a)
    assert form == mat_q([[998244359987710471, 0], [0, 2]])
    assert cert.verify(a)


@pytest.mark.parametrize("call", [jordan, rcf])
def test_diagonal_with_unsplittable_entry(call):
    # (2^61 - 1)(2^89 - 1) is beyond the Z factorizer, and no root needs it factored
    n = (2**61 - 1) * (2**89 - 1)
    a = mat_q([[2, 0], [0, n]])
    cert, form = call(a)
    assert form == mat_q([[n, 0], [0, 2]])
    assert cert.verify(a)


@pytest.mark.parametrize("call", [jordan, rcf])
def test_one_by_one_with_unfactorable_entry_is_its_own_form(call):
    # the linear factor x - c is irreducible: c is not factored
    a = mat_q([[998244359987710471]])
    cert, form = call(a)
    assert form == a and cert.verify(a)
