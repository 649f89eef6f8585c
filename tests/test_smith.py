import random

import pytest

from canonform.determinant import det
from canonform.domain import (
    Ring,
    canonical_associate,
    gcd,
    integer,
    lcm,
    polynomial,
    rational,
)
from canonform.errors import CertificateFailed, RingMismatch, ZeroArgument
from canonform.invariants import det_divisors_by_minors
from canonform.matrix import Matrix, mat_qx, mat_z
from canonform.smith import diagonalize, smith, smith_2x2

from conftest import random_matrix, random_unimodular

RINGS = [Ring.Z, Ring.Q, Ring.QX]


def assert_smith_shape(res, a):
    assert res.p @ a @ res.q == res.d
    assert det(res.p).is_unit() and det(res.q).is_unit()
    for t, dt in enumerate(res.diag):
        assert not dt.is_zero()
        assert canonical_associate(dt)[1] == dt
        assert res.d.entry(t + 1, t + 1) == dt
        if t:
            assert divmod(dt, res.diag[t - 1])[1].is_zero()
    for i in range(1, res.d.m + 1):
        for j in range(1, res.d.n + 1):
            if i != j or i > res.rank:
                assert res.d.entry(i, j).is_zero()


class TestDiagonalize:
    def test_zero_matrix(self):
        z = Matrix.zeros(Ring.Z, 2, 3)
        p, q, d = diagonalize(z)
        assert p == Matrix.identity(Ring.Z, 2)
        assert q == Matrix.identity(Ring.Z, 3)
        assert d == z

    def test_field_matrix_gets_unit_diagonal(self):
        rng = random.Random(179)
        for _ in range(20):
            a = random_matrix(rng, Ring.Q, rng.randint(1, 4), rng.randint(1, 4))
            p, q, d = diagonalize(a)
            assert p @ a @ q == d
            r = sum(1 for t in range(1, min(d.m, d.n) + 1)
                    if not d.entry(t, t).is_zero())
            for t in range(1, r + 1):
                assert d.entry(t, t) == d.entry(1, 1).one(Ring.Q)

    def test_integer_example_replays(self):
        a = mat_z([[2, 4], [6, 8]])
        p, q, d = diagonalize(a)
        assert p @ a @ q == d
        assert all(d.entry(i, j).is_zero() for i in (1, 2) for j in (1, 2) if i != j)

    def test_trailing_zero_diagonal_is_compacted(self):
        a = mat_z([[0, 0], [0, 2]])
        p, q, d = diagonalize(a)
        assert p @ a @ q == d
        assert d.entry(1, 1) == integer(2)

    @pytest.mark.parametrize("ring", RINGS)
    def test_no_transform_products(self, ring, monkeypatch):
        # P and Q^T are updated row by row in place, never multiplied out
        import canonform.matrix as matrix_mod
        rng = random.Random(181)
        inputs = [random_matrix(rng, ring, rng.randint(2, 4), rng.randint(2, 4))
                  for _ in range(6)]
        calls = []
        orig = matrix_mod.multiply

        def counted(x, y):
            calls.append((x.m, x.n, y.n))
            return orig(x, y)

        monkeypatch.setattr(matrix_mod, "multiply", counted)
        results = [diagonalize(a) for a in inputs]
        assert calls == []
        monkeypatch.undo()
        for a, (p, q, d) in zip(inputs, results):
            assert p @ a @ q == d


class TestSmith2x2:
    def test_eighteen_twelve(self):
        p2, q2, delta, lam = smith_2x2(integer(18), integer(12))
        assert (delta, lam) == (integer(6), integer(36))
        d2 = mat_z([[18, 0], [0, 12]])
        assert p2 @ d2 @ q2 == mat_z([[6, 0], [0, 36]])
        assert det(p2).is_unit() and det(q2).is_unit()

    def test_unit_leading_entry(self):
        p2, q2, delta, lam = smith_2x2(integer(1), integer(7))
        assert (delta, lam) == (integer(1), integer(7))

    def test_coprime_polynomials(self):
        p2, q2, delta, lam = smith_2x2(polynomial([-1, 1]), polynomial([1, 1]))
        assert delta == polynomial([1])
        assert lam == polynomial([-1, 0, 1])

    def test_gcd_lcm_oracle(self):
        rng = random.Random(181)
        for ring in RINGS:
            for _ in range(30):
                from conftest import random_nonzero_elem
                d1 = random_nonzero_elem(rng, ring)
                d2 = random_nonzero_elem(rng, ring)
                p2, q2, delta, lam = smith_2x2(d1, d2)
                assert delta == gcd(d1, d2)
                assert lam == lcm(d1, d2)
                m = Matrix.from_rows(ring, [[d1, d1 - d1], [d2 - d2, d2]])
                assert p2 @ m @ q2 == Matrix.from_rows(
                    ring, [[delta, delta - delta], [lam - lam, lam]])

    def test_zero_rejected(self):
        with pytest.raises(ZeroArgument):
            smith_2x2(integer(0), integer(3))

    def test_mixed_rings_rejected(self):
        with pytest.raises(RingMismatch, match="Z vs Q"):
            smith_2x2(integer(2), rational(3))
        with pytest.raises(RingMismatch, match=r"Q\[x\] vs Z"):
            smith_2x2(polynomial([1, 1]), integer(3))

    def test_inexact_quotient_fails_the_certificate(self, monkeypatch):
        """12 = 2*6 + 0*4 divides neither entry of (6, 4), yet with the
        quotients 0 it passes the four-entry replay (P2 = [[1,1],[0,1]],
        Q2 = [[2,0],[0,0]], lam = 0): only the remainder check catches it."""
        import importlib
        sm = importlib.import_module("canonform.smith")
        monkeypatch.setattr(sm, "raw_egcd", lambda ring, a, b: (12, 2, 0))
        with pytest.raises(CertificateFailed, match="smith_2x2 certificate failed on"):
            smith_2x2(integer(6), integer(4))


class TestSmith:
    def test_two_by_two_via_divisor_oracle(self):
        a = mat_z([[2, 4], [6, 8]])
        res = smith(a)
        fs = det_divisors_by_minors(a)
        assert fs == (integer(1), integer(2), integer(8))
        assert res.diag == (fs[1], fs[2].exact_div(fs[1]))
        assert res.diag == (integer(2), integer(4))
        assert_smith_shape(res, a)

    def test_gcd_lcm_diagonal(self):
        a = mat_z([[18, 0], [0, 12]])
        res = smith(a)
        assert res.diag == (integer(6), integer(36))
        assert_smith_shape(res, a)

    def test_six_four(self):
        a = mat_z([[6, 0], [0, 4]])
        res = smith(a)
        assert res.diag == (integer(2), integer(12))
        assert_smith_shape(res, a)

    def test_rank_one(self):
        a = mat_z([[2, 4], [4, 8]])
        res = smith(a)
        assert res.rank == 1 and res.diag == (integer(2),)
        assert_smith_shape(res, a)

    def test_field_input_trivial(self):
        rng = random.Random(191)
        a = random_matrix(rng, Ring.Q, 3, 3)
        res = smith(a)
        assert all(dt.is_one() for dt in res.diag)
        assert_smith_shape(res, a)

    def test_pairwise_coprime_collapses(self):
        a = mat_z([[2, 0, 0], [0, 3, 0], [0, 0, 5]])
        res = smith(a)
        assert res.diag == (integer(1), integer(1), integer(30))
        assert_smith_shape(res, a)

    def test_zero_matrix(self):
        res = smith(Matrix.zeros(Ring.Z, 3, 2))
        assert res.rank == 0 and res.diag == ()
        assert res.d == Matrix.zeros(Ring.Z, 3, 2)

    def test_polynomial_matrix(self):
        a = mat_qx([["x-1", "0"], ["1", "x+1"]])
        res = smith(a)
        assert_smith_shape(res, a)
        assert res.diag == (polynomial([1]), polynomial([-1, 0, 1]))

    @pytest.mark.parametrize("ring", RINGS)
    def test_random_certificates(self, ring):
        rng = random.Random(193)
        for _ in range(40):
            a = random_matrix(rng, ring, rng.randint(1, 5), rng.randint(1, 5),
                              bound=9, max_deg=2)
            assert_smith_shape(smith(a), a)

    @pytest.mark.parametrize("ring", RINGS)
    def test_equivalence_invariance(self, ring):
        rng = random.Random(197)
        for _ in range(20):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            a = random_matrix(rng, ring, m, n, bound=5, max_deg=1)
            u = random_unimodular(rng, ring, m)
            v = random_unimodular(rng, ring, n)
            assert smith(u @ a @ v).diag == smith(a).diag

    def test_diag_products_are_determinantal_divisors(self):
        rng = random.Random(199)
        for ring in (Ring.Z, Ring.QX):
            for _ in range(15):
                a = random_matrix(rng, ring, rng.randint(1, 4), rng.randint(1, 4),
                                  bound=5, max_deg=1)
                res = smith(a)
                fs = det_divisors_by_minors(a)
                assert len(fs) == res.rank + 1
                prod = integer(1) if ring is Ring.Z else polynomial([1])
                for k, dk in enumerate(res.diag, start=1):
                    prod = prod * dk
                    assert canonical_associate(prod)[1] == fs[k]
