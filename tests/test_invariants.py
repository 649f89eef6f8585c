import random
from fractions import Fraction
from functools import reduce
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from canonform import determinant, invariants
from canonform.determinant import gcd_of_minors
from canonform.domain import (Elem, Ring, canonical, canonical_associate, factor, integer, polynomial,
                              prime_sort_key)
from canonform.errors import (
    BadIndexSet,
    CertificateFailed,
    Error,
    FactorizationIncomplete,
    RankTooSmall,
    RingMismatch,
    ShapeMismatch,
    TooLargeForOracle,
)
from canonform.invariants import (
    det_divisors_by_minors,
    elementary_divisor_values,
    elementary_divisors,
    equivalent,
    invariant_factors_from_elementary,
    invariant_report,
)
from canonform.matrix import Matrix, direct_sum, mat_qx, mat_z
from canonform.similarity import char_matrix, companion, rcf

from conftest import random_matrix, random_unimodular

A34 = mat_z([[0, 4, 6, 2], [8, 2, 10, 8], [2, 0, 4, 4]])


def _no_det(a):
    raise AssertionError("a minor oracle computed a determinant past its budget")


class TestDetDivisorsByMinors:
    def test_worked_three_by_four(self):
        assert det_divisors_by_minors(A34) == tuple(
            integer(v) for v in (1, 2, 4, 72))

    def test_identity(self):
        assert det_divisors_by_minors(Matrix.identity(Ring.Z, 4)) == (
            integer(1),) * 5

    def test_zero_matrix(self):
        assert det_divisors_by_minors(Matrix.zeros(Ring.Z, 2, 3)) == (integer(1),)

    def test_budget_allows_seven_by_seven(self):
        # 3431 minors is inside the 5000 budget even though min(m,n) > 4
        assert det_divisors_by_minors(Matrix.zeros(Ring.Z, 7, 7)) == (integer(1),)

    def test_guard(self):
        with pytest.raises(TooLargeForOracle):
            det_divisors_by_minors(Matrix.zeros(Ring.Z, 8, 8))

    def test_minors_of_order_zero_have_gcd_one(self):
        # f_0, the first entry of the f-sequence, also of a zero matrix
        assert gcd_of_minors(A34, 0) == integer(1) == det_divisors_by_minors(A34)[0]
        assert gcd_of_minors(Matrix.zeros(Ring.QX, 2, 3), 0) == polynomial([1])

    def test_negative_minor_order_is_a_named_error(self):
        with pytest.raises(BadIndexSet, match="k = -1 is negative") as exc:
            gcd_of_minors(A34, -1)
        assert isinstance(exc.value, Error)

    def test_guard_holds_for_four_rows(self, monkeypatch):
        # 6 A keeps every gcd at 6 or more, so no early exit at 1 would
        # end the 70,058,750 minors of a 4 x 200 input
        a = random_matrix(random.Random(41), Ring.Z, 4, 200).scale(integer(6))
        monkeypatch.setattr(determinant, "det", _no_det)
        with pytest.raises(TooLargeForOracle, match="70058750 minors"):
            det_divisors_by_minors(a)
        with pytest.raises(TooLargeForOracle, match="119400 minors"):
            gcd_of_minors(a, 2)


class TestInvariantReport:
    def test_worked_three_by_four(self):
        rep = invariant_report(A34)
        assert rep.rank == 3
        assert rep.det_divisors == tuple(integer(v) for v in (1, 2, 4, 72))
        assert rep.invariant_factors == tuple(integer(v) for v in (2, 2, 18))
        assert elementary_divisor_values(rep.elementary_divisors) == [
            integer(2), integer(2), integer(2), integer(9)]

    def test_diag_2_4(self):
        rep = invariant_report(mat_z([[2, 0], [0, 4]]))
        assert rep.elementary_divisors == (
            (integer(2), 1), (integer(2), 2))

    def test_companion_char_matrix(self):
        # xI - C(q) has invariant factors (1, ..., 1, q)
        q = polynomial([2, 0, -3, 1])
        rep = invariant_report(char_matrix(companion(q)))
        assert rep.det_divisors == (
            polynomial([1]), polynomial([1]), polynomial([1]), q)
        assert rep.invariant_factors == (polynomial([1]), polynomial([1]), q)

    def test_q_consistency(self):
        rep = invariant_report(A34)
        for k in range(1, rep.rank + 1):
            assert rep.det_divisors[k] == rep.det_divisors[k - 1] * \
                rep.invariant_factors[k - 1]

    @pytest.mark.parametrize("ring", [Ring.Z, Ring.QX])
    def test_matches_minor_oracle(self, ring):
        # the central cross-check: f-sequence from the Smith diagonal
        # against the gcd-of-minors oracle; no factorization involved
        from canonform.smith import smith
        rng = random.Random(211)
        for _ in range(150):
            a = random_matrix(rng, ring, rng.randint(1, 4), rng.randint(1, 4),
                              bound=6, max_deg=1)
            res = smith(a)
            fs = [integer(1) if ring is Ring.Z else polynomial([1])]
            for d in res.diag:
                fs.append(fs[-1] * d)
            assert tuple(fs) == det_divisors_by_minors(a)

    def test_divisor_chain(self):
        rng = random.Random(223)
        for ring in (Ring.Z, Ring.QX):
            for _ in range(20):
                a = random_matrix(rng, ring, rng.randint(1, 4), rng.randint(1, 4),
                                  bound=6, max_deg=1)
                fs = det_divisors_by_minors(a)
                for k in range(1, len(fs)):
                    assert divmod(fs[k], fs[k - 1])[1].is_zero()

    @pytest.mark.parametrize("ring", [Ring.Z, Ring.QX])
    def test_equivalence_invariance(self, ring):
        from canonform.errors import FactorizationIncomplete
        from canonform.smith import smith
        rng = random.Random(227)
        for _ in range(15):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            a = random_matrix(rng, ring, m, n, bound=5, max_deg=1)
            u = random_unimodular(rng, ring, m)
            v = random_unimodular(rng, ring, n)
            b = u @ a @ v
            try:
                assert invariant_report(b) == invariant_report(a)
            except FactorizationIncomplete:
                # elementary divisors beyond the factorizer: the factor-free
                # invariants must still agree
                assert smith(b).diag == smith(a).diag

    def test_strong_pseudoprime_is_not_an_elementary_divisor(self):
        # 399165290221 * 798330580441 passes Miller-Rabin to bases 2..37
        rep = invariant_report(mat_z([[318665857834031151167461]]))
        assert rep.elementary_divisors == (
            (integer(399165290221), 1), (integer(798330580441), 1))

    def test_round_trip_through_elementary_divisors(self):
        rng = random.Random(229)
        for _ in range(25):
            a = random_matrix(rng, Ring.Z, rng.randint(1, 4), rng.randint(1, 4))
            rep = invariant_report(a)
            rebuilt = invariant_factors_from_elementary(
                rep.elementary_divisors, rep.rank, Ring.Z)
            assert rebuilt == rep.invariant_factors


class TestReconstruction:
    def test_worked_exponent_table(self):
        # multiset {2,2,3,3,4,4,5,5,7,7,9,9,9,25,49} with rank 6
        eds = []
        for value in (2, 2, 3, 3, 4, 4, 5, 5, 7, 7, 9, 9, 9, 25, 49):
            base, exp = {4: (2, 2), 9: (3, 2), 25: (5, 2), 49: (7, 2)}.get(
                value, (value, 1))
            eds.append((integer(base), exp))
        qs = invariant_factors_from_elementary(eds, 6, Ring.Z)
        assert qs == tuple(integer(v) for v in (1, 3, 6, 630, 1260, 44100))

    def test_single_prime(self):
        assert invariant_factors_from_elementary(
            [(integer(5), 1)], 1, Ring.Z) == (integer(5),)

    def test_zero_padding(self):
        assert invariant_factors_from_elementary(
            [(integer(2), 1), (integer(2), 1)], 3, Ring.Z
        ) == (integer(1), integer(2), integer(2))

    def test_rank_too_small(self):
        with pytest.raises(RankTooSmall):
            invariant_factors_from_elementary(
                [(integer(2), 1)] * 3, 2, Ring.Z)


class TestEquivalent:
    A = mat_z([
        [1, 0, 2, 0, 2, 2],
        [0, 1, 1, 0, 1, 1],
        [0, 0, 0, 1, 1, -1],
    ])
    B = mat_z([
        [1, 1, 3, 0, 3, 3],
        [0, 1, 1, 1, 2, 0],
        [0, 1, 1, 2, 3, -1],
    ])
    D = mat_z([
        [1, 0, 2, 0, 2, 2],
        [0, 1, 1, 0, 1, 1],
        [0, 0, 0, 1, 1, 1],
    ])

    def test_left_unit_pair_is_equivalent(self):
        q = mat_z([[1, 1, 0], [0, 1, 1], [0, 1, 2]])
        assert q @ self.A == self.B
        assert equivalent(self.A, self.B)

    def test_smith_comparison_decides(self):
        # D is not LEFT-unit equivalent to A, yet two-sided equivalence is
        # decided purely by the Smith diagonals
        from canonform.hermite import hermite_canonical
        assert hermite_canonical(self.D).h != hermite_canonical(self.A).h
        expected = det_divisors_by_minors(self.A) == det_divisors_by_minors(self.D)
        assert equivalent(self.A, self.D) == expected

    def test_reflexive(self):
        assert equivalent(self.A, self.A)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            equivalent(self.A, mat_z([[1]]))


def test_product_divisor_exercise():
    # for C = AB, the n-th gcd-of-minors of A and of B both divide C's
    rng = random.Random(233)
    for _ in range(25):
        arows, p, bcols = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        n = rng.randint(1, min(arows, bcols, p))
        a = random_matrix(rng, Ring.Z, arows, p, bound=4)
        b = random_matrix(rng, Ring.Z, p, bcols, bound=4)
        cn = gcd_of_minors(a @ b, n)
        if cn.is_zero():
            continue
        an = gcd_of_minors(a, n)
        bn = gcd_of_minors(b, n)
        assert divmod(cn, an)[1].is_zero()
        assert divmod(cn, bn)[1].is_zero()


def test_report_entries_canonical():
    rng = random.Random(239)
    for ring in (Ring.Z, Ring.QX):
        for _ in range(15):
            a = random_matrix(rng, ring, rng.randint(1, 4), rng.randint(1, 4),
                              bound=5, max_deg=1)
            rep = invariant_report(a)
            for f in rep.det_divisors:
                assert canonical_associate(f)[1] == f
            for q in rep.invariant_factors:
                assert canonical_associate(q)[1] == q
            for prime, exp in rep.elementary_divisors:
                assert exp >= 1
                assert canonical_associate(prime)[1] == prime


@pytest.mark.parametrize("eds,error", [
    ([(polynomial([-1, 1]), 1)], RingMismatch),
    ([(integer(2), 0)], ValueError),
], ids=["ring", "exponent-below-1"])
def test_from_elementary_validation(eds, error):
    with pytest.raises(error):
        invariant_factors_from_elementary(eds, 2, Ring.Z)


# (x^2 + 1)(x^2 + 2) | (x^2 + 1)(x^2 + 2)^2: the first factor is a rootless
# quartic that `factor` cannot split, the last one it can
D1, D2 = polynomial([2, 0, 3, 0, 1]), polynomial([4, 0, 8, 0, 5, 0, 1])
D_EDS = [(polynomial([1, 0, 1]), 1), (polynomial([1, 0, 1]), 1),
         (polynomial([2, 0, 1]), 1), (polynomial([2, 0, 1]), 2)]


class TestChainReadFromItsLastFactor:
    def test_report_and_elementary_divisors(self):
        rep = invariant_report(mat_qx([[str(D1), "0"], ["0", str(D2)]]))
        assert rep.invariant_factors == (D1, D2)
        assert rep.elementary_divisors == tuple(D_EDS)
        assert elementary_divisors([D1, D2]) == D_EDS

    def test_rcf_blocks_are_the_same_prime_powers(self):
        _, form = rcf(direct_sum(companion(D1), companion(D2)))
        assert form == reduce(direct_sum, [companion(p ** e) for p, e in D_EDS])


def _factor_each(chain):
    """The oracle: factor every entry that is not one, then sort the pairs."""
    out = [pe for q in chain if not q.is_one() for pe in factor(q)[1]]
    out.sort(key=lambda pe: (prime_sort_key(pe[0]), pe[1]))
    return out


def _draw_chain(data, primes, units):
    """A divisibility chain of 1 to 4 entries over up to three of primes,
    each entry times one of units."""
    r = data.draw(st.integers(1, 4))
    chain = [units[0]] * r
    for p in data.draw(st.lists(st.sampled_from(primes), max_size=3, unique=True)):
        exps = sorted(data.draw(st.lists(st.integers(0, 3), min_size=r, max_size=r)))
        chain = [q * p ** e for q, e in zip(chain, exps)]
    return [q * data.draw(st.sampled_from(units)) for q in chain]


Z_PRIMES = [integer(p) for p in (2, 3, 5, 7)]
LARGE_PRIMES = [integer(p) for p in (1000003, 1000033, 2147483647)]
QX_PRIMES = [polynomial(c) for c in ([0, 1], [-1, 1], [2, 1], [1, 0, 1], [2, 0, 1],
                                     [1, 1, 1], [-2, 0, 1])]
QX_UNITS = [polynomial([c]) for c in (1, -1, 2, Fraction(-1, 2))]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), ring=st.sampled_from([Ring.Z, Ring.QX]))
def test_prime_powers_match_factoring_each_entry(data, ring):
    if ring is Ring.Z:
        chain = _draw_chain(data, Z_PRIMES, [integer(1), integer(-1)])
        chain[-1] = chain[-1] * data.draw(st.sampled_from(LARGE_PRIMES))
    else:
        chain = _draw_chain(data, QX_PRIMES, QX_UNITS)
    try:
        want = _factor_each(chain)
    except FactorizationIncomplete:
        assume(False)
    with mock.patch.object(invariants, "factor", wraps=invariants.factor) as spy:
        got = invariants._prime_powers(chain)
    assert spy.call_count == 1
    assert [(p, e) for _, p, e in got] == want
    one = Elem.one(ring)
    for i, q in enumerate(chain):
        assert reduce(lambda u, v: u * v, [p ** e for j, p, e in got if j == i], one) \
            == canonical(q)


@pytest.mark.parametrize("chain", [
    [polynomial([0, 1]), polynomial([1])],
    [integer(3), integer(2)],
    [integer(0), integer(2)],
], ids=["x-then-1", "3-then-2", "zero-then-2"])
def test_elementary_divisors_reject_a_list_that_is_not_a_chain(chain):
    with pytest.raises(CertificateFailed, match="do not multiply back"):
        elementary_divisors(chain)


@pytest.mark.parametrize("q,want", [
    (integer(-6), [(integer(2), 1), (integer(3), 1)]),
    (polynomial([0, 2]), [(polynomial([0, 1]), 1)]),
], ids=["minus-6", "2x"])
def test_elementary_divisors_of_a_non_canonical_entry(q, want):
    assert elementary_divisors([q]) == want == _factor_each([q])
