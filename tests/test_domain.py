import math
import pickle
import random
import time
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from canonform.domain import (
    _is_prime_mr,
    _qadd,
    _qdivmod,
    _qmul,
    _qneg,
    Elem,
    Ring,
    canonical_associate,
    canonical_residue,
    coerce,
    egcd,
    factor,
    format_scalar,
    gcd,
    integer,
    lcm,
    monomial,
    parse_raw,
    parse_scalar,
    polynomial,
    rational,
    valuation,
)
from canonform.errors import (
    CertificateFailed,
    DivisionByZero,
    FactorizationIncomplete,
    NotAUnit,
    OutputTooLarge,
    ParseError,
    RingMismatch,
    ZeroArgument,
    ZeroModulus,
)
from canonform.matrix import Matrix, format_matrix, mat_z, parse_matrix

from conftest import random_elem, random_nonzero_elem

RINGS = [Ring.Z, Ring.Q, Ring.QX]


def poly(*coeffs):
    return polynomial(coeffs)


class TestArithmetic:
    def test_integer_product(self):
        assert integer(3) * integer(4) == integer(12)

    def test_polynomial_additive_inverse_is_trimmed(self):
        p = poly(1, 1)
        assert (p + (-p)) == polynomial([])
        assert (p + (-p)).value == ()

    def test_rational_product_reduces(self):
        assert rational(1, 2) * rational(2, 3) == rational(1, 3)
        assert (rational(1, 2) * rational(2, 3)).value == Fraction(1, 3)

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatch):
            integer(1) + rational(1)

    def test_int_coercion(self):
        assert rational(1, 2) + 1 == rational(3, 2)
        assert poly(0, 1) * 2 == poly(0, 2)


class TestConstructor:
    def test_q_value_is_a_fraction(self):
        three = Elem(Ring.Q, 3)
        assert three.value == Fraction(3) and type(three.value) is Fraction
        assert three.unit_inverse().value == Fraction(1, 3)
        assert divmod(three, Elem(Ring.Q, 2))[0].value == Fraction(3, 2)
        assert three.raw == ((3,), 1)

    def test_qx_scalar(self):
        assert Elem(Ring.QX, 5) == polynomial([5])
        assert Elem(Ring.QX, Fraction(1, 2)) == polynomial([Fraction(1, 2)])

    @pytest.mark.parametrize("ring,value", [
        (Ring.Z, 3), (Ring.Z, True), (Ring.Q, 3), (Ring.Q, Fraction(1, 2)),
        (Ring.QX, 3), (Ring.QX, Fraction(1, 2)), (Ring.QX, [1, Fraction(1, 2)]),
        (Ring.QX, (0, 1)),
    ])
    def test_agrees_with_coerce(self, ring, value):
        e = Elem(ring, value)
        assert e == coerce(ring, value)
        assert type(e.raw) is type(coerce(ring, value).raw)

    @pytest.mark.parametrize("ring,value", [
        (Ring.Z, 2.5), (Ring.Z, Fraction(1, 2)), (Ring.Z, "3"), (Ring.Q, 0.5),
        (Ring.Q, [1]), (Ring.QX, 0.5), (Ring.QX, "x"), (Ring.QX, integer(1)),
    ])
    def test_rejects_other_values(self, ring, value):
        with pytest.raises(RingMismatch, match="cannot coerce"):
            Elem(ring, value)

    def test_integer_validates(self):
        with pytest.raises(RingMismatch):
            integer(2.5)

    @pytest.mark.parametrize("op", [
        lambda: integer(1) + 1.5, lambda: 1.5 + integer(1),
        lambda: divmod(integer(3), 1.5), lambda: rational(1) * 0.5,
    ], ids=["add", "radd", "divmod", "mul"])
    def test_arithmetic_operands_go_through_constructor(self, op):
        with pytest.raises(RingMismatch, match="cannot coerce"):
            op()

    def test_fraction_operand_on_q(self):
        assert rational(1) + Fraction(1, 2) == rational(3, 2)
        assert Fraction(1, 2) + rational(1) == rational(3, 2)

    @pytest.mark.parametrize("build", [
        lambda: Elem(Ring.QX, [0.1]), lambda: polynomial([0.1]),
        lambda: polynomial(["1/2"]), lambda: coerce(Ring.QX, [1, 0.5]),
    ], ids=["elem", "polynomial-float", "polynomial-str", "coerce"])
    def test_qx_coefficients_are_ints_or_fractions(self, build):
        with pytest.raises(RingMismatch, match="cannot coerce coefficient"):
            build()

    @pytest.mark.parametrize("args", [(0.1,), (0.5, 1), (1, "2")])
    def test_rational_rejects_other_values(self, args):
        with pytest.raises(RingMismatch):
            rational(*args)

    def test_rational_zero_denominator(self):
        with pytest.raises(DivisionByZero):
            rational(1, 0)
        with pytest.raises(DivisionByZero):
            rational(Fraction(1, 2), Fraction(0))

    def test_bool_is_stored_as_int(self):
        e = Elem(Ring.Z, True)
        assert type(e.raw) is int and e == integer(1)
        a = mat_z([[True, 2], [0, 1]])
        assert format_matrix(a).splitlines()[-2] == "1 2"
        assert parse_matrix(format_matrix(a)) == a

    @pytest.mark.parametrize("ring", RINGS)
    def test_pickle_round_trip(self, ring):
        rng = random.Random(61)
        for _ in range(10):
            e = random_elem(rng, ring)
            back = pickle.loads(pickle.dumps(e))
            assert back == e and type(back.raw) is type(e.raw)
            assert back.ring is ring and hash(back) == hash(e)


class TestDivmod:
    def test_eighteen_twelve(self):
        assert divmod(integer(18), integer(12)) == (integer(1), integer(6))

    def test_negative_dividend_matches_enumeration(self):
        # independent oracle: the unique q with 0 <= -7 - 3q < 3
        candidates = [
            (q, -7 - 3 * q) for q in range(-10, 10) if 0 <= -7 - 3 * q < 3
        ]
        assert candidates == [(-3, 2)]
        assert divmod(integer(-7), integer(3)) == (integer(-3), integer(2))

    def test_exact_polynomial_factor(self):
        q, r = divmod(poly(-1, 0, 1), poly(-1, 1))
        assert q == poly(1, 1) and r.is_zero()

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            divmod(integer(1), integer(0))

    def test_euclidean_property_exhaustive_z(self):
        for a in range(-50, 51):
            for b in range(-50, 51):
                if b == 0:
                    continue
                q, r = divmod(integer(a), integer(b))
                assert integer(b) * q + r == integer(a)
                assert r.is_zero() or valuation(r) < valuation(integer(b))
                assert 0 <= r.value < abs(b)

    @pytest.mark.parametrize("ring", [Ring.Q, Ring.QX])
    def test_euclidean_property_random(self, ring):
        rng = random.Random(101)
        for _ in range(300):
            a = random_elem(rng, ring, max_deg=6)
            b = random_nonzero_elem(rng, ring, max_deg=6)
            q, r = divmod(a, b)
            assert b * q + r == a
            assert r.is_zero() or valuation(r) < valuation(b)


class TestValuation:
    def test_examples(self):
        assert valuation(integer(-5)) == 5
        assert valuation(poly(1, 0, 3)) == 2
        assert valuation(rational(7, 2)) == 1

    def test_zero_rejected(self):
        with pytest.raises(ZeroArgument):
            valuation(polynomial([]))

    @pytest.mark.parametrize("ring", RINGS)
    def test_multiplicative_growth(self, ring):
        # v(a) < v(ab) whenever b is a nonzero non-unit
        rng = random.Random(7)
        for _ in range(200):
            a = random_nonzero_elem(rng, ring)
            b = random_nonzero_elem(rng, ring)
            if b.is_unit():
                assert valuation(a * b) == valuation(a)
            else:
                assert valuation(a) < valuation(a * b)


class TestGcdLcm:
    def test_eighteen_twelve(self):
        assert gcd(integer(18), integer(12)) == integer(6)

    def test_monic_normalization(self):
        assert gcd(poly(2, 2), poly(3, 3)) == poly(1, 1)

    def test_lcm_via_identity(self):
        assert lcm(integer(18), integer(12)) == integer(18 * 12 // 6)

    def test_zero_conventions(self):
        assert gcd(integer(-4), integer(0)) == integer(4)
        assert gcd(integer(0), integer(0)) == integer(0)

    @pytest.mark.parametrize("ring", RINGS)
    def test_gcd_lcm_product_identity(self, ring):
        rng = random.Random(13)
        for _ in range(200):
            a = random_nonzero_elem(rng, ring)
            b = random_nonzero_elem(rng, ring)
            assert gcd(a, b) * lcm(a, b) == canonical_associate(a * b)[1]


class TestEgcd:
    def test_eighteen_twelve_bezout(self):
        assert egcd(integer(18), integer(12)) == (integer(6), integer(1), integer(-1))

    def test_one_sided(self):
        d, s, t = egcd(integer(-4), integer(0))
        assert d == integer(4) and t == integer(0) and s * integer(-4) == d

    def test_divisor_pair(self):
        d, s, t = egcd(poly(-1, 0, 1), poly(-1, 1))
        assert d == poly(-1, 1)
        assert s * poly(-1, 0, 1) + t * poly(-1, 1) == d

    def test_both_zero_rejected(self):
        with pytest.raises(ZeroArgument):
            egcd(integer(0), integer(0))

    @pytest.mark.parametrize("ring", RINGS)
    def test_bezout_property(self, ring):
        rng = random.Random(17)
        for _ in range(200):
            a = random_elem(rng, ring)
            b = random_elem(rng, ring)
            if a.is_zero() and b.is_zero():
                continue
            d, s, t = egcd(a, b)
            assert s * a + t * b == d
            assert d == gcd(a, b)
            if not a.is_zero():
                assert divmod(a, d)[1].is_zero()
            if not b.is_zero():
                assert divmod(b, d)[1].is_zero()


class TestCanonicalForms:
    def test_associate_examples(self):
        assert canonical_associate(integer(-5)) == (integer(-1), integer(5))
        assert canonical_associate(poly(4, 2)) == (
            polynomial([Fraction(1, 2)]), poly(2, 1))
        assert canonical_associate(rational(-3, 7)) == (rational(-7, 3), rational(1))

    def test_residue_examples(self):
        assert canonical_residue(integer(7), integer(3)) == integer(1)
        assert canonical_residue(poly(0, 0, 1), poly(-1, 1)) == poly(1)
        assert canonical_residue(rational(5, 2), rational(3)) == rational(0)

    def test_polynomial_residue_by_long_division(self):
        # x^2 = (x+1)(x-1) + 1
        assert poly(-1, 1) * poly(1, 1) + poly(1) == poly(0, 0, 1)

    def test_zero_modulus(self):
        with pytest.raises(ZeroModulus):
            canonical_residue(integer(1), integer(0))

    @pytest.mark.parametrize("ring", RINGS)
    def test_residue_difference_divisible(self, ring):
        rng = random.Random(19)
        for _ in range(200):
            a = random_elem(rng, ring)
            m = random_nonzero_elem(rng, ring)
            r = canonical_residue(a, m)
            assert divmod(a - r, m)[1].is_zero()


class TestFactor:
    def test_44100(self):
        unit, powers = factor(integer(44100))
        assert unit == integer(1)
        assert powers == tuple(
            (integer(p), 2) for p in (2, 3, 5, 7))

    def test_difference_of_squares(self):
        unit, powers = factor(poly(-1, 0, 1))
        assert unit == poly(1)
        assert powers == ((poly(-1, 1), 1), (poly(1, 1), 1))

    def test_irreducible_quadratic(self):
        unit, powers = factor(poly(1, 0, 1))
        assert powers == ((poly(1, 0, 1), 1),)

    def test_rationals_are_units(self):
        assert factor(rational(-3, 7)) == (rational(-3, 7), ())

    def test_zero_rejected(self):
        with pytest.raises(ZeroArgument):
            factor(integer(0))

    def test_degree_four_irreducible_declines(self):
        # x^4 + 1 has no rational root, but may still split into quadratics
        with pytest.raises(FactorizationIncomplete):
            factor(poly(1, 0, 0, 0, 1))

    def test_rootless_cubic_is_irreducible(self):
        assert factor(poly(-2, 0, 0, 1)) == (poly(1), ((poly(-2, 0, 0, 1), 1),))
        assert factor(poly(-4, 0, 0, 2)) == (poly(2), ((poly(-2, 0, 0, 1), 1),))

    def test_cubic_with_rational_root_splits(self):
        # 2x^3 - x^2 + 2x - 1 = (2x - 1)(x^2 + 1)
        assert factor(poly(-1, 2, -1, 2))[1] == (
            (poly(Fraction(-1, 2), 1), 1), (poly(1, 0, 1), 1))

    @pytest.mark.parametrize("c", [720720, 3603600])
    def test_padic_lift_finds_no_root_of_highly_composite_cubic(self, c):
        # c x^3 + x + c has no rational root, so it is an irreducible cubic
        start = time.perf_counter()
        assert factor(poly(c, 1, 0, c)) == (poly(c), ((poly(1, Fraction(1, c), 0, 1), 1),))
        assert time.perf_counter() - start < 1.0

    def test_linear_factor_constant_is_not_factored(self):
        # 998244359987710471 has no prime factor below 10^6 and is not prime
        p = poly(-998244359987710471, 1)
        assert factor(p) == (poly(1), ((p, 1),))
        assert factor(poly(-998244359987710471, 7)) == (
            poly(7), ((poly(Fraction(-998244359987710471, 7), 1), 1),))

    def test_semiprime_beyond_trial_division_raises_quickly(self):
        # the smaller factor 2^61 - 1 is far beyond the Pollard-Brent budget
        start = time.perf_counter()
        with pytest.raises(FactorizationIncomplete, match="46-digit cofactor"):
            factor(integer((2**61 - 1) * (2**89 - 1)))
        assert time.perf_counter() - start < 5.0

    def test_semiprime_of_ten_digit_primes_splits(self):
        start = time.perf_counter()
        assert factor(integer(-1000000007 * 998244353)) == (
            integer(-1), ((integer(998244353), 1), (integer(1000000007), 1)))
        assert time.perf_counter() - start < 1.0

    def test_padic_lift_splits_semiprime_constant(self):
        # (x - 2)(x - 998244359987710471), the constant 1000000007 * 998244353 * 2
        p, q = poly(-2, 1), poly(-998244359987710471, 1)
        assert factor(p * q) == (poly(1), ((q, 1), (p, 1)))

    def test_roots_with_unsplittable_numerator_split(self):
        # (2^61 - 1)(2^89 - 1) is beyond the Z factorizer; no root needs it factored
        n = (2**61 - 1) * (2**89 - 1)
        p, q = poly(-2, 1), poly(-n, 1)
        assert factor(p * q) == (poly(1), ((q, 1), (p, 1)))
        r = poly(Fraction(-n, 7), 1)
        assert factor(r * r * poly(-3, 0, 1) * 5) == (poly(5), ((r, 2), (poly(-3, 0, 1), 1)))
        assert factor(poly(-n, 0, 0, 1)) == (poly(1), ((poly(-n, 0, 0, 1), 1),))

    def test_rootless_quadratic_over_600_primes_is_quick(self):
        # every prime below the 601st divides the constant, so x^2 has a
        # double root mod each of them and the root finder passes them all
        p = poly(-math.prod(sympy.primerange(2, sympy.prime(600) + 1)), 0, 1)
        start = time.perf_counter()
        assert factor(p) == (poly(1), ((p, 1),))
        assert time.perf_counter() - start < 2.0

    def test_rootless_quadratic_over_1200_primes_is_quick(self):
        # each of the first 1200 primes divides the constant, so x^2 - c is
        # x^2 modulo it; gcd(f, f') in GF(p)[x] rejects such a p without
        # scanning its residues
        p = poly(-math.prod(sympy.primerange(2, sympy.prime(1200) + 1)), 0, 1)
        start = time.perf_counter()
        assert factor(p) == (poly(1), ((p, 1),))
        assert time.perf_counter() - start < 0.5

    def test_qx_factor_factors_no_integer(self, monkeypatch):
        import canonform.domain as dom

        def refuse(n):
            raise AssertionError(f"_factor_int({n}) called")
        monkeypatch.setattr(dom, "_factor_int", refuse)
        a = poly(-6, 1) * poly(Fraction(1, 2), 1) ** 2 * poly(2, 0, 1) * 720720
        assert factor(a) == (poly(720720), (
            (poly(-6, 1), 1), (poly(Fraction(1, 2), 1), 2), (poly(2, 0, 1), 1)))

    def test_split_refuses_a_square(self):
        import canonform.domain as dom
        with pytest.raises(CertificateFailed, match="not squarefree"):
            dom._split_squarefree(poly(-1, 1) ** 2)

    def test_product_of_300_primes_below_a_million_factors(self):
        # each split goes on with the same walk on the cofactor, so the
        # 1800-digit product fits in one _RHO_BUDGET
        primes = list(sympy.primerange(2, 10**6))[-300:]
        start = time.perf_counter()
        assert factor(integer(math.prod(primes))) == (
            integer(1), tuple((integer(p), 1) for p in primes))
        assert time.perf_counter() - start < 2.0

    def test_rho_budget_is_a_named_error(self, monkeypatch):
        import canonform.domain as dom
        monkeypatch.setattr(dom, "_RHO_BUDGET", 10)
        with pytest.raises(FactorizationIncomplete,
                           match="18-digit cofactor .* within 10 word-steps"):
            factor(integer(1000000007 * 998244353))

    def test_rho_budget_is_shared_by_all_splits(self, monkeypatch):
        # 1009 * 1013 * 1019 takes two splits; a budget the first one
        # spends leaves the second nothing
        import canonform.domain as dom
        n = 1009 * 1013 * 1019
        assert factor(integer(n))[1] == tuple((integer(p), 1) for p in (1009, 1013, 1019))
        first = dom._brent(n, 1, dom._RHO_BUDGET)[1]
        monkeypatch.setattr(dom, "_RHO_BUDGET", first)
        with pytest.raises(FactorizationIncomplete, match=f"within {first} word-steps"):
            factor(integer(n))

    def test_brent_limit_and_cycle(self):
        import canonform.domain as dom
        g, steps = dom._brent(1000000007 * 998244353, 1, 10**6)
        assert g in (998244353, 1000000007) and 0 < steps <= 10**6
        assert dom._brent(1000000007 * 998244353, 1, 0) == (1, 0)
        # mod 1009 * 1013 the map x -> x^2 + c may close its cycle on both
        # primes at once; some small c then returns n itself
        assert any(dom._brent(1009 * 1013, c, 10**4)[0] == 1009 * 1013
                   for c in range(1, 50))

    def test_large_prime_is_proved(self):
        start = time.perf_counter()
        assert factor(integer(-(2**61 - 1))) == (integer(-1), ((integer(2**61 - 1), 1),))
        assert time.perf_counter() - start < 5.0

    # strong pseudoprimes to the first prime bases, the last (psi_12) to
    # all of 2..37; then two Mersenne primes
    @pytest.mark.parametrize("n", [
        3215031751, 2152302898747, 3474749660383, 341550071728321,
        3825123056546413051, 318665857834031151167461, 2**61 - 1, 2**89 - 1])
    def test_miller_rabin_agrees_with_sympy(self, n):
        assert _is_prime_mr(n) == sympy.isprime(n)

    def test_pseudoprime_to_bases_up_to_37_is_not_a_prime(self):
        # 318665857834031151167461 = 399165290221 * 798330580441
        assert factor(integer(318665857834031151167461)) == (
            integer(1), ((integer(399165290221), 1), (integer(798330580441), 1)))

    def test_small_factors_then_large_prime(self):
        n = 2**3 * 999983 * (2**61 - 1)
        assert factor(integer(n))[1] == (
            (integer(2), 3), (integer(999983), 1), (integer(2**61 - 1), 1))

    def test_repeated_and_scaled_factors(self):
        # 6*(x-1)^2*(x^2+1): unit 6, squarefree split must see both parts
        p = poly(6) * poly(-1, 1) ** 2 * poly(1, 0, 1)
        unit, powers = factor(p)
        assert unit == poly(6)
        assert dict(powers) == {poly(-1, 1): 2, poly(1, 0, 1): 1}

    @pytest.mark.parametrize("ring", [Ring.Z, Ring.QX])
    def test_round_trip(self, ring):
        rng = random.Random(23)
        done = 0
        while done < 120:
            a = random_nonzero_elem(rng, ring, bound=400, max_deg=4)
            try:
                unit, powers = factor(a)
            except FactorizationIncomplete:
                continue
            prod = unit
            for p, e in powers:
                assert canonical_associate(p)[1] == p
                prod = prod * p ** e
            assert prod == a
            done += 1


class TestGrammar:
    @pytest.mark.parametrize("text,ring", [
        ("-17", Ring.Z),
        ("5/3", Ring.Q),
        ("-5/3", Ring.Q),
        ("3*x^2-1/2*x+4", Ring.QX),
        ("x^5-x", Ring.QX),
        ("0", Ring.QX),
        ("-x+1/7", Ring.QX),
    ])
    def test_round_trip(self, text, ring):
        assert format_scalar(parse_scalar(text, ring)) == text

    @pytest.mark.parametrize("ring", RINGS)
    def test_print_parse_inverse(self, ring):
        rng = random.Random(29)
        for _ in range(300):
            a = random_elem(rng, ring, bound=50, max_deg=5)
            assert parse_scalar(format_scalar(a), ring) == a

    @pytest.mark.parametrize("text,ring", [
        ("1.5", Ring.Z),
        ("2/0", Ring.Q),
        ("x+", Ring.QX),
        ("x y", Ring.QX),
        ("x^-1", Ring.QX),
        ("", Ring.QX),
        # the grammar is whitespace-free, a trailing newline included
        ("5\n", Ring.Z),
        ("1/2\n", Ring.Q),
        ("x\n+1", Ring.QX),
        ("x+1\n", Ring.QX),
    ])
    def test_rejects_garbage(self, text, ring):
        with pytest.raises(ParseError):
            parse_scalar(text, ring)
        with pytest.raises(ParseError):
            Matrix.from_rows(ring, [[text]])

    def test_degree_cap(self):
        assert parse_scalar("x^10000", Ring.QX).degree() == 10_000
        with pytest.raises(ParseError, match="degree 10001 exceeds the parser limit 10000"):
            parse_scalar("2*x^10001+1", Ring.QX)

    @pytest.mark.parametrize("text,ring", [
        ("1" * 5000, Ring.Z), ("-" + "1" * 5000, Ring.Q), ("1/" + "3" * 5000, Ring.Q)],
        ids=["Z", "Q-numerator", "Q-denominator"])
    def test_overlong_numeral(self, text, ring):
        with pytest.raises(ParseError, match="5000-digit number is too long"):
            parse_scalar(text, ring)

    @pytest.mark.parametrize("text", ["x^" + "9" * 5000, "9" * 5000 + "*x"])
    def test_overlong_number_in_term(self, text):
        with pytest.raises(ParseError, match="too long"):
            parse_scalar(text, Ring.QX)


def render_term(sign, coeff, k, short):
    """One Q[x] term as text: coeff is None for an omitted 1, else a
    (num, den) pair printed unreduced; short picks x over x^1 and a bare
    constant over *x^0."""
    c = None if coeff is None else str(coeff[0]) if coeff[1] == 1 else "%d/%d" % coeff
    if k == 0 and short:
        return sign + (c or "1")
    xs = "x" if k == 1 and short else f"x^{k}"
    return sign + (xs if c is None else f"{c}*{xs}")


qx_terms = st.lists(
    st.tuples(st.sampled_from(["+", "-"]),
              st.none() | st.tuples(st.integers(0, 60), st.integers(1, 12)),
              st.integers(0, 12), st.booleans()),
    min_size=1, max_size=6)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(qx_terms, st.sampled_from(["", "+", "-"]))  # the first term's sign
@example([("+", None, 1, True)], "+")  # x with an explicit leading +
@example([("+", (0, 1), 7, False), ("-", (2, 4), 0, True)], "")  # 0*x^7-2/4
@example([("+", None, 1, False), ("+", None, 0, False), ("-", (3, 1), 1, True)], "")
@example([("+", (1, 2), 2, False), ("+", (1, 3), 2, False), ("-", (5, 6), 2, False)], "")
@example([("-", (5, 1), 3, True), ("+", (5, 1), 3, True)], "")  # cancels to zero
def test_qx_text_parses_to_the_sum_of_its_terms(terms, first_sign):
    """Terms in any order, repeated degrees, zero coefficients, x, x^1, x^0
    and constants, the first with or without a sign: the parse is the
    Fraction sum of the terms."""
    terms[0] = (first_sign,) + terms[0][1:]
    want = {}
    for sign, coeff, k, _ in terms:
        c = Fraction(*coeff) if coeff else Fraction(1)
        want[k] = want.get(k, 0) + (-c if sign == "-" else c)
    expected = polynomial([want.get(i, 0) for i in range(max(want) + 1)])
    text = "".join([render_term(*t) for t in terms])
    assert parse_scalar(text, Ring.QX) == expected
    assert parse_raw(text, Ring.QX) == expected.raw


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(RINGS), st.text(alphabet="0123456789/*x^+- ", max_size=16))
@example(Ring.QX, "x+1/0")
@example(Ring.Q, "-6/4")
@example(Ring.Z, "-0")
def test_parse_raw_is_the_raw_value_of_parse_scalar(ring, text):
    try:
        want = parse_scalar(text, ring).raw
    except ParseError as exc:
        with pytest.raises(ParseError) as caught:
            parse_raw(text, ring)
        assert str(caught.value) == str(exc)
    else:
        assert parse_raw(text, ring) == want


def test_monomial_helper():
    assert monomial(2, 3) == poly(0, 0, 3)
    assert format_scalar(monomial(1)) == "x"


# ---------------------------------------------------------------------------
# Q[x] kernels against a reference on tuples of Fractions (coefficient of
# x^i at index i, no trailing zero), the form Elem.value returns.

def ref_trim(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref_trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                    for i in range(n))


def ref_neg(a):
    return tuple(-c for c in a)


def ref_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return ref_trim(out)


def ref_divmod(a, b):
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while len(r) >= len(b):
        c = r[-1] / b[-1]
        k = len(r) - len(b)
        q[k] = c
        for i in range(len(b)):
            r[k + i] -= c * b[i]
        r = list(ref_trim(r))
    return ref_trim(q), ref_trim(r)


def ref_egcd(a, b):
    r0, r1, s0, s1, t0, t1 = a, b, (Fraction(1),), (), (), (Fraction(1),)
    while r1:
        q, r = ref_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, ref_add(s0, ref_neg(ref_mul(q, s1)))
        t0, t1 = t1, ref_add(t0, ref_neg(ref_mul(q, t1)))
    u = (1 / r0[-1],)
    return ref_mul(u, r0), ref_mul(u, s0), ref_mul(u, t0)


coefficient = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
)
coefficients = st.lists(coefficient, max_size=6)
nonzero_coefficients = coefficients.filter(lambda cs: any(c != 0 for c in cs))
# constants half the time: the raw kernels have direct paths for them
constants_or_coefficients = st.one_of(st.lists(coefficient, max_size=1), coefficients)
KERNEL_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


def canonical_value(pair):
    """The Fraction coefficients of a raw Q[x] pair, after checking that
    the pair is canonical, which .value alone cannot see: ((2,), 2) reads
    as 1 too."""
    nums, den = pair
    assert type(nums) is tuple and den > 0 and math.gcd(den, *nums) == 1, pair
    assert not nums or nums[-1] != 0, pair
    assert nums or den == 1, pair
    return tuple(Fraction(c, den) for c in nums)


class TestQxKernels:
    @KERNEL_SETTINGS
    @example(a=[1, Fraction(1, 2), 3], b=[Fraction(-2, 3)])  # a constant second factor
    @example(a=[Fraction(-2, 3)], b=[1, Fraction(1, 2), 3])
    @given(a=coefficients, b=coefficients)
    def test_ring_operations(self, a, b):
        ra, rb = ref_trim(a), ref_trim(b)
        pa, pb = polynomial(a), polynomial(b)
        assert (pa + pb).value == ref_add(ra, rb)
        assert (pa - pb).value == ref_add(ra, ref_neg(rb))
        assert (-pa).value == ref_neg(ra)
        assert (pa * pb).value == ref_mul(ra, rb)

    @KERNEL_SETTINGS
    @example(a=[Fraction(1, 2)], b=[Fraction(3, 2)])  # equal denominators
    @example(a=[Fraction(2, 3)], b=[Fraction(-5, 6)])  # unequal denominators
    @example(a=[Fraction(2, 3)], b=[Fraction(-2, 3)])  # a sum that cancels to zero
    @example(a=[Fraction(2, 3)], b=[Fraction(3, 2)])  # a product reduced to 1
    @example(a=[-3], b=[1, 0, 2])  # an integer constant times a polynomial
    @example(a=[1, Fraction(1, 2), 3], b=[-4])  # a negative constant divisor
    @example(a=[1, Fraction(1, 2), 3], b=[Fraction(2, 3)])  # a fractional one
    @example(a=[Fraction(-7, 4)], b=[Fraction(-2, 3)])
    @example(a=[], b=[Fraction(5, 2)])
    @given(a=constants_or_coefficients, b=constants_or_coefficients)
    def test_raw_kernels_give_canonical_pairs(self, a, b):
        ra, rb = ref_trim(a), ref_trim(b)
        pa, pb = polynomial(a).raw, polynomial(b).raw
        for x, y, rx, ry in ((pa, pb, ra, rb), (pb, pa, rb, ra)):
            assert canonical_value(_qadd(x, y)) == ref_add(rx, ry)
            assert canonical_value(_qmul(x, y)) == ref_mul(rx, ry)
            assert canonical_value(_qneg(x)) == ref_neg(rx)
            if ry:
                q, r = _qdivmod(x, y)
                assert (canonical_value(q), canonical_value(r)) == ref_divmod(rx, ry)

    @KERNEL_SETTINGS
    @given(a=coefficients, b=nonzero_coefficients)
    def test_division(self, a, b):
        ra, rb = ref_trim(a), ref_trim(b)
        pa, pb = polynomial(a), polynomial(b)
        q, r = divmod(pa, pb)
        assert (q.value, r.value) == ref_divmod(ra, rb)
        assert canonical_residue(pa, pb).value == ref_divmod(ra, rb)[1]
        d, s, t = egcd(pa, pb)
        assert (d.value, s.value, t.value) == ref_egcd(ra, rb)
        assert gcd(pa, pb).value == ref_egcd(ra, rb)[0]
        u, c = canonical_associate(pb)
        lead = (1 / rb[-1],)
        assert (u.value, c.value) == (lead, ref_mul(lead, rb))

    @KERNEL_SETTINGS
    @given(a=coefficients, b=coefficients, k=st.integers(-6, 6).filter(bool))
    def test_equal_values_give_equal_elems(self, a, b, k):
        pa, pb = polynomial(a), polynomial(b)
        others = [
            (pa + pb) - pb,
            (pa * k) * poly(Fraction(1, k)),
            polynomial(list(a) + [0, Fraction(0)]),
            Elem(Ring.QX, tuple(Fraction(c) for c in a)),
        ]
        for other in others:
            assert other == pa and hash(other) == hash(pa)
            assert other.raw == pa.raw
        nums, den = pa.raw
        assert den > 0 and math.gcd(den, *nums) == 1
        assert not nums or nums[-1] != 0
        assert (pa == pb) == (ref_trim(a) == ref_trim(b))

    @KERNEL_SETTINGS
    @given(cs=coefficients)
    def test_edge_round_trip(self, cs):
        assert coerce(Ring.QX, cs).value == ref_trim(cs)
        assert coerce(Ring.QX, tuple(cs)).value == ref_trim(cs)
        assert polynomial(iter(cs)).value == ref_trim(cs)
        for c in cs:
            assert coerce(Ring.QX, c).value == ref_trim([c])

    def test_int_after_fraction(self):
        cs = [Fraction(1, 2), 3, Fraction(-5, 4), 7]
        want = (Fraction(1, 2), Fraction(3), Fraction(-5, 4), Fraction(7))
        assert coerce(Ring.QX, cs).value == want
        assert polynomial(cs).raw == ((2, 12, -5, 28), 4)

    def test_setattr_raises(self):
        p = poly(1, Fraction(1, 2))
        for name, value in (("ring", Ring.Z), ("raw", ((), 1)), ("value", ())):
            with pytest.raises(FrozenInstanceError):
                setattr(p, name, value)
        with pytest.raises(FrozenInstanceError):
            del p.raw
        assert p == poly(1, Fraction(1, 2))


rationals = st.fractions(max_denominator=10**12)


def q_value(e):
    """The Fraction of a Q scalar, after checking that its raw form is a
    normalized pair of degree <= 0."""
    nums, den = e.raw
    assert e.ring is Ring.Q and len(nums) <= 1 and den > 0
    assert math.gcd(den, *nums) == 1 and (not nums or nums[0] != 0)
    assert parse_scalar(format_scalar(e), Ring.Q) == e
    return e.value


class TestQPairForm:
    """A Q scalar is the degree-0 case of the Q[x] pair; every result
    agrees with Fraction arithmetic on `.value`."""

    @KERNEL_SETTINGS
    @given(a=rationals, b=rationals, k=st.integers(-6, 6).filter(bool))
    def test_ring_operations(self, a, b, k):
        ea, eb = Elem(Ring.Q, a), Elem(Ring.Q, b)
        assert q_value(ea) == a and type(ea.value) is Fraction
        assert q_value(ea + eb) == a + b
        assert q_value(ea - eb) == a - b
        assert q_value(-ea) == -a
        assert q_value(ea * eb) == a * b
        assert (ea == eb) == (a == b)
        for other in ((ea + eb) - eb, rational(a.numerator * k, a.denominator * k)):
            assert other == ea and hash(other) == hash(ea) and other.raw == ea.raw

    @KERNEL_SETTINGS
    @given(a=rationals, b=rationals.filter(bool))
    def test_division_and_units(self, a, b):
        ea, eb = Elem(Ring.Q, a), Elem(Ring.Q, b)
        q, r = divmod(ea, eb)
        assert q_value(q) == a / b and q_value(r) == 0
        assert q_value(ea.exact_div(eb)) == a / b
        assert eb.is_unit() and q_value(eb.unit_inverse()) == 1 / b
        u, c = canonical_associate(ea)
        assert q_value(c) == (1 if a else 0) and q_value(u) * a == c.value
        assert u.is_unit()


@pytest.mark.parametrize("p", [integer(-3), rational(-2, 3), polynomial([Fraction(1, 2), -1, 2])],
                         ids=["Z", "Q", "Q[x]"])
def test_pow_equals_repeated_product(p):
    acc = Elem.one(p.ring)
    for e in range(10):
        assert p ** e == acc
        acc = acc * p


def test_pow_squares():
    start = time.perf_counter()
    x = integer(3) ** 200000
    assert time.perf_counter() - start < 0.5
    assert x.value == 3 ** 200000
    with pytest.raises(ValueError, match="negative exponent"):
        integer(3) ** -1


def test_format_scalar_digit_limit():
    assert format_scalar(integer(10**4299)) == "1" + "0" * 4299
    big = 10**4300
    for a in (integer(-big), rational(1, big), polynomial([1, Fraction(big, 7)])):
        with pytest.raises(OutputTooLarge, match="4301-digit"):
            format_scalar(a)


def test_format_scalar_names_the_longest_coefficient():
    """The highest term is printed first and fails first, but the message
    names the 5001-digit constant term."""
    p = polynomial([Fraction(10**5000, 3), 10**4300, 1])
    with pytest.raises(OutputTooLarge, match="a 5001-digit number"):
        format_scalar(p)


def ref_format_fraction(f):
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def ref_format_scalar(a):
    """format_scalar through the Fractions of Elem.value."""
    if a.ring is Ring.Z:
        return str(a.value)
    if a.ring is Ring.Q:
        return ref_format_fraction(a.value)
    parts = []
    for k in range(len(a.value) - 1, -1, -1):
        c = a.value[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if k == 0:
            body = ref_format_fraction(mag)
        else:
            xs = "x" if k == 1 else f"x^{k}"
            body = xs if mag == 1 else f"{ref_format_fraction(mag)}*{xs}"
        parts.append(sign + body)
    return "".join(parts) or "0"


# Denominators dividing 12, so coefficients often share factors with the
# common denominator; +-1 and 0 are drawn often.
printed_coefficient = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 6, 12])),
)


@KERNEL_SETTINGS
@example(a=rational(-7, 3))
@example(a=rational(0))
@example(a=integer(-5))
@example(a=integer(0))
@example(a=polynomial([Fraction(1, 6), Fraction(1, 2), Fraction(2, 3)]))
@example(a=polynomial([-1, 1, 0, -1]))
@example(a=polynomial([Fraction(-5, 4), 0, 1]))
@given(a=st.one_of(
    st.builds(integer, st.integers(-10**6, 10**6)),
    st.builds(rational, st.integers(-99, 99), st.integers(1, 60)),
    st.builds(polynomial, st.lists(printed_coefficient, max_size=6)),
))
def test_format_scalar_matches_fraction_reference(a):
    assert format_scalar(a) == ref_format_scalar(a)
    assert parse_scalar(format_scalar(a), a.ring) == a


def test_lcm_of_zeros_is_zero():
    assert lcm(integer(0), integer(0)) == integer(0)


@pytest.mark.parametrize("call,error,match", [
    (lambda: integer(3).degree(), RingMismatch, "Q\\[x\\] scalars only"),
    (lambda: polynomial([]).degree(), ZeroArgument, "no degree"),
    (lambda: integer(2).unit_inverse(), NotAUnit, "not a unit"),
    (lambda: canonical_residue(integer(1), rational(2)), RingMismatch, "modulus ring"),
    (lambda: gcd(integer(1), rational(2)), RingMismatch, "Z vs Q"),
    (lambda: egcd(integer(1), rational(2)), RingMismatch, "Z vs Q"),
    (lambda: parse_scalar("x+1/0", Ring.QX), ParseError, "zero denominator"),
], ids=["degree-on-Z", "degree-of-zero", "unit-inverse", "residue-rings", "gcd-rings",
        "egcd-rings", "qx-zero-denominator"])
def test_validation_errors(call, error, match):
    with pytest.raises(error, match=match):
        call()
