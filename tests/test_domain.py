import random
from fractions import Fraction

import pytest

from canonform.domain import (
    Ring,
    canonical_associate,
    canonical_residue,
    egcd,
    factor,
    format_scalar,
    gcd,
    integer,
    lcm,
    monomial,
    parse_scalar,
    polynomial,
    rational,
    valuation,
)
from canonform.errors import (
    DivisionByZero,
    FactorizationIncomplete,
    ParseError,
    RingMismatch,
    ZeroArgument,
    ZeroModulus,
)

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

    def test_degree_three_irreducible_declines(self):
        # x^3 - 2 has no rational root and cannot be split here
        with pytest.raises(FactorizationIncomplete):
            factor(poly(-2, 0, 0, 1))

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
    ])
    def test_rejects_garbage(self, text, ring):
        with pytest.raises(ParseError):
            parse_scalar(text, ring)

    def test_degree_cap(self):
        assert parse_scalar("x^10000", Ring.QX).degree() == 10_000
        with pytest.raises(ParseError, match="degree 10001 exceeds the parser limit 10000"):
            parse_scalar("2*x^10001+1", Ring.QX)

    @pytest.mark.parametrize("text", ["x^" + "9" * 5000, "9" * 5000 + "*x"])
    def test_overlong_number_in_term(self, text):
        with pytest.raises(ParseError, match="too long"):
            parse_scalar(text, Ring.QX)


def test_monomial_helper():
    assert monomial(2, 3) == poly(0, 0, 3)
    assert format_scalar(monomial(1)) == "x"
