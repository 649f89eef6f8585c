"""Error messages name their operands briefly, and every validation error
is a canonform.errors.Error."""
from fractions import Fraction

import pytest

from canonform.cli import main
from canonform.domain import (
    Elem,
    Ring,
    brief,
    integer,
    parse_scalar,
    polynomial,
    rational,
)
from canonform.errors import (
    BadExponent,
    BadIndexSet,
    BadOperation,
    Error,
    ExactDivisionError,
    NotAUnit,
    ParseError,
    RingMismatch,
)
from canonform.hermite import ElemOp
from canonform.invariants import invariant_factors_from_elementary
from canonform.matrix import mat_z
from canonform.perm import Injection, Permutation


class TestBrief:
    @pytest.mark.parametrize("value,text", [
        (integer(-12), "-12"),
        (rational(1, 2), "1/2"),
        (polynomial([1, 0, 1]), "x^2+1"),
        (2.5, "2.5"),
        (Fraction(1, 2), "Fraction(1, 2)"),
        ("abc", "'abc'"),
        ((1, 1), "(1, 1)"),
    ])
    def test_short_operand_is_its_text(self, value, text):
        assert brief(value) == text

    @pytest.mark.parametrize("value,text", [
        (integer(10**5000), "a 5001-digit integer"),
        (integer(-10**100), "a 101-digit integer"),
        (rational(1, 10**100), "a 101-digit rational"),
        (polynomial([1] * 5001), "a degree-5000 polynomial"),
        (polynomial([10**5000, 1]), "a degree-1 polynomial"),
        (10**5000, "a 5001-digit integer"),
        ([10**5000], "a list of length 1"),
        ("y" * 200, "a str of length 200"),
        ({k: k for k in range(40)}, "a dict"),
    ], ids=["Z", "negative-Z", "Q", "long-Q[x]", "wide-Q[x]", "int", "list", "str", "dict"])
    def test_long_operand_is_its_size(self, value, text):
        assert brief(value) == text

    def test_exact_div_of_a_huge_integer_names_its_own_error(self):
        with pytest.raises(ExactDivisionError) as info:
            integer(10**5000).exact_div(integer(3))
        assert str(info.value) == "a 5001-digit integer is not divisible by 3"

    def test_coercing_a_list_of_a_huge_integer_is_a_ring_mismatch(self):
        with pytest.raises(RingMismatch) as info:
            Elem(Ring.Z, [10**5000])
        assert str(info.value) == "cannot coerce a list of length 1 into Z"

    def test_exact_div_of_a_long_polynomial_has_a_short_message(self):
        with pytest.raises(ExactDivisionError) as info:
            polynomial([1] * 5001).exact_div(polynomial([0, 0, 1]))
        assert str(info.value) == "a degree-5000 polynomial is not divisible by x^2"

    def test_a_long_bad_token_has_a_short_parse_error(self):
        with pytest.raises(ParseError) as info:
            parse_scalar("y" * 200, Ring.Z)
        assert str(info.value) == "bad integer scalar a str of length 200"

    def test_a_long_bad_permutation_has_a_short_cli_message(self, capsys):
        assert main(["perm", ",".join(["1"] * 5000)]) == 2
        err = capsys.readouterr().err
        assert err == ("parse error: bad one-line permutation a str of length 9999: "
                       "a tuple of length 5000 is not a rearrangement of 1..5000\n")

    @pytest.mark.parametrize("call,error,message", [
        (lambda: integer(7).exact_div(integer(2)), ExactDivisionError,
         "7 is not divisible by 2"),
        (lambda: integer(7).exact_div(2), ExactDivisionError, "7 is not divisible by 2"),
        (lambda: rational(1, 2).exact_div(0), Error, "division by zero"),
        (lambda: integer(2).unit_inverse(), NotAUnit, "2 is not a unit of Z"),
        (lambda: Elem(Ring.Z, 2.5), RingMismatch, "cannot coerce 2.5 into Z"),
        (lambda: Elem(Ring.QX, ["1/2"]), RingMismatch,
         "cannot coerce coefficient '1/2' into Q[x]"),
    ])
    def test_short_operands_keep_their_messages(self, call, error, message):
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message


@pytest.mark.parametrize("call,error,message", [
    (lambda: ElemOp("rotate", "row", 1, 2), BadOperation, "bad op kind 'rotate'"),
    (lambda: ElemOp("swap", "diagonal", 1, 2), BadOperation, "bad axis 'diagonal'"),
    (lambda: ElemOp("addmul", "row", 1, 1, integer(2)), BadOperation,
     "swap/addmul need two distinct indices"),
    (lambda: invariant_factors_from_elementary([(integer(2), 0)], 1, Ring.Z),
     BadExponent, "exponents must be positive"),
    (lambda: Permutation((1, 1)), BadIndexSet, "(1, 1) is not a rearrangement of 1..2"),
    (lambda: Injection((1, 1), 2), BadIndexSet, "(1, 1) is not injective"),
    (lambda: Injection((3,), 2), BadIndexSet, "(3,) leaves codomain 1..2"),
    (lambda: integer(2) ** -1, BadExponent, "negative exponent"),
    (lambda: mat_z([[1]]).power(-1), BadExponent, "negative exponent"),
], ids=["op-kind", "op-axis", "op-same-index", "exponent-0", "permutation",
        "injection-repeat", "injection-codomain", "elem-power", "matrix-power"])
def test_validation_raises_a_named_value_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, Error) and isinstance(info.value, ValueError)
    assert str(info.value) == message
