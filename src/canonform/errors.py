"""Exception hierarchy.

Every library error derives from Error so the CLI can map failures to
exit codes (parse problems -> 2, domain failures -> 1).
"""


class Error(Exception):
    pass


class ParseError(Error, ValueError):
    pass


class OutputTooLarge(Error, ValueError):
    """A result holds a number of more digits than str() converts."""


class RingMismatch(Error, ValueError):
    pass


class DivisionByZero(Error, ZeroDivisionError):
    pass


class ZeroArgument(Error, ValueError):
    pass


class ZeroModulus(Error, ValueError):
    pass


class ExactDivisionError(Error, ArithmeticError):
    """Division that was required to be exact left a remainder."""


class FactorizationIncomplete(Error, ArithmeticError):
    """A polynomial factor of degree >= 4 with no rational root survived,
    or an integer cofactor was neither proved prime by Miller-Rabin (below
    its bound 3.3 * 10^24) nor split by Pollard-Brent within its step
    budget."""


class UnsupportedRing(Error, ValueError):
    pass


class SizeMismatch(Error, ValueError):
    pass


class ShapeMismatch(Error, ValueError):
    pass


class IndexOutOfRange(Error, IndexError):
    pass


class BadIndexSet(Error, ValueError):
    pass


class BadOperation(Error, ValueError):
    """An elementary operation of unknown kind or axis, or one that names
    the same index twice."""


class BadExponent(Error, ValueError):
    """A negative power, or an elementary divisor exponent below 1."""


class EmptyResult(Error, ValueError):
    pass


class NotSquare(Error, ValueError):
    pass


class TooLargeForOracle(Error, ValueError):
    pass


class SingularMatrix(Error, ArithmeticError):
    pass


class NotAUnit(Error, ArithmeticError):
    pass


class AllZeroColumn(Error, ValueError):
    pass


class RankTooSmall(Error, ValueError):
    pass


class NonLinearElementaryDivisor(Error, ArithmeticError):
    pass


class NotMonic(Error, ValueError):
    pass


class CertificateFailed(Error, ArithmeticError):
    """A replayed certificate (P A Q = D, S^-1 A S = B, ...) did not hold."""
