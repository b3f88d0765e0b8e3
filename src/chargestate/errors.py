"""Exception types shared across the package.

Subclasses of ArithmeticError are numeric construction failures, which the
CLI reports with exit code 2; every other ChargeStateError is a usage error,
exit code 1.
"""


class ChargeStateError(Exception):
    """Base class for all package-specific errors."""


class SpecParseError(ChargeStateError, ValueError):
    """A nonlinearity spec string does not match the grammar."""


class ParameterRangeError(ChargeStateError, ValueError):
    """A nonlinearity parameter lies outside its admissible range."""


class PreconditionError(ChargeStateError, ValueError):
    """An operation was called with arguments violating its preconditions."""


class ContinuedFractionPoleError(ChargeStateError, ArithmeticError):
    """An intermediate continued-fraction denominator was exactly zero."""

    def __init__(self, depth):
        self.depth = depth
        super().__init__(f"continued fraction hit a pole at depth {depth}")


class DegenerateStateError(ChargeStateError, ArithmeticError):
    """Every raw coefficient vanished; the state cannot be normalized."""


class LadderOverflowError(ChargeStateError, ArithmeticError):
    """A tridiagonal matrix element or a recursion coefficient overflowed double precision."""

    def __init__(self, index):
        self.index = index
        advice = ("reduce n_max" if index else
                  "no n_max avoids it; use a deformation parameter nearer 1")
        super().__init__(f"ladder matrix element or recursion coefficient overflowed "
                         f"at index {index}; {advice}")
