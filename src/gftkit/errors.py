"""Exception taxonomy shared across the toolkit.

Two broad groups: validation errors raised while checking inputs
(parameters, brackets, grid or family descriptions), and evaluation
errors raised while computing values on the disk.  Evaluation errors
carry the offending sample point so reports can surface a witness.
"""

from __future__ import annotations


class GftError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(GftError, ValueError):
    """Bad input detected before any numerical work starts."""


class OutOfRange(ValidationError):
    """A numeric parameter lies outside its documented domain."""


class DegenerateSum(ValidationError):
    """A sector-order pair with a non-positive sum was supplied."""


class DegenerateDenominator(ValidationError):
    """A tilt-angle denominator vanishes for the supplied parameters."""


class DiskRequiresLambdaZero(ValidationError):
    """The disk-shaped safe region is only defined for zero tilt."""


class OrderOutOfRange(ValidationError):
    """A derivative order other than 0, 1 or 2 was requested."""


class MissingSecondFunction(ValidationError):
    """A two-function expression was evaluated without its partner."""


class InvalidBracket(ValidationError):
    """A search bracket with lo >= hi was supplied."""


class NoSignChange(ValidationError):
    """A root bracket whose endpoints have equal signs was supplied."""


class BadGridSpec(ValidationError):
    """A sampling-grid description violates its constraints."""


class BadFamilySpec(ValidationError):
    """A function-family description violates its constraints."""


class EvaluationError(GftError):
    """Numerical evaluation failed at a specific point of the disk.

    ``witness`` is the sample where the failure occurred, when known.
    """

    def __init__(self, message: str, witness: complex | None = None):
        super().__init__(message)
        self.witness = witness


class ZeroBase(EvaluationError):
    """A principal-branch power of zero was requested."""


class SingularPoint(EvaluationError):
    """A function was evaluated on its zero/pole set."""


class NonFiniteValue(EvaluationError):
    """A value or derivative overflowed or became NaN at a sample point."""


class DivisionByZeroInFunctional(EvaluationError):
    """A factor in a functional vanished at a sample point.

    ``factor`` names the vanishing quantity ("f", "f'", "g", ...).
    """

    def __init__(self, factor: str, witness: complex | None = None):
        super().__init__(f"factor {factor} vanished during evaluation", witness)
        self.factor = factor
