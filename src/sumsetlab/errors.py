"""Exception hierarchy shared by all sumsetlab modules.

The CLI maps these onto exit codes: InputFormatError -> 1, any
PreconditionError -> 2, BudgetExceededError -> 3, InternalInvariantError
and any exception from outside this hierarchy -> 4.
"""


class SumsetLabError(Exception):
    """Base class for all errors raised by this package."""


class InputFormatError(SumsetLabError):
    """An input file or literal could not be parsed."""


class PreconditionError(SumsetLabError, ValueError):
    """An operation was called on input violating its contract."""


class DimensionError(PreconditionError):
    """Matrix or point dimensions do not match what the operation needs."""


class DegenerateDimensionError(PreconditionError):
    """The point set does not span the ambient space; normalize first."""


class MembershipError(PreconditionError):
    """A point required to lie in a semigroup or cone does not."""


class KindError(PreconditionError):
    """A facet of the wrong kind (inner vs outer) was requested."""


class BudgetExceededError(SumsetLabError):
    """A scan or iteration ran into its configured resource cap.

    ``partial`` may carry whatever was computed before the cap hit;
    ``reached`` names the level (N, weight, ...) where work stopped.
    """

    def __init__(self, message, *, reached=None, partial=None):
        super().__init__(message)
        self.reached = reached
        self.partial = partial


class InternalInvariantError(SumsetLabError):
    """A consistency check that should be unviolable failed (a bug)."""
