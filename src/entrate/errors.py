"""Exception types shared across the package.

Each class carries the CLI exit code and stderr label of its outcome through
one of three bases: InvalidArgument (2), Infeasible (3), NumericalFailure (4).
"""


class EntrateError(Exception):
    """Base class for all errors raised by entrate."""

    exit_code = 4
    label = "error"


class InvalidArgument(EntrateError):
    """The request is malformed: bad syntax, domain or dimensions."""

    exit_code = 2


class Infeasible(EntrateError):
    """The request is well formed but names no valid state or sweep."""

    exit_code = 3
    label = "infeasible"


class NumericalFailure(EntrateError):
    """A valid request whose computation failed or overflowed."""

    label = "numerical failure"


class ParseError(InvalidArgument):
    """Malformed command line: a bad state specification, option combination
    or matrix file, or an output path that cannot be written."""


class DomainError(InvalidArgument):
    """Scalar argument outside the function's domain."""


class DimensionMismatchError(InvalidArgument):
    """Operands have incompatible dimensions or shapes."""


class NotXStateError(InvalidArgument):
    """A state or direction outside the X form where the X-state closed form
    is asked for."""


class IndexOutOfRangeError(InvalidArgument, IndexError):
    """Trajectory index without the neighbours a central difference needs."""


class PositivityViolationError(Infeasible):
    """Parametric state family point lies outside its positivity region."""


class WeightError(Infeasible):
    """Probability weights are negative or do not sum to one."""


class InfeasibleRangeError(Infeasible):
    """Requested sweep range leaves the valid parameter region."""


class SeparableRegionError(Infeasible):
    """Closed-form rate requested where the state family is separable."""


class NotPositiveError(Infeasible):
    """Matrix has an eigenvalue below the positivity tolerance."""


class TraceNotOneError(Infeasible):
    """Density matrix trace differs from one beyond tolerance."""


class NonHermitianError(Infeasible):
    """Matrix expected to be Hermitian is not (message carries the defect)."""


class NotBellDiagonalError(Infeasible):
    """State does not fit the Bell-diagonal matrix pattern."""


class IncompleteChannelError(Infeasible):
    """Kraus operators do not sum to the identity within tolerance."""


class DegenerateDirectionError(Infeasible):
    """Entangling/decohering threshold undefined: q_I * (2p - 1) vanishes."""


class EigenFailureError(NumericalFailure):
    """Eigensolver failed to converge or produced an invalid spectrum."""


class NonFiniteError(NumericalFailure):
    """A computed value overflowed to infinity or NaN."""


class KinkRegionError(NumericalFailure):
    """Entanglement gradient requested at a kink of the measure: c = 0, a zero
    lambda of a state outside the X form, or an X-state rate that is infinite."""


class StepSizeTooLargeError(NumericalFailure):
    """Integrator trace drift exceeded its tolerance; reduce the step."""
