"""Exception types shared across the package."""


class EntrateError(Exception):
    """Base class for all errors raised by entrate."""


class NonHermitianError(EntrateError):
    """Matrix expected to be Hermitian is not (message carries the defect)."""


class TraceNotOneError(EntrateError):
    """Density matrix trace differs from one beyond tolerance."""


class NotPositiveError(EntrateError):
    """Matrix has an eigenvalue below the positivity tolerance."""


class PositivityViolationError(EntrateError):
    """Parametric state family point lies outside its positivity region."""


class NotBellDiagonalError(EntrateError):
    """State does not fit the Bell-diagonal matrix pattern."""


class DimensionMismatchError(EntrateError):
    """Operands have incompatible dimensions."""


class EigenFailureError(EntrateError):
    """Eigensolver failed to converge or produced an invalid spectrum."""


class DomainError(EntrateError):
    """Scalar argument outside the function's domain."""


class KinkRegionError(EntrateError):
    """Entanglement gradient requested at the non-differentiable c = 0 kink."""


class StepSizeTooLargeError(EntrateError):
    """Integrator trace drift exceeded its tolerance; reduce the step."""


class NonFiniteError(EntrateError):
    """A computed value overflowed to infinity or NaN."""


class IncompleteChannelError(EntrateError):
    """Kraus operators do not sum to the identity within tolerance."""


class WeightError(EntrateError):
    """Probability weights are negative or do not sum to one."""


class NonHermitianEffectiveError(EntrateError):
    """Effective Hamiltonian handed to the unitary evolver is not Hermitian."""


class IndexOutOfRangeError(EntrateError, IndexError):
    """Trajectory index without the neighbours a central difference needs."""


class SeparableRegionError(EntrateError):
    """Closed-form rate requested where the state family is separable."""


class DegenerateDirectionError(EntrateError):
    """Entangling/decohering threshold undefined: q_I * (2p - 1) vanishes."""


class ShapeMismatchError(EntrateError):
    """Gradient and rate blocks have different shapes."""


class InfeasibleRangeError(EntrateError):
    """Requested sweep range leaves the valid parameter region."""


class ParseError(EntrateError):
    """Malformed command-line state specification or matrix file."""
