"""Density-matrix construction, the two parametric two-qubit families, and
the package's rules for library input.

Basis ordering for two qubits is fixed throughout the package:
index 1 = |00>, 2 = |01>, 3 = |10>, 4 = |11|  (0-based in code).

Each kind of library input has one rule, here: a state (`new_density`), a
matrix or an array of known shape (`_matrix`, converting by `_as_complex` or
`_as_float`), a two-qubit state (`_two_qubit`), Hermiticity (`_check_hermitian`),
an integer (`_integer`) and finite scalars (`_finite_numbers`).  Records store
read-only copies (`_read_only`); function arguments are not copied.
"""

import cmath
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    NonHermitianError,
    NotBellDiagonalError,
    NotPositiveError,
    PositivityViolationError,
    TraceNotOneError,
    WeightError,
)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
FEASIBILITY_TOL = 1e-12  # an XY point is a state iff R <= FEASIBILITY_TOL
POSITIVITY_TOL = 1e-10
BELL_PATTERN_TOL = 1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """Validated quantum state: Hermitian, unit-trace, positive semidefinite.

    Use :func:`new_density` to construct with validation, or
    :func:`unchecked_density` for integrator internals where intermediate
    matrices are not physical states.
    """

    dim: int
    elements: np.ndarray


@dataclass(frozen=True)
class WernerParams:
    """Bell-diagonal mixing weights (a, b, c, d), nonnegative, summing to 1."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        w = (self.a, self.b, self.c, self.d)
        if not _finite_numbers(w):
            raise DomainError(f"Werner weights must be finite, got {w}")
        if min(w) < -TRACE_TOL:  # boundary weights built by subtraction round off
            raise WeightError(f"Werner weights must be nonnegative, got {w}")
        s = sum(w)
        if abs(s - 1.0) > TRACE_TOL:
            raise WeightError(f"Werner weights must sum to 1, got {s!r}")


@dataclass(frozen=True)
class XYFamilyParams:
    """Population p and coherence q of a state supported on {|01>, |10>}.

    Valid iff R = p^2 - p + |q|^2 <= 0, which already forces 0 <= p <= 1
    and |q| <= 1/2.
    """

    p: float
    q: complex

    def __post_init__(self):
        if not (_finite_numbers((self.p,)) and _finite_numbers((self.q,), numbers.Complex)):
            raise DomainError(f"XY family needs finite p and q, got {self.p!r}, {self.q!r}")
        r = float(xy_positivity(self.p, self.q))
        if r > FEASIBILITY_TOL:
            raise PositivityViolationError(
                f"state family requires p^2 - p + |q|^2 <= 0, got R = {r!r}"
            )


def _finite_numbers(values, kind=numbers.Real) -> bool:
    """Whether `values` is a sequence of finite numbers of the abstract type
    `kind` (numbers.Complex admits complex ones); False for a value that is
    not a sequence, or for strings, None, sequences or huge integers in it."""
    try:
        for v in values:
            # A float is tested first: the check against an abstract type is slow.
            if not ((type(v) is float or isinstance(v, kind)) and cmath.isfinite(v)):
                return False
        return hasattr(values, "__len__")  # not an iterator
    except (TypeError, OverflowError):
        return False


def _integer(n, what: str) -> int:
    """n as an int; DomainError unless it is an integer (an int or a numpy
    integer, not a float or a string)."""
    try:
        return operator.index(n)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {n!r}") from None


def _numeric(obj, kinds: str) -> np.ndarray:
    """obj as an ndarray of one of the numpy dtype kinds `kinds`, without a
    copy where numpy makes none.  Raises DomainError for a ragged sequence
    or an input of another kind (strings, None, objects)."""
    try:
        arr = np.asarray(obj)
    except ValueError as exc:  # a ragged sequence
        raise DomainError(f"expected a numeric array: {exc}") from exc
    if arr.dtype.kind not in kinds:
        raise DomainError(f"expected a {'numeric' if 'c' in kinds else 'real'} array, "
                          f"got dtype {arr.dtype}")
    return arr


def _as_complex(obj) -> np.ndarray:
    """obj as a complex ndarray (a complex one as it is): the conversion of matrix input."""
    return _numeric(obj, "biufc").astype(complex, copy=False)


def _as_float(obj) -> np.ndarray:
    """obj as a float ndarray (a float one as it is): the conversion of real array input."""
    return _numeric(obj, "biuf").astype(float, copy=False)


def _matrix(obj, what: str, shape=None, convert=_as_complex) -> np.ndarray:
    """obj converted by `convert`; DimensionMismatchError unless it has `shape`
    or, without one, is a non-empty square matrix, then DomainError unless finite."""
    arr = convert(obj)
    if shape is None:
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not arr.size:
            raise DimensionMismatchError(f"{what} must be a square matrix, got shape {arr.shape}")
    elif arr.shape != shape:
        raise DimensionMismatchError(f"{what} must have shape {shape}, got {arr.shape}")
    return _finite(arr, what)


def _finite(arr: np.ndarray, what: str) -> np.ndarray:
    """arr itself; DomainError unless every element of the numeric array is finite."""
    if not np.isfinite(arr).all():
        raise DomainError(f"{what} must be finite")
    return arr


def _two_qubit(rho: DensityMatrix, what: str) -> np.ndarray:
    """rho's elements; DimensionMismatchError unless rho is a two-qubit state."""
    if rho.dim != 4:
        raise DimensionMismatchError(f"{what} needs a two-qubit state (dim 4), got dim {rho.dim}")
    return rho.elements


def _check_hermitian(mat: np.ndarray, what: str, tol: float) -> None:
    """NonHermitianError unless max |m_ij - conj(m_ji)| of a finite square matrix is
    within tol (`what` names the defect); beyond the float range it reads inf."""
    with np.errstate(over="ignore"):
        defect = np.abs(mat - mat.conj().T).max()
    if defect > tol:
        raise NonHermitianError(f"{what} defect {defect!r} exceeds {tol}")


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only copy of a converted array: the form every record stores its arrays in."""
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def unchecked_density(elements: np.ndarray) -> DensityMatrix:
    """Wrap a read-only complex copy of a non-empty square matrix as a
    DensityMatrix without validating the invariants."""
    arr = _read_only(_as_complex(elements))
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not arr.size:
        raise DimensionMismatchError(f"expected a square matrix, got shape {arr.shape}")
    return DensityMatrix(dim=arr.shape[0], elements=arr)


def new_density(elements: np.ndarray) -> DensityMatrix:
    """Validate and wrap a matrix as a density matrix.

    Parameters
    ----------
    elements : array_like
        Square complex matrix.

    Returns
    -------
    DensityMatrix

    Raises
    ------
    DomainError
        If the input is ragged or not numeric, or any element is NaN or
        infinite.
    DimensionMismatchError
        If the matrix is not square.
    NonHermitianError
        If any element differs from the conjugate of its transpose partner
        by more than 1e-12.
    TraceNotOneError
        If |Tr rho - 1| > 1e-12.
    NotPositiveError
        If the smallest eigenvalue is below -1e-10.
    """
    rho = unchecked_density(elements)
    arr = rho.elements

    bad = np.count_nonzero(~np.isfinite(arr))
    if bad:
        raise DomainError(f"matrix is not finite in {bad} of {arr.size} elements")

    _check_hermitian(arr, "Hermiticity", HERMITICITY_TOL)

    trace_defect = abs(arr.trace() - 1.0)
    if trace_defect > TRACE_TOL:
        raise TraceNotOneError(f"trace defect {trace_defect!r} exceeds {TRACE_TOL}")

    min_eig = float(np.linalg.eigvalsh(arr).min())
    if min_eig < -POSITIVITY_TOL:
        raise NotPositiveError(f"smallest eigenvalue {min_eig!r} is below -{POSITIVITY_TOL}")
    return rho


def werner_state(params: WernerParams) -> DensityMatrix:
    """Build the Bell-diagonal 4x4 state for weights (a, b, c, d).

    Diagonal ((c+d)/2, (a+b)/2, (a+b)/2, (c+d)/2), central off-diagonal
    elements (b-a)/2, anti-diagonal corners (d-c)/2, all else zero.
    """
    a, b, c, d = params.a, params.b, params.c, params.d
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = (c + d) / 2
    rho[1, 1] = rho[2, 2] = (a + b) / 2
    rho[1, 2] = rho[2, 1] = (b - a) / 2
    rho[0, 3] = rho[3, 0] = (d - c) / 2
    return new_density(rho)


def xy_state(params: XYFamilyParams) -> DensityMatrix:
    """Build the 4x4 state with rho22 = p, rho33 = 1-p, rho23 = q, rest zero."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = params.p
    rho[2, 2] = 1.0 - params.p
    rho[1, 2] = params.q
    rho[2, 1] = np.conj(params.q)
    return new_density(rho)


def xy_positivity(p, q):
    """Positivity indicator R = p^2 - p + |q|^2; the state is valid iff R <= 0.

    An array kernel: it evaluates elementwise on arrays, checks no input and
    passes NaN through, which the sweeps use as a mask.  numpy squares a
    scalar through pow, as Python does, and an array by multiplication, so
    an array cell may differ from the scalar call in the last bit.
    """
    return p * p - p + np.hypot(np.real(q), np.imag(q)) ** 2


def bell_diagonal_weights(rho: DensityMatrix) -> WernerParams:
    """Invert :func:`werner_state`: recover (a, b, c, d) from a Bell-diagonal state.

    Raises NotBellDiagonalError unless rebuilding the state from the
    recovered weights reproduces every element to 1e-10.
    """
    m = _two_qubit(rho, "bell_diagonal_weights")
    half_ab = (m[1, 1].real + m[2, 2].real) / 2
    half_cd = (m[0, 0].real + m[3, 3].real) / 2
    a = half_ab - m[1, 2].real
    b = half_ab + m[1, 2].real
    c = half_cd - m[0, 3].real
    d = half_cd + m[0, 3].real

    try:
        params = WernerParams(a, b, c, d)
        rebuilt = werner_state(params)
    except WeightError as exc:
        raise NotBellDiagonalError(f"recovered weights are invalid: {exc}") from exc
    defect = np.abs(rebuilt.elements - m).max()
    if defect > BELL_PATTERN_TOL:
        raise NotBellDiagonalError(
            f"state deviates from the Bell-diagonal pattern by {defect!r}"
        )
    return params
