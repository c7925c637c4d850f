"""Density-matrix construction and the two parametric two-qubit families.

Basis ordering for two qubits is fixed throughout the package:
index 1 = |00>, 2 = |01>, 3 = |10>, 4 = |11|  (0-based in code).
"""

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
        if not (_finite_numbers((self.p,)) and _finite_numbers((self.q,), kinds="biufc")):
            raise DomainError(f"XY family needs finite p and q, got {self.p!r}, {self.q!r}")
        r = float(xy_positivity(self.p, self.q))
        if r > FEASIBILITY_TOL:
            raise PositivityViolationError(
                f"state family requires p^2 - p + |q|^2 <= 0, got R = {r!r}"
            )


def _finite_numbers(values, kinds: str = "biuf") -> bool:
    """Whether `values` is a flat sequence of finite numbers of the numpy dtype
    kinds `kinds` (real by default); False for strings, None, nested or ragged
    sequences and complex values where real ones are asked for."""
    try:
        arr = np.asarray(values)
    except ValueError:  # a ragged sequence
        return False
    return (arr.shape == (len(values),) and arr.dtype.kind in kinds
            and bool(np.isfinite(arr).all()))


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


def _as_complex(obj, copy: bool = False) -> np.ndarray:
    """obj as a complex ndarray: the package's one conversion of matrix input.

    Without `copy`, a complex ndarray is returned as it is.  Raises
    DomainError for a ragged sequence or a non-numeric input (strings,
    None, objects).
    """
    return _numeric(obj, "biufc").astype(complex, copy=copy)


def _as_float(obj, copy: bool = False) -> np.ndarray:
    """obj as a float ndarray: the one conversion of real array input.

    Without `copy`, a float ndarray is returned as it is.  Raises
    DomainError for a ragged sequence, a non-numeric or a complex input.
    """
    return _numeric(obj, "biuf").astype(float, copy=copy)


def _hermiticity_defect(mat: np.ndarray) -> np.float64:
    """max |m_ij - conj(m_ji)| of a finite square matrix, without a warning:
    a defect beyond the float range reads inf."""
    with np.errstate(over="ignore"):
        return np.abs(mat - mat.conj().T).max()


def _read_only(obj) -> np.ndarray:
    """A read-only complex copy of obj: the form every record stores its arrays in."""
    arr = _as_complex(obj, copy=True)
    arr.setflags(write=False)
    return arr


def unchecked_density(elements: np.ndarray) -> DensityMatrix:
    """Wrap a read-only complex copy of a non-empty square matrix as a
    DensityMatrix without validating the invariants."""
    arr = _read_only(elements)
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

    herm_defect = _hermiticity_defect(arr)
    if herm_defect > HERMITICITY_TOL:
        raise NonHermitianError(f"Hermiticity defect {herm_defect!r} exceeds {HERMITICITY_TOL}")

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

    Evaluates elementwise on arrays.  numpy squares a scalar through pow,
    as Python does, and an array by multiplication, so an array cell may
    differ from the scalar call in the last bit.
    """
    return p * p - p + np.hypot(np.real(q), np.imag(q)) ** 2


def bell_diagonal_weights(rho: DensityMatrix) -> WernerParams:
    """Invert :func:`werner_state`: recover (a, b, c, d) from a Bell-diagonal state.

    Raises NotBellDiagonalError unless rebuilding the state from the
    recovered weights reproduces every element to 1e-10.
    """
    if rho.dim != 4:
        raise DimensionMismatchError(f"expected dim 4, got {rho.dim}")
    m = rho.elements
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
