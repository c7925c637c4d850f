"""Wootters concurrence, entanglement of formation, and element-wise gradients.

The concurrence of a two-qubit state is
    c = max(0, l1 - l2 - l3 - l4),
with l_i the decreasingly sorted square roots of the eigenvalues of
rho * rho_tilde and rho_tilde = (sy x sy) conj(rho) (sy x sy).
The entanglement of formation is E = h((1 + sqrt(1 - c^2)) / 2) with h
the binary entropy.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    EigenFailureError,
    KinkRegionError,
)
from .qstate import DensityMatrix, WernerParams

KINK_TOL = 1e-6
GRADIENT_STEP = 1e-6
# Raw-path inputs may carry finite-difference perturbations or short
# backward-extrapolation residue (about gamma * dt); anything more negative
# than this is a genuinely bad matrix.
INPUT_PSD_FLOOR = 1e-3

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SYY = np.kron(_SY, _SY).real  # sy x sy is a real signed permutation

# The 16 independent elements of a 4x4 Hermitian matrix, in the one order
# the package uses: (i, j) row-major with j >= i, the diagonal rho_ii as one
# real element, an off-diagonal rho_ij as Re then Im.  _PART (0 Re, 1 Im),
# _ROW and _COL index a (2, 4, 4) stack of real and imaginary parts.
# eof_gradient's directions follow it: E_ij + E_ji for Re rho_ij (E_ii on
# the diagonal), iE_ij - iE_ji for Im rho_ij.
_PART, _ROW, _COL = np.array([(part, i, j) for i in range(4) for j in range(i, 4)
                              for part in ((0,) if i == j else (0, 1))]).T
_DIRECTIONS = np.zeros((16, 4, 4), dtype=complex)
_DIRECTIONS[np.arange(16), _COL, _ROW] = np.where(_PART, -1j, 1.0)
_DIRECTIONS[np.arange(16), _ROW, _COL] = np.where(_PART, 1j, 1.0)
_DIRECTIONS.setflags(write=False)


@dataclass(frozen=True)
class ConcurrenceResult:
    c: float
    lambdas: np.ndarray  # four values, sorted decreasing


@dataclass(frozen=True)
class MeasureGradient:
    """Partials of E with respect to the independent elements rho_ij, j >= i.

    dE_dRe[i, j] is the derivative with respect to Re(rho_ij) (the diagonal
    carries the plain real derivative); dE_dIm[i, j] with respect to
    Im(rho_ij).  Entries with j < i and diagonal dE_dIm entries are zero.
    """

    dE_dRe: np.ndarray
    dE_dIm: np.ndarray


def spin_flip(rho: DensityMatrix) -> np.ndarray:
    """Return rho_tilde = (sy x sy) conj(rho) (sy x sy)."""
    if rho.dim != 4:
        raise DimensionMismatchError(f"spin flip needs dim 4, got {rho.dim}")
    return _SYY @ rho.elements.conj() @ _SYY


def _concurrence_raw(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concurrences and lambdas of a (..., 4, 4) stack, via the Hermitian route.

    With B = sqrt(rho) (sy x sy) sqrt(rho)^T one has
    B B^dagger = sqrt(rho) rho_tilde sqrt(rho), whose spectrum equals that
    of rho * rho_tilde; the lambda_i are therefore the singular values of
    B.  Taking singular values directly avoids squaring and keeps the
    lambdas accurate near rank-deficient (pure) states.
    """
    try:
        w, v = np.linalg.eigh(mats)
    except np.linalg.LinAlgError as exc:
        raise EigenFailureError(f"eigensolver failed: {exc}") from exc
    if (w < -INPUT_PSD_FLOOR).any():
        raise EigenFailureError(
            f"input has eigenvalue {w.min()!r}, far outside the positive cone"
        )
    sq = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
    b = sq @ _SYY @ np.swapaxes(sq, -1, -2)
    try:
        lam = np.linalg.svd(b, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise EigenFailureError(f"singular value decomposition failed: {exc}") from exc
    c = lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]
    return np.clip(c, 0.0, 1.0), lam


def concurrence(rho: DensityMatrix) -> ConcurrenceResult:
    """Wootters concurrence of a two-qubit state."""
    if rho.dim != 4:
        raise DimensionMismatchError(f"concurrence needs dim 4, got {rho.dim}")
    c, lam = _concurrence_raw(rho.elements)
    lam.setflags(write=False)
    return ConcurrenceResult(c=float(c), lambdas=lam)


def _entropy(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    return np.where((x == 0.0) | (x == 1.0), 0.0, h)


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2(1-x), with h(0) = h(1) = 0."""
    if x < 0.0 or x > 1.0:
        raise DomainError(f"binary entropy needs x in [0, 1], got {x!r}")
    return float(_entropy(x))


def eof_many(mats) -> np.ndarray:
    """Entanglement of formation of every state in a (..., 4, 4) stack.

    Raises EigenFailureError when any member has an eigenvalue below
    -INPUT_PSD_FLOOR or a decomposition fails.
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.shape[-2:] != (4, 4):
        raise DimensionMismatchError(f"eof needs a stack of 4x4 matrices, got {mats.shape}")
    c, _ = _concurrence_raw(mats)
    return _entropy((1.0 + np.sqrt(np.maximum(0.0, 1.0 - c * c))) / 2.0)


def eof(rho: DensityMatrix) -> float:
    """Entanglement of formation E = h((1 + sqrt(1 - c^2)) / 2)."""
    return float(eof_many(rho.elements))


def eof_gradient(rho: DensityMatrix) -> MeasureGradient:
    """Central-difference gradient of eof over the independent elements.

    Each independent element rho_ij (j >= i) is perturbed by +-h with its
    Hermitian partner rho_ji following along; no trace constraint is
    enforced.  Step h = 1e-6.

    Raises KinkRegionError when c <= 1e-6: the concurrence has a kink at
    c = 0 and one-sided derivatives there are direction-dependent.
    Accuracy also degrades within ~h of the opposite boundary c = 1,
    where perturbations leave the state space and the measure saturates.
    """
    if rho.dim != 4:
        raise DimensionMismatchError(f"eof gradient needs dim 4, got {rho.dim}")
    c = float(_concurrence_raw(rho.elements)[0])
    if c <= KINK_TOL:
        raise KinkRegionError(
            f"concurrence {c!r} is within {KINK_TOL} of the c = 0 kink"
        )

    step = GRADIENT_STEP * _DIRECTIONS
    e = eof_many(np.concatenate([rho.elements + step, rho.elements - step]))
    grad = np.zeros((2, 4, 4))
    grad[_PART, _ROW, _COL] = (e[:16] - e[16:]) / (2 * GRADIENT_STEP)
    grad.setflags(write=False)
    return MeasureGradient(dE_dRe=grad[0], dE_dIm=grad[1])


def concurrence_werner(w: WernerParams) -> float:
    """Closed form for Bell-diagonal states: max(0, 2 max(a,b,c,d) - 1).

    The largest weight plays the distinguished role; smaller weights are
    relabelled implicitly by taking the max.
    """
    return max(0.0, 2.0 * max(w.a, w.b, w.c, w.d) - 1.0)
