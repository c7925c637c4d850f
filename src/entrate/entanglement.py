"""Wootters concurrence, entanglement of formation, and its directional derivatives.

The concurrence of a two-qubit state is
    c = max(0, l1 - l2 - l3 - l4),
with l_i the decreasingly sorted square roots of the eigenvalues of
rho * rho_tilde and rho_tilde = (sy x sy) conj(rho) (sy x sy) (Wootters,
PRL 80, 2245 (1998)).  The entanglement of formation is
E = h((1 + sqrt(1 - c^2)) / 2) with h the binary entropy.

An X-state, whose eight off-X elements rho_12, rho_13, rho_24, rho_34 and
their partners are zero, has c in closed form (`_x_measure`).  One rule,
per state, picks the route (`_measure`): an X-state takes the closed form,
any other state the singular-value route (`_concurrence_raw`).
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    EigenFailureError,
    KinkRegionError,
)
from .qstate import (
    DensityMatrix,
    WernerParams,
    _as_complex,
    _finite,
    _finite_numbers,
    _two_qubit,
)

KINK_TOL = 1e-6
# _eof_slopes treats a lambda at or below this as zero (see its docstring).
ZERO_LAMBDA_TOL = 1e-9
# Raw-path inputs may carry short backward-extrapolation residue (about
# gamma * dt); anything more negative than this is a genuinely bad matrix.
INPUT_PSD_FLOOR = 1e-3
LN2 = float(np.log(2.0))

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SYY = np.kron(_SY, _SY).real  # sy x sy is a real signed permutation


def _flip(mats: np.ndarray) -> np.ndarray:
    """(sy x sy) conj(m) (sy x sy) of every matrix m in a (..., 4, 4) stack."""
    return _SYY @ mats.conj() @ _SYY


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
_CONCURRENCE_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])
# The upper-triangle elements an X-state has zero: rho_12, rho_13, rho_24, rho_34.
_OFF_X = ([0, 0, 1, 2], [1, 2, 3, 3])
# An X-state's two 2x2 blocks, {rho11, rho44, rho14} and {rho22, rho33, rho23}:
# each block's diagonal elements are (_X_FIRST, _X_FIRST) and (_X_SECOND,
# _X_SECOND), its coherence (_X_FIRST, _X_SECOND).
_X_FIRST, _X_SECOND = [0, 1], [3, 2]


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
    return _flip(_two_qubit(rho, "spin_flip"))


def _concurrence_raw(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concurrences, lambdas and ascending spectra of a (..., 4, 4) stack.

    With B = sqrt(rho) (sy x sy) sqrt(rho)^T one has
    B B^dagger = sqrt(rho) rho_tilde sqrt(rho), whose spectrum equals that
    of rho * rho_tilde; the lambda_i are therefore the singular values of
    B.  Taking singular values directly avoids squaring and keeps the
    lambdas accurate near rank-deficient (pure) states.  The spectra are
    those of the states themselves, from the eigh that gives sqrt(rho).
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
    return np.clip(c, 0.0, 1.0), lam, w


def concurrence(rho: DensityMatrix) -> ConcurrenceResult:
    """Wootters concurrence of a two-qubit state."""
    c, lam, _ = _concurrence_raw(_two_qubit(rho, "concurrence"))
    lam.setflags(write=False)
    return ConcurrenceResult(c=float(c), lambdas=lam)


def _entropy(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    return np.where((x == 0.0) | (x == 1.0), 0.0, h)


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2(1-x), with h(0) = h(1) = 0."""
    if not (_finite_numbers((x,)) and 0.0 <= x <= 1.0):
        raise DomainError(f"binary entropy needs x in [0, 1], got {x!r}")
    return float(_entropy(x))


def _eof_of_concurrence(c: np.ndarray) -> np.ndarray:
    """E = h((1 + sqrt(1 - c^2)) / 2), elementwise: the one E formula."""
    return _entropy((1.0 + np.sqrt(np.maximum(0.0, 1.0 - c * c))) / 2.0)


def _is_x(mats: np.ndarray) -> np.ndarray:
    """Whether each matrix of a (..., 4, 4) stack has the X form: its eight
    off-X elements, in both triangles, exactly zero."""
    return ~mats[..., _OFF_X[0] + _OFF_X[1], _OFF_X[1] + _OFF_X[0]].any(axis=-1)


def _x_measure(mats: np.ndarray, mats_dot=None):
    """Concurrences, smallest eigenvalues and, when mats_dot is given, the
    derivatives dc along it, of a (..., 4, 4) stack of X-states.

    Block k of an X-state, with diagonal (a, b) and coherence z, has the
    eigenvalues (a + b)/2 -+ hypot((a - b)/2, |z|), and
        c = 2 max(0, |rho23| - sqrt(rho11 rho44), |rho14| - sqrt(rho22 rho33))
    (Yu & Eberly, PRL 93, 140404 (2004)): each block's coherence against the
    other block's diagonal.  mats_dot broadcasts against mats and is read on
    the X elements only.  dc is twice the derivative of the term that sets
    c > 0, and 0 where c = 0.  There d|z| = Re(conj(z) z')/|z|, and
    d sqrt(ab) = (a'b + ab') / (2 sqrt(ab)) where a, b > 0; where a factor is
    0 (or below) the one-sided rule is: both factors 0, sqrt(a'b'); only one,
    with a nonzero derivative, +inf (then dc = -inf); otherwise 0.  Raises
    EigenFailureError, as `_concurrence_raw` does, for an eigenvalue below
    -INPUT_PSD_FLOOR.
    """
    a = mats[..., _X_FIRST, _X_FIRST].real
    b = mats[..., _X_SECOND, _X_SECOND].real
    z = mats[..., _X_FIRST, _X_SECOND]
    abs_z = np.abs(z)
    min_eig = ((a + b) / 2.0 - np.hypot((a - b) / 2.0, abs_z)).min(axis=-1)
    if (min_eig < -INPUT_PSD_FLOOR).any():
        raise EigenFailureError(
            f"input has eigenvalue {min_eig.min()!r}, far outside the positive cone"
        )
    root = np.sqrt(np.maximum(a * b, 0.0))
    terms = abs_z - root[..., ::-1]
    first = terms[..., 0] >= terms[..., 1]
    c = np.clip(2.0 * np.where(first, terms[..., 0], terms[..., 1]), 0.0, 1.0)
    if mats_dot is None:
        return c, min_eig, None

    a_dot = mats_dot[..., _X_FIRST, _X_FIRST].real
    b_dot = mats_dot[..., _X_SECOND, _X_SECOND].real
    z_dot = mats_dot[..., _X_FIRST, _X_SECOND]
    a_zero, b_zero = a <= 0.0, b <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        d_abs_z = (z.real * z_dot.real + z.imag * z_dot.imag) / abs_z
        d_root = (a_dot * b + a * b_dot) / (2.0 * root)
    zero_dot = np.where(a_zero, a_dot, b_dot)
    d_root = np.where(a_zero | b_zero, np.where(zero_dot != 0.0, np.inf, 0.0), d_root)
    d_root = np.where(a_zero & b_zero, np.sqrt(np.maximum(a_dot * b_dot, 0.0)), d_root)
    d_terms = d_abs_z - d_root[..., ::-1]
    dc = np.where(c > 0.0, 2.0 * np.where(first, d_terms[..., 0], d_terms[..., 1]), 0.0)
    return c, min_eig, dc


def _measure(mats: np.ndarray, mats_dot=None):
    """Concurrences, smallest eigenvalues and, when mats_dot is given, dc
    along it, of a complex (..., 4, 4) stack, by the one rule per state:
    an X-state (`_is_x`) takes `_x_measure`, any other `_concurrence_raw`,
    whose dc is NaN (`_eof_slopes` is the derivative there)."""
    x = _is_x(mats)
    if x.all():
        return _x_measure(mats, mats_dot)
    c, min_eig = np.empty(x.shape), np.empty(x.shape)
    dc = None if mats_dot is None else np.full(x.shape, np.nan)
    if x.any():
        dots = None if mats_dot is None else np.broadcast_to(mats_dot, mats.shape)[x]
        c[x], min_eig[x], dc_x = _x_measure(mats[x], dots)
        if dc is not None:
            dc[x] = dc_x
    c[~x], _, w = _concurrence_raw(mats[~x])
    min_eig[~x] = w[..., 0]
    return c, min_eig, dc


def _eof_and_min_eig(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E and the smallest eigenvalue of every state in a complex (..., 4, 4) stack."""
    c, min_eig, _ = _measure(mats)
    return _eof_of_concurrence(c), min_eig


def eof_many(mats) -> np.ndarray:
    """Entanglement of formation of every state in a finite (..., 4, 4) stack.

    Raises DomainError for a non-finite element, EigenFailureError when any
    member has an eigenvalue below -INPUT_PSD_FLOOR or a decomposition fails.
    """
    mats = _as_complex(mats)
    if mats.shape[-2:] != (4, 4):
        raise DimensionMismatchError(f"eof needs a stack of 4x4 matrices, got {mats.shape}")
    return _eof_and_min_eig(_finite(mats, "eof's stack"))[0]


def eof(rho: DensityMatrix) -> float:
    """Entanglement of formation E = h((1 + sqrt(1 - c^2)) / 2)."""
    return float(eof_many(rho.elements))


def _measure_slope(c):
    """dE/dc = c atanh(u)/(u ln2), u = sqrt(1-c^2), elementwise; 1/ln2 at c=1."""
    u = np.sqrt(np.maximum(0.0, 1.0 - c * c))
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = c * np.arctanh(u) / (u * LN2)
    return np.where(u == 0.0, c / LN2, slope)


def _eof_slopes(mat: np.ndarray, c, lam: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """dE along each direction D of a (k, 4, 4) stack, at the 4x4 state mat.

    c and lam are mat's concurrence and lambdas from `_concurrence_raw`.  With
    R = rho rho_tilde = X diag(mu) X^-1 from one eigendecomposition, D moves R
    by dR = D rho_tilde + rho D_tilde, and to first order dmu_i = (X^-1 dR X)_ii
    (Magnus, Econometric Theory 1, 179 (1985)).  Then dl_i = dmu_i / (2 l_i),
    dc = dl_1 - dl_2 - dl_3 - dl_4 and dE = dE/dc dc.  Over a cluster of equal
    l_i only the sum of the dmu_i enters, and it does not depend on the basis
    eig picks.

    A lambda at or below ZERO_LAMBDA_TOL has no first-order derivative.  On
    an X-state (rho_12, rho_13, rho_24, rho_34 exactly zero) it contributes
    0, as it does to a symmetric difference quotient; this misses a zero
    lambda that grows linearly, as at 0.8|00> + 0.6|11> under damping.  On
    any other state E has a one-sided kink there, and KinkRegionError is
    raised.  KinkRegionError is also raised when c <= KINK_TOL: the
    concurrence has a kink at c = 0 and one-sided derivatives there are
    direction-dependent.
    """
    if c <= KINK_TOL:
        raise KinkRegionError(
            f"concurrence {float(c)!r} is within {KINK_TOL} of the c = 0 kink"
        )
    zero = lam <= ZERO_LAMBDA_TOL
    if zero.any() and mat[_OFF_X].any():
        raise KinkRegionError(
            f"lambda {float(lam[-1])!r} of a state outside the X form is within "
            f"{ZERO_LAMBDA_TOL} of 0, where the measure has a one-sided kink"
        )

    tilde = _flip(mat)
    try:
        mu, x = np.linalg.eig(mat @ tilde)
        x = x[:, np.argsort(-mu.real)]  # the order of lam, which decreases
        x_inv = np.linalg.inv(x)
    except np.linalg.LinAlgError as exc:
        raise EigenFailureError(f"eigendecomposition of rho rho_tilde failed: {exc}") from exc
    d_mu = np.einsum("kil,li->ki", x_inv @ (directions @ tilde + mat @ _flip(directions)), x)
    d_lam = np.where(zero, 0.0, d_mu.real / (2.0 * np.where(zero, 1.0, lam)))
    return _measure_slope(c) * (d_lam @ _CONCURRENCE_SIGNS)


def eof_gradient(rho: DensityMatrix) -> MeasureGradient:
    """Exact gradient of eof over the independent elements.

    Each independent element rho_ij (j >= i) moves with its Hermitian
    partner rho_ji following along; no trace constraint is enforced.  The
    partials are `_eof_slopes` along the 16 basis directions of the element
    order.  Raises KinkRegionError where they are undefined (see there).
    """
    mat = _two_qubit(rho, "eof_gradient")
    c, lam, _ = _concurrence_raw(mat)
    grad = np.zeros((2, 4, 4))
    grad[_PART, _ROW, _COL] = _eof_slopes(mat, c, lam, _DIRECTIONS)
    grad.setflags(write=False)
    return MeasureGradient(dE_dRe=grad[0], dE_dIm=grad[1])


def concurrence_werner(w: WernerParams) -> float:
    """Closed form for Bell-diagonal states: max(0, 2 max(a,b,c,d) - 1).

    The largest weight plays the distinguished role; smaller weights are
    relabelled implicitly by taking the max.
    """
    return max(0.0, 2.0 * max(w.a, w.b, w.c, w.d) - 1.0)
