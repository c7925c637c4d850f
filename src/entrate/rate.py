"""Entanglement rate Gamma(t) = dE/dt by three independent routes.

Routes:
  * rate_numeric  -- central difference of E along an integrated trajectory;
                     the ground-truth oracle for the other two.
  * rate_chain    -- sum over independent matrix elements of
                     (dE/d rho_ij) (d rho_ij / dt), gradients by finite
                     differences.
  * rate_werner / rate_xy -- closed forms for the two parametric families,
                     exact chain rules of the family concurrences.

Closed-form conventions: with u = sqrt(1 - c^2), the measure derivative is
dE/dc = c * atanh(u) / (u ln 2), approaching 1/ln 2 as c -> 1.  For the XY
family the concurrence is G = 2|q| and stays exactly 2|q(t)| along the
damped-XY flow, giving
    Gamma = [2 G atanh(u) / (u ln 2)] * (g qI (2p-1) - gamma |q|^2) / |q|
with prefactor limit 2/ln2 at G = 1.  Gamma is positive exactly when
g/gamma exceeds |q|^2 / (qI (2p-1)).
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .entanglement import _COL, _PART, _ROW, eof, eof_gradient
from .errors import (
    DegenerateDirectionError,
    DomainError,
    IndexOutOfRangeError,
    SeparableRegionError,
)
from .lindblad import ModelParams, Trajectory
from .qstate import DensityMatrix, WernerParams, XYFamilyParams, unchecked_density

SEPARABLE_TOL = 1e-6
XY_SEPARABLE_TOL = 1e-8
LN2 = float(np.log(2.0))
# rate_chain's term per independent element: rho_ii, Re rho_ij, Im rho_ij.
_TERM_NAMES = tuple(f"{('Re ', 'Im ')[part] if row != col else ''}rho{row + 1}{col + 1}"
                    for part, row, col in zip(_PART, _ROW, _COL))


@dataclass(frozen=True)
class RateBreakdown:
    """Total rate plus its per-element (dE term, d rho term) contributions."""

    gamma_total: float
    terms: Sequence[tuple[str, float, float]]


def rate_numeric(trajectory: Trajectory, index: int) -> float:
    """Central difference of the entanglement of formation at a trajectory index."""
    n = len(trajectory)
    if not 1 <= index <= n - 2:
        raise IndexOutOfRangeError(
            f"index {index} has no neighbours in a trajectory of length {n}"
        )
    e_plus = eof(unchecked_density(trajectory.elements[index + 1]))
    e_minus = eof(unchecked_density(trajectory.elements[index - 1]))
    return (e_plus - e_minus) / (trajectory.times[index + 1] - trajectory.times[index - 1])


def rate_chain(rho: DensityMatrix, rho_dot: np.ndarray) -> RateBreakdown:
    """Pair the measure gradient with the element derivatives.

    Diagonal elements contribute dE/d(rho_ii) * Re(drho_ii/dt); each
    off-diagonal element contributes real and imaginary parts separately.
    Propagates KinkRegionError where the gradient is undefined.
    """
    grad = eof_gradient(rho)
    rho_dot = np.asarray(rho_dot, dtype=complex)
    slopes = np.stack([grad.dE_dRe, grad.dE_dIm])[_PART, _ROW, _COL]
    rates = np.stack([rho_dot.real, rho_dot.imag])[_PART, _ROW, _COL]
    # A running total in element order; np.sum would pair the terms up.
    total = np.cumsum(slopes * rates)[-1]
    return RateBreakdown(gamma_total=total, terms=tuple(zip(_TERM_NAMES, slopes, rates)))


def _measure_slope(c):
    """dE/dc = c atanh(u)/(u ln2), u = sqrt(1-c^2), elementwise; 1/ln2 at c=1."""
    u = np.sqrt(np.maximum(0.0, 1.0 - c * c))
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = c * np.arctanh(u) / (u * LN2)
    return np.where(u == 0.0, c / LN2, slope)


def rate_werner(w: WernerParams, params: ModelParams) -> float:
    """Closed-form instantaneous rate for a Bell-diagonal initial state.

    With F = a - b - c - d > 0 the concurrence is F and evolves as
        dF/dt = gamma (c + d) - 2 gamma a          for c + d > 0,
        dF/dt = -gamma F                           on the c + d = 0 edge,
    where on the edge rho11*rho44 stays identically zero and the noise
    floor sqrt(rho11 rho44) never bites.  Gamma = dE/dF * dF/dt; always
    nonpositive, so Bell-diagonal states cannot gain entanglement here.
    """
    f = w.a - w.b - w.c - w.d
    if f <= SEPARABLE_TOL:
        raise SeparableRegionError(
            f"closed form needs F = a-b-c-d > {SEPARABLE_TOL}, got {f!r}"
        )
    return float(_rate_werner_many(w.a, w.b, w.c, w.d, params.gamma))


def _rate_werner_many(a, b, c, d, gamma) -> np.ndarray:
    """rate_werner elementwise over arrays of weights, without its F check."""
    f = a - b - c - d
    s = c + d
    f_dot = np.where(s > 0.0, gamma * s - 2.0 * gamma * a, -gamma * f)
    return _measure_slope(f) * f_dot


def _rate_xy_many(p, q, g, gamma) -> np.ndarray:
    """rate_xy_value elementwise over arrays of p and q, NaN where it raises."""
    aq = np.hypot(np.real(q), np.imag(q))
    big_g = 2.0 * aq
    bracket = g * np.imag(q) * (2.0 * p - 1.0) - gamma * aq * aq
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = 2.0 * _measure_slope(np.minimum(big_g, 1.0)) * bracket / aq
    return np.where((aq > XY_SEPARABLE_TOL) & (big_g <= 1.0 + 1e-12), rate, np.nan)


def rate_xy_value(p: float, q: complex, g: float, gamma: float) -> float:
    """Raw closed-form rate for population p and coherence q.

    Defined wherever 0 < |q| <= 1/2, independent of whether (p, q) jointly
    satisfies the state positivity condition; sweep commands rely on this
    to evaluate the formula on the full coherence disk.
    """
    try:
        aq = abs(q)
    except OverflowError:  # |q| beyond the largest float
        aq = np.inf
    if aq <= XY_SEPARABLE_TOL:
        raise SeparableRegionError(f"closed form needs |q| > {XY_SEPARABLE_TOL}, got {aq!r}")
    big_g = 2.0 * aq
    if big_g > 1.0 + 1e-12:
        raise DomainError(f"concurrence 2|q| = {big_g!r} exceeds 1")
    return float(_rate_xy_many(p, q, g, gamma))


def rate_xy(x: XYFamilyParams, params: ModelParams) -> float:
    """Closed-form instantaneous rate for the XY family.

    The sign always matches the sign of g qI (2p-1) - gamma |q|^2.
    """
    return rate_xy_value(x.p, x.q, params.g, params.gamma)


def criterion_threshold_value(p: float, q: complex) -> float:
    """Raw threshold |q|^2 / (qI (2p-1)), without family validation."""
    denom = q.imag * (2.0 * p - 1.0)
    if denom == 0.0:
        raise DegenerateDirectionError(
            "qI (2p-1) = 0: no entangling direction, the rate has the sign of -gamma |q|^2"
        )
    try:
        aq2 = abs(q) ** 2
    except OverflowError:  # |q|^2 beyond the largest float
        aq2 = np.inf
    return aq2 / denom


def criterion_threshold(x: XYFamilyParams) -> float:
    """Threshold |q|^2 / (qI (2p-1)): the rate is positive iff g/gamma exceeds it."""
    return criterion_threshold_value(x.p, x.q)
