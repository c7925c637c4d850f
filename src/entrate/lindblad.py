"""Time evolution under the Lindblad master equation.

Two interchangeable right-hand sides are provided: a generic backend built
from a free Hamiltonian plus damping/pumping channels, and a specialized
backend with the closed-form element equations of two dipole-coupled qubits
damped at rate gamma (hbar = 1 throughout).  `rhs_consistency_check`
cross-validates one against the other.

The generic model is linear, vec(rho)' = L vec(rho), so `integrate`
propagates it exactly with exp(L dt) (Havel, J. Math. Phys. 44, 534 (2003));
the exponential is a scaling-and-squaring Taylor series (Al-Mohy & Higham,
SIAM J. Matrix Anal. Appl. 31, 970 (2009)).  A callable right-hand side is
stepped by RK4.
"""

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    NonFiniteError,
    NonHermitianError,
    StepSizeTooLargeError,
    TraceNotOneError,
)
from .qstate import DensityMatrix, unchecked_density

HERMITICITY_TOL = 1e-12
STEP_DRIFT_TOL = 1e-6
DRIFT_RATE_TOL = 1e-8
TRAJECTORY_TRACE_TOL = 1e-8
_UNIT_ROUNDOFF = 2.0**-53

_SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)
# Lowering operators of qubits 1 and 2, shared read-only by every damped XY model.
_LOWER_1 = np.kron(_SIGMA_MINUS, _I2)
_LOWER_2 = np.kron(_I2, _SIGMA_MINUS)
_LOWER_1.setflags(write=False)
_LOWER_2.setflags(write=False)


@dataclass(frozen=True)
class ModelParams:
    """Damped XY model: frequency omega, coupling g, damping rate gamma."""

    omega: float
    g: float
    gamma: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.omega) and np.isfinite(self.g) and np.isfinite(self.gamma)):
            raise DomainError("model parameters must be finite")
        if self.gamma < 0:
            raise DomainError(f"damping rate must be nonnegative, got {self.gamma!r}")


@dataclass(frozen=True)
class LindbladModel:
    """Free Hamiltonian h0 plus channels (x_minus, k_rate, g_rate).

    Each channel contributes
        k/2 (2 X- rho X+ - X+ X- rho - rho X+ X-)
      + g/2 (2 X+ rho X- - X- X+ rho - rho X- X+)
    with X+ the conjugate transpose of the stored X-.  g_rate vanishes at
    zero temperature.
    """

    h0: np.ndarray
    channels: Sequence[tuple[np.ndarray, float, float]] = field(default_factory=tuple)

    def __post_init__(self):
        h0 = np.asarray(self.h0, dtype=complex)
        if not np.isfinite(h0).all():
            raise DomainError("h0 must be finite")
        defect = np.abs(h0 - h0.conj().T).max()
        if defect > HERMITICITY_TOL:
            raise NonHermitianError(f"h0 Hermiticity defect {defect!r}")
        dim = h0.shape[0]
        for x_minus, k_rate, g_rate in self.channels:
            if np.asarray(x_minus).shape != (dim, dim):
                raise DimensionMismatchError("channel operator dimension mismatch")
            if not (0 <= k_rate < np.inf and 0 <= g_rate < np.inf):  # NaN fails too
                raise DomainError(f"channel rates must be nonnegative and finite, got "
                                  f"{k_rate!r}, {g_rate!r}")


@dataclass(frozen=True)
class Trajectory:
    """Time grid and the (T, d, d) stack of density matrices at its points.

    Both arrays are read-only copies.
    """

    times: np.ndarray
    elements: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        elements = np.array(self.elements, dtype=complex)
        if elements.ndim != 3 or elements.shape[1] != elements.shape[2]:
            raise DimensionMismatchError(
                f"elements must be a (T, d, d) stack, got shape {elements.shape}"
            )
        if times.shape != elements.shape[:1]:
            raise DimensionMismatchError("times and elements length mismatch")
        if len(times) > 1 and np.diff(times).min() <= 0:
            raise DomainError("trajectory times must be strictly increasing")
        defect = np.abs(np.trace(elements, axis1=1, axis2=2) - 1.0)
        bad = np.flatnonzero(~(defect <= TRAJECTORY_TRACE_TOL))  # NaN counts as bad
        if bad.size:
            k = bad[0]
            raise TraceNotOneError(f"state at t={times[k]} has trace defect {defect[k]}")
        times.setflags(write=False)
        elements.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "elements", elements)

    def __len__(self):
        return len(self.times)


def rhs_generic(model: LindbladModel, rho: DensityMatrix) -> np.ndarray:
    """d(rho)/dt = -i[h0, rho] + damping and pumping channel terms."""
    mat = rho.elements
    if mat.shape != model.h0.shape:
        raise DimensionMismatchError(
            f"state shape {mat.shape} does not match h0 shape {model.h0.shape}"
        )
    return _rhs_stack(model, mat)


def _rhs_stack(model: LindbladModel, mats: np.ndarray) -> np.ndarray:
    """rhs_generic's formula on a (..., d, d) stack of matrices."""
    h0 = model.h0
    out = -1j * (h0 @ mats - mats @ h0)
    for x_minus, k_rate, g_rate in model.channels:
        xm = np.asarray(x_minus, dtype=complex)
        xp = xm.conj().T
        if k_rate:
            pp = xp @ xm
            out += 0.5 * k_rate * (2.0 * xm @ mats @ xp - pp @ mats - mats @ pp)
        if g_rate:
            mm = xm @ xp
            out += 0.5 * g_rate * (2.0 * xp @ mats @ xm - mm @ mats - mats @ mm)
    return out


def liouvillian(model: LindbladModel) -> np.ndarray:
    """The d^2 x d^2 generator L with vec(d rho/dt) = L vec(rho), vec row-major.

    Column k of L is the right-hand side at the k-th basis matrix.
    """
    n = model.h0.shape[0] ** 2
    basis = np.eye(n, dtype=complex).reshape(n, *model.h0.shape)
    return np.ascontiguousarray(_rhs_stack(model, basis).reshape(n, n).T)


def xy_hamiltonian(omega: float, g: float) -> np.ndarray:
    """H = omega/2 (sz1 + sz2) + g (s+1 s-2 + s-1 s+2), ground state at -omega."""
    h = np.zeros((4, 4), dtype=complex)
    h[0, 0] = -omega
    h[3, 3] = omega
    h[1, 2] = h[2, 1] = g
    return h


def damped_xy_model(params: ModelParams) -> LindbladModel:
    """Generic-backend formulation: XY Hamiltonian plus one lowering channel per qubit."""
    channels = (
        (_LOWER_1, params.gamma, 0.0),
        (_LOWER_2, params.gamma, 0.0),
    )
    return LindbladModel(h0=xy_hamiltonian(params.omega, params.g), channels=channels)


def rhs_damped_xy(params: ModelParams, rho: DensityMatrix) -> np.ndarray:
    """Closed-form element equations of the damped XY model.

    The ten upper-triangle equations are written out; the lower triangle
    follows from d(rho_ij)/dt = conj(d(rho_ji)/dt).
    """
    if rho.dim != 4:
        raise DimensionMismatchError(f"damped XY model needs dim 4, got {rho.dim}")
    m = rho.elements
    g, gam, om = params.g, params.gamma, params.omega
    out = np.zeros((4, 4), dtype=complex)

    out[0, 0] = gam * (m[1, 1] + m[2, 2])
    out[1, 1] = -1j * g * m[2, 1] + 1j * g * m[1, 2] + gam * m[3, 3] - gam * m[1, 1]
    out[2, 2] = -1j * g * m[1, 2] + 1j * g * m[2, 1] + gam * m[3, 3] - gam * m[2, 2]
    out[3, 3] = -2.0 * gam * m[3, 3]
    out[0, 1] = 1j * g * m[0, 2] + gam * m[2, 3] - 0.5 * gam * m[0, 1] + 1j * om * m[0, 1]
    out[0, 2] = 1j * g * m[0, 1] + gam * m[1, 3] - 0.5 * gam * m[0, 2] + 1j * om * m[0, 2]
    out[0, 3] = -gam * m[0, 3] + 2j * om * m[0, 3]
    out[1, 2] = -1j * g * m[2, 2] + 1j * g * m[1, 1] - gam * m[1, 2]
    out[1, 3] = -1j * g * m[2, 3] - 1.5 * gam * m[1, 3] + 1j * om * m[1, 3]
    out[2, 3] = -1j * g * m[1, 3] - 1.5 * gam * m[2, 3] + 1j * om * m[2, 3]

    for i in range(4):
        for j in range(i + 1, 4):
            out[j, i] = np.conj(out[i, j])
    return out


def rhs_consistency_check(params: ModelParams, rho: DensityMatrix) -> float:
    """Max-norm gap between the specialized and generic backends at one state."""
    model = damped_xy_model(params)
    return float(np.abs(rhs_damped_xy(params, rho) - rhs_generic(model, rho)).max())


def default_step(params: ModelParams) -> float:
    """Default integrator step: 1e-2 over the fastest model time scale."""
    return 1e-2 / max(abs(params.omega), abs(params.g), params.gamma, 1.0)


def integrate(
    rhs: LindbladModel | Callable[[DensityMatrix], np.ndarray],
    rho0: DensityMatrix,
    t_end: float,
    dt: float,
) -> Trajectory:
    """Evolve rho0 from t = 0 to t_end in steps of dt, sampling every step.

    The last step is shortened to land on t_end.  A LindbladModel is
    propagated exactly: each step applies exp(L step), one exponential per
    distinct step length; NonFiniteError is raised when L step overflows,
    DimensionMismatchError when rho0's shape differs from h0's.

    A callable rhs is stepped by classic fourth-order Runge-Kutta.  Each
    stored state is re-Hermitized ((rho + rho^dagger)/2) and
    trace-renormalized; the trace drift before correction must stay below
    1e-6 per step and 1e-8 per unit time, otherwise StepSizeTooLargeError is
    raised.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise DomainError(f"step size must be positive and finite, got {dt!r}")
    if not (np.isfinite(t_end) and t_end >= 0):
        raise DomainError(f"t_end must be nonnegative and finite, got {t_end!r}")
    if isinstance(rhs, LindbladModel) and rho0.elements.shape != rhs.h0.shape:
        raise DimensionMismatchError(
            f"state shape {rho0.elements.shape} does not match h0 shape {rhs.h0.shape}"
        )

    times, steps = [0.0], []
    t = 0.0
    while t < t_end - 1e-12 * max(dt, t_end):
        step = min(dt, t_end - t)
        t += step
        times.append(t)
        steps.append(step)

    if isinstance(rhs, LindbladModel):
        elements = _propagate(rhs, rho0.elements, steps)
    else:
        elements = _rk4(rhs, rho0.elements, steps, t_end)
    return Trajectory(times=np.array(times), elements=elements)


def _propagate(model: LindbladModel, rho0: np.ndarray, steps: Sequence[float]) -> np.ndarray:
    """States after each step, as a (len(steps) + 1, d, d) stack."""
    gen = liouvillian(model)
    props = {}
    vec = rho0.reshape(-1)
    out = [vec]
    for step in steps:
        prop = props.get(step)
        if prop is None:
            with np.errstate(over="ignore", invalid="ignore"):  # _expm reports overflow
                prop = props[step] = _expm(gen * step)
        vec = prop @ vec
        out.append(vec)
    return np.array(out).reshape(-1, *rho0.shape)


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring a truncated Taylor series.

    a is scaled by 2^-s until its 1-norm is at most 1; the Taylor degree m is
    the smallest whose remainder bound |a|^(m+1) / (m+1)! on the scaled norm
    is below the unit roundoff (m <= 18).  No eigenbasis is used, so
    defective generators are handled.
    """
    norm = float(np.abs(a).sum(axis=0).max())
    if not np.isfinite(norm):
        raise NonFiniteError(f"generator times step is not finite (1-norm {norm!r})")
    s = int(np.ceil(np.log2(norm))) if norm > 1.0 else 0
    if s:
        a = a * np.ldexp(1.0, -s)
    scaled = np.ldexp(norm, -s)
    m, bound = 0, scaled
    while bound > _UNIT_ROUNDOFF:
        m += 1
        bound *= scaled / (m + 1)
    eye = np.eye(a.shape[0], dtype=complex)
    out = eye
    for k in range(m, 0, -1):
        out = eye + (a @ out) / k
    for _ in range(s):
        out = out @ out
    # Unsquared, the series is bounded by e^1; only squaring can overflow.
    if s and not np.isfinite(out).all():
        raise NonFiniteError(f"exponential of a generator with 1-norm {norm!r} overflowed")
    return out


def _rk4(
    rhs: Callable[[DensityMatrix], np.ndarray],
    rho0: np.ndarray,
    steps: Sequence[float],
    t_end: float,
) -> np.ndarray:
    def call(mat: np.ndarray) -> np.ndarray:
        return np.asarray(rhs(unchecked_density(mat)), dtype=complex)

    mat = np.array(rho0)
    states = [mat]
    total_drift = 0.0
    for step in steps:
        k1 = call(mat)
        k2 = call(mat + 0.5 * step * k1)
        k3 = call(mat + 0.5 * step * k2)
        k4 = call(mat + step * k3)
        mat = mat + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        drift = abs(mat.trace() - 1.0)
        if drift > STEP_DRIFT_TOL:
            raise StepSizeTooLargeError(
                f"trace drifted by {drift!r} in one step of {step!r}"
            )
        total_drift += drift
        mat = (mat + mat.conj().T) / 2.0
        mat = mat / mat.trace().real
        states.append(mat)

    if t_end > 0 and total_drift / t_end > DRIFT_RATE_TOL:
        raise StepSizeTooLargeError(
            f"accumulated trace drift {total_drift!r} exceeds "
            f"{DRIFT_RATE_TOL} per unit time over t_end={t_end!r}"
        )
    return np.array(states)
