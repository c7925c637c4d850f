"""Time evolution under the Lindblad master equation.

Two interchangeable right-hand sides are provided: a generic backend built
from a free Hamiltonian plus damping/pumping channels, and a specialized
backend with the closed-form element equations of two dipole-coupled qubits
damped at rate gamma (hbar = 1 throughout).  `rhs_consistency_check`
cross-validates one against the other.
"""

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    NonHermitianError,
    StepSizeTooLargeError,
    TraceNotOneError,
)
from .qstate import DensityMatrix, unchecked_density

HERMITICITY_TOL = 1e-12
STEP_DRIFT_TOL = 1e-6
DRIFT_RATE_TOL = 1e-8

_SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


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
        defect = np.abs(h0 - h0.conj().T).max()
        if defect > HERMITICITY_TOL:
            raise NonHermitianError(f"h0 Hermiticity defect {defect!r}")
        dim = h0.shape[0]
        for x_minus, k_rate, g_rate in self.channels:
            if np.asarray(x_minus).shape != (dim, dim):
                raise DimensionMismatchError("channel operator dimension mismatch")
            if k_rate < 0 or g_rate < 0:
                raise DomainError("channel rates must be nonnegative")


@dataclass(frozen=True)
class Trajectory:
    """Time grid and the density matrices stored at each grid point."""

    times: np.ndarray
    states: Sequence[DensityMatrix]

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        if len(times) != len(self.states):
            raise DimensionMismatchError("times and states length mismatch")
        if len(times) > 1 and np.diff(times).min() <= 0:
            raise DomainError("trajectory times must be strictly increasing")
        dims = {s.dim for s in self.states}
        if len(dims) > 1:
            raise DimensionMismatchError(f"states have mixed dimensions {dims}")
        for t, s in zip(times, self.states):
            defect = abs(s.elements.trace() - 1.0)
            if defect > 1e-8:
                raise TraceNotOneError(f"state at t={t} has trace defect {defect!r}")

    def __len__(self):
        return len(self.states)


def rhs_generic(model: LindbladModel, rho: DensityMatrix) -> np.ndarray:
    """d(rho)/dt = -i[h0, rho] + damping and pumping channel terms."""
    mat = rho.elements
    h0 = model.h0
    if mat.shape != h0.shape:
        raise DimensionMismatchError(
            f"state shape {mat.shape} does not match h0 shape {h0.shape}"
        )
    out = -1j * (h0 @ mat - mat @ h0)
    for x_minus, k_rate, g_rate in model.channels:
        xm = np.asarray(x_minus, dtype=complex)
        xp = xm.conj().T
        if k_rate:
            pp = xp @ xm
            out += 0.5 * k_rate * (2.0 * xm @ mat @ xp - pp @ mat - mat @ pp)
        if g_rate:
            mm = xm @ xp
            out += 0.5 * g_rate * (2.0 * xp @ mat @ xm - mm @ mat - mat @ mm)
    return out


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
        (np.kron(_SIGMA_MINUS, _I2), params.gamma, 0.0),
        (np.kron(_I2, _SIGMA_MINUS), params.gamma, 0.0),
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
    rhs: Callable[[DensityMatrix], np.ndarray],
    rho0: DensityMatrix,
    t_end: float,
    dt: float,
) -> Trajectory:
    """Classic fixed-step fourth-order Runge-Kutta on the density matrix.

    The trajectory is sampled at every step.  Each stored state is
    re-Hermitized ((rho + rho^dagger)/2) and trace-renormalized; the trace
    drift before correction must stay below 1e-6 per step and 1e-8 per unit
    time, otherwise StepSizeTooLargeError is raised.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise DomainError(f"step size must be positive and finite, got {dt!r}")
    if not (np.isfinite(t_end) and t_end >= 0):
        raise DomainError(f"t_end must be nonnegative and finite, got {t_end!r}")

    def call(mat: np.ndarray) -> np.ndarray:
        return np.asarray(rhs(unchecked_density(mat)), dtype=complex)

    times = [0.0]
    states = [_store(rho0.elements)]
    t = 0.0
    mat = np.array(rho0.elements)
    total_drift = 0.0
    while t < t_end - 1e-12 * max(dt, t_end):
        step = min(dt, t_end - t)
        k1 = call(mat)
        k2 = call(mat + 0.5 * step * k1)
        k3 = call(mat + 0.5 * step * k2)
        k4 = call(mat + step * k3)
        mat = mat + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += step

        drift = abs(mat.trace() - 1.0)
        if drift > STEP_DRIFT_TOL:
            raise StepSizeTooLargeError(
                f"trace drifted by {drift!r} in one step of {step!r}"
            )
        total_drift += drift
        mat = (mat + mat.conj().T) / 2.0
        mat = mat / mat.trace().real
        times.append(t)
        states.append(_store(mat))

    if t_end > 0 and total_drift / t_end > DRIFT_RATE_TOL:
        raise StepSizeTooLargeError(
            f"accumulated trace drift {total_drift!r} exceeds "
            f"{DRIFT_RATE_TOL} per unit time over t_end={t_end!r}"
        )
    return Trajectory(times=np.array(times), states=tuple(states))


def _store(mat: np.ndarray) -> DensityMatrix:
    return unchecked_density(np.array(mat))
