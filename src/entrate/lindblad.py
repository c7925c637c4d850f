"""Time evolution under the Lindblad master equation.

Two interchangeable right-hand sides are provided: a generic backend built
from a free Hamiltonian plus damping/pumping channels, and a specialized
backend with the closed-form element equations of two dipole-coupled qubits
damped at rate gamma (hbar = 1 throughout).  `rhs_consistency_check`
cross-validates one against the other.  In the generic backend damping and
pumping are one dissipator, D[a] rho = r/2 (2 a rho a^dagger - a^dagger a rho
- rho a^dagger a), taken for the jump a = X- at rate k and a = X+ at rate g.

The generic model is linear, vec(rho)' = L vec(rho), so `integrate`
propagates it exactly with exp(L dt) (Havel, J. Math. Phys. 44, 534 (2003));
the exponential is a scaling-and-squaring Taylor series (Al-Mohy & Higham,
SIAM J. Matrix Anal. Appl. 31, 970 (2009)).  `ModelParams` stands for the
damped XY model there: its generator is omega L_omega + g L_g + gamma
L_gamma, from three unit generators built once at import
(`_XY_GENERATORS`).  A callable right-hand side is stepped by RK4.
"""

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    NonFiniteError,
    StepSizeTooLargeError,
    TraceNotOneError,
)
from .qstate import (
    HERMITICITY_TOL,
    DensityMatrix,
    _as_complex,
    _as_float,
    _check_hermitian,
    _finite,
    _finite_numbers,
    _matrix,
    _read_only,
    _two_qubit,
    unchecked_density,
)

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
        if not _finite_numbers((self.omega, self.g, self.gamma)):
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
    zero temperature.  h0 must be a finite, square and Hermitian matrix,
    each X- a finite matrix of its shape and each rate a nonnegative finite
    real number.  h0 and each X- are stored as read-only complex copies and
    each rate as a float, so later changes to the caller's arrays do not
    reach the model.
    """

    h0: np.ndarray
    channels: Sequence[tuple[np.ndarray, float, float]] = field(default_factory=tuple)

    def __post_init__(self):
        h0 = _read_only(_matrix(self.h0, "h0"))
        _check_hermitian(h0, "h0 Hermiticity", HERMITICITY_TOL)
        try:
            entries = [(x_minus, k, g) for x_minus, k, g in self.channels]
        except (TypeError, ValueError) as exc:
            raise DimensionMismatchError(
                f"channels must be a sequence of (X-, k, g) triples: {exc}"
            ) from exc
        channels = []
        for x_minus, k_rate, g_rate in entries:
            x_minus = _read_only(_matrix(x_minus, "a channel operator", h0.shape))
            if not (_finite_numbers((k_rate, g_rate)) and k_rate >= 0 and g_rate >= 0):
                raise DomainError(f"channel rates must be nonnegative and finite, got "
                                  f"{k_rate!r}, {g_rate!r}")
            channels.append((x_minus, float(k_rate), float(g_rate)))
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "channels", tuple(channels))


@dataclass(frozen=True)
class Trajectory:
    """Time grid and the (T, d, d) stack of density matrices at its points.

    Both arrays are read-only copies; the elements and times are finite and
    the times strictly increasing.
    """

    times: np.ndarray
    elements: np.ndarray

    def __post_init__(self):
        elements = _read_only(_as_complex(self.elements))
        if elements.ndim != 3 or elements.shape[1] != elements.shape[2]:
            raise DimensionMismatchError(
                f"elements must be a (T, d, d) stack, got shape {elements.shape}"
            )
        times = _read_only(_matrix(self.times, "times", elements.shape[:1], _as_float))
        if len(times) > 1 and np.diff(times).min() <= 0:
            raise DomainError("trajectory times must be strictly increasing")
        defect = np.abs(np.trace(elements, axis1=1, axis2=2) - 1.0)
        bad = np.flatnonzero(~(defect <= TRAJECTORY_TRACE_TOL))  # NaN counts as bad
        if bad.size:
            k = bad[0]
            raise TraceNotOneError(f"state at t={times[k]} has trace defect {defect[k]}")
        _finite(elements, "trajectory elements")
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
    for xm, k_rate, g_rate in model.channels:
        xp = xm.conj().T
        # One dissipator, jump a with b = a^dagger: damping a = X-, pumping a = X+.
        for a, b, rate in ((xm, xp, k_rate), (xp, xm, g_rate)):
            if rate:
                ba = b @ a
                out += 0.5 * rate * (2.0 * a @ mats @ b - ba @ mats - mats @ ba)
    return out


def liouvillian(model: LindbladModel) -> np.ndarray:
    """The d^2 x d^2 generator L with vec(d rho/dt) = L vec(rho), vec row-major.

    Column k of L is the right-hand side at the k-th basis matrix.
    """
    n = model.h0.shape[0] ** 2
    basis = np.eye(n, dtype=complex).reshape(n, *model.h0.shape)
    return np.ascontiguousarray(_rhs_stack(model, basis).reshape(n, n).T)


def xy_hamiltonian(omega: float, g: float) -> np.ndarray:
    """H = omega/2 (sz1 + sz2) + g (s+1 s-2 + s-1 s+2), ground state at -omega;
    omega and g must be finite real numbers (DomainError)."""
    if not _finite_numbers((omega, g)):
        raise DomainError(f"xy_hamiltonian needs finite omega and g, got {omega!r}, {g!r}")
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


# The damped XY generator is linear in its parameters: liouvillian of
# damped_xy_model(ModelParams(omega, g, gamma)) is omega L_omega + g L_g +
# gamma L_gamma, each term the generator at one unit parameter.
_XY_GENERATORS = np.stack([liouvillian(damped_xy_model(ModelParams(*unit)))
                           for unit in np.eye(3)])
_XY_GENERATORS.setflags(write=False)


def _damped_xy_generator(params: ModelParams) -> np.ndarray:
    """liouvillian(damped_xy_model(params)), from the three unit generators."""
    l_omega, l_g, l_gamma = _XY_GENERATORS
    return params.omega * l_omega + params.g * l_g + params.gamma * l_gamma


def rhs_damped_xy(params: ModelParams, rho: DensityMatrix) -> np.ndarray:
    """Closed-form element equations of the damped XY model.

    The ten upper-triangle equations are written out; the lower triangle
    follows from d(rho_ij)/dt = conj(d(rho_ji)/dt).
    """
    m = _two_qubit(rho, "the damped XY model")
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
    rhs: ModelParams | LindbladModel | Callable[[DensityMatrix], np.ndarray],
    rho0: DensityMatrix,
    t_end: float,
    dt: float,
) -> Trajectory:
    """Evolve rho0 from t = 0 to t_end in steps of dt, sampling every step.

    The last step is shortened to land on t_end.  A LindbladModel, or
    ModelParams standing for the damped XY model, is propagated exactly: each
    step applies exp(L step), one exponential per distinct step length, and
    each stored state after rho0 is Hermitized;
    NonFiniteError is raised when L step overflows, DimensionMismatchError
    when rho0's shape differs from the model's.

    A callable rhs is stepped by classic fourth-order Runge-Kutta.  Each
    derivative it returns must have rho0's shape (DimensionMismatchError)
    and be finite (NonFiniteError).  Each stored state is re-Hermitized
    ((rho + rho^dagger)/2) and trace-renormalized; the trace drift before
    correction must stay below 1e-6 per step and 1e-8 per unit time,
    otherwise StepSizeTooLargeError is raised.
    """
    if not (_finite_numbers((dt,)) and dt > 0):
        raise DomainError(f"step size must be positive and finite, got {dt!r}")
    if not (_finite_numbers((t_end,)) and t_end >= 0):
        raise DomainError(f"t_end must be nonnegative and finite, got {t_end!r}")
    if isinstance(rhs, ModelParams):
        gen, h0_shape = _damped_xy_generator(rhs), (4, 4)
    elif isinstance(rhs, LindbladModel):
        gen, h0_shape = liouvillian(rhs), rhs.h0.shape
    else:
        gen, h0_shape = None, rho0.elements.shape
    if rho0.elements.shape != h0_shape:
        raise DimensionMismatchError(
            f"state shape {rho0.elements.shape} does not match h0 shape {h0_shape}"
        )

    times, n, last = _time_grid(t_end, dt)
    if gen is None:
        steps = [dt] * n if last is None else [dt] * n + [last]
        elements = _rk4(rhs, rho0.elements, steps, t_end)
    else:
        elements = _propagate(gen, rho0.elements, dt, n, last)
    return Trajectory(times=times, elements=elements)


def _time_grid(t_end: float, dt: float) -> tuple[np.ndarray, int, float | None]:
    """`integrate`'s times, its number n of full steps dt and its shortened
    last step (None without one).

    The times are, bitwise, those of the loop
        t = 0; while t < t_end - 1e-12 max(dt, t_end): t += min(dt, t_end - t)
    Its full steps are running sums of dt, which np.add.accumulate forms in
    the loop's order; both conditions for a full step are monotone in t.
    """
    end = t_end - 1e-12 * max(dt, t_end)
    steps = np.full(int(t_end / dt) + 3, float(dt))
    steps[0] = 0.0
    t = np.add.accumulate(steps)  # t[k]: k steps dt
    n = int(np.argmin((t < end) & (dt <= t_end - t)))
    times, t_n = t[:n + 1], float(t[n])
    if t_n >= end:
        return times, n, None
    last = t_end - t_n
    return np.append(times, t_n + last), n, last


def _propagate(gen: np.ndarray, rho0: np.ndarray, dt: float, n: int,
               last: float | None) -> np.ndarray:
    """States after each of n steps dt, then one step `last` unless it is
    None, of vec(rho)' = gen vec(rho), as a stack of d x d matrices.

    With P = exp(gen dt), the rows after the first k are filled by doubling,
    out[k:2k] = out[:k] @ (P^k)^T, squaring P as k doubles: about log2(n)
    products of stacks in place of n matrix-vector products.  Each state
    after rho0 is stored as its Hermitian part (m + m^dagger)/2, as `_rk4`
    stores its states: the products leave round-off, such as imaginary
    parts of about 1e-15 on the diagonal, that a Hermitian flow has not.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # _expm reports overflow
        prop = _expm(gen * dt) if n else None
        prop_last = None if last is None else _expm(gen * last)
    out = np.empty((n + 1 + (last is not None), rho0.size), dtype=complex)
    out[0] = rho0.reshape(-1)
    k = 1
    while k <= n:
        m = min(k, n + 1 - k)
        out[k:k + m] = out[:m] @ prop.T
        k += m
        if k <= n:
            prop = prop @ prop
    if last is not None:
        out[n + 1] = prop_last @ out[n]
    mats = out.reshape(-1, *rho0.shape)
    mats[1:] += np.swapaxes(mats[1:], 1, 2).conj()
    mats[1:] /= 2.0
    return mats


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
        out = _as_complex(rhs(unchecked_density(mat)))
        if out.shape != mat.shape:
            raise DimensionMismatchError(
                f"rhs returned shape {out.shape} for a state of shape {mat.shape}"
            )
        if not np.isfinite(out).all():
            raise NonFiniteError("rhs returned a non-finite derivative")
        return out

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
