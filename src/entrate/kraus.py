"""Kraus channels and the first-order effective-Hamiltonian picture.

A weak system-environment coupling expanded to first order in dt reduces the
Kraus map to unitary dynamics i d(rho)/dt = [H_e, rho] with
H_e = sum_{mu,nu} sqrt(p_nu) <mu|H_t|nu>.  Only Hermitian H_e is accepted by
the evolver: a non-Hermitian generator would break trace conservation.
"""

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DimensionMismatchError, DomainError, IncompleteChannelError, WeightError
from .lindblad import LindbladModel, Trajectory, integrate
from .qstate import (
    DensityMatrix,
    _as_complex,
    _check_hermitian,
    _finite_numbers,
    _integer,
    _matrix,
    _read_only,
    new_density,
)

COMPLETENESS_TOL = 1e-10
WEIGHT_TOL = 1e-10
HERMITICITY_TOL = 1e-10


@dataclass(frozen=True)
class KrausChannel:
    """Ordered Kraus operators, stored as one read-only (k, d, d) complex stack.

    Any sequence of k same-shape square matrices is accepted.
    """

    operators: np.ndarray

    def __post_init__(self):
        try:
            ops = _read_only(_as_complex(self.operators))
        except DomainError as exc:  # ragged (operators of different shapes) or not numeric
            raise DimensionMismatchError(
                f"Kraus operators must be numeric matrices of one shape: {exc}"
            ) from exc
        if ops.ndim != 3 or ops.shape[0] == 0 or ops.shape[1] != ops.shape[2]:
            raise DimensionMismatchError(
                f"channel needs at least one square Kraus operator, got shape {ops.shape}"
            )
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators.shape[1]


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """First-order effective generator; not necessarily Hermitian as built.

    H_e is stored as a read-only complex copy.  DimensionMismatchError unless
    it is a non-empty square matrix, DomainError unless it is finite.
    """

    h_e: np.ndarray

    def __post_init__(self):
        h_e = _read_only(_matrix(self.h_e, "H_e"))
        object.__setattr__(self, "h_e", h_e)


def completeness_defect(channel: KrausChannel) -> float:
    """Max-norm of sum(K^dagger K) - identity."""
    ops = channel.operators
    total = (ops.conj().swapaxes(1, 2) @ ops).sum(axis=0)
    return float(np.abs(total - np.eye(channel.dim)).max())


def apply_channel(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply rho -> sum(K rho K^dagger); the channel must be complete."""
    if channel.dim != rho.dim:
        raise DimensionMismatchError(
            f"channel dim {channel.dim} does not match state dim {rho.dim}"
        )
    defect = completeness_defect(channel)
    if not defect <= COMPLETENESS_TOL:  # a NaN defect fails too
        raise IncompleteChannelError(f"completeness defect {defect!r} exceeds {COMPLETENESS_TOL}")
    ops = channel.operators
    return new_density((ops @ rho.elements @ ops.conj().swapaxes(1, 2)).sum(axis=0))


def compose(first: KrausChannel, second: KrausChannel) -> KrausChannel:
    """Channel applying `first` then `second`: every product K2 @ K1, K2 varying slowest."""
    if first.dim != second.dim:
        raise DimensionMismatchError("cannot compose channels of different dims")
    products = second.operators[:, None] @ first.operators[None, :]
    return KrausChannel(operators=products.reshape(-1, first.dim, first.dim))


def amplitude_damping(eta: float) -> KrausChannel:
    """Single-qubit amplitude damping: |1> decays to |0> with probability eta,
    a real number in [0, 1] (WeightError)."""
    if not (_finite_numbers((eta,)) and 0.0 <= eta <= 1.0):
        raise WeightError(f"damping probability must lie in [0, 1], got {eta!r}")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - eta)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(eta)], [0.0, 0.0]], dtype=complex)
    return KrausChannel(operators=(k0, k1))


def build_effective_hamiltonian(
    h_t_elements: Mapping[tuple[int, int], np.ndarray],
    p: Sequence[float],
) -> EffectiveHamiltonian:
    """H_e = sum over (mu, nu) of sqrt(p_nu) * <mu|H_t|nu> system blocks.

    `h_t_elements` maps environment index pairs (mu, nu) of integers to finite
    square system-space matrices; missing pairs are zero.  `p` holds the
    environment weights p_nu, a sequence of finite real numbers.
    """
    if not _finite_numbers(p):
        raise DomainError(f"environment weights must be a sequence of finite numbers, got {p!r}")
    p = list(p)
    if any(w < 0 for w in p):
        raise WeightError(f"environment weights must be nonnegative, got {p}")
    total = sum(p)
    if abs(total - 1.0) > WEIGHT_TOL:
        raise WeightError(f"environment weights must sum to 1, got {total!r}")
    if not h_t_elements:
        raise DimensionMismatchError("h_t_elements must contain at least one block")

    blocks = {k: _matrix(v, "an H_t block") for k, v in h_t_elements.items()}
    shape = next(iter(blocks.values())).shape
    h_e = np.zeros(shape, dtype=complex)
    for key, block in blocks.items():
        if not (isinstance(key, tuple) and len(key) == 2):
            raise DomainError(f"an environment index pair must be a (mu, nu) tuple, got {key!r}")
        mu, nu = (_integer(i, "an environment index") for i in key)
        if not (0 <= mu < len(p) and 0 <= nu < len(p)):
            raise WeightError(f"environment index pair ({mu}, {nu}) outside weight list")
        if block.shape != shape:
            raise DimensionMismatchError("blocks differ in shape")
        with np.errstate(over="ignore", invalid="ignore"):  # EffectiveHamiltonian reports overflow
            h_e = h_e + np.sqrt(p[nu]) * block
    return EffectiveHamiltonian(h_e=h_e)


def evolve_effective(
    h_e: EffectiveHamiltonian, rho0: DensityMatrix, t_end: float, dt: float
) -> Trajectory:
    """Integrate d(rho)/dt = -i[H_e, rho] for Hermitian H_e.

    integrate raises DimensionMismatchError when H_e and rho0 differ in shape.
    """
    h = h_e.h_e
    _check_hermitian(h, "effective Hamiltonian Hermiticity", HERMITICITY_TOL)
    # The Hermitian part passes LindbladModel's tighter Hermiticity check
    # and leaves an exactly Hermitian H_e unchanged; halving each term first
    # keeps it finite for entries near the float limit.
    return integrate(LindbladModel(h0=h / 2.0 + h.conj().T / 2.0), rho0, t_end, dt)
