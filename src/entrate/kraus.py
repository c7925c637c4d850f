"""Kraus channels and the first-order effective-Hamiltonian picture.

A weak system-environment coupling expanded to first order in dt reduces the
Kraus map to unitary dynamics i d(rho)/dt = [H_e, rho] with
H_e = sum_{mu,nu} sqrt(p_nu) <mu|H_t|nu>.  Only Hermitian H_e is accepted by
the evolver: a non-Hermitian generator would break trace conservation.
"""

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    IncompleteChannelError,
    NonHermitianError,
    WeightError,
)
from .lindblad import LindbladModel, Trajectory, integrate
from .qstate import DensityMatrix, new_density

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
            ops = np.array(self.operators, dtype=complex)
        except ValueError as exc:  # a ragged sequence
            raise DimensionMismatchError(f"Kraus operators differ in shape: {exc}") from exc
        if ops.ndim != 3 or ops.shape[0] == 0 or ops.shape[1] != ops.shape[2]:
            raise DimensionMismatchError(
                f"channel needs at least one square Kraus operator, got shape {ops.shape}"
            )
        ops.setflags(write=False)
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators.shape[1]


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """First-order effective generator; not necessarily Hermitian as built."""

    h_e: np.ndarray


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
    if defect > COMPLETENESS_TOL:
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
    """Single-qubit amplitude damping: |1> decays to |0> with probability eta."""
    if not 0.0 <= eta <= 1.0:
        raise WeightError(f"damping probability must lie in [0, 1], got {eta!r}")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - eta)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(eta)], [0.0, 0.0]], dtype=complex)
    return KrausChannel(operators=(k0, k1))


def build_effective_hamiltonian(
    h_t_elements: Mapping[tuple[int, int], np.ndarray],
    p: Sequence[float],
) -> EffectiveHamiltonian:
    """H_e = sum over (mu, nu) of sqrt(p_nu) * <mu|H_t|nu> system blocks.

    `h_t_elements` maps environment index pairs to system-space matrices;
    missing pairs are zero.  `p` holds the environment weights p_nu.
    """
    p = list(p)
    if not np.isfinite(p).all():
        raise DomainError(f"environment weights must be finite, got {p}")
    if any(w < 0 for w in p):
        raise WeightError(f"environment weights must be nonnegative, got {p}")
    total = sum(p)
    if abs(total - 1.0) > WEIGHT_TOL:
        raise WeightError(f"environment weights must sum to 1, got {total!r}")
    if not h_t_elements:
        raise DimensionMismatchError("h_t_elements must contain at least one block")

    blocks = {k: np.asarray(v, dtype=complex) for k, v in h_t_elements.items()}
    shape = next(iter(blocks.values())).shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DimensionMismatchError(f"blocks must be square, got {shape}")
    h_e = np.zeros(shape, dtype=complex)
    for (mu, nu), block in blocks.items():
        if not (0 <= mu < len(p) and 0 <= nu < len(p)):
            raise WeightError(f"environment index pair ({mu}, {nu}) outside weight list")
        if block.shape != shape:
            raise DimensionMismatchError("blocks differ in shape")
        h_e = h_e + np.sqrt(p[nu]) * block
    return EffectiveHamiltonian(h_e=h_e)


def evolve_effective(
    h_e: EffectiveHamiltonian, rho0: DensityMatrix, t_end: float, dt: float
) -> Trajectory:
    """Integrate d(rho)/dt = -i[H_e, rho] for Hermitian H_e."""
    h = np.asarray(h_e.h_e, dtype=complex)
    defect = np.abs(h - h.conj().T).max()
    if defect > HERMITICITY_TOL:
        raise NonHermitianError(
            f"effective Hamiltonian Hermiticity defect {defect!r} exceeds {HERMITICITY_TOL}"
        )
    if h.shape[0] != rho0.dim:
        raise DimensionMismatchError(
            f"H_e dim {h.shape[0]} does not match state dim {rho0.dim}"
        )
    # The Hermitian part passes LindbladModel's tighter Hermiticity check
    # and leaves an exactly Hermitian H_e unchanged.
    return integrate(LindbladModel(h0=(h + h.conj().T) / 2.0), rho0, t_end, dt)
