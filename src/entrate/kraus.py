"""Kraus channels and the first-order effective-Hamiltonian picture.

A weak system-environment coupling expanded to first order in dt reduces the
Kraus map to unitary dynamics i d(rho)/dt = [H_e, rho] with
H_e = sum_{mu,nu} sqrt(p_nu) <mu|H_t|nu>.  Only Hermitian H_e is accepted by
the evolver: a non-Hermitian generator would break trace conservation.
"""

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DimensionMismatchError, IncompleteChannelError, NonHermitianError, WeightError
from .lindblad import LindbladModel, Trajectory, integrate
from .qstate import DensityMatrix, new_density

COMPLETENESS_TOL = 1e-10
WEIGHT_TOL = 1e-10
HERMITICITY_TOL = 1e-10


@dataclass(frozen=True)
class KrausChannel:
    """Ordered collection of same-dimension Kraus operators."""

    operators: Sequence[np.ndarray]

    def __post_init__(self):
        if len(self.operators) == 0:
            raise DimensionMismatchError("channel needs at least one operator")
        shape = np.asarray(self.operators[0]).shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise DimensionMismatchError(f"Kraus operators must be square, got {shape}")
        for op in self.operators:
            if np.asarray(op).shape != shape:
                raise DimensionMismatchError("Kraus operators differ in shape")

    @property
    def dim(self) -> int:
        return np.asarray(self.operators[0]).shape[0]


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """First-order effective generator; not necessarily Hermitian as built."""

    h_e: np.ndarray


def completeness_defect(channel: KrausChannel) -> float:
    """Max-norm of sum(K^dagger K) - identity."""
    dim = channel.dim
    acc = np.zeros((dim, dim), dtype=complex)
    for op in channel.operators:
        k = np.asarray(op, dtype=complex)
        acc += k.conj().T @ k
    return float(np.abs(acc - np.eye(dim)).max())


def apply_channel(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply rho -> sum(K rho K^dagger); the channel must be complete."""
    if channel.dim != rho.dim:
        raise DimensionMismatchError(
            f"channel dim {channel.dim} does not match state dim {rho.dim}"
        )
    defect = completeness_defect(channel)
    if defect > COMPLETENESS_TOL:
        raise IncompleteChannelError(f"completeness defect {defect!r} exceeds {COMPLETENESS_TOL}")
    out = np.zeros_like(rho.elements)
    for op in channel.operators:
        k = np.asarray(op, dtype=complex)
        out = out + k @ rho.elements @ k.conj().T
    return new_density(out)


def compose(first: KrausChannel, second: KrausChannel) -> KrausChannel:
    """Channel applying `first` then `second` (operators are all products)."""
    if first.dim != second.dim:
        raise DimensionMismatchError("cannot compose channels of different dims")
    ops = [
        np.asarray(k2, dtype=complex) @ np.asarray(k1, dtype=complex)
        for k2 in second.operators
        for k1 in first.operators
    ]
    return KrausChannel(operators=tuple(ops))


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
