"""Bipartite Bloch decomposition over SU(N) x SU(M) generator bases.

Any density matrix of an N x M system expands as
    rho = (1/(N M)) (1 + sum_i alpha_i s_i x 1 + sum_j beta_j 1 x t_j
                       + sum_ij gamma_ij s_i x t_j)
with generalized Gell-Mann generators normalized to Tr(s_i s_j) = 2 d_ij.
Coefficients and their time derivatives are full-space traces against the
generator tensor products; the generalized chain rule contracts a measure
gradient over (alpha, beta, gamma) with the coefficient rates.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, NonFiniteError
from .qstate import DensityMatrix, _as_float, _integer, _matrix, _read_only, new_density

REALITY_TOL = 1e-12


@dataclass(frozen=True)
class GeneratorBasis:
    """The n^2 - 1 Hermitian traceless generators of SU(n): a read-only (n^2 - 1, n, n) stack."""

    dim: int
    generators: np.ndarray


@dataclass(frozen=True)
class BlochDecomposition:
    """Coefficient blocks of an n x m state, stored as read-only float copies.

    n and m must be integers (DomainError), and alpha, beta and gamma_ij finite
    real arrays (DomainError) of shapes (n^2 - 1,), (m^2 - 1,) and
    (n^2 - 1, m^2 - 1) (DimensionMismatchError)."""

    n: int
    m: int
    alpha: np.ndarray
    beta: np.ndarray
    gamma_ij: np.ndarray

    def __post_init__(self):
        n, m = _integer(self.n, "n"), _integer(self.m, "m")
        shapes = {"alpha": (n * n - 1,), "beta": (m * m - 1,), "gamma_ij": (n * n - 1, m * m - 1)}
        for name, shape in shapes.items():
            block = _matrix(getattr(self, name), name, shape, _as_float)
            object.__setattr__(self, name, _read_only(block))


def gell_mann_basis(n: int) -> GeneratorBasis:
    """Generalized Gell-Mann generators of SU(n), Tr(s_i s_j) = 2 d_ij.

    Ordering: symmetric pair matrices, antisymmetric pair matrices, then
    the diagonal ladder; for n = 2 this is exactly (sx, sy, sz).  n must be
    an integer of at least 2 (DomainError), checked before the cache is
    consulted, so 2.0 does not find the basis of 2.
    """
    n = _integer(n, "n")
    if n < 2:
        raise DomainError(f"generator basis needs n >= 2, got {n}")
    return _gell_mann_basis(n)


@functools.cache
def _gell_mann_basis(n: int) -> GeneratorBasis:
    """gell_mann_basis for a checked n, built once per n."""
    j, k = np.triu_indices(n, 1)  # the pairs j < k, row-major
    pair, level, i = np.arange(len(j)), np.arange(1, n), np.arange(n)
    gens = np.zeros((n * n - 1, n, n), dtype=complex)
    gens[pair, j, k] = gens[pair, k, j] = 1.0
    gens[len(j) + pair, j, k], gens[len(j) + pair, k, j] = -1.0j, 1.0j
    # Ladder level l: sqrt(2 / (l (l + 1))) diag(1, ..., 1, -l, 0, ..., 0), l ones.
    ladder = np.where(i < level[:, None], 1.0, 0.0)
    ladder[level - 1, level] = -level
    gens[2 * len(j):, i, i] = ladder * np.sqrt(2.0 / (level * (level + 1)))[:, None]
    gens.setflags(write=False)
    return GeneratorBasis(dim=n, generators=gens)


@functools.cache
def _with_identity(n: int) -> np.ndarray:
    """Read-only stack (n^2, n, n): the identity, then the SU(n) generators."""
    stack = np.insert(gell_mann_basis(n).generators, 0, np.eye(n), axis=0)
    stack.setflags(write=False)
    return stack


def _coefficients(mat: np.ndarray, n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # t[i, j] = Tr(mat (s_i x t_j)) with s_0, t_0 the identities; the
    # operator index (a b) of the n x m space splits into a in n, b in m.
    # The bases come first, so that n or m below 2 raises DomainError.
    basis_n, basis_m = _with_identity(n), _with_identity(m)
    blocks = np.einsum("abcd,ica->ibd", mat.reshape(n, m, n, m), basis_n)
    t = np.einsum("ibd,jdb->ij", blocks, basis_m)
    alpha = t[1:, 0] * n / 2.0
    beta = t[0, 1:] * m / 2.0
    gamma = t[1:, 1:] * n * m / 4.0
    worst = max(np.abs(alpha.imag).max(), np.abs(beta.imag).max(), np.abs(gamma.imag).max())
    if worst > REALITY_TOL:
        raise DimensionMismatchError(
            f"coefficients of a Hermitian input must be real, imaginary residue {worst!r}"
        )
    return alpha.real, beta.real, gamma.real


def decompose(rho: DensityMatrix, n: int, m: int) -> BlochDecomposition:
    """Expand a state of an n x m system into Bloch coefficient blocks."""
    n, m = _integer(n, "n"), _integer(m, "m")
    if rho.dim != n * m:
        raise DimensionMismatchError(f"state dim {rho.dim} is not {n} * {m}")
    alpha, beta, gamma = _coefficients(rho.elements, n, m)
    return BlochDecomposition(n=n, m=m, alpha=alpha, beta=beta, gamma_ij=gamma)


def recompose_matrix(d: BlochDecomposition) -> np.ndarray:
    """Evaluate the Bloch expansion; Hermitian and unit-trace by construction."""
    n, m = d.n, d.m
    k = np.zeros((n * n, m * m), dtype=complex)
    k[0, 0] = 1.0
    k[1:, 0], k[0, 1:], k[1:, 1:] = d.alpha, d.beta, d.gamma_ij
    blocks = np.einsum("ij,jbd->ibd", k, _with_identity(m))
    mat = np.einsum("iac,ibd->abcd", _with_identity(n), blocks).reshape(n * m, n * m)
    return mat / (n * m)


def recompose(d: BlochDecomposition) -> DensityMatrix:
    """Recompose and validate; raises NotPositiveError outside the state space."""
    return new_density(recompose_matrix(d))


def coefficient_rates(
    rho_dot: np.ndarray, n: int, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time derivatives of (alpha, beta, gamma_ij) from d(rho)/dt.

    Same trace normalization as :func:`decompose`, so that
    decompose(rho(t + h)) - decompose(rho(t)) = h * rates + O(h^2).
    rho_dot must be a finite (n m, n m) matrix (DimensionMismatchError, DomainError).
    """
    n, m = _integer(n, "n"), _integer(m, "m")
    rho_dot = _matrix(rho_dot, "rho_dot", (n * m, n * m))
    return _coefficients(rho_dot, n, m)


def rate_bloch(
    grad: tuple[np.ndarray, np.ndarray, np.ndarray],
    rates: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> float:
    """Contract a measure gradient with coefficient rates across all blocks.

    grad and rates must be sequences of equally many blocks
    (DimensionMismatchError), each a finite real array (DomainError).  A
    contraction beyond the float range raises NonFiniteError.
    """
    try:
        blocks = list(zip(grad, rates, strict=True))
    except (TypeError, ValueError) as exc:  # not iterable, or of unequal lengths
        raise DimensionMismatchError(
            f"gradient and rates must be sequences of equally many blocks: {exc}"
        ) from exc
    total = 0.0
    for g_block, r_block in blocks:
        g_arr = _as_float(g_block)
        g_arr, r_arr = (_matrix(block, "gradient and rate blocks", g_arr.shape, _as_float)
                        for block in (g_arr, r_block))
        with np.errstate(over="ignore", invalid="ignore"):
            total += float((g_arr * r_arr).sum())
    if not math.isfinite(total):
        raise NonFiniteError(f"the contraction is not finite: {total!r}")
    return total
