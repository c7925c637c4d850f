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
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, NonFiniteError
from .qstate import DensityMatrix, _as_complex, _as_float, new_density

REALITY_TOL = 1e-12


@dataclass(frozen=True)
class GeneratorBasis:
    """The n^2 - 1 Hermitian traceless generators of SU(n): a read-only (n^2 - 1, n, n) stack."""

    dim: int
    generators: np.ndarray


@dataclass(frozen=True)
class BlochDecomposition:
    n: int
    m: int
    alpha: np.ndarray
    beta: np.ndarray
    gamma_ij: np.ndarray


def _size(n) -> int:
    """n as an int; DomainError unless it is an integer (an int or a numpy
    integer, not a float or a string)."""
    try:
        return operator.index(n)
    except TypeError:
        raise DomainError(f"a subsystem dimension must be an integer, got {n!r}") from None


def gell_mann_basis(n: int) -> GeneratorBasis:
    """Generalized Gell-Mann generators of SU(n), Tr(s_i s_j) = 2 d_ij.

    Ordering: symmetric pair matrices, antisymmetric pair matrices, then
    the diagonal ladder; for n = 2 this is exactly (sx, sy, sz).  n must be
    an integer of at least 2 (DomainError), checked before the cache is
    consulted, so 2.0 does not find the basis of 2.
    """
    n = _size(n)
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
    stack = np.concatenate((np.eye(n)[None], gell_mann_basis(n).generators))
    stack.setflags(write=False)
    return stack


def _coefficients(mat: np.ndarray, n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # t[i, j] = Tr(mat (s_i x t_j)) with s_0, t_0 the identities; the
    # operator index (a b) of the n x m space splits into a in n, b in m.
    blocks = np.einsum("abcd,ica->ibd", mat.reshape(n, m, n, m), _with_identity(n))
    t = np.einsum("ibd,jdb->ij", blocks, _with_identity(m))
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
    n, m = _size(n), _size(m)
    if rho.dim != n * m:
        raise DimensionMismatchError(f"state dim {rho.dim} is not {n} * {m}")
    alpha, beta, gamma = _coefficients(rho.elements, n, m)
    for arr in (alpha, beta, gamma):
        arr.setflags(write=False)
    return BlochDecomposition(n=n, m=m, alpha=alpha, beta=beta, gamma_ij=gamma)


def recompose_matrix(d: BlochDecomposition) -> np.ndarray:
    """Evaluate the Bloch expansion; Hermitian and unit-trace by construction."""
    n, m = d.n, d.m
    if len(d.alpha) != n * n - 1 or len(d.beta) != m * m - 1:
        raise DimensionMismatchError("coefficient lengths do not match the basis sizes")
    if np.shape(d.gamma_ij) != (n * n - 1, m * m - 1):
        raise DimensionMismatchError("gamma_ij block does not match the basis sizes")
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
    rho_dot must be finite (DomainError).
    """
    n, m = _size(n), _size(m)
    rho_dot = _as_complex(rho_dot)
    if rho_dot.shape != (n * m, n * m):
        raise DimensionMismatchError(f"rho_dot shape {rho_dot.shape} is not ({n * m}, {n * m})")
    if not np.isfinite(rho_dot).all():
        raise DomainError("rho_dot must be finite")
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
        r_arr = _as_float(r_block)
        if g_arr.shape != r_arr.shape:
            raise DimensionMismatchError(
                f"gradient block {g_arr.shape} does not match rate block {r_arr.shape}"
            )
        if not (np.isfinite(g_arr).all() and np.isfinite(r_arr).all()):
            raise DomainError("gradient and rate blocks must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            total += float((g_arr * r_arr).sum())
    if not math.isfinite(total):
        raise NonFiniteError(f"the contraction is not finite: {total!r}")
    return total
