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
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .qstate import DensityMatrix, new_density

REALITY_TOL = 1e-12


@dataclass(frozen=True)
class GeneratorBasis:
    """The n^2 - 1 Hermitian traceless generators of SU(n)."""

    dim: int
    generators: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class BlochDecomposition:
    n: int
    m: int
    alpha: np.ndarray
    beta: np.ndarray
    gamma_ij: np.ndarray


@functools.cache
def gell_mann_basis(n: int) -> GeneratorBasis:
    """Generalized Gell-Mann generators of SU(n), Tr(s_i s_j) = 2 d_ij.

    Ordering: symmetric pair matrices, antisymmetric pair matrices, then
    the diagonal ladder; for n = 2 this is exactly (sx, sy, sz).
    """
    if n < 2:
        raise DomainError(f"generator basis needs n >= 2, got {n}")

    gens = []
    for j in range(n):
        for k in range(j + 1, n):
            sym = np.zeros((n, n), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            gens.append(sym)
    for j in range(n):
        for k in range(j + 1, n):
            asym = np.zeros((n, n), dtype=complex)
            asym[j, k] = -1.0j
            asym[k, j] = 1.0j
            gens.append(asym)
    for l in range(1, n):
        diag = np.zeros((n, n), dtype=complex)
        for i in range(l):
            diag[i, i] = 1.0
        diag[l, l] = -l
        gens.append(np.sqrt(2.0 / (l * (l + 1))) * diag)

    for g in gens:
        g.setflags(write=False)
    return GeneratorBasis(dim=n, generators=tuple(gens))


def _with_identity(n: int) -> np.ndarray:
    """Stack (n^2, n, n): the identity, then the SU(n) generators."""
    return np.array((np.eye(n), *gell_mann_basis(n).generators))


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
    """
    rho_dot = np.asarray(rho_dot, dtype=complex)
    if rho_dot.shape != (n * m, n * m):
        raise DimensionMismatchError(f"rho_dot shape {rho_dot.shape} is not ({n * m}, {n * m})")
    return _coefficients(rho_dot, n, m)


def rate_bloch(
    grad: tuple[np.ndarray, np.ndarray, np.ndarray],
    rates: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> float:
    """Contract a measure gradient with coefficient rates across all blocks."""
    total = 0.0
    for g_block, r_block in zip(grad, rates):
        g_arr = np.asarray(g_block, dtype=float)
        r_arr = np.asarray(r_block, dtype=float)
        if g_arr.shape != r_arr.shape:
            raise DimensionMismatchError(
                f"gradient block {g_arr.shape} does not match rate block {r_arr.shape}"
            )
        total += float((g_arr * r_arr).sum())
    return total
