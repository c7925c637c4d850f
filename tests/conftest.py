"""Shared helpers: random state generators and independent brute-force oracles."""

import numpy as np

from entrate import (
    Trajectory,
    XYFamilyParams,
    integrate,
    rhs_damped_xy,
    unchecked_density,
)

SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SYY = np.kron(SY, SY)


def random_density_matrix(rng, dim=4):
    """Full-rank random state from a Ginibre draw."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / rho.trace()


def random_entangled_mixed(rng, min_c=0.05, max_tries=100):
    """Full-rank two-qubit state with concurrence above min_c.

    Mixes a random pure state with the maximally mixed state so that all
    eigenvalues stay well away from zero (finite-difference friendly).
    """
    for _ in range(max_tries):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        w = rng.uniform(0.05, 0.25)
        rho = (1 - w) * np.outer(psi, psi.conj()) + w * np.eye(4) / 4
        if concurrence_bruteforce(rho) > min_c:
            return rho
    raise RuntimeError("failed to draw an entangled state")


def random_xy_interior(rng, q_lo=0.05, q_hi=0.45, band=0.1):
    """XY-family point strictly inside the positivity region."""
    qabs = rng.uniform(q_lo, q_hi)
    phase = rng.uniform(0.0, 2 * np.pi)
    q = qabs * np.exp(1j * phase)
    half_width = np.sqrt(0.25 - qabs * qabs)
    p = 0.5 + rng.uniform(-1 + band, 1 - band) * half_width
    return XYFamilyParams(p, complex(q))


def spin_flip_bruteforce(mat):
    return SYY @ mat.conj() @ SYY


def concurrence_bruteforce(mat):
    """Independent concurrence route: plain eigenvalues of rho * rho_tilde."""
    ev = np.linalg.eigvals(mat @ spin_flip_bruteforce(mat))
    lam = np.sort(np.sqrt(np.clip(ev.real, 0.0, None)))[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def eof_scalar(c):
    """Independent scalar evaluation of the measure from a concurrence value."""
    x = (1.0 + np.sqrt(max(0.0, 1.0 - c * c))) / 2.0
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1 - x) * np.log2(1 - x))


def as_state(mat):
    return unchecked_density(np.asarray(mat, dtype=complex))


def centered_trajectory(rho0, params, dt):
    """Three-point trajectory (-dt, 0, +dt) around a state, for an O(dt^2)
    central-difference rate at t = 0."""
    fwd = integrate(lambda r: rhs_damped_xy(params, r), rho0, dt, dt)
    bwd = integrate(lambda r: -rhs_damped_xy(params, r), rho0, dt, dt)
    return Trajectory(
        times=np.array([-dt, 0.0, dt]),
        elements=(bwd.elements[-1], rho0.elements, fwd.elements[-1]),
    )
