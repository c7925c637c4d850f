import numpy as np
import pytest

from conftest import random_density_matrix
from entrate import (
    EffectiveHamiltonian,
    KrausChannel,
    amplitude_damping,
    apply_channel,
    build_effective_hamiltonian,
    completeness_defect,
    compose,
    evolve_effective,
    new_density,
    xy_hamiltonian,
)
from entrate.errors import (
    DimensionMismatchError,
    DomainError,
    IncompleteChannelError,
    NonHermitianError,
    WeightError,
)

EXCITED = new_density(np.diag([0.0, 1.0]).astype(complex))


def test_channel_needs_operators():
    with pytest.raises(DimensionMismatchError):
        KrausChannel(operators=())
    with pytest.raises(DimensionMismatchError):
        KrausChannel(operators=(np.eye(2), np.eye(3)))
    with pytest.raises(DimensionMismatchError):
        KrausChannel(operators=(np.ones((2, 3)),))
    with pytest.raises(DimensionMismatchError):
        KrausChannel(operators=(np.ones(2), np.ones(2)))


def test_operators_are_a_read_only_stack():
    ch = KrausChannel(operators=[[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
    assert ch.operators.shape == (2, 2, 2)
    assert ch.operators.dtype == complex
    assert ch.dim == 2
    with pytest.raises(ValueError):
        ch.operators[0, 0, 0] = 2.0


def random_channel(rng, k, dim):
    """k random operators, scaled so that sum(K^dagger K) = identity."""
    ops = rng.standard_normal((k, dim, dim)) + 1j * rng.standard_normal((k, dim, dim))
    w, v = np.linalg.eigh(np.einsum("kji,kjl->il", ops.conj(), ops))
    return ops @ (v / np.sqrt(w)) @ v.conj().T


def test_compose_is_every_product_in_order():
    rng = np.random.default_rng(4)
    first, second = random_channel(rng, 2, 3), random_channel(rng, 3, 3)
    composed = compose(KrausChannel(first), KrausChannel(second))
    want = [k2 @ k1 for k2 in second for k1 in first]
    np.testing.assert_array_equal(composed.operators, want)


def test_apply_channel_equals_explicit_sum_bitwise():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a, b = amplitude_damping(rng.uniform()).operators, random_channel(rng, 3, 2)
        ops = [np.kron(x, y) for x in a for y in b]
        rho = new_density(random_density_matrix(rng))
        want = np.zeros((4, 4), dtype=complex)
        for k in ops:
            want = want + k @ rho.elements @ k.conj().T
        got = apply_channel(KrausChannel(ops), rho).elements
        assert got.tobytes() == want.tobytes()


def test_identity_channel_defect_zero():
    assert completeness_defect(KrausChannel(operators=(np.eye(2, dtype=complex),))) == 0.0


def test_amplitude_damping_complete_across_grid():
    for eta in np.linspace(0.0, 1.0, 21):
        assert completeness_defect(amplitude_damping(eta)) <= 1e-15


def test_scaled_identity_defect():
    ch = KrausChannel(operators=(0.9 * np.eye(2, dtype=complex),))
    assert completeness_defect(ch) == pytest.approx(0.19)


def test_identity_channel_preserves_state():
    rng = np.random.default_rng(3)
    rho = new_density(random_density_matrix(rng))
    out = apply_channel(KrausChannel(operators=(np.eye(4, dtype=complex),)), rho)
    np.testing.assert_allclose(out.elements, rho.elements, atol=1e-15)


def test_amplitude_damping_on_excited_state():
    out = apply_channel(amplitude_damping(0.3), EXCITED)
    np.testing.assert_allclose(out.elements, np.diag([0.3, 0.7]), atol=1e-15)


def test_incomplete_channel_rejected():
    ch = KrausChannel(operators=(0.9 * np.eye(2, dtype=complex),))
    with pytest.raises(IncompleteChannelError):
        apply_channel(ch, EXCITED)


def test_nan_operator_is_an_incomplete_channel():
    """A NaN completeness defect is not within the tolerance."""
    ch = KrausChannel(operators=(np.diag([1.0, np.nan]).astype(complex),))
    with pytest.raises(IncompleteChannelError):
        apply_channel(ch, EXCITED)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        apply_channel(amplitude_damping(0.1), new_density(np.eye(4) / 4))


def test_channel_preserves_trace_and_positivity():
    rng = np.random.default_rng(9)
    for eta in (0.0, 0.2, 0.7, 1.0):
        rho = new_density(random_density_matrix(rng, dim=2))
        out = apply_channel(amplitude_damping(eta), rho)
        assert abs(out.elements.trace() - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(out.elements).min() >= -1e-10


def test_two_applications_equal_composed_channel():
    rng = np.random.default_rng(13)
    rho = new_density(random_density_matrix(rng, dim=2))
    first, second = amplitude_damping(0.3), amplitude_damping(0.5)
    twice = apply_channel(second, apply_channel(first, rho))
    once = apply_channel(compose(first, second), rho)
    np.testing.assert_allclose(twice.elements, once.elements, atol=1e-12)


class TestEffectiveHamiltonian:
    def test_single_environment_state_returns_system_block(self):
        hs = xy_hamiltonian(1.0, 0.2)
        he = build_effective_hamiltonian({(0, 0): hs}, [1.0])
        np.testing.assert_allclose(he.h_e, hs, atol=1e-15)

    def test_two_diagonal_blocks_with_equal_weights(self):
        m00 = np.diag([1.0, -1.0]).astype(complex)
        m11 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        he = build_effective_hamiltonian({(0, 0): m00, (1, 1): m11}, [0.5, 0.5])
        np.testing.assert_allclose(he.h_e, (m00 + m11) / np.sqrt(2.0), atol=1e-15)

    def test_zero_blocks_give_zero(self):
        he = build_effective_hamiltonian({(0, 1): np.zeros((4, 4))}, [0.5, 0.5])
        np.testing.assert_allclose(he.h_e, 0.0)

    def test_weight_errors(self):
        with pytest.raises(WeightError):
            build_effective_hamiltonian({(0, 0): np.eye(2)}, [0.5, 0.6])
        with pytest.raises(WeightError):
            build_effective_hamiltonian({(0, 0): np.eye(2)}, [-0.5, 1.5])
        with pytest.raises(WeightError):
            build_effective_hamiltonian({(0, 2): np.eye(2)}, [1.0])

    def test_non_finite_weight_rejected(self):
        with pytest.raises(DomainError):
            build_effective_hamiltonian({(0, 0): np.eye(2)}, [np.nan])

    @pytest.mark.parametrize("h_e", [np.zeros((2, 3)), np.zeros(4), np.zeros((0, 0))],
                             ids=["2x3", "vector", "empty"])
    def test_must_be_a_square_matrix(self, h_e):
        with pytest.raises(DimensionMismatchError):
            EffectiveHamiltonian(h_e)
        with pytest.raises(DimensionMismatchError):
            build_effective_hamiltonian({(0, 0): h_e}, [1.0])

    def test_must_be_finite(self):
        with pytest.raises(DomainError):
            EffectiveHamiltonian(np.diag([np.inf, 0.0]))

    def test_holds_a_read_only_copy_of_the_callers_array(self):
        h = xy_hamiltonian(1.0, 0.2)
        he = EffectiveHamiltonian(h)
        rho = new_density(random_density_matrix(np.random.default_rng(5)))
        want = evolve_effective(he, rho, 0.5, 0.1).elements
        h[1, 2] = h[2, 1] = 0.7
        assert evolve_effective(he, rho, 0.5, 0.1).elements.tobytes() == want.tobytes()
        assert he.h_e.dtype == complex
        assert not he.h_e.flags.writeable


class TestEvolveEffective:
    def test_zero_generator_is_constant(self):
        rho = new_density(np.eye(4) / 4)
        traj = evolve_effective(EffectiveHamiltonian(np.zeros((4, 4))), rho, 1.0, 0.1)
        np.testing.assert_allclose(traj.elements[-1], rho.elements, atol=1e-15)

    def test_rabi_oscillation_of_populations(self):
        g = 0.2
        he = EffectiveHamiltonian(xy_hamiltonian(1.0, g))
        rho = new_density(np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex))
        traj = evolve_effective(he, rho, 5.0, 1e-3)
        for k in (len(traj) // 3, len(traj) - 1):
            t = traj.times[k]
            m = traj.elements[k]
            assert m[1, 1].real == pytest.approx(np.cos(g * t) ** 2, abs=1e-8)
            assert m[2, 2].real == pytest.approx(np.sin(g * t) ** 2, abs=1e-8)

    def test_spectrum_is_conserved(self):
        rng = np.random.default_rng(21)
        rho = new_density(random_density_matrix(rng))
        he = EffectiveHamiltonian(xy_hamiltonian(0.8, 0.3))
        traj = evolve_effective(he, rho, 2.0, 1e-3)
        want = np.linalg.eigvalsh(rho.elements)
        got = np.linalg.eigvalsh(traj.elements[-1])
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_purity_and_trace_conserved(self):
        rng = np.random.default_rng(22)
        rho = new_density(random_density_matrix(rng))
        he = EffectiveHamiltonian(xy_hamiltonian(1.0, 0.2))
        traj = evolve_effective(he, rho, 10.0, 1e-3)
        purity0 = (rho.elements @ rho.elements).trace().real
        final = traj.elements[-1]
        assert final.trace().real == pytest.approx(1.0, abs=1e-8)
        assert (final @ final).trace().real == pytest.approx(purity0, abs=1e-8)

    def test_generator_dim_must_match_state(self):
        with pytest.raises(DimensionMismatchError):
            evolve_effective(EffectiveHamiltonian(np.zeros((2, 2))),
                             new_density(np.eye(4) / 4), 1.0, 0.1)

    def test_non_hermitian_generator_rejected(self):
        bad = EffectiveHamiltonian(np.array([[0.0, 1.0], [0.5, 0.0]], dtype=complex))
        with pytest.raises(NonHermitianError):
            evolve_effective(bad, new_density(np.eye(2) / 2), 1.0, 0.1)
