import numpy as np
import pytest

from conftest import as_state, random_density_matrix, random_entangled_mixed
from entrate import (
    BlochDecomposition,
    ModelParams,
    coefficient_rates,
    decompose,
    eof,
    gell_mann_basis,
    integrate,
    new_density,
    rate_bloch,
    rate_chain,
    recompose,
    rhs_damped_xy,
)
from entrate.blochsun import _with_identity, recompose_matrix
from entrate.errors import DimensionMismatchError, DomainError, NotPositiveError

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


class TestGeneratorBasis:
    def test_n2_is_pauli_in_order(self):
        basis = gell_mann_basis(2)
        assert len(basis.generators) == 3
        for got, want in zip(basis.generators, PAULI):
            np.testing.assert_allclose(got, want, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_orthogonality_and_count(self, n):
        gens = gell_mann_basis(n).generators
        assert len(gens) == n * n - 1
        for i, gi in enumerate(gens):
            assert abs(gi.trace()) <= 1e-12
            np.testing.assert_allclose(gi, gi.conj().T, atol=1e-12)
            for j, gj in enumerate(gens):
                want = 2.0 if i == j else 0.0
                assert (gi @ gj).trace().real == pytest.approx(want, abs=1e-12)

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            gell_mann_basis(1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_generators_are_one_read_only_stack(self, n):
        gens = gell_mann_basis(n).generators
        assert isinstance(gens, np.ndarray)
        assert gens.shape == (n * n - 1, n, n)
        assert not gens.flags.writeable

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_stack_equals_the_per_pair_construction_bitwise(self, n):
        want = []
        for j in range(n):
            for k in range(j + 1, n):
                sym = np.zeros((n, n), dtype=complex)
                sym[j, k] = sym[k, j] = 1.0
                want.append(sym)
        for j in range(n):
            for k in range(j + 1, n):
                asym = np.zeros((n, n), dtype=complex)
                asym[j, k] = -1.0j
                asym[k, j] = 1.0j
                want.append(asym)
        for l in range(1, n):
            diag = np.zeros((n, n), dtype=complex)
            for i in range(l):
                diag[i, i] = 1.0
            diag[l, l] = -l
            want.append(np.sqrt(2.0 / (l * (l + 1))) * diag)
        assert gell_mann_basis(n).generators.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_identity_stack_is_built_once_and_read_only(self, n):
        stack = _with_identity(n)
        assert _with_identity(n) is stack
        assert not stack.flags.writeable
        assert stack.shape == (n * n, n, n)
        assert np.array_equal(stack[0], np.eye(n))
        assert np.array_equal(stack[1:], gell_mann_basis(n).generators)


class TestDecomposeRecompose:
    def test_maximally_mixed_has_zero_coefficients(self):
        d = decompose(new_density(np.eye(4) / 4), 2, 2)
        assert np.abs(d.alpha).max() == 0.0
        assert np.abs(d.beta).max() == 0.0
        assert np.abs(d.gamma_ij).max() == 0.0

    def test_ground_state_coefficients(self):
        d = decompose(new_density(np.diag([1.0, 0, 0, 0]).astype(complex)), 2, 2)
        np.testing.assert_allclose(d.alpha, [0.0, 0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(d.beta, [0.0, 0.0, 1.0], atol=1e-15)
        want = np.zeros((3, 3))
        want[2, 2] = 1.0
        np.testing.assert_allclose(d.gamma_ij, want, atol=1e-15)

    def test_zero_coefficients_recompose_to_identity(self):
        d = BlochDecomposition(
            n=2, m=2, alpha=np.zeros(3), beta=np.zeros(3), gamma_ij=np.zeros((3, 3))
        )
        np.testing.assert_allclose(recompose(d).elements, np.eye(4) / 4, atol=1e-15)

    def test_ground_state_round_trip(self):
        rho = new_density(np.diag([1.0, 0, 0, 0]).astype(complex))
        back = recompose(decompose(rho, 2, 2))
        np.testing.assert_allclose(back.elements, rho.elements, atol=1e-12)

    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 4)])
    def test_coefficients_are_generator_traces(self, n, m):
        rho = random_density_matrix(np.random.default_rng(n * 10 + m), dim=n * m)
        d = decompose(as_state(rho), n, m)
        sig, tau = gell_mann_basis(n).generators, gell_mann_basis(m).generators
        for i, s in enumerate(sig):
            assert d.alpha[i] == pytest.approx(
                np.trace(rho @ np.kron(s, np.eye(m))).real * n / 2, abs=1e-14)
            for j, t in enumerate(tau):
                assert d.gamma_ij[i, j] == pytest.approx(
                    np.trace(rho @ np.kron(s, t)).real * n * m / 4, abs=1e-14)
        for j, t in enumerate(tau):
            assert d.beta[j] == pytest.approx(
                np.trace(rho @ np.kron(np.eye(n), t)).real * m / 2, abs=1e-14)

    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 4)])
    def test_round_trip_on_random_states(self, n, m):
        rng = np.random.default_rng(n * 10 + m)
        for _ in range(100):
            rho = new_density(random_density_matrix(rng, dim=n * m))
            back = recompose(decompose(rho, n, m))
            assert np.abs(back.elements - rho.elements).max() <= 1e-10

    def test_long_bloch_vector_is_not_a_state(self):
        d = BlochDecomposition(
            n=2, m=2, alpha=np.array([2.0, 0.0, 0.0]), beta=np.zeros(3),
            gamma_ij=np.zeros((3, 3)),
        )
        with pytest.raises(NotPositiveError):
            recompose(d)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            decompose(new_density(np.eye(4) / 4), 2, 3)


class TestCoefficientRates:
    def test_zero_motion(self):
        a, b, g = coefficient_rates(np.zeros((4, 4), dtype=complex), 2, 2)
        assert np.abs(a).max() == np.abs(b).max() == np.abs(g).max() == 0.0

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            coefficient_rates(np.zeros((4, 4), dtype=complex), 2, 3)

    def test_match_finite_difference_of_decomposed_trajectory(self):
        params = ModelParams(1.0, 0.2, 0.05)
        rho = new_density(np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex))

        def fd_gap(dt):
            traj = integrate(lambda r: rhs_damped_xy(params, r), rho, 2 * dt, dt)
            d0 = decompose(as_state(traj.elements[0]), 2, 2)
            d2 = decompose(as_state(traj.elements[2]), 2, 2)
            mid = as_state(traj.elements[1])
            a, b, g = coefficient_rates(rhs_damped_xy(params, mid), 2, 2)
            err = [
                np.abs((d2.alpha - d0.alpha) / (2 * dt) - a).max(),
                np.abs((d2.beta - d0.beta) / (2 * dt) - b).max(),
                np.abs((d2.gamma_ij - d0.gamma_ij) / (2 * dt) - g).max(),
            ]
            return max(err)

        coarse, fine = fd_gap(2e-2), fd_gap(1e-2)
        assert fine < coarse / 3.0  # second-order central differences

    def test_gamma_zz_rate_on_doubly_excited_state(self):
        params = ModelParams(1.0, 0.2, 0.05)
        rho = new_density(np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex))
        dt = 1e-3
        traj = integrate(lambda r: rhs_damped_xy(params, r), rho, 2 * dt, dt)
        mid = as_state(traj.elements[1])
        _, _, g_dot = coefficient_rates(rhs_damped_xy(params, mid), 2, 2)
        d0 = decompose(as_state(traj.elements[0]), 2, 2)
        d2 = decompose(as_state(traj.elements[2]), 2, 2)
        fd = (d2.gamma_ij[2, 2] - d0.gamma_ij[2, 2]) / (2 * dt)
        assert g_dot[2, 2] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_local_generator_leaves_partner_marginal_fixed(self):
        rho_a = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]])
        rho_b = np.array([[0.4, -0.1j], [0.1j, 0.6]])
        product = np.kron(rho_a, rho_b)
        sz1 = np.kron(PAULI[2], np.eye(2))
        rho_dot = -1j * (sz1 @ product - product @ sz1)
        _, beta_dot, _ = coefficient_rates(rho_dot, 2, 2)
        np.testing.assert_allclose(beta_dot, 0.0, atol=1e-14)


class TestRateBloch:
    def test_zero_gradient(self):
        rates = (np.ones(3), np.ones(3), np.ones((3, 3)))
        grad = (np.zeros(3), np.zeros(3), np.zeros((3, 3)))
        assert rate_bloch(grad, rates) == 0.0

    def test_zero_rates(self):
        grad = (np.ones(3), np.ones(3), np.ones((3, 3)))
        rates = (np.zeros(3), np.zeros(3), np.zeros((3, 3)))
        assert rate_bloch(grad, rates) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            rate_bloch((np.zeros(3), np.zeros(3), np.zeros((3, 3))),
                       (np.zeros(8), np.zeros(3), np.zeros((3, 3))))

    def test_matches_elementwise_chain_rule(self):
        rng = np.random.default_rng(47)
        params = ModelParams(0.9, 0.25, 0.02)
        h = 1e-6
        for _ in range(20):
            mat = random_entangled_mixed(rng)
            rho = as_state(mat)
            rho_dot = rhs_damped_xy(params, rho)

            d = decompose(rho, 2, 2)
            rates = coefficient_rates(rho_dot, 2, 2)

            def eof_of(dec):
                return eof(as_state(recompose_matrix(dec)))

            grad_a = np.zeros(3)
            grad_b = np.zeros(3)
            grad_g = np.zeros((3, 3))
            for k in range(3):
                da = np.array(d.alpha)
                da[k] += h
                up = BlochDecomposition(2, 2, da, d.beta, d.gamma_ij)
                da = np.array(d.alpha)
                da[k] -= h
                dn = BlochDecomposition(2, 2, da, d.beta, d.gamma_ij)
                grad_a[k] = (eof_of(up) - eof_of(dn)) / (2 * h)
                db = np.array(d.beta)
                db[k] += h
                up = BlochDecomposition(2, 2, d.alpha, db, d.gamma_ij)
                db = np.array(d.beta)
                db[k] -= h
                dn = BlochDecomposition(2, 2, d.alpha, db, d.gamma_ij)
                grad_b[k] = (eof_of(up) - eof_of(dn)) / (2 * h)
            for i in range(3):
                for j in range(3):
                    dg = np.array(d.gamma_ij)
                    dg[i, j] += h
                    up = BlochDecomposition(2, 2, d.alpha, d.beta, dg)
                    dg = np.array(d.gamma_ij)
                    dg[i, j] -= h
                    dn = BlochDecomposition(2, 2, d.alpha, d.beta, dg)
                    grad_g[i, j] = (eof_of(up) - eof_of(dn)) / (2 * h)

            via_bloch = rate_bloch((grad_a, grad_b, grad_g), rates)
            via_elements = rate_chain(rho, rho_dot).gamma_total
            assert via_bloch == pytest.approx(via_elements, rel=1e-3, abs=1e-9)
