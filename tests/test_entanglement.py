import numpy as np
import pytest

from conftest import (
    as_state,
    concurrence_bruteforce,
    eof_scalar,
    random_density_matrix,
    random_entangled_mixed,
)
from entrate import (
    WernerParams,
    XYFamilyParams,
    binary_entropy,
    concurrence,
    concurrence_werner,
    eof,
    eof_gradient,
    eof_many,
    new_density,
    spin_flip,
    werner_state,
    xy_state,
)
from entrate.entanglement import (
    _COL,
    _CONCURRENCE_SIGNS,
    _DIRECTIONS,
    _PART,
    _ROW,
    _SYY,
    INPUT_PSD_FLOOR,
    ZERO_LAMBDA_TOL,
    _concurrence_raw,
    _is_x,
    _measure,
    _measure_slope,
    _x_measure,
)
from entrate.errors import (
    DimensionMismatchError,
    DomainError,
    EigenFailureError,
    KinkRegionError,
)

PSI_PLUS = xy_state(XYFamilyParams(0.5, 0.5 + 0.0j))
GROUND = new_density(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))


def central_difference_gradient(mat, h=1e-6):
    """Oracle for eof_gradient: (Re, Im) stack of central differences of
    eof_many along each of the 16 directions, at step h."""
    step = h * _DIRECTIONS
    e = eof_many(np.concatenate([mat + step, mat - step]))
    grad = np.zeros((2, 4, 4))
    grad[_PART, _ROW, _COL] = (e[:16] - e[16:]) / (2 * h)
    return grad


def gradient_in_one_body(mat):
    """Reference for eof_gradient: its arithmetic written out in one body, as
    it was before the directional kernel was split out."""
    c, lam, _ = _concurrence_raw(mat)
    zero = lam <= ZERO_LAMBDA_TOL
    tilde = _SYY @ mat.conj() @ _SYY
    directions_tilde = _SYY @ _DIRECTIONS.conj() @ _SYY
    mu, x = np.linalg.eig(mat @ tilde)
    x = x[:, np.argsort(-mu.real)]
    x_inv = np.linalg.inv(x)
    d_mu = np.einsum("kil,li->ki", x_inv @ (_DIRECTIONS @ tilde + mat @ directions_tilde), x)
    d_lam = np.where(zero, 0.0, d_mu.real / (2.0 * np.where(zero, 1.0, lam)))
    grad = np.zeros((2, 4, 4))
    grad[_PART, _ROW, _COL] = _measure_slope(c) * (d_lam @ _CONCURRENCE_SIGNS)
    return grad


def random_x_state(rng, rank, diagonal=False):
    """A random X-state of the given rank: two random 2x2 blocks,
    {rho11, rho44, rho14} and {rho22, rho33, rho23}, sharing `rank` nonzero
    eigenvalues; diagonal blocks (zero coherences) when `diagonal`."""
    weights = np.zeros(4)
    weights[rng.permutation(4)[:rank]] = rng.uniform(0.05, 1.0, rank)
    mat = np.zeros((4, 4), dtype=complex)
    for k, idx in enumerate(([0, 3], [1, 2])):
        vecs = np.eye(2)
        if not diagonal:
            vecs, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        mat[np.ix_(idx, idx)] = (vecs * weights[2 * k:2 * k + 2]) @ vecs.conj().T
    return mat / weights.sum()


def _spin_flip_pattern(m):
    """The spin-flipped matrix written out element by element."""
    c = np.conj
    return np.array([
        [m[3, 3], -m[2, 3], -m[1, 3], m[0, 3]],
        [-c(m[2, 3]), m[2, 2], m[1, 2], -m[0, 2]],
        [-c(m[1, 3]), c(m[1, 2]), m[1, 1], -m[0, 1]],
        [c(m[0, 3]), -c(m[0, 2]), -c(m[0, 1]), m[0, 0]],
    ])


def test_spin_flip_fixes_bell_state():
    np.testing.assert_allclose(spin_flip(PSI_PLUS), PSI_PLUS.elements, atol=1e-15)


def test_spin_flip_swaps_ground_and_excited():
    np.testing.assert_allclose(
        spin_flip(GROUND), np.diag([0.0, 0.0, 0.0, 1.0]), atol=1e-15
    )


def test_spin_flip_fixes_identity():
    np.testing.assert_allclose(spin_flip(new_density(np.eye(4) / 4)), np.eye(4) / 4)


def test_spin_flip_matches_elementwise_pattern():
    rng = np.random.default_rng(11)
    for _ in range(20):
        rho = new_density(random_density_matrix(rng))
        np.testing.assert_allclose(
            spin_flip(rho), _spin_flip_pattern(rho.elements), atol=1e-14
        )


def test_spin_flip_dimension_check():
    with pytest.raises(DimensionMismatchError):
        spin_flip(new_density(np.eye(2) / 2))


class TestConcurrence:
    def test_bell_state_is_maximal(self):
        assert concurrence(PSI_PLUS).c == pytest.approx(1.0, abs=1e-12)

    def test_product_state_is_zero(self):
        assert concurrence(GROUND).c == 0.0

    def test_werner_value(self):
        rho = werner_state(WernerParams(0.7, 0.1, 0.1, 0.1))
        assert concurrence(rho).c == pytest.approx(0.4, abs=1e-12)

    def test_xy_family_is_twice_q(self):
        for p, q in [(0.6, 0.3j), (0.5, 0.2 + 0.1j), (0.4, -0.25j)]:
            rho = xy_state(XYFamilyParams(p, q))
            assert concurrence(rho).c == pytest.approx(2 * abs(q), abs=1e-12)

    def test_lambdas_sorted_decreasing(self):
        rng = np.random.default_rng(5)
        res = concurrence(new_density(random_density_matrix(rng)))
        assert np.all(np.diff(res.lambdas) <= 0)
        assert np.all(res.lambdas >= 0)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            mat = random_density_matrix(rng)
            got = concurrence(new_density(mat)).c
            want = concurrence_bruteforce(mat)
            assert got == pytest.approx(want, abs=1e-8)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            concurrence(new_density(np.eye(2) / 2))

    def test_eigen_failure_on_indefinite_input(self):
        bad = as_state(np.diag([0.75, 0.75, 0.75, -1.25]))
        with pytest.raises(EigenFailureError):
            concurrence(bad)


class TestBinaryEntropy:
    def test_half_is_one(self):
        assert binary_entropy(0.5) == pytest.approx(1.0)

    def test_endpoints_are_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_value_near_quarter(self):
        # direct evaluation at x = 0.9583, close to (1 + sqrt(0.84)) / 2
        assert binary_entropy(0.9583) == pytest.approx(0.25003305816455956, abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            binary_entropy(-0.01)
        with pytest.raises(DomainError):
            binary_entropy(1.01)
        with pytest.raises(DomainError):
            binary_entropy(np.nan)

    def test_measure_monotone_in_concurrence(self):
        grid = np.linspace(1e-4, 1.0, 400)
        vals = [eof_scalar(c) for c in grid]
        assert np.all(np.diff(vals) > 0)


class TestEof:
    def test_maximal(self):
        assert eof(PSI_PLUS) == pytest.approx(1.0, abs=1e-12)

    def test_separable(self):
        assert eof(GROUND) == 0.0

    def test_werner_point(self):
        rho = werner_state(WernerParams(0.7, 0.1, 0.1, 0.1))
        want = eof_scalar(0.4)
        assert want == pytest.approx(0.25022491161107085, abs=1e-14)
        assert eof(rho) == pytest.approx(want, abs=1e-10)


class TestEofMany:
    @staticmethod
    def _with_spectrum(rng, w):
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        return (u * w) @ u.conj().T

    def _stack(self, rng):
        full = [random_density_matrix(rng) for _ in range(40)]
        pure = [self._with_spectrum(rng, np.array([1.0, 0.0, 0.0, 0.0])) for _ in range(20)]
        slightly_negative = []
        for _ in range(20):
            eps = rng.uniform(1e-6, 0.9 * INPUT_PSD_FLOOR)
            w = rng.uniform(0.1, 1.0, 3)
            slightly_negative.append(
                self._with_spectrum(rng, np.append(w * (1.0 + eps) / w.sum(), -eps))
            )
        return np.array(full + pure + slightly_negative + [PSI_PLUS.elements, GROUND.elements])

    def test_equals_scalar_eof_bitwise(self):
        stack = self._stack(np.random.default_rng(31))
        got = eof_many(stack)
        want = np.array([eof(as_state(m)) for m in stack])
        assert got.shape == (len(stack),)
        assert got.tobytes() == want.tobytes()

    def test_any_member_below_the_floor_fails_the_stack(self):
        stack = self._stack(np.random.default_rng(37))
        stack[5] = np.diag([0.75, 0.75, 0.75, -1.25])
        with pytest.raises(EigenFailureError):
            eof_many(stack)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            eof_many(np.eye(3) / 3)


class TestXMeasure:
    def test_matches_the_singular_value_route_on_x_states(self):
        rng = np.random.default_rng(71)
        exact = np.array([random_x_state(rng, 4) for _ in range(1000)]
                         + [random_x_state(rng, 1 + k % 4, diagonal=True) for k in range(400)]
                         + [PSI_PLUS.elements, GROUND.elements, np.eye(4) / 4])
        deficient = np.array([random_x_state(rng, 1 + k % 3) for k in range(1000)])
        c_raw, _, w = _concurrence_raw(np.concatenate([exact, deficient]))
        c, min_eig, dc = _x_measure(np.concatenate([exact, deficient]))
        assert dc is None
        assert np.abs(min_eig - w[:, 0]).max() <= 1e-15
        assert np.abs(c - c_raw)[:len(exact)].max() <= 1e-14
        # At a zero eigenvalue of rho that eigh returns as +1e-17, the singular
        # value route's sqrt(rho) carries about sqrt(1e-17): its lambdas are off
        # by some 1e-9 there, and the closed form is not.
        assert np.abs(c - c_raw)[len(exact):].max() <= 1e-7
        assert (c > 0.1).sum() > 500 and (c == 0).sum() > 500

    def test_pure_x_states_have_c_twice_the_amplitude_product(self):
        # C = 2 |ad - bc| for a|00> + b|01> + c|10> + d|11> (Wootters, PRL 80, 2245 (1998))
        rng = np.random.default_rng(79)
        amps = rng.standard_normal((500, 4)) + 1j * rng.standard_normal((500, 4))
        amps[:250, [1, 2]] = 0.0
        amps[250:, [0, 3]] = 0.0
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        c, min_eig, _ = _x_measure(amps[:, :, None] * amps[:, None, :].conj())
        want = 2.0 * np.abs(amps[:, 0] * amps[:, 3] - amps[:, 1] * amps[:, 2])
        assert np.abs(c - want).max() <= 1e-14
        assert np.abs(min_eig).max() <= 1e-15

    def test_dispatch_is_per_state(self):
        rng = np.random.default_rng(73)
        stack = np.array([random_x_state(rng, 1 + k % 4) if k % 3 else random_density_matrix(rng)
                          for k in range(60)])
        x = _is_x(stack)
        assert x.sum() == 40
        c, min_eig, dc = _measure(stack, stack)
        want = _x_measure(stack[x], stack[x])
        assert c[x].tobytes() == want[0].tobytes()
        assert min_eig[x].tobytes() == want[1].tobytes()
        assert dc[x].tobytes() == want[2].tobytes()
        c_raw, _, w = _concurrence_raw(stack[~x])
        assert c[~x].tobytes() == c_raw.tobytes()
        assert min_eig[~x].tobytes() == w[:, 0].tobytes()
        assert np.isnan(dc[~x]).all()
        assert eof_many(stack).tobytes() == np.array([eof(as_state(m)) for m in stack]).tobytes()

    def test_an_element_off_x_in_either_triangle_is_not_x(self):
        mats = np.tile(np.eye(4, dtype=complex) / 4, (3, 1, 1))
        mats[1, 1, 3] = 1e-300
        mats[2, 3, 1] = 1e-300
        assert _is_x(mats).tolist() == [True, False, False]

    def test_an_eigenvalue_below_the_floor_fails(self):
        mat = np.diag([0.5, 0.5, 0.5, -0.5]).astype(complex)
        mat[1, 2] = mat[2, 1] = 0.1
        with pytest.raises(EigenFailureError):
            _x_measure(mat)


class TestEofGradient:
    def test_equals_the_one_body_reference_bitwise(self):
        rng = np.random.default_rng(59)
        fixtures = [werner_state(WernerParams(0.7, 0.1, 0.1, 0.1)),
                    xy_state(XYFamilyParams(0.6, 0.3j)), PSI_PLUS]
        randoms = [as_state(random_entangled_mixed(rng)) for _ in range(200)]
        for rho in fixtures + randoms:
            grad = eof_gradient(rho)
            got = np.stack([grad.dE_dRe, grad.dE_dIm])
            assert got.tobytes() == gradient_in_one_body(rho.elements).tobytes()

    def test_werner_central_coherence_slope_is_negative(self):
        grad = eof_gradient(werner_state(WernerParams(0.7, 0.1, 0.1, 0.1)))
        # rho23 = -0.3; pushing it toward zero lowers |rho23| and hence E
        assert grad.dE_dRe[1, 2] < 0

    def test_pure_imaginary_coherence_has_no_real_slope(self):
        grad = eof_gradient(xy_state(XYFamilyParams(0.6, 0.3j)))
        assert grad.dE_dRe[1, 2] == pytest.approx(0.0, abs=1e-9)
        assert grad.dE_dIm[1, 2] > 0

    def test_kink_region_refused(self):
        with pytest.raises(KinkRegionError):
            eof_gradient(GROUND)

    def test_structural_zeros(self):
        grad = eof_gradient(PSI_PLUS)
        assert np.all(np.diag(grad.dE_dIm) == 0)
        assert np.all(grad.dE_dRe[np.tril_indices(4, -1)] == 0)
        assert np.all(grad.dE_dIm[np.tril_indices(4, -1)] == 0)

    def test_directional_derivative_matches_two_point_difference(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            mat = random_entangled_mixed(rng)
            grad = eof_gradient(as_state(mat))
            direction = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            direction = (direction + direction.conj().T) / 2
            direction /= np.abs(direction).max()

            from_grad = 0.0
            for i in range(4):
                from_grad += grad.dE_dRe[i, i] * direction[i, i].real
                for j in range(i + 1, 4):
                    from_grad += grad.dE_dRe[i, j] * direction[i, j].real
                    from_grad += grad.dE_dIm[i, j] * direction[i, j].imag

            h = 1e-5
            two_point = (
                eof(as_state(mat + h * direction)) - eof(as_state(mat - h * direction))
            ) / (2 * h)
            assert from_grad == pytest.approx(two_point, rel=1e-4, abs=1e-9)

    def test_matches_central_differences_on_full_rank_states(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            mat = random_entangled_mixed(rng)
            grad = eof_gradient(as_state(mat))
            np.testing.assert_allclose(np.stack([grad.dE_dRe, grad.dE_dIm]),
                                       central_difference_gradient(mat), rtol=0, atol=1e-6)

    def test_rank_two_state_outside_x_form_is_refused(self):
        # Two of its lambdas are 0, and E has a one-sided kink in every direction
        # that makes them grow.
        rng = np.random.default_rng(47)
        psi = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        mat = 0.7 * np.outer(psi[0], psi[0].conj()) + 0.3 * np.outer(psi[1], psi[1].conj())
        assert concurrence(as_state(mat)).c > 0.1
        with pytest.raises(KinkRegionError):
            eof_gradient(as_state(mat))


class TestConcurrenceWerner:
    def test_examples(self):
        assert concurrence_werner(WernerParams(1.0, 0.0, 0.0, 0.0)) == 1.0
        assert concurrence_werner(WernerParams(0.25, 0.25, 0.25, 0.25)) == 0.0
        assert concurrence_werner(WernerParams(0.7, 0.1, 0.1, 0.1)) == pytest.approx(0.4)

    def test_relabelling_when_other_weight_dominates(self):
        for w in [
            WernerParams(0.1, 0.7, 0.1, 0.1),
            WernerParams(0.1, 0.1, 0.7, 0.1),
            WernerParams(0.1, 0.1, 0.1, 0.7),
        ]:
            assert concurrence_werner(w) == pytest.approx(0.4)
            assert concurrence(werner_state(w)).c == pytest.approx(0.4, abs=1e-10)

    def test_matches_full_concurrence_on_grid(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            raw = rng.uniform(0.0, 1.0, size=4)
            raw /= raw.sum()
            w = WernerParams(*raw)
            assert concurrence_werner(w) == pytest.approx(
                concurrence(werner_state(w)).c, abs=1e-10
            )
