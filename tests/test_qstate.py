import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_density_matrix
from entrate import (
    WernerParams,
    XYFamilyParams,
    bell_diagonal_weights,
    new_density,
    unchecked_density,
    werner_state,
    xy_positivity,
    xy_state,
)
from entrate.errors import (
    DimensionMismatchError,
    DomainError,
    NonHermitianError,
    NotBellDiagonalError,
    NotPositiveError,
    PositivityViolationError,
    TraceNotOneError,
    WeightError,
)


class TestNewDensity:
    @pytest.mark.parametrize("cells", [[(0, 0)], [(0, 1), (1, 0)]], ids=["diagonal", "pair"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_elements_rejected(self, cells, bad):
        m = np.eye(4, dtype=complex) / 4
        for cell in cells:
            m[cell] = bad
        with pytest.raises(DomainError):
            new_density(m)

    def test_maximally_mixed_is_valid(self):
        rho = new_density(np.eye(4) / 4)
        assert rho.dim == 4
        np.testing.assert_allclose(rho.elements, np.eye(4) / 4)

    def test_pure_ground_state_is_valid(self):
        rho = new_density(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
        assert rho.elements[0, 0] == 1.0

    def test_forced_negative_eigenvalue_rejected(self):
        m = np.diag([1.0, 0.0, 0.0, -1e-3])
        with pytest.raises(NotPositiveError):
            new_density(m / m.trace())

    def test_non_hermitian_rejected(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(NonHermitianError):
            new_density(m)

    def test_wrong_trace_rejected(self):
        with pytest.raises(TraceNotOneError):
            new_density(np.eye(4) / 2)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            new_density(np.zeros((2, 3)))
        with pytest.raises(DimensionMismatchError):
            new_density(np.zeros((0, 0)))

    @pytest.mark.parametrize("build", [new_density, unchecked_density])
    @pytest.mark.parametrize("elements", ["abc", [[0.5, 0.0], [0.0]], None,
                                          [["0.5", "0"], ["0", "0.5"]]],
                             ids=["string", "ragged", "none", "numeric-strings"])
    def test_ragged_or_non_numeric_input_rejected(self, build, elements):
        with pytest.raises(DomainError):
            build(elements)

    def test_random_states_validate(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            new_density(random_density_matrix(rng))

    def test_elements_are_immutable(self):
        rho = new_density(np.eye(4) / 4)
        with pytest.raises(ValueError):
            rho.elements[0, 0] = 5.0

    def test_unchecked_accepts_invalid(self):
        rho = unchecked_density(np.diag([2.0, -1.0, 0.0, 0.0]))
        assert rho.dim == 4


class TestWernerState:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(DomainError):
            WernerParams(bad, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("first", ["a", "0.25", None, [0.25]],
                             ids=["string", "numeric-string", "none", "list"])
    def test_non_numeric_weight_rejected(self, first):
        with pytest.raises(DomainError):
            WernerParams(first, 0.25, 0.25, 0.25)

    def test_pure_central_bell_state(self):
        # weights (1,0,0,0): central block (a+b)/2 = 1/2, off-diagonal (b-a)/2 = -1/2
        rho = werner_state(WernerParams(1.0, 0.0, 0.0, 0.0))
        m = rho.elements
        assert m[1, 1] == m[2, 2] == 0.5
        assert m[1, 2] == m[2, 1] == -0.5
        assert np.abs(m).sum() == pytest.approx(2.0)

    def test_equal_weights_is_maximally_mixed(self):
        rho = werner_state(WernerParams(0.25, 0.25, 0.25, 0.25))
        np.testing.assert_allclose(rho.elements, np.eye(4) / 4, atol=1e-15)

    def test_matrix_form_at_mixed_point(self):
        m = werner_state(WernerParams(0.7, 0.1, 0.1, 0.1)).elements
        assert m[0, 0] == pytest.approx(0.1)
        assert m[3, 3] == pytest.approx(0.1)
        assert m[1, 1] == pytest.approx(0.4)
        assert m[2, 2] == pytest.approx(0.4)
        assert m[1, 2] == pytest.approx(-0.3)
        assert m[0, 3] == 0.0

    def test_invalid_weights(self):
        with pytest.raises(WeightError):
            WernerParams(-0.1, 0.5, 0.3, 0.3)
        with pytest.raises(WeightError):
            WernerParams(0.5, 0.5, 0.5, 0.5)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=4))
    @settings(max_examples=200)
    def test_simplex_points_validate(self, raw):
        total = sum(raw)
        assume(total > 1e-3)
        w = WernerParams(*(x / total for x in raw))
        werner_state(w)  # must pass all three density invariants


class TestXYState:
    @pytest.mark.parametrize("p,q", [(np.nan, 0.1j), (0.5, complex(np.nan, 0.1)),
                                     (0.5, complex(0.1, np.inf))])
    def test_non_finite_parameters_rejected(self, p, q):
        with pytest.raises(DomainError):
            XYFamilyParams(p, q)

    @pytest.mark.parametrize("p,q", [(0.5, "x"), ("0.5", 0.1j), (None, 0.1j), (0.5 + 0.1j, 0.1j),
                                     ([0.5], 0.1j)],
                             ids=["string-q", "numeric-string-p", "none-p", "complex-p", "list-p"])
    def test_non_numeric_parameters_rejected(self, p, q):
        with pytest.raises(DomainError):
            XYFamilyParams(p, q)

    def test_half_half_is_maximally_entangled_matrix(self):
        m = xy_state(XYFamilyParams(0.5, 0.5 + 0.0j)).elements
        assert m[1, 1] == m[2, 2] == 0.5
        assert m[1, 2] == m[2, 1] == 0.5

    def test_p_one_is_01_projector(self):
        m = xy_state(XYFamilyParams(1.0, 0.0j)).elements
        np.testing.assert_allclose(m, np.diag([0.0, 1.0, 0.0, 0.0]), atol=1e-15)

    def test_interior_point(self):
        x = XYFamilyParams(0.6, 0.3j)
        assert xy_positivity(x.p, x.q) == pytest.approx(-0.15)
        m = xy_state(x).elements
        assert m[1, 1] == 0.6
        assert m[2, 2] == pytest.approx(0.4)
        assert m[1, 2] == 0.3j
        assert m[2, 1] == -0.3j

    def test_infeasible_point_rejected(self):
        with pytest.raises(PositivityViolationError):
            XYFamilyParams(0.5, 0.6 + 0.0j)

    def test_positivity_examples(self):
        assert xy_positivity(0.5, 0.5) == pytest.approx(0.0, abs=1e-15)
        assert xy_positivity(0.0, 0.0) == 0.0
        assert xy_positivity(0.5, 0.6) == pytest.approx(0.11)

    def test_eigenvalues_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            qabs = rng.uniform(0.0, 0.45)
            q = qabs * np.exp(2j * np.pi * rng.uniform())
            width = np.sqrt(0.25 - qabs * qabs)
            p = 0.5 + rng.uniform(-width, width)
            r = xy_positivity(p, q)
            evs = np.sort(np.linalg.eigvalsh(xy_state(XYFamilyParams(p, q)).elements))
            root = np.sqrt(0.25 + r)
            np.testing.assert_allclose(
                evs, [0.0, 0.0, 0.5 - root, 0.5 + root], atol=1e-12
            )

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=-0.7, max_value=0.7),
        st.floats(min_value=-0.7, max_value=0.7),
    )
    @settings(max_examples=300)
    def test_validation_matches_eigenvalue_sign(self, p, qr, qi):
        q = complex(qr, qi)
        r = xy_positivity(p, q)
        assume(abs(r) > 1e-6)  # stay away from the knife edge
        if r < 0:
            rho = xy_state(XYFamilyParams(p, q))
            assert np.linalg.eigvalsh(rho.elements).min() > -1e-12
        else:
            with pytest.raises(PositivityViolationError):
                XYFamilyParams(p, q)
            m = np.zeros((4, 4), dtype=complex)
            m[1, 1], m[2, 2], m[1, 2], m[2, 1] = p, 1 - p, q, np.conj(q)
            assert np.linalg.eigvalsh(m).min() < 1e-12


class TestBellDiagonalWeights:
    def test_round_trip(self):
        w = WernerParams(0.7, 0.1, 0.1, 0.1)
        out = bell_diagonal_weights(werner_state(w))
        assert (out.a, out.b, out.c, out.d) == pytest.approx((0.7, 0.1, 0.1, 0.1))

    def test_identity_gives_equal_weights(self):
        out = bell_diagonal_weights(new_density(np.eye(4) / 4))
        assert (out.a, out.b, out.c, out.d) == pytest.approx((0.25,) * 4)

    def test_xy_state_is_not_bell_diagonal(self):
        with pytest.raises(NotBellDiagonalError):
            bell_diagonal_weights(xy_state(XYFamilyParams(0.6, 0.3j)))

    def test_unbalanced_diagonal_rejected(self):
        m = np.array(werner_state(WernerParams(0.6, 0.2, 0.1, 0.1)).elements)
        m[0, 0] += 0.05
        m[3, 3] -= 0.05
        with pytest.raises(NotBellDiagonalError):
            bell_diagonal_weights(unchecked_density(m))

    @given(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=4, max_size=4))
    @settings(max_examples=200)
    def test_round_trip_on_simplex(self, raw):
        total = sum(raw)
        w = WernerParams(*(x / total for x in raw))
        out = bell_diagonal_weights(werner_state(w))
        for got, want in zip((out.a, out.b, out.c, out.d), (w.a, w.b, w.c, w.d)):
            assert got == pytest.approx(want, abs=1e-12)
