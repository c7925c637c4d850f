import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    as_state,
    centered_trajectory,
    random_entangled_mixed,
    random_xy_interior,
)
from entrate import (
    ModelParams,
    WernerParams,
    XYFamilyParams,
    criterion_threshold,
    criterion_threshold_value,
    eof_gradient,
    integrate,
    new_density,
    rate_chain,
    rate_numeric,
    rate_werner,
    rate_x,
    rate_xy,
    rate_xy_value,
    rhs_damped_xy,
    werner_state,
    xy_state,
)
from entrate.entanglement import _concurrence_raw, _eof_slopes, eof_many
from entrate.errors import (
    DegenerateDirectionError,
    DimensionMismatchError,
    DomainError,
    IndexOutOfRangeError,
    KinkRegionError,
    NotXStateError,
    SeparableRegionError,
)
from entrate.lindblad import _damped_xy_generator

LN2 = np.log(2.0)


class TestRateNumeric:
    def test_stationary_bell_state_has_zero_rate(self):
        params = ModelParams(1.0, 0.2, 0.0)
        rho = xy_state(XYFamilyParams(0.5, 0.5 + 0.0j))
        traj = integrate(lambda r: rhs_damped_xy(params, r), rho, 0.1, 0.01)
        assert rate_numeric(traj, 5) == pytest.approx(0.0, abs=1e-12)

    def test_damped_werner_loses_entanglement(self):
        params = ModelParams(1.0, 0.2, 0.01)
        rho = werner_state(WernerParams(0.7, 0.1, 0.1, 0.1))
        traj = integrate(lambda r: rhs_damped_xy(params, r), rho, 0.05, 0.01)
        assert rate_numeric(traj, 1) < 0

    def test_index_bounds(self):
        params = ModelParams(1.0, 0.2, 0.01)
        rho = werner_state(WernerParams(0.7, 0.1, 0.1, 0.1))
        traj = integrate(lambda r: rhs_damped_xy(params, r), rho, 0.02, 0.01)
        with pytest.raises(IndexOutOfRangeError):
            rate_numeric(traj, 0)
        with pytest.raises(IndexOutOfRangeError):
            rate_numeric(traj, len(traj) - 1)


class TestRateChain:
    def test_zero_motion_gives_zero(self):
        rho = werner_state(WernerParams(0.7, 0.1, 0.1, 0.1))
        out = rate_chain(rho, np.zeros((4, 4), dtype=complex))
        assert out.gamma_total == 0.0

    def test_total_equals_sum_of_terms(self):
        params = ModelParams(1.0, 0.2, 0.01)
        rho = xy_state(XYFamilyParams(0.6, 0.3j))
        out = rate_chain(rho, rhs_damped_xy(params, rho))
        paired = sum(de * dr for _, de, dr in out.terms)
        assert out.gamma_total == pytest.approx(paired, abs=1e-12)

    def test_entangling_xy_point_is_positive(self):
        params = ModelParams(1.0, 0.2, 0.01)
        rho = xy_state(XYFamilyParams(0.6, 0.3j))
        assert rate_chain(rho, rhs_damped_xy(params, rho)).gamma_total > 0

    def test_werner_point_is_negative(self):
        params = ModelParams(1.0, 0.2, 0.01)
        rho = werner_state(WernerParams(0.7, 0.1, 0.1, 0.1))
        assert rate_chain(rho, rhs_damped_xy(params, rho)).gamma_total < 0

    def test_terms_follow_the_element_order(self):
        """Term names, values and the running total are those of a loop over
        (i, j), j >= i, row-major: rho_ii, or Re then Im of rho_ij."""
        params = ModelParams(1.0, 0.2, 0.03)
        rho = new_density(random_entangled_mixed(np.random.default_rng(5)))
        rho_dot = rhs_damped_xy(params, rho)
        grad = eof_gradient(rho)
        want, total = [], 0.0
        for i in range(4):
            for j in range(i, 4):
                if i == j:
                    want.append((f"rho{i + 1}{j + 1}", grad.dE_dRe[i, i], rho_dot[i, i].real))
                else:
                    want.append((f"Re rho{i + 1}{j + 1}", grad.dE_dRe[i, j], rho_dot[i, j].real))
                    want.append((f"Im rho{i + 1}{j + 1}", grad.dE_dIm[i, j], rho_dot[i, j].imag))
        for _, de, dr in want:
            total += de * dr
        out = rate_chain(rho, rho_dot)
        assert list(out.terms) == want
        assert out.gamma_total == total  # bitwise: the same sum in the same order

    def test_kink_region_propagates(self):
        rho = new_density(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
        with pytest.raises(KinkRegionError):
            rate_chain(rho, np.zeros((4, 4), dtype=complex))

    def test_rho_dot_must_be_4x4(self):
        rho = werner_state(WernerParams(0.7, 0.1, 0.1, 0.1))
        with pytest.raises(DimensionMismatchError):
            rate_chain(rho, np.zeros((2, 2)))

    def test_rho_dot_must_be_finite(self):
        rho = werner_state(WernerParams(0.7, 0.1, 0.1, 0.1))
        with pytest.raises(DomainError):
            rate_chain(rho, np.full((4, 4), np.nan))

    def test_exact_along_the_damped_xy_flow(self):
        """The chain rule along rhs_damped_xy equals the closed forms, on XY
        points (pure ones and C = 1 among them) and on Bell-diagonal points
        (the c + d = 0 edge among them)."""
        rng = np.random.default_rng(53)
        for k in range(150):
            params = ModelParams(rng.uniform(-3, 3), rng.uniform(-1, 1), rng.uniform(0, 1))
            p = rng.uniform(0.02, 0.98)
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            x = (random_xy_interior(rng), XYFamilyParams(p, np.sqrt(p * (1 - p)) * phase),
                 XYFamilyParams(0.5, 0.5 * phase))[k % 3]
            a = rng.uniform(0.55, 1.0)
            rest = rng.dirichlet([1, 1, 1]) * (1 - a) if k % 2 else (1 - a, 0.0, 0.0)
            w = WernerParams(a, *rest)
            for rho, closed in ((xy_state(x), rate_xy(x, params)),
                                (werner_state(w), rate_werner(w, params))):
                chain = rate_chain(rho, rhs_damped_xy(params, rho)).gamma_total
                assert chain == pytest.approx(closed, rel=1e-10, abs=1e-14)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       parts=arrays(float, (2, 4, 4), elements=st.floats(-1.0, 1.0)))
def test_slope_along_rho_dot_is_the_gradient_paired_with_the_rates(seed, parts):
    """The directional kernel the rate report uses, along a Hermitian rho_dot,
    against eof_gradient paired with the element rates (rate_chain)."""
    mat = random_entangled_mixed(np.random.default_rng(seed))
    rho_dot = parts[0] + 1j * parts[1]
    rho_dot = rho_dot + rho_dot.conj().T
    c, lam, _ = _concurrence_raw(mat)
    along = _eof_slopes(mat, c, lam, rho_dot[None])[0]
    assert abs(along - rate_chain(as_state(mat), rho_dot).gamma_total) <= 1e-13


def xy_rate_of_change(params, rho):
    """rho_dot = L vec rho under the damped XY model."""
    return (_damped_xy_generator(params) @ rho.elements.reshape(16)).reshape(4, 4)


def one_sided_rate(params, rho, h):
    """(-3 E(0) + 4 E(h) - E(2h)) / (2h) over the exactly propagated
    trajectory: the forward difference of second order."""
    e0, e1, e2 = eof_many(integrate(params, rho, 2 * h, h).elements)
    return (-3.0 * e0 + 4.0 * e1 - e2) / (2.0 * h)


PURE_X = new_density(np.outer([0.8, 0.0, 0.0, 0.6], [0.8, 0.0, 0.0, 0.6]))


class TestRateX:
    def test_pure_state_takes_the_one_sided_rate(self):
        params = ModelParams(1.0, 0.2, 0.05)
        got = rate_x(PURE_X, xy_rate_of_change(params, PURE_X))
        assert got == pytest.approx(-0.1195308, abs=1e-7)
        for h in (1e-4, 1e-5):
            assert got == pytest.approx(one_sided_rate(params, PURE_X, h), abs=1e-8)
        # rate_chain takes the slope of a zero lambda as 0, as documented.
        chain = rate_chain(PURE_X, xy_rate_of_change(params, PURE_X)).gamma_total
        assert chain == pytest.approx(-0.0683033, abs=1e-7)

    def test_matches_one_sided_differences_on_both_families(self):
        rng = np.random.default_rng(83)
        for k in range(60):
            params = ModelParams(rng.uniform(-3, 3), rng.uniform(-1, 1), rng.uniform(0, 1))
            if k % 2:
                rho = xy_state(random_xy_interior(rng))
            else:
                a = rng.uniform(0.6, 1.0)
                rho = werner_state(WernerParams(a, *(rng.dirichlet([1, 1, 1]) * (1 - a))))
            got = rate_x(rho, xy_rate_of_change(params, rho))
            assert got == pytest.approx(one_sided_rate(params, rho, 1e-6), abs=1e-7)

    def test_equals_the_chain_rule_away_from_zero_lambdas(self):
        rng = np.random.default_rng(89)
        for _ in range(100):
            params = ModelParams(rng.uniform(-3, 3), rng.uniform(-1, 1), rng.uniform(0, 1))
            a = rng.uniform(0.6, 0.95)
            rho = werner_state(WernerParams(a, *(rng.dirichlet([1, 1, 1]) * (1 - a))))
            rho_dot = xy_rate_of_change(params, rho)
            assert rate_x(rho, rho_dot) == pytest.approx(rate_chain(rho, rho_dot).gamma_total,
                                                         rel=1e-12, abs=1e-15)

    def test_a_state_or_direction_outside_the_x_form_is_refused(self):
        rho = as_state(random_entangled_mixed(np.random.default_rng(97)))
        with pytest.raises(NotXStateError):
            rate_x(rho, np.zeros((4, 4)))
        off_x = np.zeros((4, 4))
        off_x[0, 1] = off_x[1, 0] = 1.0
        with pytest.raises(NotXStateError):
            rate_x(PURE_X, off_x)

    def test_kink_and_infinite_rate_are_refused(self):
        params = ModelParams(1.0, 0.2, 0.05)
        mixed = new_density(np.eye(4) / 4)
        with pytest.raises(KinkRegionError):
            rate_x(mixed, xy_rate_of_change(params, mixed))
        # rho22 = 0 < rho33 and rho22 grows at gamma rho44: sqrt(rho22 rho33)
        # leaves 0 with an infinite slope.
        mat = np.diag([0.5, 0.0, 0.2, 0.3]).astype(complex)
        mat[0, 3] = mat[3, 0] = 0.35
        rho = new_density(mat)
        with pytest.raises(KinkRegionError):
            rate_x(rho, xy_rate_of_change(params, rho))


class TestRateWerner:
    def test_pure_bell_state_decay_rate(self):
        got = rate_werner(WernerParams(1.0, 0.0, 0.0, 0.0), ModelParams(1.0, 0.2, 0.01))
        assert got == pytest.approx(-0.01 / LN2, abs=1e-12)
        assert got == pytest.approx(-0.014426950408889635, abs=1e-12)

    def test_pure_bell_state_matches_forward_numeric(self):
        # physical (forward) trajectory: the backward extension saturates E = 1
        params = ModelParams(1.0, 0.2, 0.01)
        rho = werner_state(WernerParams(1.0, 0.0, 0.0, 0.0))
        dt = 1e-4
        traj = integrate(lambda r: rhs_damped_xy(params, r), rho, 2 * dt, dt)
        got = rate_werner(WernerParams(1.0, 0.0, 0.0, 0.0), params)
        assert got == pytest.approx(rate_numeric(traj, 1), rel=1e-3)

    def test_no_damping_no_change(self):
        assert rate_werner(WernerParams(0.7, 0.1, 0.1, 0.1), ModelParams(1.0, 0.5, 0.0)) == 0.0

    def test_strictly_decreasing_in_a(self):
        params = ModelParams(1.0, 0.2, 0.01)
        cd = 0.1
        vals = [
            rate_werner(WernerParams(a, 1.0 - a - cd, cd / 2, cd / 2), params)
            for a in np.linspace(0.55, 0.9, 50)
        ]
        assert all(v < 0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_separable_region_is_an_error(self):
        with pytest.raises(SeparableRegionError):
            rate_werner(WernerParams(0.25, 0.25, 0.25, 0.25), ModelParams(1.0, 0.2, 0.01))

    def test_linear_in_gamma(self):
        w = WernerParams(0.6, 0.2, 0.1, 0.1)
        base = rate_werner(w, ModelParams(1.0, 0.2, 0.01))
        assert rate_werner(w, ModelParams(1.0, 0.2, 0.03)) == pytest.approx(3 * base)

    def test_matches_numeric_oracle_on_interior_grid(self):
        for f in np.linspace(0.1, 0.98, 12):
            a = (1 + f) / 2
            s = (1 - f) / 4
            w = WernerParams(a, (1 - f) / 4, s / 2, s / 2)
            for gam in (0.01, 0.2):
                params = ModelParams(1.0, 0.2, gam)
                dt = 1e-3 / max(params.g, gam, 1.0)
                traj = centered_trajectory(werner_state(w), params, dt)
                assert rate_werner(w, params) == pytest.approx(
                    rate_numeric(traj, 1), rel=1e-3
                )

    def test_matches_numeric_oracle_on_cd_zero_edge(self):
        # rho44 stays identically zero here and the decay law changes
        w = WernerParams(0.7, 0.3, 0.0, 0.0)
        params = ModelParams(1.0, 0.2, 0.01)
        traj = centered_trajectory(werner_state(w), params, 1e-3)
        assert rate_werner(w, params) == pytest.approx(rate_numeric(traj, 1), rel=1e-3)

    def test_unequal_corner_weights_and_frequency_do_not_enter(self):
        # c != d gives rho14 != 0, which rotates at 2*omega but cancels
        # out of the concurrence
        w = WernerParams(0.6, 0.15, 0.2, 0.05)
        closed = rate_werner(w, ModelParams(0.0, 0.2, 0.02))
        assert closed == rate_werner(w, ModelParams(2.0, 0.2, 0.02))
        for omega in (0.0, 2.0):
            params = ModelParams(omega, 0.2, 0.02)
            traj = centered_trajectory(werner_state(w), params, 1e-3)
            assert closed == pytest.approx(rate_numeric(traj, 1), rel=1e-3)


class TestRateXY:
    def test_interior_point_value(self):
        # frozen from a centered finite-difference oracle on the integrated flow
        got = rate_xy(XYFamilyParams(0.6, 0.3j), ModelParams(1.0, 0.2, 0.01))
        assert got == pytest.approx(0.08796541879002416, abs=1e-12)

    def test_boundary_maximum_value(self):
        # p = 1/2 kills the entangling direction; only -gamma |q|^2 remains
        got = rate_xy(XYFamilyParams(0.5, 0.5j), ModelParams(1.0, 0.2, 0.01))
        assert got == pytest.approx(-0.01 / LN2, abs=1e-12)

    def test_raw_formula_at_coherence_cap(self):
        # the G -> 1 limit prefactor 2/ln2 at the figure's extremal cells
        assert rate_xy_value(0.6, 0.5j, 0.2, 0.01) == pytest.approx(
            2 / LN2 * 0.035, abs=1e-12
        )
        assert rate_xy_value(0.6, 0.5 + 0.0j, 0.2, 0.01) == pytest.approx(
            -2 / LN2 * 0.005, abs=1e-12
        )

    def test_pure_decay_for_real_coherence(self):
        for q in (0.3 + 0.0j, -0.2 + 0.0j, 0.1 + 0.2j):
            got = rate_xy_value(0.5, q, 0.0, 0.02)
            assert got < 0

    def test_separable_region_is_an_error(self):
        with pytest.raises(SeparableRegionError):
            rate_xy(XYFamilyParams(0.7, 0.0j), ModelParams(1.0, 0.2, 0.01))

    def test_sign_law_across_feasible_samples(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            x = random_xy_interior(rng)
            g, gam = rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.1)
            bracket = g * x.q.imag * (2 * x.p - 1) - gam * abs(x.q) ** 2
            assert np.sign(rate_xy(x, ModelParams(1.0, g, gam))) == np.sign(bracket)

    def test_boundary_rate_is_zero_when_ratio_equals_threshold(self):
        # g/gamma = 2.5 exactly matches the threshold for (p=0.6, q=0.5i)
        assert abs(rate_xy_value(0.6, 0.5j, 0.025, 0.01)) < 1e-12

    @pytest.mark.parametrize("args", [
        (np.nan, 0.3j, 0.2, 0.01), (0.6, 0.3j, np.nan, 0.01), (0.6, 0.3j, 0.2, np.nan),
    ], ids=["p", "g", "gamma"])
    def test_nan_argument_is_a_domain_error(self, args):
        with pytest.raises(DomainError):
            rate_xy_value(*args)


class TestCriterionThreshold:
    def test_threshold_arithmetic(self):
        assert criterion_threshold_value(0.6, 0.5j) == pytest.approx(2.5)

    @pytest.mark.parametrize("q", [2e154j, complex(1.27e308, 1.27e308)])
    def test_overflowing_coherence_gives_infinite_threshold(self, q):
        # |q|^2 (and for the second q, |q| itself) is past the largest float
        assert criterion_threshold_value(0.0, q) == -np.inf
        assert criterion_threshold_value(1.0, q) == np.inf

    def test_nan_population_is_a_domain_error(self):
        with pytest.raises(DomainError):
            criterion_threshold_value(np.nan, 0.3j)

    def test_typed_operation_on_feasible_point(self):
        assert criterion_threshold(XYFamilyParams(0.6, 0.4j)) == pytest.approx(
            0.16 / (0.4 * 0.2)
        )

    def test_degenerate_direction(self):
        with pytest.raises(DegenerateDirectionError):
            criterion_threshold(XYFamilyParams(0.5, 0.3j))
        with pytest.raises(DegenerateDirectionError):
            criterion_threshold(XYFamilyParams(0.6, 0.3 + 0.0j))

    def test_threshold_equivalence_with_rate_sign(self):
        rng = np.random.default_rng(37)
        checked = 0
        while checked < 300:
            x = random_xy_interior(rng)
            g, gam = rng.uniform(0.01, 0.5), rng.uniform(0.001, 0.1)
            try:
                tau = criterion_threshold(x)
            except DegenerateDirectionError:
                continue
            if tau <= 0:
                continue
            rate = rate_xy(x, ModelParams(1.0, g, gam))
            if abs(g / gam - tau) < 1e-9:
                continue  # knife edge: both sides agree only in exact arithmetic
            assert (g / gam > tau) == (rate > 0)
            checked += 1


class TestThreeRouteAgreement:
    def test_on_random_interior_points(self):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 60:
            x = random_xy_interior(rng)
            g, gam = rng.uniform(0.05, 0.5), rng.uniform(0.001, 0.05)
            params = ModelParams(rng.uniform(0.0, 2.0), g, gam)
            closed = rate_xy(x, params)
            if abs(closed) < 1e-4:
                continue  # relative agreement is ill-posed at the sign boundary
            rho = xy_state(x)
            chain = rate_chain(rho, rhs_damped_xy(params, rho)).gamma_total
            dt = 1e-3 / max(g, gam, 1.0)
            numeric = rate_numeric(centered_trajectory(rho, params, dt), 1)
            assert chain == pytest.approx(closed, rel=1e-3)
            assert numeric == pytest.approx(closed, rel=1e-3)
            checked += 1
