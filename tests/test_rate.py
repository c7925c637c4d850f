import numpy as np
import pytest

from conftest import centered_trajectory, random_entangled_mixed, random_xy_interior
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
    rate_xy,
    rate_xy_value,
    rhs_damped_xy,
    werner_state,
    xy_state,
)
from entrate.errors import (
    DegenerateDirectionError,
    IndexOutOfRangeError,
    KinkRegionError,
    SeparableRegionError,
)

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


class TestCriterionThreshold:
    def test_threshold_arithmetic(self):
        assert criterion_threshold_value(0.6, 0.5j) == pytest.approx(2.5)

    @pytest.mark.parametrize("q", [2e154j, complex(1.27e308, 1.27e308)])
    def test_overflowing_coherence_gives_infinite_threshold(self, q):
        # |q|^2 (and for the second q, |q| itself) is past the largest float
        assert criterion_threshold_value(0.0, q) == -np.inf
        assert criterion_threshold_value(1.0, q) == np.inf

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
