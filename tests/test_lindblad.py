import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import entrate.lindblad

from conftest import random_density_matrix
from entrate import (
    LindbladModel,
    ModelParams,
    Trajectory,
    WernerParams,
    XYFamilyParams,
    damped_xy_model,
    default_step,
    integrate,
    liouvillian,
    new_density,
    rhs_consistency_check,
    rhs_damped_xy,
    rhs_generic,
    unchecked_density,
    werner_state,
    xy_hamiltonian,
    xy_state,
)
from entrate.errors import (
    DimensionMismatchError,
    DomainError,
    NonFiniteError,
    NonHermitianError,
    StepSizeTooLargeError,
    TraceNotOneError,
)

LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def test_model_params_validation():
    with pytest.raises(DomainError):
        ModelParams(1.0, 0.2, -0.1)
    with pytest.raises(DomainError):
        ModelParams(np.inf, 0.2, 0.1)


def test_model_requires_hermitian_h0():
    with pytest.raises(NonHermitianError):
        LindbladModel(h0=np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("h0,rates", [
    (np.array([[np.nan, 0.0], [0.0, 0.0]]), (0.1, 0.0)),
    (np.zeros((2, 2)), (np.nan, 0.0)),
    (np.zeros((2, 2)), (0.1, np.nan)),
    (np.zeros((2, 2)), (np.inf, 0.0)),
], ids=["nan-h0", "nan-k", "nan-g", "inf-k"])
def test_model_requires_finite_h0_and_rates(h0, rates):
    with pytest.raises(DomainError):
        LindbladModel(h0=h0, channels=((LOWER, *rates),))


@pytest.mark.parametrize("h0", [np.zeros((2, 3)), np.zeros(4), np.zeros((2, 2, 2)),
                                np.zeros((0, 0))], ids=["2x3", "vector", "stack", "empty"])
def test_model_requires_square_h0(h0):
    with pytest.raises(DimensionMismatchError):
        LindbladModel(h0=h0)


def test_model_requires_finite_channel_operators():
    x_minus = LOWER.copy()
    x_minus[1, 0] = np.nan
    with pytest.raises(DomainError):
        LindbladModel(h0=np.zeros((2, 2)), channels=((x_minus, 0.1, 0.0),))


@pytest.mark.parametrize("args", [("a", 0.2), ("1.0", 0.2), (None, 0.2), (1.0, 0.2, [0.1]),
                                  (1.0j, 0.2)],
                         ids=["string", "numeric-string", "none", "list", "complex"])
def test_model_params_must_be_real_numbers(args):
    with pytest.raises(DomainError):
        ModelParams(*args)


@pytest.mark.parametrize("channels", [((LOWER, 0.1),), (LOWER,), (0.1,), None],
                         ids=["pair", "bare-operator", "number", "none"])
def test_channel_entries_must_be_triples(channels):
    with pytest.raises(DimensionMismatchError):
        LindbladModel(h0=np.zeros((2, 2)), channels=channels)


@pytest.mark.parametrize("rate", ["0.1", None, 0.1j, [0.1]],
                         ids=["numeric-string", "none", "complex", "list"])
def test_channel_rates_must_be_real_numbers(rate):
    with pytest.raises(DomainError):
        LindbladModel(h0=np.zeros((2, 2)), channels=((LOWER, rate, 0.0),))


def _mixed_model_inputs():
    """An XY Hamiltonian and a lowering operator: the caller's arrays."""
    return xy_hamiltonian(0.9, 0.3), np.kron(LOWER, np.eye(2))


def test_model_holds_copies_of_the_callers_arrays():
    h0, x_minus = _mixed_model_inputs()
    model = LindbladModel(h0=h0, channels=((x_minus, 0.2, 0.1),))
    rho = new_density(random_density_matrix(np.random.default_rng(2)))
    rhs, gen = rhs_generic(model, rho), liouvillian(model)
    h0 += np.eye(4)
    x_minus[0, 1] = 5.0
    assert rhs_generic(model, rho).tobytes() == rhs.tobytes()
    assert liouvillian(model).tobytes() == gen.tobytes()


def test_model_arrays_are_read_only():
    h0, x_minus = _mixed_model_inputs()
    model = LindbladModel(h0=h0, channels=((x_minus, 0.2, 0.1),))
    for arr in (model.h0, model.channels[0][0]):
        assert arr.dtype == complex
        assert not arr.flags.writeable


def test_nested_lists_build_the_same_model_bitwise():
    h0, x_minus = _mixed_model_inputs()
    from_arrays = LindbladModel(h0=h0, channels=((x_minus, 0.2, 0.1),))
    from_lists = LindbladModel(h0=h0.tolist(), channels=[[x_minus.tolist(), 0.2, 0.1]])
    rho = new_density(random_density_matrix(np.random.default_rng(3)))
    for model_fn in (lambda m: rhs_generic(m, rho), liouvillian,
                     lambda m: integrate(m, rho, 0.5, 0.1).elements):
        assert model_fn(from_lists).tobytes() == model_fn(from_arrays).tobytes()


def test_generic_rhs_commuting_case_is_zero():
    model = LindbladModel(h0=np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex))
    rho = new_density(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
    np.testing.assert_allclose(rhs_generic(model, rho), 0.0, atol=1e-15)


def test_generic_rhs_single_qubit_decay():
    model = LindbladModel(h0=np.zeros((2, 2), dtype=complex), channels=((LOWER, 0.3, 0.0),))
    rho = new_density(np.diag([0.0, 1.0]).astype(complex))
    np.testing.assert_allclose(
        rhs_generic(model, rho), 0.3 * np.diag([1.0, -1.0]), atol=1e-15
    )


def test_generic_rhs_zero_rates_is_pure_hamiltonian():
    h = xy_hamiltonian(1.2, 0.3)
    model = LindbladModel(h0=h, channels=((np.kron(LOWER, np.eye(2)), 0.0, 0.0),))
    rng = np.random.default_rng(1)
    rho = new_density(random_density_matrix(rng))
    want = -1j * (h @ rho.elements - rho.elements @ h)
    np.testing.assert_allclose(rhs_generic(model, rho), want, atol=1e-15)


def test_generic_rhs_dimension_mismatch():
    model = LindbladModel(h0=np.zeros((2, 2), dtype=complex))
    with pytest.raises(DimensionMismatchError):
        rhs_generic(model, new_density(np.eye(4) / 4))


def test_generic_rhs_pumping_channel():
    # finite-temperature term: X+ rho X- pumps population upward
    model = LindbladModel(h0=np.zeros((2, 2), dtype=complex), channels=((LOWER, 0.0, 0.4),))
    rho = new_density(np.diag([1.0, 0.0]).astype(complex))
    np.testing.assert_allclose(
        rhs_generic(model, rho), 0.4 * np.diag([-1.0, 1.0]), atol=1e-15
    )


def test_generic_rhs_contracts_with_mixed_channels():
    rng = np.random.default_rng(8)
    h = xy_hamiltonian(0.9, 0.3)
    channels = (
        (np.kron(LOWER, np.eye(2)), 0.31, 0.07),
        (np.kron(np.eye(2), LOWER), 0.11, 0.19),
    )
    model = LindbladModel(h0=h, channels=channels)
    for _ in range(20):
        out = rhs_generic(model, new_density(random_density_matrix(rng)))
        assert abs(out.trace()) < 1e-12
        assert np.abs(out - out.conj().T).max() < 1e-12


class TestDampedXY:
    def test_doubly_excited_populations(self):
        gam = 0.37
        rho = new_density(np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex))
        out = rhs_damped_xy(ModelParams(1.0, 0.2, gam), rho)
        assert out[3, 3] == pytest.approx(-2 * gam)
        assert out[1, 1] == pytest.approx(gam)
        assert out[2, 2] == pytest.approx(gam)
        assert out[0, 0] == 0.0

    def test_bell_state_coherence_decay(self):
        gam = 0.04
        rho = xy_state(XYFamilyParams(0.5, 0.5 + 0.0j))
        out = rhs_damped_xy(ModelParams(1.0, 0.2, gam), rho)
        # rho22 = rho33 kills the coupling terms; only -gamma rho23 survives
        assert out[1, 2] == pytest.approx(-gam / 2)

    def test_pure_coupling_on_xy_state(self):
        g = 0.2
        rho = xy_state(XYFamilyParams(0.6, 0.3j))
        out = rhs_damped_xy(ModelParams(0.7, g, 0.0), rho)
        assert out[1, 1] == pytest.approx(-2 * g * 0.3)
        assert out[1, 2] == pytest.approx(1j * g * (2 * 0.6 - 1))

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            rhs_damped_xy(ModelParams(1.0, 0.2, 0.1), new_density(np.eye(2) / 2))

    @given(
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=2.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=150)
    def test_rhs_traceless_hermitian_and_consistent(self, omega, g, gam, seed):
        params = ModelParams(omega, g, gam)
        rho = new_density(random_density_matrix(np.random.default_rng(seed)))
        for out in (rhs_damped_xy(params, rho), rhs_generic(damped_xy_model(params), rho)):
            assert abs(out.trace()) < 1e-12
            assert np.abs(out - out.conj().T).max() < 1e-12
        assert rhs_consistency_check(params, rho) <= 1e-12

    def test_consistency_special_cases(self):
        rng = np.random.default_rng(2)
        rho = new_density(random_density_matrix(rng))
        assert rhs_consistency_check(ModelParams(1.0, 0.2, 0.0), rho) <= 1e-12
        assert rhs_consistency_check(ModelParams(0.0, 0.0, 0.7), rho) <= 1e-12


class TestIntegrate:
    def test_zero_rhs_constant_trajectory(self):
        rho = new_density(np.eye(4) / 4)
        traj = integrate(lambda r: np.zeros((4, 4), dtype=complex), rho, 1.0, 0.1)
        assert len(traj) == 11
        for mat in traj.elements:
            np.testing.assert_allclose(mat, rho.elements, atol=1e-15)

    def test_population_decay_matches_closed_form(self):
        gam = 0.25
        params = ModelParams(0.0, 0.0, gam)
        rho = new_density(np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex))
        traj = integrate(lambda r: rhs_damped_xy(params, r), rho, 1 / gam, 1e-2 / gam)
        got = traj.elements[-1][3, 3].real
        assert got == pytest.approx(np.exp(-2.0), abs=1e-8)

    def test_fourth_order_convergence(self):
        gam = 0.25
        params = ModelParams(0.0, 0.0, gam)
        rho = new_density(np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex))

        def endpoint_error(dt):
            traj = integrate(lambda r: rhs_damped_xy(params, r), rho, 1 / gam, dt)
            return abs(traj.elements[-1][3, 3].real - np.exp(-2.0))

        ratio = endpoint_error(1e-2 / gam) / endpoint_error(5e-3 / gam)
        assert 12.0 < ratio < 20.0

    def test_bell_diagonal_pattern_preserved(self):
        params = ModelParams(1.0, 0.2, 0.05)
        rho = werner_state(WernerParams(0.7, 0.1, 0.15, 0.05))
        traj = integrate(lambda r: rhs_damped_xy(params, r), rho, 5.0, 0.01)
        off_pattern = [(0, 1), (0, 2), (1, 3), (2, 3)]
        for mat in traj.elements:
            for i, j in off_pattern:
                assert abs(mat[i, j]) < 1e-10

    def test_positivity_along_trajectory(self):
        params = ModelParams(1.0, 0.2, 0.1)
        rho = xy_state(XYFamilyParams(0.6, 0.3j))
        traj = integrate(lambda r: rhs_damped_xy(params, r), rho, 10.0, 0.01)
        for mat in traj.elements:
            assert np.linalg.eigvalsh(mat).min() >= -1e-7

    def test_asymptotic_ground_state(self):
        gam = 0.5
        params = ModelParams(1.0, 0.2, gam)
        rng = np.random.default_rng(4)
        rho = new_density(random_density_matrix(rng))
        traj = integrate(lambda r: rhs_damped_xy(params, r), rho, 20 / gam, default_step(params))
        final = traj.elements[-1]
        np.testing.assert_allclose(final, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-3)

    def test_trace_drift_raises(self):
        rho = new_density(np.eye(4) / 4)
        grow = lambda r: np.eye(4, dtype=complex)  # trace rate 4, clearly not a Lindblad RHS
        with pytest.raises(StepSizeTooLargeError):
            integrate(grow, rho, 1.0, 1e-3)

    def test_bad_steps_rejected(self):
        rho = new_density(np.eye(4) / 4)
        with pytest.raises(DomainError):
            integrate(lambda r: np.zeros((4, 4)), rho, 1.0, 0.0)
        with pytest.raises(DomainError):
            integrate(lambda r: np.zeros((4, 4)), rho, -1.0, 0.1)

    def test_state_shape_must_match_model(self):
        model = damped_xy_model(ModelParams(1.0, 0.2, 0.01))
        with pytest.raises(DimensionMismatchError):
            integrate(model, new_density(np.eye(2) / 2), 0.1, 0.05)

    def test_state_shape_must_match_model_params(self):
        with pytest.raises(DimensionMismatchError):
            integrate(ModelParams(1.0, 0.2, 0.01), new_density(np.eye(2) / 2), 0.1, 0.05)

    def test_callable_rhs_must_return_the_state_shape(self):
        with pytest.raises(DimensionMismatchError):
            integrate(lambda r: np.zeros((4, 4)), new_density(np.eye(3) / 3), 0.1, 0.05)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_derivative_raises_without_warning(self, bad):
        rho = new_density(np.eye(4) / 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError):
                integrate(lambda r: np.full((4, 4), bad, dtype=complex), rho, 0.1, 0.05)

    def test_final_time_is_exact(self):
        rho = new_density(np.eye(4) / 4)
        traj = integrate(lambda r: np.zeros((4, 4), dtype=complex), rho, 0.25, 0.1)
        assert traj.times[-1] == pytest.approx(0.25, abs=1e-15)


def loop_time_grid(t_end, dt):
    """integrate's times and steps as a loop: the reference for _time_grid."""
    times, steps, t = [0.0], [], 0.0
    while t < t_end - 1e-12 * max(dt, t_end):
        step = min(dt, t_end - t)
        t += step
        times.append(t)
        steps.append(step)
    return times, steps


def _grid_cases():
    rng = np.random.default_rng(61)
    dts = 10.0 ** rng.uniform(-3, 0, 1500)
    yield from zip(dts * rng.uniform(0, 1000, 1500), dts)  # random
    yield from ((0.0, 0.1), (0.05, 0.1), (1e-300, 0.1), (0.1, 0.1))  # t_end = 0, t_end <= dt
    for k, dt in zip(rng.integers(1, 1000, 200), 10.0 ** rng.uniform(-3, 0, 200)):
        t_end = k * dt  # exact multiples, and the last step within the 1e-12 slack
        slack = 1e-12 * max(dt, t_end)
        yield from ((t_end, dt), (t_end + 0.5 * slack, dt), (t_end - 0.5 * slack, dt),
                    (t_end + 2.0 * slack, dt))
    yield from ((2.37, 0.01), (10.0, 0.01), (1.0, 0.1), (50.0, 0.01))


def test_time_grid_is_the_loop_bitwise():
    for t_end, dt in _grid_cases():
        times, n, last = entrate.lindblad._time_grid(t_end, dt)
        want_times, want_steps = loop_time_grid(t_end, dt)
        assert times.tobytes() == np.array(want_times).tobytes(), (t_end, dt)
        assert [dt] * n + [last] * (last is not None) == want_steps, (t_end, dt)


def kron_liouvillian(model):
    """Independent row-major L from vec(A X B) = (A kron B^T) vec(X)."""
    h = np.asarray(model.h0, dtype=complex)
    eye = np.eye(h.shape[0])
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for x_minus, k_rate, g_rate in model.channels:
        xm = np.asarray(x_minus, dtype=complex)
        xp = xm.conj().T
        for a, b, rate in ((xm, xp, k_rate), (xp, xm, g_rate)):
            ba = b @ a
            gen += 0.5 * rate * (2.0 * np.kron(a, b.T) - np.kron(ba, eye) - np.kron(eye, ba.T))
    return gen


def two_formula_rhs_stack(model, mats):
    """The generic right-hand side with damping and pumping written out as two
    dissipators: a bitwise reference for liouvillian."""
    h0 = model.h0
    out = -1j * (h0 @ mats - mats @ h0)
    for x_minus, k_rate, g_rate in model.channels:
        xm = np.asarray(x_minus, dtype=complex)
        xp = xm.conj().T
        if k_rate:
            pp = xp @ xm
            out += 0.5 * k_rate * (2.0 * xm @ mats @ xp - pp @ mats - mats @ pp)
        if g_rate:
            mm = xm @ xp
            out += 0.5 * g_rate * (2.0 * xp @ mats @ xm - mm @ mats - mats @ mm)
    return out


def random_model(rng, dim):
    """Random Hamiltonian plus two channels, each with damping and pumping."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    channels = tuple(
        ((rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / dim,
         rng.uniform(0.05, 0.3), rng.uniform(0.05, 0.3))
        for _ in range(2)
    )
    return LindbladModel(h0=(a + a.conj().T) / 4, channels=channels)


def rk4(model, rho0, t_end, dt):
    return integrate(lambda r: rhs_generic(model, r), rho0, t_end, dt)


class TestExactPropagation:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_liouvillian_matches_kron_form(self, dim):
        model = random_model(np.random.default_rng(dim), dim)
        np.testing.assert_allclose(liouvillian(model), kron_liouvillian(model), atol=1e-14)

    def test_liouvillian_is_the_two_formula_dissipator_bitwise(self):
        rng = np.random.default_rng(67)
        for k in range(300):
            dim = 2 + k % 3
            model = random_model(rng, dim)
            n = dim * dim
            basis = np.eye(n, dtype=complex).reshape(n, dim, dim)
            want = np.ascontiguousarray(two_formula_rhs_stack(model, basis).reshape(n, n).T)
            assert liouvillian(model).tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [2, 3, 4, "xy"])
    def test_matches_scipy_expm_and_rk4(self, dim):
        rng = np.random.default_rng(31)
        if dim == "xy":
            model, dim = damped_xy_model(ModelParams(1.0, 0.2, 0.05)), 4
        else:
            model = random_model(rng, dim)
        rho0 = new_density(random_density_matrix(rng, dim))
        traj = integrate(model, rho0, 2.37, 0.01)
        gen = kron_liouvillian(model)
        for k in (1, 100, len(traj) - 1):
            want = (expm(gen * traj.times[k]) @ rho0.elements.ravel()).reshape(dim, dim)
            np.testing.assert_allclose(traj.elements[k], want, rtol=0, atol=1e-12)
        ref = rk4(model, rho0, 2.37, 0.01)
        np.testing.assert_allclose(traj.elements, ref.elements, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("t_end", [2.37, 10.0])
    def test_times_identical_to_rk4(self, t_end):
        model = damped_xy_model(ModelParams(1.0, 0.2, 0.05))
        rho0 = new_density(np.eye(4) / 4)
        want = rk4(model, rho0, t_end, 0.01).times
        got = integrate(model, rho0, t_end, 0.01).times
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rho0", [
        xy_state(XYFamilyParams(0.6, 0.3j)),
        werner_state(WernerParams(0.7, 0.1, 0.15, 0.05)),
    ])
    def test_x_form_kept_exactly_and_trace_over_5000_steps(self, rho0):
        traj = integrate(damped_xy_model(ModelParams(1.0, 0.2, 0.05)), rho0, 50.0, 0.01)
        assert len(traj) == 5001
        assert (traj.elements[:, [0, 0, 1, 2], [1, 2, 3, 3]] == 0.0).all()
        trace = np.trace(traj.elements, axis1=1, axis2=2)
        assert np.abs(trace - 1.0).max() <= 1e-12

    def test_damped_xy_generator_is_its_liouvillian_bitwise(self):
        rng = np.random.default_rng(59)
        for omega, g, gamma in rng.uniform([-5, -5, 0], [5, 5, 5], size=(500, 3)):
            params = ModelParams(omega, g, gamma)
            want = liouvillian(damped_xy_model(params))
            assert entrate.lindblad._damped_xy_generator(params).tobytes() == want.tobytes()

    def test_model_params_propagate_as_the_damped_xy_model(self):
        params = ModelParams(0.7, -0.3, 0.08)
        rho0 = xy_state(XYFamilyParams(0.6, 0.1 + 0.3j))
        got = integrate(params, rho0, 2.37, 0.01)
        want = integrate(damped_xy_model(params), rho0, 2.37, 0.01)
        assert got.elements.tobytes() == want.elements.tobytes()
        assert got.times.tobytes() == want.times.tobytes()

    @pytest.mark.parametrize("rho0", [
        xy_state(XYFamilyParams(0.6, 0.3j)),
        werner_state(WernerParams(0.7, 0.1, 0.15, 0.05)),
    ])
    def test_doubling_matches_step_by_step_and_scipy_over_5000_steps(self, rho0):
        params = ModelParams(1.0, 0.2, 0.05)
        got = integrate(params, rho0, 50.0, 0.01).elements.reshape(-1, 16)
        gen = entrate.lindblad._damped_xy_generator(params)
        prop = entrate.lindblad._expm(gen * 0.01)
        vec = rho0.elements.reshape(16)
        want = [vec]
        for _ in range(5000):
            vec = prop @ vec
            want.append(vec)
        assert np.abs(got - np.array(want)).max() <= 1e-13
        exact = expm(kron_liouvillian(damped_xy_model(params)) * 50.0) @ rho0.elements.reshape(16)
        assert np.abs(got[-1] - exact).max() <= 1e-12

    def test_stored_states_are_exactly_hermitian(self):
        rho0 = werner_state(WernerParams(0.7, 0.1, 0.15, 0.05))
        mats = integrate(ModelParams(1.0, 0.2, 0.01), rho0, 10.0, 0.01).elements
        assert (mats == np.swapaxes(mats, 1, 2).conj()).all()

    @pytest.mark.parametrize("t_end,dt", [(10.0, 0.01), (2.37, 0.01), (0.0, 0.1), (1.0, 5.0)])
    def test_one_exponential_per_step_length(self, monkeypatch, t_end, dt):
        calls = []
        real = entrate.lindblad._expm
        monkeypatch.setattr(entrate.lindblad, "_expm", lambda a: calls.append(a) or real(a))
        model = damped_xy_model(ModelParams(1.0, 0.2, 0.05))
        integrate(model, new_density(np.eye(4) / 4), t_end, dt)
        assert len(calls) <= 2

    @pytest.mark.parametrize("g,gamma,dt", [(1e308, 0.01, 10.0), (1e308, 1e307, 1.0)])
    def test_overflowing_generator_raises(self, g, gamma, dt):
        model = damped_xy_model(ModelParams(1.0, g, gamma))
        with pytest.raises(NonFiniteError):
            integrate(model, new_density(np.eye(4) / 4), 2 * dt, dt)


class TestTrajectoryType:
    def test_times_must_increase(self):
        rho = np.eye(4) / 4
        with pytest.raises(DomainError):
            Trajectory(times=np.array([0.0, 0.0]), elements=(rho, rho))

    def test_trace_defect_rejected(self):
        bad = np.eye(4) / 3
        with pytest.raises(TraceNotOneError):
            Trajectory(times=np.array([0.0]), elements=(bad,))

    def test_trace_defect_names_first_bad_time(self):
        rho, bad = np.eye(4) / 4, np.eye(4) / 3
        with pytest.raises(TraceNotOneError, match=r"t=0\.5 "):
            Trajectory(times=np.array([0.0, 0.5, 1.0]), elements=(rho, np.nan * rho, bad))

    def test_lengths_must_match(self):
        rho = np.eye(4) / 4
        with pytest.raises(DimensionMismatchError):
            Trajectory(times=np.array([0.0, 1.0]), elements=(rho,))

    @pytest.mark.parametrize("shape", [(4, 4), (2, 4, 3), (2, 2, 2, 2)])
    def test_elements_must_be_a_square_stack(self, shape):
        with pytest.raises(DimensionMismatchError):
            Trajectory(times=np.arange(shape[0], dtype=float), elements=np.zeros(shape))

    def test_times_are_immutable(self):
        rho = np.eye(4) / 4
        traj = Trajectory(times=np.array([0.0, 1.0]), elements=(rho, rho))
        with pytest.raises(ValueError):
            traj.times[0] = 5.0
        with pytest.raises(ValueError):
            traj.elements[0, 0, 0] = 5.0


def test_default_step_scales_with_fastest_rate():
    assert default_step(ModelParams(1.0, 0.2, 0.01)) == pytest.approx(1e-2)
    assert default_step(ModelParams(4.0, 0.2, 0.01)) == pytest.approx(2.5e-3)
    assert default_step(ModelParams(0.1, 0.05, 0.0)) == pytest.approx(1e-2)
