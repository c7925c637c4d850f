"""Library inputs end in a result or an EntrateError.

Each kind of input has one rule in `qstate`: matrices (`_matrix`, after the
`_as_complex` or `_as_float` conversion), two-qubit states, Hermiticity,
integers and finite scalars.  These tests cover the holes each rule closed
and fuzz every name that `entrate` exports.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import entrate
import entrate.blochsun
import entrate.entanglement
from entrate import (
    BlochDecomposition,
    ConcurrenceResult,
    DensityMatrix,
    EffectiveHamiltonian,
    GeneratorBasis,
    KrausChannel,
    LindbladModel,
    MeasureGradient,
    ModelParams,
    RateBreakdown,
    Trajectory,
    WernerParams,
    XYFamilyParams,
    amplitude_damping,
    apply_channel,
    bell_diagonal_weights,
    binary_entropy,
    build_effective_hamiltonian,
    coefficient_rates,
    completeness_defect,
    compose,
    concurrence,
    concurrence_werner,
    criterion_threshold,
    criterion_threshold_value,
    damped_xy_model,
    decompose,
    default_step,
    eof,
    eof_gradient,
    eof_many,
    evolve_effective,
    gell_mann_basis,
    integrate,
    liouvillian,
    new_density,
    rate_bloch,
    rate_chain,
    rate_numeric,
    rate_werner,
    rate_x,
    rate_xy,
    rate_xy_value,
    recompose,
    rhs_consistency_check,
    rhs_damped_xy,
    rhs_generic,
    spin_flip,
    unchecked_density,
    werner_state,
    xy_hamiltonian,
    xy_state,
)
from entrate.errors import (
    DimensionMismatchError,
    DomainError,
    EntrateError,
    NonFiniteError,
    NonHermitianError,
    WeightError,
)

ENTANGLED = xy_state(XYFamilyParams(0.6, 0.3j))
MIXED_QUBIT = new_density(np.eye(2) / 2)
MIXED_PAIR = new_density(np.eye(4) / 4)
PARAMS = ModelParams(1.0, 0.2, 0.05)
TRAJECTORY = integrate(PARAMS, ENTANGLED, 0.05, 0.01)

MATRIX_ARGUMENT_CALLS = {
    "eof_many": eof_many,
    "rate_chain": lambda x: rate_chain(ENTANGLED, x),
    "coefficient_rates": lambda x: coefficient_rates(x, 2, 2),
}


@pytest.mark.parametrize("name", sorted(MATRIX_ARGUMENT_CALLS))
@pytest.mark.parametrize("arg", ["abc", [[0.25, 0.0], [0.0]], None],
                         ids=["string", "ragged", "none"])
def test_matrix_arguments_follow_the_one_conversion(name, arg):
    with pytest.raises(DomainError):
        MATRIX_ARGUMENT_CALLS[name](arg)


def test_eof_many_does_not_copy_a_complex_stack(monkeypatch):
    seen = []
    monkeypatch.setattr(entrate.entanglement, "_eof_and_min_eig",
                        lambda mats: (seen.append(mats), None))
    stack = np.tile(np.eye(4, dtype=complex) / 4, (3, 1, 1))
    eof_many(stack)
    assert seen[0] is stack


def test_coefficient_rates_does_not_copy_a_complex_rho_dot(monkeypatch):
    seen = []
    monkeypatch.setattr(entrate.blochsun, "_coefficients",
                        lambda mat, n, m: seen.append(mat))
    rho_dot = np.zeros((4, 4), dtype=complex)
    coefficient_rates(rho_dot, 2, 2)
    assert seen[0] is rho_dot


def test_coefficient_rates_refuses_a_non_finite_rho_dot():
    with pytest.raises(DomainError):
        coefficient_rates(np.full((4, 4), np.nan), 2, 2)


@pytest.mark.parametrize("grad, rates, error", [
    (None, None, DimensionMismatchError),
    ((np.zeros(3),), (np.zeros(3), np.zeros(3)), DimensionMismatchError),
    (([np.inf],), ([0.0],), DomainError),
    (([1e308],), ([1e308],), NonFiniteError),
], ids=["not-blocks", "unequal-counts", "non-finite", "overflow"])
def test_rate_bloch_blocks(grad, rates, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            rate_bloch(grad, rates)


REAL_ARRAY_CALLS = {
    "Trajectory times": lambda: Trajectory(times="ab", elements=np.tile(np.eye(2) / 2, (2, 1, 1))),
    "Trajectory complex times": lambda: Trajectory(times=[0.0, 1j],
                                                   elements=np.tile(np.eye(2) / 2, (2, 1, 1))),
    "rate_bloch": lambda: rate_bloch(("a",), ([1.0],)),
}


@pytest.mark.parametrize("name", sorted(REAL_ARRAY_CALLS))
def test_real_arrays_follow_the_one_conversion(name):
    with pytest.raises(DomainError):
        REAL_ARRAY_CALLS[name]()


@pytest.mark.parametrize("call", [
    lambda: gell_mann_basis(2.5),
    lambda: decompose(MIXED_PAIR, 2, 2.0),
    lambda: coefficient_rates(np.zeros((4, 4)), 2.0, 2),
    lambda: binary_entropy("x"),
    lambda: binary_entropy(0.5j),
], ids=["gell_mann_basis", "decompose", "coefficient_rates", "binary_entropy",
        "binary_entropy complex"])
def test_non_integer_sizes_and_non_real_entropy_arguments(call):
    with pytest.raises(DomainError):
        call()


def test_a_float_size_does_not_find_the_cached_basis():
    gell_mann_basis(2)
    with pytest.raises(DomainError):
        gell_mann_basis(2.0)


NEAR_LIMIT = np.array([[1e308, 1e308], [-1e308, 0.0]])  # h - h^dagger overflows


@pytest.mark.parametrize("call", [
    lambda: new_density(NEAR_LIMIT),
    lambda: LindbladModel(NEAR_LIMIT),
    lambda: evolve_effective(EffectiveHamiltonian(NEAR_LIMIT), MIXED_QUBIT, 0.2, 0.1),
], ids=["new_density", "LindbladModel", "evolve_effective"])
def test_hermiticity_defect_near_the_float_limit(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonHermitianError):
            call()


def test_hermitian_part_of_a_large_effective_hamiltonian_stays_finite():
    # (h + h^dagger) / 2 would overflow on the diagonal; the step then fails as a
    # numerical error, not as an infinite h0.
    h = EffectiveHamiltonian(np.diag([1e308, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EntrateError) as info:
            evolve_effective(h, MIXED_QUBIT, 0.2, 0.1)
    assert not isinstance(info.value, DomainError)


BIG = np.full((2, 2), 1e308)


def _mixed_stack(row, col, value):
    """Three maximally mixed two-qubit states with element (row, col) set to value."""
    stack = np.tile(np.eye(4, dtype=complex) / 4, (3, 1, 1))
    stack[:, row, col] = value
    return stack


HOLES = {
    "amplitude_damping string": (lambda: amplitude_damping("x"), WeightError),
    "amplitude_damping complex": (lambda: amplitude_damping(0.5j), WeightError),
    "build_effective_hamiltonian string weight":
        (lambda: build_effective_hamiltonian({(0, 0): np.eye(2)}, ["a"]), DomainError),
    "build_effective_hamiltonian scalar weights":
        (lambda: build_effective_hamiltonian({(0, 0): np.eye(2)}, 1.0), DomainError),
    "build_effective_hamiltonian integer key":
        (lambda: build_effective_hamiltonian({0: np.eye(2)}, [1.0]), DomainError),
    "build_effective_hamiltonian string key":
        (lambda: build_effective_hamiltonian({"ab": np.eye(2)}, [1.0]), DomainError),
    "build_effective_hamiltonian float index":
        (lambda: build_effective_hamiltonian({(0.5, 0): np.eye(2)}, [1.0]), DomainError),
    "build_effective_hamiltonian zero weight of an infinite block":
        (lambda: build_effective_hamiltonian({(0, 1): np.diag([np.inf, 0.0])}, [1.0, 0.0]),
         DomainError),
    "build_effective_hamiltonian overflowing sum":
        (lambda: build_effective_hamiltonian({(0, 0): BIG, (1, 0): BIG}, [1.0, 0.0]),
         DomainError),
    "rate_numeric float index": (lambda: rate_numeric(TRAJECTORY, 1.5), DomainError),
    "rate_numeric string index": (lambda: rate_numeric(TRAJECTORY, "a"), DomainError),
    "rate_xy_value": (lambda: rate_xy_value("a", 0.3j, 0.2, 0.01), DomainError),
    "criterion_threshold_value": (lambda: criterion_threshold_value("a", 0.3j), DomainError),
    "integrate t_end": (lambda: integrate(PARAMS, ENTANGLED, "a", 0.01), DomainError),
    "integrate dt": (lambda: integrate(PARAMS, ENTANGLED, 0.05, "a"), DomainError),
    "evolve_effective t_end": (lambda: evolve_effective(EffectiveHamiltonian(np.eye(2)),
                                                        MIXED_QUBIT, "a", 0.1), DomainError),
    "xy_hamiltonian": (lambda: xy_hamiltonian("a", 1), DomainError),
    "Trajectory NaN time":
        (lambda: Trajectory([0.0, np.nan], np.tile(np.eye(2) / 2, (2, 1, 1))), DomainError),
    "Trajectory infinite time":
        (lambda: Trajectory([0.0, np.inf], np.tile(np.eye(2) / 2, (2, 1, 1))), DomainError),
    "eof_many NaN coherence": (lambda: eof_many(_mixed_stack(0, 1, np.nan)), DomainError),
    "eof_many infinite coherence": (lambda: eof_many(_mixed_stack(0, 1, np.inf)), DomainError),
    "eof_many NaN population": (lambda: eof_many(_mixed_stack(1, 1, np.nan)), DomainError),
    "rate_numeric NaN coherence":
        (lambda: rate_numeric(Trajectory([0.0, 1.0, 2.0], _mixed_stack(0, 1, np.nan)), 1),
         DomainError),
    "rate_numeric infinite coherence":
        (lambda: rate_numeric(Trajectory([0.0, 1.0, 2.0], _mixed_stack(0, 1, np.inf)), 1),
         DomainError),
    "decompose negative sizes": (lambda: decompose(MIXED_PAIR, -2, -2), DomainError),
    "coefficient_rates negative sizes":
        (lambda: coefficient_rates(np.zeros((4, 4)), -2, -2), DomainError),
}


@pytest.mark.parametrize("name", sorted(HOLES))
def test_each_kind_of_input_has_one_rule(name):
    call, error = HOLES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call()


class TestBlochDecompositionRecord:
    BLOCKS = (np.zeros(3), np.zeros(3), np.zeros((3, 3)))

    def test_sizes_must_be_integers(self):
        with pytest.raises(DomainError):
            BlochDecomposition(2.0, 2, *self.BLOCKS)

    def test_a_non_finite_block_is_refused(self):
        gamma = np.zeros((3, 3))
        gamma[1, 2] = np.nan
        with pytest.raises(DomainError):
            BlochDecomposition(2, 2, np.zeros(3), np.zeros(3), gamma)

    @pytest.mark.parametrize("shapes", [((4,), (3,), (3, 3)), ((3,), (3,), (3,))])
    def test_blocks_must_match_the_sizes(self, shapes):
        with pytest.raises(DimensionMismatchError):
            BlochDecomposition(2, 2, *(np.zeros(shape) for shape in shapes))

    def test_holds_read_only_float_copies(self):
        alpha = np.zeros(3)
        d = BlochDecomposition(2, 2, alpha, [0, 0, 1], np.zeros((3, 3)))
        alpha[2] = 1.0
        assert not d.alpha.any()
        assert all(block.dtype == float and not block.flags.writeable
                   for block in (d.alpha, d.beta, d.gamma_ij))
        assert recompose(d).elements[0, 0] == 0.5


NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
NUMBERS = st.one_of(st.floats(-2.0, 2.0), NON_FINITE, st.complex_numbers(max_magnitude=2.0))
ARRAYS = st.one_of(
    arrays(st.sampled_from([float, complex]),
           st.sampled_from([(2, 2), (4, 4), (2, 4, 4)]) | array_shapes(min_dims=0, max_dims=3,
                                                                       min_side=0, max_side=5),
           elements=st.floats(-2.0, 2.0) | NON_FINITE),
    st.builds(lambda x: x + x.conj().T,  # Hermitian, so the deeper checks are reached
              arrays(complex, st.sampled_from([(2, 2), (4, 4)]),
                     elements=st.complex_numbers(max_magnitude=1.0))),
)
# Wrong shapes, nested and ragged lists, strings, None and non-finite values.
MATRICES = st.one_of(
    ARRAYS,
    ARRAYS.map(lambda x: x.tolist()),
    st.lists(st.lists(NUMBERS, max_size=4), max_size=4),
    st.text(max_size=3), st.none(), NUMBERS,
)
SCALARS = st.one_of(
    st.floats(-1.0, 1.0), NON_FINITE, st.complex_numbers(max_magnitude=1.0),
    st.text(max_size=3), st.none(), st.lists(NUMBERS, max_size=3), MATRICES,
)
CHANNELS = st.one_of(
    st.none(), st.text(max_size=3),
    st.lists(st.one_of(st.tuples(MATRICES, SCALARS, SCALARS),
                       st.tuples(arrays(complex, (2, 2), elements=st.floats(-2.0, 2.0)),
                                 st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                       st.tuples(MATRICES, SCALARS), MATRICES, SCALARS), max_size=2),
)
# Sizes of a subsystem: small integers (kept small, as each builds a basis) or anything else.
SIZES = st.one_of(st.integers(-2, 5), SCALARS)
BLOCKS = st.one_of(SCALARS, st.lists(MATRICES, max_size=3))
BLOCH_BLOCKS = st.one_of(arrays(float, st.sampled_from([(3,), (8,), (3, 3), (3, 8)]),
                                elements=st.floats(-1.0, 1.0) | NON_FINITE), MATRICES)
# Times and steps are moderate when valid (a tiny step would take millions of steps).
JUNK = st.one_of(NON_FINITE, st.complex_numbers(max_magnitude=1.0), st.text(max_size=3),
                 st.none(), st.lists(NUMBERS, max_size=3), MATRICES)
T_ENDS = st.floats(-0.5, 0.5) | JUNK
STEPS = st.floats(0.01, 0.5) | st.floats(-0.5, 0.0) | JUNK
INDICES = st.integers(-2, 5) | JUNK
WEIGHTS = st.sampled_from([[1.0], [0.5, 0.5], [1.0, 0.0]]) | st.lists(st.floats(0.0, 1.0),
                                                                       max_size=3) | SCALARS
H_T_KEYS = st.one_of(st.tuples(st.integers(-1, 2), st.integers(-1, 2)),
                     st.tuples(st.floats(-1.0, 2.0), st.integers(0, 1)), st.tuples(st.integers()),
                     st.integers(), st.text(max_size=2), st.none())
H_T = st.dictionaries(H_T_KEYS, MATRICES, max_size=3)

# Record arguments are valid records, so each call reaches its other arguments' checks.
PURE_X = new_density(np.outer([0.8, 0.0, 0.0, 0.6], [0.8, 0.0, 0.0, 0.6]))
STATES = st.sampled_from([ENTANGLED, MIXED_QUBIT, MIXED_PAIR, PURE_X, new_density(np.eye(6) / 6),
                          werner_state(WernerParams(0.7, 0.1, 0.1, 0.1))])
MODEL_PARAMS = st.builds(ModelParams, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
                         st.floats(0.0, 2.0))
MODELS = st.sampled_from([damped_xy_model(PARAMS),
                          LindbladModel(np.diag([0.5, -0.5]), (([[0, 1], [0, 0]], 0.1, 0.02),))])
RHS = st.one_of(MODEL_PARAMS, MODELS, MATRICES.map(lambda x: lambda rho: x))
WERNER = st.sampled_from([WernerParams(1.0, 0.0, 0.0, 0.0), WernerParams(0.7, 0.1, 0.1, 0.1),
                          WernerParams(0.25, 0.25, 0.25, 0.25)])
XY = st.sampled_from([XYFamilyParams(0.6, 0.3j), XYFamilyParams(0.5, 0.5),
                      XYFamilyParams(0.5, 0.0)])
TRAJECTORIES = st.sampled_from([TRAJECTORY, integrate(PARAMS, MIXED_PAIR, 0.02, 0.01),
                                Trajectory([0.0, 0.1, 0.2], np.tile(np.eye(2) / 2, (3, 1, 1)))])
KRAUS = st.sampled_from([amplitude_damping(0.3), KrausChannel([np.eye(2), np.eye(2)]),
                         KrausChannel([np.kron(a, b) for a in amplitude_damping(0.3).operators
                                       for b in amplitude_damping(0.6).operators])])
EFFECTIVE = st.sampled_from([EffectiveHamiltonian(np.diag([1.0, -1.0])),
                             EffectiveHamiltonian([[0.0, 1.0], [0.0, 0.0]])])
DECOMPOSITIONS = st.sampled_from([decompose(MIXED_PAIR, 2, 2), decompose(ENTANGLED, 2, 2),
                                  decompose(new_density(np.eye(6) / 6), 2, 3)])

# Each name: the call, then the strategy of each argument.
FUZZED = {
    "new_density": (new_density, MATRICES),
    "unchecked_density": (unchecked_density, MATRICES),
    "LindbladModel": (lambda h0, ch: liouvillian(LindbladModel(h0, ch)), MATRICES, CHANNELS),
    "LindbladModel channels": (lambda ch: liouvillian(LindbladModel(np.zeros((2, 2)), ch)),
                               CHANNELS),
    "EffectiveHamiltonian": (EffectiveHamiltonian, MATRICES),
    "evolve_effective": (lambda h: evolve_effective(EffectiveHamiltonian(h), MIXED_QUBIT,
                                                    0.2, 0.1), MATRICES),
    "eof_many": (eof_many, MATRICES),
    "rate_chain": (MATRIX_ARGUMENT_CALLS["rate_chain"], MATRICES),
    "coefficient_rates": (MATRIX_ARGUMENT_CALLS["coefficient_rates"], MATRICES),
    "Trajectory": (Trajectory, SCALARS, MATRICES),
    "rate_bloch": (rate_bloch, BLOCKS, BLOCKS),
    "gell_mann_basis": (gell_mann_basis, SIZES),
    "decompose": (lambda n, m: decompose(MIXED_PAIR, n, m), SIZES, SIZES),
    "binary_entropy": (binary_entropy, SCALARS),
    "ModelParams": (ModelParams, SCALARS, SCALARS, SCALARS),
    "WernerParams": (WernerParams, SCALARS, SCALARS, SCALARS, SCALARS),
    "XYFamilyParams": (XYFamilyParams, SCALARS, SCALARS),
    "BlochDecomposition": (BlochDecomposition, SIZES, SIZES, BLOCH_BLOCKS, BLOCH_BLOCKS,
                           BLOCH_BLOCKS),
    "GeneratorBasis": (GeneratorBasis, SCALARS, MATRICES),
    "recompose": (recompose, DECOMPOSITIONS),
    "ConcurrenceResult": (ConcurrenceResult, SCALARS, MATRICES),
    "MeasureGradient": (MeasureGradient, MATRICES, MATRICES),
    "concurrence": (concurrence, STATES),
    "concurrence_werner": (concurrence_werner, WERNER),
    "eof": (eof, STATES),
    "eof_gradient": (eof_gradient, STATES),
    "spin_flip": (spin_flip, STATES),
    "KrausChannel": (KrausChannel, MATRICES | st.lists(MATRICES, max_size=3)),
    "amplitude_damping": (amplitude_damping, SCALARS),
    "apply_channel": (apply_channel, KRAUS, STATES),
    "build_effective_hamiltonian": (build_effective_hamiltonian, H_T, WEIGHTS),
    "completeness_defect": (completeness_defect, KRAUS),
    "compose": (compose, KRAUS, KRAUS),
    "evolve_effective times": (evolve_effective, EFFECTIVE, STATES, T_ENDS, STEPS),
    "damped_xy_model": (damped_xy_model, MODEL_PARAMS),
    "default_step": (default_step, MODEL_PARAMS),
    "integrate": (integrate, RHS, STATES, T_ENDS, STEPS),
    "liouvillian": (liouvillian, MODELS),
    "rhs_consistency_check": (rhs_consistency_check, MODEL_PARAMS, STATES),
    "rhs_damped_xy": (rhs_damped_xy, MODEL_PARAMS, STATES),
    "rhs_generic": (rhs_generic, MODELS, STATES),
    "xy_hamiltonian": (xy_hamiltonian, SCALARS, SCALARS),
    "DensityMatrix": (DensityMatrix, SCALARS, MATRICES),
    "bell_diagonal_weights": (bell_diagonal_weights, STATES),
    "werner_state": (werner_state, WERNER),
    "xy_state": (xy_state, XY),
    "RateBreakdown": (RateBreakdown, SCALARS, SCALARS),
    "criterion_threshold": (criterion_threshold, XY),
    "criterion_threshold_value": (criterion_threshold_value, SCALARS, SCALARS),
    "rate_chain states": (rate_chain, STATES, MATRICES),
    "rate_numeric": (rate_numeric, TRAJECTORIES, INDICES),
    "rate_werner": (rate_werner, WERNER, MODEL_PARAMS),
    "rate_x": (rate_x, STATES, MATRICES),
    "rate_xy": (rate_xy, XY, MODEL_PARAMS),
    "rate_xy_value": (rate_xy_value, SCALARS, SCALARS, SCALARS, SCALARS),
}


def test_the_fuzz_covers_every_exported_name():
    # xy_positivity is an array kernel that passes NaN through as a mask.
    exported = {name for name, obj in vars(entrate).items()
                if callable(obj) and not name.startswith("_")}
    assert exported - {name.split()[0] for name in FUZZED} == {"xy_positivity"}


@pytest.mark.parametrize("name", FUZZED)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_inputs_end_in_a_result_or_an_entrate_error(name, data):
    call, *strategies = FUZZED[name]
    args = [data.draw(strategy) for strategy in strategies]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(*args)
        except EntrateError:
            pass
