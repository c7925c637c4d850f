"""Library inputs end in a result or an EntrateError.

Covers the names that convert matrix input (one rule, `qstate._as_complex`),
real array input (`qstate._as_float`) and integer sizes, the Hermiticity
checks near the float limit, and the scalar parameter records.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import entrate.entanglement
from entrate import (
    EffectiveHamiltonian,
    LindbladModel,
    ModelParams,
    Trajectory,
    WernerParams,
    XYFamilyParams,
    binary_entropy,
    coefficient_rates,
    decompose,
    eof_many,
    evolve_effective,
    gell_mann_basis,
    liouvillian,
    new_density,
    rate_bloch,
    rate_chain,
    unchecked_density,
    xy_state,
)
from entrate.errors import (
    DimensionMismatchError,
    DomainError,
    EntrateError,
    NonFiniteError,
    NonHermitianError,
)

ENTANGLED = xy_state(XYFamilyParams(0.6, 0.3j))
MIXED_QUBIT = new_density(np.eye(2) / 2)
MIXED_PAIR = new_density(np.eye(4) / 4)

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
    monkeypatch.setattr(entrate.entanglement, "_eof_and_spectra",
                        lambda mats: (seen.append(mats), None))
    stack = np.tile(np.eye(4, dtype=complex) / 4, (3, 1, 1))
    eof_many(stack)
    assert seen[0] is stack


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
}


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
