"""Library inputs end in a result or an EntrateError.

Covers the names that convert matrix input (one rule, `qstate._as_complex`)
and the scalar parameter records.
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
    WernerParams,
    XYFamilyParams,
    coefficient_rates,
    eof_many,
    evolve_effective,
    liouvillian,
    new_density,
    rate_chain,
    unchecked_density,
    xy_state,
)
from entrate.errors import DomainError, EntrateError

ENTANGLED = xy_state(XYFamilyParams(0.6, 0.3j))
MIXED_QUBIT = new_density(np.eye(2) / 2)

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
