"""Two-qubit decoherence dynamics and entanglement-rate analysis."""

from .blochsun import (
    BlochDecomposition,
    GeneratorBasis,
    coefficient_rates,
    decompose,
    gell_mann_basis,
    rate_bloch,
    recompose,
)
from .entanglement import (
    ConcurrenceResult,
    MeasureGradient,
    binary_entropy,
    concurrence,
    concurrence_werner,
    eof,
    eof_gradient,
    eof_many,
    spin_flip,
)
from .kraus import (
    EffectiveHamiltonian,
    KrausChannel,
    amplitude_damping,
    apply_channel,
    build_effective_hamiltonian,
    completeness_defect,
    compose,
    evolve_effective,
)
from .lindblad import (
    LindbladModel,
    ModelParams,
    Trajectory,
    damped_xy_model,
    default_step,
    integrate,
    liouvillian,
    rhs_consistency_check,
    rhs_damped_xy,
    rhs_generic,
    xy_hamiltonian,
)
from .qstate import (
    DensityMatrix,
    WernerParams,
    XYFamilyParams,
    bell_diagonal_weights,
    new_density,
    unchecked_density,
    werner_state,
    xy_positivity,
    xy_state,
)
from .rate import (
    RateBreakdown,
    criterion_threshold,
    criterion_threshold_value,
    rate_chain,
    rate_numeric,
    rate_werner,
    rate_x,
    rate_xy,
    rate_xy_value,
)

__version__ = "0.1.0"
