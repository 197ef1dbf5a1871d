"""State evolution on weighted digraphs, three ways.

The same picture (a square matrix pushing a column vector forward one
time click) is run under three rule sets: 0/1 matrices moving integer
counts, doubly stochastic matrices moving probabilities, and unitary
matrices moving complex amplitudes.  On top of that sit measurement
with collapse sampling, a qubit/gate/circuit layer, and the one-query
constant-versus-balanced decision circuit.
"""

from .algebra import (
    adjoint,
    bool_mat_mul,
    kron,
    mat_mul,
    mat_vec,
    modulus_squared,
    norm,
    validate,
)
from .deutsch import (
    BINARY_FUNCTIONS,
    BinaryFunction,
    first_attempt,
    oracle_matrix,
    run_deutsch,
    second_attempt,
)
from .dynamics import (
    RegimeSystem,
    compose_parallel,
    compose_sequential,
    evolve,
    state_tensor,
    step,
)
from .experiments import (
    SCENARIO_NAMES,
    run_scenario,
    scenario,
)
from .gates import (
    Circuit,
    Gate,
    apply,
    circuit_matrix,
    ket_of_bits,
    parallel,
    sequential,
    standard_gate,
)
from .measurement import (
    basis_distribution,
    collapse,
    is_product_state,
    random_source,
    sample_counts,
    spectral_decompose,
)

__version__ = "0.1.0"

__all__ = [
    "BINARY_FUNCTIONS",
    "SCENARIO_NAMES",
    "BinaryFunction",
    "Circuit",
    "Gate",
    "RegimeSystem",
    "adjoint",
    "apply",
    "basis_distribution",
    "bool_mat_mul",
    "circuit_matrix",
    "collapse",
    "compose_parallel",
    "compose_sequential",
    "evolve",
    "first_attempt",
    "is_product_state",
    "ket_of_bits",
    "kron",
    "mat_mul",
    "mat_vec",
    "modulus_squared",
    "norm",
    "oracle_matrix",
    "parallel",
    "random_source",
    "run_deutsch",
    "run_scenario",
    "sample_counts",
    "scenario",
    "second_attempt",
    "sequential",
    "spectral_decompose",
    "standard_gate",
    "state_tensor",
    "step",
    "validate",
]
