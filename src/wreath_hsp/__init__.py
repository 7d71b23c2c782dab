"""Simulator and solver for the hidden subgroup problem on W_n = (Z2^n x Z2^n) : Z2."""

from .errors import CapacityError
from .wreath import (
    GroupElement,
    all_elements,
    element_from_pairing_vector,
    group_order,
    pairing,
    pairing_vector_table,
)
from .f2 import dot, kernel_basis, rank, rref, span_contains
from .subgroups import (
    HiddenFunction,
    Subgroup,
    build_hidden_function,
    canonical_factorization,
    closure_of,
    conjugate_by_swap,
    enumerate_subgroups,
    generate,
    generating_set,
    intersect,
    intersect_base_group,
    is_balanced,
    perp_bruteforce,
    perp_linear,
    product_set,
    random_subgroup,
)
from .simulator import (
    Circuit,
    Gate,
    StateVector,
    basis_state,
    circuit_to_matrix,
    measure,
    run_circuit,
    zero_state,
)
from .qft import (
    QftBundle,
    gate_count_report,
    qft_circuit,
    qft_matrix_block,
    qft_matrix_entrywise,
    qft_matrix_exact,
)
from .solver import (
    CosetSampler,
    PromiseViolationError,
    SampleRecord,
    SolveReport,
    SolverParams,
    SuccessStats,
    abelian_hsp,
    find_involution,
    solve,
    solve_base_group,
    success_experiment,
)

__version__ = "0.1.0"
