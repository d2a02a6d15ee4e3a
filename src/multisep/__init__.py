"""Multipartite separability criteria, entanglement measures, and their
applications: many-body gap witnesses, secret-sharing verification, and
Bell bounds for unstable systems."""

from .errors import DomainError, ResourceError
from .tensor import (
    DensityMatrix,
    StateVector,
    SystemShape,
    apply_local_unitaries,
    flip_all,
    hermitian_spectrum,
    kron_all,
    load_density_matrix,
    matrix_element,
    partial_trace,
    partial_transpose,
    permute_systems,
    qubits,
    qudits,
    save_density_matrix,
    vec_to_dm,
)
from .partitions import (
    Partition,
    bell_number,
    iter_bipartitions,
    iter_k_partitions,
    stirling2,
    unique_k_partitions,
)
from .states import (
    ElementProvider,
    MixtureProvider,
    StateSpec,
    as_provider,
    basis_product_state,
    bell_state,
    dicke_state,
    family_state,
    ghz_state,
    make_state,
    maximally_mixed,
    mix_white_noise,
    smolin_state,
    w_state,
)
from .criteria import (
    CriterionReport,
    ProbePair,
    best_computational_probe,
    dicke_gme_value,
    double_class_value,
    fidelity_witness_value,
    gme_value,
    bipartite_value,
    ksep_value,
    mlinear_value,
    ntuple_class_value,
    ppt_check,
    q0_value,
    qm_value,
    rank_m_determinant,
)
from .measures import MeasureResult, cgme_lower_bound, cgme_pure, schmidt_rank
from .manybody import (
    GapReport,
    HeisenbergParams,
    Lattice,
    SpinHamiltonian,
    entanglement_gaps,
    gap_witness_detects,
    ground_state_dm,
    ground_vector,
    heisenberg_hamiltonian,
    min_ksep_energy,
    partition_function,
    thermal_energy,
    thermal_state,
)
from .applications import (
    CvThresholds,
    ErrorBudget,
    QssRound,
    QssSimulator,
    cv_detection_thresholds,
    element_from_expectations,
    error_bound,
    pauli_expansion,
    pauli_expectations,
    pauli_string_matrix,
    qss_round,
    qss_table,
    qss_verification_value,
    required_pauli_strings,
)
from .unstable import (
    ChshBounds,
    EffectiveOpParams,
    bell_operator,
    bloch_vector,
    chsh_bound,
    effective_operator,
    singlet_value,
)

__version__ = "0.1.0"
