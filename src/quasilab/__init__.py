"""Numerical laboratory for preparations beyond the quantum state space.

Unit-trace Hermitian operators with negative eigenvalues break the rule
that two incompatible measurements cannot both be certain. This package
builds such preparations and verifies, by direct computation, what they
buy: bipartite boxes beating the quantum CHSH maximum while staying
non-signalling, perfect discrimination of non-orthogonal quantum states,
and deterministic cloning, for qubits and d-level systems alike.
"""

from .operators import (
    ATOL,
    I2,
    PAULI,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Eigensystem,
    QuasiState,
    expectation,
    expectation_batch,
    hermitian_eigensystem,
    hermitian_eigensystem_batch,
    is_hermitian,
    kron,
    kron_batch,
    partial_trace,
)
from .bloch import (
    InvalidDirectionError,
    PcCheck,
    PredictabilityCircle,
    as_bloch_vector,
    as_bloch_vectors,
    as_direction,
    as_directions,
    from_operator,
    outcome_probability,
    outcome_probability_batch,
    pc_check,
    pc_check_batch,
    predictability_circle,
    predictability_circle_batch,
    projector_for_direction,
    random_bloch_vector,
    random_direction,
    to_operator,
    to_operator_batch,
    transverse_frame,
    transverse_frame_batch,
)
from .nonlocal_box import (
    BipartiteBox,
    ChshSettings,
    JointDistribution,
    TSIRELSON_SETTINGS,
    basis_to_computational,
    bell_operator,
    build_box,
    build_box_batch,
    chsh_settings_for,
    chsh_value,
    closed_form_box,
    joint_distribution,
    observable,
    rotated_cnot,
    setting_tables,
    signalling_deviation,
)
from .discrimination import (
    DiscriminationPovm,
    HyperplanePair,
    clonability_check,
    clonability_check_batch,
    clone_protocol,
    clone_protocol_batch,
    discriminate,
    discriminate_batch,
    discrimination_povm,
    discrimination_povm_batch,
    hyperplane_pair,
    hyperplane_pair_batch,
    overlap,
    overlap_batch,
)
from .highdim import (
    CERTAIN,
    NULL,
    ProbeState,
    ViolatingState,
    build_probe_state,
    build_violating_state,
    detection_probability,
    discriminate_highdim,
    entangled_projector,
    probe_magnitudes,
    violates_pc,
)
from .reporting import CheckResult, RunReport, emit_report, parse_report

__version__ = "0.1.0"
