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
    hermitian_eigensystem,
    kron,
    partial_trace,
)
from .bloch import (
    InvalidDirectionError,
    PcCheck,
    PredictabilityCircle,
    as_bloch_vectors,
    as_directions,
    from_operator,
    outcome_probability,
    pc_check,
    predictability_circle,
    random_bloch_vector,
    to_operator,
    transverse_frame,
)
from .nonlocal_box import (
    BipartiteBox,
    ChshSettings,
    JointDistribution,
    TSIRELSON_SETTINGS,
    basis_to_computational,
    bell_operator,
    build_box,
    chsh_experiment,
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
    clone_protocol,
    discriminate,
    discrimination_experiment,
    discrimination_povm,
    hyperplane_pair,
    overlap,
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
    probe_experiment,
    probe_magnitudes,
    violates_pc,
)
from .reporting import CheckResult, RunReport, emit_report, parse_report

__version__ = "0.1.0"
