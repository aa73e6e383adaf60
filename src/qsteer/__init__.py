"""Trace-norm steering detection and monogamy analysis for three-qubit states."""

from .monogamy import (
    CriticalPoint,
    MinimizeConfig,
    MinimizeResult,
    VerifyConfig,
    VerifyReport,
    boundary_f,
    f_components,
    f_pipeline,
    fgwv,
    minimize_f,
    schmidt_f_batch,
    sign_region,
    verify_monogamy,
)
from .pauli import density_from_theta, pauli_tensor, pauli_tensor_pair, purity_from_theta
from .randgen import (
    RandomStateSpec,
    random_eigenvalues,
    random_hermitian,
    random_state,
    random_state_batch,
    random_states,
)
from .states import (
    SchmidtParams,
    StateDiagnostics,
    density_from_pure,
    ghz_state,
    partial_trace,
    permute_qubits,
    purity,
    purity_deficit,
    schmidt_state,
    state_from_payload,
    state_to_payload,
    validate_state,
    w_state,
)
from .steering import (
    SteeringReport,
    correlation_one_to_two,
    correlation_pair,
    correlation_two_to_one,
    h_one_to_two,
    h_pair,
    h_two_to_one,
    steering_batch,
    steering_report,
    steering_value,
    trace_norm,
)

__version__ = "0.1.0"
