"""Desk-scale simulator and verifier for the single-step history-state
quantum advantage protocol on ZZ lattices."""

from .lattice import InputSpec, InputType, LatticeGeometry, build_lattice, random_input
from .prover import (
    HistoryStateModel,
    NoiseModel,
    echo_prepare,
    exact_model_parameters,
    ideal_history_state,
    make_degraded_model,
    make_honest_model,
)
from .simulator import (
    Distribution,
    PureState,
    product_state,
    walsh_hadamard,
)
from .verifier import (
    Counters,
    EstimatorReport,
    ProtocolConfig,
    ProtocolTranscript,
    decide,
    run_protocol,
)

__version__ = "0.1.0"

__all__ = [
    "Counters",
    "Distribution",
    "EstimatorReport",
    "HistoryStateModel",
    "InputSpec",
    "InputType",
    "LatticeGeometry",
    "NoiseModel",
    "ProtocolConfig",
    "ProtocolTranscript",
    "PureState",
    "build_lattice",
    "decide",
    "echo_prepare",
    "exact_model_parameters",
    "ideal_history_state",
    "make_degraded_model",
    "make_honest_model",
    "product_state",
    "random_input",
    "run_protocol",
    "walsh_hadamard",
]
