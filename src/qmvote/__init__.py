"""Vote-based error mitigation for quantum algorithms with a single
correct output: qubit-wise majority vote and its maximum-likelihood
relatives, a seeded bit-flip noise simulator, shot-budget bounds, and
adaptive measurement subsetting."""

__version__ = "0.1.0"

from .ams import AmsPlan, adaptive_vote, ams_execute, ams_plan, merge_votes
from .budget import (
    m3_shot_requirement,
    per_qubit_target_bound,
    qmv_error_bound,
    required_shots,
    shot_error_probability_exact,
)
from .core import (
    CountsTable,
    VoteTally,
    complement,
    hamming_distance,
    tally,
    validate_bitstring,
)
from .countsfile import load_counts, parse_counts, serialize_counts, write_counts
from .errors import (
    CountsFormatError,
    DimensionError,
    InfeasibleError,
    InvalidRegimeError,
    MitigationError,
    ValidationError,
)
from .estimators import (
    AntipodalPair,
    Estimate,
    Prior,
    map_estimate,
    ml_bruteforce,
    mode_estimate,
    qmv,
    sliding_window_antipodal,
    weighted_vote,
)
from .experiment import ExperimentConfig, Report, ground_truth_pattern, run_experiment
from .noise import (
    NoiseModel,
    derive_seed,
    simulate_antipodal_shots,
    simulate_shots,
)

__all__ = [
    "AmsPlan",
    "AntipodalPair",
    "CountsFormatError",
    "CountsTable",
    "DimensionError",
    "Estimate",
    "ExperimentConfig",
    "InfeasibleError",
    "InvalidRegimeError",
    "MitigationError",
    "NoiseModel",
    "Prior",
    "Report",
    "ValidationError",
    "VoteTally",
    "adaptive_vote",
    "ams_execute",
    "ams_plan",
    "complement",
    "derive_seed",
    "ground_truth_pattern",
    "hamming_distance",
    "load_counts",
    "m3_shot_requirement",
    "map_estimate",
    "merge_votes",
    "ml_bruteforce",
    "mode_estimate",
    "parse_counts",
    "per_qubit_target_bound",
    "qmv",
    "qmv_error_bound",
    "required_shots",
    "run_experiment",
    "serialize_counts",
    "shot_error_probability_exact",
    "simulate_antipodal_shots",
    "simulate_shots",
    "sliding_window_antipodal",
    "tally",
    "validate_bitstring",
    "weighted_vote",
    "write_counts",
]
