"""Vector linear index codes for cyclic interference with known neighbors.

Builds adjacent-independent-row generator matrices, searches achievable
rate pairs, derives low-complexity decode plans, and verifies per-receiver
decodability over small prime fields.
"""
from .air import (
    AirMatrix,
    LambdaChain,
    all_windows_full_rank,
    build_air,
    euclid_chain,
    format_matrix,
    locate,
    parse_matrix,
    partitions,
)
from .codec import (
    DecodePlan,
    NotAchievablePair,
    NotDecodable,
    OracleDecoder,
    complexity_stats,
    decode_plan,
    encode,
    encoding_matrix,
    format_plan,
    lemma1_failures,
    predicted_side_counts,
    symbolic_codes,
    verify_lemma1,
)
from .distances import (
    DistanceProfile,
    NoRightNeighbor,
    down_distance,
    right_distance,
    tau_profile,
    up_distance,
)
from .rates import (
    RatePair,
    SniProblem,
    canonical_pair,
    in_S,
    make_pair,
    monotonicity_check,
    rate_gap,
    search_best_pair,
)
from .sim import SimConfig, SimReport, run

__version__ = "0.1.0"

__all__ = [
    "AirMatrix",
    "LambdaChain",
    "all_windows_full_rank",
    "build_air",
    "euclid_chain",
    "format_matrix",
    "locate",
    "parse_matrix",
    "partitions",
    "DecodePlan",
    "NotAchievablePair",
    "NotDecodable",
    "OracleDecoder",
    "complexity_stats",
    "decode_plan",
    "encode",
    "encoding_matrix",
    "format_plan",
    "lemma1_failures",
    "predicted_side_counts",
    "symbolic_codes",
    "verify_lemma1",
    "DistanceProfile",
    "NoRightNeighbor",
    "down_distance",
    "right_distance",
    "tau_profile",
    "up_distance",
    "RatePair",
    "SniProblem",
    "canonical_pair",
    "in_S",
    "make_pair",
    "monotonicity_check",
    "rate_gap",
    "search_best_pair",
    "SimConfig",
    "SimReport",
    "run",
    "__version__",
]
