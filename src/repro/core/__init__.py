"""Core of the reproduction: the SOGRE dual-level graph reordering algorithm."""

from .bitmatrix import BitMatrix, min_uint_dtype
from .hamming import (
    cumulative_hamming_distance,
    gray_code,
    hamming_distance,
    hamming_distance_order,
    inverse_gray_code,
    position_code,
    position_codes,
)
from .patterns import DEFAULT_K, NMPattern, VNMPattern, parse_pattern
from .permutation import Permutation
from .reorder import ReorderResult, reorder, reorder_graph_matrix
from .autoselect import (
    DEFAULT_M_CANDIDATES,
    DEFAULT_V_CANDIDATES,
    PatternSearchResult,
    find_best_pattern,
    reordering_succeeds,
)
from .predictor import (
    FEATURE_NAMES,
    PatternPredictor,
    pattern_features,
    train_pattern_predictor,
)
from .scores import (
    conformity_report,
    improvement_rate,
    mbscore,
    pscore_per_segment,
    total_pscore,
)
from .stage1 import Stage1Result, encode_rows, lexicographic_row_order, stage1_reorder
from .stage2 import Stage2Result, plan_swaps, stage2_reorder

__all__ = [
    "BitMatrix",
    "min_uint_dtype",
    "gray_code",
    "inverse_gray_code",
    "hamming_distance",
    "hamming_distance_order",
    "cumulative_hamming_distance",
    "position_code",
    "position_codes",
    "NMPattern",
    "VNMPattern",
    "DEFAULT_K",
    "parse_pattern",
    "Permutation",
    "ReorderResult",
    "reorder",
    "reorder_graph_matrix",
    "PatternSearchResult",
    "find_best_pattern",
    "reordering_succeeds",
    "DEFAULT_M_CANDIDATES",
    "DEFAULT_V_CANDIDATES",
    "conformity_report",
    "improvement_rate",
    "mbscore",
    "pscore_per_segment",
    "total_pscore",
    "Stage1Result",
    "encode_rows",
    "lexicographic_row_order",
    "stage1_reorder",
    "Stage2Result",
    "plan_swaps",
    "stage2_reorder",
    "FEATURE_NAMES",
    "PatternPredictor",
    "pattern_features",
    "train_pattern_predictor",
]
