"""Permutation-based time and amplitude irreversibility analysis."""

from .errors import (
    DataError,
    DegenerateSeries,
    DivergedOrbit,
    DomainError,
    EmptyFile,
    EmptyInput,
    InvalidParams,
    InvalidPattern,
    IrrevError,
    LengthMismatch,
    NonFiniteSample,
    NumericError,
    ParseError,
    SeriesTooShort,
    TiedPatternUnsupported,
)
from .measures import (
    KIND_AIR,
    KIND_TIR,
    IrreversibilityReport,
    PairContribution,
    PatternHistogram,
    build_histogram,
    measure,
    sweep,
    ys_divergence,
)
from .models import ModelSpec, generate, paper_length
from .ordinal import (
    SCHEME_EQUAL_VALUE,
    SCHEME_ORIGINAL,
    EmbeddingConfig,
    Pattern,
    amplitude_reverse,
    canonical_representative,
    extract_pattern,
    is_self_symmetric,
    pattern_from_string,
    pattern_to_string,
    time_reverse_tie_free,
)
from .surrogates import (
    IaaftDiagnostics,
    IaaftParams,
    SurrogateVerdict,
    iaaft,
    percentile_band,
    percentile_nearest_rank,
    significance_test,
    significance_tests,
)

__version__ = "0.1.0"
