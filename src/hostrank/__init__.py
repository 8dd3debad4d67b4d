"""hostrank: multi-criteria evaluation and screening of candidate host cities.

Library layout
--------------
indicators
    Indicator hierarchy, decision-matrix container, ingestion.
ahp
    Pairwise-judgment weighting with the consistency gate.
entropy
    Positive-direction normalization and entropy weights.
combining
    Ordered-ratio weight combination, total weights, feature group,
    and the weighted evaluation score.
grey
    Grey forecasting for short positive time series.
selection
    Candidate screening, climate gate, suitability ranking, scheme
    comparison, SWOT records.
sensitivity
    Feature-substitution trials and response-surface analysis.
pipeline
    The end-to-end weighting chain.
cli
    Batch front end (``hostrank`` entry point).
"""

__version__ = "0.1.0"

from .ahp import (
    ConsistencyReport,
    JudgmentMatrix,
    ahp_weights,
    consistency,
    principal_eigen,
    validate_judgment,
)
from .combining import (
    CombinedWeights,
    FeatureSelection,
    TotalWeights,
    dispersion,
    evaluate_chi,
    importance_ratios,
    order_weights,
    select_features,
    total_weights,
    weighted_score,
)
from .entropy import (
    EntropyResult,
    entropy_weights,
    interval_normalize,
    vector_normalize,
)
from .errors import ConfigError, NumericError, ValidationError
from .grey import GreyModel, TimeSeries, fit_gm11, forecast_indicator
from .indicators import (
    Category,
    DecisionMatrix,
    IndicatorHierarchy,
    IndicatorId,
    IndicatorSpec,
    Polarity,
    default_hierarchy,
    load_decision_matrix,
)
from .pipeline import WeightingOutputs, compute_weights, evaluate_alternatives
from .selection import (
    CityProfile,
    ClimateRequirement,
    ImpactScale,
    SchemePlan,
    SuitabilityScore,
    SwotRecord,
    compare_schemes,
    rank_cities,
    screen_candidates,
    swot_report,
    winter_climate_filter,
)
from .sensitivity import (
    PerturbationConfig,
    QuadraticSurface,
    SensitivityReport,
    factor_substitution,
    fit_response_surface,
    surface_extrema,
)

__all__ = [
    "__version__",
    # errors
    "ConfigError",
    "NumericError",
    "ValidationError",
    # indicators
    "Category",
    "Polarity",
    "IndicatorId",
    "IndicatorSpec",
    "IndicatorHierarchy",
    "DecisionMatrix",
    "default_hierarchy",
    "load_decision_matrix",
    # ahp
    "JudgmentMatrix",
    "ConsistencyReport",
    "validate_judgment",
    "principal_eigen",
    "consistency",
    "ahp_weights",
    # entropy
    "EntropyResult",
    "interval_normalize",
    "vector_normalize",
    "entropy_weights",
    # combining
    "CombinedWeights",
    "TotalWeights",
    "FeatureSelection",
    "dispersion",
    "importance_ratios",
    "order_weights",
    "total_weights",
    "select_features",
    "weighted_score",
    "evaluate_chi",
    # grey
    "TimeSeries",
    "GreyModel",
    "fit_gm11",
    "forecast_indicator",
    # selection
    "CityProfile",
    "ClimateRequirement",
    "SuitabilityScore",
    "SchemePlan",
    "ImpactScale",
    "SwotRecord",
    "screen_candidates",
    "winter_climate_filter",
    "rank_cities",
    "compare_schemes",
    "swot_report",
    # sensitivity
    "PerturbationConfig",
    "SensitivityReport",
    "QuadraticSurface",
    "factor_substitution",
    "fit_response_surface",
    "surface_extrema",
    # pipeline
    "WeightingOutputs",
    "compute_weights",
    "evaluate_alternatives",
]
