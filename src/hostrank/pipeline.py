"""End-to-end weighting chain shared by the CLI subcommands and the tests.

Order of operations: validate the hierarchy, derive subjective weights
from the judgment matrices, positivize and column-normalize the
decision matrix, compute entropy weights, combine both per category
through the ordered-ratio method, multiply into total weights, and
select the feature group. A global mode applies the ordered-ratio
combination across all indicators at once (composing the subjective
weights through the category level first) instead of per category.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ._record import Record
from .ahp import AhpWeights, ahp_weights
from .combining import (
    CombinedWeights,
    FeatureSelection,
    TotalWeights,
    combine_weights,
    score_rows,
    select_features,
    total_weights,
)
from .entropy import EntropyResult, entropy_weights, positivize_matrix, vector_normalize
from .errors import ValidationError
from .indicators import (
    Category,
    DecisionMatrix,
    IndicatorHierarchy,
    validate_hierarchy,
)
from .selection import FeatureScaler, _feature_grid

__all__ = ["WeightingOutputs", "compute_weights", "evaluate_alternatives"]


class WeightingOutputs(Record):
    """Everything the weighting chain produces, stage by stage."""

    _fields = (
        "hierarchy", "matrix", "ahp", "normalized", "entropy", "per_category", "total", "selection"
    )

    def __init__(
        self,
        hierarchy: IndicatorHierarchy,
        matrix: DecisionMatrix,
        ahp: AhpWeights,
        normalized: np.ndarray,
        entropy: EntropyResult,
        per_category: dict[Category, CombinedWeights],
        total: TotalWeights,
        selection: FeatureSelection,
    ) -> None:
        self.__dict__.update(
            hierarchy=hierarchy, matrix=matrix, ahp=ahp, normalized=normalized,
            entropy=entropy, per_category=per_category, total=total, selection=selection,
        )


def compute_weights(
    hierarchy: IndicatorHierarchy,
    judgments: Mapping[str, Sequence[Sequence[float]]],
    matrix: DecisionMatrix,
    *,
    mode: str = "per_category",
    feature_count: int | None = 10,
    coverage_target: float | None = None,
) -> WeightingOutputs:
    """Run the full weighting chain on a decision matrix."""
    if mode not in ("per_category", "global"):
        raise ValidationError(f"unknown weighting mode {mode!r}")
    violations = validate_hierarchy(hierarchy)
    if violations:
        details = "; ".join(f"{v.field}/{v.rule}: {v.message}" for v in violations)
        raise ValidationError(f"hierarchy invalid: {details}")
    if matrix.cols != hierarchy.ids:
        raise ValidationError("matrix columns do not follow hierarchy order")
    if matrix.n < 2 or matrix.m < 2:
        raise ValidationError("weighting needs at least 2 samples and 2 indicators")

    subjective = ahp_weights(hierarchy, judgments)
    normalized = vector_normalize(positivize_matrix(matrix, hierarchy))
    objective = entropy_weights(normalized)

    h_by_col = {ind: float(objective.weights[j]) for j, ind in enumerate(matrix.cols)}
    col_index = {ind: j for j, ind in enumerate(matrix.cols)}

    per_category: dict[Category, CombinedWeights] = {}
    if mode == "per_category":
        for cat in hierarchy.categories:
            specs = hierarchy.by_category(cat)
            ids = [s.id for s in specs]
            cols = [col_index[i] for i in ids]
            h_cat = np.array([h_by_col[i] for i in ids])
            h_sum = h_cat.sum()
            if h_sum <= 0:
                raise ValidationError(
                    f"category {cat.value} carries no entropy information"
                )
            h_cat = h_cat / h_sum
            v_cat = np.array([subjective.indicator_weights[i] for i in ids])
            try:
                per_category[cat] = combine_weights(
                    normalized[:, cols], h_cat, v_cat
                )
            except ValidationError as exc:
                raise ValidationError(f"category {cat.value}: {exc}") from None
        omega = total_weights(
            hierarchy, per_category, category_weights=subjective.category_weights
        )
    else:
        # Global mode: compose subjective weights through the category level,
        # then run one ordered-ratio combination across all indicators.
        v_global = np.array(
            [
                subjective.category_weights[i.category]
                * subjective.indicator_weights[i]
                for i in matrix.cols
            ]
        )
        h_global = np.array([h_by_col[i] for i in matrix.cols])
        combined = combine_weights(normalized, h_global, v_global)
        omega = TotalWeights(ids=matrix.cols, omega=combined.weights)

    selection = select_features(
        omega,
        k=None if coverage_target is not None else feature_count,
        coverage_target=coverage_target,
    )
    return WeightingOutputs(
        hierarchy=hierarchy,
        matrix=matrix,
        ahp=subjective,
        normalized=normalized,
        entropy=objective,
        per_category=per_category,
        total=omega,
        selection=selection,
    )


def evaluate_alternatives(
    matrix: DecisionMatrix,
    hierarchy: IndicatorHierarchy,
    selection: FeatureSelection,
) -> list[tuple[str, float]]:
    """Evaluation score per matrix row, features scaled across the rows."""
    ids = selection.ids
    values = _feature_grid(list(map(matrix.row, matrix.rows)), matrix.rows, ids)
    scaled = FeatureScaler.from_values(values, ids, hierarchy).transform_values(values)
    return list(zip(matrix.rows, score_rows(selection.gamma, scaled).tolist()))
