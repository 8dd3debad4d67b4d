"""Subjective/objective weight combination, total weights, feature group, score.

The combination is the ordered-ratio method: a dispersion statistic per
indicator,

    s_j = sqrt( (1/n) * sum_i ( x_ij - xbar_j * (H_j + V_j) / (H_j V_j) )^2 ),

importance ratios between adjacent indicators after sorting by
descending dispersion,

    r_k = min{2, s_{k-1} / s_k}   if s_{k-1} >= s_k, else 1,

and the closed-form ordered weights

    W_m = (1 + sum_{k=2..m} prod_{j=k..m} r_j)^-1,    W_{j-1} = r_j W_j,

which sum to 1 by construction. Total weights multiply each category
weight into its per-category combined weights; the feature group is the
top slice of total weights, renormalized.

The harmonic factor (H+V)/(HV) typically pushes the centering term well
outside the data range; the formula is evaluated verbatim anyway, since
only the ordering of dispersions feeds the ratios.
"""

from __future__ import annotations

import warnings
from typing import Mapping, Sequence

import numpy as np

from ._record import Record
from .errors import ValidationError
from .indicators import Category, IndicatorHierarchy, IndicatorId

__all__ = [
    "ImportanceRatios",
    "CombinedWeights",
    "TotalWeights",
    "FeatureSelection",
    "dispersion",
    "importance_ratios",
    "order_weights",
    "combine_weights",
    "total_weights",
    "select_features",
    "weighted_score",
    "evaluate_chi",
    "score_rows",
]

_SUM_TOL = 1e-9
_MAX_ORDERED = 64
RATIO_CAP = 2.0


class ImportanceRatios(Record):
    """Adjacent-indicator importance ratios along a descending-dispersion order.

    ``values[k-1]`` is the ratio between the indicators at positions
    k-1 and k of ``ordering`` (k = 1..m-1), each capped to [1, 2].
    """

    _fields = ("values", "ordering")
    _arrays = ("values",)

    def __init__(self, values: np.ndarray, ordering: tuple[int, ...]) -> None:
        super().__init__(values, tuple(int(i) for i in ordering))


class CombinedWeights(Record):
    """Ordered-ratio combined weights.

    ``weights`` is indexed like the source columns; ``ordering`` is the
    descending-dispersion permutation along which the weights are
    non-increasing.
    """

    _fields = ("weights", "ordering")
    _arrays = ("weights",)

    def __init__(self, weights: np.ndarray, ordering: tuple[int, ...]) -> None:
        super().__init__(weights, tuple(int(i) for i in ordering))
        total = self.weights.sum()
        if abs(total - 1.0) > _SUM_TOL:
            raise ValidationError(f"combined weights sum to {float(total)!r}, expected 1")
        ordered = self.weights[list(self.ordering)]
        if np.any(np.diff(ordered) > _SUM_TOL):
            raise ValidationError("combined weights increase along the ordering")


class TotalWeights(Record):
    """Per-secondary-indicator weights: category weight times in-category weight."""

    _fields = ("ids", "omega")
    _arrays = ("omega",)

    def __init__(self, ids: tuple[IndicatorId, ...], omega: np.ndarray) -> None:
        super().__init__(tuple(ids), omega)
        if self.omega.shape != (len(self.ids),):
            raise ValidationError("omega length does not match ids")

    def by_id(self) -> dict[IndicatorId, float]:
        return {i: float(w) for i, w in zip(self.ids, self.omega)}


class FeatureSelection(Record):
    """The top-weighted feature group and its renormalized weights.

    ``gamma`` sums to 1 and is non-increasing along ``ids``;
    ``coverage`` is the total-weight mass the group captures.
    """

    _fields = ("ids", "gamma", "coverage")
    _arrays = ("gamma",)

    def __init__(self, ids: tuple[IndicatorId, ...], gamma: np.ndarray, coverage: float) -> None:
        super().__init__(tuple(ids), gamma, coverage)
        ids, g = self.ids, self.gamma
        if len(set(ids)) != len(ids):
            raise ValidationError("feature ids must be distinct")
        if g.shape != (len(ids),):
            raise ValidationError("gamma length does not match feature ids")
        if abs(g.sum() - 1.0) > _SUM_TOL:
            raise ValidationError(f"feature weights sum to {float(g.sum())!r}, expected 1")
        if np.any(np.diff(g) > _SUM_TOL):
            raise ValidationError("feature weights must be non-increasing")

    @property
    def k(self) -> int:
        return len(self.ids)


def dispersion(
    data: np.ndarray,
    entropy_w: Sequence[float],
    subjective_w: Sequence[float],
) -> np.ndarray:
    """Dispersion statistic per column; inputs to the importance ratios.

    Both weight vectors must be strictly positive since the harmonic
    factor divides by their product.
    """
    vals = np.asarray(data, dtype=float)
    h = np.asarray(entropy_w, dtype=float)
    v = np.asarray(subjective_w, dtype=float)
    m = vals.shape[1]
    if h.shape != (m,) or v.shape != (m,):
        raise ValidationError("weight vectors must match the column count")
    if np.any(h <= 0) or np.any(v <= 0):
        raise ValidationError("dispersion requires strictly positive weights")
    center = vals.mean(axis=0) * (h + v) / (h * v)
    return np.sqrt(((vals - center) ** 2).mean(axis=0))


def importance_ratios(s: Sequence[float] | np.ndarray) -> ImportanceRatios:
    """Adjacent-importance ratios along the descending-dispersion ordering.

    The ordering is a stable argsort by descending s, so every ratio
    lies in [1, 2]. A zero dispersion following a positive one makes
    the ratio unbounded; it is clamped to the cap with a warning.
    """
    svals = np.asarray(s, dtype=float)
    if svals.ndim != 1 or svals.size < 1:
        raise ValidationError("dispersion vector must be 1-D and non-empty")
    if np.any(svals < 0) or not np.all(np.isfinite(svals)):
        raise ValidationError("dispersions must be finite and nonnegative")
    order = tuple(int(i) for i in np.argsort(-svals, kind="stable"))
    ss = svals[list(order)]
    ratios = np.empty(max(svals.size - 1, 0))
    for k in range(1, svals.size):
        prev, cur = ss[k - 1], ss[k]
        if cur == 0.0:
            if prev == 0.0:
                ratios[k - 1] = 1.0
            else:
                warnings.warn(
                    "zero dispersion after a positive one; ratio clamped to cap",
                    stacklevel=2,
                )
                ratios[k - 1] = RATIO_CAP
        else:
            ratios[k - 1] = min(RATIO_CAP, prev / cur)
    return ImportanceRatios(values=ratios, ordering=order)


def order_weights(ratios: ImportanceRatios) -> CombinedWeights:
    """Ordered weights from importance ratios via the closed form.

    The last weight is the reciprocal of 1 plus the tail products of
    the ratios; earlier weights follow by back-recursion, so the vector
    sums to 1 identically.
    """
    r = ratios.values
    m = r.size + 1
    if m > _MAX_ORDERED:
        raise ValidationError(f"ordered weighting supports at most {_MAX_ORDERED} indicators")
    if np.any(r < 1.0) or np.any(r > RATIO_CAP + _SUM_TOL):
        raise ValidationError("importance ratios must lie in [1, 2]")

    # Tail products prod_{j=k..m} r_j for k = 2..m, accumulated from the end.
    tail = np.cumprod(r[::-1])
    w_last = 1.0 / (1.0 + tail.sum())
    sorted_w = np.empty(m)
    sorted_w[m - 1] = w_last
    for k in range(m - 1, 0, -1):
        sorted_w[k - 1] = r[k - 1] * sorted_w[k]

    weights = np.empty(m)
    weights[list(ratios.ordering)] = sorted_w
    return CombinedWeights(weights=weights, ordering=ratios.ordering)


def combine_weights(
    data: np.ndarray,
    entropy_w: Sequence[float],
    subjective_w: Sequence[float],
) -> CombinedWeights:
    """Dispersion, ratios, and ordered weights in one step."""
    s = dispersion(data, entropy_w, subjective_w)
    return order_weights(importance_ratios(s))


def total_weights(
    hierarchy: IndicatorHierarchy,
    per_category: Mapping[Category, CombinedWeights | Sequence[float]],
    *,
    category_weights: Mapping[Category, float],
) -> TotalWeights:
    """Total weight of each secondary indicator: U_i * u_j.

    ``category_weights`` are the U_i, e.g. the AHP category weights. Both
    levels must each sum to 1, which makes the products sum to 1.
    """
    total_u = sum(category_weights.values())
    if abs(total_u - 1.0) > _SUM_TOL:
        raise ValidationError(f"category weights sum to {float(total_u)!r}, expected 1")

    ids: list[IndicatorId] = []
    omega: list[float] = []
    for cat in hierarchy.categories:
        specs = hierarchy.by_category(cat)
        if cat not in per_category:
            raise ValidationError(f"category {cat.value} has no weights")
        if cat not in category_weights:
            raise ValidationError(f"category {cat.value} has no weight")
        entry = per_category[cat]
        u = entry.weights if isinstance(entry, CombinedWeights) else np.asarray(entry, dtype=float)
        if u.shape != (len(specs),):
            raise ValidationError(
                f"category {cat.value} weight length {u.shape} does not match "
                f"{len(specs)} indicators"
            )
        if abs(u.sum() - 1.0) > _SUM_TOL:
            raise ValidationError(
                f"category {cat.value} weights sum to {float(u.sum())!r}, expected 1"
            )
        for spec, uj in zip(specs, u):
            ids.append(spec.id)
            omega.append(category_weights[cat] * float(uj))
    return TotalWeights(ids=tuple(ids), omega=np.array(omega))


def select_features(
    omega: TotalWeights,
    k: int | None = 10,
    *,
    coverage_target: float | None = None,
) -> FeatureSelection:
    """Top-k feature group by total weight, with renormalized weights.

    Ties break by indicator id so the selection is deterministic and
    independent of input order. When ``coverage_target`` is given and
    ``k`` is None, the smallest group reaching that cumulative total
    weight is selected.
    """
    pairs = sorted(zip(omega.ids, omega.omega), key=lambda p: (-p[1], p[0]))
    if k is None:
        if coverage_target is None:
            raise ValidationError("need k or coverage_target")
        acc = 0.0
        k = 0
        for _, w in pairs:
            acc += w
            k += 1
            if acc >= coverage_target:
                break
    if not 1 <= k <= len(pairs):
        raise ValidationError(f"feature count {k} outside 1..{len(pairs)}")
    chosen = pairs[:k]
    mass = sum(w for _, w in chosen)
    if mass <= 0:
        raise ValidationError("selected features carry no weight")
    gamma = np.array([w / mass for _, w in chosen])
    return FeatureSelection(
        ids=tuple(i for i, _ in chosen), gamma=gamma, coverage=float(mass)
    )


def weighted_score(gamma: Sequence[float], values: Sequence[float]) -> float:
    """Weighted sum of feature scores; the evaluation kernel."""
    g = np.asarray(gamma, dtype=float)
    x = np.asarray(values, dtype=float)
    if g.shape != x.shape:
        raise ValidationError(
            f"length mismatch: {g.shape[0]} weights vs {x.shape[0]} values"
        )
    return float(np.dot(g, x))


def evaluate_chi(selection: FeatureSelection, xi_values: Sequence[float]) -> float:
    """Evaluation score of one alternative from its scaled feature values."""
    return weighted_score(selection.gamma, xi_values)


def score_rows(gamma: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Weighted sum over the last axis of ``rows``: one score per alternative.

    ``gamma`` broadcasts against the leading axes of ``rows``. Each score
    is one BLAS dot over a contiguous k-vector, the accumulation
    ``weighted_score`` does for a single alternative, so a batch is
    bit-identical to scoring its rows one at a time.
    """
    g = np.ascontiguousarray(gamma, dtype=float)
    x = np.ascontiguousarray(rows, dtype=float)
    if g.shape[-1] != x.shape[-1]:
        raise ValidationError(
            f"length mismatch: {g.shape[-1]} weights vs {x.shape[-1]} values"
        )
    return np.vecdot(g, x)
