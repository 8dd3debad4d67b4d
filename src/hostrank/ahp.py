"""Analytic Hierarchy Process: judgment matrices, eigenvector weights, consistency gate.

A judgment matrix holds pairwise importance ratios b_ij on the 1-9
scale with b_ii = 1 and b_ij * b_ji = 1. Weights are the normalized
principal eigenvector, extracted by power iteration (judgment matrices
are positive, so Perron-Frobenius guarantees a dominant eigenvalue and
convergence). The consistency gate computes

    CI = (lambda_max - n) / (n - 1),    CR = CI / RI,

and passes when CR < 0.1. RI is the standard tabulated random index.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ._record import Record
from .errors import NumericError, ValidationError
from .indicators import IndicatorHierarchy, IndicatorId, _json_numbers

__all__ = [
    "SAATY_RANDOM_INDEX",
    "JudgmentMatrix",
    "ConsistencyReport",
    "AhpWeights",
    "validate_judgment",
    "principal_eigen",
    "consistency",
    "ahp_weights",
]

#: Average random consistency index, indexed by matrix order n (entry 0 unused).
#: Standard tabulated values for n = 1..15.
SAATY_RANDOM_INDEX: tuple[float, ...] = (
    float("nan"),
    0.0, 0.0, 0.58, 0.90, 1.12, 1.24, 1.32, 1.41,
    1.45, 1.49, 1.51, 1.54, 1.56, 1.57, 1.58,
)

_MIN_ORDER = 2
_MAX_ORDER = 15
_SCALE_MIN = 1.0 / 9.0
_SCALE_MAX = 9.0
_RECIPROCITY_TOL = 1e-9
_EIGEN_TOL = 1e-12
_EIGEN_MAX_ITER = 10_000
CR_THRESHOLD = 0.1


class JudgmentMatrix(Record):
    """A validated positive reciprocal pairwise-comparison matrix."""

    _fields = _arrays = ("values",)

    @property
    def order(self) -> int:
        return self.values.shape[0]


class ConsistencyReport(Record):
    """Consistency check outcome for one judgment matrix.

    ``cr`` is defined as 0 for n <= 2, where the random index vanishes
    and a reciprocal matrix is always consistent.
    """

    _fields = ("lambda_max", "ci", "ri", "cr", "passed")


def validate_judgment(matrix: Sequence[Sequence[float]] | np.ndarray) -> JudgmentMatrix:
    """Validate a raw square matrix as a judgment matrix.

    Raises with the first violated cell pair; reciprocity is never
    silently repaired.
    """
    vals = np.array(matrix, dtype=float)
    if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
        raise ValidationError(f"judgment matrix must be square, got shape {vals.shape}")
    n = vals.shape[0]
    if not _MIN_ORDER <= n <= _MAX_ORDER:
        raise ValidationError(
            f"judgment matrix order {n} outside supported range "
            f"{_MIN_ORDER}..{_MAX_ORDER}"
        )
    if not np.all(np.isfinite(vals)):
        raise ValidationError("judgment matrix contains non-finite entries")
    # Each check reports its first violating cell in row-major order.
    for i, j in np.argwhere(vals <= 0.0)[:1]:
        raise ValidationError(f"nonpositive entry {float(vals[i, j])!r} at ({i + 1},{j + 1})")
    for i in np.flatnonzero(np.abs(np.diag(vals) - 1.0) > _RECIPROCITY_TOL)[:1]:
        raise ValidationError(
            f"diagonal entry at ({i + 1},{i + 1}) is {float(vals[i, i])!r}, expected 1"
        )
    # Cell (i, j) of vals * vals.T is vals[i, j] * vals[j, i]; only pairs above the diagonal count.
    for i, j in np.argwhere(np.triu(np.abs(vals * vals.T - 1.0) > _RECIPROCITY_TOL, 1))[:1]:
        raise ValidationError(
            f"reciprocity violated at ({i + 1},{j + 1})/({j + 1},{i + 1}): "
            f"{float(vals[i, j])!r} * {float(vals[j, i])!r} != 1"
        )
    if vals.min() < _SCALE_MIN - _RECIPROCITY_TOL or vals.max() > _SCALE_MAX + _RECIPROCITY_TOL:
        i, j = np.unravel_index(
            np.argmax(np.maximum(_SCALE_MIN - vals, vals - _SCALE_MAX)), vals.shape
        )
        raise ValidationError(
            f"entry {float(vals[i, j])!r} at ({i + 1},{j + 1}) outside the 1/9..9 scale"
        )
    return JudgmentMatrix(vals)


def principal_eigen(matrix: JudgmentMatrix) -> tuple[float, np.ndarray]:
    """Dominant eigenvalue and L1-normalized eigenvector by power iteration.

    Starting from uniform weights, each iterate is renormalized to sum 1;
    convergence is declared when successive iterates differ by less than
    ``_EIGEN_TOL`` in max-norm. The eigenvalue estimate is the mean of
    (M w)_i / w_i at convergence.
    """
    m = matrix.values
    n = matrix.order
    w = np.full(n, 1.0 / n)
    for _ in range(_EIGEN_MAX_ITER):
        v = m @ w
        v /= v.sum()
        if np.max(np.abs(v - w)) < _EIGEN_TOL:
            w = v
            break
        w = v
    else:
        raise NumericError(
            f"power iteration did not converge within {_EIGEN_MAX_ITER} iterations"
        )
    lam = float(np.mean((m @ w) / w))
    return lam, w


def consistency(matrix: JudgmentMatrix, lambda_max: float) -> ConsistencyReport:
    """CI/CR consistency report for a judgment matrix and its lambda_max."""
    n = matrix.order
    ci = (lambda_max - n) / (n - 1)
    if n <= 2:
        return ConsistencyReport(lambda_max=lambda_max, ci=ci, ri=0.0, cr=0.0, passed=True)
    if n >= len(SAATY_RANDOM_INDEX):
        raise ValidationError(f"no random index tabulated for order {n}")
    ri = SAATY_RANDOM_INDEX[n]
    cr = ci / ri
    return ConsistencyReport(
        lambda_max=lambda_max, ci=ci, ri=ri, cr=cr, passed=cr < CR_THRESHOLD
    )


class AhpWeights(Record):
    """Subjective weights from pairwise judgments.

    ``indicator_weights`` sum to 1 within each category;
    ``category_weights`` sum to 1 across categories.
    """

    _fields = ("category_weights", "indicator_weights", "reports")


def _level_weights(key: str, raw, size: int) -> tuple[np.ndarray, ConsistencyReport | None]:
    if size == 1:
        return np.array([1.0]), None
    if raw is None:
        raise ValidationError(f"missing judgment matrix {key!r}")
    try:
        # Nested lists, as JSON gives them: true and "2" are no numbers.
        if not isinstance(raw, np.ndarray):
            for row in raw:
                _json_numbers(row, "entry")
        raw = np.array(raw, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"judgment matrix {key!r} is not a numeric square array") from None
    jm = validate_judgment(raw)
    if jm.order != size:
        raise ValidationError(
            f"judgment matrix {key!r} has order {jm.order}, expected {size}"
        )
    lam, w = principal_eigen(jm)
    report = consistency(jm, lam)
    if not report.passed:
        raise ValidationError(
            f"consistency gate failed for judgment matrix {key!r}: "
            f"CR={report.cr:.4f} >= {CR_THRESHOLD}"
        )
    return w, report


def ahp_weights(
    hierarchy: IndicatorHierarchy,
    judgments: Mapping[str, Sequence[Sequence[float]]],
) -> AhpWeights:
    """Eigenvector weights for both hierarchy levels with the consistency gate.

    ``judgments`` is keyed ``"primary"`` for the category-level matrix
    and by category letter for each category's secondary indicators.
    Levels with a single element need no matrix. Any failed consistency
    check aborts, naming the offending matrix.
    """
    categories = hierarchy.categories
    reports: dict[str, ConsistencyReport] = {}

    u, rep = _level_weights("primary", judgments.get("primary"), len(categories))
    if rep is not None:
        reports["primary"] = rep
    category_weights = {cat: float(w) for cat, w in zip(categories, u)}

    indicator_weights: dict[IndicatorId, float] = {}
    for cat in categories:
        specs = hierarchy.by_category(cat)
        v, rep = _level_weights(cat.value, judgments.get(cat.value), len(specs))
        if rep is not None:
            reports[cat.value] = rep
        for s, w in zip(specs, v):
            indicator_weights[s.id] = float(w)

    return AhpWeights(
        category_weights=category_weights,
        indicator_weights=indicator_weights,
        reports=reports,
    )
