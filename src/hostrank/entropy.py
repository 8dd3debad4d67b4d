"""Objective weighting: positive-direction normalization and entropy weights.

Pipeline: raw columns are first mapped so that larger is better
(interval scoring for indicators with an ideal band, max-minus-x for
plain negative indicators), then each column is divided by its
Euclidean norm, and entropy weights are computed from the per-column
probability distributions:

    p_ij = z_ij / sum_i z_ij
    e_j  = -(1 / ln n) * sum_i p_ij ln p_ij      (0 ln 0 := 0)
    H_j  = (1 - e_j) / (m - sum_j e_j)

The denominator uses the indicator count m, which is what makes the
entropy weights a proper weight vector (sum H_j = 1). A column with no
dispersion carries maximum entropy e_j = 1 and weight 0.
"""

from __future__ import annotations

import numpy as np

from ._record import Record, frozen_array
from .errors import NumericError, ValidationError
from .indicators import DecisionMatrix, IndicatorHierarchy, Polarity

__all__ = [
    "EntropyResult",
    "interval_normalize",
    "positivize_matrix",
    "vector_normalize",
    "entropy_weights",
]


class EntropyResult(Record):
    """Per-column probabilities, information entropies, and entropy weights."""

    _fields = ("probabilities", "entropies", "weights")

    def __init__(
        self, probabilities: np.ndarray, entropies: np.ndarray, weights: np.ndarray
    ) -> None:
        self.__dict__.update(
            probabilities=frozen_array(probabilities),
            entropies=frozen_array(entropies),
            weights=frozen_array(weights),
        )


def interval_normalize(x, a: float, b: float) -> np.ndarray:
    """Score a column against an ideal interval [a, b], into [0, 1].

    M = max(a - min x, max x - b) is the worst distance from the band;
    values inside the band score 1, values outside fall off linearly
    and the farthest value scores 0. If every value already lies inside
    the band (M <= 0) the column is degenerate and scores all ones.
    """
    col = np.asarray(x, dtype=float)
    if not a <= b:
        raise ValidationError(f"interval bounds reversed: ({a}, {b})")
    m = max(a - col.min(), col.max() - b)
    if m <= 0.0:
        return np.ones_like(col)
    below = 1.0 - (a - col) / m
    above = 1.0 - (col - b) / m
    return np.where(col < a, below, np.where(col > b, above, 1.0))


def positivize_matrix(matrix: DecisionMatrix, hierarchy: IndicatorHierarchy) -> np.ndarray:
    """Map every column so that larger values are better.

    Columns with an ideal interval use interval scoring; plain
    negative-polarity columns are flipped by (max - x); positive
    columns pass through unchanged.
    """
    out = np.array(matrix.values, dtype=float)
    for j, ind in enumerate(matrix.cols):
        spec = hierarchy.spec(ind)
        col = out[:, j]
        if spec.ideal_interval is not None:
            out[:, j] = interval_normalize(col, *spec.ideal_interval)
        elif spec.polarity is Polarity.NEGATIVE:
            out[:, j] = col.max() - col
    return out


def vector_normalize(data: np.ndarray) -> np.ndarray:
    """Divide each column by its Euclidean norm, into a new read-only array.

    Negative-polarity columns must already be positivized; an all-zero
    column has no direction and is rejected.
    """
    vals = np.asarray(data, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    norms = np.sqrt((vals**2).sum(axis=0))
    if np.any(norms == 0.0):
        j = int(np.argmax(norms == 0.0))
        raise ValidationError(f"all-zero column at index {j}")
    z = vals / norms
    z.flags.writeable = False
    return z


def entropy_weights(z: np.ndarray) -> EntropyResult:
    """Entropy weights from a nonnegative normalized matrix.

    Needs at least two samples (ln 1 = 0 would divide) and at least one
    column with dispersion (otherwise the weight denominator vanishes).
    Dispersion-free columns are detected exactly and assigned e_j = 1,
    H_j = 0.
    """
    vals = np.asarray(z, dtype=float)
    if vals.ndim != 2:
        raise ValidationError("entropy weighting expects a 2-D matrix")
    n, m = vals.shape
    if n < 2:
        raise ValidationError("entropy weighting needs at least 2 samples")
    if m < 2:
        raise ValidationError("entropy weighting needs at least 2 indicators")
    if np.any(vals < 0):
        raise ValidationError("normalized matrix must be nonnegative")
    colsum = vals.sum(axis=0)
    if np.any(colsum <= 0):
        j = int(np.argmax(colsum <= 0))
        raise ValidationError(f"column {j} sums to zero; probabilities undefined")

    p = vals / colsum

    e = np.empty(m)
    log_n = np.log(n)
    for j in range(m):
        col = vals[:, j]
        if col.max() == col.min():
            # Uniform distribution: entropy is exactly 1 after normalization.
            e[j] = 1.0
            continue
        pj = p[:, j]
        nz = pj > 0.0
        e[j] = -float(np.sum(pj[nz] * np.log(pj[nz]))) / log_n

    denom = m - e.sum()
    if denom <= 0.0:
        raise NumericError(
            "all columns are dispersion-free; entropy weights undefined"
        )
    h = (1.0 - e) / denom
    return EntropyResult(probabilities=p, entropies=e, weights=h)
