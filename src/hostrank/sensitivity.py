"""Robustness analysis: random feature substitution and response surfaces.

Substitution trials replace a seeded random subset of the selected
feature group with draws from the unselected indicators, renormalize
weights over the new group from its total weights, and record how each
alternative's evaluation score moves. Trial t draws its keys from block t
of one ``random.Random(seed)`` stream, so runs are reproducible and a
shorter run is a prefix of a longer one.

The response-surface side fits a full quadratic to design points by
least squares and locates box-constrained extrema exactly via
stationary-point plus boundary enumeration.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

import numpy as np

from ._record import Record
from .combining import FeatureSelection, TotalWeights, score_rows
from .errors import ConfigError, NumericError, ValidationError
from .indicators import DecisionMatrix, IndicatorHierarchy, _brief
from .reporting import NUMBER_FORMAT, _csv_field
from .selection import FeatureScaler

__all__ = [
    "PerturbationConfig",
    "SensitivityReport",
    "QuadraticSurface",
    "SurfaceExtrema",
    "factor_substitution",
    "fit_response_surface",
    "surface_extrema",
]


class PerturbationConfig(Record):
    """Substitution-trial parameters. ``n_swap=0`` runs identity trials."""

    _fields = ("seed", "n_swap", "trials")

    def __init__(self, seed: int, n_swap: int = 5, trials: int = 1) -> None:
        if seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if n_swap < 0:
            raise ConfigError("n_swap must be nonnegative")
        if trials < 1:
            raise ConfigError("need at least one trial")
        self.__dict__.update(seed=seed, n_swap=n_swap, trials=trials)


class SensitivityReport(Record):
    """Baseline scores, per-trial scores and deviations, and deviation summaries.

    ``baseline`` holds one score per alternative. ``trials[t]`` is trial
    t's swap: the features it removed and those it added in their place.
    ``chi``, ``abs_dev`` and ``rel_dev`` are read-only (trials x
    alternatives) arrays whose row t belongs to ``trials[t]``; ``rel_dev``
    is NaN where the baseline is 0.
    """

    _fields = ("alternatives", "baseline", "trials", "chi", "abs_dev", "rel_dev", "summary")

    def to_csv_text(self) -> str:
        """Deterministic serialization, numbers as ``format_number`` prints them."""
        # One % operation a row, with format_number's rule as the % conversion.
        # Labels are arguments, never template text, so a '%' in a name stays literal.
        g = "%" + NUMBER_FORMAT
        baseline_row, summary_row = f"baseline,,%s,,,{g},,\n", f"summary,,%s,%s,,{g},,\n"
        trial_row = f"%s%s%s{g},{g},{g}\n"
        labels = [_csv_field(alt) for alt in self.alternatives]
        out = ["section,trial,alternative,swapped_out,swapped_in,chi,abs_dev,rel_dev\n"]
        out += [baseline_row % (alt, v) for alt, v in zip(labels, self.baseline.tolist())]
        rows = zip(self.trials, self.chi.tolist(), self.abs_dev.tolist(), self.rel_dev.tolist())
        for t, ((removed, added), chi, dev, rel) in enumerate(rows):
            prefix = f"trial,{t},"
            swap = f",{'|'.join(map(str, removed))},{'|'.join(map(str, added))},"
            out += [
                trial_row % (prefix, alt, swap, c, a, r)
                for alt, c, a, r in zip(labels, chi, dev, rel)
            ]
        for alt, stats in self.summary.items():
            label = _csv_field(alt)
            out += [summary_row % (label, key, value) for key, value in stats.items()]
        return "".join(out)


def factor_substitution(
    selection: FeatureSelection,
    omega: TotalWeights,
    data: DecisionMatrix,
    config: PerturbationConfig,
    hierarchy: IndicatorHierarchy,
) -> SensitivityReport:
    """Seeded random feature-substitution trials against a baseline.

    Each trial draws ``n_swap`` unselected indicators and ``n_swap``
    positions in the feature group, installs the substitutes at those
    positions, renormalizes the group weights from total weights, and
    re-scores every alternative in ``data``. Identity trials (no swap)
    deviate by exactly zero.
    """
    if config.n_swap > selection.k:
        raise ConfigError(
            f"n_swap={_brief(config.n_swap)} exceeds the feature-group size {selection.k}"
        )
    selected = set(selection.ids)
    unselected = [i for i in omega.ids if i not in selected]
    if len(unselected) < config.n_swap:
        raise ValidationError(
            f"only {len(unselected)} unselected indicators available; "
            f"need {config.n_swap}"
        )

    # Min-max scaling is per column across all alternatives, so scaling the
    # whole matrix once gives every trial's scaled cells.
    scaler = FeatureScaler.from_values(data.values, data.cols, hierarchy)
    scaled = scaler.transform_values(data.values)

    # Each group as indices into pool: row 0 is the baseline group, row t + 1
    # trial t, with its picks installed at its positions.
    pool, k = (*selection.ids, *unselected), selection.k
    positions, picks = _draw_swaps(config, k, len(unselected))
    members = np.tile(np.arange(k), (config.trials + 1, 1))
    np.put_along_axis(members[1:], positions, k + picks, axis=1)

    column_of = {c: j for j, c in enumerate(data.cols)}
    group_columns = np.array([column_of.get(i, -1) for i in pool], dtype=np.intp)[members]
    missing = np.flatnonzero(group_columns < 0)
    if missing.size:
        feature = pool[members.flat[missing[0]]]
        raise ValidationError(f"decision matrix has no column for feature {feature}")
    omega_by_id = omega.by_id()
    gammas = np.array([omega_by_id[i] for i in pool])[members]
    gammas[0] = selection.gamma
    totals = gammas[1:].sum(axis=1)
    if np.any(totals <= 0):
        raise NumericError("substituted group carries no total weight")
    gammas[1:] /= totals[:, None]
    names = np.fromiter(pool, dtype=object, count=len(pool))
    removed, added = names[positions].tolist(), names[k + picks].tolist()
    swaps = tuple(zip(map(tuple, removed), map(tuple, added)))

    chi = _weighted_scores(scaled, group_columns, gammas)
    chi.flags.writeable = False
    base = chi[0]
    abs_dev = chi[1:] - base
    with np.errstate(invalid="ignore", divide="ignore"):
        rel_dev = np.where(base != 0, abs_dev / np.abs(base), np.nan)
    abs_dev.flags.writeable = rel_dev.flags.writeable = False

    magnitudes = np.abs(abs_dev)
    summary = _row_stats(data.rows, np.ascontiguousarray(magnitudes.T))
    summary.update(_row_stats(["(overall)"], magnitudes.reshape(1, -1)))
    return SensitivityReport(
        alternatives=data.rows, baseline=base, trials=swaps, chi=chi[1:],
        abs_dev=abs_dev, rel_dev=rel_dev, summary=summary,
    )


def _draw_swaps(config: PerturbationConfig, k: int, u: int) -> tuple[np.ndarray, np.ndarray]:
    """Each trial's sorted swap positions in the group of ``k`` and picks among ``u``.

    Trial t keys on draws t*w ... t*w + w - 1, w = k + u, of one
    ``random.Random(config.seed)`` stream. Its positions are the indices of
    the ``n_swap`` smallest of the first k keys, its picks those of the
    ``n_swap`` smallest of the last u keys; equal keys go by index. Keys are
    drawn at most ``_GATHER_CELLS`` at a time.
    """
    n, w = config.n_swap, k + u
    draw = random.Random(config.seed).random
    positions = np.empty((config.trials, n), dtype=np.intp)
    picks = np.empty_like(positions)
    step = max(1, _GATHER_CELLS // w)
    for lo in range(0, config.trials, step):
        m = min(step, config.trials - lo)
        keys = np.fromiter(iter(draw, None), float, count=m * w).reshape(m, w)
        for out, part in ((positions, keys[:, :k]), (picks, keys[:, k:])):
            out[lo : lo + m] = np.sort(np.argsort(part, axis=1, kind="stable")[:, :n], axis=1)
    return positions, picks


def _row_stats(labels: Sequence[str], rows: np.ndarray) -> dict[str, dict[str, float]]:
    """Mean, max and std of each row of a C-contiguous array, under its label.

    Each row is a contiguous run, so reducing along the last axis sums it
    in the same order as reducing the row alone: the floats are the same bits.
    """
    stats = zip(rows.mean(axis=1).tolist(), rows.max(axis=1).tolist(), rows.std(axis=1).tolist())
    return {
        label: {"mean_abs_dev": mean, "max_abs_dev": top, "std_abs_dev": std}
        for label, (mean, top, std) in zip(labels, stats)
    }


# Keys drawn per batch in _draw_swaps and cells gathered per batch in
# _weighted_scores, which bounds their working memory.
_GATHER_CELLS = 1 << 20


def _weighted_scores(
    scaled: np.ndarray, group_columns: np.ndarray, gammas: np.ndarray
) -> np.ndarray:
    """``out[t, a] = gammas[t] . scaled[a, group_columns[t]]`` for every group t."""
    n = scaled.shape[0]
    groups, k = group_columns.shape
    step = max(1, _GATHER_CELLS // max(1, n * k))
    out = np.empty((groups, n))
    for lo in range(0, groups, step):
        batch = slice(lo, lo + step)
        cells = scaled[:, group_columns[batch]].swapaxes(0, 1)
        out[batch] = score_rows(gammas[batch, None, :], cells)
    return out


class QuadraticSurface(Record):
    """Full second-order polynomial in k factors with fit diagnostics.

    Coefficient layout: intercept, k linear terms, k(k-1)/2 pairwise
    interaction terms in lexicographic pair order, k square terms.
    """

    _fields = ("factor_count", "intercept", "linear", "interactions", "squares", "r_squared")
    _arrays = ("linear", "interactions", "squares")

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return _design_matrix(pts, self.factor_count) @ self._coef_vector()

    def evaluate_one(self, point: Sequence[float]) -> float:
        return float(self.evaluate(np.asarray(point))[0])

    def hessian(self) -> np.ndarray:
        k = self.factor_count
        h = np.zeros((k, k))
        for idx, (i, j) in enumerate(itertools.combinations(range(k), 2)):
            h[i, j] = h[j, i] = self.interactions[idx]
        h[np.diag_indices(k)] = 2.0 * self.squares
        return h

    def _coef_vector(self) -> np.ndarray:
        return np.concatenate(
            [[self.intercept], self.linear, self.interactions, self.squares]
        )


def _design_matrix(points: np.ndarray, k: int) -> np.ndarray:
    cols = [np.ones(points.shape[0])]
    cols.extend(points[:, i] for i in range(k))
    cols.extend(points[:, i] * points[:, j] for i, j in itertools.combinations(range(k), 2))
    cols.extend(points[:, i] ** 2 for i in range(k))
    return np.column_stack(cols)


def fit_response_surface(
    points: np.ndarray,
    responses: Sequence[float],
) -> QuadraticSurface:
    """Least-squares fit of the full quadratic to responses at design points (one per row)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    y = np.asarray(responses, dtype=float)
    if y.shape != (points.shape[0],):
        raise ValidationError(
            f"got {y.shape[0] if y.ndim else 0} responses for {points.shape[0]} design points"
        )
    if not (np.isfinite(points).all() and np.isfinite(y).all()):
        raise ValidationError("design points and responses must be finite")
    k = points.shape[1]
    x = _design_matrix(points, k)
    # The rank counts singular values above eps * max(M, N) * s_max, as np.linalg.matrix_rank does.
    coef, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    if rank < x.shape[1]:
        raise NumericError(
            "design matrix is rank-deficient; the full quadratic is not identifiable"
        )
    fitted = x @ coef
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if np.ptp(y) == 0.0 or ss_tot == 0.0:
        # constant responses: the intercept-only fit is already perfect
        r_squared = 1.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    n_pairs = k * (k - 1) // 2
    return QuadraticSurface(
        factor_count=k,
        intercept=float(coef[0]),
        linear=coef[1 : 1 + k],
        interactions=coef[1 + k : 1 + k + n_pairs],
        squares=coef[1 + k + n_pairs :],
        r_squared=r_squared,
    )


class SurfaceExtrema(Record):
    """Box-constrained extrema of a quadratic surface and relative response ranges.

    A relative range divides a response span (max - min) by the absolute
    response at the box center, ``baseline`` (infinite when it is zero).
    ``per_factor_range`` varies one factor with the others held at center;
    ``joint_range`` varies all of them.
    """

    _fields = ("min_value", "max_value", "baseline", "per_factor_range", "joint_range")
    _arrays = ("per_factor_range",)


_BOUND_TOL = 1e-12


def _box_range(
    surface: QuadraticSurface, lows: np.ndarray, highs: np.ndarray
) -> tuple[float, float]:
    """Exact (min, max) of the surface over the box from ``lows`` to ``highs``.

    Each coordinate is pinned to either bound or left free (only pinned
    when its bounds are equal). On each such face the stationary point of
    the quadratic in the free coordinates is a candidate if it lies in the
    box. A singular sub-Hessian, as on an additive surface, gives no
    candidate on its face; the extrema then lie on lower faces.
    """
    h, g = surface.hessian(), surface.linear
    states = [(lo, hi, None) if lo < hi else (lo,) for lo, hi in zip(lows, highs)]
    values = []
    for combo in itertools.product(*states):
        free_mask = np.array([s is None for s in combo])
        free, fixed = np.flatnonzero(free_mask), np.flatnonzero(~free_mask)
        point = np.array([0.0 if s is None else s for s in combo])
        rhs = -(g[free] + h[np.ix_(free, fixed)] @ point[fixed])
        try:  # with no free coordinate this solves an empty system: the point is a vertex
            sol = np.linalg.solve(h[np.ix_(free, free)], rhs)
        except np.linalg.LinAlgError:
            continue
        if np.all(sol >= lows[free] - _BOUND_TOL) and np.all(sol <= highs[free] + _BOUND_TOL):
            point[free] = np.clip(sol, lows[free], highs[free])
            values.append(surface.evaluate_one(point))
    return min(values), max(values)


def surface_extrema(
    surface: QuadraticSurface,
    box: Sequence[tuple[float, float]],
) -> SurfaceExtrema:
    """Box-constrained extrema and relative ranges of a quadratic surface.

    The joint range is the face enumeration of ``_box_range`` over the
    whole box. Factor i's range is the same search on the box collapsed
    to the center in every other factor, with the center as one more
    candidate.
    """
    k = surface.factor_count
    bounds = np.asarray(box, dtype=float)
    if bounds.shape != (k, 2):
        raise ValidationError(f"box must give (low, high) for each of {k} factors")
    lows, highs = bounds[:, 0], bounds[:, 1]
    if np.any(lows > highs):
        raise ValidationError("box has low > high")

    min_value, max_value = _box_range(surface, lows, highs)
    center = (lows + highs) / 2.0
    baseline = surface.evaluate_one(center)

    def relative(value: float) -> float:
        return value / abs(baseline) if baseline != 0.0 else float("inf")

    per_factor_range = np.empty(k)
    for i in range(k):
        axis_lows, axis_highs = center.copy(), center.copy()
        axis_lows[i], axis_highs[i] = lows[i], highs[i]
        lo, hi = _box_range(surface, axis_lows, axis_highs)
        per_factor_range[i] = relative(max(baseline, hi) - min(baseline, lo))

    return SurfaceExtrema(
        min_value=min_value,
        max_value=max_value,
        baseline=baseline,
        per_factor_range=per_factor_range,
        joint_range=relative(max_value - min_value),
    )
