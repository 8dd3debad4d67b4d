"""Robustness analysis: random feature substitution and response surfaces.

Substitution trials replace a seeded random subset of the selected
feature group with draws from the unselected indicators, renormalize
weights over the new group from its total weights, and record how each
alternative's evaluation score moves. Every trial derives its random
stream from (seed, trial index), so runs are reproducible and
schedule-independent.

The response-surface side builds three-level second-order designs,
fits a full quadratic by least squares, and locates box-constrained
extrema exactly via stationary-point plus boundary enumeration.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from ._record import Record, frozen_array
from .combining import FeatureSelection, TotalWeights, score_rows
from .errors import ConfigError, NumericError, ValidationError
from .indicators import DecisionMatrix, IndicatorHierarchy, IndicatorId
from .selection import FeatureScaler

__all__ = [
    "PerturbationConfig",
    "SensitivityReport",
    "QuadraticSurface",
    "SurfaceExtrema",
    "factor_substitution",
    "bbd_design",
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


# One trial's swap: the features it removed and the ones it added in their place.
Swap = tuple[tuple[IndicatorId, ...], tuple[IndicatorId, ...]]


class SensitivityReport(Record):
    """Baseline scores, per-trial scores and deviations, and deviation summaries.

    ``baseline`` holds one score per alternative. ``chi``, ``abs_dev``
    and ``rel_dev`` are read-only (trials x alternatives) arrays whose
    row t belongs to ``trials[t]``; ``rel_dev`` is NaN where the
    baseline is 0.
    """

    _fields = (
        "config", "alternatives", "baseline", "trials", "chi", "abs_dev", "rel_dev", "summary"
    )

    def __init__(
        self,
        config: PerturbationConfig,
        alternatives: tuple[str, ...],
        baseline: np.ndarray,
        trials: tuple[Swap, ...],
        chi: np.ndarray,
        abs_dev: np.ndarray,
        rel_dev: np.ndarray,
        summary: dict[str, dict[str, float]],
    ) -> None:
        self.__dict__.update(
            config=config, alternatives=alternatives, baseline=baseline, trials=trials,
            chi=chi, abs_dev=abs_dev, rel_dev=rel_dev, summary=summary,
        )

    def to_csv_text(self) -> str:
        """Deterministic serialization; byte-identical for identical configs."""
        labels = [_csv_field(alt) for alt in self.alternatives]
        out = ["section,trial,alternative,swapped_out,swapped_in,chi,abs_dev,rel_dev\n"]
        out += [f"baseline,,{alt},,,{v!r},,\n" for alt, v in zip(labels, self.baseline.tolist())]
        rows = zip(self.trials, self.chi.tolist(), self.abs_dev.tolist(), self.rel_dev.tolist())
        for t, ((removed, added), chi, dev, rel) in enumerate(rows):
            swap = f"{'|'.join(map(str, removed))},{'|'.join(map(str, added))}"
            out += [
                f"trial,{t},{alt},{swap},{c!r},{a!r},{r!r}\n"
                for alt, c, a, r in zip(labels, chi, dev, rel)
            ]
        for alt, stats in self.summary.items():
            label = _csv_field(alt)
            out += [f"summary,,{label},{key},,{value!r},,\n" for key, value in stats.items()]
        return "".join(out)


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted as ``csv.writer`` quotes it."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


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
            f"n_swap={config.n_swap} exceeds the feature-group size {selection.k}"
        )
    omega_by_id = omega.by_id()
    selected = set(selection.ids)
    unselected = [i for i in omega.ids if i not in selected]
    if len(unselected) < config.n_swap:
        raise ValidationError(
            f"only {len(unselected)} unselected indicators available; "
            f"need {config.n_swap}"
        )

    column_of = {c: j for j, c in enumerate(data.cols)}

    def columns(group: Sequence[IndicatorId]) -> list[int]:
        try:
            return [column_of[i] for i in group]
        except KeyError as exc:
            raise ValidationError(
                f"decision matrix has no column for feature {exc.args[0]}"
            ) from None

    # Min-max scaling is per column across all alternatives, so scaling the
    # whole matrix once gives every trial's scaled cells.
    scaler = FeatureScaler.from_values(data.values, data.cols, hierarchy)
    scaled = scaler.transform_values(data.values)

    # Row 0 scores the baseline group; row t + 1 scores trial t.
    group_columns = [columns(selection.ids)]
    gammas = [selection.gamma]
    swaps: list[Swap] = []
    for t in range(config.trials):
        rng = np.random.default_rng([config.seed, t])
        if config.n_swap == 0:
            group = list(selection.ids)
            removed: tuple[IndicatorId, ...] = ()
            added: tuple[IndicatorId, ...] = ()
        else:
            positions = sorted(
                rng.choice(selection.k, size=config.n_swap, replace=False).tolist()
            )
            picks = sorted(
                rng.choice(len(unselected), size=config.n_swap, replace=False).tolist()
            )
            group = list(selection.ids)
            removed = tuple(group[p] for p in positions)
            added = tuple(unselected[p] for p in picks)
            for pos, sub in zip(positions, added):
                group[pos] = sub
        gamma = np.array([omega_by_id[i] for i in group])
        total = gamma.sum()
        if total <= 0:
            raise NumericError("substituted group carries no total weight")
        group_columns.append(columns(group))
        gammas.append(gamma / total)
        swaps.append((removed, added))

    chi = _weighted_scores(scaled, np.array(group_columns, dtype=np.intp), np.array(gammas))
    chi.flags.writeable = False
    base = chi[0]
    abs_dev = chi[1:] - base
    with np.errstate(invalid="ignore", divide="ignore"):
        rel_dev = np.where(base != 0, abs_dev / np.abs(base), np.nan)
    abs_dev.flags.writeable = rel_dev.flags.writeable = False

    # One contiguous 1-D reduction per alternative, then over every cell in
    # trial-major order: a 2-D axis reduction would sum in another order.
    magnitudes = np.abs(abs_dev)
    summary = {
        alt: _deviation_stats(devs)
        for alt, devs in zip(data.rows, np.ascontiguousarray(magnitudes.T))
    }
    summary["(overall)"] = _deviation_stats(magnitudes.ravel())
    return SensitivityReport(
        config=config, alternatives=data.rows, baseline=base, trials=tuple(swaps),
        chi=chi[1:], abs_dev=abs_dev, rel_dev=rel_dev, summary=summary,
    )


def _deviation_stats(devs: np.ndarray) -> dict[str, float]:
    return {
        "mean_abs_dev": float(devs.mean()),
        "max_abs_dev": float(devs.max()),
        "std_abs_dev": float(devs.std()),
    }


# Cells gathered per batch in _weighted_scores, which bounds its working memory.
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


def bbd_design(k: int, center_replicates: int = 3) -> np.ndarray:
    """The three-level second-order design for ``k`` factors, one point per row.

    For k >= 3 every non-center point sets exactly two factors to +-1,
    giving 4 * k(k-1)/2 points before the center replicates; k = 2 falls
    back to the full two-level factorial with centers. The array is
    read-only.
    """
    if k < 2:
        raise ValidationError("response-surface designs need at least 2 factors")
    if center_replicates < 0:
        raise ValidationError("center replicate count must be nonnegative")
    rows: list[np.ndarray] = []
    signs = ((-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0))
    if k == 2:
        for s in signs:
            rows.append(np.array(s))
    else:
        for i, j in itertools.combinations(range(k), 2):
            for si, sj in signs:
                point = np.zeros(k)
                point[i] = si
                point[j] = sj
                rows.append(point)
    rows.extend(np.zeros(k) for _ in range(center_replicates))
    points = np.vstack(rows)
    points.flags.writeable = False
    return points


class QuadraticSurface(Record):
    """Full second-order polynomial in k factors with fit diagnostics.

    Coefficient layout: intercept, k linear terms, k(k-1)/2 pairwise
    interaction terms in lexicographic pair order, k square terms.
    """

    _fields = (
        "factor_count", "intercept", "linear", "interactions", "squares",
        "r_squared", "residual_norm",
    )

    def __init__(
        self,
        factor_count: int,
        intercept: float,
        linear: np.ndarray,
        interactions: np.ndarray,
        squares: np.ndarray,
        r_squared: float,
        residual_norm: float,
    ) -> None:
        self.__dict__.update(
            factor_count=factor_count, intercept=intercept,
            linear=frozen_array(linear), interactions=frozen_array(interactions),
            squares=frozen_array(squares), r_squared=r_squared, residual_norm=residual_norm,
        )

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
    k = points.shape[1]
    x = _design_matrix(points, k)
    n_coef = x.shape[1]
    if np.linalg.matrix_rank(x) < n_coef:
        raise NumericError(
            "design matrix is rank-deficient; the full quadratic is not identifiable"
        )
    coef, _, _, _ = np.linalg.lstsq(x, y, rcond=None)
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
        residual_norm=ss_res**0.5,
    )


class SurfaceExtrema(Record):
    """Box-constrained extrema of a quadratic surface and response ranges.

    ``span`` is the absolute response range max - min; relative ranges
    divide a span by the absolute response at the box center (infinite
    when the center response is zero). Per-factor entries vary one
    factor with the others held at center.
    """

    _fields = (
        "min_point", "min_value", "max_point", "max_value", "baseline", "span",
        "per_factor_span", "per_factor_range", "joint_range",
    )

    def __init__(
        self,
        min_point: np.ndarray,
        min_value: float,
        max_point: np.ndarray,
        max_value: float,
        baseline: float,
        span: float,
        per_factor_span: np.ndarray,
        per_factor_range: np.ndarray,
        joint_range: float,
    ) -> None:
        self.__dict__.update(
            min_point=frozen_array(min_point), min_value=min_value,
            max_point=frozen_array(max_point), max_value=max_value, baseline=baseline, span=span,
            per_factor_span=frozen_array(per_factor_span),
            per_factor_range=frozen_array(per_factor_range), joint_range=joint_range,
        )


_BOUND_TOL = 1e-12


def _box_candidates(
    surface: QuadraticSurface,
    lows: np.ndarray,
    highs: np.ndarray,
    free_mask: np.ndarray,
    fixed_point: np.ndarray,
) -> list[np.ndarray]:
    """Candidate extremum points on one face given which coordinates float."""
    k = surface.factor_count
    free = np.flatnonzero(free_mask)
    if free.size == 0:
        return [fixed_point.copy()]
    h = surface.hessian()
    g0 = surface.linear
    fixed = np.flatnonzero(~free_mask)
    # Stationary point of the quadratic restricted to the free coordinates.
    rhs = -(g0[free] + h[np.ix_(free, fixed)] @ fixed_point[fixed])
    try:
        sol = np.linalg.solve(h[np.ix_(free, free)], rhs)
    except np.linalg.LinAlgError:
        return []
    point = fixed_point.copy()
    point[free] = sol
    inside = np.all(point[free] >= lows[free] - _BOUND_TOL) and np.all(
        point[free] <= highs[free] + _BOUND_TOL
    )
    if not inside:
        return []
    point[free] = np.clip(point[free], lows[free], highs[free])
    return [point]


def surface_extrema(
    surface: QuadraticSurface,
    box: Sequence[tuple[float, float]],
) -> SurfaceExtrema:
    """Exact box-constrained extrema by stationary-point and face enumeration.

    Every way of pinning a subset of coordinates to a bound is
    enumerated; the quadratic restricted to the remaining coordinates
    is solved for its stationary point and kept when it falls inside
    the box. This is exact for quadratics and needs no iterative
    optimizer. Surfaces with singular (sub-)Hessians, e.g. purely
    additive ones, simply contribute no interior candidates and resolve
    on the box corners.
    """
    k = surface.factor_count
    bounds = np.asarray(box, dtype=float)
    if bounds.shape != (k, 2):
        raise ValidationError(f"box must give (low, high) for each of {k} factors")
    lows, highs = bounds[:, 0], bounds[:, 1]
    if np.any(lows > highs):
        raise ValidationError("box has low > high")

    candidates: list[np.ndarray] = []
    for combo in itertools.product((0, 1, 2), repeat=k):
        fixed_point = np.zeros(k)
        free_mask = np.zeros(k, dtype=bool)
        for i, state in enumerate(combo):
            if state == 0:
                fixed_point[i] = lows[i]
            elif state == 1:
                fixed_point[i] = highs[i]
            else:
                free_mask[i] = True
        candidates.extend(
            _box_candidates(surface, lows, highs, free_mask, fixed_point)
        )

    values = np.array([surface.evaluate_one(p) for p in candidates])
    i_min = int(np.argmin(values))
    i_max = int(np.argmax(values))
    span = float(values[i_max] - values[i_min])

    center = (lows + highs) / 2.0
    baseline = surface.evaluate_one(center)

    def relative(value: float) -> float:
        return value / abs(baseline) if baseline != 0.0 else float("inf")

    per_factor_span = np.empty(k)
    for i in range(k):
        sub_candidates = [center.copy()]
        for bound in (lows[i], highs[i]):
            p = center.copy()
            p[i] = bound
            sub_candidates.append(p)
        # Interior 1-D stationary point along axis i.
        mask = np.zeros(k, dtype=bool)
        mask[i] = True
        sub_candidates.extend(_box_candidates(surface, lows, highs, mask, center.copy()))
        vals = np.array([surface.evaluate_one(p) for p in sub_candidates])
        per_factor_span[i] = vals.max() - vals.min()

    return SurfaceExtrema(
        min_point=candidates[i_min],
        min_value=float(values[i_min]),
        max_point=candidates[i_max],
        max_value=float(values[i_max]),
        baseline=baseline,
        span=span,
        per_factor_span=per_factor_span,
        per_factor_range=np.array([relative(s) for s in per_factor_span]),
        joint_range=relative(span),
    )
