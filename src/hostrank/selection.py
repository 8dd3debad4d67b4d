"""Candidate screening, suitability scoring, ranking, scheme comparison, SWOT.

Screening runs in stages: a coarse cut on national GDP and sports
standing, then for winter events a hard climate gate (forecast February
mean temperature below 0 C and at least 30 cm of February snowfall,
with an ideal band of -17..-10 C), or for summer events a cut on the
sports score. Survivors are separated by a suitability score

    total = s_base + s_evaluate,

where s_evaluate is the feature-weighted evaluation score of the city's
min-max scaled feature values. Scheme comparison aggregates a 1/3/5/7/9
impact grade per feature with the same feature weights.
"""

from __future__ import annotations

import warnings
from enum import IntEnum
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._record import Record, frozen_array
from .combining import FeatureSelection, score_rows
from .errors import ConfigError, ValidationError
from .grey import TimeSeries, climate_series, forecast_value
from .indicators import IndicatorHierarchy, IndicatorId, Polarity

__all__ = [
    "FEB_TEMP",
    "FEB_SNOW",
    "CityProfile",
    "ClimateRequirement",
    "ClimateAssessment",
    "SuitabilityScore",
    "ImpactScale",
    "SchemePlan",
    "SchemeComparison",
    "SwotRecord",
    "Cutoff",
    "FeatureScaler",
    "screen_candidates",
    "winter_climate_filter",
    "scale_cities",
    "score_cities",
    "rank_cities",
    "compare_schemes",
    "swot_report",
]

#: Keys of the climate series used by the winter gate.
FEB_TEMP = "feb_temp_c"
FEB_SNOW = "feb_snow_cm"


class CityProfile(Record):
    """Everything known about one candidate city."""

    _fields = ("name", "country", "gdp", "sports_score", "climate", "indicators")

    def __init__(
        self,
        name: str,
        country: str,
        gdp: float,
        sports_score: float,
        climate: Mapping[str, TimeSeries] = {},  # copied, so the default is never changed
        indicators: Mapping[IndicatorId, float] = {},
    ) -> None:
        self.__dict__.update(
            name=name, country=country, gdp=gdp, sports_score=sports_score,
            climate=dict(climate), indicators=dict(indicators),
        )

    @property
    def key(self) -> tuple[str, str]:
        return (self.name, self.country)


class ClimateRequirement(Record):
    """Hard winter thresholds; the ideal band must sit below the temperature cap."""

    _fields = ("max_feb_temp", "ideal_temp_range", "min_feb_snow")

    def __init__(
        self,
        max_feb_temp: float = 0.0,
        ideal_temp_range: tuple[float, float] = (-17.0, -10.0),
        min_feb_snow: float = 30.0,
    ) -> None:
        lo, hi = map(float, ideal_temp_range)
        self.__dict__.update(
            max_feb_temp=max_feb_temp, ideal_temp_range=(lo, hi), min_feb_snow=min_feb_snow
        )
        if not lo <= hi:
            raise ValidationError(f"ideal temperature range reversed: ({lo}, {hi})")
        if hi >= max_feb_temp:
            raise ValidationError(
                "ideal temperature range must lie below the maximum temperature"
            )


class ClimateAssessment(Record):
    """Winter-gate outcome for one city at the forecast horizon."""

    _fields = ("city", "feb_temp", "feb_snow", "passed", "ideal")

    def __init__(
        self, city: CityProfile, feb_temp: float, feb_snow: float, passed: bool, ideal: bool
    ) -> None:
        self.__dict__.update(
            city=city, feb_temp=feb_temp, feb_snow=feb_snow, passed=passed, ideal=ideal
        )


class SuitabilityScore(Record):
    """Score decomposition; the total is the exact sum of its parts.

    ``scaled`` holds the scaled feature values that ``s_evaluate`` weighs,
    in feature-group order, when the score was computed from them.
    """

    _fields = ("s_base", "s_evaluate", "scaled", "total")

    def __init__(self, s_base: float, s_evaluate: float, scaled: tuple[float, ...] = ()) -> None:
        self.__dict__.update(
            s_base=s_base, s_evaluate=s_evaluate, scaled=scaled, total=s_base + s_evaluate
        )


class ImpactScale(IntEnum):
    """Five-level impact grade; only the odd values exist."""

    NO_EFFECT = 1
    SLIGHTLY_FAVORABLE = 3
    QUITE_FAVORABLE = 5
    EXTREMELY_FAVORABLE = 7
    ABSOLUTELY_FAVORABLE = 9


class SchemePlan(Record):
    """A hosting scheme, named by a free-form id, and its per-feature impact grades."""

    _fields = ("id", "description", "impacts")

    def __init__(
        self, id: str, description: str, impacts: Mapping[IndicatorId, ImpactScale]
    ) -> None:
        self.__dict__.update(
            id=id,
            description=description,
            impacts={k: ImpactScale(v) for k, v in dict(impacts).items()},
        )


class SchemeComparison(Record):
    """Aggregate impact of one plan plus its per-feature contributions."""

    _fields = ("plan", "aggregate", "contributions")

    def __init__(
        self, plan: SchemePlan, aggregate: float, contributions: dict[IndicatorId, float]
    ) -> None:
        self.__dict__.update(plan=plan, aggregate=aggregate, contributions=contributions)


class SwotRecord(Record):
    """Structured qualitative entries for one city; never derived, only stored."""

    _fields = ("city", "strengths", "weaknesses", "opportunities", "threats")

    def __init__(
        self,
        city: str,
        strengths: tuple[str, ...] = (),
        weaknesses: tuple[str, ...] = (),
        opportunities: tuple[str, ...] = (),
        threats: tuple[str, ...] = (),
    ) -> None:
        self.__dict__.update(
            city=city,
            strengths=tuple(strengths),
            weaknesses=tuple(weaknesses),
            opportunities=tuple(opportunities),
            threats=tuple(threats),
        )


class Cutoff(Record):
    """A screening cutoff: keep the best N (rank) or everything >= v (value)."""

    _fields = ("kind", "amount")

    def __init__(self, kind: str, amount: float) -> None:
        if kind not in ("rank", "value"):
            raise ConfigError(f"unknown cutoff kind {kind!r}")
        if kind == "rank" and amount < 1:
            raise ConfigError("rank cutoff must be at least 1")
        self.__dict__.update(kind=kind, amount=amount)

    @classmethod
    def rank(cls, n: int) -> "Cutoff":
        return cls("rank", float(n))

    @classmethod
    def value(cls, v: float) -> "Cutoff":
        return cls("value", float(v))


def _check_unique(cities: Sequence[CityProfile]) -> None:
    """Reject a pool that names one city (name and country) twice."""
    keys = [c.key for c in cities]
    if len(set(keys)) != len(keys):
        seen: set = set()  # set.add returns None, so next() stops at the first repeat
        dup = next(k for k in keys if k in seen or seen.add(k))
        raise ValidationError(f"duplicate city {dup[0]!r} ({dup[1]}) in pool")


def _ranks(pool: Sequence[CityProfile], metric) -> dict[tuple[str, str], int]:
    ordered = sorted(pool, key=lambda c: (-metric(c), c.name, c.country))
    return {c.key: i + 1 for i, c in enumerate(ordered)}


def screen_candidates(
    pool: Sequence[CityProfile],
    gdp_cutoff: Cutoff,
    sports_cutoff: Cutoff,
) -> list[CityProfile]:
    """First-stage screen on GDP and sports standing.

    Cities passing both cutoffs are returned stable-sorted by combined
    rank (GDP rank plus sports rank, names breaking ties). An
    over-tight cutoff yields an empty list with a warning rather than
    an error.
    """
    if not pool:
        raise ValidationError("candidate pool is empty")
    _check_unique(pool)

    gdp_rank = _ranks(pool, lambda c: c.gdp)
    sports_rank = _ranks(pool, lambda c: c.sports_score)

    def passes(city: CityProfile, cutoff: Cutoff, rank: int, value: float) -> bool:
        if cutoff.kind == "rank":
            return rank <= cutoff.amount
        return value >= cutoff.amount

    survivors = [
        c
        for c in pool
        if passes(c, gdp_cutoff, gdp_rank[c.key], c.gdp)
        and passes(c, sports_cutoff, sports_rank[c.key], c.sports_score)
    ]
    if not survivors:
        warnings.warn("screening cutoffs exclude every city", stacklevel=2)
        return []
    survivors.sort(key=lambda c: (gdp_rank[c.key] + sports_rank[c.key], c.name, c.country))
    return survivors


def winter_climate_filter(
    cities: Sequence[CityProfile],
    requirement: ClimateRequirement,
    until: int,
) -> list[ClimateAssessment]:
    """Grey-forecast each city's February climate to ``until`` and gate it.

    Pass requires forecast mean temperature strictly below the cap and
    snowfall at or above the minimum; the ideal flag additionally needs
    the temperature inside the ideal band.
    """
    out: list[ClimateAssessment] = []
    for city in cities:
        temp = forecast_value(climate_series(city, FEB_TEMP), until)
        snow = forecast_value(climate_series(city, FEB_SNOW), until)
        passed = temp < requirement.max_feb_temp and snow >= requirement.min_feb_snow
        lo, hi = requirement.ideal_temp_range
        ideal = passed and lo <= temp <= hi
        out.append(
            ClimateAssessment(
                city=city, feb_temp=temp, feb_snow=snow,
                passed=passed, ideal=ideal,
            )
        )
    return out


class FeatureScaler(Record):
    """Min-max scaling of feature values across the set of compared cities.

    Positive-polarity features map their observed range onto [0, 1];
    negative ones are flipped so that less is better. A feature with no
    spread across the set carries no ranking information and scales to
    a neutral 0.5.
    """

    _fields = ("ids", "mins", "maxs", "flip")

    def __init__(
        self, ids: tuple[IndicatorId, ...], mins: np.ndarray, maxs: np.ndarray, flip: np.ndarray
    ) -> None:
        self.__dict__.update(
            ids=ids,
            mins=frozen_array(mins, dtype=None),
            maxs=frozen_array(maxs, dtype=None),
            flip=frozen_array(flip, dtype=None),
        )

    @classmethod
    def fit(
        cls,
        cities: Sequence[CityProfile],
        ids: Sequence[IndicatorId],
        hierarchy: IndicatorHierarchy,
    ) -> "FeatureScaler":
        grid = _feature_grid([c.indicators for c in cities], [c.name for c in cities], ids)
        return cls.from_values(grid, ids, hierarchy)

    @classmethod
    def from_values(
        cls,
        values: np.ndarray,
        ids: Sequence[IndicatorId],
        hierarchy: IndicatorHierarchy,
    ) -> "FeatureScaler":
        """Fit on a (cities x features) array whose columns follow ``ids``."""
        grid = np.asarray(values, dtype=float)
        if grid.ndim != 2 or grid.shape[1] != len(ids):
            raise ValidationError(
                f"value array of shape {grid.shape} does not have {len(ids)} feature columns"
            )
        if grid.shape[0] == 0:
            raise ValidationError("cannot fit a scaler on an empty city set")
        flip = np.array(
            [hierarchy.spec(i).polarity is Polarity.NEGATIVE for i in ids]
        )
        return cls(
            ids=tuple(ids),
            mins=grid.min(axis=0),
            maxs=grid.max(axis=0),
            flip=flip,
        )

    def transform(self, city: CityProfile) -> np.ndarray:
        return self.transform_values(_feature_grid([city.indicators], [city.name], self.ids)[0])

    def transform_values(self, values: np.ndarray) -> np.ndarray:
        """Scale raw values whose last axis follows ``ids``; any leading shape."""
        span = self.maxs - self.mins
        with np.errstate(invalid="ignore", divide="ignore"):
            scaled = np.where(span > 0, (values - self.mins) / span, 0.5)
        scaled = np.clip(scaled, 0.0, 1.0)
        return np.where(self.flip & (span > 0), 1.0 - scaled, scaled)


def _feature_grid(
    rows: Sequence[Mapping[IndicatorId, float]],
    names: Sequence[str],
    ids: Sequence[IndicatorId],
) -> np.ndarray:
    """Raw (cities x features) values from each city's indicator map, named by ``names``."""
    try:
        grid = [[row[i] for i in ids] for row in rows]
    except KeyError as exc:
        name = next(n for n, row in zip(names, rows) if exc.args[0] not in row)
        raise ValidationError(
            f"city {name!r} is missing a value for feature {exc.args[0]}"
        ) from None
    # The reshape keeps an empty city set 2-D, so the fit reports it as empty.
    return np.array(grid, dtype=float).reshape(len(rows), len(ids))


def scale_cities(
    cities: Sequence[CityProfile],
    ids: Sequence[IndicatorId],
    hierarchy: IndicatorHierarchy,
) -> np.ndarray:
    """Every city's features min-max scaled across the set, one row per city."""
    grid = _feature_grid([c.indicators for c in cities], [c.name for c in cities], ids)
    return FeatureScaler.from_values(grid, ids, hierarchy).transform_values(grid)


def score_cities(
    cities: Sequence[CityProfile],
    s_base: Mapping[str, float],
    selection: FeatureSelection,
    hierarchy: IndicatorHierarchy,
    *,
    default_base: float | None = None,
) -> list[tuple[CityProfile, SuitabilityScore]]:
    """Score every city against the others, scaling features across the set."""
    scaled = scale_cities(cities, selection.ids, hierarchy)
    chi = score_rows(selection.gamma, scaled)
    out = []
    for city, xi, s_evaluate in zip(cities, scaled.tolist(), chi.tolist()):
        if city.name in s_base:
            base = float(s_base[city.name])
        elif default_base is not None:
            base = float(default_base)
        else:
            raise ConfigError(f"no base score configured for city {city.name!r}")
        score = SuitabilityScore(s_base=base, s_evaluate=s_evaluate, scaled=tuple(xi))
        out.append((city, score))
    return out


def rank_cities(
    scores: Iterable[tuple[CityProfile | str, SuitabilityScore]],
) -> list[tuple[CityProfile | str, SuitabilityScore]]:
    """Order by descending total; equal totals fall back to alphabetical names."""
    entries = list(scores)
    if not entries:
        raise ValidationError("nothing to rank")

    def name_of(c) -> str:
        return c if isinstance(c, str) else c.name

    return sorted(entries, key=lambda e: (-e[1].total, name_of(e[0])))


def compare_schemes(
    plans: Sequence[SchemePlan],
    selection: FeatureSelection,
) -> list[SchemeComparison]:
    """Aggregate impact of each plan over the feature group, best first.

    Every plan must grade exactly the selected features; the aggregate
    is the feature-weighted sum of its grades, so an all-ones plan
    scores 1 and an all-nines plan scores 9.
    """
    results = []
    wanted = set(selection.ids)
    for plan in plans:
        have = set(plan.impacts)
        missing = wanted - have
        extra = have - wanted
        if missing or extra:
            parts = []
            if missing:
                parts.append("missing " + ", ".join(str(i) for i in sorted(missing)))
            if extra:
                parts.append("extraneous " + ", ".join(str(i) for i in sorted(extra)))
            raise ValidationError(
                f"plan {plan.id} impacts do not cover the feature group: "
                + "; ".join(parts)
            )
        contributions = {
            ind: float(g) * float(plan.impacts[ind])
            for ind, g in zip(selection.ids, selection.gamma)
        }
        results.append(
            SchemeComparison(
                plan=plan,
                aggregate=float(sum(contributions.values())),
                contributions=contributions,
            )
        )
    results.sort(key=lambda r: (-r.aggregate, r.plan.id))
    return results


def swot_report(records: Sequence[SwotRecord]) -> str:
    """Render stored SWOT entries; pure passthrough, no computation."""
    sections = []
    for rec in records:
        lines = [f"== {rec.city} =="]
        for title, items in (
            ("Strengths", rec.strengths),
            ("Weaknesses", rec.weaknesses),
            ("Opportunities", rec.opportunities),
            ("Threats", rec.threats),
        ):
            lines.append(f"{title}:")
            lines.extend(f"  - {item}" for item in items)
        sections.append("\n".join(lines))
    return "\n\n".join(sections) + ("\n" if sections else "")
