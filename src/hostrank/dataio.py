"""Loaders for the file formats consumed by the CLI.

Formats are documented in docs/data-format.md: JSON for structured
inputs (hierarchy, judgment matrices, city pools with embedded series,
plans, SWOT records), delimiter-separated text for flat tables
(decision matrix, simple pools, climate observations).
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import IO, Any, Iterator, Mapping, Sequence

from .errors import ConfigError, ValidationError
from .grey import TimeSeries
from .indicators import (
    _INTEGER, _LIST, _NUMBER, _OBJECT, _STRING, _STRINGS, IndicatorId, _as_wide, _brief,
    _cell_number, _csv_lines, _expect, _json_document, _json_numbers, _malformed, _read_text,
)
from .selection import (
    CityProfile, ClimateRequirement, ImpactScale, SchemePlan, SwotRecord, _check_unique,
)

__all__ = [
    "load_judgments",
    "load_pool",
    "load_climate_csv",
    "merge_climate",
    "load_plans",
    "load_swot",
    "load_requirement",
]


def load_judgments(source: str | Path | IO[str]) -> dict[str, list[list[float]]]:
    """Judgment matrices keyed by level name ('primary' or a category letter)."""
    with _json_document(_read_text(source), "judgments file") as obj:
        return obj


def _series_from_obj(label: str, entry: Any) -> TimeSeries:
    quoted = _brief(label)
    _expect(entry, _OBJECT, f"series {quoted}")
    start = _expect(entry["start_period"], _INTEGER, f"start_period of {quoted}")
    values = _expect(entry["values"], _LIST, f"values of {quoted}")
    return TimeSeries(label, start, _json_numbers(values, f"value of {quoted}"))


def load_pool(source: str | Path | IO[str]) -> list[CityProfile]:
    """Load a city pool from JSON (rich profiles) or CSV (flat metrics)."""
    text = _read_text(source)
    if text.lstrip()[:1] in ("{", "["):
        return _pool_from_json(text)
    return _pool_from_csv(text)


def _pool_from_json(text: str) -> list[CityProfile]:
    with _json_document(text, "pool file") as obj:
        entries = _expect(obj["cities"], _LIST, "cities")
    cities: list[CityProfile] = []
    try:
        for entry in entries:
            cities.append(_finite(_city_from_obj(entry)))
    except (AttributeError, KeyError, TypeError, ValueError):
        # The failing city is the one after those loaded; _malformed words the error.
        with _malformed(f"pool city #{len(cities) + 1}"):
            raise
    _check_unique(cities)
    return cities


def _city_from_obj(entry: Any) -> CityProfile:
    _expect(entry, _OBJECT, "city")
    name = _expect(entry["name"], _STRING, "name")
    climate = {
        var: _series_from_obj(f"{name}/{var}", series)
        for var, series in _expect(entry.get("climate", {}), _OBJECT, "climate").items()
    }
    indicators = {}
    for k, v in _expect(entry.get("indicators", {}), _OBJECT, "indicators").items():
        ind = IndicatorId.parse(k)
        if ind in indicators:
            raise ValueError(f"indicators name {ind} twice")
        indicators[ind] = v if type(v) is float else float(_expect(v, _NUMBER, str(ind)))
    return CityProfile(
        name=name,
        country=_expect(entry.get("country", ""), _STRING, "country"),
        gdp=float(_expect(entry.get("gdp", 0.0), _NUMBER, "gdp")),
        sports_score=float(_expect(entry.get("sports_score", 0.0), _NUMBER, "sports_score")),
        climate=climate,
        indicators=indicators,
    )


def _finite(city: CityProfile) -> CityProfile:
    """``city``, unless its gdp, sports score or an indicator value is NaN or infinite."""
    # A NaN or an infinity makes the sum non-finite; so, rarely, do large finite values.
    if not math.isfinite(city.gdp + city.sports_score + sum(city.indicators.values())):
        numbers = {"gdp": city.gdp, "sports_score": city.sports_score, **city.indicators}
        for key, value in numbers.items():
            if not math.isfinite(value):
                raise ValidationError(
                    f"pool city {_brief(city.name)} has a non-finite {key}: {value!r}"
                )
    return city


def _csv_rows(text: str, required: set[str], what: str) -> Iterator[dict[str, str]]:
    """The non-blank rows of delimited ``text``, the file ``what``, keyed by its header's columns.

    The header must name the ``required`` columns, and every row must be
    as wide as the header.
    """
    with _malformed(what):
        rows = _csv_lines(text)
    header = rows[0] if rows else None
    if header is None or not required.issubset(header):
        raise ValidationError(f"{what} must have columns {sorted(required)}, got {_brief(header)}")
    for raw in rows[1:]:
        yield dict(zip(header, _as_wide(raw, len(header))))


def _pool_from_csv(text: str) -> list[CityProfile]:
    cities = []
    for row in _csv_rows(text, {"name", "country", "gdp", "sports_score"}, "pool file"):
        name = row["name"].strip()
        gdp, sports_score = (_cell_number(row[key], name, key) for key in ("gdp", "sports_score"))
        cities.append(_finite(CityProfile(name, row["country"].strip(), gdp, sports_score)))
    _check_unique(cities)
    return cities


def load_climate_csv(source: str | Path | IO[str]) -> dict[str, dict[str, TimeSeries]]:
    """Observations as rows (city, variable, period, value), assembled into series.

    Periods for each (city, variable) must form a contiguous run.
    """
    buckets: dict[tuple[str, str], list[tuple[int, float]]] = {}
    required = {"city", "variable", "period", "value"}
    for row in _csv_rows(_read_text(source), required, "climate file"):
        city = row["city"].strip()
        period = _cell_number(row["period"], city, "period", int)
        value = _cell_number(row["value"], city, "value")
        buckets.setdefault((city, row["variable"].strip()), []).append((period, value))
    out: dict[str, dict[str, TimeSeries]] = {}
    for (city, var), points in buckets.items():
        points.sort()
        periods = [p for p, _ in points]
        if periods != list(range(periods[0], periods[0] + len(periods))):
            raise ValidationError(
                f"climate series {city}/{var} has gaps or duplicate periods"
            )
        out.setdefault(city, {})[var] = TimeSeries(
            label=f"{city}/{var}",
            start_period=periods[0],
            values=[v for _, v in points],
        )
    return out


def merge_climate(
    cities: Sequence[CityProfile],
    climate: Mapping[str, Mapping[str, TimeSeries]],
) -> list[CityProfile]:
    """Attach externally loaded climate series, overriding embedded ones."""
    out = []
    for c in cities:
        extra = climate.get(c.name)
        if extra:
            c = CityProfile(
                c.name, c.country, c.gdp, c.sports_score, {**c.climate, **extra}, c.indicators
            )
        out.append(c)
    return out


# A plan id is free-form but not blank; a grade is a JSON integer that is an ImpactScale value.
_PLAN_ID = ("a non-empty string", lambda v: type(v) is str and v.strip() != "")
_GRADES = frozenset(ImpactScale)
_GRADE = (
    "one of " + ", ".join(str(g.value) for g in ImpactScale),
    lambda v: type(v) is int and v in _GRADES,
)


def load_plans(source: str | Path | IO[str]) -> list[SchemePlan]:
    """Hosting schemes with per-feature impact grades; ids are free-form, non-empty, unique."""
    with _json_document(_read_text(source), "plans file") as obj:
        plans, seen = [], set()
        for entry in _expect(obj["plans"], _LIST, "plans"):
            plan_id = _expect(_expect(entry, _OBJECT, "plans entry")["id"], _PLAN_ID, "plan id")
            quoted = _brief(plan_id)
            if plan_id in seen:
                raise ValidationError(f"duplicate plan id {quoted} in plans file")
            seen.add(plan_id)
            description = _expect(entry.get("description", ""), _STRING, f"description of {quoted}")
            impacts = {}
            for k, v in _expect(entry["impacts"], _OBJECT, f"impacts of {quoted}").items():
                ind = IndicatorId.parse(k)
                impacts[ind] = _expect(v, _GRADE, f"grade of {ind} in plan {quoted}")
            plans.append(SchemePlan(id=plan_id, description=description, impacts=impacts))
        if not plans:
            raise ValidationError("plans file lists no plans")
        return plans


def load_swot(source: str | Path | IO[str]) -> list[SwotRecord]:
    """SWOT records; each entry the file omits is empty."""
    with _json_document(_read_text(source), "swot file") as obj:
        records = []
        for pos, entry in enumerate(_expect(obj["records"], _LIST, "records"), start=1):
            _expect(entry, _OBJECT, f"record #{pos}")
            city = _expect(entry["city"], _STRING, f"city of record #{pos}")
            lists = [
                _expect(entry.get(key, []), _STRINGS, f"{key} of {_brief(city)}")
                for key in SwotRecord._fields[1:]
            ]
            records.append(SwotRecord(city, *lists))
        return records


def load_requirement(block: Mapping[str, Any]) -> ClimateRequirement:
    """Winter climate requirement from its config block; None keeps a key's default.

    An inconsistent range is a config error.
    """
    try:
        return ClimateRequirement(**{k: v for k, v in block.items() if v is not None})
    except ValidationError as exc:
        raise ConfigError(f"config key 'screen.winter.requirement': {exc}") from None
