"""Loaders for the file formats consumed by the CLI.

Formats are documented in docs/data-format.md: JSON for structured
inputs (hierarchy, judgment matrices, city pools with embedded series,
plans, SWOT records), delimiter-separated text for flat tables
(decision matrix, simple pools, climate observations).
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import IO, Any, Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigError, ValidationError
from .grey import TimeSeries
from .indicators import IndicatorId, _csv_errors, _json_document, _malformed, _read_text
from .selection import CityProfile, ClimateRequirement, SchemePlan, SwotRecord, _check_unique

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
        if not isinstance(obj, dict):
            raise ValidationError("judgments file must map level names to nested arrays")
        return {str(k): v for k, v in obj.items()}


def _series_from_obj(label: str, entry: Mapping) -> TimeSeries:
    return TimeSeries(
        label=label,
        start_period=int(entry["start_period"]),
        values=entry["values"],
    )


def load_pool(source: str | Path | IO[str]) -> list[CityProfile]:
    """Load a city pool from JSON (rich profiles) or CSV (flat metrics)."""
    text = _read_text(source)
    if text.lstrip()[:1] == "{":
        return _pool_from_json(text)
    return _pool_from_csv(text)


def _pool_from_json(text: str) -> list[CityProfile]:
    with _json_document(text, "pool file") as obj:
        entries = obj.get("cities")
    if not isinstance(entries, list):
        raise ValidationError('pool file must hold a "cities" list')
    cities = []
    ids_by_keys: dict[tuple, tuple[IndicatorId, ...]] = {}
    for pos, entry in enumerate(entries, start=1):
        with _malformed(f"pool city #{pos}"):
            cities.append(_city_from_obj(entry, ids_by_keys))
    _check_unique(cities)
    return cities


def _city_from_obj(
    entry: Mapping, ids_by_keys: dict[tuple, tuple[IndicatorId, ...]]
) -> CityProfile:
    climate = {
        str(var): _series_from_obj(f"{entry['name']}/{var}", series)
        for var, series in entry.get("climate", {}).items()
    }
    indicators = _indicators_from_obj(entry.get("indicators", {}), ids_by_keys)
    return CityProfile(
        name=str(entry["name"]),
        country=str(entry.get("country", "")),
        gdp=float(entry.get("gdp", 0.0)),
        sports_score=float(entry.get("sports_score", 0.0)),
        climate=climate,
        indicators=indicators,
    )


def _indicators_from_obj(
    raw: Mapping, ids_by_keys: dict[tuple, tuple[IndicatorId, ...]]
) -> dict[IndicatorId, float]:
    """A city's indicator values; ``ids_by_keys`` keeps the parsed ids of each key tuple seen.

    The cities of a pool mostly list the same keys, so each tuple is parsed once per pool.
    """
    items = raw.items()
    keys = tuple(raw)
    if keys not in ids_by_keys:
        try:
            ids_by_keys[keys] = tuple(map(IndicatorId.parse, keys))
        except ValidationError:
            # Entry by entry, so that a bad value before the bad key is reported first.
            return {IndicatorId.parse(k): float(v) for k, v in items}
    return dict(zip(ids_by_keys[keys], map(float, raw.values())))


def _full_rows(reader: csv.DictReader) -> Iterator[dict[str, str]]:
    """The reader's rows; a row shorter than the header (padded with None) is an error."""
    width = len(reader.fieldnames)
    for row in reader:
        if None in row.values():
            cells = list(row.values())
            raise ValidationError(
                f"column count mismatch at row {cells[0]!r}: "
                f"expected {width}, got {width - cells.count(None)}"
            )
        yield row


@_csv_errors("pool file")
def _pool_from_csv(text: str) -> list[CityProfile]:
    reader = csv.DictReader(io.StringIO(text))
    required = {"name", "country", "gdp", "sports_score"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise ValidationError(
            f"pool file must have columns {sorted(required)}, "
            f"got {reader.fieldnames}"
        )
    cities = []
    for row in _full_rows(reader):
        try:
            cities.append(
                CityProfile(
                    name=row["name"].strip(),
                    country=row["country"].strip(),
                    gdp=float(row["gdp"]),
                    sports_score=float(row["sports_score"]),
                )
            )
        except ValueError as exc:
            raise ValidationError(
                f"bad numeric value in pool row {row['name']!r}: {exc}"
            ) from None
    _check_unique(cities)
    return cities


@_csv_errors("climate file")
def load_climate_csv(source: str | Path | IO[str]) -> dict[str, dict[str, TimeSeries]]:
    """Observations as rows (city, variable, period, value), assembled into series.

    Periods for each (city, variable) must form a contiguous run.
    """
    reader = csv.DictReader(io.StringIO(_read_text(source)))
    required = {"city", "variable", "period", "value"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise ValidationError(
            f"climate file must have columns {sorted(required)}, got {reader.fieldnames}"
        )
    buckets: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for row in _full_rows(reader):
        key = (row["city"].strip(), row["variable"].strip())
        try:
            buckets.setdefault(key, []).append(
                (int(row["period"]), float(row["value"]))
            )
        except ValueError as exc:
            raise ValidationError(f"bad climate row for {key}: {exc}") from None
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
            values=np.array([v for _, v in points]),
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


def load_plans(source: str | Path | IO[str]) -> list[SchemePlan]:
    """Hosting schemes with per-feature impact grades; ids are free-form, non-empty, unique."""
    with _json_document(_read_text(source), "plans file") as obj:
        plans = []
        for entry in obj["plans"]:
            plan_id = entry["id"]
            if not isinstance(plan_id, str) or not plan_id.strip():
                raise ValidationError(f"plan id must be a non-empty string, got {plan_id!r}")
            if any(p.id == plan_id for p in plans):
                raise ValidationError(f"duplicate plan id {plan_id!r} in plans file")
            impacts = {
                IndicatorId.parse(k): int(v) for k, v in entry["impacts"].items()
            }
            try:
                plans.append(
                    SchemePlan(
                        id=plan_id,
                        description=str(entry.get("description", "")),
                        impacts=impacts,
                    )
                )
            except ValueError as exc:
                raise ValidationError(f"bad plan entry {plan_id!r}: {exc}") from None
        if not plans:
            raise ValidationError("plans file lists no plans")
        return plans


def load_swot(source: str | Path | IO[str]) -> list[SwotRecord]:
    with _json_document(_read_text(source), "swot file") as obj:
        return [
            SwotRecord(
                city=str(e["city"]),
                strengths=tuple(e.get("strengths", ())),
                weaknesses=tuple(e.get("weaknesses", ())),
                opportunities=tuple(e.get("opportunities", ())),
                threats=tuple(e.get("threats", ())),
            )
            for e in obj["records"]
        ]


def load_requirement(block: Mapping[str, Any]) -> ClimateRequirement:
    """Winter climate requirement from its config block; None keeps a key's default.

    A key ClimateRequirement does not have, or an inconsistent range, is a config error.
    """
    try:
        return ClimateRequirement(**{k: v for k, v in block.items() if v is not None})
    except (TypeError, ValidationError) as exc:
        raise ConfigError(f"config key 'screen.winter.requirement': {exc}") from None
