"""Tests for the file-format loaders."""

import io
import json
import re

import numpy as np
import pytest

from hostrank import dataio
from hostrank.dataio import (
    load_climate_csv,
    load_judgments,
    load_plans,
    load_pool,
    load_requirement,
    load_swot,
    merge_climate,
)
from hostrank.errors import ConfigError, ValidationError
from hostrank.indicators import IndicatorId


class TestLoadPool:
    def test_csv_pool(self, fixtures_dir):
        pool = load_pool(fixtures_dir / "world_pool.csv")
        assert len(pool) == 60
        beijing = next(c for c in pool if c.name == "Beijing")
        assert beijing.country == "China"
        assert beijing.sports_score > 0

    def test_json_pool_with_series_and_indicators(self, fixtures_dir):
        pool = load_pool(fixtures_dir / "winter_pool.json")
        assert len(pool) == 12
        calgary = next(c for c in pool if c.name == "Calgary")
        assert set(calgary.climate) == {"feb_temp_c", "feb_snow_cm"}
        assert calgary.climate["feb_temp_c"].start_period == 2015
        assert len(calgary.indicators) == 30

    def test_missing_columns_rejected(self):
        with pytest.raises(ValidationError, match="columns"):
            load_pool(io.StringIO("name,gdp\nX,1.0\n"))

    def test_bad_number_names_the_row(self):
        text = "name,country,gdp,sports_score\nX,Y,abc,1.0\n"
        with pytest.raises(ValidationError, match="'X'"):
            load_pool(io.StringIO(text))

    @pytest.mark.parametrize(
        "load, text, what",
        [
            (load_pool, "name,country,gdp,sports_score\nOs\rlo,NO,1,2\n", "pool file"),
            (load_climate_csv, "city,variable,period,value\nOs\rlo,feb_temp_c,2015,-1\n",
             "climate file"),
        ],
        ids=["pool", "climate"],
    )
    def test_lone_carriage_return_in_a_stream_is_a_validation_error(self, load, text, what):
        with pytest.raises(ValidationError, match=f"^{what} is not valid CSV: new-line"):
            load(io.StringIO(text))

    def test_duplicate_city_rejected(self):
        text = (
            "name,country,gdp,sports_score\n"
            "X,Y,1.0,1.0\n"
            "X,Y,2.0,2.0\n"
        )
        with pytest.raises(ValidationError, match="duplicate city"):
            load_pool(io.StringIO(text))


def _per_entry_indicators(raw, ids_by_keys):
    """The parse every pool city had before ids were kept per key tuple."""
    return {IndicatorId.parse(k): float(v) for k, v in raw.items()}


def _pool_outcome(text):
    try:
        return [(c.name, list(c.indicators.items())) for c in load_pool(io.StringIO(text))]
    except ValidationError as exc:
        return str(exc)


def _cities(*indicator_maps):
    return [{"name": f"c{i}", "indicators": m} for i, m in enumerate(indicator_maps)]


class TestPoolIndicatorKeys:
    @pytest.mark.parametrize(
        "cities",
        [
            _cities({"A1": 1, "A2": 2}, {"A2": 3, "A1": 4}, {"A1": 5, "A2": 6}, {}, {"A2": 7}),
            _cities({" A1 ": 1, "B7": 2.5}, {"A1": 1, " A1": 2}, {" A1 ": 3, "B7": "4"}),
            _cities({"A1": 1}, {"A1": "x", "Z9": 1}),
            _cities({"A1": 1}, {"Z9": 1, "A1": "x"}),
            _cities({"A1": 1, "A2": 2}, {"A1": 3, "A2": None}),
            _cities({"A1": 1}, {"A9": 1}),
            _cities({"A1": 1}, ["A1"]),
            _cities({"A1": 1}, "A1"),
        ],
        ids=[
            "orders and subsets", "padded keys", "bad value before unknown id",
            "unknown id before bad value", "bad value in a known tuple", "index out of range",
            "list of keys", "string",
        ],
    )
    def test_cities_match_the_per_entry_parse(self, cities, monkeypatch):
        text = json.dumps({"cities": cities})
        got = _pool_outcome(text)
        monkeypatch.setattr(dataio, "_indicators_from_obj", _per_entry_indicators)
        assert got == _pool_outcome(text)

    def test_fixture_pool_matches_the_per_entry_parse(self, fixtures_dir, monkeypatch):
        text = (fixtures_dir / "winter_pool.json").read_text()
        got = _pool_outcome(text)
        assert len(got) == 12 and all(len(indicators) == 30 for _, indicators in got)
        monkeypatch.setattr(dataio, "_indicators_from_obj", _per_entry_indicators)
        assert got == _pool_outcome(text)


class TestClimateCsv:
    def test_sample_file_assembles_series(self, fixtures_dir):
        climate = load_climate_csv(fixtures_dir / "climate_sample.csv")
        assert set(climate) == {"Calgary"}
        temp = climate["Calgary"]["feb_temp_c"]
        assert temp.start_period == 2015
        assert len(temp) == 6

    def test_gapped_periods_rejected(self):
        text = (
            "city,variable,period,value\n"
            "X,feb_temp_c,2015,-1.0\n"
            "X,feb_temp_c,2017,-1.1\n"
        )
        with pytest.raises(ValidationError, match="gaps"):
            load_climate_csv(io.StringIO(text))

    def test_merge_overrides_embedded_series(self, fixtures_dir):
        pool = load_pool(fixtures_dir / "winter_pool.json")
        climate = load_climate_csv(fixtures_dir / "climate_sample.csv")
        merged = merge_climate(pool, climate)
        calgary = next(c for c in merged if c.name == "Calgary")
        assert np.array_equal(
            calgary.climate["feb_temp_c"].values,
            climate["Calgary"]["feb_temp_c"].values,
        )
        # untouched cities keep their embedded series
        moscow_before = next(c for c in pool if c.name == "Moscow")
        moscow_after = next(c for c in merged if c.name == "Moscow")
        assert np.array_equal(
            moscow_before.climate["feb_snow_cm"].values,
            moscow_after.climate["feb_snow_cm"].values,
        )


class TestPlansAndSwot:
    def test_fixture_plans(self, fixtures_dir):
        plans = load_plans(fixtures_dir / "plans.json")
        assert [p.id for p in plans] == ["Original", "A", "B", "C", "D"]
        original = plans[0]
        assert all(int(v) == 1 for v in original.impacts.values())

    def test_even_grade_rejected(self):
        text = json.dumps(
            {"plans": [{"id": "A", "impacts": {"A1": 4}}]}
        )
        with pytest.raises(ValidationError, match="bad plan"):
            load_plans(io.StringIO(text))

    @pytest.mark.parametrize(
        "ids, message",
        [
            (["A", "B", "A"], "duplicate plan id 'A'"),
            (["A", ""], "plan id must be a non-empty string, got ''"),
            (["  "], "plan id must be a non-empty string"),
            ([7], "plan id must be a non-empty string, got 7"),
        ],
    )
    def test_duplicate_or_empty_plan_id_rejected(self, ids, message):
        text = json.dumps({"plans": [{"id": i, "impacts": {"A1": 5}} for i in ids]})
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_plans(io.StringIO(text))

    def test_fixture_swot(self, fixtures_dir):
        records = load_swot(fixtures_dir / "swot.json")
        assert {r.city for r in records} == {"Beijing", "Los Angeles", "Paris", "London"}
        assert all(r.strengths and r.threats for r in records)


class TestJudgmentsAndRequirement:
    def test_fixture_judgments_have_all_levels(self, fixtures_dir):
        judgments = load_judgments(fixtures_dir / "judgments.json")
        assert set(judgments) == {"primary", "A", "B", "C", "D", "E"}
        assert len(judgments["primary"]) == 5

    def test_non_object_judgments_rejected(self):
        with pytest.raises(ValidationError, match="level names"):
            load_judgments(io.StringIO("[1, 2, 3]"))

    def test_requirement_defaults_and_overrides(self):
        for absent in ({}, {"max_feb_temp": None, "ideal_temp_range": None}):
            default = load_requirement(absent)
            assert default.max_feb_temp == 0.0
            assert default.ideal_temp_range == (-17.0, -10.0)
            assert default.min_feb_snow == 30.0
        custom = load_requirement(
            {"max_feb_temp": -2.0, "ideal_temp_range": [-20, -15], "min_feb_snow": 40}
        )
        assert custom.ideal_temp_range == (-20.0, -15.0)
        assert all(type(v) is float for v in custom.ideal_temp_range)
        assert custom.min_feb_snow == 40.0

    @pytest.mark.parametrize(
        "block, message",
        [
            ({"max_feb_snow": 30.0}, "unexpected keyword argument 'max_feb_snow'"),
            ({"ideal_temp_range": [-10, -17]}, "ideal temperature range reversed"),
            ({"max_feb_temp": -20.0}, "must lie below the maximum temperature"),
        ],
    )
    def test_malformed_requirement_is_a_config_error(self, block, message):
        with pytest.raises(ConfigError, match="screen.winter.requirement") as err:
            load_requirement(block)
        assert message in str(err.value)
