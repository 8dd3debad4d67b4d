"""Tests for the file-format loaders."""

import io
import json
import re

import numpy as np
import pytest

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

    def test_duplicate_city_rejected(self):
        text = (
            "name,country,gdp,sports_score\n"
            "X,Y,1.0,1.0\n"
            "X,Y,2.0,2.0\n"
        )
        with pytest.raises(ValidationError, match="duplicate city"):
            load_pool(io.StringIO(text))


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
