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
from hostrank.indicators import (
    IndicatorId, _brief, all_indicator_ids, load_decision_matrix, load_hierarchy,
)
from hostrank.selection import SwotRecord


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

    def test_path_too_long_to_open_is_a_config_error(self, tmp_path):
        path = tmp_path / ("p" * 5_000)
        message = f"cannot read {_brief(str(path))}: File name too long"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_pool(path)

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

    @pytest.mark.parametrize(
        "load, text, got",
        [
            (load_pool, "name,country,gdp,sports_score\nOslo,Norway,1.0\n", 3),
            (load_pool, "name,country,gdp,sports_score\nOslo,Norway,1.0,2.0,extra\n", 5),
            (load_climate_csv, "city,variable,period,value\nOslo,feb_temp_c\n", 2),
            (load_climate_csv, "city,variable,period,value\nOslo,feb_temp_c,2015,-1,x,y\n", 6),
        ],
        ids=["pool-short", "pool-long", "climate-short", "climate-long"],
    )
    def test_row_not_as_wide_as_the_header_is_a_validation_error(self, load, text, got):
        message = f"^column count mismatch at row 'Oslo': expected 4, got {got}$"
        with pytest.raises(ValidationError, match=message):
            load(io.StringIO(text))

    @pytest.mark.parametrize(
        "load, text, message",
        [
            (load_pool, "name,country,gdp,sports_score\nOslo,Norway,abc,1.0\n",
             "non-numeric cell 'abc' at row 'Oslo', column gdp"),
            (load_pool, "name,country,gdp,sports_score\n Oslo ,Norway,1.0, \n",
             "non-numeric cell '' at row 'Oslo', column sports_score"),
            (load_climate_csv, "city,variable,period,value\nOslo,feb_temp_c,2015.0,-1\n",
             "non-numeric cell '2015.0' at row 'Oslo', column period"),
            (load_climate_csv, "city,variable,period,value\nOslo,feb_temp_c,2015,cold\n",
             "non-numeric cell 'cold' at row 'Oslo', column value"),
        ],
        ids=["pool-gdp", "pool-empty-sports-score", "climate-period", "climate-value"],
    )
    def test_non_numeric_cell_names_the_row_and_the_column(self, load, text, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load(io.StringIO(text))

    @pytest.mark.parametrize("blank", ["", "  ", "\t", ",,,", " , ,\t, "])
    def test_rows_that_hold_only_whitespace_are_skipped(self, blank):
        """Before the header too, as in a decision matrix."""
        pool = [blank, "name,country,gdp,sports_score", blank, "Oslo,Norway,1.5,2", blank]
        cities = load_pool(io.StringIO("\n".join(pool)))
        assert [(c.name, c.gdp, c.sports_score) for c in cities] == [("Oslo", 1.5, 2.0)]
        climate = [blank, "city,variable,period,value", "Oslo,feb_temp_c,2015,-1", blank,
                   "Oslo,feb_temp_c,2016,-2", blank]
        series = load_climate_csv(io.StringIO("\n".join(climate)))["Oslo"]["feb_temp_c"]
        assert (series.start_period, series.values.tolist()) == (2015, [-1.0, -2.0])

    def test_number_cells_are_stripped_before_conversion(self):
        """str.strip() takes characters that float() and int() reject, such as \\x1c."""
        cities = load_pool(io.StringIO("name,country,gdp,sports_score\nOslo,NO,\x1c1.5,2\x1c\n"))
        assert (cities[0].gdp, cities[0].sports_score) == (1.5, 2.0)
        text = "city,variable,period,value\nOslo,feb_temp_c,\x1c2015\x1c,\x1c-1\n"
        series = load_climate_csv(io.StringIO(text))["Oslo"]["feb_temp_c"]
        assert (series.start_period, series.values.tolist()) == (2015, [-1.0])

    @pytest.mark.parametrize(
        "cells, message",
        [
            ("nan,1.0", "non-finite gdp: nan"),
            ("1.0,inf", "non-finite sports_score: inf"),
            ("-Infinity,NaN", "non-finite gdp: -inf"),
        ],
    )
    def test_non_finite_number_names_the_city_and_the_key(self, cells, message):
        text = f"name,country,gdp,sports_score\nX,Y,1,2\nOslo,Norway,{cells}\n"
        with pytest.raises(ValidationError, match=f"^pool city 'Oslo' has a {message}$"):
            load_pool(io.StringIO(text))

    @pytest.mark.parametrize("key", ["gdp", "sports_score"])
    def test_integer_loads_while_float_can_represent_it(self, key):
        """2**1024 - 2**970 is the least integer float() refuses: it rounds past
        the float range. The one below it loads as the largest float."""
        largest = {"name": "Oslo", key: 2**1024 - 2**970 - 1}
        (city,) = load_pool(io.StringIO(json.dumps({"cities": [largest]})))
        assert getattr(city, key) == 1.7976931348623157e308
        largest[key] += 1
        with pytest.raises(ValidationError, match=f"^bad value in pool city #1: {key} must be a"):
            load_pool(io.StringIO(json.dumps({"cities": [largest]})))

    def test_duplicate_city_rejected(self):
        text = (
            "name,country,gdp,sports_score\n"
            "X,Y,1.0,1.0\n"
            "X,Y,2.0,2.0\n"
        )
        with pytest.raises(ValidationError, match="duplicate city"):
            load_pool(io.StringIO(text))


def _pool_outcome(text):
    """Each city's name and indicator items in order, ids as text; or the error message."""
    try:
        pool = load_pool(io.StringIO(text))
    except ValidationError as exc:
        return str(exc)
    assert all(i is IndicatorId.parse(str(i)) for c in pool for i in c.indicators)
    return [(c.name, [(str(i), v) for i, v in c.indicators.items()]) for c in pool]


def _cities(*indicator_maps):
    return [{"name": f"c{i}", "indicators": m} for i, m in enumerate(indicator_maps)]


class TestPoolIndicatorKeys:
    @pytest.mark.parametrize(
        "cities, outcome",
        [
            (
                _cities({"A1": 1, "A2": 2}, {"A2": 3, "A1": 4}, {"A1": 5, "A2": 6}, {}, {"A2": 7}),
                [
                    ("c0", [("A1", 1.0), ("A2", 2.0)]), ("c1", [("A2", 3.0), ("A1", 4.0)]),
                    ("c2", [("A1", 5.0), ("A2", 6.0)]), ("c3", []), ("c4", [("A2", 7.0)]),
                ],
            ),
            (
                _cities({" A1 ": 1, "B7": 2.5}, {" A1": 2}, {" A1 ": 3, "B7": 4}),
                [
                    ("c0", [("A1", 1.0), ("B7", 2.5)]), ("c1", [("A1", 2.0)]),
                    ("c2", [("A1", 3.0), ("B7", 4.0)]),
                ],
            ),
            (
                _cities({"A1": 1.0}, {"A1": 1.0, " A1": 2.0}),
                "bad value in pool city #2: indicators name A1 twice",
            ),
            (
                _cities({"A1": 1.0, "B7": 2.0}, {"A1": 1.0, "B7": 2.0}, {"A1": 1.0, " A1": 2.0}),
                "bad value in pool city #3: indicators name A1 twice",
            ),
            (
                _cities({"A1": 1}, {"A1": "x", "Z9": 1}),
                "bad value in pool city #2: A1 must be a number, got 'x'",
            ),
            (_cities({"A1": 1}, {"Z9": 1, "A1": "x"}), "unknown indicator 'Z9'"),
            (
                _cities({"A1": 1, "A2": 2}, {"A1": 3, "A2": None}),
                "bad value in pool city #2: A2 must be a number, got None",
            ),
            (_cities({"A1": 1}, {"A9": 1}), "indicator index 9 out of range 1..6 for category A"),
            (
                _cities({"A1": 1}, ["A1"]),
                "bad value in pool city #2: indicators must be an object, got ['A1']",
            ),
            (
                _cities({"A1": 1}, "A1"),
                "bad value in pool city #2: indicators must be an object, got 'A1'",
            ),
        ],
        ids=[
            "orders and subsets", "padded keys", "one id twice", "one id twice after reuse",
            "bad value before unknown id",
            "unknown id before bad value", "bad value in a known tuple", "index out of range",
            "list of keys", "string",
        ],
    )
    def test_city_indicators_in_order(self, cities, outcome):
        assert _pool_outcome(json.dumps({"cities": cities})) == outcome

    def test_fixture_pool_indicators_in_order(self, fixtures_dir):
        got = _pool_outcome((fixtures_dir / "winter_pool.json").read_text())
        assert [name for name, _ in got] == [
            "Calgary", "Moscow", "Pyeongchang", "Oslo", "Stockholm", "Bern", "Warsaw",
            "Copenhagen", "Vienna", "Bangkok", "Riyadh", "Jakarta",
        ]
        ids = [str(i) for i in all_indicator_ids()]
        assert all([key for key, _ in items] == ids for _, items in got)
        assert [v for _, v in got[0][1]] == [
            6.856, 83.57, 3.058, 70.659, 9.622, 77.252, 87.609, 91.479, 85.624, 97.955,
            14.143, 68.586, 95.508, 65.209, 90.268, 70.324, 7.771, 83.493, 74.79, 79.217,
            55.02, 58.474, 13.152, 13.732, 76.154, 71.426, 94.893, 10.517, 12.783, 81.63,
        ]
        assert [v for _, v in got[-1][1]] == [
            5.023, 61.984, 2.212, 48.844, 47.707, 48.328, 65.361, 58.04, 47.507, 58.069,
            52.227, 62.959, 63.078, 55.258, 54.008, 34.654, 38.26, 52.678, 46.191, 67.713,
            55.255, 27.472, 37.148, 34.519, 26.916, 34.707, 50.134, 36.67, 43.292, 31.89,
        ]

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"indicators": {"A1": 1, "A2": float("nan")}}, "non-finite A2: nan"),
            ({"indicators": {"B3": float("-inf")}}, "non-finite B3: -inf"),
            ({"gdp": float("inf"), "indicators": {"A1": float("nan")}}, "non-finite gdp: inf"),
            ({"sports_score": float("nan")}, "non-finite sports_score: nan"),
        ],
        ids=["indicator nan", "indicator -inf", "gdp first", "sports score nan"],
    )
    def test_non_finite_number_names_the_city_and_the_key(self, entry, message):
        text = json.dumps({"cities": [{"name": "c0"}, {"name": "Oslo", **entry}]})
        assert "NaN" in text or "Infinity" in text
        assert _pool_outcome(text) == f"pool city 'Oslo' has a {message}"

    def test_finite_numbers_whose_sum_overflows_load(self):
        entry = {"name": "Oslo", "gdp": -1e308, "indicators": {"A1": 1e308, "A2": 1e308}}
        assert sum([1e308, 1e308]) == float("inf")
        outcome = _pool_outcome(json.dumps({"cities": [entry]}))
        assert outcome == [("Oslo", [("A1", 1e308), ("A2", 1e308)])]


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


def comparable(loaded):
    """A loaded pool or climate file with each series as (label, start, values list):
    TimeSeries equality on arrays is ambiguous."""
    if isinstance(loaded, dict):
        return {
            city: {var: (s.label, s.start_period, s.values.tolist()) for var, s in series.items()}
            for city, series in loaded.items()
        }
    return [
        (c.name, c.country, c.gdp, c.sports_score, c.indicators, comparable({"": c.climate}))
        for c in loaded
    ]


_BOM = b"\xef\xbb\xbf"


def _matrix_cells(matrix):
    return matrix.rows, matrix.cols, matrix.values.tolist()


# Each loader that takes a path or a stream: (fixture file, load it into a value
# that compares with ==, given the fixture hierarchy). matrix.json is the
# decision-matrix fixture in its JSON form, which the test writes.
_LOADERS = {
    "pool-csv": ("world_pool.csv", lambda src, h: comparable(load_pool(src))),
    "pool-json": ("winter_pool.json", lambda src, h: comparable(load_pool(src))),
    "climate": ("climate_sample.csv", lambda src, h: comparable(load_climate_csv(src))),
    "matrix-csv": (
        "decision_matrix.csv", lambda src, h: _matrix_cells(load_decision_matrix(src, h))
    ),
    "matrix-json": ("matrix.json", lambda src, h: _matrix_cells(load_decision_matrix(src, h))),
    "hierarchy": ("hierarchy.json", lambda src, h: load_hierarchy(src)),
    "judgments": ("judgments.json", lambda src, h: load_judgments(src)),
    "plans": ("plans.json", lambda src, h: load_plans(src)),
    "swot": ("swot.json", lambda src, h: load_swot(src)),
}


class TestInputText:
    """Pools and climate files split at the delimiter sniffed from their first 2048
    characters, as decision matrices do; one leading byte order mark is dropped."""

    @pytest.mark.parametrize("delim", [";", "\t"])
    @pytest.mark.parametrize(
        "fixture, load", [("world_pool.csv", load_pool), ("climate_sample.csv", load_climate_csv)]
    )
    def test_file_split_at_another_delimiter_loads_as_the_comma_file(
        self, tmp_path, fixtures_dir, fixture, load, delim
    ):
        text = (fixtures_dir / fixture).read_text()
        assert '"' not in text and ";" not in text and "\t" not in text
        copy = tmp_path / fixture
        copy.write_text(text.replace(",", delim))
        expected = comparable(load(fixtures_dir / fixture))
        assert len(expected) in (60, 1)  # 60 cities; Calgary's two series
        assert comparable(load(copy)) == expected

    @pytest.mark.parametrize(
        "fixture, load",
        [
            ("world_pool.csv", load_pool),
            ("winter_pool.json", load_pool),
            ("climate_sample.csv", load_climate_csv),
        ],
    )
    def test_file_with_a_byte_order_mark_loads_as_the_file(
        self, tmp_path, fixtures_dir, fixture, load
    ):
        marked = tmp_path / fixture
        marked.write_bytes(_BOM + (fixtures_dir / fixture).read_bytes())
        assert comparable(load(marked)) == comparable(load(fixtures_dir / fixture))

    def test_only_one_byte_order_mark_is_dropped(self, tmp_path, fixtures_dir):
        marked = tmp_path / "world_pool.csv"
        marked.write_bytes(_BOM * 2 + (fixtures_dir / "world_pool.csv").read_bytes())
        with pytest.raises(ValidationError, match=r"got \['\\ufeffname', "):
            load_pool(marked)

    @pytest.mark.parametrize("case", list(_LOADERS))
    def test_path_stream_and_marked_stream_load_alike(self, tmp_path, fixtures_dir, case):
        """A stream loses one leading BOM exactly as a path does, so each loader
        that takes either gives the same value from its fixture as a path, as a
        stream and as a stream that starts with a BOM."""
        name, load = _LOADERS[case]
        hierarchy = load_hierarchy(fixtures_dir / "hierarchy.json")
        path = fixtures_dir / name
        if not path.exists():  # the decision matrix in its JSON form
            m = load_decision_matrix(fixtures_dir / "decision_matrix.csv", hierarchy)
            doc = {"rows": m.rows, "columns": [str(c) for c in m.cols], "values": m.values.tolist()}
            path = tmp_path / name
            path.write_text(json.dumps(doc), encoding="utf-8")
        text = path.read_text(encoding="utf-8")
        expected = load(path, hierarchy)
        assert load(io.StringIO(text), hierarchy) == expected
        assert load(io.StringIO("\ufeff" + text), hierarchy) == expected

    def test_byte_of_a_decode_error_counts_the_mark(self, tmp_path):
        marked = tmp_path / "pool.csv"
        marked.write_bytes(_BOM + b"name,\xe0")
        with pytest.raises(ValidationError, match=r"is not UTF-8 text \(byte 8\)$"):
            load_pool(marked)


class TestPlansAndSwot:
    def test_fixture_plans(self, fixtures_dir):
        plans = load_plans(fixtures_dir / "plans.json")
        assert [p.id for p in plans] == ["Original", "A", "B", "C", "D"]
        original = plans[0]
        assert all(int(v) == 1 for v in original.impacts.values())

    def test_even_grade_rejected(self):
        text = json.dumps({"plans": [{"id": "A", "impacts": {"A1": 4}}]})
        message = (
            "bad value in plans file: grade of A1 in plan 'A' must be one of 1, 3, 5, 7, 9, got 4"
        )
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_plans(io.StringIO(text))

    @pytest.mark.parametrize(
        "ids, message",
        [
            (["A", "B", "A"], "duplicate plan id 'A'"),
            (["A", ""], "bad value in plans file: plan id must be a non-empty string, got ''"),
            (["  "], "bad value in plans file: plan id must be a non-empty string, got '  '"),
            ([7], "bad value in plans file: plan id must be a non-empty string, got 7"),
            ([None], "bad value in plans file: plan id must be a non-empty string, got None"),
        ],
    )
    def test_duplicate_or_empty_plan_id_rejected(self, ids, message):
        text = json.dumps({"plans": [{"id": i, "impacts": {"A1": 5}} for i in ids]})
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_plans(io.StringIO(text))

    @pytest.mark.parametrize("grade", [3.9, 3.0, True, "3", None])
    def test_grade_that_is_not_a_json_integer_rejected(self, grade):
        text = json.dumps({"plans": [{"id": "A", "impacts": {"A1": 3, "B2": grade}}]})
        message = (
            "bad value in plans file: grade of B2 in plan 'A' must be one of 1, 3, 5, 7, 9, "
            f"got {grade!r}"
        )
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_plans(io.StringIO(text))

    def test_fixture_swot(self, fixtures_dir):
        records = load_swot(fixtures_dir / "swot.json")
        assert {r.city for r in records} == {"Beijing", "Los Angeles", "Paris", "London"}
        assert all(r.strengths and r.threats for r in records)

    @pytest.mark.parametrize("entries", ["good transport", ["ok", 3], {"a": "b"}, None])
    def test_entry_that_is_not_a_list_of_strings_rejected(self, entries):
        text = json.dumps({"records": [{"city": "Paris", "threats": entries}]})
        message = (
            f"bad value in swot file: threats of 'Paris' must be a list of strings, "
            f"got {entries!r}"
        )
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_swot(io.StringIO(text))

    def test_absent_swot_entry_is_empty(self):
        (record,) = load_swot(io.StringIO('{"records": [{"city": "Paris", "strengths": ["x"]}]}'))
        assert record == SwotRecord("Paris", ("x",))


class TestJsonTextFields:
    """A text field must be a JSON string: null, numbers and lists are not turned into text."""

    @pytest.mark.parametrize(
        "load, obj, message",
        [
            (load_pool, {"cities": [{"name": "Oslo", "country": None}]},
             "bad value in pool city #1: country must be a string, got None"),
            (load_pool, {"cities": [{"name": "Oslo"}, {"name": ["x"]}]},
             "bad value in pool city #2: name must be a string, got ['x']"),
            (load_plans, {"plans": [{"id": "A", "description": None, "impacts": {"A1": 3}}]},
             "bad value in plans file: description of 'A' must be a string, got None"),
            (load_swot, {"records": [{"city": "Paris"}, {"city": None}]},
             "bad value in swot file: city of record #2 must be a string, got None"),
        ],
    )
    def test_non_string_is_a_validation_error(self, load, obj, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load(io.StringIO(json.dumps(obj)))

    def test_strings_load_verbatim(self):
        (city,) = load_pool(io.StringIO('{"cities": [{"name": "Oslo", "country": "Norway"}]}'))
        assert (city.name, city.country) == ("Oslo", "Norway")
        (plan,) = load_plans(io.StringIO('{"plans": [{"id": "A", "impacts": {}}]}'))
        assert plan.description == ""


class TestJsonContainers:
    """A JSON list or object field must be one; the error names the key."""

    @pytest.mark.parametrize(
        "load, obj, message",
        [
            (load_pool, {"cities": [5]}, "pool city #1: city must be an object, got 5"),
            (load_pool, {"cities": [{"name": "Oslo", "climate": []}]},
             "pool city #1: climate must be an object, got []"),
            (load_pool, {"cities": [{"name": "Oslo", "indicators": [1, 2]}]},
             "pool city #1: indicators must be an object, got [1, 2]"),
            (load_pool, {"cities": [{"name": "Oslo", "climate": {"feb_temp_c": [1]}}]},
             "pool city #1: series 'Oslo/feb_temp_c' must be an object, got [1]"),
            (load_pool,
             {"cities": [{"name": "Oslo",
                          "climate": {"t": {"start_period": 2000, "values": "12"}}}]},
             "pool city #1: values of 'Oslo/t' must be a list, got '12'"),
            (load_plans, {"plans": {"p": 1}}, "plans file: plans must be a list, got {'p': 1}"),
            (load_plans, {"plans": [1]}, "plans file: plans entry must be an object, got 1"),
            (load_plans, {"plans": [{"id": "A", "impacts": ["A1"]}]},
             "plans file: impacts of 'A' must be an object, got ['A1']"),
            (load_swot, {"records": "ab"}, "swot file: records must be a list, got 'ab'"),
            (load_swot, {"records": ["ab"]}, "swot file: record #1 must be an object, got 'ab'"),
        ],
    )
    def test_wrong_kind_is_a_validation_error_naming_the_key(self, load, obj, message):
        with pytest.raises(ValidationError, match=f"^{re.escape('bad value in ' + message)}$"):
            load(io.StringIO(json.dumps(obj)))


class TestJudgmentsAndRequirement:
    def test_fixture_judgments_have_all_levels(self, fixtures_dir):
        judgments = load_judgments(fixtures_dir / "judgments.json")
        assert set(judgments) == {"primary", "A", "B", "C", "D", "E"}
        assert len(judgments["primary"]) == 5

    def test_non_object_judgments_rejected(self):
        message = "bad value in judgments file: the document must be a JSON object, got a list"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
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
            ({"ideal_temp_range": [-10, -17]}, "ideal temperature range reversed"),
            ({"max_feb_temp": -20.0}, "must lie below the maximum temperature"),
        ],
    )
    def test_malformed_requirement_is_a_config_error(self, block, message):
        with pytest.raises(ConfigError, match="screen.winter.requirement") as err:
            load_requirement(block)
        assert message in str(err.value)
