"""Tests for the indicator hierarchy and decision-matrix ingestion."""

import io

import numpy as np
import pytest

from hostrank.errors import ValidationError
from hostrank.indicators import (
    Category,
    DecisionMatrix,
    IndicatorHierarchy,
    IndicatorId,
    IndicatorSpec,
    Polarity,
    all_indicator_ids,
    default_hierarchy,
    load_decision_matrix,
    serialize_decision_matrix,
    validate_hierarchy,
)


class TestIndicatorId:
    def test_string_round_trip(self):
        for text in ("A1", "A5", "B7", "C7", "D5", "E5"):
            assert str(IndicatorId.parse(text)) == text

    def test_category_bounds(self):
        assert IndicatorId.parse("A6").index == 6
        for bad in ("A7", "B8", "C8", "D6", "E6", "A0"):
            with pytest.raises(ValidationError):
                IndicatorId.parse(bad)

    def test_unknown_text_rejected(self):
        for bad in ("Z9", "AA1", "5A", ""):
            with pytest.raises(ValidationError, match="unknown indicator"):
                IndicatorId.parse(bad)

    def test_ordering_is_lexicographic(self):
        ids = all_indicator_ids()
        assert len(ids) == 30
        assert sorted(ids) == list(ids)
        assert IndicatorId.parse("A6") < IndicatorId.parse("B1")


class TestValidateHierarchy:
    def test_full_uniform_hierarchy_is_clean(self):
        h = default_hierarchy({c: 0.2 for c in Category})
        assert validate_hierarchy(h) == []

    def test_missing_indicator_is_a_coverage_violation(self):
        full = default_hierarchy()
        reduced = IndicatorHierarchy(
            specs=tuple(s for s in full.specs if str(s.id) != "B7"),
            primary_weights=full.primary_weights,
        )
        violations = validate_hierarchy(reduced)
        assert [v.rule for v in violations] == ["coverage"]
        assert "B7" in violations[0].message

    def test_weight_sum_violation(self):
        h = default_hierarchy({c: 0.18 for c in Category})  # sums to 0.9
        rules = {v.rule for v in validate_hierarchy(h)}
        assert rules == {"weight-sum"}

    def test_duplicate_spec_detected(self):
        full = default_hierarchy()
        dup = IndicatorHierarchy(
            specs=full.specs + (full.specs[0],),
            primary_weights=full.primary_weights,
        )
        assert "duplicate" in {v.rule for v in validate_hierarchy(dup)}

    def test_reduced_hierarchy_skips_coverage(self):
        small = IndicatorHierarchy(
            specs=(
                IndicatorSpec(IndicatorId.parse("A1"), "x"),
                IndicatorSpec(IndicatorId.parse("A2"), "y"),
            ),
            primary_weights={Category.ECONOMY: 1.0},
            reduced=True,
        )
        assert validate_hierarchy(small) == []

    def test_interval_must_be_ordered(self):
        with pytest.raises(ValidationError, match="a > b"):
            IndicatorSpec(IndicatorId.parse("A1"), "x", ideal_interval=(3.0, 1.0))


def _csv_for(hierarchy, rows):
    header = "city," + ",".join(str(i) for i in hierarchy.ids)
    lines = [header]
    for label, values in rows:
        lines.append(label + "," + ",".join(str(v) for v in values))
    return "\n".join(lines) + "\n"


class TestLoadDecisionMatrix:
    def test_three_city_thirty_indicator_file(self):
        h = default_hierarchy()
        rows = [(f"city{i}", [10.0 + i + j for j in range(30)]) for i in range(3)]
        m = load_decision_matrix(io.StringIO(_csv_for(h, rows)), h)
        assert (m.n, m.m) == (3, 30)
        assert m.rows == ("city0", "city1", "city2")

    def test_unknown_indicator_column(self):
        h = default_hierarchy()
        text = _csv_for(h, [("x", list(range(30)))]).replace("A1", "Z9")
        with pytest.raises(ValidationError, match="unknown indicator"):
            load_decision_matrix(io.StringIO(text), h)

    def test_non_numeric_cell_names_row_and_column(self):
        h = default_hierarchy()
        values = [str(v) for v in range(30)]
        values[4] = "abc"  # column A5
        text = _csv_for(h, [("oslo", values)])
        with pytest.raises(ValidationError, match=r"'abc'.*'oslo'.*A5"):
            load_decision_matrix(io.StringIO(text), h)

    def test_duplicate_sample_label(self):
        h = default_hierarchy()
        rows = [("same", list(range(30))), ("same", list(range(30)))]
        with pytest.raises(ValidationError, match="duplicate sample label"):
            load_decision_matrix(io.StringIO(_csv_for(h, rows)), h)

    def test_column_count_mismatch(self):
        h = default_hierarchy()
        text = _csv_for(h, [("x", list(range(29)))])
        with pytest.raises(ValidationError, match="column count mismatch"):
            load_decision_matrix(io.StringIO(text), h)

    def test_missing_cell_rejected_by_default(self):
        h = default_hierarchy()
        values = [str(v + 1) for v in range(30)]
        values[2] = ""
        rows = [("a", values), ("b", [str(v + 2) for v in range(30)])]
        with pytest.raises(ValidationError, match="missing cell.*'a'.*A3"):
            load_decision_matrix(io.StringIO(_csv_for(h, rows)), h)

    def test_missing_cell_imputed_with_column_mean(self):
        h = default_hierarchy()
        va = [str(float(v + 1)) for v in range(30)]
        va[0] = ""
        rows = [("a", va), ("b", ["10.0"] * 30), ("c", ["20.0"] * 30)]
        m = load_decision_matrix(io.StringIO(_csv_for(h, rows)), h, impute_missing=True)
        assert m.values[0, 0] == pytest.approx(15.0)

    def test_columns_reordered_to_hierarchy_order(self):
        h = default_hierarchy()
        ids = [str(i) for i in h.ids]
        shuffled = list(reversed(ids))
        lines = ["city," + ",".join(shuffled)]
        values = [float(v) for v in range(30)]
        lines.append("x," + ",".join(str(v) for v in values))
        lines.append("y," + ",".join(str(v + 100) for v in values))
        m = load_decision_matrix(io.StringIO("\n".join(lines)), h)
        assert [str(c) for c in m.cols] == ids
        # value written under the shuffled header must land in its own column
        assert m.values[0, ids.index("A1")] == 29.0

    def test_json_form_accepted(self):
        h = default_hierarchy()
        obj = {
            "rows": ["a", "b"],
            "columns": [str(i) for i in h.ids],
            "values": [[float(v) for v in range(30)], [float(v + 1) for v in range(30)]],
        }
        import json

        m = load_decision_matrix(io.StringIO(json.dumps(obj)), h)
        assert (m.n, m.m) == (2, 30)
        assert m.units is None

    def test_json_units_follow_column_reordering(self):
        h = default_hierarchy()
        ids = [str(i) for i in reversed(h.ids)]
        obj = {
            "rows": ["a", "b"],
            "columns": ids,
            "units": ids,  # marker per column: its own id
            "values": [[1.0] * 30, [float(v) for v in range(30)]],
        }
        import json

        m = load_decision_matrix(io.StringIO(json.dumps(obj)), h)
        assert m.units == tuple(str(i) for i in h.ids)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"rows": ["a"], "columns": ["A1"', "decision matrix file is not valid JSON"),
            ('{"rows": ["a"], "columns": ["A1"]}', "decision matrix file lacks the key 'values'"),
            ('["a", "b"]', "bad value in decision matrix file"),
            ('{"rows": ["a"], "columns": ["A1"], "values": [5]}', "bad value in decision"),
        ],
    )
    def test_malformed_json_form_is_a_validation_error(self, text, message):
        with pytest.raises(ValidationError, match=message):
            load_decision_matrix(io.StringIO(text), default_hierarchy())

    def test_round_trip_is_bit_exact(self):
        h = default_hierarchy()
        rng = np.random.default_rng(3)
        vals = rng.uniform(-1e6, 1e6, size=(4, 30))
        vals[0, 0] = 0.1
        vals[1, 1] = 1e-17
        vals[2, 2] = 123456789.123456789
        m = DecisionMatrix(rows=("a", "b", "c", "d"), cols=h.ids, values=vals)
        again = load_decision_matrix(io.StringIO(serialize_decision_matrix(m)), h)
        assert np.array_equal(again.values, m.values)

    def test_nan_cells_rejected_at_construction(self):
        h = default_hierarchy()
        vals = np.ones((2, 30))
        vals[0, 0] = np.nan
        with pytest.raises(ValidationError, match="missing or non-finite"):
            DecisionMatrix(rows=("a", "b"), cols=h.ids, values=vals)

    def test_polarity_metadata_available_through_hierarchy(self):
        h = default_hierarchy()
        assert h.spec(IndicatorId.parse("A5")).polarity is Polarity.NEGATIVE
        assert h.spec(IndicatorId.parse("A1")).polarity is Polarity.POSITIVE
