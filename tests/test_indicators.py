"""Tests for the indicator hierarchy and decision-matrix ingestion."""

import copy
import csv
import io
import os
import pickle
import subprocess
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hostrank import indicators
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
        assert sorted(reversed(ids)) == list(ids)
        assert IndicatorId.parse("A6") < IndicatorId.parse("B1")

    def test_hash_does_not_depend_on_how_the_id_was_made(self):
        parsed = IndicatorId.parse("A5")
        made = IndicatorId(Category.ECONOMY, 5)
        assert hash(parsed) == hash(made) == hash(copy.deepcopy(made))
        assert {parsed: "x"}[made] == "x"
        assert len({hash(i) for i in all_indicator_ids()}) == 30

    def test_pickled_ids_find_dict_entries_under_another_hash_seed(self):
        """The hash is cached in each id, so it must not use the per-process str salt."""
        dump = (
            "import pickle, sys; from hostrank.indicators import all_indicator_ids as a; "
            "sys.stdout.buffer.write(pickle.dumps((a(), {i: str(i) for i in a()})))"
        )
        load = (
            "import pickle, sys; from hostrank.indicators import all_indicator_ids as a; "
            "ids, table = pickle.loads(sys.stdin.buffer.read()); "
            "fresh = {i: str(i) for i in a()}; "
            "print(all(fresh[i] == table[j] == str(j) for i, j in zip(ids, a())))"
        )
        src = str(Path(indicators.__file__).resolve().parents[1])

        def run(code, seed, data=None):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            return subprocess.run(
                [sys.executable, "-c", code], input=data, env=env,
                capture_output=True, check=True, timeout=60,
            ).stdout

        pickled = run(dump, "1")
        assert run(load, "2", pickled) == b"True\n"
        ids, table = pickle.loads(pickled)
        fresh = {i: str(i) for i in all_indicator_ids()}
        assert all(fresh[i] == table[j] == str(j) for i, j in zip(ids, all_indicator_ids()))


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

    @pytest.mark.parametrize(
        "cells",
        [["", "inf", "-inf"], ["", "1.7e308", "1.7e308"]],
        ids=["inf and -inf", "a mean past the float range"],
    )
    def test_imputing_beside_non_finite_cells_is_one_error_and_no_warning(self, cells):
        text = _H + "".join(f"{label},{cell},1,2\n" for label, cell in zip("xyz", cells))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^matrix contains missing or non-finite"):
                load_decision_matrix(io.StringIO(text), _SMALL, impute_missing=True)

    def test_lone_carriage_return_in_a_stream_is_a_validation_error(self):
        text = _H + "x\ry,1,2,3\n"
        with pytest.raises(ValidationError, match="^decision matrix file is not valid CSV: new-line"):
            load_decision_matrix(io.StringIO(text), _SMALL)

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

    @pytest.mark.parametrize("delim", [";", "\t"])
    def test_wide_rows_and_blank_lines_do_not_hide_the_delimiter(self, delim):
        """Fewer than ten whole lines fit the sniffed sample; the last is cut off."""
        h = default_hierarchy()
        rng = np.random.default_rng(5)
        rows = [(f"city {i}", [repr(v) for v in rng.uniform(0, 1e3, 30).tolist()]) for i in range(12)]
        comma = _csv_for(h, rows)
        lines = [f" {delim} ".join(line.split(",")) for line in comma.splitlines()]
        text = "\r\n".join([lines[0], "", *lines[1:]]) + "\r\n"
        assert len(text[:2048].split("\n")) < 10
        m, reference = (load_decision_matrix(io.StringIO(t), h) for t in (text, comma))
        assert m.rows == reference.rows
        assert m.values.tobytes() == reference.values.tobytes()

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


def _per_cell_parse(text: str):
    """The cell-by-cell CSV parser the whole-row parse replaced, kept as the reference."""
    delim = indicators._sniff_delimiter(text)
    reader = csv.reader(io.StringIO(text), delimiter=delim)
    rows = [r for r in reader if r and any(cell.strip() for cell in r)]
    if len(rows) < 2:
        raise ValidationError("matrix file needs a header row and at least one sample")
    header = [c.strip() for c in rows[0]]
    ids = [IndicatorId.parse(tok) for tok in header[1:]]
    labels: list[str] = []
    grid: list[list[float]] = []
    for raw in rows[1:]:
        if len(raw) != len(header):
            raise ValidationError(
                f"column count mismatch at row {raw[0]!r}: "
                f"expected {len(header)}, got {len(raw)}"
            )
        labels.append(raw[0].strip())
        parsed: list[float] = []
        for ind, cell in zip(ids, raw[1:]):
            cell = cell.strip()
            if cell == "":
                parsed.append(float("nan"))
                continue
            try:
                parsed.append(float(cell))
            except ValueError:
                raise ValidationError(
                    f"non-numeric cell {cell!r} at row {raw[0].strip()!r}, "
                    f"column {ind}"
                ) from None
        grid.append(parsed)
    return labels, ids, grid, None


_SMALL = IndicatorHierarchy(
    specs=tuple(IndicatorSpec(IndicatorId.parse(t), t) for t in ("A1", "A2", "B1")),
    primary_weights={Category.ECONOMY: 0.5, Category.HUMAN: 0.5},
    reduced=True,
)


def _outcomes(parse, text):
    """Raw parse, then loads without and with imputation: arrays as bytes, or error text."""
    out = []
    try:
        labels, ids, grid, _ = parse(text)
        out.append((labels, ids, np.array(grid, dtype=float).tobytes()))
    except ValidationError as exc:
        out.append(str(exc))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(indicators, "_parse_delimited_matrix", parse)
        for impute in (False, True):
            try:
                m = load_decision_matrix(io.StringIO(text), _SMALL, impute_missing=impute)
                out.append((m.rows, m.values.tobytes()))
            except ValidationError as exc:
                out.append(str(exc))
    return out


def _assert_parses_like_reference(text):
    assert _outcomes(indicators._parse_delimited_matrix, text) == _outcomes(
        _per_cell_parse, text
    )


_H = "city,A1,A2,B1\n"


class TestWholeRowParseMatchesPerCellReference:
    @pytest.mark.parametrize(
        "text",
        [
            _H + "x, 1.5 ,\t2 ,3\ny,4,5,6\nz,  7,8  ,9\n",
            _H + "x,1,,3\ny,4,5,6\nz,7,8,\n",
            _H + "x,1, ,3\ny,4,5,6\n",
            _H + "x,nan,2,3\ny,4, NaN ,6\nz,7,8,9\n",
            _H + "x,inf,2,3\ny,4,5,6\n",
            _H + "x,1,2,-Infinity\ny,4,5,6\n",
            _H + "x,1e400,2,3\ny,4,5,6\n",
            _H + "x,1_000,+1e3,-0.0\ny,4,5,6\n",
            _H + "x,1,abc,3\ny,4,5,6\n",
            _H + "x,1,,3\ny,4,5, x \n",
            _H + "x,1,2\n",
            _H,
            _H + ",,,\nx,1,2,3\n ,  , ,\ny,4,5,6\n\n",
            "city;A1;A2;B1\r\nx; 1 ;2;3\r\n\r\ny;4;;6\r\nz;7;8;9\r\n",
            "city\tA1\tA2\tB1\nx\t1\t2\t3\n\n   \ny\t4\t5\t6\n",
            " city , A1 , A2 , B1 \r\n x , 1 , 2 , 3 \r\n y , 4 , 5 , 6 \r\n",
        ],
    )
    def test_hand_cases(self, text):
        _assert_parses_like_reference(text)

    @settings(max_examples=300)
    @given(
        plain=st.booleans(),
        cells=st.data(),
        delim=st.sampled_from([",", ";", "\t"]),
        newline=st.sampled_from(["\n", "\r\n"]),
        blank=st.sampled_from([None, "", "   ", ";;;"]),
    )
    def test_drawn_cells(self, plain, cells, delim, newline, blank):
        """Half the files hold only numbers, which must take the numpy fast path."""
        rows = cells.draw(_cell_rows(_PLAIN_CELL if plain else _ANY_CELL))
        lines = [delim.join(["city", "A1", "A2", "B1"])]
        for i, row in enumerate(rows):
            lines.append(delim.join([f"r{i}", *row]))
            if blank is not None:
                lines.append(blank)
        with _loadtxt_spy() as results:
            _assert_parses_like_reference(newline.join(lines) + newline)
        # ";;;" is a row of empty cells (";" delimiter) or of one cell (the others).
        if plain and blank != ";;;":
            assert results == [True] * 3


_PLAIN_CELL = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.sampled_from(["nan", "-NaN", "inf", "-Infinity", "+1e3", "1e400", "1E-5", ".5", "5."]),
)
_ANY_CELL = st.one_of(
    st.floats().map(repr),
    st.sampled_from(
        ["", "nan", "-NaN", "inf", "-Infinity", "1_000", "+1e3",
         "1e400", "1__0", "0x10", "abc", "\u0661\u0662"]
    ),
    st.text(alphabet="0123456789.eE+-_na ", max_size=5),
)


def _cell_rows(value):
    """One to four rows of three cells: ``value`` between whitespace paddings."""
    pad = st.text(alphabet=" \u00a0\u2003\x0b\x0c\x1c", max_size=2)
    cell = st.tuples(pad, value, pad).map("".join)
    return st.lists(st.lists(cell, min_size=3, max_size=3), min_size=1, max_size=4)


@contextmanager
def _loadtxt_spy():
    """Record each np.loadtxt call made in the block: True if it returned, False if it raised.

    A warning from np.loadtxt is an error.
    """
    results: list[bool] = []
    real = np.loadtxt

    def spy(*args, **kwargs):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = real(*args, **kwargs)
        except Exception:
            results.append(False)
            raise
        results.append(True)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "loadtxt", spy)
        yield results


@pytest.mark.filterwarnings("error")
class TestNumpyFastPath:
    """The three parses in ``_outcomes`` each show whether numpy read the numbers."""

    @pytest.mark.parametrize(
        "text",
        [
            _H + "x,1.5,2,3\ny,4,5,6\n",
            "city,A1,A2,B1\r\nx,1,2,3\r\ny,4,5,6\r\n",
            "city;A1;A2;B1\nx;1;2;3\ny;4;5;6\n",
            "city\tA1\tA2\tB1\nx\t1\t2\t3\ny\t4\t5\t6\n",
            _H + "x,1,2,3\n",
            "city,A1\nx,1\ny,2\n",
            _H + " x , 1.5 ,\tnan ,-inf\n\n   \ny,4,1e400,6",
        ],
    )
    def test_clean_files_take_the_fast_path(self, text):
        with _loadtxt_spy() as results:
            _assert_parses_like_reference(text)
        assert results == [True] * 3

    @pytest.mark.parametrize(
        "text",
        [
            _H + '"x",1,2,3\ny,4,5,6\n',
            _H + '"x,y",1,2,3\nz,4,5,6\n',
            _H + "x,1,2,3,9\ny,4,5,6\n",
            _H + "x,1_000,2,3\ny,4,5,6\n",
            _H + "x,\u0661\u0662,2,3\ny,4,5,6\n",
            _H + "x,1,,3\ny,4,5,6\n",
        ],
    )
    def test_other_files_defer_to_the_csv_reader(self, text):
        with _loadtxt_spy() as results:
            _assert_parses_like_reference(text)
        assert True not in results

    @pytest.mark.parametrize(
        "text",
        [
            "ci\rty,A1,A2,B1\nx,1,2,3\n",
            _H + "x" * (csv.field_size_limit() + 1) + ",1,2,3\ny,4,5,6\n",
        ],
    )
    def test_lines_the_csv_reader_rejects_defer_to_it(self, text):
        with pytest.raises(csv.Error) as expected:
            _per_cell_parse(text)
        with _loadtxt_spy() as results, pytest.raises(csv.Error) as got:
            indicators._parse_delimited_matrix(text)
        assert str(got.value) == str(expected.value)
        assert True not in results
