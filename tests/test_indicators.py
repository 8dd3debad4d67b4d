"""Tests for the indicator hierarchy and decision-matrix ingestion."""

import copy
import csv
import io
import json
import os
import pickle
import re
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
    load_hierarchy,
    serialize_decision_matrix,
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

    @pytest.mark.parametrize("bad", [5, 1.0, None, True, ["A1"], {"id": "A1"}])
    def test_non_string_rejected(self, bad):
        with pytest.raises(ValidationError) as err:
            IndicatorId.parse(bad)
        assert str(err.value) == f"unknown indicator {bad!r}"

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

    @pytest.mark.parametrize("made", all_indicator_ids(), ids=str)
    def test_one_instance_per_id(self, made):
        text = str(made)
        zero_padded = f" {text[0]}0{text[1:]} "  # " A05 " for A5
        assert IndicatorId(made.category, made.index) is made
        assert IndicatorId.parse(text) is made
        assert IndicatorId.parse(zero_padded) is made
        assert copy.copy(made) is made and copy.deepcopy(made) is made
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(made, protocol)) is made

    def test_ids_compare_and_hash_by_identity(self):
        assert IndicatorId.__eq__ is object.__eq__
        assert IndicatorId.__hash__ is object.__hash__
        assert all(vars(i).keys() == {"category", "index"} for i in all_indicator_ids())
        assert all_indicator_ids() is all_indicator_ids()

    def test_out_of_range_index_is_rejected_by_the_constructor(self):
        message = "^indicator index 8 out of range 1..7 for category B$"
        with pytest.raises(ValidationError, match=message):
            IndicatorId(Category.HUMAN, 8)

    def test_pickled_ids_find_dict_entries_under_another_hash_seed(self):
        """Ids unpickle to the one instance of each id, so a dict pickled in
        another process, under another str hash salt, finds its entries."""
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


class TestHierarchyConstruction:
    def test_full_default_hierarchy_is_valid(self):
        h = default_hierarchy()
        assert h.ids == all_indicator_ids()
        assert h.reduced is False

    def test_missing_indicator_is_a_coverage_error(self):
        specs = tuple(s for s in default_hierarchy().specs if str(s.id) != "B7")
        with pytest.raises(ValidationError) as caught:
            IndicatorHierarchy(specs=specs)
        assert str(caught.value) == "hierarchy invalid: specs/coverage: missing indicators: B7"

    def test_duplicate_spec_is_an_error(self):
        full = default_hierarchy()
        with pytest.raises(ValidationError) as caught:
            IndicatorHierarchy(specs=full.specs + (full.specs[0],))
        assert str(caught.value) == (
            "hierarchy invalid: specs/duplicate: indicator A1 appears twice"
        )

    def test_duplicate_in_a_reduced_hierarchy_is_an_error(self):
        a1 = IndicatorSpec(IndicatorId.parse("A1"), "x")
        with pytest.raises(ValidationError, match="specs/duplicate: indicator A1 appears twice"):
            IndicatorHierarchy(specs=(a1, a1), reduced=True)

    def test_reduced_hierarchy_skips_coverage(self):
        small = IndicatorHierarchy(
            specs=(
                IndicatorSpec(IndicatorId.parse("A1"), "x"),
                IndicatorSpec(IndicatorId.parse("A2"), "y"),
            ),
            reduced=True,
        )
        assert [str(i) for i in small.ids] == ["A1", "A2"]

    def test_every_problem_is_listed_in_one_error(self):
        full = default_hierarchy()
        a1, a2 = full.specs[:2]
        specs = tuple(s for s in full.specs if str(s.id) not in ("B7", "E5")) + (a1, a2, a1)
        with pytest.raises(ValidationError) as caught:
            IndicatorHierarchy(specs=specs)
        assert str(caught.value) == (
            "hierarchy invalid: specs/duplicate: indicator A1 appears twice; "
            "specs/duplicate: indicator A2 appears twice; "
            "specs/duplicate: indicator A1 appears twice; "
            "specs/coverage: missing indicators: B7, E5"
        )

    @pytest.mark.parametrize("name", [5, None, ["x"]])
    def test_name_that_is_not_a_json_string_is_rejected(self, name):
        text = json.dumps({"reduced": True, "indicators": [{"id": "A1", "name": name}]})
        message = f"bad value in hierarchy file: name of A1 must be a string, got {name!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_hierarchy(io.StringIO(text))

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"indicators": "A1"}, "indicators must be a list, got 'A1'"),
            ({"indicators": ["A1"]}, "indicators entry must be an object, got 'A1'"),
            (
                {"reduced": True, "indicators": [{"id": "A1", "polarity": 5}]},
                'polarity of A1 must be "+" or "-", got 5',
            ),
            (
                {"reduced": True, "indicators": [{"id": "A1", "polarity": "POSITIVE"}]},
                "polarity of A1 must be \"+\" or \"-\", got 'POSITIVE'",
            ),
        ],
    )
    def test_json_container_of_the_wrong_kind_is_rejected(self, obj, message):
        message = f"bad value in hierarchy file: {message}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_hierarchy(io.StringIO(json.dumps(obj)))

    @pytest.mark.parametrize(
        "key, message",
        [
            ("x" * 100_000, f"unknown indicator 'x{'x' * 58}... (100002 characters)"),
            ("B5" + " " * 100_000, "bad value in hierarchy file: ideal_interval of B5 must be "
             "[a, b], got 5"),
        ],
        ids=["unknown id", "padded id"],
    )
    def test_ideal_interval_error_names_the_parsed_id(self, key, message):
        """The id is parsed before its interval is checked, so a long id is
        never echoed whole."""
        text = json.dumps({"indicators": [{"id": key, "ideal_interval": 5}]})
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_hierarchy(io.StringIO(text))

    def test_absent_name_is_the_id(self):
        h = load_hierarchy(io.StringIO('{"reduced": true, "indicators": [{"id": "A1"}]}'))
        assert h.specs[0].name == "A1"

    def test_interval_must_be_ordered(self):
        with pytest.raises(ValidationError, match="a > b"):
            IndicatorSpec(IndicatorId.parse("A1"), "x", ideal_interval=(3.0, 1.0))


def _csv_for(hierarchy, rows):
    header = "city," + ",".join(str(i) for i in hierarchy.ids)
    lines = [header]
    for label, values in rows:
        lines.append(label + "," + ",".join(str(v) for v in values))
    return "\n".join(lines) + "\n"


# A 50,000-character row label and how a message quotes it.
_LONG = "n" * 50_000
_CUT = f"'{'n' * 59}... (50002 characters)"


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

    @given(text=st.one_of(
        st.text(alphabet=',;\t"\' ab1.\n\r', max_size=200),
        # delimited lines, some cells quoted
        st.tuples(
            st.sampled_from([",", ";", "\t", " ", "|", ", "]),
            st.lists(st.lists(st.text(alphabet='ab1. "\';,', max_size=5), min_size=1, max_size=5),
                     min_size=1, max_size=8),
        ).map(lambda t: "".join(t[0].join(cells) + "\n" for cells in t[1])),
    ))
    @settings(max_examples=300)
    def test_sniffed_delimiter_is_the_sniffers(self, text):
        """A sample with neither ';' nor a tab is ',' without running the
        Sniffer; any sample reads as the Sniffer reads it, and its failure
        as ','."""
        sample = "\n".join(line for line in text[:2048].split("\n")[:-1] if line.strip())
        try:
            expected = csv.Sniffer().sniff(sample, delimiters=",;\t").delimiter
        except csv.Error:
            expected = ","
        assert indicators._sniff_delimiter(text) == expected

    def test_matrix_off_the_fast_path_is_sniffed_once(self, fixtures_dir, monkeypatch):
        """A quoted label sends a ';' matrix to the csv reader, which splits
        it at the delimiter the fast path already sniffed."""
        hierarchy = load_hierarchy(fixtures_dir / "hierarchy.json")
        comma = (fixtures_dir / "decision_matrix.csv").read_text()
        text = comma.replace(",", ";").replace("\nNew York;", '\n"New York";', 1)
        sniff = indicators._sniff_delimiter
        sniffed = []
        monkeypatch.setattr(indicators, "_sniff_delimiter", lambda t: sniffed.append(t) or sniff(t))
        m = load_decision_matrix(io.StringIO(text), hierarchy)
        assert len(sniffed) == 1
        reference = load_decision_matrix(io.StringIO(comma), hierarchy)
        assert m.rows == reference.rows and m.values.tobytes() == reference.values.tobytes()

    def test_json_form_accepted(self):
        h = default_hierarchy()
        obj = {
            "rows": ["a", "b"],
            "columns": [str(i) for i in h.ids],
            "values": [[float(v) for v in range(30)], [float(v + 1) for v in range(30)]],
        }
        m = load_decision_matrix(io.StringIO(json.dumps(obj)), h)
        assert (m.n, m.m) == (2, 30)

    @pytest.mark.parametrize("units", [[str(i) for i in all_indicator_ids()], "kg", [5]])
    def test_json_units_key_is_ignored(self, units):
        h = default_hierarchy()
        obj = {
            "rows": ["a", "b"],
            "columns": [str(i) for i in reversed(h.ids)],
            "values": [[1.0] * 30, [float(v) for v in range(30)]],
        }
        plain = load_decision_matrix(io.StringIO(json.dumps(obj)), h)
        m = load_decision_matrix(io.StringIO(json.dumps({**obj, "units": units})), h)
        assert (m.rows, m.cols, m.values.tobytes()) == (plain.rows, plain.cols, plain.values.tobytes())
        assert m.values[1].tolist() == [float(v) for v in reversed(range(30))]

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

    @pytest.mark.parametrize(
        "key, entries, message",
        [
            ("rows", ["a", 5], "rows entry must be a string, got 5"),
            ("rows", [None, "b"], "rows entry must be a string, got None"),
        ],
    )
    def test_json_text_that_is_not_a_string_is_rejected(self, key, entries, message):
        h = default_hierarchy()
        obj = {
            "rows": ["a", "b"],
            "columns": [str(i) for i in h.ids],
            "values": [[1.0] * 30, [2.0] * 30],
            key: entries,
        }
        message = f"bad value in decision matrix file: {message}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_decision_matrix(io.StringIO(json.dumps(obj)), h)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("rows", "ab", "rows must be a list, got 'ab'"),
            ("columns", "A1", "columns must be a list, got 'A1'"),
            ("values", {"a": 1}, "values must be a list, got {'a': 1}"),
            ("values", [[1.0] * 30, 5], "values row 'b' must be a list, got 5"),
        ],
    )
    def test_json_container_of_the_wrong_kind_is_rejected(self, key, value, message):
        h = default_hierarchy()
        obj = {
            "rows": ["a", "b"],
            "columns": [str(i) for i in h.ids],
            "values": [[1.0] * 30, [2.0] * 30],
            key: value,
        }
        message = f"bad value in decision matrix file: {message}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_decision_matrix(io.StringIO(json.dumps(obj)), h)

    @pytest.mark.parametrize(
        "values", [[[1, 2], [3, 4], [5, 6], ["x", None]], [[1, 2]]], ids=["more", "fewer"]
    )
    def test_value_rows_must_match_the_rows_in_number(self, values):
        """More or fewer value rows than row labels fail in one line naming both counts."""
        specs = tuple(IndicatorSpec(i, str(i)) for i in all_indicator_ids()[:2])
        h = IndicatorHierarchy(specs, reduced=True)
        text = json.dumps({"rows": ["a", "b"], "columns": ["A1", "A2"], "values": values})
        with pytest.raises(ValidationError) as err:
            load_decision_matrix(io.StringIO(text), h)
        assert str(err.value) == (
            "decision matrix file has a different number of rows (2) "
            f"and value rows ({len(values)})"
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            (f"city,A1\n{_LONG},1\n{_LONG},2\n", f"duplicate sample label {_CUT}"),
            (f"city,A1\n{_LONG},\n", f"missing cell at row {_CUT}, column A1"),
            (json.dumps({"rows": [_LONG], "columns": ["A1"], "values": [[1, 2]]}),
             f"column count mismatch at row {_CUT}: expected 1, got 2"),
        ],
        ids=["duplicate", "missing-cell", "json-row-width"],
    )
    def test_long_row_label_is_quoted_cut(self, text, message):
        h = IndicatorHierarchy((IndicatorSpec(IndicatorId.parse("A1"), "x"),), reduced=True)
        with pytest.raises(ValidationError) as err:
            load_decision_matrix(io.StringIO(text), h)
        assert str(err.value) == message

    def test_column_outside_a_reduced_hierarchy_is_named_by_its_id(self):
        h = IndicatorHierarchy(specs=(IndicatorSpec(IndicatorId.parse("A1"), "x"),), reduced=True)
        with pytest.raises(ValidationError) as err:
            load_decision_matrix(io.StringIO("city,A1,A2\noslo,1,2\n"), h)
        assert str(err.value) == "unknown indicator A2"

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
        raise ValidationError("decision matrix file needs a header row and at least one sample")
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
    return labels, ids, grid


_SMALL = IndicatorHierarchy(
    specs=tuple(IndicatorSpec(IndicatorId.parse(t), t) for t in ("A1", "A2", "B1")),
    reduced=True,
)


def _outcomes(parse, text):
    """Raw parse, then loads without and with imputation: arrays as bytes, or error text."""
    out = []
    try:
        labels, ids, grid = parse(text)
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
