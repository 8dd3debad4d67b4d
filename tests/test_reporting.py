"""Tests for deterministic table rendering."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hostrank.indicators import IndicatorId
from hostrank.reporting import (
    NUMBER_FORMAT,
    Provenance,
    _csv_field,
    format_number,
    hash_bytes,
    render_table,
)

PROV = Provenance(config_hash="ab" * 32, seed=7, version="0.1.0", invocation="weights")


class TestFormatNumber:
    def test_nine_significant_digits(self):
        assert format_number(1 / 3) == "0.333333333"
        assert format_number(123456789.123) == "123456789"
        assert format_number(0.7354999999) == "0.7355"

    def test_small_and_large_magnitudes(self):
        assert format_number(1e-10) == "1e-10"
        assert format_number(2.5e12) == "2.5e+12"

    def test_integers_render_plainly(self):
        assert format_number(2.0) == "2"


class TestRenderTable:
    def test_provenance_header_then_csv(self):
        text = render_table(["a", "b"], [(1, 0.5)], PROV)
        lines = text.splitlines()
        assert lines[0] == f"# config_hash={'ab' * 32}"
        assert lines[1] == "# seed=7"
        assert lines[2] == "# version=0.1.0"
        assert lines[3] == "# invocation=weights"
        assert lines[4] == "a,b"
        assert lines[5] == "1,0.5"

    def test_cells_with_delimiters_are_quoted(self):
        text = render_table(["name", "note"], [("x", "one, two; three")], PROV)
        body = "\n".join(
            line for line in text.splitlines() if not line.startswith("# ")
        )
        rows = list(csv.DictReader(io.StringIO(body)))
        assert rows[0]["note"] == "one, two; three"

    def test_booleans_render_as_bits(self):
        text = render_table(["flag"], [(True,), (False,)], PROV)
        assert text.splitlines()[-2:] == ["1", "0"]

    def test_rendering_is_deterministic(self):
        rows = [(i, i / 7) for i in range(20)]
        assert render_table(["i", "v"], rows, PROV) == render_table(["i", "v"], rows, PROV)


def _per_cell_table(columns, rows, provenance):
    """The cell-by-cell renderer that the column-wise one replaced, kept as the reference."""
    body = io.StringIO()
    writer = csv.writer(body, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([
            format(v, NUMBER_FORMAT) if isinstance(v, float)
            else ("1" if v else "0") if isinstance(v, bool)
            else str(v)
            for v in row
        ])
    return "\n".join(provenance.header_lines()) + "\n" + body.getvalue()


_floats = st.one_of(
    st.floats(), st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 1 / 3])
)
_any_cell = st.one_of(
    _floats,
    _floats.map(np.float64),
    st.booleans(),
    st.integers(min_value=-10**20, max_value=10**20),
    st.text(alphabet='ab1.,;"\r\n \'', max_size=6),
    st.just(np.float32(0.1)),
)
# A column of one kind of cell each: Python floats, numpy float64s, both, or anything.
_column_kinds = st.sampled_from(
    [_floats, _floats.map(np.float64), st.one_of(_floats, _floats.map(np.float64)), _any_cell]
)


@st.composite
def _tables(draw):
    kinds = draw(st.lists(_column_kinds, max_size=4))
    rows = [tuple(draw(kind) for kind in kinds) for _ in range(draw(st.integers(0, 6)))]
    if draw(st.booleans()):  # rows of different widths
        rows = [row + tuple(draw(st.lists(_any_cell, max_size=2))) for row in rows]
    return [f"c{i}" for i in range(len(kinds))], rows


class TestRenderEqualsPerCellReference:
    @given(table=_tables())
    @settings(max_examples=200)
    def test_same_text_as_the_per_cell_loop(self, table):
        columns, rows = table
        assert render_table(columns, rows, PROV) == _per_cell_table(columns, rows, PROV)

    def test_signed_zero_and_non_finite_floats(self):
        rows = [(-0.0, np.float64(-0.0), True), (float("nan"), np.inf, 2), (-np.inf, 1e-10, "x")]
        text = render_table(["a", "b", "c"], rows, PROV)
        assert text == _per_cell_table(["a", "b", "c"], rows, PROV)
        assert text.splitlines()[5:] == ["-0,-0,1", "nan,inf,2", "-inf,1e-10,x"]

    def test_rows_of_a_generator_render_once(self):
        rows = ((i, i / 7) for i in range(3))
        assert render_table(["i", "v"], rows, PROV).splitlines()[5:] == [
            "0,0", "1,0.142857143", "2,0.285714286",
        ]


class TestCellRule:
    """Callers pass the stages' own values; render_table prints them as the
    conversions they replace would: format_number, str() and 1/0."""

    _FLOATS = [1 / 3, 2.0, -0.0, 0.0, float("nan"), float("inf"), float("-inf"), 1e-10, 2.5e12]

    def _body(self, rows):
        return render_table(["v"], rows, PROV).splitlines()[5:]

    @pytest.mark.parametrize("value", _FLOATS)
    def test_float64_prints_as_format_number(self, value):
        cells = [np.float64(value), value, np.array([value])[0]]
        assert self._body([(c,) for c in cells]) == [format_number(value)] * 3

    @pytest.mark.parametrize("value", [0, -1, 2050, 2**62, -(2**63)])
    def test_int64_prints_as_str(self, value):
        assert self._body([(np.int64(value),), (value,)]) == [str(value)] * 2

    def test_indicator_id_prints_as_str(self):
        ids = [IndicatorId.parse("A1"), IndicatorId.parse("E5")]
        assert self._body([(i,) for i in ids]) == ["A1", "E5"]

    def test_bools_print_as_bits(self):
        assert self._body([(True,), (False,), (1 > 0,)]) == ["1", "0", "1"]

    def test_a_row_of_stage_values(self):
        row = (np.int64(3), IndicatorId.parse("B2"), np.float64(-0.0), np.float64("nan"), True)
        plain = (3, "B2", format_number(-0.0), format_number(float("nan")), 1)
        columns = ["a", "b", "c", "d", "e"]
        assert render_table(columns, [row], PROV) == render_table(columns, [plain], PROV)


class TestCsvField:
    """The quoting of writers that build CSV rows as text, as csv.writer quotes."""

    @pytest.mark.parametrize(
        "label", ["plain", "a,b", 'say "hi"', "a\rb", "a\nb", "a\r\nb", " padded ", "two words", ""]
    )
    def test_same_field_as_csv_writer(self, label):
        body = io.StringIO()
        csv.writer(body).writerow(["x", label, "y"])
        assert body.getvalue() == f"x,{_csv_field(label)},y\r\n"

    @given(label=st.text(alphabet='ab ,"\r\n;\t', max_size=8))
    @settings(max_examples=200)
    def test_drawn_labels_quote_as_csv_writer(self, label):
        body = io.StringIO()
        csv.writer(body).writerow(["x", label, "y"])
        assert body.getvalue() == f"x,{_csv_field(label)},y\r\n"
        assert next(csv.reader(io.StringIO(f"x,{_csv_field(label)},y"))) == ["x", label, "y"]


def test_hash_is_stable():
    assert hash_bytes(b"abc") == hash_bytes(b"abc")
    assert hash_bytes(b"abc") != hash_bytes(b"abd")
    assert len(hash_bytes(b"")) == 64
