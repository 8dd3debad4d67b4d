"""Indicator hierarchy, decision-matrix container, and input validation.

The evaluation system is a two-level tree: five primary categories with
lettered ids A-E (economy, human, sociocultural, political,
environmental), each owning a fixed run of numbered secondary
indicators (A1-A6, B1-B7, C1-C7, D1-D5, E1-E5; 30 in total). Every
downstream stage -- weighting, feature selection, screening -- consumes
the types defined here.

All types are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from contextlib import contextmanager
from enum import Enum
from functools import total_ordering
from pathlib import Path
from typing import IO, Any, Callable, Iterator

import numpy as np

from ._record import Record
from .errors import ConfigError, ValidationError

__all__ = [
    "Category",
    "CATEGORY_SIZES",
    "Polarity",
    "IndicatorId",
    "IndicatorSpec",
    "IndicatorHierarchy",
    "DecisionMatrix",
    "all_indicator_ids",
    "default_hierarchy",
    "load_hierarchy",
    "load_decision_matrix",
    "serialize_decision_matrix",
]


class Category(str, Enum):
    """Primary indicator category, keyed by its letter."""

    ECONOMY = "A"
    HUMAN = "B"
    SOCIOCULTURAL = "C"
    POLITICAL = "D"
    ENVIRONMENTAL = "E"


#: Number of secondary indicators per category. These bounds are fixed;
#: reduced hierarchies may use a subset but never indices outside them.
CATEGORY_SIZES: dict[Category, int] = {
    Category.ECONOMY: 6,
    Category.HUMAN: 7,
    Category.SOCIOCULTURAL: 7,
    Category.POLITICAL: 5,
    Category.ENVIRONMENTAL: 5,
}


class Polarity(str, Enum):
    """Whether larger raw values are desirable (+) or harmful (-)."""

    POSITIVE = "+"
    NEGATIVE = "-"


_ID_PATTERN = re.compile(r"^([A-E])(\d{1,2})$")


@total_ordering
class IndicatorId(Record):
    """Identifier of one secondary indicator, e.g. A5.

    The 30 ids are built once, at import, and every construction, parse,
    copy or unpickling returns one of them; so ids compare and hash by
    identity. Ordering is lexicographic by (category letter, index),
    which is the canonical hierarchy order and the deterministic
    tie-break used by feature selection.
    """

    _fields = ("category", "index")
    __eq__ = object.__eq__
    __hash__ = object.__hash__
    __init__ = object.__init__  # __new__ returns a built id: nothing to bind

    def __new__(cls, category: Category, index: int) -> IndicatorId:
        limit = CATEGORY_SIZES[category]
        if not 1 <= index <= limit:
            raise ValidationError(
                f"indicator index {index} out of range 1..{limit} "
                f"for category {category.value}"
            )
        return _IDS_BY_TEXT[f"{category.value}{index:d}"]

    def __reduce__(self) -> tuple:
        return IndicatorId, (self.category, self.index)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.category, self.index) < (other.category, other.index)
        return NotImplemented

    def __str__(self) -> str:
        return f"{self.category.value}{self.index}"

    @staticmethod
    def parse(text: str) -> IndicatorId:
        try:
            return _IDS_BY_TEXT[text]
        except (KeyError, TypeError):  # TypeError: a JSON list or object is unhashable
            pass
        m = type(text) is str and _ID_PATTERN.match(text.strip())
        if not m:
            raise ValidationError(f"unknown indicator {_brief(text)}")
        return IndicatorId(Category(m.group(1)), int(m.group(2)))


def _built_id(category: Category, index: int) -> IndicatorId:
    made = object.__new__(IndicatorId)
    made.__dict__.update(category=category, index=index)
    return made


_IDS_BY_TEXT: dict[str, IndicatorId] = {
    f"{c.value}{i}": _built_id(c, i) for c in Category for i in range(1, CATEGORY_SIZES[c] + 1)
}
_ALL_IDS = tuple(_IDS_BY_TEXT.values())


def all_indicator_ids() -> tuple[IndicatorId, ...]:
    """All 30 indicator ids in hierarchy order."""
    return _ALL_IDS


class IndicatorSpec(Record):
    """One secondary indicator: id, display name, polarity, optional ideal band.

    ``ideal_interval`` is the (a, b) value band treated as fully
    satisfactory by interval normalization; values outside it are scored
    down linearly.
    """

    _fields = ("id", "name", "polarity", "ideal_interval")

    def __init__(
        self,
        id: IndicatorId,
        name: str,
        polarity: Polarity = Polarity.POSITIVE,
        ideal_interval: tuple[float, float] | None = None,
    ) -> None:
        if ideal_interval is not None:
            a, b = ideal_interval
            if not a <= b:
                raise ValidationError(f"ideal interval for {id} has a > b: ({a}, {b})")
            ideal_interval = (float(a), float(b))
        self.__dict__.update(id=id, name=name, polarity=polarity, ideal_interval=ideal_interval)


class IndicatorHierarchy(Record):
    """The two-level indicator tree, checked when built.

    Each indicator appears at most once, and all 30 appear unless
    ``reduced=True``, which marks deliberately small hierarchies (subsets
    of the 30) used by screening stages and tests. A hierarchy that breaks
    either rule raises one ValidationError listing every problem.
    """

    _fields = ("specs", "reduced")

    def __init__(self, specs: tuple[IndicatorSpec, ...], reduced: bool = False) -> None:
        specs = tuple(specs)
        by_id: dict[IndicatorId, IndicatorSpec] = {}
        problems = []
        for s in specs:
            if s.id in by_id:
                problems.append(f"specs/duplicate: indicator {s.id} appears twice")
            by_id[s.id] = s
        missing = [str(i) for i in _ALL_IDS if i not in by_id]
        if missing and not reduced:
            problems.append("specs/coverage: missing indicators: " + ", ".join(missing))
        if problems:
            raise ValidationError("hierarchy invalid: " + "; ".join(problems))
        self.__dict__.update(specs=specs, reduced=reduced, _by_id=by_id)

    @property
    def ids(self) -> tuple[IndicatorId, ...]:
        return tuple(s.id for s in self.specs)

    @property
    def categories(self) -> tuple[Category, ...]:
        seen: list[Category] = []
        for s in self.specs:
            if s.id.category not in seen:
                seen.append(s.id.category)
        return tuple(sorted(seen, key=lambda c: c.value))

    def spec(self, indicator: IndicatorId) -> IndicatorSpec:
        try:
            return self._by_id[indicator]
        except KeyError:
            raise ValidationError(f"indicator {indicator} not in hierarchy") from None

    def by_category(self, category: Category) -> tuple[IndicatorSpec, ...]:
        return tuple(s for s in self.specs if s.id.category == category)


_DEFAULT_NAMES: dict[str, tuple[str, Polarity]] = {
    "A1": ("gdp growth contribution", Polarity.POSITIVE),
    "A2": ("tourism revenue uplift", Polarity.POSITIVE),
    "A3": ("employment rate change", Polarity.POSITIVE),
    "A4": ("infrastructure investment return", Polarity.POSITIVE),
    "A5": ("hosting cost overrun", Polarity.NEGATIVE),
    "A6": ("event operating revenue", Polarity.POSITIVE),
    "B1": ("athlete satisfaction", Polarity.POSITIVE),
    "B2": ("spectator attendance index", Polarity.POSITIVE),
    "B3": ("resident approval rate", Polarity.POSITIVE),
    "B4": ("volunteer participation", Polarity.POSITIVE),
    "B5": ("public health pressure", Polarity.NEGATIVE),
    "B6": ("sport participation growth", Polarity.POSITIVE),
    "B7": ("venue accessibility", Polarity.POSITIVE),
    "C1": ("international image gain", Polarity.POSITIVE),
    "C2": ("sporting spirit promotion", Polarity.POSITIVE),
    "C3": ("cultural exchange activity", Polarity.POSITIVE),
    "C4": ("wealth gap widening", Polarity.NEGATIVE),
    "C5": ("civic pride index", Polarity.POSITIVE),
    "C6": ("media exposure value", Polarity.POSITIVE),
    "C7": ("urban renewal effect", Polarity.POSITIVE),
    "D1": ("regional policy support", Polarity.POSITIVE),
    "D2": ("international relations gain", Polarity.POSITIVE),
    "D3": ("governance transparency pressure", Polarity.NEGATIVE),
    "D4": ("security risk exposure", Polarity.NEGATIVE),
    "D5": ("political stability impact", Polarity.POSITIVE),
    "E1": ("air quality improvement", Polarity.POSITIVE),
    "E2": ("green space expansion", Polarity.POSITIVE),
    "E3": ("waste generation", Polarity.NEGATIVE),
    "E4": ("carbon emission pressure", Polarity.NEGATIVE),
    "E5": ("renewable energy adoption", Polarity.POSITIVE),
}


def default_hierarchy() -> IndicatorHierarchy:
    """The full 30-indicator hierarchy with its default names and polarities."""
    specs = tuple(
        IndicatorSpec(IndicatorId.parse(key), name, polarity)
        for key, (name, polarity) in _DEFAULT_NAMES.items()
    )
    return IndicatorHierarchy(specs=specs)


def load_hierarchy(source: str | Path | IO[str]) -> IndicatorHierarchy:
    """Load a hierarchy from its JSON file form (see docs/data-format.md)."""
    with _json_document(_read_text(source), "hierarchy file") as obj:
        specs = []
        for entry in _expect(obj["indicators"], _LIST, "indicators"):
            key = _expect(entry, _OBJECT, "indicators entry")["id"]
            ind = IndicatorId.parse(key)
            interval = entry.get("ideal_interval")
            if interval is not None:
                _expect(interval, _INTERVAL, f"ideal_interval of {ind}")
                interval = tuple(_json_numbers(interval, f"ideal_interval bound of {ind}"))
            name = _expect(entry.get("name", key), _STRING, f"name of {ind}")
            polarity = _expect(entry.get("polarity", "+"), _POLARITY, f"polarity of {ind}")
            specs.append(IndicatorSpec(ind, name, Polarity(polarity), interval))
        reduced = _expect(obj.get("reduced", False), _FLAG, "reduced")
        return IndicatorHierarchy(tuple(specs), reduced)


class DecisionMatrix(Record):
    """Samples (cities or years) x indicators matrix of raw values.

    Values are dense float64 with no missing cells; ingestion either
    rejects gaps or imputes them explicitly, never silently produces
    NaN.
    """

    _fields = ("rows", "cols", "values")
    _arrays = ("values",)

    def __init__(
        self, rows: tuple[str, ...], cols: tuple[IndicatorId, ...], values: np.ndarray
    ) -> None:
        super().__init__(tuple(rows), tuple(cols), values)
        rows, cols, vals = self.rows, self.cols, self.values
        if vals.shape != (len(rows), len(cols)):
            raise ValidationError(
                f"value shape {vals.shape} does not match "
                f"{len(rows)} rows x {len(cols)} columns"
            )
        if not np.all(np.isfinite(vals)):
            raise ValidationError("matrix contains missing or non-finite cells")
        row_index = {label: i for i, label in enumerate(rows)}
        if len(row_index) != len(rows):
            raise ValidationError("duplicate sample label")
        if len(set(cols)) != len(cols):
            raise ValidationError("duplicate indicator column")
        self.__dict__["_row_index"] = row_index

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def m(self) -> int:
        return len(self.cols)

    def row(self, label: str) -> dict[IndicatorId, float]:
        try:
            i = self._row_index[label]
        except KeyError:
            raise ValidationError(f"sample {_brief(label)} not in matrix") from None
        return dict(zip(self.cols, self.values[i].tolist()))


@contextmanager
def _reading(path: str | Path) -> Iterator[None]:
    """Report an OSError met checking or reading ``path`` as a one-line ConfigError."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot read {_brief(str(path))}: {exc.strerror or exc}") from None


def _read_text(source: str | Path | IO[str]) -> str:
    """The text of a path or a stream, less one leading BOM."""
    if isinstance(source, (str, Path)):
        try:
            with _reading(source):
                text = Path(source).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(
                f"{_brief(str(source))} is not UTF-8 text (byte {exc.start})"
            ) from None
    else:
        text = source.read()
    # The BOM goes after decoding, so the byte of a decode error counts it.
    return text.removeprefix("\ufeff")


@contextmanager
def _malformed(what: str) -> Iterator[None]:
    """Report malformed input read in the block as a one-line ValidationError.

    Invalid JSON or CSV, a missing key, or a value of the wrong kind is named
    after ``what``; the toolkit's own errors pass through unchanged.
    """
    try:
        yield
    except (ConfigError, ValidationError):
        raise
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} is not valid JSON: {exc}") from None
    except csv.Error as exc:  # a field past csv.field_size_limit(); a lone \r in a stream
        raise ValidationError(f"{what} is not valid CSV: {exc}") from None
    except KeyError as exc:
        raise ValidationError(f"{what} lacks the key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad value in {what}: {exc}") from None


def _sniff_delimiter(text: str) -> str:
    """',', ';' or a tab: the delimiter of ``text``, as its first 2048 characters show."""
    # Whole, non-blank lines only: a cut-off or empty line spoils the per-line counts.
    sample = "\n".join(line for line in text[:2048].split("\n")[:-1] if line.strip())
    if ";" not in sample and "\t" not in sample:
        return ","  # the Sniffer only picks a delimiter the sample holds
    try:
        return csv.Sniffer().sniff(sample, delimiters=",;\t").delimiter
    except csv.Error:
        return ","


def _csv_lines(text: str, delimiter: str | None = None) -> list[list[str]]:
    """The rows of delimited ``text`` that hold more than whitespace; None sniffs ``delimiter``."""
    reader = csv.reader(io.StringIO(text), delimiter=delimiter or _sniff_delimiter(text))
    return [row for row in reader if "".join(row).strip()]


def _as_wide(raw: list[str], width: int) -> list[str]:
    """``raw``, if it has ``width`` cells; else an error naming the row by its first cell."""
    if len(raw) != width:
        raise ValidationError(
            f"column count mismatch at row {_brief(raw[0])}: expected {width}, got {len(raw)}"
        )
    return raw


def _cell_number(cell: str, row: str, column: object, kind: Callable = float) -> Any:
    """``kind(cell)`` after stripping, or an error naming the cell, its row and its column."""
    cell = cell.strip()  # str.strip() also takes characters float() rejects, e.g. \x1c
    try:
        return kind(cell)
    except ValueError:
        raise ValidationError(
            f"non-numeric cell {_brief(cell)} at row {_brief(row)}, column {column}"
        ) from None


def _json_loads(text: str) -> Any:
    """``json.loads(text)``; an integer past 4,300 digits fails with the first
    clause of Python's 140-character error, the one that names the limit."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError as exc:
        raise ValueError(str(exc).partition(":")[0]) from None


@contextmanager
def _json_document(text: str, what: str) -> Iterator[dict]:
    """Parse ``text`` as a JSON object for the block that builds a value from it."""
    with _malformed(what):
        doc = _json_loads(text)
        yield _expect(doc, _DOCUMENT, "the document", shown=lambda v: _KINDS[type(v)])


# Rules for JSON values, in config and input files alike: (what a value must
# be, the test it must pass). JSON true and false load as bool, which
# ``type(v) is int`` keeps out; a number may be NaN or infinite. A JSON
# integer is a number only if float() can represent it: 2**1024 - 2**970 is
# the least one that rounds past the float range, so float() refuses it.
_INT_LIMIT = 2**1024 - 2**970
_INTEGER = ("an integer", lambda v: type(v) is int and -_INT_LIMIT < v < _INT_LIMIT)
_NUMBER = ("a number", lambda v: type(v) is float or _INTEGER[1](v))
_FLOATS = frozenset((float,))
_STRING = ("a string", lambda v: type(v) is str)
_FLAG = ("true or false", lambda v: type(v) is bool)
_LIST = ("a list", lambda v: type(v) is list)
_OBJECT = ("an object", lambda v: type(v) is dict)
_STRINGS = ("a list of strings", lambda v: type(v) is list and all(type(s) is str for s in v))
_INTERVAL = ("[a, b]", lambda v: type(v) is list and len(v) == 2)
_POLARITY = ('"+" or "-"', lambda v: v in ("+", "-"))
_DOCUMENT = ("a JSON object", _OBJECT[1])
# The kind of a document that is no object, named in place of its text, which may be long.
_KINDS = {
    list: "a list", str: "a string", int: "a number", float: "a number", bool: "a boolean",
    type(None): "null",
}


def _brief(value: Any) -> str:
    """``repr(value)``, cut to 60 characters and its length when longer: a short error line.

    A string of up to 60 characters and its two quotes are shown whole.
    """
    text = repr(value)
    return text if len(text) <= 62 else f"{text[:60]}... ({len(text)} characters)"


def _expect(
    value: Any, rule: tuple[str, Callable[[Any], bool]], what: str, shown: Callable = _brief
) -> Any:
    """``value``, if it passes ``rule``; else a ValueError naming ``what`` and ``shown(value)``."""
    want, ok = rule
    if not ok(value):
        raise ValueError(f"{what} must be {want}, got {shown(value)}")
    return value


def _json_numbers(values: list, what: str) -> list:
    """``values``, if JSON gave each as a number; else the ``_NUMBER`` error for the first."""
    if not _FLOATS.issuperset(map(type, values)):  # one type scan; an int needs its range test
        for value in values:
            _expect(value, _NUMBER, what)
    return values


def load_decision_matrix(
    source: str | Path | IO[str],
    hierarchy: IndicatorHierarchy,
    *,
    impute_missing: bool = False,
) -> DecisionMatrix:
    """Load a decision matrix from delimiter-separated text or its JSON form.

    The header row names indicators by id string and the first column
    holds sample labels. Columns are reordered to hierarchy order no
    matter how the file orders them. Empty cells are rejected unless
    ``impute_missing`` is set, in which case they receive the column
    mean of the present values.
    """
    text = _read_text(source)
    if text.lstrip()[:1] in ("{", "["):
        labels, ids, grid = _parse_json_matrix(text)
    else:
        with _malformed("decision matrix file"):
            labels, ids, grid = _parse_delimited_matrix(text)

    known = set(hierarchy.ids)
    for ind in ids:
        if ind not in known:
            raise ValidationError(f"unknown indicator {ind}")
    present = set(ids)
    if len(present) != len(ids):
        raise ValidationError("duplicate indicator column in header")
    missing_cols = [str(i) for i in hierarchy.ids if i not in present]
    if missing_cols:
        raise ValidationError(
            "missing indicator columns: " + ", ".join(missing_cols)
        )
    if len(set(labels)) != len(labels):
        seen: set = set()  # set.add returns None, so next() stops at the first repeat
        dup = next(lab for lab in labels if lab in seen or seen.add(lab))
        raise ValidationError(f"duplicate sample label {_brief(dup)}")

    arr = np.asarray(grid, dtype=float)  # fresh; may hold NaN placeholders
    if np.isnan(arr).any():
        if not impute_missing:
            i, j = np.argwhere(np.isnan(arr))[0]
            raise ValidationError(
                f"missing cell at row {_brief(labels[i])}, column {ids[j]}"
            )
        missing = np.isnan(arr)
        empty = missing.all(axis=0)
        if empty.any():
            raise ValidationError(f"column {ids[empty.argmax()]} has no values to impute from")
        # DecisionMatrix rejects these anyway; a mean across inf and -inf would also warn.
        if np.isinf(arr).any():
            raise ValidationError("matrix contains missing or non-finite cells")
        # A mean past the float range imputes inf, which DecisionMatrix rejects.
        with np.errstate(over="ignore"):
            for j in range(arr.shape[1]):
                col, mask = arr[:, j], missing[:, j]
                col[mask] = col[~mask].mean()

    # Reorder columns to hierarchy order regardless of input order.
    order = [ids.index(i) for i in hierarchy.ids]
    return DecisionMatrix(rows=tuple(labels), cols=tuple(hierarchy.ids), values=arr[:, order])


def _parse_delimited_matrix(text: str):
    delim = _sniff_delimiter(text)
    # Fast path: with no quoting and every line as wide as the header, numpy's
    # C tokenizer reads the numbers, converting each cell as float() does. Any
    # file it cannot take (a quote, a ragged line, a line longer than a csv
    # field may be, a `\r` inside a line, an empty cell, `1_000`, non-ASCII
    # digits) goes to the csv reader below: the reference, and the only
    # source of error messages.
    lines = [line for line in text.split("\n") if line.strip()]
    if '"' not in text and len(lines) >= 2 and "\r" not in lines[0][:-1]:
        width = lines[0].count(delim)
        if (
            all(line.count(delim) == width for line in lines)
            and max(map(len, lines)) <= csv.field_size_limit()
        ):
            try:
                ids = [IndicatorId.parse(tok.strip()) for tok in lines[0].split(delim)[1:]]
                values = np.loadtxt(
                    lines[1:], delimiter=delim, usecols=range(1, width + 1),
                    comments=None, ndmin=2,
                )
            except ValueError:  # a ValidationError too: the csv reader reports it
                pass
            else:
                labels = [line.partition(delim)[0].strip() for line in lines[1:]]
                return labels, ids, values
    rows = _csv_lines(text, delim)
    if len(rows) < 2:
        raise ValidationError("decision matrix file needs a header row and at least one sample")
    ids = [IndicatorId.parse(tok.strip()) for tok in rows[0][1:]]
    labels: list[str] = []
    grid: list[list[float]] = []
    for raw in rows[1:]:
        label = _as_wide(raw, len(rows[0]))[0].strip()
        labels.append(label)
        grid.append([
            _cell_number(c, label, ind) if c.strip() else math.nan for ind, c in zip(ids, raw[1:])
        ])
    return labels, ids, grid


def _parse_json_matrix(text: str):
    with _json_document(text, "decision matrix file") as obj:
        labels = [_expect(r, _STRING, "rows entry") for r in _expect(obj["rows"], _LIST, "rows")]
        ids = [IndicatorId.parse(tok) for tok in _expect(obj["columns"], _LIST, "columns")]
        values = _expect(obj["values"], _LIST, "values")
        if len(values) != len(labels):
            raise ValidationError(
                f"decision matrix file has a different number of rows ({len(labels)}) "
                f"and value rows ({len(values)})"
            )
        grid: list[list[float]] = []
        for label, row in zip(labels, values):
            if len(_expect(row, _LIST, f"values row {_brief(label)}")) != len(ids):
                raise ValidationError(
                    f"column count mismatch at row {_brief(label)}: "
                    f"expected {len(ids)}, got {len(row)}"
                )
            _json_numbers([c for c in row if c is not None], f"cell at row {_brief(label)}")
            grid.append([float("nan") if c is None else float(c) for c in row])
        return labels, ids, grid


def serialize_decision_matrix(matrix: DecisionMatrix) -> str:
    """Write the matrix back to CSV text.

    Floats use ``repr`` so that reloading reproduces every finite value
    bit-exactly.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["sample", *[str(c) for c in matrix.cols]])
    for label, row in zip(matrix.rows, matrix.values):
        writer.writerow([label, *[repr(float(v)) for v in row]])
    return out.getvalue()
