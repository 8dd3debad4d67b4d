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
import re
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import total_ordering
from pathlib import Path
from typing import IO, Any, Iterator, Mapping

import numpy as np

from ._record import Record, frozen_array
from .errors import ConfigError, ValidationError

__all__ = [
    "Category",
    "CATEGORY_SIZES",
    "Polarity",
    "IndicatorId",
    "IndicatorSpec",
    "IndicatorHierarchy",
    "Violation",
    "DecisionMatrix",
    "all_indicator_ids",
    "default_hierarchy",
    "load_hierarchy",
    "validate_hierarchy",
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

    Ordering is lexicographic by (category letter, index), which is the
    canonical hierarchy order and the deterministic tie-break used by
    feature selection.
    """

    _fields = ("category", "index")

    def __init__(self, category: Category, index: int) -> None:
        limit = CATEGORY_SIZES[category]
        if not 1 <= index <= limit:
            raise ValidationError(
                f"indicator index {index} out of range 1..{limit} "
                f"for category {category.value}"
            )
        # From ints only: unlike a (salted) str hash it is the same in every process.
        self.__dict__.update(
            category=category, index=index, _hash=hash((ord(category.value), index))
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.category, self.index) < (other.category, other.index)
        return NotImplemented

    def __str__(self) -> str:
        return f"{self.category.value}{self.index}"

    @staticmethod
    def parse(text: str) -> "IndicatorId":
        try:
            return _PARSED_IDS[text]
        except KeyError:
            pass
        m = _ID_PATTERN.match(text.strip())
        if m is None:
            raise ValidationError(f"unknown indicator {text!r}")
        parsed = IndicatorId(Category(m.group(1)), int(m.group(2)))
        if m.group(0) == text:
            _PARSED_IDS[text] = parsed
        return parsed


# Ids are frozen, so every parse of the same text may share one instance.
# Only texts that parse as they are, unpadded, are kept: a letter and an
# index of one or two digits bound their number.
_PARSED_IDS: dict[str, IndicatorId] = {}


def all_indicator_ids() -> tuple[IndicatorId, ...]:
    """All 30 indicator ids in hierarchy order."""
    return tuple(
        IndicatorId(cat, i)
        for cat in Category
        for i in range(1, CATEGORY_SIZES[cat] + 1)
    )


@dataclass(frozen=True)
class IndicatorSpec:
    """One secondary indicator: id, display name, polarity, optional ideal band.

    ``ideal_interval`` is the (a, b) value band treated as fully
    satisfactory by interval normalization; values outside it are scored
    down linearly.
    """

    id: IndicatorId
    name: str
    polarity: Polarity = Polarity.POSITIVE
    ideal_interval: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.ideal_interval is not None:
            a, b = self.ideal_interval
            if not a <= b:
                raise ValidationError(
                    f"ideal interval for {self.id} has a > b: ({a}, {b})"
                )
            object.__setattr__(self, "ideal_interval", (float(a), float(b)))


class Violation(Record):
    """One validation finding; data, not an exception."""

    _fields = ("field", "rule", "message")

    def __init__(self, field: str, rule: str, message: str) -> None:
        self.__dict__.update(field=field, rule=rule, message=message)


class IndicatorHierarchy(Record):
    """The two-level indicator tree plus primary-category weights.

    ``reduced=True`` marks deliberately small hierarchies (subsets of
    the 30) used by screening stages and tests; full coverage is then
    not demanded by :func:`validate_hierarchy`.
    """

    _fields = ("specs", "primary_weights", "reduced")

    def __init__(
        self,
        specs: tuple[IndicatorSpec, ...],
        primary_weights: Mapping[Category, float],
        reduced: bool = False,
    ) -> None:
        specs = tuple(specs)
        self.__dict__.update(
            specs=specs,
            primary_weights={Category(k): float(v) for k, v in dict(primary_weights).items()},
            reduced=reduced,
            _by_id={s.id: s for s in specs},
        )

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


def default_hierarchy(
    primary_weights: Mapping[Category, float] | None = None,
) -> IndicatorHierarchy:
    """Full 30-indicator hierarchy with uniform primary weights by default."""
    if primary_weights is None:
        primary_weights = {c: 1.0 / len(Category) for c in Category}
    specs = tuple(
        IndicatorSpec(IndicatorId.parse(key), name, polarity)
        for key, (name, polarity) in _DEFAULT_NAMES.items()
    )
    return IndicatorHierarchy(specs=specs, primary_weights=primary_weights)


def load_hierarchy(source: str | Path | IO[str]) -> IndicatorHierarchy:
    """Load a hierarchy from its JSON file form (see docs/data-format.md)."""
    with _json_document(_read_text(source), "hierarchy file") as obj:
        specs = []
        for entry in obj["indicators"]:
            interval = entry.get("ideal_interval")
            specs.append(
                IndicatorSpec(
                    id=IndicatorId.parse(entry["id"]),
                    name=entry.get("name", entry["id"]),
                    polarity=Polarity(entry.get("polarity", "+")),
                    ideal_interval=tuple(interval) if interval else None,
                )
            )
        weights = {Category(k): float(v) for k, v in obj["primary_weights"].items()}
        return IndicatorHierarchy(
            specs=tuple(specs),
            primary_weights=weights,
            reduced=bool(obj.get("reduced", False)),
        )


_WEIGHT_SUM_TOL = 1e-9


def validate_hierarchy(h: IndicatorHierarchy) -> list[Violation]:
    """Check hierarchy invariants; an empty list means the hierarchy is usable.

    Violations are returned as data rather than raised so callers can
    report all problems at once.
    """
    out: list[Violation] = []

    seen: set[IndicatorId] = set()
    for s in h.specs:
        if s.id in seen:
            out.append(
                Violation("specs", "duplicate", f"indicator {s.id} appears twice")
            )
        seen.add(s.id)

    if not h.reduced:
        missing = [str(i) for i in all_indicator_ids() if i not in seen]
        if missing:
            out.append(
                Violation(
                    "specs",
                    "coverage",
                    "missing indicators: " + ", ".join(missing),
                )
            )

    cats = set(h.categories)
    wkeys = set(h.primary_weights)
    if cats != wkeys:
        out.append(
            Violation(
                "primary_weights",
                "weight-coverage",
                f"weight keys {sorted(c.value for c in wkeys)} do not match "
                f"categories present {sorted(c.value for c in cats)}",
            )
        )
    if any(w < 0 for w in h.primary_weights.values()):
        out.append(
            Violation("primary_weights", "weight-range", "negative category weight")
        )
    total = sum(h.primary_weights.values())
    if abs(total - 1.0) > _WEIGHT_SUM_TOL:
        out.append(
            Violation(
                "primary_weights",
                "weight-sum",
                f"category weights sum to {total!r}, expected 1",
            )
        )
    return out


class DecisionMatrix(Record):
    """Samples (cities or years) x indicators matrix of raw values.

    Values are dense float64 with no missing cells; ingestion either
    rejects gaps or imputes them explicitly, never silently produces
    NaN.
    """

    _fields = ("rows", "cols", "values", "units")

    def __init__(
        self,
        rows: tuple[str, ...],
        cols: tuple[IndicatorId, ...],
        values: np.ndarray,
        units: tuple[str, ...] | None = None,
    ) -> None:
        rows = tuple(rows)
        cols = tuple(cols)
        vals = frozen_array(values)
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
        if units is not None:
            units = tuple(str(u) for u in units)
            if len(units) != len(cols):
                raise ValidationError("units do not match the column count")
        self.__dict__.update(
            rows=rows, cols=cols, values=vals, units=units, _row_index=row_index
        )

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
            raise ValidationError(f"sample {label!r} not in matrix") from None
        return dict(zip(self.cols, self.values[i].tolist()))


def _read_text(source: str | Path | IO[str]) -> str:
    if isinstance(source, (str, Path)):
        try:
            return Path(source).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{source} is not UTF-8 text (byte {exc.start})") from None
    return source.read()


@contextmanager
def _malformed(what: str) -> Iterator[None]:
    """Report malformed input read in the block as a one-line ValidationError.

    Invalid JSON, a missing key, or a value of the wrong kind is named
    after ``what``; the toolkit's own errors pass through unchanged.
    """
    try:
        yield
    except (ConfigError, ValidationError):
        raise
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} is not valid JSON: {exc}") from None
    except KeyError as exc:
        raise ValidationError(f"{what} lacks the key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad value in {what}: {exc}") from None


@contextmanager
def _csv_errors(what: str) -> Iterator[None]:
    """Report a line the csv reader rejects as a one-line ValidationError naming ``what``.

    It rejects a field longer than ``csv.field_size_limit()`` and, in text
    read from a stream, a lone carriage return inside a line.
    """
    try:
        yield
    except csv.Error as exc:
        raise ValidationError(f"{what} is not valid CSV: {exc}") from None


@contextmanager
def _json_document(text: str, what: str) -> Iterator[Any]:
    """Parse ``text`` as JSON for the block that builds a value from it."""
    with _malformed(what):
        yield json.loads(text)


def _sniff_delimiter(text: str) -> str:
    # Whole, non-blank lines only: a cut-off or empty line spoils the per-line counts.
    sample = "\n".join(line for line in text[:2048].split("\n")[:-1] if line.strip())
    try:
        return csv.Sniffer().sniff(sample, delimiters=",;\t").delimiter
    except csv.Error:
        return ","


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
        labels, ids, grid, units = _parse_json_matrix(text)
    else:
        with _csv_errors("decision matrix file"):
            labels, ids, grid, units = _parse_delimited_matrix(text)

    known = set(hierarchy.ids)
    for ind in ids:
        if ind not in known:
            raise ValidationError(f"unknown indicator {ind!r}")
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
        raise ValidationError(f"duplicate sample label {dup!r}")

    arr = np.asarray(grid, dtype=float)  # fresh; may hold NaN placeholders
    if np.isnan(arr).any():
        if not impute_missing:
            i, j = np.argwhere(np.isnan(arr))[0]
            raise ValidationError(
                f"missing cell at row {labels[i]!r}, column {ids[j]}"
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
    if units is not None:
        units = tuple(units[j] for j in order)
    return DecisionMatrix(
        rows=tuple(labels), cols=tuple(hierarchy.ids), values=arr[:, order],
        units=units,
    )


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
                return labels, ids, values, None
    reader = csv.reader(io.StringIO(text), delimiter=delim)
    rows = [r for r in reader if "".join(r).strip()]
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
        # float() strips padding itself; only a row with a gap or a bad cell
        # needs the cell-by-cell pass.
        try:
            grid.append(list(map(float, raw[1:])))
        except ValueError:
            grid.append([_cell_value(c, labels[-1], ind) for ind, c in zip(ids, raw[1:])])
    return labels, ids, grid, None


def _cell_value(cell: str, label: str, ind: IndicatorId) -> float:
    cell = cell.strip()
    if cell == "":
        return float("nan")
    try:
        return float(cell)
    except ValueError:
        raise ValidationError(f"non-numeric cell {cell!r} at row {label!r}, column {ind}") from None


def _parse_json_matrix(text: str):
    with _json_document(text, "decision matrix file") as obj:
        labels = [str(r) for r in obj["rows"]]
        ids = [IndicatorId.parse(tok) for tok in obj["columns"]]
        units = obj.get("units")
        if units is not None:
            if len(units) != len(ids):
                raise ValidationError("units list does not match the column count")
            units = [str(u) for u in units]
        grid: list[list[float]] = []
        for label, row in zip(labels, obj["values"]):
            if len(row) != len(ids):
                raise ValidationError(
                    f"column count mismatch at row {label!r}: "
                    f"expected {len(ids)}, got {len(row)}"
                )
            parsed = []
            for ind, cell in zip(ids, row):
                if cell is None:
                    parsed.append(float("nan"))
                elif isinstance(cell, (int, float)):
                    parsed.append(float(cell))
                else:
                    raise ValidationError(
                        f"non-numeric cell {cell!r} at row {label!r}, column {ind}"
                    )
            grid.append(parsed)
        return labels, ids, grid, units


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
