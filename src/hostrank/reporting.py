"""Deterministic tabular output.

Numbers are written with 9 significant digits, locale-independent, and
every file starts with provenance comment lines (config hash, seed,
version, invocation), so re-running an identical configuration
reproduces byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import io
from typing import Iterable, Sequence

from ._record import Record

__all__ = ["NUMBER_FORMAT", "Provenance", "format_number", "render_table", "hash_bytes"]


def hash_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Provenance(Record):
    """Identifies the run that produced an output file."""

    _fields = ("config_hash", "seed", "version", "invocation")

    def header_lines(self) -> list[str]:
        return [
            f"# config_hash={self.config_hash}",
            f"# seed={self.seed}",
            f"# version={self.version}",
            f"# invocation={self.invocation}",
        ]


NUMBER_FORMAT = ".9g"
"""The format spec of every number written: decimal, 9 significant digits."""


def format_number(value: float) -> str:
    """``value`` printed with ``NUMBER_FORMAT``."""
    return format(float(value), NUMBER_FORMAT)


def _cell(value) -> str:
    # A float cell, numpy's float64 included, prints as format_number prints it.
    if isinstance(value, float):
        return format(value, NUMBER_FORMAT)
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def render_table(
    columns: Sequence[str],
    rows: Iterable[Sequence],
    provenance: Provenance,
) -> str:
    """Provenance header plus a CSV body (cells with delimiters get quoted)."""
    body = io.StringIO()
    writer = csv.writer(body, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(map(_cell, row) for row in rows)
    return "\n".join(provenance.header_lines()) + "\n" + body.getvalue()
