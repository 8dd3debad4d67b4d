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

__all__ = ["Provenance", "format_number", "render_table", "hash_bytes"]


def hash_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Provenance(Record):
    """Identifies the run that produced an output file."""

    _fields = ("config_hash", "seed", "version", "invocation")

    def __init__(self, config_hash: str, seed: int, version: str, invocation: str) -> None:
        self.__dict__.update(
            config_hash=config_hash, seed=seed, version=version, invocation=invocation
        )

    def header_lines(self) -> list[str]:
        return [
            f"# config_hash={self.config_hash}",
            f"# seed={self.seed}",
            f"# version={self.version}",
            f"# invocation={self.invocation}",
        ]


def format_number(value: float) -> str:
    """Decimal, 9 significant digits."""
    return format(float(value), ".9g")


def _cell(value) -> str:
    if isinstance(value, float):  # the common cell, so tested first
        return format_number(value)
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
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return "\n".join(provenance.header_lines()) + "\n" + body.getvalue()
