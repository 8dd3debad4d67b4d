"""Byte-for-byte pins of CLI outputs on the shipped fixtures.

The files under ``tests/golden/`` are the outputs with their provenance
header lines removed. Regenerate them only on purpose, by rerunning the
invocations below and stripping the leading ``# `` lines, and record why.
"""

from pathlib import Path

import pytest

from hostrank.cli import EXIT_OK, OUTPUT_DIR_ENV, main

GOLDEN = Path(__file__).resolve().parent / "golden"

INVOCATIONS = [
    (["sensitivity", "--seed", "7", "--trials", "50"], ["sensitivity.csv"]),
    (["evaluate", "--features", "10"], ["evaluation.csv"]),
    (
        ["rsm", "--factors", "xi1,xi10", "--grid", "25"],
        ["rsm_grid.csv", "rsm_surface.csv", "rsm_extrema.csv"],
    ),
]


def strip_provenance(text: str) -> str:
    lines = text.split("\n")
    i = 0
    while i < len(lines) and lines[i].startswith("# "):
        i += 1
    return "\n".join(lines[i:])


@pytest.mark.parametrize(
    "argv, names", INVOCATIONS, ids=[argv[0] for argv, _ in INVOCATIONS]
)
def test_outputs_match_golden_files(argv, names, fixtures_dir, tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    config = str(fixtures_dir / "run.json")
    assert main([argv[0], "--config", config, *argv[1:]]) == EXIT_OK
    for name in names:
        produced = strip_provenance((tmp_path / name).read_text(encoding="utf-8"))
        assert produced.encode("utf-8") == (GOLDEN / name).read_bytes(), name
