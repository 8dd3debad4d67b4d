"""The CLI's error contract on mutated input text, driven by hypothesis.

Each shipped fixture, and the run config, is read by one subcommand. A
drawn list of mutations changes the file's bytes the way editors,
spreadsheets and interrupted copies do: a byte order mark, CRLF line ends,
a ';' or tab delimiter (delimited files only), trailing blank lines,
truncation at a drawn byte, or one byte that is not UTF-8. The subcommand
then runs in process through ``cli.main``, with warnings recorded.

Some examples start with an output directory that an earlier run left.
Whatever the bytes, a run exits 0, 2, 3 or 4 and prints no traceback; a
run that fails prints exactly one stderr line, under 200 characters, and
leaves the output directory as it found it: absent, or holding the
earlier files byte for byte. The seed and the example count are fixed,
so every tier-1 run draws the same files.
"""

import io
import os
import shutil
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from tempfile import TemporaryDirectory
from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hostrank.cli import OUTPUT_DIR_ENV, main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# The config that reads the climate file: the shipped one with its "climate" key set.
CLIMATE_CONFIG = "climate_run.json"

# Each input file and the subcommand that reads it; {dir} is the directory the
# fixtures are copied into, and --config names its run.json unless given.
READERS = {
    "run.json": ["weights", "--method", "ahp"],
    "hierarchy.json": ["weights", "--method", "ahp"],
    "judgments.json": ["weights", "--method", "ahp"],
    "decision_matrix.csv": ["weights", "--method", "entropy"],
    "world_pool.csv": ["screen", "summer"],
    "swot.json": ["screen", "summer"],
    "plans.json": ["compare-schemes"],
    "winter_pool.json": ["forecast", "--pool", "{dir}/winter_pool.json",
                         "--indicator", "feb_temp_c", "--until", "2030"],
    "climate_sample.csv": ["forecast", "--config", f"{{dir}}/{CLIMATE_CONFIG}",
                           "--pool", "{dir}/winter_pool.json",
                           "--indicator", "feb_snow_cm", "--until", "2030"],
}


# What an earlier run left in the output directory: a file each reader's
# subcommand writes, and one that no run writes.
EARLIER = {
    name: f"from an earlier run: {name}\n".encode()
    for name in (
        "ahp_categories.csv", "entropy.csv", "summer_screen.csv", "schemes.csv", "forecast.csv",
        "notes.txt",
    )
}


def _mutation(delimited: bool):
    """A strategy for one mutation: a function from the file's bytes to new bytes."""
    kinds = [
        st.just(lambda data: b"\xef\xbb\xbf" + data),
        st.just(lambda data: data.replace(b"\n", b"\r\n")),
        st.sampled_from([b"\n", b"\n\n\n", b"\r\n\r\n", b"\n \n\t\n"]).map(
            lambda tail: lambda data: data + tail
        ),
        st.floats(0, 1).map(lambda at: lambda data: data[: round(at * len(data))]),
        st.tuples(st.floats(0, 1), st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0"])).map(
            lambda t: lambda data: (
                data[: round(t[0] * len(data))] + t[1] + data[round(t[0] * len(data)) + 1 :]
            )
        ),
    ]
    if delimited:
        kinds.append(st.sampled_from([b";", b"\t"]).map(
            lambda delim: lambda data: data.replace(b",", delim)
        ))
    return st.one_of(kinds)


def _run(
    name: str, data: bytes, earlier: dict[str, bytes] | None = None
) -> tuple[int, str, dict[str, bytes] | None]:
    """Run ``name``'s reader on a fixture copy whose ``name`` holds ``data``,
    into an output directory that holds ``earlier``, or none when None: the
    exit code, what it printed on stderr and the output directory's files
    afterwards, None when it does not exist."""
    with TemporaryDirectory() as tmp:
        shutil.copytree(FIXTURES, tmp, dirs_exist_ok=True)
        config = (FIXTURES / "run.json").read_text(encoding="utf-8")
        Path(tmp, CLIMATE_CONFIG).write_text(
            config.replace('"climate": null', '"climate": "climate_sample.csv"'), encoding="utf-8"
        )
        Path(tmp, name).write_bytes(data)
        argv = [a.format(dir=tmp) for a in READERS[name]]
        if "--config" not in argv:
            argv += ["--config", f"{tmp}/run.json"]
        outdir = Path(tmp, "out")
        if earlier is not None:
            outdir.mkdir()
            for file, content in earlier.items():
                (outdir / file).write_bytes(content)
        err = io.StringIO()
        with warnings.catch_warnings(record=True), \
                mock.patch.dict(os.environ, {OUTPUT_DIR_ENV: str(outdir)}), \
                redirect_stdout(io.StringIO()), redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
        files = {p.name: p.read_bytes() for p in outdir.iterdir()} if outdir.exists() else None
        return code, err.getvalue(), files


def test_climate_config_reads_the_climate_file():
    assert '"climate": null' in (FIXTURES / "run.json").read_text(encoding="utf-8")
    data = (FIXTURES / "climate_sample.csv").read_bytes()
    code, err, files = _run("climate_sample.csv", data)
    assert (code, err) == (0, "") and "forecast.csv" in files
    # The climate file is read: cut off, it fails the run.
    assert _run("climate_sample.csv", data[:40])[0] == 3


@pytest.mark.parametrize("name", list(READERS))
def test_unmutated_fixture_runs(name):
    code, err, files = _run(name, (FIXTURES / name).read_bytes())
    assert (code, err) == (0, "") and files


@pytest.mark.parametrize("name", list(READERS))
@seed(20261021)
@settings(max_examples=25, database=None, deadline=None)
@given(data=st.data())
def test_mutated_input_keeps_the_error_contract(name, data):
    content = (FIXTURES / name).read_bytes()
    for mutate in data.draw(st.lists(_mutation(name.endswith(".csv")), min_size=1, max_size=3)):
        content = mutate(content)
    earlier = EARLIER if data.draw(st.booleans()) else None
    code, err, files = _run(name, content, earlier)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
        if earlier is not None:  # a file the stage does not write is never touched
            assert files["notes.txt"] == earlier["notes.txt"]
    else:
        assert err.count("\n") == 1 and err.endswith("\n") and len(err) < 200, err
        assert files == earlier
