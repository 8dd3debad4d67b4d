"""Byte-for-byte pins of CLI outputs.

The files under ``tests/golden/<id>/`` are the outputs of each invocation
below with their provenance header lines removed; ``winter-300/`` also
holds the warnings the run emits, one per line, in order, and
``evaluate-1000/`` pins ``evaluate`` on a generated 1,000-row matrix. Each directory
also holds ``stdout.txt``, what the run prints with the config hash masked
and every written path reduced to its file name, and ``provenance.txt``,
the ``# seed=`` and ``# invocation=`` header lines every output starts
with. Regenerate them only on purpose, by rerunning the invocations and
stripping the leading ``# `` lines, and record why.
"""

import hashlib
import json
import random
import re
import warnings
from pathlib import Path

import pytest

from hostrank import __version__
from hostrank.cli import EXIT_OK, EXIT_VALIDATION, OUTPUT_DIR_ENV, main

GOLDEN = Path(__file__).resolve().parent / "golden"

WEIGHTS_FILES = [
    "ahp_categories.csv", "ahp_indicators.csv", "ahp_consistency.csv",
    "entropy.csv", "combined.csv", "total.csv", "features.csv",
]
WINTER_FILES = ["winter_climate.csv", "winter_ranking.csv", "winter_features.csv"]

# (id, argv after the subcommand words, output files); ``{fixtures}`` is
# replaced by the shipped fixture directory.
INVOCATIONS = [
    ("sensitivity", ["sensitivity", "--seed", "7", "--trials", "50"], ["sensitivity.csv"]),
    ("evaluate", ["evaluate", "--features", "10"], ["evaluation.csv", "features.csv"]),
    (
        "rsm",
        ["rsm", "--factors", "xi1,xi10", "--grid", "25"],
        ["rsm_grid.csv", "rsm_surface.csv", "rsm_extrema.csv"],
    ),
    ("weights", ["weights", "--method", "combined"], WEIGHTS_FILES),
    (
        "weights-ahp",
        ["weights", "--method", "ahp"],
        ["ahp_categories.csv", "ahp_indicators.csv", "ahp_consistency.csv"],
    ),
    ("weights-entropy", ["weights", "--method", "entropy"], ["entropy.csv"]),
    (
        "forecast",
        ["forecast", "--pool", "{fixtures}/winter_pool.json", "--indicator", "feb_temp_c",
         "--until", "2050", "--city", "Calgary"],
        ["forecast.csv"],
    ),
    (
        "forecast-all",
        ["forecast", "--pool", "{fixtures}/winter_pool.json", "--indicator", "feb_snow_cm",
         "--until", "2040"],
        ["forecast.csv"],
    ),
    ("screen-winter", ["screen", "winter", "--pool", "{fixtures}/winter_pool.json"], WINTER_FILES),
    (
        "screen-summer",
        ["screen", "summer", "--pool", "{fixtures}/world_pool.csv"],
        ["summer_screen.csv", "summer_ranking.csv", "summer_features.csv", "swot_report.txt"],
    ),
    (
        "compare-schemes",
        ["compare-schemes", "--plans", "{fixtures}/plans.json"],
        ["schemes.csv", "scheme_features.csv"],
    ),
]


def strip_provenance(text: str) -> str:
    lines = text.split("\n")
    i = 0
    while i < len(lines) and lines[i].startswith("# "):
        i += 1
    return "\n".join(lines[i:])


def run_cli(
    argv: list[str], config: Path, outdir: Path, monkeypatch, capsys
) -> tuple[list[str], str]:
    """Run the CLI into ``outdir``; return its warnings, in order, and its stdout.

    The stdout is normalized as ``stdout.txt`` holds it.
    """
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(outdir))
    words = 2 if argv[0] == "screen" else 1
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv[:words], "--config", str(config), *argv[words:]]) == EXIT_OK
    stdout = capsys.readouterr().out
    stdout = re.sub(r"(\] config )[0-9a-f]{12}( seed )", r"\1<hash>\2", stdout)
    stdout = re.sub(r"(  wrote ).*[/\\]", r"\1", stdout)
    return [str(w.message) for w in caught], stdout


def assert_matches_golden(
    outdir: Path, golden_dir: Path, names: list[str], config: Path, stdout: str
) -> None:
    config_hash = hashlib.sha256(config.read_bytes()).hexdigest()
    provenance = (golden_dir / "provenance.txt").read_text(encoding="utf-8").splitlines()
    for name in names:
        text = (outdir / name).read_text(encoding="utf-8")
        header = text.split("\n")[:4]
        assert header[0] == f"# config_hash={config_hash}", name
        assert header[2] == f"# version={__version__}", name
        assert [header[1], header[3]] == provenance, name
        produced = strip_provenance(text)
        assert produced.encode("utf-8") == (golden_dir / name).read_bytes(), name
    assert stdout.encode("utf-8") == (golden_dir / "stdout.txt").read_bytes()


@pytest.mark.parametrize(
    "case, argv, names", INVOCATIONS, ids=[case for case, _, _ in INVOCATIONS]
)
def test_outputs_match_golden_files(
    case, argv, names, fixtures_dir, tmp_path, monkeypatch, capsys
):
    argv = [a.replace("{fixtures}", str(fixtures_dir)) for a in argv]
    config = fixtures_dir / "run.json"
    _, stdout = run_cli(argv, config, tmp_path, monkeypatch, capsys)
    assert_matches_golden(tmp_path, GOLDEN / case, names, config, stdout)


def config_with_a_damaged_input(fixtures: Path, tmp_path: Path, key: str) -> Path:
    """The shipped config with input ``key`` unreadable: a decision matrix
    that is not UTF-8, or judgments cut off mid-JSON."""
    cfg = json.loads((fixtures / "run.json").read_text())
    for name in ("hierarchy", "judgments", "decision_matrix", "pool", "plans", "swot"):
        cfg[name] = str(fixtures / cfg[name])
    data = Path(cfg[key]).read_bytes()
    damaged = tmp_path / Path(cfg[key]).name
    damaged.write_bytes(
        data.replace(b"a", b"\xe0", 1) if key == "decision_matrix" else data[: len(data) // 2]
    )
    cfg[key] = str(damaged)
    config = tmp_path / "run.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    return config


@pytest.mark.parametrize("method, unused", [("ahp", "decision_matrix"), ("entropy", "judgments")])
def test_weights_method_reads_only_its_own_inputs(
    method, unused, fixtures_dir, tmp_path, monkeypatch, capsys
):
    config = config_with_a_damaged_input(fixtures_dir, tmp_path, unused)
    outdir = tmp_path / "out"
    _, stdout = run_cli(["weights", "--method", method], config, outdir, monkeypatch, capsys)
    golden = GOLDEN / f"weights-{method}"
    names = next(names for case, _, names in INVOCATIONS if case == golden.name)
    assert_matches_golden(outdir, golden, names, config, stdout)


@pytest.mark.parametrize(
    "key, message",
    [("decision_matrix", "is not UTF-8 text"), ("judgments", "judgments file is not valid JSON")],
)
def test_combined_weights_read_every_input(
    key, message, fixtures_dir, tmp_path, monkeypatch, capsys
):
    config = config_with_a_damaged_input(fixtures_dir, tmp_path, key)
    outdir = tmp_path / "out"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(outdir))
    assert main(["weights", "--config", str(config), "--method", "combined"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not outdir.exists()


def _scaled_series(series: dict, rng: random.Random) -> dict:
    values = series["values"]
    level = sum(values) / len(values)
    level_scale, shape_scale = rng.uniform(0.95, 1.05), rng.uniform(0.5, 2.0)
    return {
        "start_period": series["start_period"],
        "values": [round(level * level_scale + (v - level) * shape_scale, 4) for v in values],
    }


def _random_walk(level: float, step: float, rng: random.Random) -> dict:
    n = rng.randint(4, 9)
    values, v = [], level
    for _ in range(n):
        values.append(round(v, 3))
        v += rng.gauss(0.0, step)
    return {"start_period": 2021 - n, "values": values}


def winter_pool_300(
    rng: random.Random, fixtures: Path
) -> tuple[list[dict], dict[str, float]]:
    """300 cities derived from the 12 shipped winter cities.

    Most copies rescale the shipped climate series around their mean;
    every fifth city gets random-walk series of random length instead,
    and every 23rd a flat snowfall series, so the pool holds gate passers
    and failures, class-ratio failures, series shifted for nonpositive
    values and dispersion-free fits.
    """
    shipped = json.loads((fixtures / "winter_pool.json").read_text())["cities"]
    base_s = json.loads((fixtures / "run.json").read_text())["screen"]["winter"]["s_base"]
    cities, s_base = [], {}
    for i in range(300):
        base = shipped[i % len(shipped)]
        name = f"{base['name']} {i:03d}"
        temp, snow = base["climate"]["feb_temp_c"], base["climate"]["feb_snow_cm"]
        if i % 5 == 4:
            t_mean = sum(temp["values"]) / len(temp["values"])
            s_mean = sum(snow["values"]) / len(snow["values"])
            climate = {
                "feb_temp_c": _random_walk(t_mean, rng.uniform(0.05, 1.5), rng),
                "feb_snow_cm": _random_walk(s_mean, rng.uniform(0.05, 0.04 * s_mean), rng),
            }
        else:
            climate = {
                "feb_temp_c": _scaled_series(temp, rng),
                "feb_snow_cm": _scaled_series(snow, rng),
            }
        if i % 23 == 11:
            flat = round(rng.uniform(25.0, 60.0), 1)
            climate["feb_snow_cm"] = {"start_period": 2015, "values": [flat] * 6}
        cities.append({
            "name": name,
            "country": base["country"],
            "gdp": round(base["gdp"] * rng.uniform(0.8, 1.25), 4),
            "sports_score": round(base["sports_score"] * rng.uniform(0.8, 1.25), 2),
            "climate": climate,
            "indicators": {k: round(v * rng.uniform(0.95, 1.05), 4)
                           for k, v in base["indicators"].items()},
        })
        if base["name"] in base_s:
            s_base[name] = base_s[base["name"]]
    return cities, s_base


def test_winter_screen_on_a_generated_pool_matches_golden(
    fixtures_dir, tmp_path, monkeypatch, capsys
):
    cities, s_base = winter_pool_300(random.Random(0), fixtures_dir)
    pool = tmp_path / "winter_pool.json"
    pool.write_text(json.dumps({"cities": cities}), encoding="utf-8")
    cfg = json.loads((fixtures_dir / "run.json").read_text())
    for key in ("hierarchy", "judgments", "decision_matrix", "plans", "swot"):
        cfg[key] = str(fixtures_dir / cfg[key])
    cfg["pool"] = str(pool)
    cfg["screen"]["stage1"] = {"gdp_rank": len(cities), "sports_rank": len(cities)}
    cfg["screen"]["winter"].update(exclude=[], s_base=s_base)
    config = tmp_path / "run.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")

    outdir = tmp_path / "out"
    caught, stdout = run_cli(["screen", "winter"], config, outdir, monkeypatch, capsys)
    golden = GOLDEN / "winter-300"
    assert_matches_golden(outdir, golden, WINTER_FILES, config, stdout)
    assert "\n".join(caught) + "\n" == (golden / "warnings.txt").read_text(encoding="utf-8")


def decision_matrix_1000(rng: random.Random, fixtures: Path) -> str:
    """CSV text of a 1,000-row decision matrix over the shipped indicators.

    Each column draws uniformly from its own positive range at its own
    number of decimals, so scaled values and scores vary in magnitude.
    """
    hierarchy = json.loads((fixtures / "hierarchy.json").read_text())
    ids = [spec["id"] for spec in hierarchy["indicators"]]
    columns = [
        (rng.uniform(0.5, 50.0), rng.uniform(1.0, 500.0), rng.randint(1, 4)) for _ in ids
    ]
    lines = ["city," + ",".join(ids)]
    for i in range(1000):
        cells = (round(lo + width * rng.random(), places) for lo, width, places in columns)
        lines.append(f"alt-{i:04d}," + ",".join(str(c) for c in cells))
    return "\n".join(lines) + "\n"


def test_evaluate_on_a_generated_matrix_matches_golden(
    fixtures_dir, tmp_path, monkeypatch, capsys
):
    matrix = tmp_path / "decision_matrix.csv"
    matrix.write_text(decision_matrix_1000(random.Random(0), fixtures_dir), encoding="utf-8")
    cfg = json.loads((fixtures_dir / "run.json").read_text())
    for key in ("hierarchy", "judgments", "pool", "plans", "swot"):
        cfg[key] = str(fixtures_dir / cfg[key])
    cfg["decision_matrix"] = str(matrix)
    config = tmp_path / "run.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")

    outdir = tmp_path / "out"
    _, stdout = run_cli(["evaluate", "--features", "10"], config, outdir, monkeypatch, capsys)
    names = ["evaluation.csv", "features.csv"]
    assert_matches_golden(outdir, GOLDEN / "evaluate-1000", names, config, stdout)


def test_evaluate_on_a_padded_semicolon_crlf_matrix_matches_golden(
    fixtures_dir, tmp_path, monkeypatch, capsys
):
    """Delimiter, cell padding and line endings do not reach the numbers."""
    rows = (fixtures_dir / "decision_matrix.csv").read_text(encoding="utf-8").splitlines()
    assert all(";" not in row and '"' not in row for row in rows)
    matrix = tmp_path / "decision_matrix.csv"
    matrix.write_bytes(
        "".join(" ; ".join(f" {c}" for c in row.split(",")) + "\r\n" for row in rows).encode()
    )
    cfg = json.loads((fixtures_dir / "run.json").read_text())
    for key in ("hierarchy", "judgments", "pool", "plans", "swot"):
        cfg[key] = str(fixtures_dir / cfg[key])
    cfg["decision_matrix"] = str(matrix)
    config = tmp_path / "run.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")

    outdir = tmp_path / "out"
    _, stdout = run_cli(["evaluate", "--features", "10"], config, outdir, monkeypatch, capsys)
    names = ["evaluation.csv", "features.csv"]
    assert_matches_golden(outdir, GOLDEN / "evaluate", names, config, stdout)
