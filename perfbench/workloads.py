"""Workload definitions: seeded inputs, the CLI operations, and output checks.

A workload is one cycle of ``hostrank`` invocations (argv lists) that the
runner repeats. Every generated input is written under the run's work
directory and derived only from the seed, so one seed gives identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Output files each subcommand writes; an op with a missing or extra file fails.
OUTPUTS = {
    "weights": {
        "ahp_categories.csv", "ahp_indicators.csv", "ahp_consistency.csv",
        "entropy.csv", "combined.csv", "total.csv", "features.csv",
    },
    "evaluate": {"evaluation.csv", "features.csv"},
    "forecast": {"forecast.csv"},
    "screen winter": {"winter_climate.csv", "winter_ranking.csv", "winter_features.csv"},
    "screen summer": {
        "summer_screen.csv", "summer_ranking.csv", "summer_features.csv", "swot_report.txt",
    },
    "compare-schemes": {"schemes.csv", "scheme_features.csv"},
    "sensitivity": {"sensitivity.csv"},
    "rsm": {"rsm_grid.csv", "rsm_surface.csv", "rsm_extrema.csv"},
}

# Sizes keep one op near a second, so a run holds about twenty samples: on a
# shared 2-core host the run-to-run spread of the median op time roughly
# halved going from twice these sizes (about 2 s per op) to these.
MATRIX_ROWS = 5_000
TRIALS = 500
POOL_CITIES = 1_000
# Shipped winter cities whose derived copies must pass the climate gate, and
# those whose February temperature series must fail the class-ratio test.
# Perturbations below are small enough to keep each base city's outcome.
GATE_PASSERS = {"Calgary", "Moscow", "Pyeongchang"}
CLASS_RATIO_FAILERS = {"Stockholm", "Warsaw"}


class CheckError(Exception):
    """An output broke an invariant."""


@dataclass
class Op:
    """One CLI invocation: its argv, the work items it does, and its checks."""

    name: str
    argv: list[str]
    items: int
    outputs: set[str]
    check: Callable[[dict[str, str]], None] = lambda files: None


@dataclass
class Workload:
    name: str
    cycle: list[Op]
    # Config file and loader names the set-up probe calls.
    setup_config: Path
    setup_loaders: list[str]
    generated: list[Path] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    # Per-cycle counts the traced run must reproduce exactly.
    expected_counts: dict[str, int] = field(default_factory=dict)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def strip_provenance(text: str) -> str:
    """Drop the leading '# key=value' provenance lines of an output file."""
    lines = text.split("\n")
    i = 0
    while i < len(lines) and lines[i].startswith("# "):
        i += 1
    return "\n".join(lines[i:])


def table(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(strip_provenance(text))))


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def _config(work: Path, root: Path, **overrides) -> dict:
    """The shipped run config with input paths made relative to ``work``."""
    fixtures = root / "fixtures"
    cfg = _read_json(fixtures / "run.json")
    for key in ("hierarchy", "judgments", "decision_matrix", "pool", "plans", "swot"):
        if cfg.get(key) is not None:
            cfg[key] = os.path.relpath(fixtures / cfg[key], work)
    cfg.update(overrides)
    return cfg


# ---------------------------------------------------------------------------
# invariants


def check_total(files: dict[str, str]) -> None:
    omega = sum(float(r["omega"]) for r in table(files["total.csv"]))
    if abs(omega - 1.0) > 1e-9:
        raise CheckError(f"total.csv omega sums to {omega!r}")


def check_evaluation(files: dict[str, str], rows: int | None = None) -> None:
    data = table(files["evaluation.csv"])
    if rows is not None and len(data) != rows:
        raise CheckError(f"evaluation.csv has {len(data)} rows, expected {rows}")
    chis = [float(r["chi"]) for r in data]
    if any(not 0.0 <= c <= 1.0 for c in chis):
        raise CheckError("evaluation.csv chi outside [0, 1]")
    if [int(r["rank"]) for r in data] != list(range(1, len(data) + 1)):
        raise CheckError("evaluation.csv ranks are not 1..n")
    if any(a < b for a, b in zip(chis, chis[1:])):
        raise CheckError("evaluation.csv chi increases with rank")


def _check_ranking(text: str, name: str) -> list[dict[str, str]]:
    data = table(text)
    totals = [float(r["total"]) for r in data]
    if not data or any(a < b for a, b in zip(totals, totals[1:])):
        raise CheckError(f"{name} is not sorted by descending total")
    return data


def check_winter_fixture(files: dict[str, str]) -> None:
    top = _check_ranking(files["winter_ranking.csv"], "winter_ranking.csv")[0]["city"]
    if top != "Calgary":
        raise CheckError(f"top winter host is {top}, expected Calgary")


def check_summer_fixture(files: dict[str, str]) -> None:
    top = _check_ranking(files["summer_ranking.csv"], "summer_ranking.csv")[0]["city"]
    if top != "Beijing":
        raise CheckError(f"top summer host is {top}, expected Beijing")


def check_winter_pool(files: dict[str, str], gated: int, passing: int) -> None:
    climate = table(files["winter_climate.csv"])
    passed = sum(r["passed"] == "1" for r in climate)
    if (len(climate), passed) != (gated, passing):
        raise CheckError(
            f"climate gate passed {passed}/{len(climate)}, expected {passing}/{gated}"
        )
    ranked = _check_ranking(files["winter_ranking.csv"], "winter_ranking.csv")
    if len(ranked) != passing:
        raise CheckError(f"winter_ranking.csv ranks {len(ranked)} cities, expected {passing}")


def check_sensitivity(files: dict[str, str], trials: int, alternatives: int) -> None:
    body = strip_provenance(files["sensitivity.csv"])
    count = body.count("\ntrial,")
    if count != trials * alternatives:
        raise CheckError(
            f"sensitivity.csv has {count} trial rows, expected {trials * alternatives}"
        )


# ---------------------------------------------------------------------------
# workloads


def cli_fixture(root: Path, work: Path, seed: int) -> Workload:
    """The eight README invocations on the shipped fixtures, in README order.

    The fixtures are fixed inputs, so the seed does not change this workload.
    """
    cfg = "fixtures/run.json"
    pool_w, pool_s = "fixtures/winter_pool.json", "fixtures/world_pool.csv"
    cycle = [
        Op("weights", ["weights", "--config", cfg, "--method", "combined"], 1,
           OUTPUTS["weights"], check_total),
        Op("evaluate", ["evaluate", "--config", cfg, "--features", "10"], 1,
           OUTPUTS["evaluate"], lambda f: check_evaluation(f, rows=45)),
        Op("forecast", ["forecast", "--config", cfg, "--pool", pool_w, "--indicator",
                        "feb_temp_c", "--until", "2050", "--city", "Calgary"], 1,
           OUTPUTS["forecast"]),
        Op("screen winter", ["screen", "winter", "--pool", pool_w, "--config", cfg], 1,
           OUTPUTS["screen winter"], check_winter_fixture),
        Op("screen summer", ["screen", "summer", "--pool", pool_s, "--config", cfg], 1,
           OUTPUTS["screen summer"], check_summer_fixture),
        Op("compare-schemes", ["compare-schemes", "--config", cfg, "--plans",
                               "fixtures/plans.json"], 1, OUTPUTS["compare-schemes"]),
        Op("sensitivity", ["sensitivity", "--config", cfg, "--seed", "7", "--trials", "50"], 1,
           OUTPUTS["sensitivity"], lambda f: check_sensitivity(f, 50, 45)),
        Op("rsm", ["rsm", "--config", cfg, "--factors", "xi1,xi10", "--grid", "25"], 1,
           OUTPUTS["rsm"]),
    ]
    return Workload(
        "cli_fixture", cycle, root / cfg,
        ["load_hierarchy", "load_judgments", "load_decision_matrix", "load_pool"],
        expected_counts={"sensitivity.trials": 50, "indicators.rows_parsed": 7 * 45},
    )


def matrix_5k(root: Path, work: Path, seed: int) -> Workload:
    """``evaluate`` on a seeded 5,000-row matrix over the fixture hierarchy's ids."""
    rng = random.Random(f"matrix_5k:{seed}")
    ids = [s["id"] for s in _read_json(root / "fixtures/hierarchy.json")["indicators"]]
    lines = ["city," + ",".join(ids)]
    for i in range(MATRIX_ROWS):
        cells = ",".join(f"{rng.uniform(1.0, 100.0):.3f}" for _ in ids)
        lines.append(f"alt-{i:05d},{cells}")
    matrix = _write(work / "decision_matrix.csv", "\n".join(lines) + "\n")
    cfg = _write(work / "run.json", json.dumps(
        _config(work, root, decision_matrix=matrix.name), indent=1))
    op = Op("evaluate", ["evaluate", "--config", str(cfg.relative_to(root)), "--features", "10"],
            MATRIX_ROWS, OUTPUTS["evaluate"], lambda f: check_evaluation(f, rows=MATRIX_ROWS))
    return Workload(
        "matrix_5k", [op], cfg, ["load_hierarchy", "load_judgments", "load_decision_matrix"],
        generated=[matrix, cfg],
        expected_counts={
            "indicators.rows_parsed": MATRIX_ROWS, "indicators.row_calls": MATRIX_ROWS,
        },
    )


def trials_500(root: Path, work: Path, seed: int) -> Workload:
    """``sensitivity --trials 500`` on the shipped 45-row matrix, seeded from ``seed``."""
    cfg = "fixtures/run.json"
    # hostrank accepts only nonnegative trial seeds.
    op = Op("sensitivity", ["sensitivity", "--config", cfg, "--seed", str(seed % 2**32),
                            "--trials", str(TRIALS)],
            TRIALS, OUTPUTS["sensitivity"], lambda f: check_sensitivity(f, TRIALS, 45))
    return Workload(
        "trials_500", [op], root / cfg, ["load_hierarchy", "load_judgments", "load_decision_matrix"],
        expected_counts={"sensitivity.trials": TRIALS},
    )


def _perturb_series(entry: dict, level_scale: float, shape_scale: float) -> dict:
    values = entry["values"]
    level = values[0]
    return {
        "start_period": entry["start_period"],
        "values": [round(level * level_scale + (v - level) * shape_scale, 4) for v in values],
    }


def winter_1k(root: Path, work: Path, seed: int) -> Workload:
    """``screen winter`` on 1,000 seeded copies of the 12 shipped winter cities.

    City i copies shipped city i mod 12 and scales its GDP, sports score,
    indicators and climate series. Copies of the three gate passers pass the
    gate, and the February temperatures of the Stockholm and Warsaw copies
    fail the class-ratio test, so both shares are fixed by construction.
    """
    rng = random.Random(f"winter_1k:{seed}")
    shipped = _read_json(root / "fixtures/winter_pool.json")["cities"]
    base_s = _read_json(root / "fixtures/run.json")["screen"]["winter"]["s_base"]
    cities, s_base = [], {}
    for i in range(POOL_CITIES):
        base = shipped[i % len(shipped)]
        name = f"{base['name']} {i:04d}"
        climate = {
            var: _perturb_series(series, rng.uniform(0.95, 1.05), rng.uniform(0.8, 1.2))
            for var, series in base["climate"].items()
        }
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
    passing = sum(c["name"].rsplit(" ", 1)[0] in GATE_PASSERS for c in cities)
    ratio_fail = sum(c["name"].rsplit(" ", 1)[0] in CLASS_RATIO_FAILERS for c in cities)
    pool = _write(work / "winter_pool.json", json.dumps({"cities": cities}))
    cfg_obj = _config(work, root, pool=pool.name)
    cfg_obj["screen"]["stage1"] = {"gdp_rank": POOL_CITIES, "sports_rank": POOL_CITIES}
    cfg_obj["screen"]["winter"].update(exclude=[], s_base=s_base)
    cfg = _write(work / "run.json", json.dumps(cfg_obj, indent=1))
    op = Op("screen winter", ["screen", "winter", "--pool", str(pool.relative_to(root)),
                              "--config", str(cfg.relative_to(root))],
            POOL_CITIES, OUTPUTS["screen winter"],
            lambda f: check_winter_pool(f, POOL_CITIES, passing))
    return Workload(
        "winter_1k", [op], cfg, ["load_hierarchy", "load_judgments", "load_pool"],
        generated=[pool, cfg],
        notes=[
            f"gate passers by construction: {passing}/{POOL_CITIES} "
            f"({100.0 * passing / POOL_CITIES:.2f}%)",
            f"class-ratio failures by construction: {ratio_fail}/{POOL_CITIES} "
            f"({100.0 * ratio_fail / POOL_CITIES:.2f}%)",
        ],
        expected_counts={
            "dataio.load_pool_cities": POOL_CITIES,
            "selection.gate_gated": POOL_CITIES,
            "selection.gate_passed": passing,
            "grey.fit_gm11_calls": 2 * POOL_CITIES,
            "grey.class_ratio_warnings": ratio_fail,
        },
    )


WORKLOADS = {
    "cli_fixture": cli_fixture,
    "matrix_5k": matrix_5k,
    "trials_500": trials_500,
    "winter_1k": winter_1k,
}
